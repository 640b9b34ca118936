"""Primal-dual splitting solver for composite monotone inclusions.

The package solves inclusions coupling a maximally monotone operator, a
cocoercive operator, and weighted compositions of parallel sums through
linear maps, together with the matching structured convex programs.  See
the README for the data model and the CLI.
"""

from .spaces import (
    ShapeMismatchError,
    SpaceLayout,
)
from .operators import (
    CocoerciveOp,
    Domain,
    LinearOp,
    ProxFunction,
    ResolventOp,
    catalog_prox,
    diff1d_op,
    estimate_norm,
    grad2d_op,
    identity_op,
    matrix_op,
    resolvent_from_prox,
    resolvent_of_inverse,
)
from .solver import (
    Block,
    InadmissibleStepsError,
    IterState,
    IterationErrors,
    ProblemSpec,
    RunReport,
    StepCondition,
    StepConfig,
    StopReason,
    StoppingRule,
    certified_norms,
    geometric_errors,
    initial_state,
    run,
    step_condition,
    suggest_steps,
    validate_steps,
)
from .convex import (
    ConvexBlock,
    ConvexProblem,
    GapReport,
    QualificationReport,
    SmoothTerm,
    StronglyConvexTerm,
    check_qualification,
    dirac_term,
    evaluate_gap,
    kkt_residual,
    quadratic_smooth,
    quadratic_term,
    solve_convex,
    zero_smooth,
)
from .diagnostics import CertificateReport, certify_operators

__version__ = "0.1.0"
