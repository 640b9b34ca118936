"""Relaxed inexact primal-dual splitting iteration with step-size checking.

The iteration solves a primal inclusion

    z in A x + sum_i w_i L_i^T ((B_i par D_i)(L_i x - r_i)) + C x

together with its dual, where C and the D_i^{-1} are cocoercive, by the
update (one step, relaxation lam, error terms a1/a2/b_i/c_i):

    p_n   = J_{tau A}( x_n - tau (sum_i w_i L_i^T v_{i,n} + C x_n + a1_n - z) ) + a2_n
    y_n   = 2 p_n - x_n
    x_{n+1} = x_n + lam (p_n - x_n)
    q_{i,n} = J_{sigma_i B_i^{-1}}( v_{i,n} + sigma_i (L_i y_n - D_i^{-1} v_{i,n} - c_{i,n} - r_i) ) + b_{i,n}
    v_{i,n+1} = v_{i,n} + lam (q_{i,n} - v_{i,n})

The relaxation is one constant lam in ]0, 1], so the paper's positive
lower bound on lam_n holds with lam itself.  The error terms come
from an optional callable ``n -> IterationErrors``; the convergence
theory needs their norms to be summable.

The convergence proof reads the update as a relaxed forward-backward
step in the renormed metric V and needs V - M^{-1}/2 to be positive
definite, where M = diag(mu, nu_1, ..., nu_m) holds the cocoercivity
constants of C and the D_i^{-1}.  By a Schur complement this holds when
the blockwise margin

    (1/tau - 1/(2 mu)) - sum_i w_i ||L_i||^2 / (1/sigma_i - 1/(2 nu_i))

is positive and every 1/sigma_i > 1/(2 nu_i), with 1/inf = 0.  This is
the step condition :func:`validate_steps` checks and
:func:`suggest_steps` satisfies by construction.  It contains the
paper's sufficient condition 2 rho min{mu, nu_1, ..., nu_m} > 1, with

    rho = min{1/tau, 1/sigma_1, ..., 1/sigma_m} (1 - sqrt(tau sum_i sigma_i w_i ||L_i||^2)),

which reaches V - M^{-1}/2 through ||V^{-1}|| <= 1/rho and the smallest
constant.  With every D_i^{-1} = 0 it is Condat's (JOTA 2013)
1/tau - sigma ||L||^2 > 1/(2 mu), and with C = 0 as well
Chambolle-Pock's tau sigma ||L||^2 < 1.  The weighted sum over dual
blocks is always reduced in ascending block order, so runs are bitwise
reproducible.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .operators import (
    CLOSED_FORM_NORM_KINDS,
    CocoerciveOp,
    LinearOp,
    ResolventOp,
    estimate_norm,
    resolvent_of_inverse,
)
from .spaces import SpaceLayout

__all__ = [
    "Block",
    "ProblemSpec",
    "StepConfig",
    "StoppingRule",
    "IterationErrors",
    "IterState",
    "IterationRecord",
    "StopReason",
    "RunReport",
    "InadmissibleStepsError",
    "certified_norms",
    "validate_steps",
    "suggest_steps",
    "initial_state",
    "run",
    "geometric_errors",
]

#: cap substituted for an infinite cocoercivity bound in the reported beta
BETA_CAP = 1e12
#: inflation applied to power-iteration estimates (never to certified hints)
NORM_SAFETY = 1.000001
POWER_TOL = 1e-8
POWER_MAX_ITER = 10000
#: halvings of the bracket in :func:`suggest_steps`' bisection
BISECTION_STEPS = 128
#: :func:`run` forms the exact state norm at least once per this many
#: iterations and carries an upper bound on it in between
NORM_RESYNC = 64
#: relative and absolute outward rounding of that bound (see :func:`run`)
NORM_BOUND_SLACK = 1e-6
NORM_BOUND_FLOOR = 1e-150
#: :func:`run` calls its metrics hook only on the history rows whose
#: ``iter`` is a multiple of this.  Measured on TV-1D at n = 2000 on a
#: 2-core shared host (numpy 2.4, one BLAS thread): the gap and KKT
#: evaluation that ``solve_convex(record_objective=True)`` hooks in, fed
#: the run's weighted sum, costs 47-60 us per call, 1.0-1.5 iterations of
#: 40-49 us, so at this stride the hook adds 10-15 % to the iteration
#: time, and on every row it would add 1.0-1.5 times it.
OBJECTIVE_STRIDE = 10


class _DivergenceError(RuntimeError):
    """A non-finite value appeared in the update; ``block`` names where.
    Raised by the kernel only; :func:`run` reports it as divergence."""

    def __init__(self, block: str):
        self.block = block
        super().__init__(f"non-finite value in {block}")


class InadmissibleStepsError(ValueError):
    """Step sizes violate the convergence condition and no override was given."""


@dataclass(frozen=True)
class Block:
    """One dual block: operator B (by resolvent), cocoercive D^{-1},
    coupling map L, and offset r."""

    B: ResolventOp
    Dinv: CocoerciveOp
    L: LinearOp
    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))


@dataclass(frozen=True)
class ProblemSpec:
    """Data of the monotone inclusion.

    ``A`` acts on the primal space, ``C`` is mu-cocoercive there, ``z``
    is the primal offset, and each block couples through its ``L``.
    """

    layout: SpaceLayout
    A: ResolventOp
    C: CocoerciveOp
    z: np.ndarray
    blocks: tuple[Block, ...]

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        lay = self.layout
        if self.A.dim != lay.dim_primal:
            raise ValueError("A acts on the wrong dimension")
        if self.C.dim != lay.dim_primal:
            raise ValueError("C acts on the wrong dimension")
        lay.check_coupling(self.z, self.blocks)
        for i, (blk, d) in enumerate(zip(self.blocks, lay.dual_dims)):
            if blk.B.dim != d:
                raise ValueError(f"block {i}: B acts on the wrong dimension")
            if blk.Dinv.dim != d:
                raise ValueError(f"block {i}: Dinv acts on the wrong dimension")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class StepConfig:
    """Step sizes with the derived admissibility quantities.

    ``margin`` is the blockwise margin of the module docstring
    (``-inf`` when some 1/sigma_i <= 1/(2 nu_i)) and ``admissible``
    says whether it is positive, which makes V - M^{-1}/2 positive
    definite.  ``rho`` (a lower bound on V) and ``delta`` come from the
    paper's condition, and ``beta`` is the smallest cocoercivity
    constant (capped at ``BETA_CAP`` when every constant is infinite);
    they are reported, not tested: 2 rho beta > 1 implies a positive
    margin, not the converse.  ``lam`` is the relaxation parameter of
    every iteration; a non-finite value or one outside ]0, 1] is
    refused with a ``ValueError`` that names ``lambda``.
    """

    tau: float
    sigmas: tuple[float, ...]
    rho: float
    beta: float
    delta: float
    margin: float
    norms: tuple[float, ...]
    lam: float = 1.0

    def __post_init__(self):
        lam = float(self.lam)
        if not 0.0 < lam <= 1.0:
            raise ValueError(f"lambda must lie in ]0, 1], got {lam!r}")
        object.__setattr__(self, "lam", lam)

    @property
    def admissible(self) -> bool:
        return self.margin > 0.0


@dataclass(frozen=True)
class StoppingRule:
    """Stopping parameters for :func:`run`.

    ``tol`` bounds the fixed-point residual (displacement of one exact
    relaxation-1 update, measured in the renormed metric) relative to
    ``1 + ||state||``; it must be finite and non-negative, and
    ``tol = 0`` stops only on an exactly zero residual.
    """

    tol: float = 1e-10
    max_iter: int = 10000

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        _check_tolerance("tol", self.tol)


def _check_tolerance(name: str, value: float) -> None:
    """Refuse a stopping tolerance that is not finite and non-negative."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class IterationErrors:
    """Error terms injected at one iteration; ``None`` means exact.

    ``b`` and ``c`` hold one entry per dual block, or none at all for
    "exact on every block"; :func:`run` refuses any other length.
    """

    a1: Optional[np.ndarray] = None
    a2: Optional[np.ndarray] = None
    b: tuple[Optional[np.ndarray], ...] = ()
    c: tuple[Optional[np.ndarray], ...] = ()


def geometric_errors(layout: SpaceLayout, amplitude: float, decay: float,
                     seed: int = 0) -> Optional[Callable[[int], IterationErrors]]:
    """Errors ``amplitude * decay^n`` times fixed unit directions, as the
    callable ``n -> IterationErrors`` that :func:`run` takes.

    Summable by construction for ``decay in ]0, 1[``.  Amplitude 0 gives
    ``None``, the exact iteration.
    """
    if not (math.isfinite(amplitude) and amplitude >= 0):
        raise ValueError(f"amplitude must be finite and non-negative, got {amplitude!r}")
    if not 0.0 < decay < 1.0:
        raise ValueError("decay must lie in ]0, 1[")
    if amplitude == 0.0:
        return None
    rng = np.random.default_rng(seed)

    def unit(dim):
        u = rng.standard_normal(dim)
        nu = np.linalg.norm(u)
        return u / nu if nu > 0 else np.ones(dim) / math.sqrt(dim)

    d_a1 = unit(layout.dim_primal)
    d_a2 = unit(layout.dim_primal)
    d_b = tuple(unit(d) for d in layout.dual_dims)
    d_c = tuple(unit(d) for d in layout.dual_dims)

    def at(n):
        s = amplitude * decay ** n
        return IterationErrors(
            a1=s * d_a1,
            a2=s * d_a2,
            b=tuple(s * u for u in d_b),
            c=tuple(s * u for u in d_c),
        )

    return at


@dataclass(frozen=True)
class IterState:
    """Iterate ``(x_n, v_n)``: one flat array ``u`` over the product
    space, with ``x`` and the ``v`` blocks as views of it."""

    n: int
    u: np.ndarray
    x: np.ndarray
    v: tuple[np.ndarray, ...]


def _state(n: int, u: np.ndarray, layout: SpaceLayout) -> IterState:
    return IterState(n, u, *layout.split(u))


@dataclass(frozen=True)
class IterationRecord:
    """One history row; ``iter`` counts completed iterations (1-based).

    ``step_norm`` is the weighted norm of the update just taken and
    ``residual`` the fixed-point residual of the state the update
    started from (see :func:`run` for how each is formed).  Objective
    fields are filled only when a metrics hook supplies them.
    """

    iter: int
    step_norm: float
    residual: float
    wall_ms: float
    primal_obj: Optional[float] = None
    dual_obj: Optional[float] = None
    gap: Optional[float] = None
    kkt: Optional[float] = None


@dataclass(frozen=True)
class StopReason:
    """The rule that ended a run, the value it compared and its threshold.

    ``rule`` is ``"residual"`` (``value`` the residual, ``threshold``
    ``tol * (1 + ||state||)``), ``"max_iter"`` (the iterations taken
    against ``max_iter``), ``"diverged"`` (no value: the run's
    ``failure`` names the block), or whatever reason the caller's
    ``extra_stop`` returns, such as ``"kkt_tol"`` in
    :func:`splitsolve.convex.solve_convex`.
    """

    rule: str
    value: Optional[float] = None
    threshold: Optional[float] = None

    def line(self) -> str:
        """``rule`` with its value and threshold, 17 significant digits."""
        if self.value is None:
            return self.rule
        return f"{self.rule} (value {self.value:.17g}, threshold {self.threshold:.17g})"


@dataclass
class RunReport:
    """Outcome of :func:`run`; ``stop`` says which rule ended it."""

    iterations: int
    history: list[IterationRecord]
    final_state: IterState
    stop: StopReason
    states: Optional[list[IterState]] = None
    used_errors: bool = False
    failure: Optional[str] = None

    @property
    def termination(self) -> str:
        """``"max_iter"``, ``"diverged"``, or ``"converged"`` for any
        other rule."""
        rule = self.stop.rule
        return rule if rule in ("max_iter", "diverged") else "converged"


def initial_state(layout: SpaceLayout, x0=None, v0=None) -> IterState:
    """State at iteration 0 in a fresh array; ``x0``/``v0`` are copied
    and missing components default to zero."""
    st = _state(0, np.zeros(layout.size), layout)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != st.x.shape:
            raise ValueError("x has the wrong shape")
        st.x[...] = x0
    if v0 is not None:
        v0 = tuple(np.asarray(vi, dtype=float) for vi in v0)
        if len(v0) != layout.num_blocks or any(
            vi.shape != dst.shape for vi, dst in zip(v0, st.v)
        ):
            raise ValueError("v has the wrong shapes")
        for dst, vi in zip(st.v, v0):
            dst[...] = vi
    return st


# ---------------------------------------------------------------------------
# step-size arithmetic


def certified_norms(spec: ProblemSpec, seed: int = 0) -> tuple[float, ...]:
    """Upper bounds on the block operator norms for the step condition.

    Operators whose kind is in ``CLOSED_FORM_NORM_KINDS`` (the library's
    identity, difference and gradient operators) contribute their
    closed-form ``norm_hint``, exact or rounded up to a strict upper
    bound, without any power iteration.  Every other operator is
    estimated: a user hint is taken at face value unless the estimate
    exceeds it (a hint below the true norm is repaired), and an
    estimate is inflated by ``NORM_SAFETY`` because an underestimate
    would void the convergence guarantee.  A non-finite or zero norm,
    and a power iteration that does not converge within
    ``POWER_MAX_ITER`` steps, are refused with a ``ValueError`` that
    names the block.
    """
    norms = []
    for i, blk in enumerate(spec.blocks):
        if blk.L.kind in CLOSED_FORM_NORM_KINDS:
            norms.append(blk.L.norm_hint)
        else:
            est = estimate_norm(blk.L, tol=POWER_TOL, max_iter=POWER_MAX_ITER, seed=seed)
            if not est.converged and math.isfinite(est.value):
                # a non-finite value is refused by name below
                raise ValueError(
                    f"block {i}: power iteration for the norm of L did not "
                    f"converge within {POWER_MAX_ITER} iterations")
            # estimate_norm returns max(hint, estimate); only a hint is used as it is
            norms.append(est.value if est.value == blk.L.norm_hint
                         else est.value * NORM_SAFETY)
    return _checked_norms(spec, norms)


def _checked_norms(spec: ProblemSpec, norms) -> tuple[float, ...]:
    """``norms`` as a tuple, refused unless it holds one finite,
    positive bound per block; the errors name the block."""
    norms = tuple(float(nm) for nm in norms)
    if len(norms) != spec.num_blocks:
        raise ValueError("one norm per block is required")
    for i, value in enumerate(norms):
        if not math.isfinite(value):
            raise ValueError(f"block {i}: linear operator has non-finite norm {value!r}")
        if value <= 0.0:
            raise ValueError(f"block {i}: linear operator has zero estimated norm")
    return norms


def _beta(spec: ProblemSpec) -> float:
    """Smallest cocoercivity constant, ``BETA_CAP`` when all are infinite."""
    beta = min(spec.C.constant, *(blk.Dinv.constant for blk in spec.blocks))
    return BETA_CAP if math.isinf(beta) else beta


def _step_quantities(spec, tau, sigmas, norms):
    weights = spec.layout.weights
    coupling = tau * math.fsum(
        s * w * nm * nm for s, w, nm in zip(sigmas, weights, norms)
    )
    root = math.sqrt(coupling) if coupling > 0 else 0.0
    rho = min(1.0 / tau, *(1.0 / s for s in sigmas)) * (1.0 - root)
    delta = (1.0 / root - 1.0) if root > 0 else math.inf
    return rho, _beta(spec), delta


def _step_margin(spec, tau, sigmas, norms) -> float:
    """``(1/tau - 1/(2 mu)) - sum_i w_i ||L_i||^2 / (1/sigma_i - 1/(2 nu_i))``,
    or ``-inf`` when some ``1/sigma_i <= 1/(2 nu_i)``; an infinite
    constant contributes 1/inf = 0 exactly."""
    terms = []
    for s, w, nm, blk in zip(sigmas, spec.layout.weights, norms, spec.blocks):
        slack = 1.0 / s - 0.5 / blk.Dinv.constant
        if slack <= 0.0:
            return -math.inf
        terms.append(w * nm * nm / slack)
    return (1.0 / tau - 0.5 / spec.C.constant) - math.fsum(terms)


def _closed_form_step(spec, norms) -> float:
    """The root of the margin along tau = sigma_i when every nu_i is
    infinite: 1/tau - h = S tau with h = 1/(2 mu) and
    S = sum_i w_i ||L_i||^2, rationalized so that nothing cancels."""
    h = 0.5 / spec.C.constant
    s = math.fsum(w * nm * nm for w, nm in zip(spec.layout.weights, norms))
    return 2.0 / (h + math.sqrt(h * h + 4.0 * s))


def _bisected_step(spec, norms) -> float:
    """The largest tau with a positive margin at tau = sigma_i, by
    ``BISECTION_STEPS`` halvings.

    The margin falls as the common step grows.  The bracket starts at
    ]0, 2 tau0], where tau0 is :func:`_closed_form_step`: a finite nu_i
    only lowers the margin, and at 2 tau0 it is at most
    h - 3/(2 tau0) <= -1/(2 tau0) < 0, since 1/tau0 >= h.
    """
    m = spec.num_blocks
    lo, hi = 0.0, 2.0 * _closed_form_step(spec, norms)
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if _step_margin(spec, mid, (mid,) * m, norms) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def validate_steps(spec: ProblemSpec, tau: float, sigmas, lam: float = 1.0,
                   norms: Optional[tuple[float, ...]] = None) -> StepConfig:
    """Evaluate the blockwise step condition for given tau and sigmas.

    The steps are admissible when the margin of the module docstring is
    positive.  That contains the paper's condition 2 rho beta > 1 (and
    Condat's and Chambolle-Pock's as special cases); rho, beta and
    delta are computed and reported beside the margin.  Inadmissibility
    is a verdict recorded on the returned config, not an error; a
    relaxation ``lam`` outside ]0, 1] is an error (see
    :class:`StepConfig`).  ``norms`` may be passed to reuse previously certified operator-norm
    bounds; they are refused like :func:`certified_norms` refuses its
    own.
    """
    tau = float(tau)
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau!r}")
    if tau <= 0:
        raise ValueError("tau must be strictly positive")
    sigmas = tuple(float(s) for s in sigmas)
    if len(sigmas) != spec.num_blocks:
        raise ValueError("one sigma per block is required")
    for i, s in enumerate(sigmas):
        if not math.isfinite(s):
            raise ValueError(f"sigma[{i}] must be finite, got {s!r}")
    if any(s <= 0 for s in sigmas):
        raise ValueError("every sigma must be strictly positive")
    norms = certified_norms(spec) if norms is None else _checked_norms(spec, norms)
    rho, beta, delta = _step_quantities(spec, tau, sigmas, norms)
    margin = _step_margin(spec, tau, sigmas, norms)
    return StepConfig(
        tau=tau,
        sigmas=sigmas,
        rho=rho,
        beta=beta,
        delta=delta,
        margin=margin,
        norms=norms,
        lam=lam,
    )


def suggest_steps(spec: ProblemSpec, safety: float = 0.99, lam: float = 1.0,
                  norms: Optional[tuple[float, ...]] = None) -> StepConfig:
    """Pick equal step sizes that satisfy the blockwise step condition.

    Sets ``tau = sigma_i = safety * tau*``, where ``tau*`` is the
    largest common step with a positive margin: the boundary root
    ``2 / (h + sqrt(h^2 + 4 S))`` with ``h = 1/(2 mu)`` and
    ``S = sum_i w_i ||L_i||^2`` when every nu_i is infinite (Condat's
    condition at tau = sigma), else a bisection on the margin.  The
    margin falls as the common step grows, so any ``safety`` in ]0, 1[
    makes the strict inequality hold.  ``lam`` is checked and recorded
    as in :func:`validate_steps`.
    """
    if not 0.0 < safety < 1.0:
        raise ValueError("safety must lie in ]0, 1[")
    norms = certified_norms(spec) if norms is None else _checked_norms(spec, norms)
    if all(math.isinf(blk.Dinv.constant) for blk in spec.blocks):
        boundary = _closed_form_step(spec, norms)
    else:
        boundary = _bisected_step(spec, norms)
    step = safety * boundary
    cfg = validate_steps(spec, step, (step,) * spec.num_blocks, lam=lam,
                         norms=norms)
    if not cfg.admissible:
        # cannot happen for safety < 1; guards against float pathologies
        raise RuntimeError("suggested steps failed the admissibility check")
    return cfg


# ---------------------------------------------------------------------------
# iteration kernel


def _weighted_adjoint_sum(blocks, weights, v, out, tmp):
    """``sum_i w_i L_i^T v_i`` into ``out``, reduced in ascending block
    order; ``tmp`` holds each weighted term.  Every caller forms the
    coupling term here, so all of them get the same bits.

    The first term lands as ``term + 0.0``, which maps -0 to +0 exactly
    as filling ``out`` with zeros and adding did, so ``out`` never holds
    -0 (a sum is -0 only when both terms are).  A unit weight is not
    multiplied in.
    """
    for i, (w, blk, vi) in enumerate(zip(weights, blocks, v)):
        term = blk.L.adjoint_apply(vi)
        if w != 1.0:
            # else x * 1 = x
            term = np.multiply(term, w, out=tmp)
        if i:
            np.add(out, term, out=out)
        else:
            # the fill and first add in one pass: -0 + 0.0 = +0 = 0.0 + -0
            np.add(term, 0.0, out=out)
    return out


def _vanishes(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is +0.0, so that subtracting ``a`` is
    exact: x - (+0) = x for every x.  A -0.0 entry does not vanish,
    since -0 - (-0) = +0.  One pass over the bits: +0.0 is the only
    double whose bits are all zero."""
    return not np.count_nonzero(a.view(np.uint64))


class _Workspace:
    """Scratch arrays of the kernel and of the residual arithmetic, and
    the kernel operations that are exact no-ops for the whole run.

    ``wsum`` and ``wsum_next`` hold the weighted sums
    sum_i w_i L_i^T v_i of the current and the next state; :func:`run`
    swaps them after each iteration.  ``tmp`` holds one weighted term of
    such a sum and, once the sum is formed, the difference of the two.
    ``y``, ``arg`` (the coupling term t, then the argument handed to the
    resolvent of A, and p itself when an ``a2`` error is added) and the
    per-block ``dual_arg`` (the argument handed to the dual resolvent,
    and q itself when a ``b`` error is added) never leave an update.
    ``d`` receives the unrelaxed displacement (p - x, q - v) of the last
    update and ``s`` the displacement of the step taken, both flat over
    the product space with per-block views ``dx``/``dv`` and
    ``sx``/``sv``.

    ``keep_C``, ``keep_z``, ``keep_Dinv[i]`` and ``keep_r[i]`` say
    whether adding C x, subtracting z, subtracting D_i^{-1} v_i and
    subtracting r_i can change a bit.  C and D_i^{-1} are skipped when
    their kind is ``"zero"`` (the library zero map, which returns +0),
    z and r_i when :func:`_vanishes` holds.
    """

    __slots__ = ("wsum", "wsum_next", "tmp", "arg", "y", "dual_arg",
                 "d", "dx", "dv", "s", "sx", "sv",
                 "keep_C", "keep_z", "keep_Dinv", "keep_r")

    def __init__(self, spec: ProblemSpec):
        layout = spec.layout
        n, dims = layout.dim_primal, layout.dual_dims
        self.wsum, self.wsum_next, self.tmp, self.arg, self.y = (
            np.empty(n) for _ in range(5))
        self.dual_arg = tuple(np.empty(d) for d in dims)
        self.d = np.empty(layout.size)
        self.dx, self.dv = layout.split(self.d)
        self.s = np.empty(layout.size)
        self.sx, self.sv = layout.split(self.s)
        self.keep_C = spec.C.kind != "zero"
        self.keep_z = not _vanishes(spec.z)
        self.keep_Dinv = tuple(blk.Dinv.kind != "zero" for blk in spec.blocks)
        self.keep_r = tuple(not _vanishes(blk.r) for blk in spec.blocks)


def _kernel(spec, tau, sigmas, lam, st, wsum, err, ws, out):
    """One update from the state ``st`` into the state ``out``, given
    ``wsum`` = :func:`_weighted_adjoint_sum` of ``st.v``; returns the
    squared norms ``<dx, dx>`` and ``[<dv_i, dv_i>]`` of the unrelaxed
    displacement, as :func:`_sq_norms` forms them.

    The displacement always lands in ``ws.d``; with ``out=None`` the
    relaxed update is not formed.  The passes run in this order: the
    coupling term t and p; dx = p - x and <dx, dx>; y = 2p - x; then per
    block L_i y, the dual argument, q_i, dv_i = q_i - v_i and
    <dv_i, dv_i>; last the relaxed update.  Each dot is the finiteness
    test of its block: a sum of squares is finite only if every entry
    is, so a finite dot clears p (or q_i) without a pass of its own, and
    no L_i sees a y formed from a non-finite p.  Only a non-finite dot
    looks at p or q_i, which raises :class:`_DivergenceError` naming the
    block, or lets a finite update whose squares overflow go on.

    Every array operation writes into ``ws`` or ``out``, never into
    ``st``, ``wsum`` or an array an operator returned; an operator's
    result is consumed before the buffer it was handed is written again.
    The operations and their order are those of the plain formulas in
    the module docstring, less the passes that are exact IEEE identities
    (each is named where it is skipped), so results are bitwise those of
    the formulas; the dual-block reduction runs in ascending block order.
    """
    x, v = st.x, st.v
    t = wsum
    if ws.keep_C:
        # else C x is +0, and t + (+0) = t since t never holds -0
        t = np.add(t, spec.C.apply(x), out=ws.arg)
    if err is not None and err.a1 is not None:
        t = np.add(t, err.a1, out=ws.arg)
    if ws.keep_z:
        # else t - (+0) = t
        t = np.subtract(t, spec.z, out=ws.arg)
    p = spec.A.resolvent(tau, np.subtract(x, np.multiply(t, tau, out=ws.arg), out=ws.arg))
    if err is not None and err.a2 is not None:
        p = np.add(p, err.a2, out=ws.arg)
    dx = np.subtract(p, x, out=ws.dx)
    xx = float(np.dot(dx, dx))
    if not math.isfinite(xx) and not np.isfinite(p).all():
        raise _DivergenceError("primal update p")
    y = np.subtract(np.multiply(p, 2.0, out=ws.y), x, out=ws.y)
    vv = []
    for i, blk in enumerate(spec.blocks):
        sigma, u = sigmas[i], ws.dual_arg[i]
        # L_i y - D_i^{-1} v_i - c_i - r_i, where a vanished term is not
        # subtracted (x - (+0) = x) and the first subtraction left reads
        # L_i y; with none left, L_i y itself is scaled below
        a = blk.L.apply(y)
        if ws.keep_Dinv[i]:
            a = np.subtract(a, blk.Dinv.apply(v[i]), out=u)
        if err is not None and err.c[i] is not None:
            a = np.subtract(a, err.c[i], out=u)
        if ws.keep_r[i]:
            a = np.subtract(a, blk.r, out=u)
        np.add(v[i], np.multiply(a, sigma, out=u), out=u)
        q = resolvent_of_inverse(blk.B, sigma, u)
        if err is not None and err.b[i] is not None:
            q = np.add(q, err.b[i], out=u)
        dvi = np.subtract(q, v[i], out=ws.dv[i])
        vv.append(float(np.dot(dvi, dvi)))
        if not math.isfinite(vv[i]) and not np.isfinite(q).all():
            raise _DivergenceError(f"dual update q[{i}]")
    if out is not None:
        if lam == 1.0:
            # x * 1 = x
            np.add(st.u, ws.d, out=out.u)
        else:
            np.add(st.u, np.multiply(ws.d, lam, out=out.u), out=out.u)
    return xx, vv


def _sq_norms(dx, dv):
    """``<dx, dx>`` and each ``<dv_i, dv_i>``."""
    return float(np.dot(dx, dx)), [float(np.dot(d, d)) for d in dv]


def _state_norm(weights, st: IterState) -> float:
    """The weighted norm of the state ``st``, as the stop test forms it."""
    return math.sqrt(_weighted_sq(weights, *_sq_norms(st.x, st.v)))


def _checked_errors(err: IterationErrors, m: int) -> IterationErrors:
    """``err`` with an empty ``b`` or ``c`` read as exact on each of the
    ``m`` blocks; any other length than ``m`` is refused by name."""
    fields = {}
    for name in ("b", "c"):
        terms = getattr(err, name)
        if not terms:
            fields[name] = (None,) * m
        elif len(terms) != m:
            raise ValueError(
                f"IterationErrors.{name} has {len(terms)} entries but the "
                f"problem has {m} blocks (give one per block, or none)")
    return dataclasses.replace(err, **fields) if fields else err


def _weighted_sq(weights, xx, vv):
    """``xx + sum_i w_i vv_i``, reduced in ascending block order like
    :func:`spaces.inner_blocks`."""
    s = xx
    for w, q in zip(weights, vv):
        s += w * q
    return s


def _v_quadform(spec, tau, sigmas, dx, dv, xx, vv, dwsum=None):
    """Quadratic form of the renormed metric at displacement (dx, dv),
    given the squared norms ``xx``, ``vv`` of its blocks.

    The cross term sum_i w_i <L_i dx, dv_i> is formed block by block,
    or, when ``dwsum`` = sum_i w_i L_i^T dv_i is given, as
    ``<dx, dwsum>`` after the diagonal terms, with no L_i apply."""
    weights = spec.layout.weights
    s = xx / tau
    for i, blk in enumerate(spec.blocks):
        s += weights[i] / sigmas[i] * vv[i]
        if dwsum is None:
            s -= 2.0 * weights[i] * float(np.dot(blk.L.apply(dx), dv[i]))
    if dwsum is not None:
        s -= 2.0 * float(np.dot(dx, dwsum))
    return s


def _residual_norm(spec, cfg, admissible, dx, dv, sq, dwsum=None):
    # the renormed metric is positive definite only for admissible steps;
    # fall back to the plain weighted norm under an override
    if not admissible:
        return math.sqrt(_weighted_sq(spec.layout.weights, *sq))
    quad = _v_quadform(spec, cfg.tau, cfg.sigmas, dx, dv, *sq, dwsum)
    # an overflowed cross term must not read as a zero residual
    return math.sqrt(max(quad, 0.0)) if math.isfinite(quad) else abs(quad)


def run(spec: ProblemSpec, cfg: StepConfig, x0=None, v0=None,
        errors: Optional[Callable[[int], IterationErrors]] = None,
        stop: Optional[StoppingRule] = None,
        allow_inadmissible: bool = False,
        record_states: bool = False,
        iter_metrics: Optional[Callable[[IterState, np.ndarray], dict]] = None,
        extra_stop: Optional[Callable[[IterState, np.ndarray],
                                      Optional[StopReason]]] = None,
        ) -> RunReport:
    """Iterate until the stopping rule fires and report the run.

    Convergence is declared when the fixed-point residual (displacement
    of one exact relaxation-1 update, in the renormed metric) of the
    current state drops below ``stop.tol * (1 + ||state||)``, or when
    ``extra_stop`` returns a :class:`StopReason` (its own rule, value
    and threshold) for the new state rather than ``None``;
    ``report.stop`` records which rule ended the run.  ``errors``, when
    given, maps the iteration index ``n`` to the :class:`IterationErrors`
    injected there; ``None`` runs the exact iteration.  An empty ``b``
    or ``c`` is exact on every block, and any other length than one
    entry per block is refused with a ``ValueError`` naming the field.
    The relaxation is ``cfg.lam``.  ``iter_metrics`` may attach
    objective values to the history rows whose ``iter`` is a multiple
    of ``OBJECTIVE_STRIDE``; it is called on those rows only, and every
    other row leaves the objective fields ``None``.  Both hooks are
    called as ``hook(state, wsum)``, where ``wsum`` is the weighted sum
    sum_i w_i L_i^T v_i of ``state`` that the run carries (the bits of
    :func:`_weighted_adjoint_sum` of ``state.v``), so a hook that needs
    it does not form it again.  ``wsum`` is a workspace array of the
    run: it is valid only during the call, and a hook must not write
    into it or keep it.

    The renormed metric's cross term is sum_i w_i <L_i dx, dv_i>.  The
    weighted sum W_n = sum_i w_i L_i^T v_{i,n} that the update needs is
    formed once per iteration, at the end of the previous one, and
    carried.  At relaxation 1 without injected errors the step taken is
    the displacement (dx, dv) = (p - x, q - v) of the update, which
    serves as the step and as the residual's displacement, and the
    cross term is <dx, W_{n+1} - W_n>: no L_i is applied and no state
    difference formed for the stop test, and the squared norms are the
    ones the update formed.  Otherwise the step is x_{n+1} - x_n (and
    so on), the residual's displacement is (x + (p - x)) - x (and so on)
    and the cross term is formed block by block.  Both forms are equal
    in exact arithmetic; they round differently, most where the residual
    is small against the state.

    Finiteness is checked inside the update, by the squared norm of each
    block's displacement (see :func:`_kernel`); a non-finite p or q_i
    ends the run as ``"diverged"`` with ``failure`` naming the block and
    the iteration.  The loop runs with numpy's overflow and invalid-value
    warnings off, and nothing is lost by that: every non-finite update
    still ends as a named ``"diverged"``, and a finite state whose
    squares overflow goes on as before, its inf norms never meeting the
    threshold.  The state norm enters only the threshold, so the
    exact norm is formed only when it can change the decision: every
    ``NORM_RESYNC`` iterations (iteration 0 included) and whenever the
    residual is at most ``tol * (1 + U)``, where U is an upper bound
    carried from the last exact norm by the triangle inequality, or U is
    not finite.  The stop decision, ``report.stop`` and the history
    keep the bits of forming the exact norm every iteration.

    With ``record_states=True`` the report keeps every iterate (index 0
    included) for post-hoc monitoring; with
    ``stop=StoppingRule(tol=0.0, max_iter=k)`` it takes exactly ``k``
    steps unless one lands on an exact fixed point.

    Every state is an :class:`IterState` over one flat array; ``x0``
    and ``v0`` are copied into the initial state.  The iteration works
    in arrays allocated once per run: two state arrays alternate.  An
    update whose state is handed out writes into a fresh array instead:
    every update when ``record_states`` or ``extra_stop`` is given, and
    with ``iter_metrics`` the updates of its rows.  The iteration never
    writes into ``x0``/``v0`` or into an array an operator returned, and
    a state handed out (to ``iter_metrics``, ``extra_stop``, the
    recorded states or ``final_state``) is never overwritten later;
    ``iter_metrics`` and ``extra_stop`` must not write into it either,
    since the next weighted sum has been formed from it by then, and
    the ``wsum`` they get with it is overwritten two iterations later.
    Operators may return their input array but must not keep it: the
    solver reuses the arrays it passes them.  The
    built-in zero maps (``CocoerciveOp.zero``, ``zero_smooth``,
    ``dirac_term``, the inverse resolvent of ``ResolventOp.zero`` and
    the conjugate prox of the catalog ``zero`` function) return one
    shared read-only array.

    Once per run the iteration decides which array passes are exact
    no-ops and skips them: subtracting ``z`` or ``r_i`` when every entry
    is +0.0 (x - (+0) = x; a -0.0 entry keeps its pass), applying ``C``
    or ``D_i^{-1}`` when its ``kind`` is ``"zero"`` (the library zero
    map, whose +0 changes no bit), multiplying by a weight or a
    relaxation equal to 1 (x * 1 = x), and filling the weighted sum with
    zeros before its first term.  So the bits are those of the plain
    formulas in the module docstring.

    The dual step J_{sigma_i B_i^{-1}} is :func:`resolvent_of_inverse`:
    the closed form ``B_i.inverse_resolvent`` where one is set
    (``ResolventOp.zero`` and the blocks lowered from catalog functions
    other than ``box``), else the inverse-resolvent identity on
    ``B_i.resolvent``.
    """
    admissible = cfg.admissible
    if not admissible and not allow_inadmissible:
        raise InadmissibleStepsError(
            f"step sizes are inadmissible (margin = {cfg.margin:.17g} <= 0; "
            f"rho = {cfg.rho:.17g}, beta = {cfg.beta:.17g}, delta = {cfg.delta:.17g}); "
            "pass allow_inadmissible=True to run anyway"
        )
    stop = stop or StoppingRule()
    layout = spec.layout
    st = initial_state(layout, x0, v0)
    weights = layout.weights
    tau, sigmas, lam = cfg.tau, cfg.sigmas, cfg.lam

    ws = _Workspace(spec)
    wsum, wsum_next = ws.wsum, ws.wsum_next
    _weighted_adjoint_sum(spec.blocks, weights, st.v, wsum, ws.tmp)
    # a state that leaves the loop keeps its array, so an update whose
    # state is handed out writes into a fresh one; the others alternate
    # between two arrays, neither of which is ever handed out before the
    # run ends
    every = record_states or extra_stop is not None
    pair = None if every else [_state(0, np.empty(layout.size), layout) for _ in range(2)]
    history: list[IterationRecord] = []
    states: Optional[list[IterState]] = [st] if record_states else None
    reason = StopReason("max_iter", float(stop.max_iter), float(stop.max_iter))
    failure = None
    # an upper bound on the computed norm of st, exact after a resync
    bound = math.inf

    # entered once per run (about 2 us); the docstring says why the
    # warnings it silences are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(stop.max_iter):
            err_n = None if errors is None else errors(n)
            if err_n is not None:
                err_n = _checked_errors(err_n, spec.num_blocks)
            hook = iter_metrics is not None and (n + 1) % OBJECTIVE_STRIDE == 0
            if every or hook:
                nxt = _state(n + 1, np.empty(layout.size), layout)
            else:
                buf = pair[n % 2]
                nxt = IterState(n + 1, buf.u, buf.x, buf.v)
            t0 = time.perf_counter()
            try:
                sq = _kernel(spec, tau, sigmas, lam, st, wsum, err_n, ws, nxt)
            except _DivergenceError as exc:
                reason = StopReason("diverged")
                failure = f"non-finite value in {exc.block} at iteration {n}"
                break

            exact = err_n is None or all(
                e is None for e in (err_n.a1, err_n.a2, *err_n.b, *err_n.c))
            if not exact:
                # the residual measures the error-free update from the same state
                _kernel(spec, tau, sigmas, 1.0, st, wsum, None, ws, None)
            # the next iteration's weighted sum, the same bits as forming it there
            _weighted_adjoint_sum(spec.blocks, weights, nxt.v, wsum_next, ws.tmp)
            if exact and lam == 1.0:
                # the step taken is the relaxation-1 displacement d, and
                # v_{n+1} - v_n = dv gives sum_i w_i L_i^T dv_i = W_{n+1} - W_n
                dwsum = np.subtract(wsum_next, wsum, out=ws.tmp) if admissible else None
                step_sq = res_sq = sq
            else:
                np.subtract(nxt.u, st.u, out=ws.s)
                step_sq = _sq_norms(ws.sx, ws.sv)
                # the relaxation-1 displacement (x + (p - x)) - x
                np.subtract(np.add(st.u, ws.d, out=ws.d), st.u, out=ws.d)
                dwsum = None
                res_sq = _sq_norms(ws.dx, ws.dv)
            residual = _residual_norm(spec, cfg, admissible, ws.dx, ws.dv, res_sq, dwsum)
            step_norm = math.sqrt(_weighted_sq(weights, *step_sq))
            # the state norm enters only the threshold tol (1 + ||st||), and
            # rounding is monotone: an upper bound U >= ||st|| gives a threshold
            # at least as large, so a residual above tol (1 + U) cannot meet
            # the exact one, and the exact norm is needed only at or below it
            if (n % NORM_RESYNC == 0 or not math.isfinite(bound)
                    or residual <= stop.tol * (1.0 + bound)):
                bound = _state_norm(weights, st)
            state_norm = bound
            # ||u_{n+1}|| <= ||u_n|| + ||u_{n+1} - u_n||, rounded outward.  With
            # eps = 2^-53 and N the state's length plus twice the blocks, a
            # computed norm lies within gamma_N / 2 + eps ~ (N / 2 + 1) eps of
            # the true one (a sum of N nonnegative terms, then a square
            # root); u_{n+1} - u_n differs from the step whose norm was taken
            # by one rounding per entry (u_n + d, or the difference itself),
            # and forming the bound costs three more.  So the relative slack
            # must exceed (N + 8) eps, which 1e-6 does for N < 9e9.  Squares
            # that underflow move a computed norm by at most sqrt(N) 2^-537
            # < 1e-150 absolutely, which the floor covers.
            bound = (state_norm + step_norm) * (1.0 + NORM_BOUND_SLACK) + NORM_BOUND_FLOOR
            wsum, wsum_next = wsum_next, wsum
            wall_ms = (time.perf_counter() - t0) * 1000.0

            extras = iter_metrics(nxt, wsum) if hook else {}
            history.append(IterationRecord(
                iter=n + 1, step_norm=step_norm, residual=residual,
                wall_ms=wall_ms, **extras,
            ))
            if record_states:
                states.append(nxt)
            st = nxt

            # norms can overflow to inf while the state is still finite; a
            # non-finite residual must never satisfy the convergence test
            threshold = stop.tol * (1.0 + state_norm)
            if (math.isfinite(residual) and math.isfinite(state_norm)
                    and residual <= threshold):
                reason = StopReason("residual", residual, threshold)
                break
            if extra_stop is not None:
                extra = extra_stop(st, wsum)
                if extra is not None:
                    reason = extra
                    break

    return RunReport(
        iterations=len(history),
        history=history,
        final_state=st,
        stop=reason,
        states=states,
        used_errors=errors is not None,
        failure=failure,
    )
