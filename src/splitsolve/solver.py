"""Relaxed inexact primal-dual splitting iteration with step-size checking.

The iteration solves a primal inclusion

    z in A x + sum_i w_i L_i^T ((B_i par D_i)(L_i x - r_i)) + C x

together with its dual, where C and the D_i^{-1} are cocoercive, by the
update (one step, relaxation lam_n, error terms a1/a2/b_i/c_i):

    p_n   = J_{tau A}( x_n - tau (sum_i w_i L_i^T v_{i,n} + C x_n + a1_n - z) ) + a2_n
    y_n   = 2 p_n - x_n
    x_{n+1} = x_n + lam_n (p_n - x_n)
    q_{i,n} = J_{sigma_i B_i^{-1}}( v_{i,n} + sigma_i (L_i y_n - D_i^{-1} v_{i,n} - c_{i,n} - r_i) ) + b_{i,n}
    v_{i,n+1} = v_{i,n} + lam_n (q_{i,n} - v_{i,n})

Convergence requires the step sizes to satisfy

    2 rho min{mu, nu_1, ..., nu_m} > 1,
    rho = min{1/tau, 1/sigma_1, ..., 1/sigma_m} (1 - sqrt(tau sum_i sigma_i w_i ||L_i||^2)),

which :func:`validate_steps` checks and :func:`suggest_steps` satisfies
by construction.  The weighted sum over dual blocks is always reduced in
ascending block order, so runs are bitwise reproducible.
"""

from __future__ import annotations

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
)
from .spaces import SpaceLayout, inner_blocks

__all__ = [
    "Block",
    "ProblemSpec",
    "StepConfig",
    "StoppingRule",
    "IterationErrors",
    "ErrorSchedule",
    "IterState",
    "IterationRecord",
    "RunReport",
    "DivergenceError",
    "InadmissibleStepsError",
    "certified_norms",
    "validate_steps",
    "suggest_steps",
    "initial_state",
    "iterate_once",
    "run",
    "zero_errors",
    "geometric_errors",
]

#: cap substituted for an infinite cocoercivity bound in step arithmetic
BETA_CAP = 1e12
#: inflation applied to power-iteration estimates (never to certified hints)
NORM_SAFETY = 1.000001
POWER_TOL = 1e-8
POWER_MAX_ITER = 10000


class DivergenceError(RuntimeError):
    """A non-finite value appeared; ``block`` names where."""

    def __init__(self, iteration: int, block: str):
        self.iteration = iteration
        self.block = block
        super().__init__(
            f"non-finite value in {block} at iteration {iteration}"
        )


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

    ``rho`` and ``delta`` come from the step-size condition above,
    ``beta`` is the smallest cocoercivity constant (capped at
    ``BETA_CAP`` when every constant is infinite), and ``admissible``
    records whether ``2 rho beta > 1``.  ``lambda_schedule`` maps the
    iteration index to the relaxation parameter; values must lie in
    ``[epsilon, 1]`` unless ``allow_overrelax`` widens the range to
    ``]0, 2[`` (only justified for a restricted problem class).
    """

    tau: float
    sigmas: tuple[float, ...]
    rho: float
    beta: float
    delta: float
    admissible: bool
    norms: tuple[float, ...]
    lambda_schedule: Callable[[int], float] = lambda n: 1.0
    epsilon: float = 1e-3
    allow_overrelax: bool = False

    def lambda_at(self, n: int) -> float:
        lam = float(self.lambda_schedule(n))
        if self.allow_overrelax:
            if not 0.0 < lam < 2.0:
                raise ValueError(f"lambda_{n} = {lam} outside ]0, 2[")
        elif not self.epsilon <= lam <= 1.0:
            raise ValueError(
                f"lambda_{n} = {lam} outside [{self.epsilon}, 1]"
            )
        return lam


@dataclass(frozen=True)
class StoppingRule:
    """Stopping parameters for :func:`run`.

    ``tol`` bounds the fixed-point residual (displacement of one exact
    relaxation-1 update, measured in the renormed metric) relative to
    ``1 + ||state||``.  ``kkt_tol`` is consulted by the convex layer
    only.  Both tolerances must be finite and non-negative; ``tol = 0``
    stops only on an exactly zero residual.
    """

    tol: float = 1e-10
    max_iter: int = 10000
    kkt_tol: Optional[float] = None

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        for name in ("tol", "kkt_tol"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class IterationErrors:
    """Error terms injected at one iteration; ``None`` means exact."""

    a1: Optional[np.ndarray] = None
    a2: Optional[np.ndarray] = None
    b: tuple[Optional[np.ndarray], ...] = ()
    c: tuple[Optional[np.ndarray], ...] = ()


@dataclass(frozen=True)
class ErrorSchedule:
    """Sequence of per-iteration error terms.

    Built-in constructors guarantee absolute summability; arbitrary
    user schedules only declare it.
    """

    at: Callable[[int], IterationErrors]
    declared_summable: bool = True
    is_zero: bool = False


def zero_errors(layout: SpaceLayout) -> ErrorSchedule:
    """The exact schedule (no perturbations)."""
    m = layout.num_blocks
    none_blocks = (None,) * m
    err = IterationErrors(None, None, none_blocks, none_blocks)
    return ErrorSchedule(at=lambda n: err, declared_summable=True, is_zero=True)


def geometric_errors(layout: SpaceLayout, amplitude: float, decay: float,
                     seed: int = 0) -> ErrorSchedule:
    """Geometric schedule ``amplitude * decay^n`` times fixed unit directions.

    Summable by construction for ``decay in ]0, 1[``.
    """
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    if not 0.0 < decay < 1.0:
        raise ValueError("decay must lie in ]0, 1[")
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

    return ErrorSchedule(at=at, declared_summable=True, is_zero=amplitude == 0.0)


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
    started from.  Objective fields are filled only when a metrics hook
    supplies them.
    """

    iter: int
    step_norm: float
    residual: float
    wall_ms: float
    primal_obj: Optional[float] = None
    dual_obj: Optional[float] = None
    gap: Optional[float] = None
    kkt: Optional[float] = None


@dataclass
class RunReport:
    """Outcome of :func:`run`."""

    iterations: int
    termination: str  # "converged" | "max_iter" | "diverged"
    history: list[IterationRecord]
    final_state: IterState
    states: Optional[list[IterState]] = None
    used_errors: bool = False
    failure: Optional[str] = None


def initial_state(layout: SpaceLayout, x0=None, v0=None) -> IterState:
    """State at iteration 0 in a fresh array; ``x0``/``v0`` are copied
    and missing components default to zero."""
    st = _state(0, np.zeros(layout.size), layout)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != st.x.shape:
            raise ValueError("x0 has the wrong shape")
        st.x[...] = x0
    if v0 is not None:
        v0 = tuple(np.asarray(vi, dtype=float) for vi in v0)
        if len(v0) != layout.num_blocks or any(
            vi.shape != dst.shape for vi, dst in zip(v0, st.v)
        ):
            raise ValueError("v0 has the wrong shapes")
        for dst, vi in zip(st.v, v0):
            dst[...] = vi
    return st


# ---------------------------------------------------------------------------
# step-size arithmetic


def certified_norms(spec: ProblemSpec, seed: int = 0) -> tuple[float, ...]:
    """Upper bounds on the block operator norms for the step condition.

    Operators whose kind is in ``CLOSED_FORM_NORM_KINDS`` (the library's
    identity, difference and gradient operators) contribute their exact
    closed-form ``norm_hint`` without any power iteration.  Every other
    operator is estimated: a user hint is taken at face value unless the
    estimate exceeds it (a hint below the true norm is repaired), and an
    estimate is inflated by ``NORM_SAFETY`` because an underestimate
    would void the convergence guarantee.  Power iteration stays at or
    below the closed forms (one exception: ``grad2d_op(2, 2)``, whose
    closed form rounds to one ulp below the exact norm 2), so skipping
    it leaves the norms, and with them steps and iterates, bit for bit
    the same.  A non-finite or zero norm is refused with a
    ``ValueError`` that names the block.
    """
    norms = []
    for i, blk in enumerate(spec.blocks):
        if blk.L.kind in CLOSED_FORM_NORM_KINDS:
            value = blk.L.norm_hint
        else:
            est = estimate_norm(blk.L, tol=POWER_TOL, max_iter=POWER_MAX_ITER, seed=seed)
            # estimate_norm returns max(hint, estimate); only a hint is used as it is
            value = est.value if est.value == blk.L.norm_hint else est.value * NORM_SAFETY
        if not math.isfinite(value):
            raise ValueError(f"block {i}: linear operator has non-finite norm {value!r}")
        if value <= 0.0:
            raise ValueError(f"block {i}: linear operator has zero estimated norm")
        norms.append(value)
    return tuple(norms)


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


def validate_steps(spec: ProblemSpec, tau: float, sigmas,
                   lambda_schedule: Optional[Callable[[int], float]] = None,
                   epsilon: float = 1e-3,
                   norms: Optional[tuple[float, ...]] = None,
                   allow_overrelax: bool = False) -> StepConfig:
    """Evaluate the step-size condition for given tau and sigmas.

    Inadmissibility is a verdict recorded on the returned config, not
    an error.  ``norms`` may be passed to reuse previously certified
    operator-norm bounds.
    """
    if tau <= 0:
        raise ValueError("tau must be strictly positive")
    sigmas = tuple(float(s) for s in sigmas)
    if len(sigmas) != spec.num_blocks:
        raise ValueError("one sigma per block is required")
    if any(s <= 0 for s in sigmas):
        raise ValueError("every sigma must be strictly positive")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in ]0, 1[")
    if norms is None:
        norms = certified_norms(spec)
    rho, beta, delta = _step_quantities(spec, tau, sigmas, norms)
    return StepConfig(
        tau=float(tau),
        sigmas=sigmas,
        rho=rho,
        beta=beta,
        delta=delta,
        admissible=2.0 * rho * beta > 1.0,
        norms=tuple(norms),
        lambda_schedule=lambda_schedule or (lambda n: 1.0),
        epsilon=epsilon,
        allow_overrelax=allow_overrelax,
    )


def suggest_steps(spec: ProblemSpec, safety: float = 0.99,
                  lambda_schedule: Optional[Callable[[int], float]] = None,
                  epsilon: float = 1e-3,
                  norms: Optional[tuple[float, ...]] = None) -> StepConfig:
    """Pick equal step sizes that satisfy the admissibility condition.

    Sets ``tau = sigma_i = safety / (1/(2 beta) + sqrt(sum_i w_i ||L_i||^2))``;
    any ``safety`` in ]0, 1[ makes the strict inequality hold.
    """
    if not 0.0 < safety < 1.0:
        raise ValueError("safety must lie in ]0, 1[")
    if norms is None:
        norms = certified_norms(spec)
    weights = spec.layout.weights
    s_norm = math.sqrt(math.fsum(w * nm * nm for w, nm in zip(weights, norms)))
    if s_norm == 0.0:
        raise ValueError("all operator norms are zero; the problem violates the nonzero-L contract")
    step = safety / (0.5 / _beta(spec) + s_norm)
    cfg = validate_steps(spec, step, (step,) * spec.num_blocks,
                         lambda_schedule=lambda_schedule, epsilon=epsilon,
                         norms=norms)
    if not cfg.admissible:
        # cannot happen for safety < 1; guards against float pathologies
        raise RuntimeError("suggested steps failed the admissibility check")
    return cfg


# ---------------------------------------------------------------------------
# iteration kernel


class _Workspace:
    """Scratch arrays of the kernel and of the residual arithmetic.

    ``y``, ``q`` and ``arg`` (the argument handed to the resolvent of A,
    and p itself when an ``a2`` error is added) never leave an update.
    ``d`` receives the unrelaxed displacement (p - x, q - v) of the last
    update and ``s`` the displacement of the step taken, both flat over
    the product space with per-block views ``dx``/``dv`` and ``sx``/``sv``.
    """

    __slots__ = ("wsum", "tmp", "arg", "y", "finite_x", "us", "q", "finite_v",
                 "d", "dx", "dv", "s", "sx", "sv")

    def __init__(self, layout: SpaceLayout):
        n, dims = layout.dim_primal, layout.dual_dims
        self.wsum, self.tmp, self.arg, self.y = (np.empty(n) for _ in range(4))
        self.us, self.q = (tuple(np.empty(d) for d in dims) for _ in range(2))
        self.finite_x = np.empty(n, dtype=bool)
        self.finite_v = tuple(np.empty(d, dtype=bool) for d in dims)
        self.d = np.empty(layout.size)
        self.dx, self.dv = layout.split(self.d)
        self.s = np.empty(layout.size)
        self.sx, self.sv = layout.split(self.s)


def _kernel(spec, tau, sigmas, lam, x, v, err, ws, out_x, out_v):
    """One update from ``(x, v)`` into ``(out_x, out_v)``.

    Every array operation writes into ``ws`` or the outputs, never into
    ``x``, ``v`` or an array an operator returned; an operator's result
    is consumed before the buffer it was handed is written again.  The
    operations and their order are those of the plain formulas in the
    module docstring, so results are bitwise reproducible; the
    dual-block reduction runs in ascending block order.
    """
    weights = spec.layout.weights
    t = ws.wsum
    t.fill(0.0)
    for i, blk in enumerate(spec.blocks):
        np.add(t, np.multiply(blk.L.adjoint_apply(v[i]), weights[i], out=ws.tmp), out=t)
    np.add(t, spec.C.apply(x), out=t)
    if err is not None and err.a1 is not None:
        np.add(t, err.a1, out=t)
    np.subtract(t, spec.z, out=t)
    p = spec.A.resolvent(tau, np.subtract(x, np.multiply(t, tau, out=ws.arg), out=ws.arg))
    if err is not None and err.a2 is not None:
        p = np.add(p, err.a2, out=ws.arg)
    if not np.isfinite(p, out=ws.finite_x).all():
        raise DivergenceError(-1, "primal update p")
    y = np.subtract(np.multiply(p, 2.0, out=ws.y), x, out=ws.y)
    np.subtract(p, x, out=ws.dx)
    np.add(x, np.multiply(ws.dx, lam, out=out_x), out=out_x)
    for i, blk in enumerate(spec.blocks):
        sigma, q = sigmas[i], ws.q[i]
        u = np.subtract(blk.L.apply(y), blk.Dinv.apply(v[i]), out=q)
        if err is not None and err.c[i] is not None:
            np.subtract(u, err.c[i], out=u)
        np.subtract(u, blk.r, out=u)
        np.add(v[i], np.multiply(u, sigma, out=u), out=u)
        # resolvent_of_inverse: J_{sigma B^-1}(u) = u - sigma J_{B/sigma}(u/sigma)
        s = ws.us[i]
        jb = blk.B.resolvent(1.0 / sigma, np.divide(u, sigma, out=s))
        np.subtract(u, np.multiply(jb, sigma, out=s), out=q)
        if err is not None and err.b[i] is not None:
            np.add(q, err.b[i], out=q)
        if not np.isfinite(q, out=ws.finite_v[i]).all():
            raise DivergenceError(-1, f"dual update q[{i}]")
        np.subtract(q, v[i], out=ws.dv[i])
        np.add(v[i], np.multiply(ws.dv[i], lam, out=out_v[i]), out=out_v[i])


def _v_quadform(spec, tau, sigmas, dx, dv):
    """Quadratic form of the renormed metric at displacement (dx, dv)."""
    weights = spec.layout.weights
    s = float(np.dot(dx, dx)) / tau
    for i, blk in enumerate(spec.blocks):
        s += weights[i] / sigmas[i] * float(np.dot(dv[i], dv[i]))
        s -= 2.0 * weights[i] * float(np.dot(blk.L.apply(dx), dv[i]))
    return s


def _residual_norm(spec, cfg, dx, dv):
    # the renormed metric is positive definite only for admissible steps;
    # fall back to the plain weighted norm under an override
    if cfg.admissible:
        return math.sqrt(max(_v_quadform(spec, cfg.tau, cfg.sigmas, dx, dv), 0.0))
    return math.sqrt(inner_blocks(spec.layout.weights, dx, dv, dx, dv))


def _require_admissible(cfg: StepConfig, allow_inadmissible: bool, verb: str) -> None:
    if not cfg.admissible and not allow_inadmissible:
        raise InadmissibleStepsError(
            f"step sizes are inadmissible (2*rho*beta = {2.0 * cfg.rho * cfg.beta:g} <= 1); "
            f"pass allow_inadmissible=True to {verb} anyway"
        )


def iterate_once(spec: ProblemSpec, cfg: StepConfig, st: IterState,
                 err: Optional[IterationErrors] = None,
                 allow_inadmissible: bool = False) -> IterState:
    """Apply one update to ``st`` and return the next state.

    Raises :class:`DivergenceError` if a non-finite value appears and
    :class:`InadmissibleStepsError` when the step condition fails
    without an explicit override.
    """
    _require_admissible(cfg, allow_inadmissible, "iterate")
    lam = cfg.lambda_at(st.n)
    nxt = _state(st.n + 1, np.empty(spec.layout.size), spec.layout)
    try:
        _kernel(spec, cfg.tau, cfg.sigmas, lam, st.x, st.v, err,
                _Workspace(spec.layout), nxt.x, nxt.v)
    except DivergenceError as exc:
        raise DivergenceError(st.n, exc.block) from None
    return nxt


def run(spec: ProblemSpec, cfg: StepConfig, x0=None, v0=None,
        errors: Optional[ErrorSchedule] = None,
        stop: Optional[StoppingRule] = None,
        allow_inadmissible: bool = False,
        record_states: bool = False,
        iter_metrics: Optional[Callable[[IterState], dict]] = None,
        extra_stop: Optional[Callable[[IterState], bool]] = None) -> RunReport:
    """Iterate until the stopping rule fires and report the run.

    Convergence is declared when the fixed-point residual (displacement
    of one exact relaxation-1 update, in the renormed metric) of the
    current state drops below ``stop.tol * (1 + ||state||)``, or when
    ``extra_stop`` returns True for the new state.  ``iter_metrics`` may
    attach objective values to each history row.  With
    ``record_states=True`` the report keeps every iterate (index 0
    included) for post-hoc monitoring.

    Every state is an :class:`IterState` over one flat array; ``x0``
    and ``v0`` are copied into the initial state.  The iteration works
    in arrays allocated once per run, or in a fresh state array per
    iteration when ``record_states``, ``iter_metrics`` or ``extra_stop``
    is given.  It never writes into ``x0``/``v0`` or into an array an
    operator returned, and a state handed out (to ``iter_metrics``,
    ``extra_stop``, the recorded states or ``final_state``) is never
    overwritten later.  Operators may return their input array but must
    not keep it: the solver reuses the arrays it passes them.  The
    built-in zero maps (``CocoerciveOp.zero``, ``zero_smooth``,
    ``dirac_term``) return one shared read-only array.
    """
    _require_admissible(cfg, allow_inadmissible, "run")
    stop = stop or StoppingRule()
    errors = errors or zero_errors(spec.layout)
    layout = spec.layout
    st = initial_state(layout, x0, v0)
    weights = layout.weights
    tau, sigmas = cfg.tau, cfg.sigmas

    ws = _Workspace(layout)
    # a state that leaves the loop keeps its array, so each update then
    # writes into a fresh one; otherwise two arrays alternate
    escapes = record_states or iter_metrics is not None or extra_stop is not None
    pair = None if escapes else [_state(0, np.empty(layout.size), layout) for _ in range(2)]
    exact_out = None
    history: list[IterationRecord] = []
    states: Optional[list[IterState]] = [st] if record_states else None
    termination = "max_iter"
    failure = None

    for n in range(stop.max_iter):
        lam = cfg.lambda_at(n)
        err_n = errors.at(n)
        if escapes:
            nxt = _state(n + 1, np.empty(layout.size), layout)
        else:
            buf = pair[n % 2]
            nxt = IterState(n + 1, buf.u, buf.x, buf.v)
        t0 = time.perf_counter()
        try:
            _kernel(spec, tau, sigmas, lam, st.x, st.v, err_n, ws, nxt.x, nxt.v)
        except DivergenceError as exc:
            termination = "diverged"
            failure = f"non-finite value in {exc.block} at iteration {n}"
            break

        exact = all(e is None for e in (err_n.a1, err_n.a2, *err_n.b, *err_n.c))
        if not exact:
            # the residual measures the error-free update from the same state
            if exact_out is None:
                exact_out = layout.split(np.empty(layout.size))
            _kernel(spec, tau, sigmas, 1.0, st.x, st.v, None, ws, *exact_out)
        np.subtract(nxt.u, st.u, out=ws.s)
        if exact and lam == 1.0:
            dx, dv = ws.sx, ws.sv
        else:
            # the relaxation-1 displacement (x + (p - x)) - x
            np.subtract(np.add(st.u, ws.d, out=ws.d), st.u, out=ws.d)
            dx, dv = ws.dx, ws.dv
        residual = _residual_norm(spec, cfg, dx, dv)
        step_norm = math.sqrt(inner_blocks(weights, ws.sx, ws.sv, ws.sx, ws.sv))
        state_norm = math.sqrt(inner_blocks(weights, st.x, st.v, st.x, st.v))
        wall_ms = (time.perf_counter() - t0) * 1000.0

        extras = iter_metrics(nxt) if iter_metrics is not None else {}
        history.append(IterationRecord(
            iter=n + 1, step_norm=step_norm, residual=residual,
            wall_ms=wall_ms, **extras,
        ))
        if record_states:
            states.append(nxt)
        st = nxt

    # norms can overflow to inf while the state is still finite; a
        # non-finite residual must never satisfy the convergence test
        if (math.isfinite(residual) and math.isfinite(state_norm)
                and residual <= stop.tol * (1.0 + state_norm)):
            termination = "converged"
            break
        if extra_stop is not None and extra_stop(st):
            termination = "converged"
            break

    return RunReport(
        iterations=len(history),
        termination=termination,
        history=history,
        final_state=st,
        states=states,
        used_errors=not errors.is_zero,
        failure=failure,
    )
