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
lower bound on lam_n holds with lam itself.  At lam = 1 without error
terms the relaxed steps are just

    x_{n+1} = p_n,    v_{i,n+1} = q_{i,n},

as Chambolle and Pock (JMIV 2011) write them, and the next state holds
p_n and each q_{i,n} themselves.  The error terms come
from an optional callable ``n -> IterationErrors``; the convergence
theory needs their norms to be summable.

The step condition on tau and the sigma_i, under which the iteration
converges, is README's "The step condition"; :func:`step_condition`
forms it.  The weighted sum over dual blocks is always reduced in
ascending block order, so runs are bitwise reproducible.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .operators import (
    CLOSED_FORM_NORM_KINDS,
    NORM_SAFETY,
    CocoerciveOp,
    LinearOp,
    ResolventOp,
    estimate_norm,
    _at,
    _bound,
    _dual_step,
    _MapForm,
    _PLUS_ZERO,
    _scalar,
    _Zero,
)
from .spaces import (SpaceLayout, _check_blocks, _check_count, _check_dim, _check_real,
                     _check_vector, _vectors)

__all__ = [
    "Block",
    "ProblemSpec",
    "StepConfig",
    "StepCondition",
    "StoppingRule",
    "IterationErrors",
    "IterState",
    "IterationRecord",
    "StopReason",
    "RunReport",
    "InadmissibleStepsError",
    "certified_norms",
    "step_condition",
    "validate_steps",
    "suggest_steps",
    "initial_state",
    "run",
    "geometric_errors",
]

#: cap substituted for an infinite cocoercivity bound in the reported beta
BETA_CAP = 1e12
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
#: 2-core shared host (numpy 2.4, one BLAS thread; medians of four
#: processes of 20 rounds): the gap and KKT evaluation that
#: ``solve_convex(record_objective=True)`` hooks in, fed the run's
#: weighted sum, costs 44-57 us per call, 0.9-1.1 iterations of 44-56 us,
#: so at this stride the hook adds 9-11 % to the iteration time, and on
#: every row it would add 0.9-1.1 times it.
OBJECTIVE_STRIDE = 10
#: a run on balanced steps checks the balance of its primal and dual
#: residuals on the history rows whose ``iter`` is a multiple of this.
#: Measured on the TV problems and the suites: a check every 10 rows
#: saves 3 % more iterations than every 25, and every 50 loses 7-11 %.
#: It must stay at least 20 until the plain-loop floor of
#: ``bench/workloads.py`` (``LibTv2d.baseline``) pins its steps: that
#: gate compares the first ``bench/baseline.py`` ``PREFIX`` = 20 iterates
#: of ``suggest_steps`` and ``run`` with a loop on fixed steps
BALANCE_STRIDE = 25
#: the constants of README's balance rule ("Fixed and balanced steps")
_BALANCE_TARGET = 2.0
_BALANCE_BAND = 1.5
_BALANCE_ALPHA = 0.5
_BALANCE_DECAY = 0.95
_BALANCE_FLOOR = 1e-3


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
        object.__setattr__(self, "r", _check_vector("r", self.r))


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
        _check_blocks("blocks", self.blocks)
        object.__setattr__(self, "blocks", tuple(self.blocks))
        lay = self.layout
        _check_dim("A", self.A.dim, lay.dim_primal)
        _check_dim("C", self.C.dim, lay.dim_primal)
        object.__setattr__(self, "z", lay.check_coupling(self.z, self.blocks))
        for i, (blk, d) in enumerate(zip(self.blocks, lay.dual_dims)):
            _check_dim(f"block {i}: B", blk.B.dim, d)
            _check_dim(f"block {i}: Dinv", blk.Dinv.dim, d)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class StepConfig:
    """The steps of a run: ``tau``, one ``sigmas[i]`` per dual block,
    the operator-norm bounds ``norms`` the step condition reads, the
    relaxation ``lam``, and whether the steps are fixed or balanced.

    ``tau``, each ``sigmas[i]`` and each ``norms[i]`` must lie in ]0, inf[
    and ``lam``, the relaxation of every iteration, in ]0, 1], or a
    ``ValueError`` names it; all are stored as floats.  ``balance`` is
    ``None`` for fixed steps, which :func:`run` keeps for the whole
    run; :func:`suggest_steps` sets it to its ``safety`` in ]0, 1[,
    at which :func:`run` re-derives balanced steps.  The config holds no
    verdict: :func:`step_condition` derives it from the steps and a
    problem whenever it is asked for.
    """

    tau: float
    sigmas: tuple[float, ...]
    norms: tuple[float, ...]
    lam: float = 1.0
    balance: Optional[float] = None

    def __post_init__(self):
        tau, sigmas = _checked_steps(self.tau, self.sigmas)
        object.__setattr__(self, "lam", _check_real("lambda", self.lam, high=1.0, ends="]]"))
        if self.balance is not None:
            object.__setattr__(self, "balance", _check_real("balance", self.balance, high=1.0))
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "norms", _checked_norms(self.norms))


@dataclass(frozen=True)
class StepCondition:
    """The step condition of one :class:`StepConfig` on one problem, as
    :func:`step_condition` forms it.

    ``margin`` is the blockwise margin of README's "The step condition"
    (``-inf`` when some 1/sigma_i <= 1/(2 nu_i)) and ``admissible``
    says whether it is positive.  ``rho`` (a lower bound on V) and
    ``delta`` come from the paper's condition, and ``beta`` is the
    smallest cocoercivity constant (capped at ``BETA_CAP`` when every
    constant is infinite); they are reported, not tested: 2 rho beta > 1
    implies a positive margin, not the converse.
    """

    margin: float
    rho: float
    beta: float
    delta: float

    @property
    def admissible(self) -> bool:
        return self.margin > 0.0


@dataclass(frozen=True)
class StoppingRule:
    """Stopping parameters for :func:`run`.

    ``tol`` bounds the fixed-point residual (displacement of one exact
    relaxation-1 update, measured in the renormed metric) relative to
    ``1 + ||state||``; it must lie in [0, inf[, and ``tol = 0`` stops
    only on an exactly zero residual.  ``max_iter`` is an integer of at
    least 1.  Anything else, a ``bool`` included, is refused by name.
    """

    tol: float = 1e-10
    max_iter: int = 10000

    def __post_init__(self):
        _check_count("max_iter", self.max_iter)
        _check_real("tol", self.tol, ends="[[")


def _checked_steps(tau, sigmas) -> tuple[float, tuple[float, ...]]:
    """``tau`` and ``sigmas`` as floats, each refused by name unless in ]0, inf[."""
    _check_blocks("sigmas", sigmas)
    return _check_real("tau", tau), tuple(
        _check_real(f"sigma[{i}]", s) for i, s in enumerate(sigmas))


@dataclass(frozen=True)
class IterationErrors:
    """Error terms injected at one iteration; ``None`` means exact.

    ``b`` and ``c`` hold one entry per dual block, or none at all for
    "exact on every block"; :func:`run` refuses another count, and any
    term that is not a vector of its block's length, by name.
    """

    a1: Optional[np.ndarray] = None
    a2: Optional[np.ndarray] = None
    b: tuple[Optional[np.ndarray], ...] = ()
    c: tuple[Optional[np.ndarray], ...] = ()


def geometric_errors(layout: SpaceLayout, amplitude: float, decay: float,
                     seed: int = 0) -> Optional[Callable[[int], IterationErrors]]:
    """Errors ``amplitude * decay^n`` times fixed unit directions, as the
    callable ``n -> IterationErrors`` that :func:`run` takes.

    Summable by construction for ``decay`` in ]0, 1[; ``amplitude`` lies
    in [0, inf[, and 0 gives ``None``, the exact iteration.  ``seed``
    is an integer >= 0.
    """
    amplitude = _check_real("amplitude", amplitude, ends="[[")
    decay = _check_real("decay", decay, high=1.0)
    _check_count("seed", seed, minimum=0)
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


class _Rows(Sequence):
    """A read-only sequence of what :func:`run` records, kept as columns.

    ``columns`` holds one list per field, which :func:`run` fills through
    their bound ``append``; item k is ``make(k, *fields of row k)``,
    built when it is first read and kept in ``built``, so that an item
    read twice is one object.  An item placed in ``built`` (a
    metrics-hook row's record, or one assigned to a history row) is read
    as it is.  A slice is the list of its items, and an index out of
    range raises ``IndexError`` naming ``what``.
    """

    __slots__ = ("what", "make", "columns", "built")

    def __init__(self, what: str, make: Callable, width: int):
        self.what = what
        self.make = make
        self.columns = tuple([] for _ in range(width))
        self.built: dict[int, object] = {}

    def __len__(self) -> int:
        return len(self.columns[0])

    def _index(self, k) -> int:
        k = operator.index(k)
        n = len(self)
        if k < 0:
            k += n
        if not 0 <= k < n:
            raise IndexError(f"{self.what} index out of range")
        return k

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        k = self._index(k)
        item = self.built.get(k)
        if item is None:
            item = self.built[k] = self.make(k, *[col[k] for col in self.columns])
        return item

    def __repr__(self) -> str:
        return repr(list(self))


class _History(_Rows):
    """The history rows of a run, whose columns are ``step_norm``,
    ``residual`` and ``wall_ms`` (``iter`` is the index plus one).  A
    row can be replaced by assigning an :class:`IterationRecord` to it."""

    __slots__ = ()

    def __setitem__(self, k, rec: IterationRecord) -> None:
        k = self._index(k)
        if not isinstance(rec, IterationRecord):
            raise TypeError(f"history[{k}] must be an IterationRecord, "
                            f"got {type(rec).__name__}")
        self.built[k] = rec


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
    """Outcome of :func:`run`; ``stop`` says which rule ended it.

    ``history`` holds one :class:`IterationRecord` per iteration and
    ``states``, with ``record_states``, every state, index 0 included;
    both read like read-only lists (``states[-1]`` is ``final_state``),
    and only a record may be assigned to a history row.  ``steps`` is
    the :class:`StepConfig` in force at the end, which took the last
    update, and ``step_changes`` the number of times a balanced run
    changed its steps; a run on fixed steps reports its own config and 0.
    """

    iterations: int
    history: Sequence[IterationRecord]
    final_state: IterState
    stop: StopReason
    states: Optional[Sequence[IterState]] = None
    used_errors: bool = False
    failure: Optional[str] = None
    steps: Optional[StepConfig] = None
    step_changes: int = 0

    @property
    def termination(self) -> str:
        """``"max_iter"``, ``"diverged"``, or ``"converged"`` for any
        other rule."""
        rule = self.stop.rule
        return rule if rule in ("max_iter", "diverged") else "converged"


def _checked_point(layout: SpaceLayout, x, v):
    """``x`` and each ``v_i`` as float arrays (not copied), refused by
    name unless ``x`` lies in H and ``v`` holds one point of each G_i; a
    ``None`` component is passed on."""
    if x is not None:
        x = _check_vector("x", x, layout.dim_primal)
    if v is not None:
        _check_blocks("v", v, layout.num_blocks)
        v = tuple(_check_vector("v", vi, d, index=i)
                  for i, (vi, d) in enumerate(zip(v, layout.dual_dims)))
    return x, v


def _initial_point(layout: SpaceLayout, x0, v0):
    """``(u, x, v)`` of :func:`initial_state`."""
    x0, v0 = _checked_point(layout, x0, v0)
    u = np.zeros(layout.size)
    x, v = layout.split(u)
    if x0 is not None:
        x[...] = x0
    if v0 is not None:
        for dst, vi in zip(v, v0):
            dst[...] = vi
    return u, x, v


def initial_state(layout: SpaceLayout, x0=None, v0=None) -> IterState:
    """State at iteration 0 in a fresh array; ``x0``/``v0`` are copied
    and missing components default to zero."""
    return IterState(0, *_initial_point(layout, x0, v0))


# ---------------------------------------------------------------------------
# step-size arithmetic


def certified_norms(spec: ProblemSpec) -> tuple[float, ...]:
    """Upper bounds on the block operator norms for the step condition.

    Operators whose kind is in ``CLOSED_FORM_NORM_KINDS`` contribute
    their ``norm_hint``, an upper bound formed when the operator was
    built, without any power iteration.  Every other operator is
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
            est = estimate_norm(blk.L, tol=POWER_TOL, max_iter=POWER_MAX_ITER)
            if not est.converged and math.isfinite(est.value):
                # a non-finite value is refused by name below
                raise ValueError(
                    f"block {i}: power iteration for the norm of L did not "
                    f"converge within {POWER_MAX_ITER} iterations")
            # estimate_norm returns max(hint, estimate); only a hint is used as it is
            norms.append(est.value if est.value == blk.L.norm_hint
                         else est.value * NORM_SAFETY)
    return _checked_norms(norms, spec.num_blocks)


def _checked_norms(norms, m: Optional[int] = None) -> tuple[float, ...]:
    """``norms`` as floats, each refused unless in ]0, inf[, naming its
    block; given the number of blocks ``m``, refused unless one per block."""
    _check_blocks("norms", norms, m)
    return tuple(_check_real(f"block {i}: norm of L", nm) for i, nm in enumerate(norms))


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


def _closed_form_step(spec, norms, ratio: float = 1.0) -> float:
    """The root of the margin along sigma_i = ratio * tau when every
    nu_i is infinite: 1/tau - h = r S tau with h = 1/(2 mu) and
    S = sum_i w_i ||L_i||^2, rationalized so that nothing cancels."""
    h = 0.5 / spec.C.constant
    s = ratio * math.fsum(w * nm * nm for w, nm in zip(spec.layout.weights, norms))
    return 2.0 / (h + math.sqrt(h * h + 4.0 * s))


def _bisected_step(spec, norms, ratio: float = 1.0) -> float:
    """The largest tau with a positive margin at sigma_i = ratio * tau,
    by ``BISECTION_STEPS`` halvings.

    The margin falls as tau grows.  The bracket starts at ]0, 2 tau0],
    where tau0 is :func:`_closed_form_step` at ``ratio``: a finite nu_i
    only lowers the margin, and at 2 tau0 it is at most
    h - 3/(2 tau0) <= -1/(2 tau0) < 0, since 1/tau0 >= h.
    """
    m = spec.num_blocks
    lo, hi = 0.0, 2.0 * _closed_form_step(spec, norms, ratio)
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if _step_margin(spec, mid, (ratio * mid,) * m, norms) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _ratio_steps(spec, norms, safety: float, ratio: float = 1.0):
    """``(tau, sigmas)`` with ``tau = safety * tau*`` and every
    ``sigma_i = ratio * tau``, where ``tau*`` is the largest tau with a
    positive margin at sigma_i = ratio * tau: :func:`_closed_form_step`
    when every nu_i is infinite, else :func:`_bisected_step`.  The
    margin falls as tau grows at a fixed ratio, so any ``safety`` in
    ]0, 1[ makes it positive.  At ratio 1 every sigma_i is tau itself."""
    if all(math.isinf(blk.Dinv.constant) for blk in spec.blocks):
        boundary = _closed_form_step(spec, norms, ratio)
    else:
        boundary = _bisected_step(spec, norms, ratio)
    tau = safety * boundary
    return tau, (ratio * tau,) * spec.num_blocks


def step_condition(spec: ProblemSpec, cfg: StepConfig) -> StepCondition:
    """The blockwise step condition of ``cfg`` on ``spec``.

    The one place the margin, rho, beta and delta are formed: from the
    steps and norms of ``cfg``, each time it is called, so the verdict
    never outlives the steps it was formed from.  A ``cfg`` whose
    ``sigmas`` do not number one per block is refused with a
    ``ValueError``, and its ``norms`` are refused as
    :func:`certified_norms` refuses its own.
    """
    _check_blocks("sigmas", cfg.sigmas, spec.num_blocks)
    norms = _checked_norms(cfg.norms, spec.num_blocks)
    return StepCondition(_step_margin(spec, cfg.tau, cfg.sigmas, norms),
                         *_step_quantities(spec, cfg.tau, cfg.sigmas, norms))


def validate_steps(spec: ProblemSpec, tau: float, sigmas, lam: float = 1.0,
                   norms: Optional[tuple[float, ...]] = None) -> StepConfig:
    """The steps tau and sigmas as a :class:`StepConfig` for ``spec``.

    The steps are refused as :class:`StepConfig` refuses them, and a
    sigma count or ``norms`` that does not fit the blocks as
    :func:`step_condition` refuses it.  Inadmissibility is not an
    error: :func:`step_condition` of the returned config gives the
    verdict.  ``norms`` may be passed to reuse previously certified
    operator-norm bounds; without them :func:`certified_norms` forms
    them.
    """
    cfg = StepConfig(tau, sigmas, certified_norms(spec) if norms is None else norms, lam)
    step_condition(spec, cfg)
    return cfg


def suggest_steps(spec: ProblemSpec, safety: float = 0.99, lam: float = 1.0,
                  norms: Optional[tuple[float, ...]] = None) -> StepConfig:
    """Pick equal step sizes that satisfy the blockwise step condition,
    as the start of a balanced run.

    Sets ``tau = sigma_i = safety * tau*``, where ``tau*`` is the
    largest common step with a positive margin (in closed form when
    every nu_i is infinite, else by bisection), so any ``safety`` in
    ]0, 1[ makes the strict inequality hold.  ``lam`` and ``norms`` are checked as in
    :func:`validate_steps`.  A step that is not positive (1/(2 mu), a
    1/(2 nu_i) or a ||L_i||^2 overflowed) is refused.

    The config's ``balance`` is ``safety``, so :func:`run` balances the
    ratio sigma_i / tau from these steps on;
    ``dataclasses.replace(cfg, balance=None)`` holds them fixed.
    """
    safety = _check_real("safety", safety, high=1.0)
    norms = certified_norms(spec) if norms is None else _checked_norms(norms, spec.num_blocks)
    step, sigmas = _ratio_steps(spec, norms, safety)
    if not step > 0.0:
        raise ValueError(f"no positive step size exists for mu = {spec.C.constant!r}, nu = "
                         f"{[b.Dinv.constant for b in spec.blocks]!r} and norms {norms!r}")
    cfg = StepConfig(step, sigmas, norms, lam, safety)
    if not step_condition(spec, cfg).admissible:
        # cannot happen for safety < 1; guards against float pathologies
        raise RuntimeError("suggested steps failed the admissibility check")
    return cfg


# ---------------------------------------------------------------------------
# iteration kernel


#: 2.0 as the multiplier of y = 2p - x (see ``operators._scalar``)
_TWO = _scalar(2.0)
_TWO.flags.writeable = False
#: the b and c of an exact update, on any number of blocks
_EXACT = itertools.repeat(None)


def _adjoint_sum(terms, v, out, tmp):
    """``sum_i w_i L_i^T v_i`` into ``out``, given the
    ``_Workspace.adjoints`` ``terms``, reduced in ascending block order;
    ``tmp`` holds each later weighted term.  Every caller forms the
    coupling term here, so all of them get the same bits.

    The first term lands as ``term + 0.0``, which maps -0 to +0 exactly
    as filling ``out`` with zeros and adding did, so ``out`` never holds
    -0 (a sum is -0 only when both terms are).  A unit weight is not
    multiplied in, and a unit-weight signless first term, which holds
    no -0, is its own ``term + 0.0``: it is written into ``out`` and the
    pass is skipped.  (A weighted one keeps it: a tiny negative entry
    times w_i can round to -0.)
    """
    for i, ((adjoint, w, signless), vi) in enumerate(zip(terms, v)):
        if i:
            term = adjoint(vi, tmp)
            if w is not None:
                # else x * 1 = x
                term = np.multiply(term, w, out=tmp)
            np.add(out, term, out=out)
            continue
        term = adjoint(vi, out)
        if w is not None:
            term = np.multiply(term, w, out=out)
        elif signless:
            # term is out and holds no -0, so term + 0.0 = term
            continue
        # the fill and first add in one pass: -0 + 0.0 = +0 = 0.0 + -0
        np.add(term, _PLUS_ZERO, out=out)
    return out


def _vanishes(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is +0.0, so that subtracting ``a`` is
    exact: x - (+0) = x for every x.  A -0.0 entry does not vanish,
    since -0 - (-0) = +0.  One pass over the bits: +0.0 is the only
    double whose bits are all zero."""
    return not np.count_nonzero(a.view(np.uint64))


class _Workspace:
    """The step plan: the update of ``spec`` at the steps in force, the
    renormed metric V of those steps and the buffers both write into.
    :func:`run` iterates on one, and the gap plan of
    :mod:`splitsolve.convex` evaluates the KKT residual on one of its
    own.  The plan holds no array of the product space's length: the
    displacement, the step taken and the next weighted sum belong to
    :func:`run` alone.

    Buffers, laid out by :func:`splitsolve.spaces._vectors` (whose
    docstring says why) and none reallocated by :meth:`bind`: ``wsum``
    holds the weighted sum sum_i w_i L_i^T v_i of the current state;
    ``tmp`` one weighted term of such a sum; ``arg`` C x, then the
    coupling term t, then, whenever p does not land in the next state,
    the argument handed to the resolvent of A and p (with an ``a2``
    error added, if any), and last y = 2p - x; each block's ``dual_arg``
    L_i y, then the argument handed to the dual step, then, on a run
    whose every update is error-free at relaxation 1, q_i - v_i; its
    ``dual_out`` where q_i lands (with a ``b`` error added, if any)
    whenever it does not land in the next state; and the third entry of
    each ``cross`` tuple ``(L_i, w_i, buffer)``, where the metric's
    cross term forms L_i dx.

    The maps no step enters, bound once in their buffer forms
    (``operators._bound``, ``(x, out) -> map(x)``), with ``None`` for a
    pass README's "Passes the iteration skips" lists: ``C`` (``None``
    for the exact zero ``operators._Zero``), ``z`` (``None`` when
    :func:`_vanishes` holds), ``adjoints``, one ``(L_i^T, w_i,
    signless)`` per block for :func:`_adjoint_sum` (``w_i`` a 0-d
    float64 array, ``operators._scalar``, or ``None`` for a unit weight;
    ``signless`` whether the adjoint is a ``_MapForm`` that never
    returns -0.0), and ``maps``, one ``(L_i, D_i^{-1}.apply, r_i,
    step)`` per block, ``step`` its ``operators._dual_step``.  D_i^{-1}
    and r_i are ``None`` when skipped as C and z are, and ``L_i`` when
    the dual step is the exact zero, which reads no argument.

    Bound to the steps by :meth:`bind`: ``A`` (J_{tau A} in its buffer
    form, ``operators._at``), ``tau``, ``tau_array`` (tau as a 0-d
    float64 array), ``ratios`` (each w_i / sigma_i) and ``blocks``, one
    ``(L_i, D_i^{-1}.apply, r_i, sigma_i, dual, dual_arg, dual_out)``
    per block: the first three from ``maps``, sigma_i as a 0-d float64
    array, ``dual`` the buffer form ``(u, out) -> J_{sigma_i
    B_i^{-1}}(u)``, whose ``out`` must not be ``u``, and the block's
    buffers.  ``weights`` are the w_i, and ``admissible`` whether V is
    positive definite at the steps: without it :meth:`residual` falls
    back to the plain weighted norm (a run under an override).
    """

    __slots__ = ("wsum", "tmp", "arg", "dual_arg", "dual_out", "resolvent",
                 "maps", "C", "z", "A", "tau", "tau_array", "weights", "ratios", "cross",
                 "admissible", "adjoints", "blocks")

    def __init__(self, spec: ProblemSpec, tau: float, sigmas, admissible: bool = True):
        layout = spec.layout
        n, dims = layout.dim_primal, layout.dual_dims
        # its 3 + 3m buffers, numbered from 0 (spaces._vectors)
        m = len(dims)
        bufs = _vectors(n, n, n, *dims, *dims, *dims)
        self.wsum, self.tmp, self.arg = bufs[:3]
        self.dual_arg, self.dual_out = tuple(bufs[3:3 + m]), tuple(bufs[3 + m:3 + 2 * m])
        self.C = None if isinstance(spec.C.apply, _Zero) else _bound(spec.C.apply)
        self.z = None if _vanishes(spec.z) else spec.z
        self.resolvent = spec.A.resolvent
        self.weights, self.admissible = layout.weights, admissible
        applies = tuple(_bound(blk.L.apply) for blk in spec.blocks)
        maps = []
        for blk, L in zip(spec.blocks, applies):
            step = _dual_step(blk.B)
            maps.append((None if isinstance(step, _Zero) else L,
                         None if isinstance(blk.Dinv.apply, _Zero) else blk.Dinv.apply,
                         None if _vanishes(blk.r) else blk.r, step))
        self.maps = tuple(maps)
        self.adjoints = tuple(
            (_bound(adj), None if w == 1.0 else _scalar(w),
             isinstance(adj, _MapForm) and adj.signless)
            for adj, w in zip((blk.L.adjoint_apply for blk in spec.blocks), self.weights))
        self.cross = tuple(zip(applies, self.weights, bufs[3 + 2 * m:]))
        self.bind(tau, sigmas)

    def bind(self, tau: float, sigmas) -> None:
        """Bind the update and the metric to the steps ``tau`` and
        ``sigmas``: A at tau, ``tau``, ``tau_array``, the ratios, and each
        block's sigma_i and dual step.  No buffer is allocated, and the
        maps no step enters stay bound."""
        self.A = _at(self.resolvent, tau)
        self.tau, self.tau_array = tau, _scalar(tau)
        # w_i / sigma_i * vv_i reads (w_i / sigma_i) * vv_i, so the ratio
        # formed once has the same bits
        self.ratios = tuple(w / s for w, s in zip(self.weights, sigmas))
        self.blocks = tuple(
            (L, Dinv, r, _scalar(sigma), _at(step, sigma), u, q)
            for (L, Dinv, r, step), sigma, u, q in zip(
                self.maps, sigmas, self.dual_arg, self.dual_out))

    def quadform(self, dx, dv, xx, vv, dwsum=None):
        """The quadratic form of V at the displacement (dx, dv), given the
        squared norms ``xx``, ``vv`` of its blocks.

        The cross term sum_i w_i <L_i dx, dv_i> is formed block by block,
        or, when ``dwsum`` = sum_i w_i L_i^T dv_i is given, as
        ``<dx, dwsum>`` after the diagonal terms, with no L_i apply."""
        s = xx / self.tau
        if dwsum is None:
            for c, q, (apply, w, buf), d in zip(self.ratios, vv, self.cross, dv):
                s += c * q
                s -= 2.0 * w * float(apply(dx, buf).dot(d))
            return s
        for c, q in zip(self.ratios, vv):
            s += c * q
        return s - 2.0 * float(dx.dot(dwsum))

    def residual(self, dx, dv, sq, dwsum=None):
        """The norm of the displacement (dx, dv), whose squared block
        norms are ``sq``, that :func:`run` reports as the residual."""
        if not self.admissible:
            return math.sqrt(_weighted_sq(self.weights, *sq))
        quad = self.quadform(dx, dv, *sq, dwsum)
        # an overflowed cross term must not read as a zero residual
        return math.sqrt(max(quad, 0.0)) if math.isfinite(quad) else abs(quad)


class _Balance:
    """The primal-dual ratio r = sigma_i / tau of a balanced run, and the
    rule of README's "Fixed and balanced steps" that changes it.

    :meth:`check` forms the primal and dual residuals from a row's
    relaxation-1 displacement (dx, dv) = (p - x, q - v), in buffers of
    the plan ``ws`` that the row no longer needs: the primal one in
    ``tmp`` (after the weighted sum of dv in ``arg`` and ``tmp``, unless
    it is handed in), each L_i dx in its ``cross`` buffer and each dual
    one in the block's ``dual_out``.  A change binds the plan to the
    steps :func:`_ratio_steps` derives at the new r.  ``cfg`` is the
    :class:`StepConfig` in force, ``ratio`` r, ``alpha`` the relative
    change the next one makes (0 once balancing stopped) and
    ``changes`` the number made.
    """

    __slots__ = ("spec", "ws", "cfg", "ratio", "alpha", "changes")

    def __init__(self, spec: ProblemSpec, cfg: StepConfig, ws: _Workspace):
        self.spec, self.ws, self.cfg = spec, ws, cfg
        self.ratio, self.alpha, self.changes = 1.0, _BALANCE_ALPHA, 0

    def check(self, dx, dv, dwsum) -> None:
        """Apply the rule to the displacement ``(dx, dv)``, given
        ``dwsum`` = sum_i w_i L_i^T dv_i or ``None`` to form it."""
        if self.alpha < _BALANCE_FLOOR:
            return
        ws = self.ws
        if dwsum is None:
            # arg and tmp are free once the updates of the row are formed
            dwsum = _adjoint_sum(ws.adjoints, dv, ws.arg, ws.tmp)
        # P = ||(x - p) / tau - sum_i w_i L_i^T (v_i - q_i)||, in tmp, which
        # is free too, as are the cross term's L_i dx buffers and each dual_out
        prim = np.subtract(np.divide(dx, ws.tau_array, out=ws.tmp), dwsum, out=ws.tmp)
        primal = math.sqrt(float(prim.dot(prim)))
        dual_sq = 0.0
        for (apply, w, buf), (_, _, _, sigma, _, _, out), dvi in zip(ws.cross, ws.blocks, dv):
            # (v_i - q_i) / sigma_i - L_i (x - p), up to its sign
            gap = np.subtract(np.divide(dvi, sigma, out=out), apply(dx, buf), out=out)
            dual_sq += w * float(gap.dot(gap))
        dual = math.sqrt(dual_sq)
        if not (math.isfinite(primal) and math.isfinite(dual)):
            return
        if primal > _BALANCE_BAND * _BALANCE_TARGET * dual:
            ratio = self.ratio * (1.0 - self.alpha)
        elif primal < _BALANCE_TARGET * dual / _BALANCE_BAND:
            ratio = self.ratio / (1.0 - self.alpha)
        else:
            return
        spec, old = self.spec, self.cfg
        tau, sigmas = _ratio_steps(spec, old.norms, old.balance, ratio)
        cfg = (StepConfig(tau, sigmas, old.norms, old.lam, old.balance)
               if 0.0 < tau < math.inf and 0.0 < sigmas[0] < math.inf else None)
        if cfg is None or not step_condition(spec, cfg).admissible:
            # the boundary overflowed or rounded past the margin: keep
            # the steps in force and stop balancing
            self.alpha = 0.0
            return
        ws.bind(cfg.tau, cfg.sigmas)
        self.cfg, self.ratio = cfg, ratio
        self.alpha *= _BALANCE_DECAY
        self.changes += 1


def _kernel(ws, x, v, wsum, err, into, dx, dv):
    """One update from the state ``(x, v)`` by the plan ``ws``, given
    ``wsum`` = :func:`_adjoint_sum` of ``ws.adjoints`` and ``v``; writes
    the unrelaxed displacement (p - x, q - v) into ``dx`` and ``dv`` and
    returns its squared norms ``<dx, dx>`` and ``[<dv_i, dv_i>]``, as
    :func:`_sq_norms` forms them.

    ``into`` is ``(x', v')``, the views of the next state, or ``None``.
    Given them (an error-free update at relaxation 1), the argument of
    J_{tau A} is formed in ``x'`` and handed to it as its ``out`` as
    well, each dual step is handed ``v'_i`` as its ``out``, and a result
    that a callable returned elsewhere (a custom map's array, the shared
    zero of ``operators._Zero``) is copied into place, so the next state
    holds p and each q_i.  With ``None`` J_{tau A} gets ``ws.arg`` as
    argument and ``out``, each dual step ``dual_out``, and p and q_i stay
    where they were returned unless an error term is added to them.
    ``dv`` may be the ``dual_arg`` buffers only when ``into`` is given.
    ``err`` holds the terms that :func:`_checked_errors` returns;
    ``None``, the exact update, is not looked into.

    The passes run in this order: the coupling term t and p; dx = p - x
    and <dx, dx>; y = 2p - x in ``ws.arg``; then per block L_i y, the
    dual argument, q_i, dv_i = q_i - v_i and <dv_i, dv_i>.  Each dot is
    the finiteness test of its block: a sum of squares is finite only if
    every entry is, so a finite dot clears p (or q_i) without a pass of
    its own, and no L_i sees a y formed from a non-finite p.  Only a non-finite dot
    looks at p or q_i, which raises :class:`_DivergenceError` naming the
    block, or lets a finite update whose squares overflow go on.

    Every array operation writes into ``ws``, ``into``, ``dx`` or
    ``dv``, never into ``x``, ``v``, ``wsum`` or an array an operator
    returned; an operator's result is consumed before the buffer it was
    handed is written again (p, when it lies in ``ws.arg``, by the pass
    that forms y there).  The operations and their order are those of
    the plain formulas in the module docstring, less the passes that
    are exact IEEE identities (each is named where it is skipped) and
    the dual argument of an exact-zero dual step, which reads none, so
    results are bitwise those of the formulas; the dual-block reduction
    runs in ascending block order.
    """
    arg = ws.arg
    if err is None:
        a1 = a2 = None
        bs = cs = _EXACT
    else:
        a1, a2, bs, cs = err
    px, qs = (arg, ws.dual_out) if into is None else into
    t = wsum
    if ws.C is not None:
        # else C x is +0, and t + (+0) = t since t never holds -0
        t = np.add(t, ws.C(x, arg), out=arg)
    if a1 is not None:
        t = np.add(t, a1, out=arg)
    if ws.z is not None:
        # else t - (+0) = t
        t = np.subtract(t, ws.z, out=arg)
    p = ws.A(np.subtract(x, np.multiply(t, ws.tau_array, out=arg), out=px), px)
    if a2 is not None:
        p = np.add(p, a2, out=px)
    elif p is not px and into is not None:
        np.copyto(px, p)
        p = px
    np.subtract(p, x, out=dx)
    xx = float(dx.dot(dx))
    if not math.isfinite(xx) and not np.isfinite(p).all():
        raise _DivergenceError("primal update p")
    y = np.subtract(np.multiply(p, _TWO, out=arg), x, out=arg)
    vv = []
    for (L, Dinv, r, sigma, dual, u_i, _), vi, q_i, dvi, b, c in zip(
            ws.blocks, v, qs, dv, bs, cs):
        if L is not None:
            # L_i y - D_i^{-1} v_i - c_i - r_i, where a vanished term is not
            # subtracted (x - (+0) = x) and the first subtraction left reads
            # L_i y; with none left, L_i y itself is scaled below
            a = L(y, u_i)
            if Dinv is not None:
                a = np.subtract(a, Dinv(vi), out=u_i)
            if c is not None:
                a = np.subtract(a, c, out=u_i)
            if r is not None:
                a = np.subtract(a, r, out=u_i)
            np.add(vi, np.multiply(a, sigma, out=u_i), out=u_i)
        # else the dual step is the exact 0 and its argument is dead
        q = dual(u_i, q_i)
        if b is not None:
            q = np.add(q, b, out=q_i)
        elif q is not q_i and into is not None:
            np.copyto(q_i, q)
            q = q_i
        np.subtract(q, vi, out=dvi)
        qq = float(dvi.dot(dvi))
        vv.append(qq)
        if not math.isfinite(qq) and not np.isfinite(q).all():
            raise _DivergenceError(f"dual update q[{len(vv) - 1}]")
    return xx, vv


def _sq_norms(dx, dv):
    """``<dx, dx>`` and each ``<dv_i, dv_i>``."""
    return float(dx.dot(dx)), [float(d.dot(d)) for d in dv]


def _state_norm(weights, x, v) -> float:
    """The weighted norm of the state ``(x, v)``, as the stop test forms it."""
    return math.sqrt(_weighted_sq(weights, *_sq_norms(x, v)))


def _checked_errors(err: IterationErrors, layout: SpaceLayout):
    """The terms ``[a1, a2, b, c]`` of ``err``, each ``None`` or checked
    by :func:`_check_vector` (numpy would broadcast a length-1 term), an
    empty ``b`` or ``c`` read as exact on each block; ``None`` when no
    term is given (the exact update)."""
    # loops by index: a run checks the terms of every row
    dims, n, m = layout.dual_dims, layout.dim_primal, layout.num_blocks
    a1, a2 = err.a1, err.a2
    given = a1 is not None or a2 is not None
    terms = [a1 if a1 is None else _check_vector("IterationErrors.a1", a1, n),
             a2 if a2 is None else _check_vector("IterationErrors.a2", a2, n)]
    for name, seq in (("IterationErrors.b", err.b), ("IterationErrors.c", err.c)):
        if not _check_blocks(name, seq, m, empty=True):
            terms.append((None,) * m)
            continue
        checked = []
        for i in range(m):
            t = seq[i]
            if t is not None:
                given = True
                t = _check_vector(name, t, dims[i], index=i)
            checked.append(t)
        terms.append(checked)
    return terms if given else None


def _weighted_sq(weights, xx, vv):
    """``xx + sum_i w_i vv_i``, reduced in ascending block order."""
    s = xx
    for w, q in zip(weights, vv):
        s += w * q
    return s


def run(spec: ProblemSpec, cfg: StepConfig, x0=None, v0=None,
        errors: Optional[Callable[[int], IterationErrors]] = None,
        stop: Optional[StoppingRule] = None,
        allow_inadmissible: bool = False,
        record_states: bool = False,
        iter_metrics: Optional[Callable[[IterState, np.ndarray], dict]] = None,
        extra_stop: Optional[Callable[[IterState, np.ndarray],
                                      Optional[StopReason]]] = None,
        ) -> RunReport:
    """Iterate until a stopping rule fires and report the run.

    ``cfg`` holds the steps and the relaxation ``cfg.lam``; ``x0`` and
    ``v0`` (zero by default) are copied into the initial state, and
    ``errors`` maps ``n`` to the :class:`IterationErrors` injected
    there.  README's "Library example" gives the contract of these
    inputs and of the report, including the refusal of steps that fail
    :func:`step_condition` (a ``ValueError``, or
    :class:`InadmissibleStepsError` unless ``allow_inadmissible``; a run
    under that override measures its residual in the plain weighted
    norm).  "Fixed and balanced steps" says which configs balance, and
    "Hooks and aliasing" what ``iter_metrics`` and ``extra_stop`` get.

    The run stops once the residual is at most ``stop.tol * (1 +
    ||state||)``, once ``extra_stop`` returns a :class:`StopReason`,
    after ``stop.max_iter`` iterations, or as ``"diverged"`` on a
    non-finite p or q_i, with ``failure`` naming the block and the
    iteration; ``report.stop`` says which.  README's "The stop test"
    also says when a run whose state repeats copies its remaining rows.
    With ``tol=0.0`` the run takes ``max_iter`` steps unless one lands
    on an exact fixed point.  The loop runs with numpy's overflow and
    invalid-value warnings off: a finite state whose squares overflow
    goes on, its inf norms never meeting the threshold.  Every value has
    the bits of the plain formulas in the module docstring ("Passes the
    iteration skips" says why the skipped passes keep them).
    """
    cond = step_condition(spec, cfg)
    admissible = cond.admissible
    if not admissible and not allow_inadmissible:
        raise InadmissibleStepsError(
            f"step sizes are inadmissible (margin = {cond.margin:.17g} <= 0; "
            f"rho = {cond.rho:.17g}, beta = {cond.beta:.17g}, delta = {cond.delta:.17g}); "
            "pass allow_inadmissible=True to run anyway"
        )
    stop = stop or StoppingRule()
    layout = spec.layout
    u, x, v = _initial_point(layout, x0, v0)
    weights = layout.weights
    tol = stop.tol

    ws = _Workspace(spec, cfg.tau, cfg.sigmas, admissible)
    balance = _Balance(spec, cfg, ws) if cfg.balance is not None and admissible else None
    # n of the last update the budget allows: a balance check after it
    # would bind steps that no update takes
    last = stop.max_iter - 1
    size, dim = layout.size, layout.dim_primal
    # the relaxation lam as a 0-d array, None at lam = 1 (x * 1 = x)
    scale = None if cfg.lam == 1.0 else _scalar(cfg.lam)
    # a state that leaves the loop keeps its array, so an update whose
    # state is handed out writes into a fresh one; the others alternate
    # between two arrays, neither of which is ever handed out before the
    # run ends.  A state is an IterState only once it is handed out to a
    # hook or read: a recorded one is kept as its flat array until then.
    every = record_states or extra_stop is not None
    relaxed = scale is not None or errors is not None
    # the run's own buffers, numbered after the plan's 3 + 3m (see
    # spaces._vectors): the next weighted sum, dx or, when an update can be
    # relaxed, the unrelaxed displacement d and the step s taken, then the
    # two states alternated between, unless every state is handed out
    lengths = [dim, size, size] if relaxed else [dim, dim]
    if not every:
        lengths += [size, size]
    own = iter(_vectors(*lengths, first=3 + 3 * layout.num_blocks))
    wsum, wsum_next = ws.wsum, next(own)
    if relaxed:
        d, s = next(own), next(own)
        (dx, dv), (sx, sv) = layout.split(d), layout.split(s)
    else:
        dx, dv = next(own), ws.dual_arg
    adjoints, tmp = ws.adjoints, ws.tmp
    residual_of = ws.residual
    clock = time.perf_counter
    # the bound's relative outward rounding (see below), formed once
    grow = 1.0 + NORM_BOUND_SLACK
    _adjoint_sum(adjoints, v, wsum, tmp)
    cuts = np.cumsum((dim, *layout.dual_dims)).tolist()
    spans = tuple(slice(lo, hi) for lo, hi in zip(cuts, cuts[1:]))

    def views(w):
        # (u, x, v) of the array w, the views SpaceLayout.split makes
        return w, w[:dim], tuple([w[sl] for sl in spans])

    pair = None if every else (views(next(own)), views(next(own)))
    # the current state as an IterState, once one is built for it
    st = None
    history = _History("history", lambda k, *row: IterationRecord(k + 1, *row), 3)
    add_step, add_residual, add_wall = (col.append for col in history.columns)
    states = None
    if record_states:
        states = _Rows("states", lambda k, w: IterState(k, *views(w)), 1)
        add_state = states.columns[0].append
        add_state(u)
    reason = StopReason("max_iter", float(stop.max_iter), float(stop.max_iter))
    failure = None
    # a state with the bits of the state one or two rows back starts a
    # cycle that runs to max_iter (README's "The stop test"); a row whose
    # step norm and residual repeat saves the bits of its new state for
    # the next two rows to compare with theirs.  Balancing that has
    # stopped never changes the steps again.
    cyclic = errors is None and iter_metrics is None and extra_stop is None
    steps_col, res_col = history.columns[:2]
    saved = None
    period = 0
    # an upper bound on the computed norm of the state, exact after a resync
    bound = math.inf

    # entered once per run (about 2 us); the docstring says why the
    # warnings it silences are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(stop.max_iter):
            err_n = None if errors is None else errors(n)
            if err_n is not None:
                err_n = _checked_errors(err_n, layout)
            hook = iter_metrics is not None and (n + 1) % OBJECTIVE_STRIDE == 0
            handed = every or hook
            nu, nx, nv = views(np.empty(size)) if handed else pair[n % 2]
            # an error-free update at relaxation 1 forms p and each q_i in
            # the next state; any other takes the relaxed formula u + lam d
            direct = err_n is None and scale is None
            t0 = clock()
            try:
                sq = _kernel(ws, x, v, wsum, err_n, (nx, nv) if direct else None, dx, dv)
            except _DivergenceError as exc:
                reason = StopReason("diverged")
                failure = f"non-finite value in {exc.block} at iteration {n}"
                break

            if not direct:
                np.add(u, d if scale is None else np.multiply(d, scale, out=nu), out=nu)
                if err_n is not None:
                    # the residual measures the error-free update from the same state
                    _kernel(ws, x, v, wsum, None, None, dx, dv)
            # the next iteration's weighted sum, the same bits as forming it there
            _adjoint_sum(adjoints, nv, wsum_next, tmp)
            if direct:
                # the step taken is the relaxation-1 displacement, and v_{n+1} -
                # v_n = dv gives sum_i w_i L_i^T dv_i = W_{n+1} - W_n, over dead W_n
                dwsum = np.subtract(wsum_next, wsum, out=wsum) if admissible else None
                step_sq = res_sq = sq
            else:
                np.subtract(nu, u, out=s)
                step_sq = _sq_norms(sx, sv)
                # the relaxation-1 displacement (x + (p - x)) - x
                np.subtract(np.add(u, d, out=d), u, out=d)
                dwsum = None
                res_sq = _sq_norms(dx, dv)
            residual = residual_of(dx, dv, res_sq, dwsum)
            step_norm = math.sqrt(_weighted_sq(weights, *step_sq))
            # the state norm enters only the threshold tol (1 + ||u_n||), and
            # rounding is monotone: an upper bound U >= ||u_n|| gives a
            # threshold at least as large, so a residual above tol (1 + U)
            # cannot meet the exact one, and the exact norm is needed only at
            # or below it
            if (n % NORM_RESYNC == 0 or not math.isfinite(bound)
                    or residual <= tol * (1.0 + bound)):
                bound = _state_norm(weights, x, v)
            state_norm = bound
            # ||u_{n+1}|| <= ||u_n|| + ||u_{n+1} - u_n||, rounded outward.  With
            # eps = 2^-53 and N the state's length plus twice the blocks, a
            # computed norm lies within gamma_N / 2 + eps ~ (N / 2 + 1) eps of
            # the true one (a sum of N nonnegative terms, then a square
            # root); u_{n+1} - u_n differs from the step whose norm was taken
            # by one rounding per entry (p - x's own where u_{n+1} holds p and q,
            # else u_n + d, or the difference itself), and forming the bound
            # costs three more.  So the relative slack must exceed
            # (N + 8) eps, which 1e-6 does for N < 9e9.  Squares that
            # underflow move a computed norm by at most sqrt(N) 2^-537
            # < 1e-150 absolutely, which the floor covers.
            bound = (state_norm + step_norm) * grow + NORM_BOUND_FLOOR
            wsum, wsum_next = wsum_next, wsum
            wall_ms = (clock() - t0) * 1000.0

            add_step(step_norm)
            add_residual(residual)
            add_wall(wall_ms)
            u, x, v = nu, nx, nv
            if record_states:
                add_state(u)
            st = None
            if hook or extra_stop is not None:
                st = states[n + 1] if record_states else IterState(n + 1, u, x, v)
            if hook:
                history.built[n] = IterationRecord(n + 1, step_norm, residual, wall_ms,
                                                   **iter_metrics(st, wsum))

            # norms can overflow to inf while the state is still finite; a
            # non-finite residual must never satisfy the convergence test
            threshold = tol * (1.0 + state_norm)
            if (math.isfinite(residual) and math.isfinite(state_norm)
                    and residual <= threshold):
                reason = StopReason("residual", residual, threshold)
                break
            if extra_stop is not None:
                extra = extra_stop(st, wsum)
                if extra is not None:
                    reason = extra
                    break
            if balance is not None and (n + 1) % BALANCE_STRIDE == 0 and n < last:
                # (dx, dv) holds the row's relaxation-1 displacement and
                # dwsum, if any, its weighted adjoint sum; no hook sees them
                balance.check(dx, dv, dwsum)
            if not cyclic:
                continue
            if saved is not None:
                if u.tobytes() == saved:
                    period = n - since
                    break
                if n - since == 2:
                    saved = None
            if (saved is None and n >= 2
                    and (balance is None or balance.alpha < _BALANCE_FLOOR)
                    and ((step_norm == steps_col[n - 1] and residual == res_col[n - 1])
                         or (step_norm == steps_col[n - 2] and residual == res_col[n - 2]))):
                saved, since = u.tobytes(), n

    if period:
        # each later row and state repeats the one period back
        rest = stop.max_iter - n - 1
        for col in steps_col, res_col:
            col.extend((col[-period:] * rest)[:rest])
        history.columns[2].extend([0.0] * rest)
        if record_states:
            kept = states.columns[0]
            kept.extend([w.copy() for w in (kept[-period:] * rest)[:rest]])
        elif period == 2 and rest % 2:
            # the final state is u_n, the other array of the pair
            u, x, v = pair[(n + 1) % 2]
    if record_states:
        st = states[-1]
    return RunReport(
        iterations=len(history),
        history=history,
        final_state=st if st is not None else IterState(len(history), u, x, v),
        stop=reason,
        states=states,
        used_errors=errors is not None,
        failure=failure,
        steps=cfg if balance is None else balance.cfg,
        step_changes=0 if balance is None else balance.changes,
    )
