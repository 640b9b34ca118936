"""Convex-minimization front end for the splitting solver.

Problems of the form

    minimize  f(x) + sum_i w_i (g_i inf-conv ell_i)(L_i x - r_i) + h(x) - <x, z>

are lowered, once per :class:`ConvexProblem` when it is built, to the
monotone inclusion solved by :mod:`splitsolve.solver` via the standard
correspondences: the resolvent of the subdifferential of f is its prox,
the smooth term enters through its gradient (which is mu-cocoercive
when (1/mu)-Lipschitz), and each strongly convex ell_i enters through
the gradient of its conjugate.  The dual problem

    minimize  (f* inf-conv h*)(z - sum_i w_i L_i^T v_i)
              + sum_i w_i (g_i*(v_i) + ell_i*(v_i) + <v_i, r_i>)

is evaluated for duality-gap reporting where closed forms exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .operators import (
    CocoerciveOp,
    Domain,
    LinearOp,
    ProxFunction,
    _MapForm,
    _norm,
    _scalar,
    _Zero,
    resolvent_from_prox,
)
from .solver import (
    OBJECTIVE_STRIDE,
    Block,
    IterationErrors,
    ProblemSpec,
    RunReport,
    StepConfig,
    StopReason,
    StoppingRule,
    _adjoint_sum,
    _checked_point,
    _checked_steps,
    _Workspace,
    run,
    suggest_steps,
)
from .spaces import SpaceLayout, _check_blocks, _check_count, _check_dim, _check_real, _check_vector

__all__ = [
    "SmoothTerm",
    "StronglyConvexTerm",
    "ConvexBlock",
    "ConvexProblem",
    "GapReport",
    "QualificationReport",
    "quadratic_smooth",
    "zero_smooth",
    "dirac_term",
    "quadratic_term",
    "check_gradient",
    "solve_convex",
    "evaluate_gap",
    "kkt_residual",
    "check_qualification",
]

@dataclass(frozen=True)
class SmoothTerm:
    """Differentiable convex term h with a (1/mu)-Lipschitz gradient."""

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    lipschitz_inv: float  # mu; inf encodes a zero gradient
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_count("dim", self.dim)
        object.__setattr__(self, "lipschitz_inv", _check_real("mu", self.lipschitz_inv, ends="]]"))
        if self.kind == "sq_l2":
            object.__setattr__(self, "params", _sq_l2_params(self.params, self.dim))


def _sq_l2_params(params: dict, dim: int) -> dict:
    """``params`` with the ``weight`` and ``center`` that the gap
    evaluator reads for kind ``"sq_l2"`` checked and stored as a float in
    ]0, inf[ and a finite float vector of length ``dim``; anything else
    is refused with a ``ValueError`` that names it."""
    need = (f'a SmoothTerm of kind "sq_l2" needs params "weight" (a number in ]0, inf[) '
            f'and "center" ({dim} finite numbers)')
    missing = [key for key in ("weight", "center") if key not in params]
    if missing:
        raise ValueError(f"{need}: {', '.join(map(repr, missing))} missing")
    try:
        weight = _check_real("weight", params["weight"])
        center = _check_vector("center", params["center"], dim, finite=True)
    except ValueError as exc:
        raise ValueError(f"{need}: {exc}") from None
    return {**params, "weight": weight, "center": center}


def quadratic_smooth(center, weight: float = 1.0, dim: Optional[int] = None,
                     mu: Optional[float] = None) -> SmoothTerm:
    """h(x) = (weight/2) ||x - center||^2; gradient is weight-Lipschitz.

    ``center`` is a vector, or a scalar filled to length ``dim``; a
    ``dim`` that disagrees with a vector center is refused by name.
    ``mu`` overrides the cocoercivity claim (diagnostics use only).
    """
    c = _check_real("weight", weight)
    b = _check_vector("center", center)
    if dim is None and b.ndim == 0:
        raise ValueError("dim is required for a scalar center")
    dim = len(b) if dim is None else _check_count("dim", dim)
    b = _check_vector("center", b, dim, scalar=True, finite=True)

    scale = _scalar(c)

    def gradient_into(x, out):
        np.subtract(x, b, out=out)
        # x * 1 = x
        return out if c == 1.0 else np.multiply(out, scale, out=out)

    def value(x):
        d = x - b
        return 0.5 * c * float(d.dot(d))

    return SmoothTerm(
        dim=b.size,
        value=value,
        gradient=_MapForm(gradient_into, b.size, b.size, "sq_l2 gradient"),
        lipschitz_inv=(1.0 / c) if mu is None else mu,
        kind="sq_l2",
        params={"weight": c, "center": b},
    )


def zero_smooth(dim: int, mu: Optional[float] = None) -> SmoothTerm:
    """The identically zero smooth term (gradient 0, mu = inf).

    The gradient returns one shared read-only zero array.
    """
    return SmoothTerm(
        dim=dim,
        value=lambda x: 0.0,
        gradient=_Zero(dim),
        lipschitz_inv=math.inf if mu is None else mu,
        kind="zero",
        params={},
    )


@dataclass(frozen=True)
class StronglyConvexTerm:
    """Strongly convex term ell, represented through its conjugate.

    Only the gradient of the conjugate enters the iteration; the
    conjugate value (and the kind tag) let the gap evaluator handle the
    closed-form cases.
    """

    dim: int
    conj_gradient: Callable[[np.ndarray], np.ndarray]
    nu: float
    conj_value: Optional[Callable[[np.ndarray], float]] = None
    kind: str = "custom"

    def __post_init__(self):
        _check_count("dim", self.dim)
        object.__setattr__(self, "nu", _check_real("nu", self.nu, ends="]]"))


def dirac_term(dim: int) -> StronglyConvexTerm:
    """ell = indicator of the origin; its conjugate is identically zero.

    This is the degenerate choice that removes the inf-convolution:
    (g inf-conv ell) = g.  The conjugate gradient returns one shared
    read-only zero array.
    """
    return StronglyConvexTerm(
        dim=dim,
        conj_gradient=_Zero(dim),
        nu=math.inf,
        conj_value=lambda v: 0.0,
        kind="dirac",
    )


def quadratic_term(dim: int, nu: float = 1.0) -> StronglyConvexTerm:
    """ell = (nu/2) ||.||^2; conjugate gradient v -> v / nu."""
    nu = _check_real("nu", nu)
    return StronglyConvexTerm(
        dim=dim,
        conj_gradient=lambda v: v / nu,
        nu=nu,
        conj_value=lambda v: float(v.dot(v)) / (2.0 * nu),
        kind="quadratic",
    )


@dataclass(frozen=True)
class ConvexBlock:
    g: ProxFunction
    ell: StronglyConvexTerm
    L: LinearOp
    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", _check_vector("r", self.r))


@dataclass(frozen=True)
class ConvexProblem:
    """A convex program and the monotone inclusion it lowers to.

    ``spec`` is derived, not passed: the :class:`ProblemSpec` whose
    iteration reproduces the minimization iteration step for step (the
    prox of f as A, the gradient of h as C, each conjugate gradient of
    ell_i as D_i^{-1}; ``zero_smooth`` and ``dirac_term`` give the exact
    zero, which the iteration skips).  It is formed once, when
    the problem is built (``dataclasses.replace`` builds it again), and
    every solve, gap and KKT evaluation reads it.  A smooth term of kind
    ``"custom"`` must first pass :func:`check_gradient` (O(n^2)
    evaluations; a wrong gradient raises its ``ValueError``); the
    catalog terms are trusted by their ``kind`` tag, as in
    :func:`evaluate_gap`, and their gradients are pinned by tests.
    """

    layout: SpaceLayout
    f: ProxFunction
    h: SmoothTerm
    z: np.ndarray
    blocks: tuple[ConvexBlock, ...]
    spec: ProblemSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        lay = self.layout
        _check_dim("f", self.f.dim, lay.dim_primal)
        _check_dim("h", self.h.dim, lay.dim_primal)
        object.__setattr__(self, "z", lay.check_coupling(self.z, self.blocks))
        for i, (blk, d) in enumerate(zip(self.blocks, lay.dual_dims)):
            _check_dim(f"block {i}: g", blk.g.dim, d)
            _check_dim(f"block {i}: ell", blk.ell.dim, d)
        if self.h.kind == "custom":
            check_gradient(self.h)
        blocks = tuple(
            Block(
                B=resolvent_from_prox(blk.g),
                Dinv=CocoerciveOp(blk.ell.dim, blk.ell.conj_gradient, blk.ell.nu),
                L=blk.L,
                r=blk.r,
            )
            for blk in self.blocks
        )
        object.__setattr__(self, "spec", ProblemSpec(
            layout=lay,
            A=resolvent_from_prox(self.f),
            C=CocoerciveOp(self.h.dim, self.h.gradient, self.h.lipschitz_inv),
            z=self.z,
            blocks=blocks,
        ))


@dataclass(frozen=True)
class GapReport:
    """Primal/dual objective values, their gap, and the KKT residual.

    Both problems are minimizations, so at a solution pair the values
    are negatives of each other and ``gap = primal + dual``.  Terms
    without a closed form leave the corresponding value ``None``; the
    ``notes`` say which.  An infeasible dual point yields ``inf``.
    """

    primal_value: Optional[float]
    dual_value: Optional[float]
    gap: Optional[float]
    kkt_residual: float
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class QualificationReport:
    verdict: str  # "satisfied" | "not-verified"
    witness: Optional[np.ndarray]
    reason: str


def check_gradient(h: SmoothTerm, points: int = 20, seed: int = 0,
                   rel_tol: float = 1e-5) -> float:
    """Central-difference check of the gradient; returns the worst
    relative error and raises if it exceeds ``rel_tol``, which must lie
    in ]0, inf[; ``points`` must be an integer of at least 1."""
    _check_count("points", points)
    _check_real("rel_tol", rel_tol)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(points):
        x = rng.standard_normal(h.dim)
        g = np.asarray(h.gradient(x), dtype=float)
        for j in range(h.dim):
            step = 1e-6 * (1.0 + abs(x[j]))
            e = np.zeros(h.dim)
            e[j] = step
            fd = (h.value(x + e) - h.value(x - e)) / (2.0 * step)
            worst = max(worst, abs(fd - g[j]) / (1.0 + abs(g[j])))
    if worst > rel_tol:
        raise ValueError(
            f"gradient fails the finite-difference check: relative error "
            f"{worst:.3e} > {rel_tol:g}"
        )
    return worst


def _at_point(cp: ConvexProblem, x, v, tau, sigmas):
    """The checked point shared by :func:`kkt_residual` and
    :func:`evaluate_gap`: ``x`` and each ``v_i`` as float arrays of
    their block's shape (not copied), and tau and one sigma per block
    (default 1) as floats, refused as :class:`StepConfig` refuses its
    steps."""
    m = len(cp.blocks)
    tau, sigmas = _checked_steps(tau, (1.0,) * m if sigmas is None else sigmas)
    _check_blocks("sigmas", sigmas, m)
    x, v = _checked_point(cp.layout, x, v)
    return x, v, tau, sigmas


def kkt_residual(cp: ConvexProblem, x: np.ndarray, v, tau: float = 1.0,
                 sigmas=None) -> float:
    """Fixed-point residual of the optimality system at (x, v).

    Zero exactly at primal-dual solution pairs, for any positive steps:

        ||x - prox_{tau f}(x - tau (sum_i w_i L_i^T v_i + grad h(x) - z))||
        + sum_i w_i ||v_i - prox_{sigma_i g_i*}(v_i + sigma_i (L_i x - grad ell_i*(v_i) - r_i))||

    A ``v`` or ``sigmas`` without one entry per block, a wrongly shaped
    ``x`` or ``v_i``, or a tau or sigma that is not finite and positive
    is refused with a ``ValueError``.  A finite point whose squares
    overflow gives ``inf`` without a numpy warning, as in
    :func:`splitsolve.solver.run`.
    """
    x, v, tau, sigmas = _at_point(cp, x, v, tau, sigmas)
    with np.errstate(over="ignore", invalid="ignore"):
        return _GapPlan(cp, tau, sigmas).kkt(x, v)


def evaluate_gap(cp: ConvexProblem, x, v, tau: float = 1.0, sigmas=None) -> GapReport:
    """Evaluate the primal and dual objectives and their gap at (x, v).

    Terms outside the closed-form catalog are flagged in ``notes`` and
    the affected value (and the gap) reported as ``None`` rather than
    approximated.  Inputs are checked and overflow is silent, as in
    :func:`kkt_residual`.
    """
    x, v, tau, sigmas = _at_point(cp, x, v, tau, sigmas)
    with np.errstate(over="ignore", invalid="ignore"):
        return _GapPlan(cp, tau, sigmas).gap(x, v)


def _infconv_value(blk: ConvexBlock, w: np.ndarray):
    """(g inf-conv ell)(w) for the catalog ell kinds; None if unknown."""
    if blk.ell.kind == "dirac":
        return blk.g.evaluate(w)
    if blk.ell.kind == "quadratic":
        nu = blk.ell.nu
        p = blk.g.prox(1.0 / nu, w)
        d = w - p
        return blk.g.evaluate(p) + 0.5 * nu * float(d.dot(d))
    return None


class _GapPlan:
    """The formulas of :func:`evaluate_gap` and :func:`kkt_residual` for
    one problem and one set of steps, evaluated on a
    :class:`splitsolve.solver._Workspace` ``ws`` of the plan's own,
    bound once on ``cp.spec``.

    The KKT residual is the fixed-point residual of the update that
    :func:`splitsolve.solver.run` applies, with the run's skips, reading
    L_i x where the update reads L_i y.  It writes where the update of a
    relaxed run writes (C x, the primal argument, p and x - p in
    ``arg``, each dual argument and q_i in the block's ``dual_arg`` and
    ``dual_out``).  :meth:`gap` forms each L_i x in the ``cross``
    buffers, z - wsum in ``arg`` and, when no ``wsum`` is handed in, the
    weighted sum in ``wsum`` and ``tmp``.  The objective values are the
    plain formulas; only the primal value's L_i x - r_i reads from the
    binding whether r_i vanishes.  The methods return floats and never
    write into ``x``, ``v`` or ``wsum``.
    """

    def __init__(self, cp: ConvexProblem, tau: float, sigmas):
        self.cp = cp
        self.ws = _Workspace(cp.spec, tau, sigmas)

    def kkt(self, x, v, wsum=None, Lx=None) -> float:
        """:func:`kkt_residual` at a checked point, given ``wsum`` =
        sum_i w_i L_i^T v_i (formed here when ``None``) and each
        ``L_i x`` in ``Lx``, where the caller has them."""
        ws = self.ws
        if wsum is None:
            wsum = _adjoint_sum(ws.adjoints, v, ws.wsum, ws.tmp)
        arg = ws.arg
        t = wsum
        if ws.C is not None:
            t = np.add(t, ws.C(x, arg), out=arg)
        if ws.z is not None:
            t = np.subtract(t, ws.z, out=arg)
        p = ws.A(np.subtract(x, np.multiply(t, ws.tau_array, out=arg), out=arg), arg)
        res = _norm(np.subtract(x, p, out=arg))
        for i, ((L, Dinv, r, sigma, dual, u, q), w, vi) in enumerate(zip(
                ws.blocks, ws.weights, v)):
            if L is not None:
                # else the dual step is the exact 0 and its argument is dead
                a = L(x, u) if Lx is None else Lx[i]
                if Dinv is not None:
                    a = np.subtract(a, Dinv(vi), out=u)
                if r is not None:
                    a = np.subtract(a, r, out=u)
                np.add(vi, np.multiply(a, sigma, out=u), out=u)
            res += w * _norm(np.subtract(vi, dual(u, q), out=u))
        return res

    def _dual_f_h(self, wsum):
        """(f* inf-conv h*)(z - wsum) in the closed-form cases; None if
        unknown."""
        cp = self.cp
        u = np.subtract(cp.z, wsum, out=self.ws.arg)
        if cp.h.kind == "sq_l2":
            c = cp.h.params["weight"]
            b = cp.h.params["center"]
            w = b + u / c
            p = cp.f.prox(1.0 / c, w)
            d = p - w
            envelope = cp.f.evaluate(p) + 0.5 * c * float(d.dot(d))
            return float(b.dot(u)) + float(u.dot(u)) / (2.0 * c) - envelope
        if cp.h.kind == "zero" and cp.f.conjugate_value is not None:
            return cp.f.conjugate_value(u)
        return None

    def gap(self, x, v, wsum=None) -> GapReport:
        """:func:`evaluate_gap` at a checked point, given ``wsum`` as in
        :meth:`kkt`."""
        cp, ws = self.cp, self.ws
        weights = ws.weights
        Lx = [apply(x, out) for apply, _, out in ws.cross]
        if wsum is None:
            wsum = _adjoint_sum(ws.adjoints, v, ws.wsum, ws.tmp)
        notes: list[str] = []

        primal: Optional[float] = cp.f.evaluate(x) + cp.h.value(x) - float(x.dot(cp.z))
        for i, (w, blk, (_, _, r, *_), lxi) in enumerate(
                zip(weights, cp.blocks, ws.blocks, Lx)):
            val = _infconv_value(blk, lxi if r is None else lxi - r)
            if val is None:
                notes.append(f"block {i}: no closed form for (g inf-conv ell); "
                             "primal value unavailable")
                primal = None
                break
            primal = primal + w * val

        dual: Optional[float] = self._dual_f_h(wsum)
        if dual is None:
            notes.append("no closed form for (f* inf-conv h*); dual value unavailable")
        else:
            for i, (w, blk, vi) in enumerate(zip(weights, cp.blocks, v)):
                if blk.g.conjugate_value is None or blk.ell.conj_value is None:
                    notes.append(f"block {i}: conjugate of g or ell unavailable; "
                                 "dual value unavailable")
                    dual = None
                    break
                term = (blk.g.conjugate_value(vi) + blk.ell.conj_value(vi)
                        + float(vi.dot(blk.r)))
                dual = dual + w * term
            if dual is not None and math.isinf(dual):
                notes.append("dual point infeasible: dual value is +inf")

        return GapReport(
            primal_value=primal,
            dual_value=dual,
            gap=None if primal is None or dual is None else primal + dual,
            kkt_residual=self.kkt(x, v, wsum, Lx),
            notes=tuple(notes),
        )


def solve_convex(cp: ConvexProblem, cfg: Optional[StepConfig] = None,
                 stop: Optional[StoppingRule] = None,
                 errors: Optional[Callable[[int], IterationErrors]] = None,
                 x0=None, v0=None,
                 kkt_tol: Optional[float] = None,
                 allow_inadmissible: bool = False,
                 record_states: bool = False,
                 record_objective: bool = False) -> tuple[RunReport, GapReport]:
    """Iterate on ``cp.spec`` and report convergence and the gap.

    With ``cfg=None`` the step sizes are those of :func:`suggest_steps`
    at its defaults.  ``stop`` and ``errors`` are passed to :func:`run`.
    When ``kkt_tol`` is set (in [0, inf[, refused otherwise like
    ``stop.tol``) the run also stops once the optimality residual
    is at most ``kkt_tol``, and ``report.stop`` then names the rule
    ``"kkt_tol"`` with that residual and the tolerance.
    ``record_objective=True`` attaches objective, gap, and KKT values
    to every ``OBJECTIVE_STRIDE``-th history row, the rows on which
    :func:`run` calls its metrics hook, and to the last row, which
    describes ``final_state`` and carries the values of the returned
    :class:`GapReport`; the other rows leave them ``None``.  Every value
    has the bits of :func:`evaluate_gap` and :func:`kkt_residual` at the
    starting steps of ``cfg`` (README's "The stop test").
    """
    if kkt_tol is not None:
        _check_real("kkt_tol", kkt_tol, ends="[[")
    spec = cp.spec
    if cfg is None:
        cfg = suggest_steps(spec)

    # one plan for the hooks and the returned report: the run's states
    # need none of the public functions' checks, and run's loop already
    # silences overflow
    plan = _GapPlan(cp, cfg.tau, cfg.sigmas)
    iter_metrics = None
    if record_objective:
        def iter_metrics(st, wsum):
            rep = plan.gap(st.x, st.v, wsum)
            return {
                "primal_obj": rep.primal_value,
                "dual_obj": rep.dual_value,
                "gap": rep.gap,
                "kkt": rep.kkt_residual,
            }

    extra_stop = None
    if kkt_tol is not None:
        def extra_stop(st, wsum):
            kkt = plan.kkt(st.x, st.v, wsum)
            return StopReason("kkt_tol", kkt, kkt_tol) if kkt <= kkt_tol else None

    report = run(
        spec, cfg, x0=x0, v0=v0, errors=errors, stop=stop,
        allow_inadmissible=allow_inadmissible, record_states=record_states,
        iter_metrics=iter_metrics, extra_stop=extra_stop,
    )
    final = report.final_state
    with np.errstate(over="ignore", invalid="ignore"):
        gap = plan.gap(final.x, final.v)
    if record_objective and report.history:
        report.history[-1] = replace(
            report.history[-1], primal_obj=gap.primal_value,
            dual_obj=gap.dual_value, gap=gap.gap, kkt=gap.kkt_residual,
        )
    return report, gap


# ---------------------------------------------------------------------------
# qualification checking


def _ri_anchor(dom: Domain) -> np.ndarray:
    """A finite point in the relative interior of a box/singleton/full
    domain: a bounded side's midpoint, one unit inside a half-bounded
    side's finite end, and 0 on a free side."""
    if dom.kind == "full":
        return None
    if dom.kind == "singleton":
        return dom.point.copy()
    lo, hi = dom.lo, dom.hi
    lo_fin, hi_fin = np.isfinite(lo), np.isfinite(hi)
    out = np.zeros(lo.shape)
    both = lo_fin & hi_fin
    out[both] = 0.5 * (lo[both] + hi[both])
    only_lo = lo_fin & ~hi_fin
    out[only_lo] = lo[only_lo] + 1.0
    only_hi = hi_fin & ~lo_fin
    out[only_hi] = hi[only_hi] - 1.0
    return out


def _sum_domains(d1: Domain, d2: Domain) -> Domain:
    if d1.kind == "full" or d2.kind == "full":
        return Domain.full()
    if d1.kind == "singleton" and d2.kind == "singleton":
        return Domain.singleton(d1.point + d2.point)
    if d1.kind == "singleton":
        d1, d2 = d2, d1
    if d2.kind == "singleton":
        return Domain.box(d1.lo + d2.point, d1.hi + d2.point)
    return Domain.box(d1.lo + d2.lo, d1.hi + d2.hi)


def _ri_contains(dom: Domain, w: np.ndarray) -> bool:
    """Membership of w in the relative interior, certifiable by sampling.

    Degenerate coordinates (singletons, zero-width box sides) require
    exact equality, which sampling cannot certify; they always fail.
    """
    if dom.kind == "full":
        return True
    if dom.kind == "singleton":
        return False
    lo, hi = dom.lo, dom.hi
    if np.any(hi - lo <= 0.0):
        return False
    lo_fin, hi_fin = np.isfinite(lo), np.isfinite(hi)
    margin = np.where(lo_fin & hi_fin, 1e-9 * (1.0 + np.abs(lo) + np.abs(hi)), 1e-9)
    inside = (~lo_fin | (w > lo + margin)) & (~hi_fin | (w < hi - margin))
    return bool(inside.all())


def _pull_into_f_domain(x: np.ndarray, dom: Optional[Domain]) -> Optional[np.ndarray]:
    if dom is None:
        return None
    if dom.kind == "full":
        return x
    if dom.kind == "singleton":
        return dom.point.copy()
    anchor = _ri_anchor(dom)
    y = np.clip(x, dom.lo, dom.hi)
    # nudge off the boundary toward the interior anchor
    return y + 1e-6 * (anchor - y)


def check_qualification(cp: ConvexProblem, samples: int = 32,
                        seed: int = 0) -> QualificationReport:
    """Search for a point certifying the range condition

        L_i x - r_i  in  ri dom g_i + ri dom ell_i   for all i,

    with x in ri dom f.  Only catalog domains (full space, boxes,
    singletons) are understood; the verdict is "satisfied" when such a
    point is found and "not-verified" otherwise (the condition is
    sufficient only, so no "violated" verdict exists).  Membership in a
    degenerate (singleton-like) target cannot be certified by sampling
    and is conservatively not verified.  Each candidate costs a fixed
    number of operator applications per block, so the search is linear
    in the dimension.  ``samples``, the number of random candidates
    after the aimed ones, must be an integer of at least 0.
    """
    _check_count("samples", samples, minimum=0)
    ell_domains = {"dirac": lambda d: Domain.singleton(np.zeros(d)),
                   "quadratic": lambda d: Domain.full()}
    if cp.f.domain is None:
        return QualificationReport("not-verified", None,
                                   "effective domain of f is not catalogued")
    targets = []
    for i, blk in enumerate(cp.blocks):
        if blk.g.domain is None:
            return QualificationReport("not-verified", None,
                                       f"effective domain of g[{i}] is not catalogued")
        if blk.ell.kind not in ell_domains:
            return QualificationReport("not-verified", None,
                                       f"effective domain of ell[{i}] is not catalogued")
        targets.append(_sum_domains(blk.g.domain,
                                    ell_domains[blk.ell.kind](blk.ell.dim)))

    rng = np.random.default_rng(seed)
    n = cp.layout.dim_primal
    candidates: list[np.ndarray] = [np.zeros(n)]

    # aim at the interior anchor of each nondegenerate box target, alone
    # and all together: one steepest-descent step from 0 on
    # sum_i ||L_i x - c_i||^2 with c_i = r_i + anchor_i, that is x = alpha g
    # with g = sum_i L_i^T c_i and alpha = ||g||^2 / sum_i ||L_i g||^2, the
    # exact line search; one adjoint and one apply per target and group
    aimed = []
    for blk, dom in zip(cp.blocks, targets):
        if dom.kind != "box":
            continue
        if np.any(dom.hi - dom.lo <= 0.0):
            continue  # degenerate side: never certifiable, do not target
        aimed.append((blk.L, blk.L.adjoint_apply(blk.r + _ri_anchor(dom))))
    for group in [[a] for a in aimed] + ([aimed] if len(aimed) > 1 else []):
        g = sum(gi for _, gi in group)
        curvature = math.fsum(float(np.dot(lg, lg)) for lg in (L.apply(g) for L, _ in group))
        if curvature > 0.0:
            candidates.append((float(np.dot(g, g)) / curvature) * g)
    candidates.extend(rng.standard_normal(n) for _ in range(samples))

    for raw in candidates:
        x = _pull_into_f_domain(raw, cp.f.domain)
        if x is None:
            continue
        ok = all(
            _ri_contains(dom, blk.L.apply(x) - blk.r)
            for blk, dom in zip(cp.blocks, targets)
        )
        if ok:
            return QualificationReport("satisfied", x, "interior point found")
    return QualificationReport("not-verified", None,
                               "no sampled point certified the range condition")
