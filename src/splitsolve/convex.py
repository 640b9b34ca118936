"""Convex-minimization front end for the splitting solver.

Problems of the form

    minimize  f(x) + sum_i w_i (g_i inf-conv ell_i)(L_i x - r_i) + h(x) - <x, z>

are lowered to the monotone inclusion solved by :mod:`splitsolve.solver`
via the standard correspondences: the resolvent of the subdifferential
of f is its prox, the smooth term enters through its gradient (which is
mu-cocoercive when (1/mu)-Lipschitz), and each strongly convex ell_i
enters through the gradient of its conjugate.  The dual problem

    minimize  (f* inf-conv h*)(z - sum_i w_i L_i^T v_i)
              + sum_i w_i (g_i*(v_i) + ell_i*(v_i) + <v_i, r_i>)

is evaluated for duality-gap reporting where closed forms exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .operators import (
    CocoerciveOp,
    Domain,
    LinearOp,
    ProxFunction,
    _read_only_zeros,
    prox_conjugate,
    resolvent_from_prox,
)
from .solver import (
    Block,
    ErrorSchedule,
    ProblemSpec,
    RunReport,
    StepConfig,
    StoppingRule,
    run,
    suggest_steps,
)
from .spaces import SpaceLayout

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
    "lower_to_inclusion",
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
        if not self.lipschitz_inv > 0:
            raise ValueError("lipschitz_inv (mu) must be strictly positive")


def quadratic_smooth(center, weight: float = 1.0, dim: Optional[int] = None,
                     mu: Optional[float] = None) -> SmoothTerm:
    """h(x) = (weight/2) ||x - center||^2; gradient is weight-Lipschitz.

    ``mu`` overrides the cocoercivity claim (diagnostics use only).
    """
    c = float(weight)
    if c <= 0:
        raise ValueError("weight must be positive")
    b = np.asarray(center, dtype=float)
    if b.ndim == 0:
        if dim is None:
            raise ValueError("dim is required for a scalar center")
        b = np.full(dim, float(b))

    def gradient(x):
        out = np.subtract(x, b)
        return np.multiply(out, c, out=out)

    return SmoothTerm(
        dim=b.size,
        value=lambda x: 0.5 * c * float(np.dot(x - b, x - b)),
        gradient=gradient,
        lipschitz_inv=(1.0 / c) if mu is None else float(mu),
        kind="sq_l2",
        params={"weight": c, "center": b},
    )


def zero_smooth(dim: int, mu: Optional[float] = None) -> SmoothTerm:
    """The identically zero smooth term (gradient 0, mu = inf).

    The gradient returns one shared read-only zero array.
    """
    zero = _read_only_zeros(dim)
    return SmoothTerm(
        dim=dim,
        value=lambda x: 0.0,
        gradient=lambda x: zero,
        lipschitz_inv=math.inf if mu is None else float(mu),
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
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.nu > 0:
            raise ValueError("nu must be strictly positive")


def dirac_term(dim: int) -> StronglyConvexTerm:
    """ell = indicator of the origin; its conjugate is identically zero.

    This is the degenerate choice that removes the inf-convolution:
    (g inf-conv ell) = g.  The conjugate gradient returns one shared
    read-only zero array.
    """
    zero = _read_only_zeros(dim)
    return StronglyConvexTerm(
        dim=dim,
        conj_gradient=lambda v: zero,
        nu=math.inf,
        conj_value=lambda v: 0.0,
        kind="dirac",
        params={},
    )


def quadratic_term(dim: int, nu: float = 1.0) -> StronglyConvexTerm:
    """ell = (nu/2) ||.||^2; conjugate gradient v -> v / nu."""
    nu = float(nu)
    if nu <= 0:
        raise ValueError("nu must be positive")
    return StronglyConvexTerm(
        dim=dim,
        conj_gradient=lambda v: v / nu,
        nu=nu,
        conj_value=lambda v: float(np.dot(v, v)) / (2.0 * nu),
        kind="quadratic",
        params={"nu": nu},
    )


@dataclass(frozen=True)
class ConvexBlock:
    g: ProxFunction
    ell: StronglyConvexTerm
    L: LinearOp
    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))


@dataclass(frozen=True)
class ConvexProblem:
    layout: SpaceLayout
    f: ProxFunction
    h: SmoothTerm
    z: np.ndarray
    blocks: tuple[ConvexBlock, ...]

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        lay = self.layout
        if self.f.dim != lay.dim_primal or self.h.dim != lay.dim_primal:
            raise ValueError("f and h must act on the primal space")
        if self.z.shape != (lay.dim_primal,):
            raise ValueError("z has the wrong shape")
        if len(self.blocks) != lay.num_blocks:
            raise ValueError("number of blocks disagrees with layout")
        for i, blk in enumerate(self.blocks):
            d = lay.dual_dims[i]
            if blk.g.dim != d or blk.ell.dim != d:
                raise ValueError(f"block {i}: g/ell dimension mismatch")
            if blk.L.in_dim != lay.dim_primal or blk.L.out_dim != d:
                raise ValueError(f"block {i}: L has the wrong dimensions")
            if blk.r.shape != (d,):
                raise ValueError(f"block {i}: r has the wrong shape")


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
    relative error and raises if it exceeds ``rel_tol``."""
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


def lower_to_inclusion(cp: ConvexProblem) -> ProblemSpec:
    """Build the monotone-inclusion data whose solver iteration
    reproduces the minimization iteration step for step.

    A smooth term of kind ``"custom"`` (user code) must pass
    :func:`check_gradient` first, which costs O(n^2) objective
    evaluations; the catalog terms (``quadratic_smooth``,
    ``zero_smooth``) are trusted by their ``kind`` tag, as in
    :func:`evaluate_gap`, and their gradients are pinned by tests.  The
    check only raises or passes, so skipping it changes no result.
    """
    if cp.h.kind == "custom":
        check_gradient(cp.h)
    blocks = tuple(
        Block(
            B=resolvent_from_prox(blk.g),
            Dinv=CocoerciveOp(blk.ell.dim, blk.ell.conj_gradient, blk.ell.nu),
            L=blk.L,
            r=blk.r,
        )
        for blk in cp.blocks
    )
    return ProblemSpec(
        layout=cp.layout,
        A=resolvent_from_prox(cp.f),
        C=CocoerciveOp(cp.h.dim, cp.h.gradient, cp.h.lipschitz_inv),
        z=cp.z,
        blocks=blocks,
    )


def kkt_residual(cp: ConvexProblem, x: np.ndarray, v, tau: float = 1.0,
                 sigmas=None) -> float:
    """Fixed-point residual of the optimality system at (x, v).

    Zero exactly at primal-dual solution pairs, for any positive steps:

        ||x - prox_{tau f}(x - tau (sum_i w_i L_i^T v_i + grad h(x) - z))||
        + sum_i w_i ||v_i - prox_{sigma_i g_i*}(v_i + sigma_i (L_i x - grad ell_i*(v_i) - r_i))||
    """
    x = np.asarray(x, dtype=float)
    v = tuple(np.asarray(vi, dtype=float) for vi in v)
    weights = cp.layout.weights
    if sigmas is None:
        sigmas = (1.0,) * len(cp.blocks)
    wsum = np.zeros_like(x)
    for w, blk, vi in zip(weights, cp.blocks, v):
        wsum = wsum + w * blk.L.adjoint_apply(vi)
    px = cp.f.prox(tau, x - tau * (wsum + cp.h.gradient(x) - cp.z))
    res = float(np.linalg.norm(x - px))
    for w, s, blk, vi in zip(weights, sigmas, cp.blocks, v):
        u = vi + s * (blk.L.apply(x) - blk.ell.conj_gradient(vi) - blk.r)
        res += w * float(np.linalg.norm(vi - prox_conjugate(blk.g, s, u)))
    return res


def _infconv_value(blk: ConvexBlock, w: np.ndarray):
    """(g inf-conv ell)(w) for the catalog ell kinds; None if unknown."""
    if blk.ell.kind == "dirac":
        return blk.g.evaluate(w)
    if blk.ell.kind == "quadratic":
        nu = blk.ell.params["nu"]
        p = blk.g.prox(1.0 / nu, w)
        return blk.g.evaluate(p) + 0.5 * nu * float(np.dot(w - p, w - p))
    return None


def _conj_infconv_f_h(cp: ConvexProblem, u: np.ndarray):
    """(f* inf-conv h*)(u) in the closed-form cases; None if unknown."""
    if cp.h.kind == "sq_l2":
        c = cp.h.params["weight"]
        b = cp.h.params["center"]
        w = b + u / c
        p = cp.f.prox(1.0 / c, w)
        envelope = cp.f.evaluate(p) + 0.5 * c * float(np.dot(p - w, p - w))
        return float(np.dot(b, u)) + float(np.dot(u, u)) / (2.0 * c) - envelope
    if cp.h.kind == "zero":
        if cp.f.conjugate_value is not None:
            return cp.f.conjugate_value(u)
        return None
    return None


def evaluate_gap(cp: ConvexProblem, x, v, tau: float = 1.0, sigmas=None) -> GapReport:
    """Evaluate the primal and dual objectives and their gap at (x, v).

    Terms outside the closed-form catalog are flagged in ``notes`` and
    the affected value (and the gap) reported as ``None`` rather than
    approximated.
    """
    x = np.asarray(x, dtype=float)
    v = tuple(np.asarray(vi, dtype=float) for vi in v)
    weights = cp.layout.weights
    notes: list[str] = []

    primal: Optional[float] = cp.f.evaluate(x) + cp.h.value(x) - float(np.dot(x, cp.z))
    for i, (w, blk) in enumerate(zip(weights, cp.blocks)):
        val = _infconv_value(blk, blk.L.apply(x) - blk.r)
        if val is None:
            notes.append(f"block {i}: no closed form for (g inf-conv ell); "
                         "primal value unavailable")
            primal = None
            break
        primal = primal + w * val

    wsum = np.zeros_like(x)
    for w, blk, vi in zip(weights, cp.blocks, v):
        wsum = wsum + w * blk.L.adjoint_apply(vi)
    dual: Optional[float] = _conj_infconv_f_h(cp, cp.z - wsum)
    if dual is None:
        notes.append("no closed form for (f* inf-conv h*); dual value unavailable")
    else:
        for i, (w, blk, vi) in enumerate(zip(weights, cp.blocks, v)):
            if blk.g.conjugate_value is None or blk.ell.conj_value is None:
                notes.append(f"block {i}: conjugate of g or ell unavailable; "
                             "dual value unavailable")
                dual = None
                break
            term = blk.g.conjugate_value(vi) + blk.ell.conj_value(vi) + float(np.dot(vi, blk.r))
            dual = dual + w * term
        if dual is not None and math.isinf(dual):
            notes.append("dual point infeasible: dual value is +inf")

    if primal is None or dual is None:
        gap = None
    else:
        gap = primal + dual

    return GapReport(
        primal_value=primal,
        dual_value=dual,
        gap=gap,
        kkt_residual=kkt_residual(cp, x, v, tau=tau, sigmas=sigmas),
        notes=tuple(notes),
    )


def solve_convex(cp: ConvexProblem, cfg: Optional[StepConfig] = None,
                 stop: Optional[StoppingRule] = None,
                 errors: Optional[ErrorSchedule] = None,
                 x0=None, v0=None,
                 safety: float = 0.99,
                 allow_inadmissible: bool = False,
                 record_states: bool = False,
                 record_objective: bool = False) -> tuple[RunReport, GapReport]:
    """Lower the problem, iterate, and report convergence and the gap.

    With ``cfg=None`` the step sizes are picked automatically.  When
    ``stop.kkt_tol`` is set the run also stops once the optimality
    residual falls below it.  ``record_objective=True`` attaches
    objective, gap, and KKT values to every history row.
    """
    spec = lower_to_inclusion(cp)
    if cfg is None:
        cfg = suggest_steps(spec, safety=safety)
    stop = stop or StoppingRule()

    iter_metrics = None
    if record_objective:
        def iter_metrics(st):
            rep = evaluate_gap(cp, st.x, st.v, tau=cfg.tau, sigmas=cfg.sigmas)
            return {
                "primal_obj": rep.primal_value,
                "dual_obj": rep.dual_value,
                "gap": rep.gap,
                "kkt": rep.kkt_residual,
            }

    extra_stop = None
    if stop.kkt_tol is not None:
        kkt_tol = stop.kkt_tol

        def extra_stop(st):
            return kkt_residual(cp, st.x, st.v, tau=cfg.tau, sigmas=cfg.sigmas) <= kkt_tol

    report = run(
        spec, cfg, x0=x0, v0=v0, errors=errors, stop=stop,
        allow_inadmissible=allow_inadmissible, record_states=record_states,
        iter_metrics=iter_metrics, extra_stop=extra_stop,
    )
    final = report.final_state
    gap = evaluate_gap(cp, final.x, final.v, tau=cfg.tau, sigmas=cfg.sigmas)
    return report, gap


# ---------------------------------------------------------------------------
# qualification checking


def _ri_anchor(dom: Domain) -> np.ndarray:
    """A finite point in the relative interior of a box/singleton/full domain."""
    if dom.kind == "full":
        return None
    if dom.kind == "singleton":
        return dom.point.copy()
    lo, hi = dom.lo, dom.hi
    out = np.zeros(lo.shape)
    for j in range(lo.size):
        a, b = lo[j], hi[j]
        if math.isfinite(a) and math.isfinite(b):
            out[j] = 0.5 * (a + b)
        elif math.isfinite(a):
            out[j] = a + 1.0
        elif math.isfinite(b):
            out[j] = b - 1.0
        else:
            out[j] = 0.0
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
    for j in range(lo.size):
        a, b = lo[j], hi[j]
        if b - a <= 0.0:
            return False
        margin = 1e-9 * (1.0 + abs(a) + abs(b)) if math.isfinite(a) and math.isfinite(b) else 1e-9
        if math.isfinite(a) and not w[j] > a + margin:
            return False
        if math.isfinite(b) and not w[j] < b - margin:
            return False
    return True


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
    and is conservatively not verified.
    """
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

    # target the interior of each bounded, nondegenerate box constraint
    solvable = []
    for blk, dom in zip(cp.blocks, targets):
        if dom.kind != "box":
            continue
        if np.any(dom.hi - dom.lo <= 0.0):
            continue  # degenerate side: never certifiable, do not target
        anchor = _ri_anchor(dom)
        mat = np.column_stack([blk.L.apply(e) for e in np.eye(n)])
        solvable.append((mat, blk.r + anchor))
        cand, *_ = np.linalg.lstsq(mat, blk.r + anchor, rcond=None)
        candidates.append(cand)
    if len(solvable) > 1:
        mats = np.vstack([m for m, _ in solvable])
        rhs = np.concatenate([t for _, t in solvable])
        cand, *_ = np.linalg.lstsq(mats, rhs, rcond=None)
        candidates.append(cand)
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
