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
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .operators import (
    CATALOG_KINDS,
    CocoerciveOp,
    Domain,
    LinearOp,
    ProxFunction,
    _norm,
    _read_only_zeros,
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
    _check_tolerance,
    _vanishes,
    _weighted_adjoint_sum,
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
    if not math.isfinite(c):
        raise ValueError(f"weight must be finite, got {c!r}")
    b = np.asarray(center, dtype=float)
    if b.ndim == 0:
        if dim is None:
            raise ValueError("dim is required for a scalar center")
        b = np.full(dim, float(b))
    if not np.isfinite(b).all():
        raise ValueError("center must be finite")

    def gradient(x):
        out = np.subtract(x, b)
        # x * 1 = x
        return out if c == 1.0 else np.multiply(out, c, out=out)

    def value(x):
        d = x - b
        return 0.5 * c * float(np.dot(d, d))

    return SmoothTerm(
        dim=b.size,
        value=value,
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
    if not math.isfinite(nu):
        raise ValueError(f"nu must be finite, got {nu!r}")
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
        lay.check_coupling(self.z, self.blocks)
        for i, (blk, d) in enumerate(zip(self.blocks, lay.dual_dims)):
            if blk.g.dim != d or blk.ell.dim != d:
                raise ValueError(f"block {i}: g/ell dimension mismatch")


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


def _map_kind(zero: bool, constant: float) -> str:
    """``CocoerciveOp.kind`` of a lowered map: ``"zero"`` for the
    gradient of ``zero_smooth`` or of the conjugate of ``dirac_term``,
    unless a finite declared constant (``zero_smooth(mu=...)``) asks for
    it to count in the step-size bound."""
    return "zero" if zero and math.isinf(constant) else "custom"


def lower_to_inclusion(cp: ConvexProblem) -> ProblemSpec:
    """Build the monotone-inclusion data whose solver iteration
    reproduces the minimization iteration step for step.

    A smooth term of kind ``"custom"`` (user code) must pass
    :func:`check_gradient` first, which costs O(n^2) objective
    evaluations; the catalog terms (``quadratic_smooth``,
    ``zero_smooth``) are trusted by their ``kind`` tag, as in
    :func:`evaluate_gap`, and their gradients are pinned by tests.  The
    check only raises or passes, so skipping it changes no result.
    ``zero_smooth`` and ``dirac_term`` lower to maps of kind ``"zero"``,
    which the iteration skips.
    """
    if cp.h.kind == "custom":
        check_gradient(cp.h)
    blocks = tuple(
        Block(
            B=resolvent_from_prox(blk.g),
            Dinv=CocoerciveOp(blk.ell.dim, blk.ell.conj_gradient, blk.ell.nu,
                              kind=_map_kind(blk.ell.kind == "dirac", blk.ell.nu)),
            L=blk.L,
            r=blk.r,
        )
        for blk in cp.blocks
    )
    return ProblemSpec(
        layout=cp.layout,
        A=resolvent_from_prox(cp.f),
        C=CocoerciveOp(cp.h.dim, cp.h.gradient, cp.h.lipschitz_inv,
                       kind=_map_kind(cp.h.kind == "zero", cp.h.lipschitz_inv)),
        z=cp.z,
        blocks=blocks,
    )


def _at_point(cp: ConvexProblem, x, v, sigmas):
    """The checked point shared by :func:`kkt_residual` and
    :func:`evaluate_gap`: ``x`` and each ``v_i`` as float arrays of
    their block's shape (not copied) and one sigma per block (default
    1).  A sigma that is not positive is refused as
    :func:`resolvent_of_inverse` refuses it."""
    layout = cp.layout
    m = len(cp.blocks)
    sigmas = (1.0,) * m if sigmas is None else tuple(sigmas)
    if len(sigmas) != m:
        raise ValueError("one sigma per block is required")
    if any(s <= 0 for s in sigmas):
        raise ValueError("sigma must be strictly positive")
    x = np.asarray(x, dtype=float)
    if x.shape != (layout.dim_primal,):
        raise ValueError("x has the wrong shape")
    v = tuple(np.asarray(vi, dtype=float) for vi in v)
    if len(v) != m or any(vi.shape != (d,) for vi, d in zip(v, layout.dual_dims)):
        raise ValueError("v has the wrong shapes")
    return x, v, sigmas


def kkt_residual(cp: ConvexProblem, x: np.ndarray, v, tau: float = 1.0,
                 sigmas=None) -> float:
    """Fixed-point residual of the optimality system at (x, v).

    Zero exactly at primal-dual solution pairs, for any positive steps:

        ||x - prox_{tau f}(x - tau (sum_i w_i L_i^T v_i + grad h(x) - z))||
        + sum_i w_i ||v_i - prox_{sigma_i g_i*}(v_i + sigma_i (L_i x - grad ell_i*(v_i) - r_i))||

    A ``v`` or ``sigmas`` without one entry per block, or a wrongly
    shaped ``x`` or ``v_i``, is refused with a ``ValueError``.  A finite
    point whose squares overflow gives ``inf`` without a numpy warning,
    as in :func:`splitsolve.solver.run`.
    """
    x, v, sigmas = _at_point(cp, x, v, sigmas)
    with np.errstate(over="ignore", invalid="ignore"):
        return _GapPlan(cp, tau, sigmas).kkt(x, v)


def evaluate_gap(cp: ConvexProblem, x, v, tau: float = 1.0, sigmas=None) -> GapReport:
    """Evaluate the primal and dual objectives and their gap at (x, v).

    Terms outside the closed-form catalog are flagged in ``notes`` and
    the affected value (and the gap) reported as ``None`` rather than
    approximated.  Inputs are checked, and overflow is silent, as in
    :func:`kkt_residual`.
    """
    x, v, sigmas = _at_point(cp, x, v, sigmas)
    with np.errstate(over="ignore", invalid="ignore"):
        return _GapPlan(cp, tau, sigmas).gap(x, v)


def _conjugate_prox(g: ProxFunction, sigma: float, u: np.ndarray) -> np.ndarray:
    """``prox_{sigma g*}(u)`` for a float array ``u`` and ``sigma > 0``:
    the bits of ``resolvent_of_inverse(resolvent_from_prox(g), sigma, u)``
    without building the resolvent."""
    if g.conjugate_prox is not None:
        return g.conjugate_prox(sigma, u)
    return u - sigma * g.prox(1.0 / sigma, u / sigma)


def _infconv_value(blk: ConvexBlock, w: np.ndarray):
    """(g inf-conv ell)(w) for the catalog ell kinds; None if unknown."""
    if blk.ell.kind == "dirac":
        return blk.g.evaluate(w)
    if blk.ell.kind == "quadratic":
        nu = blk.ell.params["nu"]
        p = blk.g.prox(1.0 / nu, w)
        d = w - p
        return blk.g.evaluate(p) + 0.5 * nu * float(np.dot(d, d))
    return None


#: below this bound on max|b| + ||u|| / c every entry of b + u / c is
#: finite, with room for the rounding of ||u|| and of the sum
_ENVELOPE_LIMIT = 1e300


class _GapPlan:
    """The formulas of :func:`evaluate_gap` and :func:`kkt_residual` for
    one problem and one set of steps, less the array passes that are
    exact IEEE no-ops, decided once when the plan is built.

    Passes skipped for every input:

    * subtracting ``z`` or ``r_i`` when every entry is +0.0
      (:func:`splitsolve.solver._vanishes`): x - (+0) = x;
    * subtracting the ``dirac`` conjugate gradient, which is +0;
    * adding the gradient of the ``zero`` smooth term (+0) to the
      weighted sum, which never holds -0;
    * the prox (the identity) and the value (0.0) of the ``zero`` f;
    * dividing by an ``sq_l2`` weight of 1: x / 1 = x.

    For ``sq_l2`` h the primal value's x - b is the gradient's own
    first pass, so the KKT argument reuses it and multiplies by the
    weight only when it is not 1.

    Terms skipped only when a value already in hand proves it exact:

    * ``<x, z>`` for a vanishing ``z`` when h is ``sq_l2`` and h(x) is
      finite: then x is finite, the dot is +-0, and f(x) + h(x) is not
      -0 (h(x) >= +0), so subtracting it changes no bit;
    * ``<v_i, r_i>`` for a vanishing ``r_i`` when g_i is a catalog kind,
      ell_i is ``dirac`` or ``quadratic`` and g_i*(v_i) is finite: every
      catalog conjugate value is non-finite at a non-finite point, so
      v_i is finite and the dot is +-0, and g_i*(v_i) + ell_i*(v_i) is
      not -0 (ell_i* >= +0);
    * the Moreau envelope of the ``zero`` f for ``sq_l2`` h, 0.0 + (c/2)
      <+0, +0> = +0.0, when ||u|| is finite and max|b| + ||u||/c stays
      below ``_ENVELOPE_LIMIT``, so that w = b + u/c is finite.

    Otherwise the plain formula runs, so every value keeps its bits,
    at the overflowing, infinite and NaN points too.  The scratch arrays
    are the plan's own; the methods return floats and never write into
    ``x``, ``v`` or ``wsum``.
    """

    def __init__(self, cp: ConvexProblem, tau: float, sigmas):
        self.cp, self.tau, self.sigmas = cp, tau, sigmas
        layout = cp.layout
        n = layout.dim_primal
        self.keep_z = not _vanishes(cp.z)
        self.keep_r = tuple(not _vanishes(blk.r) for blk in cp.blocks)
        self.drop_r_dot = tuple(
            not keep and blk.g.kind in CATALOG_KINDS
            and blk.ell.kind in ("dirac", "quadratic")
            for keep, blk in zip(self.keep_r, cp.blocks))
        self.f_zero = cp.f.kind == "zero"
        self.sq = cp.h.kind == "sq_l2"
        if self.sq:
            self.c = cp.h.params["weight"]
            self.b = cp.h.params["center"]
            self.b_max = float(np.abs(self.b).max())
        # d: x - b, then the gradient; arg: the primal KKT argument;
        # u: z - wsum; wsum/tmp: the weighted sum when it is formed here;
        # dual_arg: each block's KKT argument
        self.d, self.arg, self.u, self.wsum, self.tmp = (np.empty(n) for _ in range(5))
        self.dual_arg = tuple(np.empty(d) for d in layout.dual_dims)

    def _weighted_sum(self, v):
        return _weighted_adjoint_sum(self.cp.blocks, self.cp.layout.weights, v,
                                     self.wsum, self.tmp)

    def kkt(self, x, v, wsum=None, Lx=None, diff=None) -> float:
        """:func:`kkt_residual` at a checked point, given ``wsum`` =
        sum_i w_i L_i^T v_i (formed here when ``None``), each ``L_i x``
        in ``Lx`` and, for ``sq_l2`` h, ``diff`` = x - b in ``self.d``,
        where the caller has them."""
        cp = self.cp
        if wsum is None:
            wsum = self._weighted_sum(v)
        t = wsum
        if cp.h.kind != "zero":
            if self.sq:
                grad = np.subtract(x, self.b, out=self.d) if diff is None else diff
                if self.c != 1.0:
                    grad = np.multiply(grad, self.c, out=self.d)
            else:
                grad = cp.h.gradient(x)
            t = np.add(t, grad, out=self.arg)
        if self.keep_z:
            t = np.subtract(t, cp.z, out=self.arg)
        arg = np.subtract(x, np.multiply(t, self.tau, out=self.arg), out=self.arg)
        px = arg if self.f_zero else cp.f.prox(self.tau, arg)
        res = _norm(np.subtract(x, px, out=self.arg))
        for i, (w, s, blk, vi) in enumerate(zip(cp.layout.weights, self.sigmas,
                                                cp.blocks, v)):
            u = self.dual_arg[i]
            a = blk.L.apply(x) if Lx is None else Lx[i]
            if blk.ell.kind != "dirac":
                a = np.subtract(a, blk.ell.conj_gradient(vi), out=u)
            if self.keep_r[i]:
                a = np.subtract(a, blk.r, out=u)
            np.add(vi, np.multiply(a, s, out=u), out=u)
            q = _conjugate_prox(blk.g, s, u)
            res += w * _norm(np.subtract(vi, q, out=u))
        return res

    def _dual_f_h(self, wsum):
        """(f* inf-conv h*)(z - wsum) in the closed-form cases; None if
        unknown."""
        cp = self.cp
        if self.sq:
            c, b = self.c, self.b
            u = np.subtract(cp.z, wsum, out=self.u)
            uu = float(np.dot(u, u))
            head = float(np.dot(b, u)) + uu / (2.0 * c)
            if self.f_zero and self.b_max + math.sqrt(uu) / c < _ENVELOPE_LIMIT:
                # the envelope is +0.0, and head - (+0) = head; a NaN or
                # infinite ||u|| fails the test
                return head
            w = b + (u if c == 1.0 else u / c)
            p = w if self.f_zero else cp.f.prox(1.0 / c, w)
            d = p - w
            fp = 0.0 if self.f_zero else cp.f.evaluate(p)
            return head - (fp + 0.5 * c * float(np.dot(d, d)))
        if cp.h.kind == "zero" and cp.f.conjugate_value is not None:
            return cp.f.conjugate_value(np.subtract(cp.z, wsum, out=self.u))
        return None

    def gap(self, x, v, wsum=None) -> GapReport:
        """:func:`evaluate_gap` at a checked point, given ``wsum`` as in
        :meth:`kkt`."""
        cp = self.cp
        weights = cp.layout.weights
        Lx = [blk.L.apply(x) for blk in cp.blocks]
        if wsum is None:
            wsum = self._weighted_sum(v)
        notes: list[str] = []

        fx = 0.0 if self.f_zero else cp.f.evaluate(x)
        diff = None
        if self.sq:
            diff = np.subtract(x, self.b, out=self.d)
            hx = 0.5 * self.c * float(np.dot(diff, diff))
        else:
            hx = cp.h.value(x)
        primal: Optional[float] = fx + hx
        if self.keep_z or not (self.sq and math.isfinite(hx)):
            primal = primal - float(np.dot(x, cp.z))
        for i, (w, blk, lxi) in enumerate(zip(weights, cp.blocks, Lx)):
            val = _infconv_value(blk, lxi - blk.r if self.keep_r[i] else lxi)
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
                g_conj = blk.g.conjugate_value(vi)
                term = g_conj + blk.ell.conj_value(vi)
                if not (self.drop_r_dot[i] and math.isfinite(g_conj)):
                    term = term + float(np.dot(vi, blk.r))
                dual = dual + w * term
            if dual is not None and math.isinf(dual):
                notes.append("dual point infeasible: dual value is +inf")

        return GapReport(
            primal_value=primal,
            dual_value=dual,
            gap=None if primal is None or dual is None else primal + dual,
            kkt_residual=self.kkt(x, v, wsum, Lx, diff),
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
    """Lower the problem, iterate, and report convergence and the gap.

    With ``cfg=None`` the step sizes are those of :func:`suggest_steps`
    at its defaults.  ``stop`` and ``errors`` are passed to :func:`run`.
    When ``kkt_tol`` is set (finite and non-negative, refused otherwise
    like ``stop.tol``) the run also stops once the optimality residual
    is at most ``kkt_tol``, and ``report.stop`` then names the rule
    ``"kkt_tol"`` with that residual and the tolerance.
    ``record_objective=True`` attaches objective, gap, and KKT values
    to every ``OBJECTIVE_STRIDE``-th history row, the rows on which
    :func:`run` calls its metrics hook, and to the last row, which
    describes ``final_state`` and carries the values of the returned
    :class:`GapReport`; the other rows leave them ``None``.  Both
    hooks give the bits of :func:`evaluate_gap` and
    :func:`kkt_residual` at the state, with the skipped passes planned
    once per call and the weighted sum sum_i w_i L_i^T v_i taken from
    :func:`run`, which carries it.
    """
    if kkt_tol is not None:
        _check_tolerance("kkt_tol", kkt_tol)
    spec = lower_to_inclusion(cp)
    if cfg is None:
        cfg = suggest_steps(spec)

    # the hooks take the weighted sum run carries with each state, and
    # run's loop already silences overflow, so the public functions'
    # checks, sum and errstate are skipped
    plan = (_GapPlan(cp, cfg.tau, cfg.sigmas)
            if record_objective or kkt_tol is not None else None)
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
    gap = evaluate_gap(cp, final.x, final.v, tau=cfg.tau, sigmas=cfg.sigmas)
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
    in the dimension.
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
