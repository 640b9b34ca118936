"""Pinned benchmark problems and standalone reference recursions.

Each suite builds a small seeded instance, solves it with the library,
and checks the outcome against an independent yardstick: a standalone
recursion written out in full for the reduction suites, frozen
long-run reference values plus exact optimality certificates for the
denoising suites, and a closed-form projection for the intersection
suite.  ``scripts/make_references.py`` regenerates the frozen values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .convex import (
    ConvexBlock,
    ConvexProblem,
    dirac_term,
    quadratic_smooth,
    quadratic_term,
    solve_convex,
    zero_smooth,
)
from .operators import catalog_prox, diff1d_op, identity_op, matrix_op
from .solver import (
    StoppingRule,
    _States,
    geometric_errors,
    run,
    suggest_steps,
    validate_steps,
)
from .spaces import SpaceLayout

__all__ = [
    "SUITE_NAMES",
    "BenchCheck",
    "BenchOutcome",
    "forward_backward_reference",
    "condat_reference",
    "chambolle_pock_reference",
    "fb_problem",
    "condat_problem",
    "cp_problem",
    "tv1d_problem",
    "fused_lasso_problem",
    "huber_tv_problem",
    "intersection_problem",
    "max_state_deviation",
    "run_suite",
    "REFERENCES",
]

@dataclass(frozen=True)
class BenchCheck:
    """One pass/fail line of a suite."""

    label: str
    value: float
    bound: float
    passed: bool

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.label}: {self.value:.3e} <= {self.bound:g}: {verdict}"


@dataclass
class BenchOutcome:
    suite: str
    checks: list[BenchCheck]
    reports: dict  # name -> RunReport (for CSV emission)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


# ---------------------------------------------------------------------------
# standalone reference recursions (no solver imports; plain loops)
#
# Each recursion stops computing at its first repeated state.  Without
# error sequences, a recursion's next state is a function of its current
# state alone (the maps it is handed must be functions of their
# arguments, as the library's are), so a state with the bits of the state
# one or two iterates before it starts a cycle of period 1 or 2, and
# every later iterate is a copy of the one that many iterates back.  The
# bits are compared (``tobytes`` of x and of every v_i), so -0.0 and
# +0.0, and NaN payloads, tell states apart.  A longer cycle runs on to
# ``iters``: finding one would mean keeping the bits of every past state,
# and periods 1 and 2 cover the suites' problems.  The lists returned
# are those of the full loop, bit for bit, with ``iters + 1`` entries and
# no entry aliasing another, and the reduction suites compare every one.


class _Repeats:
    """The bits of the last two states of a recursion, from its ``first``."""

    def __init__(self, *first):
        self.keys = []
        self.period(*first)

    def period(self, *arrays) -> int:
        """1 or 2 when the state ``arrays`` has the bits of the state one
        or two iterates before it, else 0 (and the state is kept)."""
        key = b"".join(a.tobytes() for a in arrays)
        for back in (1, 2):
            if len(self.keys) >= back and self.keys[-back] == key:
                return back
        self.keys = self.keys[-1:] + [key]
        return 0


def _fill(seq, period, total, copy):
    """``seq`` extended to ``total`` entries by repeating its cycle of
    ``period`` entries, each new entry a ``copy`` of the one ``period``
    back."""
    while len(seq) < total:
        seq.append(copy(seq[-period]))
    return seq


def _copy_blocks(vk):
    return [vi.copy() for vi in vk]


def forward_backward_reference(prox, grad, tau, lam, x0, iters,
                               a1_seq=None, a2_seq=None):
    """Relaxed forward-backward recursion; returns all ``iters + 1`` iterates.

    x_{n+1} = x_n + lam (prox(tau, x_n - tau (grad(x_n) + a1_n)) + a2_n - x_n)

    The loop stops computing at its first repeated state (see above);
    ``a1_seq`` or ``a2_seq`` depend on n and turn the stop off.
    """
    x = np.asarray(x0, dtype=float).copy()
    xs = [x]
    repeats = _Repeats(x) if a1_seq is None and a2_seq is None else None
    for n in range(iters):
        t = grad(x)
        if a1_seq is not None:
            t = t + a1_seq(n)
        p = prox(tau, x - tau * t)
        if a2_seq is not None:
            p = p + a2_seq(n)
        x = x + lam * (p - x)
        xs.append(x)
        if repeats is not None and (period := repeats.period(x)):
            return _fill(xs, period, iters + 1, np.ndarray.copy)
    return xs


def condat_reference(f_prox, h_grad, g_proxes, L_ops, weights, tau, sigma,
                     lam, x0, v0, iters):
    """Primal-dual recursion with a common dual step and no offsets.

    The dual prox is the conjugate prox evaluated by the Moreau
    decomposition.  Returns the full primal and dual iterate lists,
    ``iters + 1`` entries each.  The loop stops computing at its first
    repeated state (see above).
    """
    x = np.asarray(x0, dtype=float).copy()
    v = [np.asarray(vi, dtype=float).copy() for vi in v0]
    xs = [x]
    vs = [list(v)]
    repeats = _Repeats(x, *v)
    for _ in range(iters):
        wsum = np.zeros_like(x)
        for w, L, vi in zip(weights, L_ops, v):
            wsum = wsum + w * L.adjoint_apply(vi)
        p = f_prox(tau, x - tau * (wsum + h_grad(x)))
        y = 2.0 * p - x
        x = x + lam * (p - x)
        for i, (g_prox, L) in enumerate(zip(g_proxes, L_ops)):
            u = v[i] + sigma * L.apply(y)
            q = u - sigma * g_prox(1.0 / sigma, u / sigma)
            v[i] = v[i] + lam * (q - v[i])
        xs.append(x)
        vs.append(list(v))
        if period := repeats.period(x, *v):
            return (_fill(xs, period, iters + 1, np.ndarray.copy),
                    _fill(vs, period, iters + 1, _copy_blocks))
    return xs, vs


def chambolle_pock_reference(f_prox, g_prox, L, tau, sigma, x0, v0, iters):
    """Two-step primal-dual recursion (single block, unit relaxation),
    as Chambolle and Pock (JMIV 2011) write it: x = p, v = q.

    Returns the primal and dual iterate lists, ``iters + 1`` entries
    each.  The loop stops computing at its first repeated state (see
    above).
    """
    x = np.asarray(x0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    xs = [x]
    vs = [v]
    repeats = _Repeats(x, v)
    for _ in range(iters):
        p = f_prox(tau, x - tau * L.adjoint_apply(v))
        y = 2.0 * p - x
        u = v + sigma * L.apply(y)
        q = u - sigma * g_prox(1.0 / sigma, u / sigma)
        x, v = p, q
        xs.append(x)
        vs.append(v)
        if period := repeats.period(x, v):
            return (_fill(xs, period, iters + 1, np.ndarray.copy),
                    _fill(vs, period, iters + 1, np.ndarray.copy))
    return xs, vs


# ---------------------------------------------------------------------------
# pinned problem instances


def _single_block(f, h, g, L, ell=None):
    """One weight-1 block coupled through ``L``, with zero ``z`` and ``r``;
    ``ell`` defaults to the Dirac term."""
    n, d = L.in_dim, L.out_dim
    return ConvexProblem(
        layout=SpaceLayout(n, (d,), (1.0,)),
        f=f,
        h=h,
        z=np.zeros(n),
        blocks=(ConvexBlock(g=g, ell=dirac_term(d) if ell is None else ell, L=L,
                            r=np.zeros(d)),),
    )


def fb_problem():
    """10-dim composite problem with a fully degenerate dual block."""
    rng = np.random.default_rng(101)
    n = 10
    b = rng.standard_normal(n)
    cp = _single_block(f=catalog_prox("l1", n, weight=0.3), h=quadratic_smooth(b),
                       g=catalog_prox("zero", n), L=identity_op(n))
    params = {"tau": 0.7, "sigma": 0.4, "lam": 0.9, "b": b}
    return cp, params


def condat_problem():
    """Two-block problem with no offsets and degenerate ell terms."""
    rng = np.random.default_rng(202)
    n = 8
    b = rng.standard_normal(n)
    mat = 0.4 * rng.standard_normal((5, n))
    layout = SpaceLayout(n, (n - 1, 5), (0.6, 0.4))
    cp = ConvexProblem(
        layout=layout,
        f=catalog_prox("l1", n, weight=0.2),
        h=quadratic_smooth(b),
        z=np.zeros(n),
        blocks=(
            ConvexBlock(g=catalog_prox("l1", n - 1, weight=0.3),
                        ell=dirac_term(n - 1), L=diff1d_op(n), r=np.zeros(n - 1)),
            ConvexBlock(g=catalog_prox("l2", 5, weight=0.4),
                        ell=dirac_term(5), L=matrix_op(mat), r=np.zeros(5)),
        ),
    )
    params = {"lam": 0.85, "safety": 0.9, "b": b}
    return cp, params


def cp_problem():
    """Single-block problem with no smooth term (unit relaxation)."""
    rng = np.random.default_rng(303)
    n = 12
    b = 1.5 * rng.standard_normal(n)
    cp = _single_block(f=catalog_prox("sq_l2", n, weight=1.0, center=b),
                       h=zero_smooth(n), g=catalog_prox("l1", n - 1, weight=0.4),
                       L=diff1d_op(n))
    params = {"safety": 0.95, "b": b}
    return cp, params


def tv1d_problem():
    """Total-variation denoising of a noisy piecewise-constant signal."""
    rng = np.random.default_rng(404)
    n = 50
    base = np.repeat([1.0, -0.5, 2.0, 0.0, 1.2], n // 5)
    b = base + 0.25 * rng.standard_normal(n)
    weight = 0.4
    cp = _single_block(f=catalog_prox("zero", n), h=quadratic_smooth(b),
                       g=catalog_prox("l1", n - 1, weight=weight), L=diff1d_op(n))
    params = {"weight": weight, "b": b, "alpha": 0.0}
    return cp, params


def fused_lasso_problem():
    """Fused lasso: sparsity plus difference sparsity on 10 points."""
    rng = np.random.default_rng(505)
    n = 10
    b = 2.0 * rng.standard_normal(n)
    alpha, weight = 0.2, 0.5
    cp = _single_block(f=catalog_prox("l1", n, weight=alpha), h=quadratic_smooth(b),
                       g=catalog_prox("l1", n - 1, weight=weight), L=diff1d_op(n))
    params = {"alpha": alpha, "weight": weight, "b": b}
    return cp, params


def huber_tv_problem():
    """Strongly convex instance: quadratic data term and smoothed TV.

    The quadratic ell makes the dual objective strongly convex as well,
    so both the primal and dual iterates converge in norm to the unique
    solution pair.
    """
    rng = np.random.default_rng(606)
    n = 10
    b = 1.5 * rng.standard_normal(n)
    alpha, weight, nu = 0.1, 0.5, 2.0
    cp = _single_block(f=catalog_prox("l1", n, weight=alpha), h=quadratic_smooth(b),
                       g=catalog_prox("l1", n - 1, weight=weight), L=diff1d_op(n),
                       ell=quadratic_term(n - 1, nu=nu))
    params = {"alpha": alpha, "weight": weight, "nu": nu, "b": b}
    return cp, params


def intersection_problem():
    """Weighted projection of a target onto an intersection of boxes.

    Because indicator terms of overlapping boxes sum to the indicator of
    their intersection, the unique solution is the componentwise clamp
    of the target onto the intersection box.
    """
    rng = np.random.default_rng(707)
    n = 6
    m = 3
    los = [rng.uniform(-1.5, -0.2, n) for _ in range(m)]
    his = [rng.uniform(0.3, 1.6, n) for _ in range(m)]
    target = 2.0 * rng.standard_normal(n)
    layout = SpaceLayout(n, (n,) * m, (0.5, 0.3, 0.2))
    cp = ConvexProblem(
        layout=layout,
        f=catalog_prox("zero", n),
        h=quadratic_smooth(target),
        z=np.zeros(n),
        blocks=tuple(
            ConvexBlock(g=catalog_prox("box", n, lo=lo, hi=hi),
                        ell=dirac_term(n), L=identity_op(n), r=np.zeros(n))
            for lo, hi in zip(los, his)
        ),
    )
    lo_cap = np.max(np.vstack(los), axis=0)
    hi_cap = np.min(np.vstack(his), axis=0)
    oracle = np.clip(target, lo_cap, hi_cap)
    params = {"target": target, "oracle": oracle, "los": los, "his": his}
    return cp, params


# ---------------------------------------------------------------------------
# exact optimality certificates


def tv_certificate_violation(b, weight, x) -> float:
    """Worst violation of the optimality system of
    min 0.5||x-b||^2 + weight ||Dx||_1 at the candidate x.

    The multiplier is forced by stationarity (cumulative sums), so the
    check is exact: the multiplier must stay inside [-weight, weight]
    and sit on the correct bound wherever the difference is active.
    """
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    u = np.cumsum(x - b)[:-1]
    worst = abs(float(np.sum(x - b)))
    worst = max(worst, float(np.max(np.abs(u) - weight, initial=0.0)))
    d = x[1:] - x[:-1]
    active = np.abs(d) > 1e-6 * (1.0 + np.max(np.abs(x)))
    if np.any(active):
        worst = max(worst, float(np.max(np.abs(u[active] - weight * np.sign(d[active])))))
    return worst


def _stacked(refs, shape, block):
    """The reference iterates ``refs`` stacked into one array (``np.array``
    of the list, the same array as ``np.stack`` in a third of its time);
    an iterate whose shape is not ``shape`` is refused by its index and
    ``block``."""
    try:
        out = np.array(refs)
    except ValueError:
        out = None
    if out is None or out.shape[1:] != shape:
        for k, ref in enumerate(refs):
            if np.shape(ref) != shape:
                raise ValueError(f"reference iterate {k}: {block} has shape "
                                 f"{np.shape(ref)}, expected {shape}")
    return out


def max_state_deviation(states, xs, vs=None) -> float:
    """Largest componentwise gap between recorded states and reference
    iterate lists: ``xs[k]`` against ``states[k].x`` and, when ``vs`` is
    given, each ``vs[k][i]`` against ``states[k].v[i]``.

    The flat arrays ``u`` of the states are stacked once (a run's
    recorded states are read as arrays, without building an
    ``IterState``), each block (x, then each v_i) of the references is
    stacked once and subtracted from its columns, and the whole
    trajectory is compared in one pass, with the same value as comparing
    iterate by iterate (subtraction rounds entry by entry; abs and max
    are exact).  A ``tol = 0`` run stops when it lands on an exact fixed
    point, where every later iterate equals its last state; that final
    state is then compared against each remaining reference iterate as
    well, so the check always covers the whole reference list.  An
    empty ``xs`` gives 0.0.

    A NaN in any difference (a NaN reference entry, or inf - inf) gives
    ``inf``, so a non-finite reference never passes a bound.  A ``vs``
    whose length differs from ``xs``, an iterate with the wrong number
    of dual blocks and a ragged iterate are refused with a
    ``ValueError`` that names the iterate and the block.
    """
    if not len(xs):
        return 0.0
    first = states[0]
    rows = ([row[0] for row in states.rows] if isinstance(states, _States)
            else [st.u for st in states])
    last = len(rows) - 1
    got = np.array([rows[min(k, last)] for k in range(len(xs))])
    n = first.x.size
    blocks = [("x", slice(0, n), xs)]
    if vs is not None:
        m = len(first.v)
        if len(vs) != len(xs):
            raise ValueError(f"vs has {len(vs)} iterates but xs has {len(xs)}")
        for k, vk in enumerate(vs):
            if len(vk) != m:
                raise ValueError(f"reference iterate {k} has {len(vk)} dual "
                                 f"blocks, expected {m}")
        for i, vi in enumerate(first.v):
            blocks.append((f"v[{i}]", slice(n, n + vi.size), [vk[i] for vk in vs]))
            n += vi.size
    diff = got[:, :n]
    with np.errstate(invalid="ignore"):  # inf - inf is caught as NaN below
        for block, cols, refs in blocks:
            part = diff[:, cols]
            np.subtract(part, _stacked(refs, part.shape[1:], block), out=part)
        worst = float(np.max(np.abs(diff, out=diff), initial=0.0))
    return math.inf if math.isnan(worst) else worst


# ---------------------------------------------------------------------------
# frozen long-run reference values (regenerate with scripts/make_references.py;
# each value is validated there against an exact optimality certificate and,
# when installed, against cvxpy)

REFERENCES: dict = {
    "tv1d": {
        "objective": 3.912961189061881,
    },
    "fusedlasso": {
        "objective": 11.169611239341558,
        "x": (1.8436763586124965, -1.3044789261633278, 0.0,
              -2.0567854109270334, -0.27773242533886133,
              -0.19793444043299066, 0.10638578683511604,
              -0.10507088802324036, 0.1499984235114952,
              -1.1861752735907942),
        "tv_stage_x": (2.0436763586124966, -1.5044789261633276,
                       -0.1558218184617319, -2.2567854109270331,
                       -0.47773242533886123, -0.39793444043299064,
                       0.30638578683511614, -0.30507088802324034,
                       0.34999842351149529, -1.3861752735907942),
    },
    "hubertv": {
        "objective": 6.2994658457553339,
        "x": (0.7895211600780051, 1.3320129028882608, 1.0145976471445615,
              1.0545965859463333, 0.94327622978068471, 0.80150283881311357,
              -1.0257408809194426, 0.86485357610838842, 0.6847777182336946,
              -1.4068557355353013),
        "v": (0.49999999999999994, -0.5, 0.07999787760354353,
              -0.2226407123312972, -0.28354678193514238, -0.5,
              0.49999999999999989, -0.36015171574938776, -0.5),
    },
}


# ---------------------------------------------------------------------------
# suite drivers


def _solve_tight(cp, tol=1e-13, max_iter=400_000, errors=None):
    return solve_convex(cp, stop=StoppingRule(tol=tol, max_iter=max_iter), errors=errors)


def _suite_fb_reduction() -> BenchOutcome:
    cp, params = fb_problem()
    spec = cp.spec
    cfg = validate_steps(spec, params["tau"], (params["sigma"],), lam=params["lam"])
    iters = 1000
    report = run(spec, cfg, stop=StoppingRule(tol=0.0, max_iter=iters),
                 record_states=True)
    xs = forward_backward_reference(
        cp.f.prox, cp.h.gradient, params["tau"], params["lam"],
        np.zeros(cp.layout.dim_primal), iters,
    )
    dev = max_state_deviation(report.states, xs)
    checks = [BenchCheck("max deviation vs forward-backward", dev, 1e-12,
                         dev <= 1e-12)]
    return BenchOutcome("fb-reduction", checks, {"fb-reduction": report})


def _suite_condat_reduction() -> BenchOutcome:
    cp, params = condat_problem()
    spec = cp.spec
    cfg = replace(suggest_steps(spec, safety=params["safety"], lam=params["lam"]), balance=None)
    iters = 1000
    report = run(spec, cfg, stop=StoppingRule(tol=0.0, max_iter=iters),
                 record_states=True)
    xs, vs = condat_reference(
        cp.f.prox, cp.h.gradient, [blk.g.prox for blk in cp.blocks],
        [blk.L for blk in cp.blocks], cp.layout.weights,
        cfg.tau, cfg.sigmas[0], params["lam"],
        np.zeros(cp.layout.dim_primal),
        [np.zeros(d) for d in cp.layout.dual_dims], iters,
    )
    dev = max_state_deviation(report.states, xs, vs)
    checks = [BenchCheck("max deviation vs common-step primal-dual recursion",
                         dev, 1e-12, dev <= 1e-12)]

    cp2, params2 = cp_problem()
    spec2 = cp2.spec
    cfg2 = replace(suggest_steps(spec2, safety=params2["safety"]), balance=None)
    report2 = run(spec2, cfg2, stop=StoppingRule(tol=0.0, max_iter=iters),
                  record_states=True)
    xs2, vs2 = chambolle_pock_reference(
        cp2.f.prox, cp2.blocks[0].g.prox, cp2.blocks[0].L,
        cfg2.tau, cfg2.sigmas[0],
        np.zeros(cp2.layout.dim_primal), np.zeros(cp2.layout.dual_dims[0]),
        iters,
    )
    dev2 = max_state_deviation(report2.states, xs2, [[v] for v in vs2])
    checks.append(BenchCheck("max deviation vs two-step primal-dual recursion",
                             dev2, 1e-12, dev2 <= 1e-12))
    return BenchOutcome("condat-reduction", checks,
                        {"condat-reduction": report, "two-step-reduction": report2})


def _suite_tv1d() -> BenchOutcome:
    cp, params = tv1d_problem()
    report, gap = _solve_tight(cp)
    ref = REFERENCES["tv1d"]
    rel = abs(gap.primal_value - ref["objective"]) / abs(ref["objective"])
    cert = tv_certificate_violation(params["b"], params["weight"],
                                    report.final_state.x)
    checks = [
        BenchCheck("objective relative error vs long-run reference", rel,
                   1e-6, rel <= 1e-6),
        BenchCheck("kkt residual", gap.kkt_residual, 1e-8,
                   gap.kkt_residual <= 1e-8),
        BenchCheck("duality gap", abs(gap.gap), 1e-6, abs(gap.gap) <= 1e-6),
        BenchCheck("optimality-certificate violation", cert, 1e-7,
                   cert <= 1e-7),
    ]
    return BenchOutcome("tv1d", checks, {"tv1d": report})


def _suite_fusedlasso() -> BenchOutcome:
    cp, params = fused_lasso_problem()
    report, gap = _solve_tight(cp)
    ref = REFERENCES["fusedlasso"]
    rel = abs(gap.primal_value - ref["objective"]) / abs(ref["objective"])
    x_ref = np.asarray(ref["x"])
    dev = float(np.max(np.abs(report.final_state.x - x_ref)))
    checks = [
        BenchCheck("objective relative error vs long-run reference", rel,
                   1e-6, rel <= 1e-6),
        BenchCheck("kkt residual", gap.kkt_residual, 1e-8,
                   gap.kkt_residual <= 1e-8),
        BenchCheck("duality gap", abs(gap.gap), 1e-6, abs(gap.gap) <= 1e-6),
        BenchCheck("solution deviation vs long-run reference", dev, 1e-6,
                   dev <= 1e-6),
    ]
    noisy, _ = _solve_tight(
        cp, errors=geometric_errors(cp.layout, amplitude=0.1, decay=0.9, seed=9),
    )
    rob = float(np.max(np.abs(noisy.final_state.x - report.final_state.x)))
    checks.append(BenchCheck("solution shift under summable injected errors",
                             rob, 1e-6, rob <= 1e-6))
    return BenchOutcome("fusedlasso", checks,
                        {"fusedlasso": report, "fusedlasso-errors": noisy})


def _suite_intersection() -> BenchOutcome:
    cp, params = intersection_problem()
    report, gap = _solve_tight(cp)
    dev = float(np.max(np.abs(report.final_state.x - params["oracle"])))
    checks = [
        BenchCheck("deviation vs closed-form projection", dev, 1e-6,
                   dev <= 1e-6),
        BenchCheck("kkt residual", gap.kkt_residual, 1e-8,
                   gap.kkt_residual <= 1e-8),
    ]
    return BenchOutcome("project-intersection", checks,
                        {"project-intersection": report})


_SUITES = {
    "tv1d": _suite_tv1d,
    "fusedlasso": _suite_fusedlasso,
    "project-intersection": _suite_intersection,
    "fb-reduction": _suite_fb_reduction,
    "condat-reduction": _suite_condat_reduction,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str) -> BenchOutcome:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    return _SUITES[name]()
