"""The planned gap and KKT evaluation against the plain formulas, bit for bit.

``gap_reference`` holds the formulas as they were evaluated before the
plan skipped their no-op passes.  Every case compares ``repr`` of the
primal and dual values, the gap and the KKT residual, and the notes:
the public functions, and a plan built once per problem and fed the
weighted sum as :func:`splitsolve.solver.run` hands it to the hooks.
"""

import itertools
import math

import numpy as np
import pytest

import splitsolve as ss
from splitsolve.convex import _GapPlan
from splitsolve.operators import CATALOG_KINDS
from splitsolve.solver import _adjoint_sum

from gap_reference import reference_gap, reference_kkt

N = 6
KINDS = sorted(CATALOG_KINDS)
H_CASES = {
    "sq_l2 weight 1": lambda rng: ss.quadratic_smooth(rng.standard_normal(N), weight=1.0),
    "sq_l2 weight 2.5": lambda rng: ss.quadratic_smooth(rng.standard_normal(N), weight=2.5),
    "zero": lambda rng: ss.zero_smooth(N),
    # a finite mu lowers to a "custom" C, which the update applies (it
    # returns +0), though h's kind is still "zero"
    "zero mu 2": lambda rng: ss.zero_smooth(N, mu=2.0),
}
OFFSETS = ("vanishing", "signed zeros", "nonzero")
WEIGHTS = ((1.0,), (0.7, 0.3))


def catalog(kind, dim, rng):
    params = {
        "sq_l2": {"weight": 0.8, "center": rng.standard_normal(dim)},
        "l1": {"weight": 0.5},
        # one open side, so that the box's conjugate value meets -inf bounds
        "box": {"lo": np.r_[-math.inf, np.full(dim - 1, -1.0)], "hi": 1.0},
        "point": {"point": rng.standard_normal(dim)},
        "zero": {},
        "linear": {"a": 0.2 * rng.standard_normal(dim)},
        "l2": {"weight": 0.7},
    }[kind]
    return ss.catalog_prox(kind, dim, **params)


def offset(kind, dim, rng):
    if kind == "vanishing":
        return np.zeros(dim)
    out = np.zeros(dim) if kind == "signed zeros" else 0.3 * rng.standard_normal(dim)
    out[::2] = -0.0
    return out


def problem(f_kind, h_case, ell_kind, offsets, weights):
    """A problem with the given f, h, ell and offsets; block 0 couples
    through ``diff1d``, block 1 (when there are two) through a dense
    matrix, and the g kinds cycle with f's so that each kind occurs."""
    rng = np.random.default_rng(KINDS.index(f_kind) + 7 * len(weights))
    h = H_CASES[h_case](rng)
    ops = [ss.diff1d_op(N), ss.matrix_op(rng.standard_normal((N, N)))]
    blocks = []
    for i, w in enumerate(weights):
        L = ops[i]
        g_kind = KINDS[(KINDS.index(f_kind) + 1 + 2 * i) % len(KINDS)]
        ell = (ss.dirac_term(L.out_dim) if ell_kind == "dirac"
               else ss.quadratic_term(L.out_dim, nu=2.0))
        blocks.append(ss.ConvexBlock(g=catalog(g_kind, L.out_dim, rng), ell=ell, L=L,
                                     r=offset(offsets, L.out_dim, rng)))
    return ss.ConvexProblem(
        layout=ss.SpaceLayout(N, tuple(blk.L.out_dim for blk in blocks), weights),
        f=catalog(f_kind, N, rng), h=h, z=offset(offsets, N, rng), blocks=tuple(blocks))


def points(cp, seed=0):
    """Random, zero, signed-zero, overflowing, infinite and NaN points,
    and one the solver reached."""
    rng = np.random.default_rng(seed)
    dims = cp.layout.dual_dims
    out = [
        (rng.standard_normal(N), [rng.standard_normal(d) for d in dims]),
        # inside the catalog's conjugate balls: finite conjugate values
        (rng.standard_normal(N), [0.05 * rng.standard_normal(d) for d in dims]),
        (np.zeros(N), [np.zeros(d) for d in dims]),
        (np.full(N, -0.0), [np.full(d, -0.0) for d in dims]),
        (np.full(N, 1e307) * (-1.0) ** np.arange(N), [np.full(d, -1e307) for d in dims]),
        (rng.standard_normal(N), [np.full(d, 1e150) for d in dims]),
    ]
    for bad in (math.inf, -math.inf, math.nan):
        x, v = rng.standard_normal(N), [0.05 * rng.standard_normal(d) for d in dims]
        x[1] = bad
        out.append((x, v))
        x, v = rng.standard_normal(N), [0.05 * rng.standard_normal(d) for d in dims]
        v[-1][0] = bad
        out.append((x, v))
    spec = cp.spec
    report = ss.run(spec, ss.suggest_steps(spec), stop=ss.StoppingRule(tol=1e-9, max_iter=300))
    out.append((report.final_state.x, report.final_state.v))
    return out


def reprs(rep):
    return (repr(rep.primal_value), repr(rep.dual_value), repr(rep.gap),
            repr(rep.kkt_residual), rep.notes)


def assert_matches_reference(cp, tau, sigmas, pts):
    # one plan per problem, fed states in turn as the hooks are
    plan = _GapPlan(cp, tau, (1.0,) * len(cp.blocks) if sigmas is None else sigmas)
    n = cp.layout.dim_primal
    adjoints = tuple(zip((blk.L.adjoint_apply for blk in cp.blocks), cp.layout.weights))
    for x, v in pts:
        want = reference_gap(cp, x, v, tau=tau, sigmas=sigmas)
        want_kkt = reference_kkt(cp, x, v, tau=tau, sigmas=sigmas)
        assert repr(want.kkt_residual) == repr(want_kkt)
        assert reprs(ss.evaluate_gap(cp, x, v, tau=tau, sigmas=sigmas)) == reprs(want)
        assert repr(ss.kkt_residual(cp, x, v, tau=tau, sigmas=sigmas)) == repr(want_kkt)
        with np.errstate(over="ignore", invalid="ignore"):
            wsum = _adjoint_sum(adjoints, v, np.empty(n), np.empty(n))
            assert reprs(plan.gap(x, v, wsum)) == reprs(want)
            assert repr(plan.kkt(x, v, wsum)) == repr(want_kkt)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("weights", WEIGHTS, ids=["one block", "two blocks"])
@pytest.mark.parametrize("offsets", OFFSETS)
@pytest.mark.parametrize("ell_kind", ["dirac", "quadratic"])
@pytest.mark.parametrize("h_case", list(H_CASES))
@pytest.mark.parametrize("f_kind", KINDS)
def test_catalog_matches_reference(f_kind, h_case, ell_kind, offsets, weights):
    cp = problem(f_kind, h_case, ell_kind, offsets, weights)
    sigmas = (0.61, 1.3)[:len(weights)]
    assert_matches_reference(cp, 0.37, sigmas, points(cp))


def custom_variants(cp):
    """The problem with a user h, a user ell, or a user g: the notes
    paths, and the terms the plan may not drop for a custom kind."""
    blk = cp.blocks[0]
    h = cp.h
    d = blk.L.out_dim
    yield ss.ConvexProblem(
        layout=cp.layout, f=cp.f, z=cp.z, blocks=cp.blocks,
        h=ss.SmoothTerm(h.dim, h.value, h.gradient, h.lipschitz_inv))
    ell = ss.StronglyConvexTerm(d, lambda v: v / 3.0, 3.0)
    yield ss.ConvexProblem(
        layout=cp.layout, f=cp.f, h=h, z=cp.z,
        blocks=(ss.ConvexBlock(blk.g, ell, blk.L, blk.r),) + cp.blocks[1:])
    g = ss.ProxFunction(d, blk.g.evaluate, blk.g.prox,
                        conjugate_value=blk.g.conjugate_value)
    yield ss.ConvexProblem(
        layout=cp.layout, f=cp.f, h=h, z=cp.z,
        blocks=(ss.ConvexBlock(g, blk.ell, blk.L, blk.r),) + cp.blocks[1:])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("f_kind, offsets", list(itertools.product(
    ["zero", "box", "l1"], OFFSETS)))
def test_custom_terms_match_reference(f_kind, offsets):
    cp = problem(f_kind, "sq_l2 weight 1", "dirac", offsets, WEIGHTS[1])
    pts = points(cp)
    for variant in custom_variants(cp):
        assert_matches_reference(variant, 1.0, None, pts)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_default_steps_and_unit_weights_match_reference():
    # tau = sigma = 1 multiplies by one; the public defaults take that path
    for f_kind in KINDS:
        cp = problem(f_kind, "sq_l2 weight 1", "dirac", "vanishing", WEIGHTS[0])
        assert_matches_reference(cp, 1.0, None, points(cp, seed=4))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_f_envelope_overflow_matches_reference():
    # with a tiny sq_l2 weight c, b + u / c overflows at a finite u whose
    # norm is far below overflow; the envelope is then NaN, not 0.0
    rng = np.random.default_rng(2)
    cp = ss.ConvexProblem(
        layout=ss.SpaceLayout(N, (N - 1,), (1.0,)),
        f=ss.catalog_prox("zero", N),
        h=ss.quadratic_smooth(rng.standard_normal(N), weight=1e-160),
        z=np.zeros(N),
        blocks=(ss.ConvexBlock(g=ss.catalog_prox("l1", N - 1, weight=0.5),
                               ell=ss.dirac_term(N - 1), L=ss.diff1d_op(N),
                               r=np.zeros(N - 1)),))
    pts = [(rng.standard_normal(N), [np.full(N - 1, scale)]) for scale in (1e-3, 1e150)]
    assert math.isnan(reference_gap(cp, *pts[1]).dual_value)
    assert_matches_reference(cp, 0.37, (0.61,), pts)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_user_conjugate_proves_nothing_about_v():
    # a user g* that is finite everywhere says nothing about v, so the
    # vanishing r's dot stays: it is NaN at an infinite v_i that L^T
    # drops, which leaves the rest of the dual value finite
    pad = ss.LinearOp(N, N + 1, lambda x: np.r_[x, 0.0], lambda y: y[:-1].copy(),
                      norm_hint=1.0)
    g = ss.ProxFunction(N + 1, lambda w: 0.0, lambda gamma, w: w,
                        conjugate_value=lambda u: 0.0)
    cp = ss.ConvexProblem(
        layout=ss.SpaceLayout(N, (N + 1,), (1.0,)),
        f=ss.catalog_prox("zero", N), h=ss.quadratic_smooth(np.ones(N)), z=np.zeros(N),
        blocks=(ss.ConvexBlock(g=g, ell=ss.dirac_term(N + 1), L=pad,
                               r=np.zeros(N + 1)),))
    v = np.zeros(N + 1)
    v[-1] = math.inf
    pts = [(np.ones(N), [v])]
    assert math.isnan(reference_gap(cp, *pts[0]).dual_value)
    assert_matches_reference(cp, 1.0, None, pts)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_signed_zero_dual_matches_reference():
    # in one dimension the point conjugate <p, u> reads -0 at u = 0 for a
    # negative p, and a user ell* may read -0 too; the vanishing r's dot
    # then turns g* + ell* = -0 into +0, so it is not dropped for a user ell
    minus = np.array([-1.0])
    ell = ss.StronglyConvexTerm(1, lambda v: v / 3.0, 3.0, conj_value=lambda v: -0.0)
    cp = ss.ConvexProblem(
        layout=ss.SpaceLayout(1, (1,), (1.0,)),
        f=ss.catalog_prox("point", 1, point=minus), h=ss.zero_smooth(1), z=np.zeros(1),
        blocks=(ss.ConvexBlock(g=ss.catalog_prox("point", 1, point=minus), ell=ell,
                               L=ss.identity_op(1), r=np.zeros(1)),))
    pts = [(np.zeros(1), [np.zeros(1)])]
    assert repr(cp.f.conjugate_value(np.zeros(1))) == "-0.0"
    assert repr(reference_gap(cp, *pts[0]).dual_value) == "0.0"
    assert_matches_reference(cp, 1.0, None, pts)


@pytest.mark.parametrize("f_kind, h_case, ell_kind, weights", [
    ("zero", "sq_l2 weight 1", "dirac", WEIGHTS[0]),
    ("box", "sq_l2 weight 2.5", "quadratic", WEIGHTS[1]),
    ("sq_l2", "zero", "dirac", WEIGHTS[1]),
])
def test_solve_convex_rows_and_kkt_stop_match_reference(f_kind, h_case, ell_kind, weights):
    # the hooks' rows and the kkt_tol rule's stop iteration and value are
    # those of the plain formulas at the recorded states
    cp = problem(f_kind, h_case, ell_kind, "nonzero", weights)
    cfg = ss.suggest_steps(cp.spec)
    kkt_tol = 1e-7
    report, gap = ss.solve_convex(cp, cfg=cfg, stop=ss.StoppingRule(tol=0.0, max_iter=3000),
                                  kkt_tol=kkt_tol, record_objective=True,
                                  record_states=True)
    assert report.stop.rule == "kkt_tol"
    kkts = [reference_kkt(cp, st.x, st.v, tau=cfg.tau, sigmas=cfg.sigmas)
            for st in report.states[1:]]
    assert all(k > kkt_tol for k in kkts[:-1])
    assert repr(report.stop.value) == repr(kkts[-1])
    for rec in report.history:
        if rec.primal_obj is None and rec.kkt is None:
            continue
        st = report.states[rec.iter]
        want = reference_gap(cp, st.x, st.v, tau=cfg.tau, sigmas=cfg.sigmas)
        assert (repr(rec.primal_obj), repr(rec.dual_obj), repr(rec.gap),
                repr(rec.kkt)) == reprs(want)[:4]
    assert reprs(gap) == reprs(reference_gap(cp, report.final_state.x, report.final_state.v,
                                             tau=cfg.tau, sigmas=cfg.sigmas))
