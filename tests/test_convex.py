import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitsolve as ss
import splitsolve.convex
from splitsolve.benchmarks import (
    chambolle_pock_reference,
    condat_problem,
    condat_reference,
    cp_problem,
    fb_problem,
    forward_backward_reference,
    fused_lasso_problem,
    max_state_deviation,
    tv1d_problem,
)
from splitsolve.convex import OBJECTIVE_STRIDE, check_gradient
from splitsolve.reporting import format_run_csv

from conftest import assert_same_bits


def lasso_1d():
    """minimize 0.5 (x - 4)^2 + |x|; the solution is x = 3."""
    layout = ss.SpaceLayout(1, (1,), (1.0,))
    return ss.ConvexProblem(
        layout=layout,
        f=ss.catalog_prox("zero", 1),
        h=ss.quadratic_smooth(np.array([4.0])),
        z=np.zeros(1),
        blocks=(ss.ConvexBlock(
            g=ss.catalog_prox("l1", 1, weight=1.0),
            ell=ss.dirac_term(1),
            L=ss.identity_op(1),
            r=np.zeros(1),
        ),),
    )


class TestLowering:
    def test_l1_plus_quadratic_correspondences(self, rng):
        b = rng.standard_normal(5)
        layout = ss.SpaceLayout(5, (5,), (1.0,))
        cp = ss.ConvexProblem(
            layout=layout,
            f=ss.catalog_prox("l1", 5, weight=0.4),
            h=ss.quadratic_smooth(b),
            z=np.zeros(5),
            blocks=(ss.ConvexBlock(
                g=ss.catalog_prox("zero", 5), ell=ss.dirac_term(5),
                L=ss.identity_op(5), r=np.zeros(5)),),
        )
        spec = cp.spec
        w = rng.standard_normal(5)
        soft = np.sign(w) * np.maximum(np.abs(w) - 0.7 * 0.4, 0.0)
        np.testing.assert_array_equal(spec.A.resolvent(0.7, w), soft)
        np.testing.assert_array_equal(spec.C.apply(w), w - b)
        assert spec.C.constant == 1.0

    def test_dirac_ell_lowers_to_zero_map(self):
        cp = lasso_1d()
        spec = cp.spec
        blk = spec.blocks[0]
        assert math.isinf(blk.Dinv.constant)
        assert np.all(blk.Dinv.apply(np.array([3.0])) == 0.0)

    @pytest.mark.parametrize("h, ell, skipped", [
        (ss.zero_smooth(3), ss.dirac_term(3), (True, True)),
        (ss.zero_smooth(3, mu=2.0), ss.quadratic_term(3, nu=2.0), (True, False)),
        (ss.quadratic_smooth(np.ones(3)), ss.dirac_term(3), (False, True)),
    ], ids=["zero-dirac", "finite-mu-quadratic", "quadratic-dirac"])
    def test_zero_maps_lower_to_zero_kind(self, h, ell, skipped):
        # the kernel skips the library's exact zero; zero_smooth with a
        # finite mu is skipped too, and keeps its constant in the step bound
        cp = ss.ConvexProblem(
            layout=ss.SpaceLayout(3, (3,), (1.0,)),
            f=ss.catalog_prox("sq_l2", 3), h=h, z=np.zeros(3),
            blocks=(ss.ConvexBlock(g=ss.catalog_prox("l1", 3), ell=ell,
                                   L=ss.identity_op(3), r=np.zeros(3)),),
        )
        spec = cp.spec
        ws = ss.solver._Workspace(spec, 1.0, (1.0,))
        assert (ws.C is None, ws.blocks[0][1] is None) == skipped
        assert (spec.C.constant, spec.blocks[0].Dinv.constant) == (h.lipschitz_inv, ell.nu)

    def test_quadratic_ell_lowers_to_scaled_identity(self, rng):
        term = ss.quadratic_term(4, nu=2.5)
        v = rng.standard_normal(4)
        np.testing.assert_allclose(term.conj_gradient(v), v / 2.5)
        assert term.nu == 2.5

    def test_gradient_check_rejects_wrong_gradient(self):
        bad = ss.SmoothTerm(
            dim=3,
            value=lambda x: 0.5 * float(np.dot(x, x)),
            gradient=lambda x: 1.5 * x,  # wrong scale
            lipschitz_inv=1.0,
        )
        with pytest.raises(ValueError, match="finite-difference"):
            check_gradient(bad)

    def test_gradient_check_passes_catalog(self):
        h = ss.quadratic_smooth(np.arange(4.0), weight=2.0)
        assert check_gradient(h) <= 1e-5

    @pytest.mark.parametrize("dim", [1, 7, 50])
    def test_catalog_gradients_pass_the_check(self, dim, rng):
        # ConvexProblem trusts these kinds and skips the check
        terms = [ss.zero_smooth(dim)]
        for weight in (0.25, 1.0, 3.5):
            terms.append(ss.quadratic_smooth(-1.5, weight=weight, dim=dim))
            terms.append(ss.quadratic_smooth(rng.standard_normal(dim), weight=weight))
        for h in terms:
            assert check_gradient(h) <= 1e-5

    def test_quadratic_smooth_dim_must_fit_a_vector_center(self):
        # used to build a term of dim 2, the center's length
        with pytest.raises(ss.ShapeMismatchError,
                           match=r"^center must be a vector of length 3, got shape \(2,\)$"):
            ss.quadratic_smooth([1.0, 2.0], dim=3)
        with pytest.raises(ValueError, match="^dim is required for a scalar center$"):
            ss.quadratic_smooth(1.0)
        with pytest.raises(ValueError, match=r"^dim must be an integer >= 1, got 0$"):
            ss.quadratic_smooth(1.0, dim=0)
        assert ss.quadratic_smooth([1.0, 2.0], dim=2).dim == 2
        assert_same_bits(ss.quadratic_smooth(1.5, dim=3).params["center"], np.full(3, 1.5))

    @staticmethod
    def wrong_gradient_term():
        return ss.SmoothTerm(
            dim=1,
            value=lambda x: 0.5 * float(np.dot(x - 4.0, x - 4.0)),
            gradient=lambda x: 1.5 * (x - 4.0),  # wrong scale
            lipschitz_inv=1.0,
        )

    def test_lowering_rejects_wrong_custom_gradient(self):
        # the problem is lowered, and its custom h checked, when it is built
        cp = lasso_1d()
        with pytest.raises(ValueError, match="finite-difference"):
            ss.ConvexProblem(layout=cp.layout, f=cp.f, h=self.wrong_gradient_term(),
                             z=cp.z, blocks=cp.blocks)

    def test_solve_rejects_wrong_custom_gradient(self):
        # dataclasses.replace builds again, so no problem that reaches a
        # solve holds an unchecked custom h
        with pytest.raises(ValueError, match="finite-difference"):
            ss.solve_convex(dataclasses.replace(lasso_1d(), h=self.wrong_gradient_term()))

    def test_custom_gradient_checked_and_lowered_once_per_problem(self, monkeypatch):
        # building runs the check and the lowering; solving the problem
        # and evaluating its gap and KKT residual repeat neither
        base = lasso_1d()
        checks, specs = [], []
        check = splitsolve.convex.check_gradient
        post_init = ss.ProblemSpec.__post_init__

        def counted_check(h, *args, **kwargs):
            checks.append(1)
            return check(h, *args, **kwargs)

        def counted_post_init(spec):
            specs.append(1)
            post_init(spec)

        monkeypatch.setattr(splitsolve.convex, "check_gradient", counted_check)
        monkeypatch.setattr(ss.ProblemSpec, "__post_init__", counted_post_init)
        h = ss.SmoothTerm(dim=1, value=lambda x: 0.5 * float(np.dot(x - 4.0, x - 4.0)),
                          gradient=lambda x: x - 4.0, lipschitz_inv=1.0)
        cp = dataclasses.replace(base, h=h)
        assert (len(checks), len(specs)) == (1, 1)
        report, _ = ss.solve_convex(cp, stop=ss.StoppingRule(tol=0.0, max_iter=12),
                                    record_objective=True, kkt_tol=1e-30)
        x, v = report.final_state.x, report.final_state.v
        ss.evaluate_gap(cp, x, v, tau=0.5)
        ss.kkt_residual(cp, x, v, tau=0.5)
        assert (len(checks), len(specs)) == (1, 1)

    def test_spec_is_derived_not_passed(self):
        cp = lasso_1d()
        assert isinstance(cp.spec, ss.ProblemSpec)
        assert cp.spec.layout is cp.layout and cp.spec.z is cp.z
        with pytest.raises(TypeError):
            ss.ConvexProblem(layout=cp.layout, f=cp.f, h=cp.h, z=cp.z,
                             blocks=cp.blocks, spec=cp.spec)
        cp2 = dataclasses.replace(cp, z=np.full(1, 0.5))
        assert cp2.spec is not cp.spec
        np.testing.assert_array_equal(cp2.spec.z, np.full(1, 0.5))


class TestSolveConvex:
    def test_lasso_1d_solution(self):
        report, gap = ss.solve_convex(lasso_1d(), stop=ss.StoppingRule(tol=1e-13))
        assert report.termination == "converged"
        assert report.final_state.x[0] == pytest.approx(3.0, abs=1e-6)
        assert gap.kkt_residual <= 1e-8
        assert abs(gap.gap) <= 1e-8

    def test_point_indicator_pins_solution(self, rng):
        b = rng.standard_normal(4)
        layout = ss.SpaceLayout(4, (4,), (1.0,))
        cp = ss.ConvexProblem(
            layout=layout,
            f=ss.catalog_prox("point", 4, point=b),
            h=ss.quadratic_smooth(np.zeros(4)),
            z=np.zeros(4),
            blocks=(ss.ConvexBlock(
                g=ss.catalog_prox("zero", 4), ell=ss.dirac_term(4),
                L=ss.identity_op(4), r=np.zeros(4)),),
        )
        report, _ = ss.solve_convex(cp, stop=ss.StoppingRule(tol=1e-12, max_iter=2000))
        np.testing.assert_allclose(report.final_state.x, b, atol=1e-10)

    def test_fused_lasso_matches_reference(self):
        from splitsolve.benchmarks import REFERENCES
        cp, _ = fused_lasso_problem()
        report, gap = ss.solve_convex(cp, stop=ss.StoppingRule(tol=1e-13,
                                                               max_iter=100000))
        ref = REFERENCES["fusedlasso"]
        np.testing.assert_allclose(report.final_state.x, np.asarray(ref["x"]),
                                   atol=1e-6)
        assert gap.primal_value == pytest.approx(ref["objective"], rel=1e-6)

    def test_kkt_stopping_rule(self):
        cp = lasso_1d()
        report, gap = ss.solve_convex(
            cp, stop=ss.StoppingRule(tol=0.0, max_iter=100000), kkt_tol=1e-6)
        assert report.termination == "converged"
        assert gap.kkt_residual <= 1e-6
        # the rule is named with the residual it compared; the final state
        # is the one it judged, so its KKT residual is that value
        assert report.stop.rule == "kkt_tol"
        assert report.stop.threshold == 1e-6
        assert report.stop.value == gap.kkt_residual

    def test_residual_rule_named_when_it_fires_first(self):
        report, _ = ss.solve_convex(
            lasso_1d(), stop=ss.StoppingRule(tol=1e-6, max_iter=100000), kkt_tol=1e-300)
        assert report.stop.rule == "residual"
        assert report.stop.value == report.history[-1].residual


class TestEvaluateGap:
    def test_dirac_infconv_is_g_itself(self, rng):
        cp, _ = fused_lasso_problem()
        x = rng.standard_normal(10)
        v = tuple(np.zeros(d) for d in cp.layout.dual_dims)
        rep = ss.evaluate_gap(cp, x, v)
        d = x[1:] - x[:-1]
        expected = (0.2 * np.sum(np.abs(x))
                    + 0.5 * float(np.dot(x - cp.h.params["center"],
                                         x - cp.h.params["center"]))
                    + 0.5 * np.sum(np.abs(d)))
        assert rep.primal_value == pytest.approx(expected, rel=1e-12)

    def test_huber_spot_value(self):
        layout = ss.SpaceLayout(1, (1,), (1.0,))
        cp = ss.ConvexProblem(
            layout=layout,
            f=ss.catalog_prox("zero", 1),
            h=ss.quadratic_smooth(np.zeros(1)),
            z=np.zeros(1),
            blocks=(ss.ConvexBlock(
                g=ss.catalog_prox("l1", 1, weight=1.0),
                ell=ss.quadratic_term(1, nu=1.0),
                L=ss.identity_op(1),
                r=np.array([-0.5]),  # evaluates the smoothed penalty at 0.5
            ),),
        )
        rep = ss.evaluate_gap(cp, np.zeros(1), (np.zeros(1),))
        # primal = h(0) + (g ic ell)(0.5) = 0 + 0.125
        assert rep.primal_value == pytest.approx(0.125, abs=1e-12)

    def test_gap_vanishes_at_solution(self):
        report, gap = ss.solve_convex(lasso_1d(), stop=ss.StoppingRule(tol=1e-13))
        assert gap.gap is not None
        assert abs(gap.gap) <= 1e-8
        assert gap.primal_value == pytest.approx(3.5, abs=1e-9)
        assert gap.dual_value == pytest.approx(-3.5, abs=1e-9)

    def test_weak_duality_at_feasible_points(self, rng):
        cp, _ = fused_lasso_problem()
        for _ in range(25):
            x = rng.standard_normal(10)
            v = (rng.uniform(-0.5, 0.5, 9),)  # feasible for the l1 conjugate
            rep = ss.evaluate_gap(cp, x, v)
            assert rep.gap is not None
            assert rep.gap >= -1e-9

    def test_infeasible_dual_is_flagged_infinite(self):
        cp, _ = fused_lasso_problem()
        v = (np.full(9, 100.0),)  # far outside the conjugate domain
        rep = ss.evaluate_gap(cp, np.zeros(10), v)
        assert math.isinf(rep.dual_value)
        assert any("infeasible" in n for n in rep.notes)

    def test_unknown_infconv_flagged(self):
        layout = ss.SpaceLayout(2, (2,), (1.0,))
        odd_ell = ss.StronglyConvexTerm(
            dim=2, conj_gradient=lambda v: v, nu=1.0, kind="custom")
        cp = ss.ConvexProblem(
            layout=layout,
            f=ss.catalog_prox("zero", 2),
            h=ss.quadratic_smooth(np.zeros(2)),
            z=np.zeros(2),
            blocks=(ss.ConvexBlock(
                g=ss.catalog_prox("l1", 2), ell=odd_ell,
                L=ss.identity_op(2), r=np.zeros(2)),),
        )
        rep = ss.evaluate_gap(cp, np.zeros(2), (np.zeros(2),))
        assert rep.primal_value is None
        assert rep.gap is None
        assert any("no closed form" in n for n in rep.notes)

    def test_zero_smooth_uses_f_conjugate(self):
        cp2, _ = cp_problem()
        x = np.zeros(12)
        v = (np.zeros(11),)
        rep = ss.evaluate_gap(cp2, x, v)
        # dual term is f*(0) = <b, 0> + 0 = 0 for the quadratic f
        assert rep.dual_value == pytest.approx(0.0, abs=1e-12)


class TestReductions:
    def test_iterates_identical_to_lowered_run(self):
        cp, _ = fused_lasso_problem()
        spec = cp.spec
        cfg = ss.suggest_steps(spec)
        stop = ss.StoppingRule(tol=0.0, max_iter=50)
        direct = ss.run(spec, cfg, stop=stop, record_states=True)
        via_front, _ = ss.solve_convex(cp, cfg=cfg, stop=stop, record_states=True)
        for a, b in zip(direct.states, via_front.states):
            np.testing.assert_array_equal(a.x, b.x)
            for da, db in zip(a.v, b.v):
                np.testing.assert_array_equal(da, db)

    def test_condat_reduction_bitwise(self):
        cp, params = condat_problem()
        spec = cp.spec
        base = ss.suggest_steps(spec, safety=params["safety"])
        cfg = ss.validate_steps(spec, base.tau, base.sigmas,
                                lam=params["lam"],
                                norms=base.norms)
        iters = 300
        report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=0.0, max_iter=iters),
                        record_states=True)
        xs, vs = condat_reference(
            cp.f.prox, cp.h.gradient, [blk.g.prox for blk in cp.blocks],
            [blk.L for blk in cp.blocks], cp.layout.weights,
            cfg.tau, cfg.sigmas[0], params["lam"],
            np.zeros(8), [np.zeros(7), np.zeros(5)], iters,
        )
        assert max_state_deviation(report.states, xs, vs) <= 1e-12

    def test_chambolle_pock_reduction_bitwise(self):
        cp2, params = cp_problem()
        spec = cp2.spec
        cfg = dataclasses.replace(ss.suggest_steps(spec, safety=params["safety"]), balance=None)
        iters = 300
        report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=0.0, max_iter=iters),
                        record_states=True)
        xs, vs = chambolle_pock_reference(
            cp2.f.prox, cp2.blocks[0].g.prox, cp2.blocks[0].L,
            cfg.tau, cfg.sigmas[0], np.zeros(12), np.zeros(11), iters,
        )
        assert max_state_deviation(report.states, xs, [[v] for v in vs]) <= 1e-12

    def test_early_stop_is_checked_against_every_reference_iterate(self):
        # the two-step run lands on an exact fixed point long before 1000
        # iterations; its last state must match every later reference iterate
        cp2, params = cp_problem()
        spec = cp2.spec
        cfg = dataclasses.replace(ss.suggest_steps(spec, safety=params["safety"]), balance=None)
        iters = 1000
        report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=0.0, max_iter=iters),
                        record_states=True)
        assert report.iterations < iters // 2
        xs, vs = chambolle_pock_reference(
            cp2.f.prox, cp2.blocks[0].g.prox, cp2.blocks[0].L,
            cfg.tau, cfg.sigmas[0], np.zeros(12), np.zeros(11), iters,
        )
        vs = [[v] for v in vs]
        assert max_state_deviation(report.states, xs, vs) <= 1e-12
        late = iters - 3
        bad_xs = list(xs)
        bad_xs[late] = xs[late] + 1e-9
        assert max_state_deviation(report.states, bad_xs, vs) > 1e-12
        bad_vs = list(vs)
        bad_vs[late] = [vs[late][0] - 1e-9]
        assert max_state_deviation(report.states, xs, bad_vs) > 1e-12


def plain_forward_backward(prox, grad, tau, lam, x0, iters, a1_seq=None, a2_seq=None):
    """``forward_backward_reference`` as a plain loop, without its early stop."""
    x = np.asarray(x0, dtype=float).copy()
    xs = [x]
    for n in range(iters):
        t = grad(x)
        if a1_seq is not None:
            t = t + a1_seq(n)
        p = prox(tau, x - tau * t)
        if a2_seq is not None:
            p = p + a2_seq(n)
        x = x + lam * (p - x)
        xs.append(x)
    return xs


def plain_condat(f_prox, h_grad, g_proxes, L_ops, weights, tau, sigma, lam, x0, v0, iters):
    """``condat_reference`` as a plain loop, without its early stop."""
    x = np.asarray(x0, dtype=float).copy()
    v = [np.asarray(vi, dtype=float).copy() for vi in v0]
    xs, vs = [x], [list(v)]
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
    return xs, vs


def plain_chambolle_pock(f_prox, g_prox, L, tau, sigma, x0, v0, iters):
    """``chambolle_pock_reference`` as a plain loop, without its early stop."""
    x = np.asarray(x0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    xs, vs = [x], [v]
    for _ in range(iters):
        p = f_prox(tau, x - tau * L.adjoint_apply(v))
        y = 2.0 * p - x
        u = v + sigma * L.apply(y)
        q = u - sigma * g_prox(1.0 / sigma, u / sigma)
        x, v = p, q
        xs.append(x)
        vs.append(v)
    return xs, vs


def suite_reference(name):
    """The reference recursion of a reduction suite, its plain loop and
    its arguments on the suite's problem up to ``iters``, the primal
    prox first."""
    if name == "fb":
        cp, params = fb_problem()
        return (forward_backward_reference, plain_forward_backward,
                (cp.f.prox, cp.h.gradient, params["tau"], params["lam"],
                 np.zeros(10)))
    if name == "condat":
        cp, params = condat_problem()
        cfg = dataclasses.replace(ss.suggest_steps(cp.spec, safety=params["safety"],
                                                   lam=params["lam"]), balance=None)
        return (condat_reference, plain_condat,
                (cp.f.prox, cp.h.gradient, [blk.g.prox for blk in cp.blocks],
                 [blk.L for blk in cp.blocks], cp.layout.weights, cfg.tau, cfg.sigmas[0],
                 params["lam"], np.zeros(8), [np.zeros(7), np.zeros(5)]))
    cp, params = cp_problem()
    cfg = dataclasses.replace(ss.suggest_steps(cp.spec, safety=params["safety"]), balance=None)
    blk = cp.blocks[0]
    return (chambolle_pock_reference, plain_chambolle_pock,
            (cp.f.prox, blk.g.prox, blk.L, cfg.tau, cfg.sigmas[0],
             np.zeros(12), np.zeros(11)))


def iterate_lists(result):
    """The iterate lists a reference returns: xs alone, or xs and vs."""
    return [result] if isinstance(result, list) else list(result)


def counting(prox):
    calls = []

    def counted(tau, w):
        calls.append(1)
        return prox(tau, w)
    return counted, calls


class TestReferenceRecursions:
    @pytest.mark.parametrize("iters", [1, 2, 3, 300, 1000])
    @pytest.mark.parametrize("name", ["fb", "condat", "cp"])
    def test_lists_are_the_plain_loops_bit_for_bit(self, name, iters):
        reference, plain, args = suite_reference(name)
        got = iterate_lists(reference(*args, iters))
        want = iterate_lists(plain(*args, iters))
        assert len(got) == len(want)
        arrays = []
        for got_list, want_list in zip(got, want):
            assert len(got_list) == len(want_list) == iters + 1
            for g, w in zip(got_list, want_list):
                if isinstance(w, list):  # the dual blocks of one iterate
                    assert len(g) == len(w)
                    for gi, wi in zip(g, w):
                        assert_same_bits(gi, wi)
                    arrays.extend(g)
                else:
                    assert_same_bits(g, w)
                    arrays.append(g)
        entries = [entry for got_list in got for entry in got_list]
        assert len({id(e) for e in entries}) == len(entries)
        assert len({id(a) for a in arrays}) == len(arrays)

    @pytest.mark.parametrize("name, most", [("fb", 40), ("condat", 120), ("cp", 120)])
    def test_stops_computing_at_the_first_repeated_state(self, name, most):
        reference, _, args = suite_reference(name)
        prox, calls = counting(args[0])
        reference(prox, *args[1:], 1000)
        assert 0 < len(calls) <= most

    @pytest.mark.parametrize("seq", ["a1_seq", "a2_seq"])
    def test_error_sequences_run_every_iterate(self, seq):
        _, _, args = suite_reference("fb")
        prox, calls = counting(args[0])
        args = (prox,) + args[1:]
        errors = {seq: lambda n: np.zeros(10)}
        got = forward_backward_reference(*args, 1000, **errors)
        assert len(calls) == 1000
        want = plain_forward_backward(*args, 1000, **errors)
        for g, w in zip(got, want, strict=True):
            assert_same_bits(g, w)

    def test_sign_of_a_zero_tells_states_apart(self):
        # x: -0, 1, +0, 2, 2, ...: the state at 2 differs from the one at 0
        # only in the sign of its zero, and the iterates after it differ
        def prox(tau, w):
            return np.where(np.signbit(w), 1.0, np.where(w == 1.0, 0.0, 2.0))

        counted, calls = counting(prox)
        xs = forward_backward_reference(counted, np.zeros_like, 0.5, 1.0,
                                        np.array([-0.0]), 6)
        want = plain_forward_backward(prox, np.zeros_like, 0.5, 1.0, np.array([-0.0]), 6)
        assert_same_bits(np.concatenate(xs), [-0.0, 1.0, 0.0, 2.0, 2.0, 2.0, 2.0])
        assert_same_bits(np.concatenate(xs), np.concatenate(want))
        assert len(calls) == 4  # the state at 4 repeats the one at 3

    def test_longer_cycle_runs_to_iters(self):
        # 1 -> 2 -> 3 -> 1: period 3 is not looked for
        def prox(tau, w):
            return w % 3.0 + 1.0

        counted, calls = counting(prox)
        xs = forward_backward_reference(counted, np.zeros_like, 0.5, 1.0, np.ones(1), 30)
        assert len(calls) == 30
        assert_same_bits(np.concatenate(xs), np.tile([1.0, 2.0, 3.0], 11)[:31])


def deviation_loop(states, xs, vs=None):
    """The iterate-by-iterate form of ``max_state_deviation``, kept as
    its reference on finite input (Python's max drops a NaN)."""
    worst = 0.0
    last = len(states) - 1
    for k in range(len(xs)):
        s = states[min(k, last)]
        worst = max(worst, float(np.max(np.abs(s.x - xs[k]), initial=0.0)))
        if vs is not None:
            for d, ref in zip(s.v, vs[k]):
                worst = max(worst, float(np.max(np.abs(d - ref), initial=0.0)))
    return worst


def trajectory(rng, layout, count):
    """``count`` recorded states over ``layout`` with signed zeros, and
    reference lists equal to them but for a few perturbed entries."""
    states, xs, vs = [], [], []
    for k in range(count):
        u = rng.standard_normal(layout.size)
        u[rng.random(layout.size) < 0.3] = 0.0
        u[rng.random(layout.size) < 0.3] = -0.0
        states.append(ss.IterState(k, u, *layout.split(u)))
        ref = u.copy()
        hit = rng.random(layout.size) < 0.1
        ref[hit] += rng.standard_normal(hit.sum()) * 10.0 ** rng.integers(-16, -8, hit.sum())
        flip = (ref == 0.0) & (rng.random(layout.size) < 0.5)
        ref[flip] = -ref[flip]
        x, v = layout.split(ref)
        xs.append(x)
        vs.append(list(v))
    return states, xs, vs


def same_float(got, want):
    return np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


class TestMaxStateDeviation:
    LAYOUTS = [ss.SpaceLayout(5, (4,), (1.0,)),
               ss.SpaceLayout(3, (2, 6), (0.6, 0.4)),
               ss.SpaceLayout(4, (1, 3, 2), (0.5, 0.3, 0.2))]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_bulk_pass_matches_the_loop_bitwise(self, layout, seed):
        rng = np.random.default_rng(seed)
        states, xs, vs = trajectory(rng, layout, 12)
        # early stops, against later iterates that differ or that repeat
        # the last state's reference
        cases = [(states, xs, vs), (states[:5], xs, vs), (states[:1], xs, vs),
                 (states[:5], xs[:5] + xs[4:5] * 7, vs[:5] + vs[4:5] * 7)]
        for got_states, xs_k, vs_k in cases:
            for refs in ((xs_k, vs_k), (xs_k, None)):
                got = max_state_deviation(got_states, *refs)
                assert same_float(got, deviation_loop(got_states, *refs))
        # identical trajectories, signed zeros included, deviate by +0.0
        exact = [st.x.copy() for st in states]
        assert same_float(max_state_deviation(states, exact), 0.0)
        assert same_float(max_state_deviation(states, []), 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_reference_entry_fails(self, rng, bad):
        layout = self.LAYOUTS[1]
        states, xs, vs = trajectory(rng, layout, 6)
        bad_xs = [x.copy() for x in xs]
        bad_xs[3][1] = bad
        assert max_state_deviation(states, bad_xs, vs) == math.inf
        bad_vs = [[vi.copy() for vi in vk] for vk in vs]
        bad_vs[4][1][2] = bad
        assert max_state_deviation(states, xs, bad_vs) == math.inf
        # the same non-finite entry in the state: NaN - NaN and inf - inf
        u = states[3].u.copy()
        u[1] = bad
        states[3] = ss.IterState(3, u, *layout.split(u))
        assert max_state_deviation(states, bad_xs, vs) == math.inf

    def test_nan_reference_iterate_no_longer_passes(self):
        cp, params = fb_problem()
        spec = cp.spec
        cfg = ss.validate_steps(spec, params["tau"], (params["sigma"],),
                                lam=params["lam"])
        report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=0.0, max_iter=50),
                        record_states=True)
        xs = forward_backward_reference(cp.f.prox, cp.h.gradient, params["tau"],
                                        params["lam"], np.zeros(10), 50)
        assert max_state_deviation(report.states, xs) <= 1e-12
        xs[20] = np.full(10, math.nan)
        assert deviation_loop(report.states, xs) <= 1e-12  # the hole
        assert max_state_deviation(report.states, xs) == math.inf

    def test_malformed_reference_refused_by_name(self, rng):
        layout = self.LAYOUTS[1]
        states, xs, vs = trajectory(rng, layout, 6)
        cases = [
            (xs, vs[:3] + [vs[3][:1]] + vs[4:],
             r"reference iterate 3 has 1 dual blocks, expected 2"),
            (xs, vs[:2] + [vs[2] + [np.zeros(2)]] + vs[3:],
             r"reference iterate 2 has 3 dual blocks, expected 2"),
            (xs[:4] + [xs[4][:2]] + xs[5:], vs,
             r"reference iterate 4: x has shape \(2,\), expected \(3,\)"),
            (xs, vs[:1] + [[vs[1][0], np.zeros(5)]] + vs[2:],
             r"reference iterate 1: v\[1\] has shape \(5,\), expected \(6,\)"),
            (xs, vs[:5], r"vs has 5 iterates but xs has 6"),
        ]
        for bad_xs, bad_vs, message in cases:
            with pytest.raises(ValueError, match=message):
                max_state_deviation(states, bad_xs, bad_vs)


class TestQualification:
    def base_problem(self, g, L=None, r=None, dim=1, f=None):
        layout = ss.SpaceLayout(dim, (g.dim,), (1.0,))
        return ss.ConvexProblem(
            layout=layout,
            f=f if f is not None else ss.catalog_prox("zero", dim),
            h=ss.quadratic_smooth(np.zeros(dim)),
            z=np.zeros(dim),
            blocks=(ss.ConvexBlock(
                g=g, ell=ss.dirac_term(g.dim),
                L=L if L is not None else ss.identity_op(dim),
                r=np.zeros(g.dim) if r is None else np.asarray(r, float)),),
        )

    def test_full_domains_satisfied(self):
        cp = self.base_problem(ss.catalog_prox("l1", 1))
        rep = ss.check_qualification(cp)
        assert rep.verdict == "satisfied"

    def test_box_domain_witnessed_by_center(self):
        cp = self.base_problem(ss.catalog_prox("box", 1, lo=0.0, hi=1.0))
        rep = ss.check_qualification(cp)
        assert rep.verdict == "satisfied"
        assert rep.witness[0] == pytest.approx(0.5)

    def test_box_target_reached_through_scaled_L(self):
        # the exact line search scales L^T c back to the anchor: L = 2 and
        # c = 0.5 give g = 1, alpha = 1/4 and L x = 0.5, the box center
        cp = self.base_problem(ss.catalog_prox("box", 1, lo=0.0, hi=1.0),
                               L=ss.matrix_op(np.array([[2.0]])))
        rep = ss.check_qualification(cp)
        assert rep.verdict == "satisfied"
        assert rep.witness[0] == 0.25

    def test_singleton_target_not_verified(self):
        cp = self.base_problem(ss.catalog_prox("point", 1, point=0.0),
                               r=[1.0])
        rep = ss.check_qualification(cp)
        assert rep.verdict == "not-verified"

    def test_uncatalogued_domain_not_verified(self):
        g = ss.ProxFunction(1, evaluate=lambda x: 0.0,
                            prox=lambda gamma, w: w)  # no domain info
        cp = self.base_problem(g)
        rep = ss.check_qualification(cp)
        assert rep.verdict == "not-verified"
        assert "not catalogued" in rep.reason

    def test_f_box_domain_restricts_witness(self):
        f = ss.catalog_prox("box", 1, lo=2.0, hi=3.0)
        cp = self.base_problem(ss.catalog_prox("box", 1, lo=0.0, hi=1.0), f=f)
        rep = ss.check_qualification(cp)
        # witnesses must come from dom f = [2, 3], which misses (0, 1)
        assert rep.verdict == "not-verified"

    @staticmethod
    def counted_box_problem(n, counts):
        """Two box targets, |x_j - x_{j+1}| < 0.1 and 1 < x_j < 2, through
        operators that count their applies and adjoint applies."""
        def counting(L):
            def apply(x):
                counts["apply"] += 1
                return L.apply(x)

            def adjoint_apply(y):
                counts["adjoint"] += 1
                return L.adjoint_apply(y)
            return ss.LinearOp(L.in_dim, L.out_dim, apply, adjoint_apply,
                               norm_hint=L.norm_hint)

        return ss.ConvexProblem(
            layout=ss.SpaceLayout(n, (n - 1, n), (0.5, 0.5)),
            f=ss.catalog_prox("zero", n), h=ss.quadratic_smooth(np.zeros(n)),
            z=np.zeros(n),
            blocks=(
                ss.ConvexBlock(g=ss.catalog_prox("box", n - 1, lo=-0.1, hi=0.1),
                               ell=ss.dirac_term(n - 1), L=counting(ss.diff1d_op(n)),
                               r=np.zeros(n - 1)),
                ss.ConvexBlock(g=ss.catalog_prox("box", n, lo=1.0, hi=2.0),
                               ell=ss.dirac_term(n), L=counting(ss.identity_op(n)),
                               r=np.zeros(n)),
            ),
        )

    def test_box_targets_cost_a_constant_number_of_applies(self):
        # one adjoint per box target and O(1) applies per block, not one
        # per primal coordinate: the count does not move with n
        seen = []
        for n in (50, 400):
            counts = {"apply": 0, "adjoint": 0}
            rep = ss.check_qualification(self.counted_box_problem(n, counts))
            assert rep.verdict == "satisfied"
            np.testing.assert_allclose(rep.witness, 1.5, rtol=0, atol=1e-5)
            seen.append(counts)
        assert seen[0] == seen[1]
        assert seen[0]["adjoint"] == 2
        # 1 + 1 + 2 for the aimed candidates (each target, then both), and
        # 2 for each of the candidates checked: 0, the second target's, done
        assert seen[0]["apply"] == 4 + 2 * 2


def ri_anchor_loop(dom):
    """``convex._ri_anchor`` as a per-coordinate loop."""
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
    return out


def ri_contains_loop(dom, w):
    """``convex._ri_contains`` on a box as a per-coordinate loop."""
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


_SIDE = st.floats(-1e6, 1e6)


@st.composite
def box_and_points(draw):
    """A box whose sides are ordinary, zero-width, half- or unbounded,
    and points near it: its anchor, nudges of the anchor that land on
    or just inside and outside the margins, and random values."""
    n = draw(st.integers(1, 6))
    lo, hi = np.empty(n), np.empty(n)
    for j in range(n):
        kind = draw(st.sampled_from(["ordinary", "zero-width", "lower", "upper", "free"]))
        a = draw(_SIDE)
        b = a + draw(st.floats(1e-6, 1e6)) if kind == "ordinary" else a
        lo[j] = -math.inf if kind in ("upper", "free") else a
        hi[j] = math.inf if kind in ("lower", "free") else b
    dom = ss.operators.Domain.box(lo, hi)
    anchor = ri_anchor_loop(dom)
    points = [anchor]
    for _ in range(3):
        w = anchor.copy()
        j = draw(st.integers(0, n - 1))
        w[j] = draw(st.sampled_from([lo[j], hi[j], np.nextafter(lo[j], math.inf),
                                     np.nextafter(hi[j], -math.inf)]))
        points.append(w)
    points.append(np.array(draw(st.lists(_SIDE, min_size=n, max_size=n))))
    return dom, points


class TestRelativeInterior:
    """The vectorized ``_ri_anchor``/``_ri_contains`` against their loops."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(box_and_points())
    def test_same_anchor_and_verdicts_as_loops(self, case):
        dom, points = case
        assert_same_bits(splitsolve.convex._ri_anchor(dom), ri_anchor_loop(dom))
        for w in points:
            assert splitsolve.convex._ri_contains(dom, w) == ri_contains_loop(dom, w)

    def test_cases_reach_each_verdict(self):
        lo, hi = np.array([0.0, -math.inf, 2.0]), np.array([1.0, 5.0, math.inf])
        dom = ss.operators.Domain.box(lo, hi)
        anchor = splitsolve.convex._ri_anchor(dom)
        assert_same_bits(anchor, [0.5, 4.0, 3.0])
        assert splitsolve.convex._ri_contains(dom, anchor)
        assert not splitsolve.convex._ri_contains(dom, np.array([0.5, 5.0, 3.0]))
        assert not splitsolve.convex._ri_contains(dom, np.array([0.5, 4.0, np.nan]))
        flat = ss.operators.Domain.box(np.zeros(2), np.array([1.0, 0.0]))
        assert not splitsolve.convex._ri_contains(flat, np.array([0.5, 0.0]))


class TestKktResidual:
    def test_zero_exactly_at_solution(self):
        report, _ = ss.solve_convex(lasso_1d(), stop=ss.StoppingRule(tol=1e-14))
        x = np.array([3.0])
        v = (np.array([1.0]),)  # the sign of the active l1 term
        for tau, sigma in [(1.0, 1.0), (0.3, 2.0)]:
            res = ss.kkt_residual(lasso_1d(), x, v, tau=tau, sigmas=(sigma,))
            assert res <= 1e-12

    def test_gap_evaluation_applies_each_operator_once(self, rng):
        cp, _ = fused_lasso_problem()
        calls = {"apply": 0, "adjoint": 0}
        L = cp.blocks[0].L

        def counted(name, fn):
            def wrapped(arg):
                calls[name] += 1
                return fn(arg)
            return wrapped

        counting = dataclasses.replace(
            L, apply=counted("apply", L.apply),
            adjoint_apply=counted("adjoint", L.adjoint_apply), kind="custom")
        cp = dataclasses.replace(cp, blocks=(dataclasses.replace(cp.blocks[0], L=counting),))
        x = rng.standard_normal(10)
        v = (rng.standard_normal(9),)
        gap = ss.evaluate_gap(cp, x, v, tau=0.3, sigmas=(0.7,))
        assert calls == {"apply": 1, "adjoint": 1}
        assert gap.kkt_residual == ss.kkt_residual(cp, x, v, tau=0.3, sigmas=(0.7,))

    def test_mismatched_point_or_steps_refused(self, rng):
        # a block left out of v or sigmas used to be dropped silently
        cp, _ = condat_problem()
        x = rng.standard_normal(8)
        v = (rng.standard_normal(7), rng.standard_normal(5))
        ss.kkt_residual(cp, x, v, sigmas=(1.0, 1.0))
        cases = [
            (x, v[:1], None, "^v must hold one entry per dual block: expected 2, got 1$"),
            (x, (v[0], v[1][:4]), None,
             r"^v\[1\] must be a vector of length 5, got shape \(4,\)$"),
            (x[:7], v, None, r"^x must be a vector of length 8, got shape \(7,\)$"),
            (x, v, (1.0,), "^sigmas must hold one entry per dual block: expected 2, got 1$"),
        ]
        for xc, vc, sigmas, message in cases:
            for evaluate in (ss.kkt_residual, ss.evaluate_gap):
                with pytest.raises(ValueError, match=message):
                    evaluate(cp, xc, vc, sigmas=sigmas)
        # bad steps used to give a number (x = 1, v = 0: 4.3949 at tau = -1,
        # 0.16 at tau = 0) or NaN, with no error
        x, v = np.ones(8), (np.zeros(7), np.zeros(5))
        steps = [
            (-1.0, None, r"^tau must lie in \]0, inf\[, got -1.0$"),
            (0.0, None, r"^tau must lie in \]0, inf\[, got 0.0$"),
            (math.nan, None, r"^tau must lie in \]0, inf\[, got nan$"),
            (1.0, (math.nan, 1.0), r"^sigma\[0\] must lie in \]0, inf\[, got nan$"),
            (1.0, (math.inf, 1.0), r"^sigma\[0\] must lie in \]0, inf\[, got inf$"),
            (1.0, (0.0, 1.0), r"^sigma\[0\] must lie in \]0, inf\[, got 0.0$"),
        ]
        for tau, sigmas, message in steps:
            for evaluate in (ss.kkt_residual, ss.evaluate_gap):
                with pytest.raises(ValueError, match=message):
                    evaluate(cp, x, v, tau=tau, sigmas=sigmas)


def metric_values(obj):
    if isinstance(obj, ss.GapReport):
        return (obj.primal_value, obj.dual_value, obj.gap, obj.kkt_residual)
    return (obj.primal_obj, obj.dual_obj, obj.gap, obj.kkt)


class TestSampledObjective:
    """``record_objective`` fills every OBJECTIVE_STRIDE-th row and the last."""

    @staticmethod
    def solve(iters, **kwargs):
        cp, _ = fused_lasso_problem()
        report, gap = ss.solve_convex(cp, stop=ss.StoppingRule(tol=0.0, max_iter=iters),
                                      record_objective=True, **kwargs)
        return cp, report, gap

    def test_stride_rows_match_recorded_states(self):
        cp, report, _ = self.solve(37, record_states=True)
        cfg = ss.suggest_steps(cp.spec)
        sampled = [rec for rec in report.history if rec.iter % OBJECTIVE_STRIDE == 0]
        assert [rec.iter for rec in sampled] == [10, 20, 30]
        for rec in sampled:
            st = report.states[rec.iter]
            want = ss.evaluate_gap(cp, st.x, st.v, tau=cfg.tau, sigmas=cfg.sigmas)
            assert_same_bits(metric_values(rec), metric_values(want))

    @pytest.mark.parametrize("iters", [37, 40])
    def test_last_row_is_the_returned_gap(self, iters):
        _, report, gap = self.solve(iters)
        assert report.history[-1].iter == iters
        assert_same_bits(metric_values(report.history[-1]), metric_values(gap))
        for rec in report.history[:-1]:
            if rec.iter % OBJECTIVE_STRIDE:
                assert metric_values(rec) == (None, None, None, None)
            else:
                assert None not in metric_values(rec)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_last_row_describes_final_state(self):
        cp, _ = fused_lasso_problem()
        cfg = ss.validate_steps(cp.spec, 100.0, (100.0,))
        report, gap = ss.solve_convex(cp, cfg=cfg, allow_inadmissible=True,
                                      stop=ss.StoppingRule(tol=0.0, max_iter=5000),
                                      record_objective=True)
        assert report.termination == "diverged"
        assert report.iterations % OBJECTIVE_STRIDE  # the hook skipped this row
        final = report.final_state
        assert final.n == report.history[-1].iter
        want = ss.evaluate_gap(cp, final.x, final.v, tau=cfg.tau, sigmas=cfg.sigmas)
        assert_same_bits(metric_values(report.history[-1]), metric_values(want))
        assert_same_bits(metric_values(gap), metric_values(want))

    @pytest.mark.parametrize("iters", [1, 9, 37, 40])
    def test_gap_evaluations_counted(self, monkeypatch, iters):
        # the hook and the final evaluate_gap both evaluate through the plan
        calls = []
        evaluate = splitsolve.convex._GapPlan.gap

        def counted(*args, **kwargs):
            calls.append(1)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(splitsolve.convex._GapPlan, "gap", counted)
        self.solve(iters)
        assert len(calls) == iters // OBJECTIVE_STRIDE + 1

    @pytest.mark.parametrize("hooks", [{}, {"record_objective": True}, {"kkt_tol": 1e-30}],
                             ids=["no hooks", "record_objective", "kkt_tol"])
    def test_problem_lowered_and_planned_once(self, monkeypatch, hooks):
        # the returned report comes from the plan the hooks use, not from
        # a second lowering and plan behind evaluate_gap; the one lowering
        # is the problem's own, made when it is built
        lowered, plans = [], []
        post_init = ss.ProblemSpec.__post_init__
        init = splitsolve.convex._GapPlan.__init__

        def counted_post_init(spec):
            lowered.append(1)
            post_init(spec)

        def counted_init(plan, *args):
            plans.append(1)
            init(plan, *args)

        monkeypatch.setattr(ss.ProblemSpec, "__post_init__", counted_post_init)
        monkeypatch.setattr(splitsolve.convex._GapPlan, "__init__", counted_init)
        cp, _ = fused_lasso_problem()
        ss.solve_convex(cp, stop=ss.StoppingRule(tol=0.0, max_iter=12), **hooks)
        assert (len(lowered), len(plans)) == (1, 1)

    def test_csv_residual_on_every_row(self):
        _, report, _ = self.solve(37)
        lines = format_run_csv(report).splitlines()
        header = lines[0].split(",")
        col = header.index("residual")
        rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        assert len(rows) == len(report.history)
        for row, rec in zip(rows, report.history):
            assert math.isfinite(float(row[col]))
            assert row[col] == f"{rec.residual:.17g}"

    @pytest.mark.parametrize("timings", [False, True])
    def test_csv_from_columns_is_the_csv_of_the_records(self, timings):
        # the run's columnar history is written from its columns; a plain
        # list of the same records gives the same bytes, hook rows, the
        # replaced last row and the wall times included
        _, report, _ = self.solve(37)
        assert report.history[9].gap is not None and report.history[-1].gap is not None
        as_list = dataclasses.replace(report, history=list(report.history))
        text = format_run_csv(report, include_timings=timings)
        assert text == format_run_csv(as_list, include_timings=timings)
        assert len(text.splitlines()) == 1 + 37 + 2


class TestKindTagsWithoutParams:
    """A catalog ``kind`` tag on a hand-built term reaches the gap
    formulas without the catalog constructor's ``params``."""

    @staticmethod
    def quadratic_block(ell):
        cp = lasso_1d()
        return dataclasses.replace(cp, blocks=(dataclasses.replace(cp.blocks[0], ell=ell),))

    def test_quadratic_ell_reads_nu(self):
        nu = 2.5
        bare = ss.StronglyConvexTerm(1, lambda v: v / nu, nu,
                                     conj_value=lambda v: float(np.dot(v, v)) / (2.0 * nu),
                                     kind="quadratic")
        cp, want_cp = self.quadratic_block(bare), self.quadratic_block(ss.quadratic_term(1, nu))
        x, v = np.full(1, 2.0), [np.full(1, 0.3)]
        assert repr(ss.evaluate_gap(cp, x, v)) == repr(ss.evaluate_gap(want_cp, x, v))
        report, gap = ss.solve_convex(cp, stop=ss.StoppingRule(tol=0.0, max_iter=12),
                                      record_objective=True)
        want_report, want_gap = ss.solve_convex(
            want_cp, stop=ss.StoppingRule(tol=0.0, max_iter=12), record_objective=True)
        assert repr(gap) == repr(want_gap)
        assert format_run_csv(report) == format_run_csv(want_report)
        assert report.history[-1].primal_obj is not None

    @pytest.mark.parametrize("params", [
        {}, {"weight": 1.0}, {"center": np.array([4.0])},
        {"weight": "heavy", "center": np.array([4.0])},
        {"weight": 1.0, "center": np.zeros(2)},
    ], ids=["none", "no center", "no weight", "text weight", "wrong center size"])
    def test_sq_l2_without_numeric_params_refused(self, params):
        with pytest.raises(ValueError, match='kind "sq_l2" needs params'):
            ss.SmoothTerm(1, lambda x: 0.5 * float(np.dot(x - 4.0, x - 4.0)),
                          lambda x: x - 4.0, 1.0, kind="sq_l2", params=params)


    @pytest.mark.parametrize("weight, message", [
        (-1.0, r"weight must lie in \]0, inf\[, got -1.0$"),
        (True, r"weight must be a real number, got True$"),
        (math.nan, r"weight must lie in \]0, inf\[, got nan$"),
        ("2", r"weight must be a real number, got '2'$"),
    ], ids=["negative", "bool", "nan", "text"])
    def test_sq_l2_weight_refused_by_name(self, weight, message):
        # -1.0 and True used to be read by the gap formulas (gap 1.99 and
        # 2.01 on this problem), NaN likewise, and "2" died in evaluate_gap
        with pytest.raises(ValueError, match='^a SmoothTerm of kind "sq_l2" needs params .*: '
                                             + message):
            ss.SmoothTerm(1, lambda x: 0.5 * float(np.dot(x - 4.0, x - 4.0)),
                          lambda x: x - 4.0, 1.0, kind="sq_l2",
                          params={"weight": weight, "center": np.array([4.0])})

    @pytest.mark.parametrize("center, message", [
        ([math.inf], "center must be finite"),
        ([4.0, math.nan], "center must be a vector of length 1, got shape (2,)"),
        (4.0, "center must be a vector of length 1, got shape ()"),
        ([math.nan], "center must be finite"),
    ])
    def test_sq_l2_center_refused(self, center, message):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            ss.SmoothTerm(1, lambda x: 0.0, lambda x: x, 1.0, kind="sq_l2",
                          params={"weight": 1.0, "center": center})

    def test_sq_l2_params_stored_checked(self):
        h = ss.SmoothTerm(2, lambda x: 0.0, lambda x: x, 1.0, kind="sq_l2",
                          params={"weight": np.float32(2.0), "center": [1, 2], "note": "kept"})
        assert type(h.params["weight"]) is float and h.params["weight"] == 2.0
        assert_same_bits(h.params["center"], [1.0, 2.0])
        assert h.params["note"] == "kept"


def test_zero_maps_share_one_read_only_array():
    for fn in (ss.zero_smooth(3).gradient, ss.dirac_term(3).conj_gradient):
        first, second = fn(np.ones(3)), fn(np.arange(3.0))
        assert first is second
        np.testing.assert_array_equal(first, np.zeros(3))
        assert not first.flags.writeable


def test_quadratic_gradient_matches_formula(rng):
    b = rng.standard_normal(6)
    x = rng.standard_normal(6)
    got = ss.quadratic_smooth(b, weight=0.3).gradient(x)
    assert_same_bits(got, 0.3 * (x - b))


@pytest.mark.parametrize("size", [1, 50, 2000])
def test_unit_weight_gradient_is_the_multiplied_formula(rng, size):
    # the unit weight is not multiplied in; x * 1 = x keeps every bit,
    # -0 (from -0 - (+0)) included
    b = rng.standard_normal(size)
    x = rng.standard_normal(size)
    b[::2] = 0.0
    x[::2] = -0.0
    x[1::4] = b[1::4]
    got = ss.quadratic_smooth(b).gradient(x)
    assert np.signbit(got[::2]).all()
    assert_same_bits(got, (x - b) * 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gap_and_kkt_quiet_at_overflowing_finite_point():
    # squares of 1e307 overflow; the values read inf without a warning
    cp, _ = tv1d_problem()
    n = cp.layout.dim_primal
    x, v = np.full(n, 1e307), (np.full(n - 1, -1e307),)
    gap = ss.evaluate_gap(cp, x, v)
    assert math.isinf(gap.primal_value) and math.isinf(gap.kkt_residual)
    assert math.isinf(ss.kkt_residual(cp, x, v))


@pytest.mark.parametrize("change, message", [
    (lambda p: {"z": np.zeros(2)}, "z must be a vector of length 1, got shape (2,)"),
    (lambda p: {"blocks": p.blocks * 2},
     "blocks must hold one entry per dual block: expected 1, got 2"),
    (lambda p: {"blocks": (dataclasses.replace(p.blocks[0], L=ss.diff1d_op(2)),)},
     "block 0: L must map length 1 to 1, got 2 to 1"),
    (lambda p: {"blocks": (dataclasses.replace(p.blocks[0], r=np.zeros(3)),)},
     "block 0: r must be a vector of length 1, got shape (3,)"),
], ids=["z", "count", "L", "r"])
def test_problem_and_inclusion_share_shape_messages(change, message):
    cp = lasso_1d()
    spec = cp.spec
    for problem in (cp, spec):
        with pytest.raises(ValueError) as info:
            dataclasses.replace(problem, **change(problem))
        assert str(info.value) == message
