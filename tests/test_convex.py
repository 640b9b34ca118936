import dataclasses
import math

import numpy as np
import pytest

import splitsolve as ss
from splitsolve.benchmarks import (
    chambolle_pock_reference,
    condat_problem,
    condat_reference,
    cp_problem,
    fused_lasso_problem,
    max_state_deviation,
)
from splitsolve.convex import check_gradient

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
        spec = ss.lower_to_inclusion(cp)
        w = rng.standard_normal(5)
        soft = np.sign(w) * np.maximum(np.abs(w) - 0.7 * 0.4, 0.0)
        np.testing.assert_array_equal(spec.A.resolvent(0.7, w), soft)
        np.testing.assert_array_equal(spec.C.apply(w), w - b)
        assert spec.C.constant == 1.0

    def test_dirac_ell_lowers_to_zero_map(self):
        cp = lasso_1d()
        spec = ss.lower_to_inclusion(cp)
        blk = spec.blocks[0]
        assert math.isinf(blk.Dinv.constant)
        assert np.all(blk.Dinv.apply(np.array([3.0])) == 0.0)

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
        # lower_to_inclusion trusts these kinds and skips the check
        terms = [ss.zero_smooth(dim)]
        for weight in (0.25, 1.0, 3.5):
            terms.append(ss.quadratic_smooth(-1.5, weight=weight, dim=dim))
            terms.append(ss.quadratic_smooth(rng.standard_normal(dim), weight=weight))
        for h in terms:
            assert check_gradient(h) <= 1e-5

    @staticmethod
    def wrong_gradient_problem():
        cp = lasso_1d()
        bad = ss.SmoothTerm(
            dim=1,
            value=lambda x: 0.5 * float(np.dot(x - 4.0, x - 4.0)),
            gradient=lambda x: 1.5 * (x - 4.0),  # wrong scale
            lipschitz_inv=1.0,
        )
        return dataclasses.replace(cp, h=bad)

    def test_lowering_rejects_wrong_custom_gradient(self):
        with pytest.raises(ValueError, match="finite-difference"):
            ss.lower_to_inclusion(self.wrong_gradient_problem())

    def test_solve_rejects_wrong_custom_gradient(self):
        with pytest.raises(ValueError, match="finite-difference"):
            ss.solve_convex(self.wrong_gradient_problem())


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
            cp, stop=ss.StoppingRule(tol=0.0, max_iter=100000, kkt_tol=1e-6))
        assert report.termination == "converged"
        assert gap.kkt_residual <= 1e-6


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
        spec = ss.lower_to_inclusion(cp)
        cfg = ss.suggest_steps(spec)
        stop = ss.StoppingRule(tol=0.0, max_iter=50)
        direct = ss.run(spec, cfg, stop=stop, record_states=True)
        via_front, _ = ss.solve_convex(cp, cfg=cfg, stop=stop, record_states=True)
        for a, b in zip(direct.states, via_front.states):
            np.testing.assert_array_equal(a.primal, b.primal)
            for da, db in zip(a.duals, b.duals):
                np.testing.assert_array_equal(da, db)

    def test_condat_reduction_bitwise(self):
        cp, params = condat_problem()
        spec = ss.lower_to_inclusion(cp)
        base = ss.suggest_steps(spec, safety=params["safety"])
        cfg = ss.validate_steps(spec, base.tau, base.sigmas,
                                lambda_schedule=lambda n: params["lam"],
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
        spec = ss.lower_to_inclusion(cp2)
        cfg = ss.suggest_steps(spec, safety=params["safety"])
        iters = 300
        report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=0.0, max_iter=iters),
                        record_states=True)
        xs, vs = chambolle_pock_reference(
            cp2.f.prox, cp2.blocks[0].g.prox, cp2.blocks[0].L,
            cfg.tau, cfg.sigmas[0], np.zeros(12), np.zeros(11), iters,
        )
        assert max_state_deviation(report.states, xs, [[v] for v in vs]) <= 1e-12


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


class TestKktResidual:
    def test_zero_exactly_at_solution(self):
        report, _ = ss.solve_convex(lasso_1d(), stop=ss.StoppingRule(tol=1e-14))
        x = np.array([3.0])
        v = (np.array([1.0]),)  # the sign of the active l1 term
        for tau, sigma in [(1.0, 1.0), (0.3, 2.0)]:
            res = ss.kkt_residual(lasso_1d(), x, v, tau=tau, sigmas=(sigma,))
            assert res <= 1e-12


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
