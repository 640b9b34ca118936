import math

import numpy as np
import pytest

import splitsolve as ss
from splitsolve.diagnostics import TOL, certify_operators
from splitsolve.solver import _Workspace, _sq_norms

from conftest import shrinkage_spec, single_block_spec, v_distances, v_form


def verdicts(spec, **kwargs):
    return {rep.name: rep.passed for rep in certify_operators(spec, **kwargs)}


def dense_v(spec, cfg):
    """V as a matrix, by polarization of :func:`v_form` (weight-1 blocks)."""
    eye = np.eye(spec.layout.size)
    diag = [v_form(spec, cfg, e) for e in eye]
    return np.array([[(v_form(spec, cfg, a + b) - da - db) / 2.0
                      for b, db in zip(eye, diag)] for a, da in zip(eye, diag)])


def dense_minv(spec):
    """M^{-1} = diag(1/mu, 1/nu_i) as a matrix, with 1/inf = 0."""
    inv = [1.0 / spec.C.constant] * spec.layout.dim_primal
    for blk, d in zip(spec.blocks, spec.layout.dual_dims):
        inv += [1.0 / blk.Dinv.constant] * d
    return np.diag(inv)


def min_eig(mat):
    return float(np.linalg.eigvalsh(mat).min())


class TestBuildProductOps:
    """The product-space maps S, Q, V and M^{-1} are not materialized:
    V is the solver's quadratic form, the components of Q and M^{-1}
    are the constants and maps each report of :func:`certify_operators`
    checks, and S is skew when every L_i is adjoint."""

    def test_coupling_map_form_and_skewness(self):
        # S (x, v) = (L^T v, -L x): <u, S u> = x L^T v - v L x
        spec = single_block_spec()
        L = spec.blocks[0].L
        x, v = np.array([2.0]), np.array([3.0])
        assert float(x @ L.adjoint_apply(v) - v @ L.apply(x)) == 0.0
        assert certify_operators(spec)[1].margin == 0.0

    def test_renorm_map_unit_steps(self):
        # V = [[1, -1], [-1, 1]] at tau = sigma = 1, so <u, V u> = (2 - 5)^2
        spec = single_block_spec()
        cfg = ss.validate_steps(spec, 1.0, (1.0,))
        assert v_form(spec, cfg, [2.0, 5.0]) == 9.0

    def test_cocoercive_map_collects_components(self):
        spec = single_block_spec()  # C = Id, Dinv = 0
        reports = certify_operators(spec)
        assert [(rep.name, rep.note) for rep in reports if "cocoercivity" in rep.name] == [
            ("cocoercivity(C)", "mu = 1"), ("cocoercivity(Dinv[0])", "nu = inf")]

    def test_inverse_constants_map(self):
        # C = x/2 (mu = 2) and Dinv = v/4 (nu = 4); a zero map contributes 1/inf = 0
        spec = single_block_spec(mu=2.0, Dinv=ss.CocoerciveOp(1, lambda v: v / 4.0, 4.0))
        np.testing.assert_array_equal(np.diag(dense_minv(spec)), [0.5, 0.25])
        cond = ss.step_condition(spec, ss.validate_steps(spec, 0.4, (0.4,)))
        assert cond.margin == pytest.approx((2.5 - 0.25) - 1.0 / (2.5 - 0.125))
        spec = single_block_spec()
        np.testing.assert_array_equal(np.diag(dense_minv(spec)), [1.0, 0.0])
        cond = ss.step_condition(spec, ss.validate_steps(spec, 0.4, (0.4,)))
        assert cond.margin == pytest.approx((2.5 - 0.5) - 1.0 / 2.5)

    def test_v_linearity_probe(self, rng):
        # a quadratic form: homogeneous of degree 2 and obeys the parallelogram law
        spec = single_block_spec()
        cfg = ss.validate_steps(spec, 0.4, (0.7,))
        for _ in range(20):
            u, w = rng.standard_normal(2), rng.standard_normal(2)
            a = float(rng.standard_normal())
            assert v_form(spec, cfg, a * u) == pytest.approx(a * a * v_form(spec, cfg, u))
            assert (v_form(spec, cfg, u + w) + v_form(spec, cfg, u - w)) == pytest.approx(
                2.0 * v_form(spec, cfg, u) + 2.0 * v_form(spec, cfg, w))


class TestCertifySkew:
    """Skewness of S is adjointness of each L_i, which ``adjoint(L[i])``
    samples relative to the size of its terms."""

    def test_passes_by_construction(self):
        rep = certify_operators(single_block_spec())[1]
        assert rep.name == "adjoint(L[0])" and rep.passed

    def test_zero_vector_margin_is_zero(self):
        # a zero L maps every sample to the zero vector: 0/0 reads as 0
        rep = certify_operators(single_block_spec(L=ss.matrix_op(np.zeros((2, 3))),
                                                  dims=(3, 2)))[1]
        assert rep.passed and rep.margin == 0.0

    def test_sign_flip_mutation_fails(self):
        L = ss.LinearOp(1, 1, lambda x: x, lambda y: -y)
        rep = certify_operators(single_block_spec(L=L))[1]
        assert not rep.passed
        assert rep.margin == pytest.approx(-1.0)


class TestCertifyStrongPositivity:
    """V - M^{-1}/2 is not sampled: a positive margin implies that it is
    positive definite (the solver's Schur-complement argument).  These
    tests check that implication on dense 2x2 instances."""

    def test_half_step_instance_passes(self):
        spec = single_block_spec()
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        cond = ss.step_condition(spec, cfg)
        assert cond.admissible and cond.rho == pytest.approx(1.0)
        assert min_eig(dense_v(spec, cfg) - 0.5 * dense_minv(spec)) > 0.0

    def test_proof_inequality_sampled(self):
        # mu = 0.2 at tau = sigma = 0.5: rho = 1 > 0, but the margin is -1
        # and V - M^{-1}/2 = [[2 - 2.5, -1], [-1, 2]] is indefinite
        spec = single_block_spec(mu=0.2)
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        cond = ss.step_condition(spec, cfg)
        assert cond.rho == pytest.approx(1.0) and cond.margin == pytest.approx(-1.0)
        assert not cond.admissible
        assert min_eig(dense_v(spec, cfg) - 0.5 * dense_minv(spec)) < 0.0
        # while V alone stays positive definite
        assert min_eig(dense_v(spec, cfg)) > 0.0

    def test_basis_vector_margins_match_diagonal(self):
        spec = single_block_spec()
        tau, sigma = 0.5, 0.25
        cfg = ss.validate_steps(spec, tau, (sigma,))
        assert v_form(spec, cfg, [1.0, 0.0]) == pytest.approx(1.0 / tau)
        assert v_form(spec, cfg, [0.0, 1.0]) == pytest.approx(1.0 / sigma)

    def test_overstated_rho_mutation_fails(self):
        # rho is tight for this instance: V - rho I is singular, V - 1.5 rho I
        # is indefinite
        spec = single_block_spec()
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        v = dense_v(spec, cfg)
        rho = ss.step_condition(spec, cfg).rho
        assert min_eig(v - rho * np.eye(2)) == pytest.approx(0.0, abs=1e-12)
        assert min_eig(v - 1.5 * rho * np.eye(2)) < 0.0

    def test_asymmetry_mutation_fails(self):
        # the cross term of V read through L and through L^T agrees only
        # when L^T is the adjoint; adjoint(L[0]) catches the mismatch
        mat = np.array([[1.0, 2.0], [0.0, 1.0]])
        L = ss.LinearOp(2, 2, lambda x: mat @ x, lambda y: mat @ y)
        spec = single_block_spec(L=L, dims=(2, 2))
        cfg = ss.validate_steps(spec, 0.1, (0.1,))
        x, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        sq = _sq_norms(x, [v])
        plan = _Workspace(spec, cfg.tau, cfg.sigmas)
        through_l = plan.quadform(x, [v], *sq)
        through_lt = plan.quadform(x, [v], *sq, dwsum=L.adjoint_apply(v))
        assert through_l != through_lt
        assert not verdicts(spec)["adjoint(L[0])"]


class TestCertifyQCocoercive:
    """Q = C + D_1^{-1} + ... is certified one component at a time, each
    against its own constant: (1/c) <du, dq> - ||dq||^2 >= -tol s with
    s = ||du|| ||dq|| / c + ||dq||^2."""

    def test_identity_with_unit_constant(self):
        assert all(verdicts(single_block_spec()).values())

    def test_overstated_constant_fails(self):
        # C = x is 1-cocoercive; declared 3 every pair gives
        # (1/3 - 1) / (1/3 + 1) = -1/2
        spec = single_block_spec(C=ss.CocoerciveOp(1, lambda x: x, 3.0))
        rep = certify_operators(spec)[0]
        assert rep.name == "cocoercivity(C)" and not rep.passed
        assert rep.margin == pytest.approx(-0.5)

    def test_componentwise_minimum(self):
        # the minimum min{mu, nu} = 2 of C = x/2 and Dinv = v/4 passes ...
        spec = single_block_spec(mu=2.0, Dinv=ss.CocoerciveOp(1, lambda v: v / 4.0, 4.0))
        assert all(verdicts(spec).values())
        # ... but it cannot see nu = 2 declared for the 1/2-cocoercive
        # Dinv = 2v next to mu = 1/4; the check against nu does
        spec = single_block_spec(mu=0.25, Dinv=ss.CocoerciveOp(1, lambda v: 2.0 * v, 2.0))
        assert verdicts(spec) == {"cocoercivity(C)": True, "adjoint(L[0])": True,
                                  "cocoercivity(Dinv[0])": False}

    @pytest.mark.parametrize("C, passed", [
        (ss.CocoerciveOp.zero(1), True),
        (ss.CocoerciveOp(1, lambda x: x, math.inf), False),
    ], ids=["zero-map", "identity"])
    def test_infinite_constant(self, C, passed):
        # 1/inf = 0 leaves -||dq||^2, which only the zero map meets; no cap, no NaN
        rep = certify_operators(single_block_spec(C=C))[0]
        assert rep.passed is passed
        assert rep.margin == (0.0 if passed else -1.0)


class TestCertifyOperators:
    def test_reports_in_order(self, rng):
        mats = [rng.standard_normal((3, 4)), rng.standard_normal((2, 4))]
        spec = ss.ProblemSpec(
            layout=ss.SpaceLayout(4, (3, 2), (0.5, 0.5)),
            A=ss.ResolventOp.zero(4),
            C=ss.CocoerciveOp(4, lambda x: 2.0 * x, 0.5),
            z=np.zeros(4),
            blocks=(ss.Block(B=ss.ResolventOp.zero(3), Dinv=ss.CocoerciveOp.zero(3),
                             L=ss.matrix_op(mats[0]), r=np.zeros(3)),
                    ss.Block(B=ss.ResolventOp.zero(2),
                             Dinv=ss.CocoerciveOp(2, lambda v: v / 4.0, 4.0),
                             L=ss.matrix_op(mats[1]), r=np.zeros(2))),
        )
        reports = certify_operators(spec, samples=30)
        assert [rep.name for rep in reports] == [
            "cocoercivity(C)", "adjoint(L[0])", "adjoint(L[1])",
            "cocoercivity(Dinv[0])", "cocoercivity(Dinv[1])"]
        assert all(rep.passed and rep.samples == 30 and rep.threshold == -TOL
                   for rep in reports)
        assert [rep.note for rep in reports] == ["mu = 0.5", "", "", "nu = inf", "nu = 4"]

    def test_seeded(self):
        spec = single_block_spec(C=ss.CocoerciveOp(1, np.sin, 1.0))
        assert certify_operators(spec, seed=4) == certify_operators(spec, seed=4)

    @pytest.mark.parametrize("mu", [1e-6, 0.5, 1.0, 1e6])
    def test_tight_constant_passes_at_any_scale(self, mu):
        spec = single_block_spec(mu=mu, L=ss.identity_op(5), dims=(5, 5))
        assert all(verdicts(spec).values())

    def test_non_finite_output_fails(self):
        spec = single_block_spec(C=ss.CocoerciveOp(1, lambda x: x * np.nan, 1.0))
        rep = certify_operators(spec)[0]
        assert not rep.passed and math.isnan(rep.margin)

    def test_untransposed_adjoint_fails(self, rng):
        mat = rng.standard_normal((3, 3))
        L = ss.LinearOp(3, 3, lambda x: mat @ x, lambda y: mat @ y)
        assert not verdicts(single_block_spec(L=L, dims=(3, 3)))["adjoint(L[0])"]

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4, 1e8])
    def test_scaled_matrix_passes(self, rng, scale):
        L = ss.matrix_op(scale * rng.standard_normal((4, 6)))
        assert all(verdicts(single_block_spec(L=L, dims=(6, 4))).values())

    @pytest.mark.parametrize("samples", [0, -3, 2.5, math.nan])
    def test_bad_sample_count_refused(self, samples):
        # no samples used to end in numpy's "zero-size array to reduction
        # operation minimum which has no identity"
        with pytest.raises(ValueError, match="^samples must be an integer >= 1, got "):
            certify_operators(single_block_spec(), samples=samples)


class TestFejerMonitor:
    """Distances to the final iterate in the renormed metric V, by the
    solver's own quadratic form, never increase on an exact run."""

    def test_converged_run_is_monotone(self, rng):
        spec = shrinkage_spec(n=4, weight=0.2, center=rng.standard_normal(4))
        cfg = ss.suggest_steps(spec)
        report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=1e-13, max_iter=5000),
                        record_states=True)
        assert not report.used_errors
        assert np.diff(v_distances(spec, cfg, report.states)).max() <= 1e-10

    def test_constant_run_at_fixed_point_is_zero(self):
        spec = shrinkage_spec(n=3)  # origin is the fixed point
        cfg = ss.suggest_steps(spec)
        report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=1e-9, max_iter=10),
                        record_states=True)
        dists = v_distances(spec, cfg, report.states)
        np.testing.assert_array_equal(dists, np.zeros_like(dists))
