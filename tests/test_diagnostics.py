import dataclasses
import math

import numpy as np
import pytest

import splitsolve as ss
from splitsolve.diagnostics import (
    build_product_ops,
    certify_Q_cocoercive,
    certify_skew,
    certify_strong_positivity,
    fejer_monitor,
)
from splitsolve.solver import BETA_CAP
from splitsolve.spaces import inner_weighted

from conftest import assert_same_bits, shrinkage_spec


def single_block_spec(tau_free=True, dinv_scale=None, mu=1.0):
    n = 1
    layout = ss.SpaceLayout(n, (n,), (1.0,))
    if dinv_scale is None:
        dinv = ss.CocoerciveOp.zero(n)
    else:
        dinv = ss.CocoerciveOp(n, lambda v: dinv_scale * v, 1.0 / dinv_scale)
    return ss.ProblemSpec(
        layout=layout,
        A=ss.ResolventOp.zero(n),
        C=ss.CocoerciveOp(n, lambda x: x / mu, mu),
        z=np.zeros(n),
        blocks=(ss.Block(B=ss.ResolventOp.zero(n), Dinv=dinv,
                         L=ss.identity_op(n), r=np.zeros(n)),),
    )


def flat(primal, duals):
    return np.concatenate([np.asarray(primal, float),
                           *(np.asarray(d, float) for d in duals)])


class TestBuildProductOps:
    def test_coupling_map_form_and_skewness(self):
        spec = single_block_spec()
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        ops = build_product_ops(spec, cfg)
        u = flat([2.0], [[3.0]])
        su = ops.S_apply(u)
        x, v = spec.layout.split(su)
        assert x[0] == 3.0
        assert v[0][0] == -2.0
        assert inner_weighted(u, su, spec.layout) == 0.0

    def test_renorm_map_unit_steps(self):
        spec = single_block_spec()
        cfg = ss.validate_steps(spec, 1.0, (1.0,))
        ops = build_product_ops(spec, cfg)
        u = flat([2.0], [[5.0]])
        x, v = spec.layout.split(ops.V_apply(u))
        assert x[0] == pytest.approx(2.0 - 5.0)
        assert v[0][0] == pytest.approx(5.0 - 2.0)

    def test_cocoercive_map_collects_components(self):
        spec = single_block_spec()  # C = Id, Dinv = 0
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        ops = build_product_ops(spec, cfg)
        x, v = spec.layout.split(ops.Q_apply(flat([1.5], [[2.5]])))
        assert x[0] == 1.5
        assert v[0][0] == 0.0

    def test_inverse_constants_map(self):
        # C = x/2 (mu = 2) and Dinv = v/4 (nu = 4); a zero map contributes 1/inf = 0
        spec = single_block_spec(dinv_scale=0.25, mu=2.0)
        ops = build_product_ops(spec, ss.validate_steps(spec, 0.4, (0.4,)))
        assert_same_bits(ops.Minv_apply(flat([3.0], [[8.0]])), [1.5, 2.0])
        spec = single_block_spec()
        ops = build_product_ops(spec, ss.validate_steps(spec, 0.4, (0.4,)))
        assert_same_bits(ops.Minv_apply(flat([3.0], [[8.0]])), [3.0, 0.0])

    def test_v_linearity_probe(self, rng):
        spec = single_block_spec()
        cfg = ss.validate_steps(spec, 0.4, (0.7,))
        ops = build_product_ops(spec, cfg)
        for _ in range(20):
            u = flat(rng.standard_normal(1), [rng.standard_normal(1)])
            w = flat(rng.standard_normal(1), [rng.standard_normal(1)])
            a = float(rng.standard_normal())
            left = ops.V_apply(a * u + w)
            right = a * ops.V_apply(u) + ops.V_apply(w)
            np.testing.assert_allclose(left, right, atol=1e-12)


class TestCertifySkew:
    def test_passes_by_construction(self):
        spec = single_block_spec()
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        rep = certify_skew(build_product_ops(spec, cfg))
        assert rep.passed

    def test_zero_vector_margin_is_zero(self):
        spec = single_block_spec()
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        ops = build_product_ops(spec, cfg)
        z = flat([0.0], [[0.0]])
        assert inner_weighted(z, ops.S_apply(z), spec.layout) == 0.0

    def test_sign_flip_mutation_fails(self):
        spec = single_block_spec()
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        ops = build_product_ops(spec, cfg)

        def flip_duals(u):
            su = ops.S_apply(u)
            su[spec.layout.dim_primal:] *= -1.0
            return su

        corrupted = dataclasses.replace(ops, S_apply=flip_duals)
        assert not certify_skew(corrupted).passed


class TestCertifyStrongPositivity:
    def test_half_step_instance_passes(self):
        spec = single_block_spec()
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        assert cfg.rho == pytest.approx(1.0)
        rep = certify_strong_positivity(build_product_ops(spec, cfg))
        assert rep.passed and not rep.vacuous

    def test_inadmissible_reports_vacuous(self):
        spec = single_block_spec()
        cfg = ss.validate_steps(spec, 2.0, (2.0,))
        assert cfg.rho < 0
        rep = certify_strong_positivity(build_product_ops(spec, cfg))
        assert rep.vacuous and not rep.passed
        assert "rho" in rep.note

    def test_proof_inequality_sampled(self):
        # mu = 0.2 at tau = sigma = 0.5: rho = 1 > 0, but the margin is -1
        # and V - M^{-1}/2 = [[2 - 2.5, -1], [-1, 2]] is indefinite
        spec = single_block_spec(mu=0.2)
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        assert cfg.rho == pytest.approx(1.0) and not cfg.admissible
        ops = build_product_ops(spec, cfg)
        rep = certify_strong_positivity(ops)
        assert not rep.passed and not rep.vacuous
        assert "V - M^-1/2 bound -" in rep.note
        # the same samples pass the rho bound alone
        no_minv = dataclasses.replace(ops, Minv_apply=np.zeros_like)
        assert certify_strong_positivity(no_minv).passed

    def test_basis_vector_margins_match_diagonal(self):
        spec = single_block_spec()
        tau, sigma = 0.5, 0.25
        cfg = ss.validate_steps(spec, tau, (sigma,))
        ops = build_product_ops(spec, cfg)
        e_primal = flat([1.0], [[0.0]])
        e_dual = flat([0.0], [[1.0]])
        qp = inner_weighted(e_primal, ops.V_apply(e_primal), spec.layout)
        qd = inner_weighted(e_dual, ops.V_apply(e_dual), spec.layout)
        assert qp == pytest.approx(1.0 / tau)
        assert qd == pytest.approx(1.0 / sigma)  # weight 1 block

    def test_overstated_rho_mutation_fails(self):
        # rho is tight for this instance, so inflating it must break the bound
        spec = single_block_spec()
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        ops = build_product_ops(spec, cfg)
        inflated = dataclasses.replace(ops, rho=1.5 * ops.rho)
        assert not certify_strong_positivity(inflated, samples=200).passed

    def test_asymmetry_mutation_fails(self):
        spec = single_block_spec()
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        ops = build_product_ops(spec, cfg)

        def asymmetric(u):
            out = ops.V_apply(u)
            out[0] += 2.0 * u[1] * 0.5
            return out

        assert not certify_strong_positivity(
            dataclasses.replace(ops, V_apply=asymmetric)).passed


class TestCertifyQCocoercive:
    def test_identity_with_unit_constant(self):
        spec = single_block_spec()
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        rep = certify_Q_cocoercive(build_product_ops(spec, cfg))
        assert rep.passed and cfg.beta == 1.0

    def test_overstated_constant_fails(self):
        spec = single_block_spec()
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        rep = certify_Q_cocoercive(build_product_ops(spec, cfg), beta=3.0)
        assert not rep.passed

    def test_componentwise_minimum(self):
        # C = x/2 (constant 2) and Dinv = v/4 (constant 4) pass with beta 2
        spec = single_block_spec(dinv_scale=0.25, mu=2.0)
        cfg = ss.validate_steps(spec, 0.4, (0.4,))
        assert cfg.beta == 2.0
        rep = certify_Q_cocoercive(build_product_ops(spec, cfg))
        assert rep.passed

    @pytest.mark.parametrize("C, passed", [
        (ss.CocoerciveOp.zero(1), True),
        (ss.CocoerciveOp(1, lambda x: x, math.inf), False),
    ], ids=["zero-map", "identity"])
    def test_infinite_constant(self, C, passed):
        # every constant infinite caps beta at BETA_CAP, which only the
        # zero map satisfies
        spec = dataclasses.replace(single_block_spec(), C=C)
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        assert cfg.beta == BETA_CAP
        assert certify_Q_cocoercive(build_product_ops(spec, cfg)).passed is passed


class TestFejerMonitor:
    def test_converged_run_is_monotone(self, rng):
        spec = shrinkage_spec(n=4, weight=0.2, center=rng.standard_normal(4))
        cfg = ss.suggest_steps(spec)
        report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=1e-13, max_iter=5000),
                        record_states=True)
        series = fejer_monitor(report, build_product_ops(spec, cfg))
        assert not series.declined
        assert series.monotone
        assert series.max_increase <= 1e-10

    def test_constant_run_at_fixed_point_is_zero(self):
        spec = shrinkage_spec(n=3)  # origin is the fixed point
        cfg = ss.suggest_steps(spec)
        report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=1e-9, max_iter=10),
                        record_states=True)
        series = fejer_monitor(report, build_product_ops(spec, cfg))
        assert not series.declined
        np.testing.assert_array_equal(series.distances, np.zeros_like(series.distances))

    def test_error_injected_run_declined(self, rng):
        spec = shrinkage_spec(n=3, center=rng.standard_normal(3))
        cfg = ss.suggest_steps(spec)
        report = ss.run(spec, cfg,
                        errors=ss.geometric_errors(spec.layout, 0.1, 0.9),
                        stop=ss.StoppingRule(tol=1e-12, max_iter=2000),
                        record_states=True)
        series = fejer_monitor(report, build_product_ops(spec, cfg))
        assert series.declined
        assert "error" in series.reason

    def test_missing_states_declined(self):
        spec = shrinkage_spec(n=2)
        cfg = ss.suggest_steps(spec)
        report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=1e-9, max_iter=10))
        series = fejer_monitor(report, build_product_ops(spec, cfg))
        assert series.declined
        assert "record_states" in series.reason
