import math

import numpy as np
import pytest

from splitsolve.operators import (
    CocoerciveOp,
    LinearOp,
    ResolventOp,
    catalog_prox,
    check_cocoercive,
    diff1d_op,
    estimate_norm,
    grad2d_op,
    identity_op,
    matrix_op,
    prox_conjugate,
    resolvent_from_prox,
    resolvent_of_inverse,
)

from splitsolve.solver import POWER_MAX_ITER, POWER_TOL

from conftest import assert_same_bits, materialize


def catalog_instances(dim=4, rng=None):
    rng = rng or np.random.default_rng(3)
    return [
        catalog_prox("sq_l2", dim, weight=1.5, center=rng.standard_normal(dim)),
        catalog_prox("l1", dim, weight=0.7),
        catalog_prox("box", dim, lo=-1.0, hi=2.0),
        catalog_prox("point", dim, point=rng.standard_normal(dim)),
        catalog_prox("zero", dim),
        catalog_prox("linear", dim, a=rng.standard_normal(dim)),
        catalog_prox("l2", dim, weight=1.2),
    ]


class TestEstimateNorm:
    def test_identity(self):
        L = identity_op(5)
        bare = LinearOp(5, 5, L.apply, L.adjoint_apply)  # drop the hint
        est = estimate_norm(bare, tol=1e-10)
        assert est.converged
        assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_diagonal(self):
        L = matrix_op(np.diag([1.0, 2.0]))
        est = estimate_norm(L, tol=1e-10)
        assert est.value == pytest.approx(2.0, abs=1e-8)

    def test_forward_difference_closed_form(self):
        n = 50
        op = diff1d_op(n)
        bare = LinearOp(n, n - 1, op.apply, op.adjoint_apply)
        est = estimate_norm(bare, tol=1e-8, max_iter=10000, seed=0)
        expected = 2.0 * math.sin((n - 1) * math.pi / (2 * n))
        assert est.converged
        assert est.value == pytest.approx(expected, abs=1e-6)
        # dense SVD oracle agrees with the closed form
        svd_top = np.linalg.svd(materialize(bare), compute_uv=False)[0]
        assert svd_top == pytest.approx(expected, rel=1e-12)
        assert op.norm_hint == pytest.approx(expected, rel=1e-15)

    def test_hint_is_never_undercut(self):
        L = LinearOp(3, 3, lambda x: 0.5 * x, lambda y: 0.5 * y, norm_hint=0.8)
        est = estimate_norm(L)
        assert est.value == pytest.approx(0.8)
        # a hint below the true norm is repaired by the estimate
        L2 = LinearOp(3, 3, lambda x: 2.0 * x, lambda y: 2.0 * y, norm_hint=0.1)
        assert estimate_norm(L2).value == pytest.approx(2.0, abs=1e-7)

    def test_no_underestimation(self, rng):
        mat = rng.standard_normal((6, 4))
        L = matrix_op(mat)
        tol = 1e-8
        est = estimate_norm(L, tol=tol)
        for _ in range(100):
            x = rng.standard_normal(4)
            quotient = np.linalg.norm(L.apply(x)) / np.linalg.norm(x)
            assert est.value >= quotient - tol

    def test_zero_operator(self):
        L = LinearOp(3, 3, lambda x: np.zeros(3), lambda y: np.zeros(3))
        est = estimate_norm(L)
        assert est.value == 0.0
        assert est.converged

    def test_grad2d_hint_matches_svd(self):
        op = grad2d_op(3, 4)
        svd_top = np.linalg.svd(materialize(op), compute_uv=False)[0]
        assert op.norm_hint >= svd_top - 1e-12
        assert op.norm_hint == pytest.approx(svd_top, rel=1e-12)


class TestClosedFormDominatesEstimate:
    """The solver's power estimate of a bare copy stays at or below the
    closed-form hint, so certified_norms, which used max(hint, estimate),
    gets the same bits from the hint alone."""

    @staticmethod
    def bare_estimate(op):
        bare = LinearOp(op.in_dim, op.out_dim, op.apply, op.adjoint_apply)
        return estimate_norm(bare, tol=POWER_TOL, max_iter=POWER_MAX_ITER).value

    def test_diff1d(self):
        for n in range(2, 65):
            op = diff1d_op(n)
            assert self.bare_estimate(op) <= op.norm_hint, n

    def test_grad2d(self):
        for rows in range(2, 13):
            for cols in range(2, 13):
                op = grad2d_op(rows, cols)
                est = self.bare_estimate(op)
                if (rows, cols) == (2, 2):
                    # the exact norm 2 is a double and power iteration reaches
                    # it; the closed form rounds to one ulp below
                    assert est == 2.0 == math.nextafter(op.norm_hint, math.inf)
                else:
                    assert est <= op.norm_hint, (rows, cols)


class TestAdjoints:
    @pytest.mark.parametrize("op", [
        identity_op(5),
        diff1d_op(7),
        grad2d_op(3, 4),
        matrix_op(np.random.default_rng(0).standard_normal((4, 6))),
    ], ids=["identity", "diff1d", "grad2d", "matrix"])
    def test_adjoint_identity(self, op, rng):
        for _ in range(100):
            x = rng.standard_normal(op.in_dim)
            v = rng.standard_normal(op.out_dim)
            lhs = float(np.dot(op.apply(x), v))
            rhs = float(np.dot(x, op.adjoint_apply(v)))
            assert abs(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(x) * np.linalg.norm(v))

    def test_linearity_probes(self, rng):
        op = diff1d_op(6)
        for _ in range(100):
            x, y = rng.standard_normal(6), rng.standard_normal(6)
            a = float(rng.standard_normal())
            lhs = op.apply(a * x + y)
            rhs = a * op.apply(x) + op.apply(y)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestResolventOfInverse:
    def test_zero_operator_collapses(self):
        B = ResolventOp.zero(3)
        for sigma in (0.5, 1.0, 2.0):
            v = np.array([1.0, -2.0, 3.0])
            np.testing.assert_array_almost_equal(
                resolvent_of_inverse(B, sigma, v), np.zeros(3), decimal=15
            )

    def test_identity_operator(self):
        # B = Id has resolvent w / (1 + gamma); solving v in (Id + B^{-1}) u
        # by hand gives u = v / 2 for sigma = 1
        B = resolvent_from_prox(catalog_prox("sq_l2", 1, weight=1.0))
        out = resolvent_of_inverse(B, 1.0, np.array([2.0]))
        assert out[0] == pytest.approx(1.0, abs=1e-15)

    def test_identity_operator_sigma_two(self):
        # u + 2u = 3 gives u = 1
        B = resolvent_from_prox(catalog_prox("sq_l2", 1, weight=1.0))
        out = resolvent_of_inverse(B, 2.0, np.array([3.0]))
        assert out[0] == pytest.approx(1.0, abs=1e-15)

    def test_defining_inclusion_on_evaluable_operator(self, rng):
        # B = c Id has inverse u -> u / c, so v - u must equal sigma * u / c
        for c in (0.5, 1.0, 3.0):
            B = resolvent_from_prox(catalog_prox("sq_l2", 4, weight=c))
            for sigma in (0.3, 1.7):
                v = rng.standard_normal(4)
                u = resolvent_of_inverse(B, sigma, v)
                np.testing.assert_allclose(v - u, sigma * u / c, atol=1e-12)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            resolvent_of_inverse(ResolventOp.zero(1), 0.0, np.array([1.0]))


class TestProxConjugate:
    def test_self_conjugate_quadratic(self):
        g = catalog_prox("sq_l2", 1, weight=1.0)
        out = prox_conjugate(g, 1.0, np.array([2.0]))
        assert out[0] == pytest.approx(1.0, abs=1e-15)

    def test_l1_interval_projection_inside(self):
        g = catalog_prox("l1", 1, weight=1.0)
        assert prox_conjugate(g, 1.0, np.array([0.5]))[0] == pytest.approx(0.5, abs=1e-15)

    def test_l1_interval_projection_clamps(self):
        g = catalog_prox("l1", 1, weight=1.0)
        assert prox_conjugate(g, 1.0, np.array([3.0]))[0] == pytest.approx(1.0, abs=1e-15)

    def test_moreau_identity_exact(self, rng):
        # the decomposition holds by construction; recomposition costs at
        # most one rounding step per entry
        for g in catalog_instances():
            for sigma in (0.4, 1.0, 2.5):
                v = rng.standard_normal(g.dim)
                lhs = prox_conjugate(g, sigma, v) + sigma * g.prox(1.0 / sigma, v / sigma)
                np.testing.assert_array_almost_equal_nulp(lhs, v, nulp=16)

    def test_conjugate_subgradient_characterization(self, rng):
        # p = prox of sigma g* minimizes sigma g*(y) + 0.5 ||v - y||^2
        for g in catalog_instances():
            if g.conjugate_value is None:
                continue
            for _ in range(20):
                sigma = 1.3
                v = rng.standard_normal(g.dim)
                p = prox_conjugate(g, sigma, v)
                fp = g.conjugate_value(p)
                assert math.isfinite(fp)
                y = rng.standard_normal(g.dim)
                fy = g.conjugate_value(y)
                if math.isinf(fy):
                    continue
                assert sigma * fy >= sigma * fp + float(np.dot(v - p, y - p)) - 1e-8


class TestCatalog:
    def test_soft_threshold(self):
        g = catalog_prox("l1", 1)
        assert g.prox(1.0, np.array([3.0]))[0] == pytest.approx(2.0, abs=0)

    def test_zero_function_prox_is_identity(self, rng):
        g = catalog_prox("zero", 5)
        w = rng.standard_normal(5)
        np.testing.assert_array_equal(g.prox(7.3, w), w)

    def test_box_clamps(self):
        g = catalog_prox("box", 3, lo=0.0, hi=1.0)
        np.testing.assert_array_equal(
            g.prox(1.0, np.array([-0.5, 0.3, 7.0])), np.array([0.0, 0.3, 1.0])
        )

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            catalog_prox("box", 2, lo=1.0, hi=0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown prox kind"):
            catalog_prox("entropy", 3)

    def test_firm_nonexpansiveness(self, rng):
        for g in catalog_instances():
            for _ in range(50):
                gamma = float(rng.uniform(0.1, 3.0))
                w1, w2 = rng.standard_normal(g.dim), rng.standard_normal(g.dim)
                p1, p2 = g.prox(gamma, w1), g.prox(gamma, w2)
                lhs = float(np.dot(p1 - p2, p1 - p2))
                rhs = float(np.dot(p1 - p2, w1 - w2))
                assert lhs <= rhs + 1e-10

    def test_prox_optimality_surrogate(self, rng):
        # gamma f(y) >= gamma f(p) + <w - p, y - p> for the minimizer p
        for g in catalog_instances():
            for _ in range(30):
                gamma = float(rng.uniform(0.2, 2.0))
                w = rng.standard_normal(g.dim)
                p = g.prox(gamma, w)
                fp = g.evaluate(p)
                assert math.isfinite(fp)
                y = g.prox(1.0, rng.standard_normal(g.dim) * 2.0)  # a domain point
                fy = g.evaluate(y)
                assert gamma * fy >= gamma * fp + float(np.dot(w - p, y - p)) - 1e-8

    def test_resolvent_firm_nonexpansiveness(self, rng):
        ops = [resolvent_from_prox(g) for g in catalog_instances()]
        ops.append(ResolventOp.zero(4))
        for op in ops:
            for _ in range(40):
                gamma = float(rng.uniform(0.1, 2.0))
                w1 = rng.standard_normal(op.dim)
                w2 = rng.standard_normal(op.dim)
                j1, j2 = op.resolvent(gamma, w1), op.resolvent(gamma, w2)
                lhs = float(np.dot(j1 - j2, j1 - j2))
                rhs = float(np.dot(j1 - j2, w1 - w2))
                assert lhs <= rhs + 1e-10


class TestCheckCocoercive:
    def test_identity_with_constant_one(self):
        T = CocoerciveOp(3, lambda x: x, 1.0)
        rep = check_cocoercive(T, samples=50, seed=1)
        assert rep.passed
        assert rep.min_margin == pytest.approx(0.0, abs=1e-12)

    def test_identity_with_overstated_constant(self):
        T = CocoerciveOp(3, lambda x: x, 2.0)
        rep = check_cocoercive(T, samples=50, seed=1)
        assert not rep.passed
        assert rep.min_margin < -1e-3

    def test_quarter_scaling(self):
        T = CocoerciveOp(3, lambda x: x / 4.0, 4.0)
        rep = check_cocoercive(T, samples=50, seed=1)
        assert rep.passed

    def test_zero_map_with_infinite_constant(self):
        T = CocoerciveOp.zero(4)
        rep = check_cocoercive(T, samples=20, seed=2)
        assert rep.passed and rep.min_margin == 0.0

    def test_nonzero_map_with_infinite_constant_fails(self):
        T = CocoerciveOp(2, lambda x: x, math.inf)
        assert not check_cocoercive(T, samples=10, seed=3).passed


class TestPlainFormulas:
    """The built-in maps write into their output array; their values
    must equal the plain allocating formulas bit for bit, signed zeros
    included."""

    @staticmethod
    def signed(rng, size):
        w = rng.standard_normal(size)
        w[:4] = (0.0, -0.0, 0.2, -0.2)
        return w

    def test_grad2d(self, rng):
        rows, cols = 5, 7
        op = grad2d_op(rows, cols)
        img = self.signed(rng, rows * cols).reshape(rows, cols)
        assert_same_bits(op.apply(img.ravel()), np.concatenate([
            (img[1:, :] - img[:-1, :]).ravel(), (img[:, 1:] - img[:, :-1]).ravel()]))
        y = self.signed(rng, op.out_dim)
        n_v = (rows - 1) * cols
        dv, dh = y[:n_v].reshape(rows - 1, cols), y[n_v:].reshape(rows, cols - 1)
        out = np.zeros((rows, cols))
        out[:-1, :] -= dv
        out[1:, :] += dv
        out[:, :-1] -= dh
        out[:, 1:] += dh
        assert_same_bits(op.adjoint_apply(y), out.ravel())
        assert_same_bits(op.adjoint_apply(-np.zeros(op.out_dim)), np.zeros(rows * cols))

    def test_diff1d_adjoint(self, rng):
        op = diff1d_op(9)
        y = self.signed(rng, 8)
        out = np.zeros(9)
        out[:-1] -= y
        out[1:] += y
        assert_same_bits(op.adjoint_apply(y), out)
        assert_same_bits(op.adjoint_apply(-np.zeros(8)), np.zeros(9))

    def test_pass_through_maps_return_their_input(self, rng):
        w = rng.standard_normal(5)
        op = identity_op(5)
        assert op.apply(w) is w
        assert op.adjoint_apply(w) is w
        assert catalog_prox("zero", 5).prox(0.7, w) is w

    def test_catalog_proxes(self, rng):
        w = self.signed(rng, 12)
        b = rng.standard_normal(12)
        gamma = 0.7
        assert_same_bits(catalog_prox("l1", 12, weight=0.3).prox(gamma, w),
                       np.sign(w) * np.maximum(np.abs(w) - gamma * 0.3, 0.0))
        assert_same_bits(catalog_prox("sq_l2", 12, weight=1.5, center=b).prox(gamma, w),
                       (w + gamma * 1.5 * b) / (1.0 + gamma * 1.5))
        assert_same_bits(catalog_prox("linear", 12, a=b).prox(gamma, w), w - gamma * b)

    def test_estimate_norm(self, rng):
        op = matrix_op(rng.standard_normal((6, 9)))
        x = np.random.default_rng(4).standard_normal(9)
        x = x / np.linalg.norm(x)
        for iterations in range(1, 51):
            w = op.adjoint_apply(op.apply(x))
            lam = float(np.dot(x, w))
            if float(np.linalg.norm(w - lam * x)) <= 1e-12 * abs(lam):
                break
            x = w / float(np.linalg.norm(w))
        est = estimate_norm(op, tol=1e-12, max_iter=50, seed=4)
        assert est.iterations == iterations
        assert_same_bits(est.value, math.sqrt(lam))

    def test_zero_map_shares_one_read_only_array(self):
        T = CocoerciveOp.zero(3)
        first, second = T.apply(np.ones(3)), T.apply(np.arange(3.0))
        assert first is second
        assert_same_bits(first, np.zeros(3))
        with pytest.raises(ValueError):
            first[0] = 1.0
