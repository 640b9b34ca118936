import math

import numpy as np
import pytest

import splitsolve as ss
from splitsolve.spaces import (
    ShapeMismatchError,
    SpaceLayout,
    inner_blocks,
)


def flat(primal, duals):
    return np.concatenate([np.asarray(primal, float),
                           *(np.asarray(d, float) for d in duals)])


def inner_weighted(a, b, lay):
    """Weighted inner product of two flat product-space arrays, the
    reduction the solver uses for its norms."""
    return inner_blocks(lay.weights, *lay.split(a), *lay.split(b))


def norm(a, lay):
    return inner_weighted(a, a, lay) ** 0.5


class TestLayout:
    def test_valid(self):
        lay = SpaceLayout(3, (2, 4), (0.25, 0.75))
        assert lay.num_blocks == 2
        assert lay.size == 9

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SpaceLayout(3, (2,), (0.5,))

    def test_weight_range(self):
        with pytest.raises(ValueError, match="0, 1"):
            SpaceLayout(3, (2, 2), (1.5, -0.5))

    def test_positive_dims(self):
        with pytest.raises(ValueError):
            SpaceLayout(0, (2,), (1.0,))
        with pytest.raises(ValueError):
            SpaceLayout(3, (), ())

    def test_weight_sum_tolerance(self):
        # off by 1e-13 is fine, off by 1e-6 is not
        SpaceLayout(1, (1, 1), (0.5, 0.5 + 1e-13))
        with pytest.raises(ValueError):
            SpaceLayout(1, (1, 1), (0.5, 0.5 + 1e-6))


class TestSplit:
    def test_views_in_block_order(self):
        lay = SpaceLayout(3, (2, 4), (0.25, 0.75))
        u = np.arange(9.0)
        x, v = lay.split(u)
        np.testing.assert_array_equal(x, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(v[0], [3.0, 4.0])
        np.testing.assert_array_equal(v[1], [5.0, 6.0, 7.0, 8.0])
        for part in (x, *v):
            assert np.shares_memory(part, u)

    def test_writes_through_views(self):
        lay = SpaceLayout(1, (2,), (1.0,))
        u = np.zeros(3)
        x, v = lay.split(u)
        v[0][1] = 5.0
        x[0] = -1.0
        np.testing.assert_array_equal(u, [-1.0, 0.0, 5.0])

    @pytest.mark.parametrize("shape", [(8,), (10,), (3, 3), ()])
    def test_wrong_shape_raises(self, shape):
        lay = SpaceLayout(3, (2, 4), (0.25, 0.75))
        with pytest.raises(ShapeMismatchError, match=r"expected shape \(9,\)"):
            lay.split(np.zeros(shape))


class TestInnerWeighted:
    def test_unit_entries(self):
        lay = SpaceLayout(1, (1,), (1.0,))
        a = flat([1.0], [[1.0]])
        assert inner_weighted(a, a, lay) == pytest.approx(2.0, abs=0)

    def test_orthogonal_blocks(self):
        lay = SpaceLayout(2, (1,), (1.0,))
        a = flat([1.0, 0.0], [[0.0]])
        b = flat([0.0, 1.0], [[0.0]])
        assert inner_weighted(a, b, lay) == 0.0

    def test_weighted_dual_blocks(self):
        lay = SpaceLayout(1, (1, 1), (0.5, 0.5))
        a = flat([0.0], [[2.0], [4.0]])
        assert inner_weighted(a, a, lay) == pytest.approx(10.0, rel=1e-15)

    def test_reduction_order_is_primal_then_ascending_blocks(self):
        lay = SpaceLayout(2, (3, 1, 2), (0.2, 0.3, 0.5))
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        want = float(np.dot(a[:2], b[:2]))
        want += 0.2 * float(np.dot(a[2:5], b[2:5]))
        want += 0.3 * float(np.dot(a[5:6], b[5:6]))
        want += 0.5 * float(np.dot(a[6:], b[6:]))
        assert inner_weighted(a, b, lay) == want

    def test_shape_mismatch_names_block(self):
        lay = SpaceLayout(2, (3,), (1.0,))
        good = np.zeros(lay.size)
        with pytest.raises(ShapeMismatchError, match="block 'u'"):
            inner_weighted(good, np.zeros(4), lay)
        with pytest.raises(ShapeMismatchError, match=r"expected shape \(5,\), got \(6,\)"):
            inner_weighted(np.zeros(6), good, lay)


class TestNormWeighted:
    def test_zero_vector(self):
        lay = SpaceLayout(2, (2,), (1.0,))
        assert norm(np.zeros(lay.size), lay) == 0.0

    def test_three_four_five(self):
        lay = SpaceLayout(1, (1,), (1.0,))
        assert norm(flat([3.0], [[4.0]]), lay) == pytest.approx(5.0, rel=1e-15)

    def test_weighted(self):
        lay = SpaceLayout(1, (1, 1), (0.25, 0.75))
        a = flat([0.0], [[2.0], [2.0]])
        assert norm(a, lay) == pytest.approx(2.0, rel=1e-15)


class TestMetricProperties:
    def setup_method(self):
        self.lay = SpaceLayout(3, (2, 4), (0.3, 0.7))
        self.rng = np.random.default_rng(7)

    def sample(self):
        return flat(self.rng.standard_normal(3),
                    [self.rng.standard_normal(2), self.rng.standard_normal(4)])

    def test_bilinearity(self):
        for _ in range(50):
            a, b, c = self.sample(), self.sample(), self.sample()
            alpha = float(self.rng.standard_normal())
            lhs = inner_weighted(b + alpha * a, c, self.lay)
            rhs = alpha * inner_weighted(a, c, self.lay) + inner_weighted(b, c, self.lay)
            assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))

    def test_cauchy_schwarz(self):
        for _ in range(100):
            a, b = self.sample(), self.sample()
            lhs = abs(inner_weighted(a, b, self.lay))
            rhs = norm(a, self.lay) * norm(b, self.lay)
            assert lhs <= rhs + 1e-12

    def test_norm_squares_inner(self):
        # the solver's step norms are the norm induced by inner_weighted,
        # bit for bit
        spec = ss.ProblemSpec(
            layout=self.lay,
            A=ss.ResolventOp.zero(3),
            C=ss.CocoerciveOp(3, lambda x: x, 1.0),
            z=np.zeros(3),
            blocks=tuple(
                ss.Block(B=ss.resolvent_from_prox(ss.catalog_prox("l1", d, weight=0.5)),
                         Dinv=ss.CocoerciveOp.zero(d),
                         L=ss.matrix_op(self.rng.standard_normal((d, 3))),
                         r=np.zeros(d))
                for d in self.lay.dual_dims),
        )
        cfg = ss.suggest_steps(spec, lam=0.8)
        report = ss.run(spec, cfg, x0=self.rng.standard_normal(3),
                        stop=ss.StoppingRule(tol=0.0, max_iter=20), record_states=True)
        for rec, a, b in zip(report.history, report.states, report.states[1:]):
            d = b.u - a.u
            assert rec.step_norm == math.sqrt(inner_weighted(d, d, spec.layout))
