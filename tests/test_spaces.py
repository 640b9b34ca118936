import dataclasses
import math
import re

import numpy as np
import pytest

import splitsolve as ss
from splitsolve import benchmarks
from splitsolve.spaces import ShapeMismatchError, SpaceLayout, _vectors

from conftest import inner_blocks


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
        with pytest.raises(ShapeMismatchError, match=r"^u must be a vector of length 9, got shape"):
            lay.split(np.zeros(shape))


class TestVectors:
    """``_vectors``: float64 vectors, each one of at least a page (512
    entries) at its own page offset, the shorter ones plain arrays."""

    LENGTHS = (3, 511, 512, 700, 16384, 1, 1536, 512)

    @pytest.mark.parametrize("first", [0, 5, 13, 70])
    def test_contract(self, first):
        vecs = _vectors(*self.LENGTHS, first=first)
        assert [a.shape for a in vecs] == [(n,) for n in self.LENGTHS]
        for a in vecs:
            assert a.dtype == np.float64
            assert a.flags.c_contiguous and a.flags.writeable
        for i, a in enumerate(vecs):
            assert not any(np.shares_memory(a, b) for b in vecs[i + 1:])
        for k, (n, a) in enumerate(zip(self.LENGTHS, vecs), first):
            if n >= 512:
                assert a.ctypes.data % 4096 == k * 320 % 4096
            else:
                assert a.base is None and a.flags.owndata


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
        with pytest.raises(ShapeMismatchError, match="^u must be"):
            inner_weighted(good, np.zeros(4), lay)
        with pytest.raises(ShapeMismatchError, match=r"^u must be a vector of length 5, got shape \(6,\)$"):
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


# ---------------------------------------------------------------------------
# one refusal for every vector argument and every per-block sequence


def _two_block():
    """The two-block problem (H of length 8, G of lengths 7 and 5), its
    inclusion and suggested steps."""
    cp, _ = benchmarks.condat_problem()
    return cp, cp.spec, ss.suggest_steps(cp.spec)


def _one_row(spec, cfg, **errors):
    return ss.run(spec, cfg, stop=ss.StoppingRule(max_iter=1),
                  errors=lambda n: ss.IterationErrors(**errors))


def _replace_block(problem, i, **change):
    blocks = list(problem.blocks)
    blocks[i] = dataclasses.replace(blocks[i], **change)
    return dataclasses.replace(problem, blocks=tuple(blocks))


#: entry point -> (argument name, length, call of a value, whether a 0-d
#: value is filled to the length rather than refused)
VECTOR_ENTRIES = {
    "initial_state x0": ("x", 8, lambda cp, spec, cfg, w: ss.initial_state(spec.layout, x0=w), False),
    "initial_state v0": ("v[1]", 5, lambda cp, spec, cfg, w: ss.initial_state(
        spec.layout, v0=(np.zeros(7), w)), False),
    "run x0": ("x", 8, lambda cp, spec, cfg, w: ss.run(spec, cfg, x0=w), False),
    "kkt_residual v": ("v[0]", 7, lambda cp, spec, cfg, w: ss.kkt_residual(
        cp, np.zeros(8), (w, np.zeros(5))), False),
    "evaluate_gap x": ("x", 8, lambda cp, spec, cfg, w: ss.evaluate_gap(
        cp, w, (np.zeros(7), np.zeros(5))), False),
    "run a1": ("IterationErrors.a1", 8, lambda cp, spec, cfg, w: _one_row(spec, cfg, a1=w), False),
    "run a2": ("IterationErrors.a2", 8, lambda cp, spec, cfg, w: _one_row(spec, cfg, a2=w), False),
    "run b": ("IterationErrors.b[1]", 5, lambda cp, spec, cfg, w: _one_row(
        spec, cfg, b=(None, w)), False),
    "run c": ("IterationErrors.c[0]", 7, lambda cp, spec, cfg, w: _one_row(
        spec, cfg, c=(w, None)), False),
    "ProblemSpec z": ("z", 8, lambda cp, spec, cfg, w: dataclasses.replace(spec, z=w), False),
    "ConvexProblem z": ("z", 8, lambda cp, spec, cfg, w: dataclasses.replace(cp, z=w), False),
    "Block r": ("r", 5, lambda cp, spec, cfg, w: _replace_block(spec, 1, r=w), False),
    "ConvexBlock r": ("r", 7, lambda cp, spec, cfg, w: _replace_block(cp, 0, r=w), False),
    "split u": ("u", 20, lambda cp, spec, cfg, w: spec.layout.split(w), False),
    "sq_l2 center": ("center", 8, lambda cp, spec, cfg, w: ss.catalog_prox(
        "sq_l2", 8, center=w), True),
    "box lo": ("lo", 8, lambda cp, spec, cfg, w: ss.catalog_prox("box", 8, lo=w, hi=2.0), True),
    "box hi": ("hi", 8, lambda cp, spec, cfg, w: ss.catalog_prox("box", 8, lo=-2.0, hi=w), True),
    "point point": ("point", 8, lambda cp, spec, cfg, w: ss.catalog_prox("point", 8, point=w), True),
    "linear a": ("a", 8, lambda cp, spec, cfg, w: ss.catalog_prox("linear", 8, a=w), True),
    "SmoothTerm center": ("center", 8, lambda cp, spec, cfg, w: ss.SmoothTerm(
        8, lambda x: 0.0, lambda x: x, 1.0, kind="sq_l2",
        params={"weight": 1.0, "center": w}), False),
    "quadratic_smooth center": ("center", 8, lambda cp, spec, cfg, w: ss.quadratic_smooth(
        w, dim=8), True),
    "diff1d apply": ("diff1d apply input", 8, lambda cp, spec, cfg, w: ss.diff1d_op(8).apply(
        w), False),
    "l1 prox": ("l1 prox input", 8, lambda cp, spec, cfg, w: ss.catalog_prox("l1", 8).prox(
        0.5, w), False),
}


def _bad_vectors(dim, scalar_filled):
    yield "long", np.ones(dim + 1)
    yield "matrix", np.ones((1, dim))
    if not scalar_filled:
        yield "0-d", np.array(1.0)


@pytest.mark.parametrize("entry", sorted(VECTOR_ENTRIES))
def test_vector_argument_refused_by_name(entry):
    name, dim, call, scalar_filled = VECTOR_ENTRIES[entry]
    cp, spec, cfg = _two_block()
    for label, bad in _bad_vectors(dim, scalar_filled):
        want = (rf"(^|: ){re.escape(name)} must be a vector of length {dim}, "
                rf"got shape {re.escape(str(bad.shape))}$")
        with pytest.raises(ValueError, match=want):
            call(cp, spec, cfg, bad)
    with pytest.raises(ValueError, match=(
            rf"(^|: ){re.escape(name)} must be a vector of real numbers, got 'abc'$")):
        call(cp, spec, cfg, "abc")
    # the right length passes
    call(cp, spec, cfg, np.zeros(dim) if name != "hi" else np.full(dim, 2.0))


#: entry point -> (operator or term name, length of its space, call of one
#: acting on length ``k``)
DIMENSION_ENTRIES = {
    "ProblemSpec A": ("A", 8, lambda cp, spec, k: dataclasses.replace(
        spec, A=ss.ResolventOp.zero(k))),
    "ProblemSpec C": ("C", 8, lambda cp, spec, k: dataclasses.replace(
        spec, C=ss.CocoerciveOp.zero(k))),
    "ProblemSpec B": ("block 1: B", 5, lambda cp, spec, k: _replace_block(
        spec, 1, B=ss.ResolventOp.zero(k))),
    "ProblemSpec Dinv": ("block 1: Dinv", 5, lambda cp, spec, k: _replace_block(
        spec, 1, Dinv=ss.CocoerciveOp.zero(k))),
    "ConvexProblem f": ("f", 8, lambda cp, spec, k: dataclasses.replace(
        cp, f=ss.catalog_prox("l1", k))),
    "ConvexProblem h": ("h", 8, lambda cp, spec, k: dataclasses.replace(
        cp, h=ss.zero_smooth(k))),
    "ConvexProblem g": ("block 0: g", 7, lambda cp, spec, k: _replace_block(
        cp, 0, g=ss.catalog_prox("l1", k))),
    "ConvexProblem ell": ("block 0: ell", 7, lambda cp, spec, k: _replace_block(
        cp, 0, ell=ss.dirac_term(k))),
}


@pytest.mark.parametrize("entry", sorted(DIMENSION_ENTRIES))
def test_operator_dimension_refused_by_name(entry):
    name, dim, call = DIMENSION_ENTRIES[entry]
    cp, spec, _ = _two_block()
    for k in (dim - 1, dim + 1):
        with pytest.raises(ValueError, match=(
                rf"^{re.escape(name)} must act on length {dim}, got {k}$")):
            call(cp, spec, k)
    # the right length passes
    call(cp, spec, dim)


def test_shape_refusal_is_a_shape_mismatch_error():
    cp, spec, cfg = _two_block()
    with pytest.raises(ShapeMismatchError) as info:
        ss.run(spec, cfg, v0=(np.zeros(7), np.zeros((5, 1))))
    assert (info.value.block, info.value.expected, info.value.got) == ("v[1]", (5,), (5, 1))


#: entry point -> (sequence name, call of a sequence of ``k`` valid entries)
BLOCK_ENTRIES = {
    "initial_state v0": ("v", lambda cp, spec, cfg, k: ss.initial_state(
        spec.layout, v0=(np.zeros(7), np.zeros(5), np.zeros(5))[:k])),
    "kkt_residual v": ("v", lambda cp, spec, cfg, k: ss.kkt_residual(
        cp, np.zeros(8), (np.zeros(7), np.zeros(5), np.zeros(5))[:k])),
    "kkt_residual sigmas": ("sigmas", lambda cp, spec, cfg, k: ss.kkt_residual(
        cp, np.zeros(8), (np.zeros(7), np.zeros(5)), sigmas=(1.0,) * k)),
    "run sigmas": ("sigmas", lambda cp, spec, cfg, k: ss.run(
        spec, dataclasses.replace(cfg, sigmas=(0.1,) * k))),
    "run norms": ("norms", lambda cp, spec, cfg, k: ss.run(
        spec, dataclasses.replace(cfg, norms=(1.0,) * k))),
    "validate_steps norms": ("norms", lambda cp, spec, cfg, k: ss.validate_steps(
        spec, 0.1, (0.1, 0.1), norms=(1.0,) * k)),
    "run b": ("IterationErrors.b", lambda cp, spec, cfg, k: _one_row(
        spec, cfg, b=(np.zeros(7), np.zeros(5), np.zeros(5))[:k])),
    "run c": ("IterationErrors.c", lambda cp, spec, cfg, k: _one_row(
        spec, cfg, c=(None,) * k)),
    "SpaceLayout weights": ("weights", lambda cp, spec, cfg, k: SpaceLayout(
        8, (7, 5), ((1.0,), (0.6, 0.4), (0.2, 0.3, 0.5))[k - 1])),
    "ProblemSpec blocks": ("blocks", lambda cp, spec, cfg, k: dataclasses.replace(
        spec, blocks=(spec.blocks * 2)[:k])),
    "ConvexProblem blocks": ("blocks", lambda cp, spec, cfg, k: dataclasses.replace(
        cp, blocks=(cp.blocks * 2)[:k])),
}


@pytest.mark.parametrize("entry", sorted(BLOCK_ENTRIES))
def test_block_count_refused_by_name(entry):
    name, call = BLOCK_ENTRIES[entry]
    cp, spec, cfg = _two_block()
    for k in (1, 3):
        with pytest.raises(ValueError, match=(
                rf"^{re.escape(name)} must hold one entry per dual block: "
                rf"expected 2, got {k}$")):
            call(cp, spec, cfg, k)
    call(cp, spec, cfg, 2)


#: entry point -> (sequence name, call given one value ``w`` where a
#: per-block sequence belongs)
SCALAR_BLOCK_ENTRIES = {
    "SpaceLayout dual_dims": ("dual_dims", lambda cp, spec, cfg, w: SpaceLayout(
        8, w, (0.6, 0.4))),
    "SpaceLayout weights": ("weights", lambda cp, spec, cfg, w: SpaceLayout(8, (7, 5), w)),
    "StepConfig sigmas": ("sigmas", lambda cp, spec, cfg, w: ss.StepConfig(
        0.1, w, (1.0, 1.0))),
    "StepConfig norms": ("norms", lambda cp, spec, cfg, w: ss.StepConfig(0.1, (0.1, 0.1), w)),
    "validate_steps sigmas": ("sigmas", lambda cp, spec, cfg, w: ss.validate_steps(
        spec, 0.1, w)),
    "validate_steps norms": ("norms", lambda cp, spec, cfg, w: ss.validate_steps(
        spec, 0.1, (0.1, 0.1), norms=w)),
    "suggest_steps norms": ("norms", lambda cp, spec, cfg, w: ss.suggest_steps(spec, norms=w)),
    "run v0": ("v", lambda cp, spec, cfg, w: ss.run(spec, cfg, v0=w)),
    "initial_state v0": ("v", lambda cp, spec, cfg, w: ss.initial_state(spec.layout, None, w)),
    "kkt_residual v": ("v", lambda cp, spec, cfg, w: ss.kkt_residual(cp, np.zeros(8), w)),
    "evaluate_gap sigmas": ("sigmas", lambda cp, spec, cfg, w: ss.evaluate_gap(
        cp, np.zeros(8), (np.zeros(7), np.zeros(5)), sigmas=w)),
    "run b": ("IterationErrors.b", lambda cp, spec, cfg, w: _one_row(spec, cfg, b=w)),
    "ProblemSpec blocks": ("blocks", lambda cp, spec, cfg, w: dataclasses.replace(
        spec, blocks=w)),
    "ConvexProblem blocks": ("blocks", lambda cp, spec, cfg, w: dataclasses.replace(
        cp, blocks=w)),
}

#: one value where a sequence belongs: a scalar, a zero (not read as an
#: empty sequence) and a single block
SCALAR_VALUES = {"scalar": lambda cp: 0.5, "zero": lambda cp: 0, "one block": lambda cp: cp.blocks[0]}


@pytest.mark.parametrize("entry", sorted(SCALAR_BLOCK_ENTRIES))
@pytest.mark.parametrize("value", sorted(SCALAR_VALUES))
def test_unsized_block_sequence_refused_by_name(entry, value):
    name, call = SCALAR_BLOCK_ENTRIES[entry]
    cp, spec, cfg = _two_block()
    with pytest.raises(ValueError, match=(
            rf"^{re.escape(name)} must hold one entry per dual block, got ")):
        call(cp, spec, cfg, SCALAR_VALUES[value](cp))
