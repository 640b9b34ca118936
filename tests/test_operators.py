import dataclasses
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsolve.operators import (
    INDICATOR_TOL,
    CocoerciveOp,
    LinearOp,
    ResolventOp,
    _at,
    _bound,
    _dual_step,
    _Form,
    _Zero,
    catalog_prox,
    diff1d_op,
    estimate_norm,
    grad2d_op,
    identity_op,
    matrix_op,
    resolvent_from_prox,
    resolvent_of_inverse,
)

from splitsolve.convex import quadratic_smooth
from splitsolve.solver import POWER_MAX_ITER, POWER_TOL, Block, ProblemSpec, _Workspace
from splitsolve.spaces import SpaceLayout

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


def prox_conjugate(g, sigma, v):
    """prox_{sigma g*}(v), the dual step the solver takes for a block
    lowered from ``g``."""
    return resolvent_of_inverse(resolvent_from_prox(g), sigma, v)


class TestEstimateNorm:
    def test_identity(self):
        L = identity_op(5)
        bare = LinearOp(5, 5, L.apply, L.adjoint_apply)  # drop the hint
        est = estimate_norm(bare, tol=1e-10)
        assert est.converged
        assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_diagonal(self):
        mat = matrix_op(np.diag([1.0, 2.0]))
        L = LinearOp(2, 2, mat.apply, mat.adjoint_apply)  # drop the hint
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

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
    def test_bad_tolerance_refused(self, tol):
        # a NaN tol used to run all max_iter steps and return converged=False
        with pytest.raises(ValueError, match=r"^tol must lie in \]0, inf\[, got "):
            estimate_norm(identity_op(3), tol=tol)

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
    closed-form hint, so certified_norms may use the hint alone."""

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
                assert self.bare_estimate(op) <= op.norm_hint, (rows, cols)


class TestClosedFormHintsRoundUp:
    """The diff1d and grad2d hints are upper bounds on the exact norm,
    checked at 40 digits, and lie within 8 ulps of it."""

    @staticmethod
    def assert_bounds(hint, exact, label):
        assert exact <= hint, label
        assert hint <= exact + 8 * math.ulp(float(exact)), label

    def test_diff1d(self):
        with mpmath.workdps(40):
            for n in range(2, 3001):
                exact = 2 * mpmath.sin((n - 1) * mpmath.pi / (2 * n))
                self.assert_bounds(diff1d_op(n).norm_hint, exact, n)

    def test_grad2d(self):
        with mpmath.workdps(40):
            sq = {k: mpmath.sin((k - 1) * mpmath.pi / (2 * k)) ** 2 for k in range(2, 81)}
            for rows in range(2, 81):
                for cols in range(2, 81):
                    exact = 2 * mpmath.sqrt(sq[rows] + sq[cols])
                    self.assert_bounds(grad2d_op(rows, cols).norm_hint, exact,
                                       (rows, cols))

    def test_identity_hint_is_exact(self):
        assert identity_op(3).norm_hint == 1.0


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


class TestInputLength:
    """The library operators refuse an input of the wrong length by name."""

    @pytest.mark.parametrize("op, name", [
        (identity_op(5), "identity"),
        (diff1d_op(5), "diff1d"),
        (grad2d_op(3, 4), "grad2d"),
    ])
    def test_wrong_length_refused_by_name(self, op, name):
        for call, dim, side in ((op.apply, op.in_dim, "apply"),
                                (op.adjoint_apply, op.out_dim, "adjoint")):
            for bad in (np.ones(dim - 1), np.ones(dim + 1), np.ones((1, dim)), 1.0):
                with pytest.raises(ValueError, match=f"^{name} {side} input must be a vector "
                                                     f"of length {dim}, got shape"):
                    call(bad)
            assert call(np.ones(dim)).shape == ((op.out_dim if side == "apply"
                                                 else op.in_dim),)

    def test_diff1d_apply_no_longer_shortens(self):
        # a length-4 input used to give 3 differences of a length-5 operator
        with pytest.raises(ValueError, match="^diff1d apply input must be a vector of length 5"):
            diff1d_op(5).apply(np.ones(4))

    def test_lists_still_accepted(self):
        assert_same_bits(diff1d_op(3).apply([1.0, 4.0, 2.0]), [3.0, -2.0])
        assert_same_bits(identity_op(2).adjoint_apply([1.0, -0.0]), [1.0, -0.0])
        assert_same_bits(catalog_prox("l1", 2).conjugate_prox(0.5, [3.0, -0.0]), [1.0, -0.0])

    @pytest.mark.parametrize("step, name", [
        (catalog_prox("l1", 4).conjugate_prox, "l1 conjugate prox"),
        (_dual_step(ResolventOp(4, catalog_prox("box", 4).prox)), "inverse resolvent"),
    ], ids=["l1", "identity"])
    def test_dual_forms_refuse_wrong_length_by_name(self, step, name):
        for bad in (np.ones(3), np.ones(5), np.ones((1, 4)), 1.0):
            with pytest.raises(ValueError, match=f"^{name} input must be a vector of length 4, "
                                                 "got shape"):
                step(0.5, bad)
        assert step(0.5, np.ones(4)).shape == (4,)


#: entries every buffer form must pass through with the bits of its public
#: callable: signed zeros, infinities, NaN, subnormals and the smallest normal
SPECIAL_ENTRIES = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                   5e-324, -5e-324, 1e-310, -1e-310,
                   2.2250738585072014e-308, -2.2250738585072014e-308)


def special_vectors(n, extra=()):
    """Length-``n`` float vectors mixing the special entries, ``extra``
    and arbitrary doubles."""
    entry = st.one_of(st.sampled_from(SPECIAL_ENTRIES + tuple(extra)),
                      st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    return st.lists(entry, min_size=n, max_size=n).map(lambda xs: np.array(xs, dtype=float))


def garbage(n):
    """A buffer whose stale content a buffer form must overwrite."""
    return np.full(n, -12345.678)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestBufferForms:
    """Each buffer-writing form returns the bits of its public callable,
    which allocates and calls it, into a buffer that held anything."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), shape=st.tuples(st.integers(2, 5), st.integers(2, 5)))
    def test_linear_forms_match_public(self, data, shape):
        rows, cols = shape
        for op in (identity_op(rows), diff1d_op(rows), grad2d_op(rows, cols)):
            for call, n_in, n_out in ((op.apply, op.in_dim, op.out_dim),
                                      (op.adjoint_apply, op.out_dim, op.in_dim)):
                x = data.draw(special_vectors(n_in))
                out = garbage(n_out)
                got = _bound(call)(x, out)
                assert_same_bits(got, call(x))
                if op.kind == "identity":
                    assert got is x
                else:
                    assert got is out

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), shape=st.tuples(st.integers(2, 5), st.integers(2, 5)))
    def test_signless_adjoints_never_return_negative_zero(self, data, shape):
        # what lets a unit-weight first term skip the adjoint sum's + 0.0
        rows, cols = shape
        for op in (diff1d_op(rows), grad2d_op(rows, cols)):
            assert op.adjoint_apply.signless
            y = data.draw(special_vectors(op.out_dim))
            out = op.adjoint_apply(y)
            assert not np.any((out == 0.0) & np.signbit(out))
            assert_same_bits(out + 0.0, out)

    def test_identity_adjoint_passes_negative_zero(self):
        assert not identity_op(2).adjoint_apply.signless
        assert np.signbit(identity_op(2).adjoint_apply(np.array([-0.0, 1.0]))[0])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40),
           weight=st.sampled_from([0.3, 1.0, 5e-324, 1e300]))
    def test_l1_clip_form_matches_public_and_np_clip(self, data, n, weight):
        g = catalog_prox("l1", n, weight=weight)
        u = data.draw(special_vectors(n, extra=(weight, -weight)))
        out = garbage(n)
        got = _at(g.conjugate_prox, 0.7)(u, out)
        assert got is out
        assert_same_bits(got, g.conjugate_prox(0.7, u))
        assert_same_bits(got, np.clip(u, -weight, weight))
        assert_same_bits(got, np.minimum(np.maximum(u, -weight), weight))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12))
    def test_exact_zero_form_is_the_shared_zero(self, data, n):
        u = data.draw(special_vectors(n))
        for step in (catalog_prox("zero", n).conjugate_prox,
                     ResolventOp.zero(n).inverse_resolvent):
            out = garbage(n)
            got = _at(step, 0.7)(u, out)
            assert got is step(0.7, u)
            assert_same_bits(got, np.zeros(n))
            assert_same_bits(out, garbage(n))  # written nowhere

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12),
           sigma=st.sampled_from([0.4, 1.0, 2.5, 1e-300, 1e300]))
    def test_inverse_resolvent_identity_form_matches_public(self, data, n, sigma):
        # box (returns a new array) and zero (returns its input) proxes, as
        # a custom ResolventOp: the identity v - sigma J_{B/sigma}(v/sigma)
        for g in (catalog_prox("box", n, lo=-1.0, hi=2.0), catalog_prox("zero", n)):
            B = ResolventOp(n, g.prox)
            step = _dual_step(B)
            u = data.draw(special_vectors(n))
            out = garbage(n)
            with np.errstate(all="ignore"):
                got = _at(step, sigma)(u, out)
                want = u - sigma * g.prox(1.0 / sigma, u / sigma)
                assert got is out
                assert_same_bits(got, step(sigma, u))
                assert_same_bits(got, resolvent_of_inverse(B, sigma, u))
            assert_same_bits(got, want)

    def test_custom_callables_keep_their_call(self, rng):
        seen = []

        def apply(x):
            seen.append(x)
            return 2.0 * x

        x, out = rng.standard_normal(3), garbage(3)
        assert_same_bits(_bound(apply)(x, out), 2.0 * x)
        assert seen == [x] and not isinstance(apply, _Form)
        assert_same_bits(out, garbage(3))
        step = catalog_prox("l2", 3).conjugate_prox
        assert_same_bits(_at(step, 0.5)(x, out), step(0.5, x))
        assert_same_bits(out, garbage(3))


#: finite entries, signed zeros and subnormals included, for the centers
#: and bounds the catalog keeps
FINITE_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 0.3, -0.3, 1e300, -1e300)


def finite_vectors(n):
    entry = st.one_of(st.sampled_from(FINITE_SPECIALS),
                      st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))
    return st.lists(entry, min_size=n, max_size=n).map(lambda xs: np.array(xs, dtype=float))


STEPS = st.sampled_from([0.4, 0.7, 1.0, 2.5, 1e-300, 5e-324, 1e300])
WEIGHTS = st.sampled_from([0.3, 1.0, 2.5, 5e-324, 1e300])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestCatalogForms:
    """The catalog proxes, conjugate proxes and the quadratic gradient are
    buffer forms: bound at a step (``_at``) or as a map (``_bound``), each
    returns the bits of its plain allocating formula into a buffer that
    held anything, and into its own argument, at signed zeros,
    infinities, NaN and subnormals; called, it returns the same bits."""

    @staticmethod
    def check(fn, gamma, w, want, returns_input=False):
        form = _at(fn, gamma)
        out = garbage(w.size)
        got = form(w, out)
        assert got is (w if returns_input else out)
        assert_same_bits(got, want)
        inplace = w.copy()
        assert_same_bits(form(inplace, inplace), want)
        assert_same_bits(fn(gamma, w), want)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), gamma=STEPS, weight=WEIGHTS)
    def test_l1_prox(self, data, n, gamma, weight):
        g = catalog_prox("l1", n, weight=weight)
        t = gamma * weight
        w = data.draw(special_vectors(n, extra=(t, -t)))
        self.check(g.prox, gamma, w, np.sign(w) * np.maximum(np.abs(w) - t, 0.0))

    def test_l1_prox_signed_zeros(self):
        # np.sign(-0.0) is +0.0, so -0 maps to +0 (copysign would keep -0),
        # while a negative entry inside the threshold maps to -0
        g = catalog_prox("l1", 4, weight=1.0)
        got = g.prox(0.5, np.array([-0.0, 0.0, -0.25, 0.25]))
        assert_same_bits(got, [0.0, 0.0, -0.0, 0.0])
        out = garbage(4)
        assert_same_bits(_at(g.prox, 0.5)(np.array([-0.0, -0.25, -0.5, -0.75]), out),
                         [0.0, -0.0, -0.0, -0.25])

    def test_a_call_binds_each_new_step(self, rng):
        # a call keeps the step it bound last and binds again for another
        b, w = rng.standard_normal(6), rng.standard_normal(6)
        l1 = catalog_prox("l1", 6, weight=0.3)
        sq = catalog_prox("sq_l2", 6, weight=1.5, center=b)
        for gamma in (0.5, 0.5, 2.0, 0.5, np.float64(2.0)):
            assert_same_bits(l1.prox(gamma, w),
                             np.sign(w) * np.maximum(np.abs(w) - gamma * 0.3, 0.0))
            assert_same_bits(sq.prox(gamma, w), (w + b * (gamma * 1.5)) / (1.0 + gamma * 1.5))
            assert sq.prox.last[0] == gamma

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), gamma=STEPS, weight=WEIGHTS)
    def test_sq_l2_prox_and_conjugate_prox(self, data, n, gamma, weight):
        b = data.draw(finite_vectors(n))
        g = catalog_prox("sq_l2", n, weight=weight, center=b)
        w = data.draw(special_vectors(n))
        self.check(g.prox, gamma, w, (w + b * (gamma * weight)) / (1.0 + gamma * weight))
        self.check(g.conjugate_prox, gamma, w, (w - b * gamma) / (1.0 + gamma / weight))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), gamma=STEPS)
    def test_box_prox(self, data, n, gamma):
        lo = data.draw(finite_vectors(n))
        hi = lo + np.abs(data.draw(finite_vectors(n)))
        lo[::3] = -math.inf
        hi[1::3] = math.inf
        g = catalog_prox("box", n, lo=lo, hi=hi)
        w = data.draw(special_vectors(n, extra=tuple(lo[1:2]) + tuple(hi[:1])))
        self.check(g.prox, gamma, w, np.clip(w, g.params["lo"], g.params["hi"]))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), gamma=STEPS)
    def test_zero_prox_and_resolvent_return_their_input(self, data, n, gamma):
        w = data.draw(special_vectors(n))
        for fn in (catalog_prox("zero", n).prox, ResolventOp.zero(n).resolvent):
            self.check(fn, gamma, w, w, returns_input=True)
            assert fn(gamma, w) is w

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), weight=WEIGHTS)
    def test_quadratic_gradient(self, data, n, weight):
        b = data.draw(finite_vectors(n))
        grad = quadratic_smooth(b, weight=weight).gradient
        x = data.draw(special_vectors(n))
        want = x - b if weight == 1.0 else (x - b) * weight
        out = garbage(n)
        assert _bound(grad)(x, out) is out
        assert_same_bits(out, want)
        assert_same_bits(grad(x), want)

    def forms(self, n):
        """(name, call) of every library form, each on a length-``n`` input."""
        rng = np.random.default_rng(n)
        b = rng.standard_normal(n)
        sq = catalog_prox("sq_l2", n, weight=1.5, center=b)
        l1 = catalog_prox("l1", n, weight=0.3)
        box = catalog_prox("box", n, lo=-0.5, hi=0.5)
        return [
            ("l1 prox", lambda w: l1.prox(0.7, w)),
            ("l1 conjugate prox", lambda w: l1.conjugate_prox(0.7, w)),
            ("sq_l2 prox", lambda w: sq.prox(0.7, w)),
            ("sq_l2 conjugate prox", lambda w: sq.conjugate_prox(0.7, w)),
            ("box prox", lambda w: box.prox(0.7, w)),
            ("zero prox", lambda w: catalog_prox("zero", n).prox(0.7, w)),
            ("zero resolvent", lambda w: ResolventOp.zero(n).resolvent(0.7, w)),
            ("inverse resolvent", lambda w: _dual_step(ResolventOp(n, box.prox))(0.7, w)),
            ("sq_l2 gradient", quadratic_smooth(b, weight=2.0).gradient),
            ("identity apply", identity_op(n).apply),
        ]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(2, 9))
    def test_public_call_never_writes_into_its_argument(self, data, n):
        for name, call in self.forms(n):
            w = data.draw(special_vectors(n))
            kept = w.copy()
            got = call(w)
            assert_same_bits(w, kept)
            assert got.shape == (n,)
            # only the pass-through maps return their argument
            assert (got is w) == (name in ("zero prox", "zero resolvent", "identity apply"))

    @pytest.mark.parametrize("bad", [np.ones(3), np.ones(5), np.ones((1, 4)), 1.0],
                             ids=["short", "long", "matrix", "scalar"])
    def test_public_call_refuses_a_wrong_shape_by_name(self, bad):
        for name, call in self.forms(4):
            with pytest.raises(ValueError, match=f"^{name} input must be a vector of length 4, "
                                                 f"got shape {re.escape(str(np.shape(bad)))}$"):
                call(bad)


class TestResolventOfInverse:
    def test_zero_operator_collapses(self, rng):
        # J_{sigma 0^{-1}} is exactly 0, with no rounding of v - sigma (v / sigma)
        B = ResolventOp.zero(1000)
        for sigma in (0.4, 0.7, 2.5):
            out = resolvent_of_inverse(B, sigma, rng.standard_normal(1000))
            assert_same_bits(out, np.zeros(1000))
            with pytest.raises(ValueError):
                out[0] = 1.0

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
        # on the Moreau path the decomposition holds by construction;
        # recomposition costs at most one rounding step per entry
        for g in catalog_instances():
            g = dataclasses.replace(g, conjugate_prox=None)
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


class TestConjugateProxClosedForms:
    """Each catalog ``conjugate_prox`` against the Moreau decomposition,
    its exact properties, and the dispatch of resolvent_of_inverse."""

    #: the two forms round differently; entries are O(1) and sigma <= 2.5,
    #: so they agree to a few ulps of 10
    MOREAU_ATOL = 1e-14

    @staticmethod
    def moreau(g, sigma, v):
        return v - sigma * g.prox(1.0 / sigma, v / sigma)

    def test_every_kind_but_box_has_one(self):
        for g in catalog_instances():
            assert (g.conjugate_prox is None) == (g.kind == "box"), g.kind

    def test_agrees_with_moreau(self, rng):
        for g in catalog_instances():
            if g.conjugate_prox is None:
                continue
            for sigma in (0.4, 1.0, 2.5):
                for scale in (0.3, 1.0, 4.0):
                    v = scale * rng.standard_normal(g.dim)
                    np.testing.assert_allclose(g.conjugate_prox(sigma, v),
                                               self.moreau(g, sigma, v),
                                               rtol=0, atol=self.MOREAU_ATOL,
                                               err_msg=g.kind)

    def test_l1_is_a_clip(self, rng):
        c = 0.7
        g = catalog_prox("l1", 9, weight=c)
        v = np.concatenate([[c, -c, np.nextafter(c, 2), -0.0, 0.0], 2 * rng.standard_normal(4)])
        for sigma in (0.4, 1.0, 2.5):
            out = g.conjugate_prox(sigma, v)
            assert np.all((out >= -c) & (out <= c))
            inside = np.abs(v) <= c
            assert_same_bits(out[inside], v[inside])
            assert_same_bits(out[~inside], np.copysign(c, v[~inside]))

    def test_l2_stays_in_the_ball(self, rng):
        c = 1.2
        g = catalog_prox("l2", 6, weight=c)
        for _ in range(200):
            v = rng.standard_normal(6) * float(rng.uniform(0.1, 10.0))
            out = g.conjugate_prox(1.0, v)
            assert float(np.linalg.norm(out)) <= c * (1 + 2 * np.finfo(float).eps)
            if np.linalg.norm(v) <= c:
                assert out is v

    def test_dispatch_catalog_uses_closed_form(self, rng):
        for g in catalog_instances():
            B = resolvent_from_prox(g)
            # the prox and the closed form themselves, no wrapper frame
            assert B.resolvent is g.prox
            assert B.inverse_resolvent is g.conjugate_prox
            for sigma in (0.4, 2.5):
                v = rng.standard_normal(g.dim)
                want = (self.moreau(g, sigma, v) if g.conjugate_prox is None
                        else g.conjugate_prox(sigma, v))
                assert_same_bits(resolvent_of_inverse(B, sigma, v), want)

    def test_dispatch_custom_uses_moreau(self, rng):
        for g in catalog_instances():
            B = ResolventOp(g.dim, g.prox)
            for sigma in (0.4, 2.5):
                v = rng.standard_normal(g.dim)
                assert_same_bits(resolvent_of_inverse(B, sigma, v),
                                 self.moreau(g, sigma, v))

    def test_bound_dual_step_is_the_dispatch(self, rng):
        # what a run binds once per block: the closed form itself where
        # one is set, else the identity, with the bits of the public entry
        for g in catalog_instances():
            for B in (resolvent_from_prox(g), ResolventOp(g.dim, g.prox)):
                step = _dual_step(B)
                if B.inverse_resolvent is not None:
                    assert step is B.inverse_resolvent
                for sigma in (0.4, 2.5):
                    v = rng.standard_normal(g.dim)
                    assert_same_bits(step(sigma, v), resolvent_of_inverse(B, sigma, v))


def _point(dim):
    coords = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    return st.lists(coords, min_size=dim, max_size=dim).map(np.array)


def _pair_of_points(dim):
    return st.tuples(_point(dim), _point(dim))


CATALOG_KINDS = tuple(g.kind for g in catalog_instances())


class TestFirmNonexpansivenessProperty:
    """Hypothesis search for a violation of
    ||T w1 - T w2||^2 <= <T w1 - T w2, w1 - w2> by any catalog prox and
    any catalog conjugate prox."""

    @staticmethod
    def assert_firm(T, w1, w2):
        p1, p2 = np.array(T(w1), dtype=float), np.array(T(w2), dtype=float)
        lhs = float(np.dot(p1 - p2, p1 - p2))
        rhs = float(np.dot(p1 - p2, w1 - w2))
        assert lhs <= rhs + 1e-12 * (1.0 + float(np.dot(w1 - w2, w1 - w2)))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(CATALOG_KINDS), gamma=st.floats(0.05, 5.0),
           pair=_pair_of_points(4))
    def test_prox(self, kind, gamma, pair):
        g = dict(zip(CATALOG_KINDS, catalog_instances()))[kind]
        self.assert_firm(lambda w: g.prox(gamma, w), *pair)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(CATALOG_KINDS), sigma=st.floats(0.05, 5.0),
           pair=_pair_of_points(4))
    def test_conjugate_prox(self, kind, sigma, pair):
        g = dict(zip(CATALOG_KINDS, catalog_instances()))[kind]
        self.assert_firm(lambda u: prox_conjugate(g, sigma, u), *pair)


class TestMoreauIdentityProperty:
    """Hypothesis search for a violation of the Moreau identity
    prox_{sigma g*}(v) + sigma prox_{g/sigma}(v/sigma) = v, taken through
    the solver's dual step, for every catalog kind."""

    #: entries lie in [-10, 10], where one ulp is 1.8e-15; each side is a
    #: few roundings of such values (2 ulps seen in 20000 random draws)
    ATOL = 1e-14

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(CATALOG_KINDS), sigma=st.floats(0.05, 5.0),
           v=_point(4))
    def test_moreau_identity(self, kind, sigma, v):
        g = dict(zip(CATALOG_KINDS, catalog_instances()))[kind]
        lhs = prox_conjugate(g, sigma, v) + sigma * g.prox(1.0 / sigma, v / sigma)
        np.testing.assert_allclose(lhs, v, rtol=0, atol=self.ATOL)


class TestFenchelYoungProperty:
    """Hypothesis search for a violation of the Fenchel-Young inequality
    g(x) + g*(u) >= <x, u> by every catalog kind with a closed-form
    conjugate value, and of its equality case: at x = prox_g(w) the
    point u = w - x is a subgradient of g at x, so the two sides agree."""

    KINDS = tuple(g.kind for g in catalog_instances() if g.conjugate_value is not None)

    @staticmethod
    def tol(x, u):
        # entries lie in [-10, 10]; each side is a sum of a few products
        # of such values, each rounded once
        return 1e-12 * (1.0 + float(np.dot(x, x)) + float(np.dot(u, u)))

    def test_every_catalog_kind_has_a_conjugate_value(self):
        assert set(self.KINDS) == set(CATALOG_KINDS)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(KINDS), pair=_pair_of_points(4))
    def test_inequality(self, kind, pair):
        g = dict(zip(CATALOG_KINDS, catalog_instances()))[kind]
        x, u = pair
        assert g.evaluate(x) + g.conjugate_value(u) >= float(np.dot(x, u)) - self.tol(x, u)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(KINDS), w=_point(4))
    def test_equality_at_prox(self, kind, w):
        g = dict(zip(CATALOG_KINDS, catalog_instances()))[kind]
        x = np.array(g.prox(1.0, w), dtype=float)
        u = w - x
        lhs = g.evaluate(x) + g.conjugate_value(u)
        assert abs(lhs - float(np.dot(x, u))) <= self.tol(x, u)


class TestExactZeroMap:
    """The exact zero is declared by its type: what the step plan skips is
    the library's zero map, whatever its constant, and nothing else."""

    @staticmethod
    def bound_skips(C, Dinv):
        spec = ProblemSpec(SpaceLayout(3, (3,), (1.0,)), ResolventOp.zero(3), C, np.zeros(3),
                           (Block(ResolventOp.zero(3), Dinv, identity_op(3), np.zeros(3)),))
        ws = _Workspace(spec, 1.0, (1.0,))
        return ws.C is None, ws.blocks[0][1] is None

    def test_zero_map_is_skipped(self):
        assert isinstance(CocoerciveOp.zero(3).apply, _Zero)
        assert self.bound_skips(CocoerciveOp.zero(3), CocoerciveOp.zero(3)) == (True, True)

    def test_a_map_returning_zeros_is_applied(self):
        custom = CocoerciveOp(3, lambda v: np.zeros(3), math.inf)
        assert self.bound_skips(custom, custom) == (False, False)

    def test_zero_map_with_finite_constant_is_skipped(self):
        finite = CocoerciveOp(3, _Zero(3), 2.0)
        assert finite.constant == 2.0
        assert self.bound_skips(finite, finite) == (True, True)


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

    @pytest.mark.parametrize("kind, params, message", [
        ("l1", {"bogus": 1}, "l1: unknown parameters ['bogus']; known: ['weight']"),
        ("sq_l2", {"weight": 1, "lo": 0, "hi": 1},
         "sq_l2: unknown parameters ['hi', 'lo']; known: ['weight', 'center']"),
        ("zero", {"weight": 1}, "zero: unknown parameters ['weight']; known: []"),
    ])
    def test_unknown_parameter_refused_naming_the_known_ones(self, kind, params, message):
        # used to raise the builder's TypeError, which names a private function
        with pytest.raises(ValueError) as exc:
            catalog_prox(kind, 3, **params)
        assert str(exc.value) == message

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


def grad2d_adjoint_2d(rows, cols, y):
    """The grad2d adjoint as strided 2-D updates of the image, the
    formulation the flat one must match bit for bit."""
    n_v = (rows - 1) * cols
    dv = y[:n_v].reshape(rows - 1, cols)
    dh = y[n_v:].reshape(rows, cols - 1)
    out = np.empty((rows, cols))
    np.subtract(0.0, dv, out=out[:-1, :])
    out[-1, :] = 0.0
    out[1:, :] += dv
    out[:, :-1] -= dh
    out[:, 1:] += dh
    return out.ravel()


class TestGrad2dAdjoint:
    """The adjoint adds the horizontal differences in flat passes over a
    padded copy; every entry must keep the 2-D updates' bits."""

    SHAPES = [(2, 2), (2, 7), (7, 2), (3, 4), (16, 16), (9, 31)]

    @staticmethod
    def signed_zeros(rng, size):
        """Normal entries, about half of them replaced by +0 or -0."""
        w = rng.standard_normal(size)
        zeros = rng.random(size) < 0.5
        w[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
        return w

    @pytest.mark.parametrize("rows, cols", SHAPES)
    def test_bitwise_equal_to_2d_updates(self, rows, cols, rng):
        op = grad2d_op(rows, cols)
        cases = [self.signed_zeros(rng, op.out_dim) for _ in range(20)]
        cases += [np.zeros(op.out_dim), np.full(op.out_dim, -0.0)]
        for y in cases:
            got = op.adjoint_apply(y)
            want = grad2d_adjoint_2d(rows, cols, y)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("rows, cols", SHAPES)
    def test_adjoint_of_apply(self, rows, cols, rng):
        op = grad2d_op(rows, cols)
        for _ in range(20):
            x = self.signed_zeros(rng, op.in_dim)
            y = self.signed_zeros(rng, op.out_dim)
            lhs = float(np.dot(op.apply(x), y))
            rhs = float(np.dot(x, op.adjoint_apply(y)))
            assert abs(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(x) * np.linalg.norm(y))

    def test_input_left_unchanged(self, rng):
        op = grad2d_op(4, 5)
        y = self.signed_zeros(rng, op.out_dim)
        kept = y.copy()
        op.adjoint_apply(y)
        np.testing.assert_array_equal(y.view(np.int64), kept.view(np.int64))


def grad2d_apply_2d(rows, cols, x):
    """The grad2d apply as two strided 2-D subtractions of the image, the
    formulation the flat passes must match bit for bit."""
    n_v = (rows - 1) * cols
    img = x.reshape(rows, cols)
    out = np.empty(n_v + rows * (cols - 1))
    np.subtract(img[1:, :], img[:-1, :], out=out[:n_v].reshape(rows - 1, cols))
    np.subtract(img[:, 1:], img[:, :-1], out=out[n_v:].reshape(rows, cols - 1))
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestGrad2dApply:
    """The apply forms its differences in flat passes, with ``out`` as
    its own scratch; every entry must keep the 2-D subtractions' bits,
    whatever ``out`` held."""

    SHAPES = TestGrad2dAdjoint.SHAPES + [(5, 2), (64, 64)]

    @staticmethod
    def specials(rng, size):
        """Normal entries, about a third of them replaced by special ones."""
        x = rng.standard_normal(size)
        hit = rng.random(size) < 0.3
        x[hit] = rng.choice(SPECIAL_ENTRIES, hit.sum())
        return x

    @pytest.mark.parametrize("rows, cols", SHAPES)
    def test_bitwise_equal_to_2d_subtractions(self, rows, cols, rng):
        op = grad2d_op(rows, cols)
        into = _bound(op.apply)
        cases = [self.specials(rng, op.in_dim) for _ in range(20)]
        cases += [TestGrad2dAdjoint.signed_zeros(rng, op.in_dim),
                  np.full(op.in_dim, -0.0), np.full(op.in_dim, math.inf)]
        for x in cases:
            want = grad2d_apply_2d(rows, cols, x)
            out = garbage(op.out_dim)
            assert into(x, out) is out
            assert_same_bits(out, want)
            assert_same_bits(op.apply(x), want)

    def test_input_left_unchanged(self, rng):
        op = grad2d_op(4, 5)
        x = self.specials(rng, op.in_dim)
        kept = x.copy()
        op.apply(x)
        assert_same_bits(x, kept)

    def test_allocates_nothing(self, rng):
        # a 2-D strided subtraction has numpy buffer its operands on
        # every call, 66 KB traced at 64 x 64
        op = grad2d_op(64, 64)
        into = _bound(op.apply)
        x, out = rng.standard_normal(op.in_dim), np.empty(op.out_dim)
        into(x, out)
        tracemalloc.start()
        try:
            for _ in range(50):
                into(x, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024


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

    #: entries a clip must pass through bit for bit: signed zeros,
    #: infinities, NaN, and the bounds of the boxes below
    CLIP_SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan, 0.3, -0.3, -0.9)

    @classmethod
    def clip_inputs(cls, rng, size):
        """Each special entry alone at size 1, else a standard-normal
        vector with every special entry in it."""
        if size == 1:
            return [np.array([s]) for s in cls.CLIP_SPECIALS]
        w = rng.standard_normal(size)
        w[:len(cls.CLIP_SPECIALS)] = cls.CLIP_SPECIALS
        return [w]

    @pytest.mark.parametrize("size", [1, 50, 2000, 32512])
    def test_l1_conjugate_prox_is_np_clip(self, rng, size):
        for weight in (0.3, 1.0):
            f = catalog_prox("l1", size, weight=weight)
            for u in self.clip_inputs(rng, size):
                assert_same_bits(f.conjugate_prox(0.7, u), np.clip(u, -weight, weight))

    @pytest.mark.parametrize("size", [1, 50, 2000, 32512])
    def test_l1_values_are_np_sum_and_np_max(self, rng, size):
        # the reductions np.sum and np.max run, called directly: past
        # numpy's pairwise-summation blocks the order of the additions
        # shows, and the sup norm meets the indicator's edge
        for weight in (0.3, 1.0):
            f = catalog_prox("l1", size, weight=weight)
            edge = weight + INDICATOR_TOL * (1.0 + weight)
            wide = rng.standard_normal(size) * np.exp(rng.uniform(-30.0, 30.0, size))
            for u in self.clip_inputs(rng, size) + [
                    wide, np.full(size, -edge), np.full(size, math.nextafter(edge, 2.0))]:
                assert_same_bits(f.evaluate(u), weight * float(np.sum(np.abs(u))))
                top = float(np.max(np.abs(u), initial=0.0))
                assert_same_bits(f.conjugate_value(u), 0.0 if top <= edge else math.inf)

    @pytest.mark.parametrize("size", [1, 50, 2000, 32512])
    def test_box_prox_is_np_clip(self, rng, size):
        lo = np.full(size, -0.9)
        hi = np.full(size, 0.3)
        lo[1::3] = -math.inf
        hi[2::3] = math.inf
        for bounds in ((lo, hi), (-0.0, 0.0), (0.0, 0.0)):
            f = catalog_prox("box", size, lo=bounds[0], hi=bounds[1])
            lo_v, hi_v = f.params["lo"], f.params["hi"]
            for w in self.clip_inputs(rng, size):
                assert_same_bits(f.prox(0.7, w), np.clip(w, lo_v, hi_v))

    @pytest.mark.parametrize("size", [1, 50, 2000])
    def test_l2_proxes_are_the_linalg_norm_forms(self, rng, size):
        # contiguous, strided and reversed views: the norm's own ravel
        # decides the order of the dot's terms, and a strided dot rounds
        # differently from a contiguous one for about half of these draws
        views = []
        for _ in range(10):
            for scale in (1e-3, 1.0, 1e3):
                base = scale * self.signed(rng, 3 * size + 4)[:3 * size]
                views += [base[:size], base[::3], base[::-3]]
        for u in views:
            for weight in (0.5, 2.0):
                f = catalog_prox("l2", size, weight=weight)
                gamma = 0.7
                nw = float(np.linalg.norm(u))
                want = (np.zeros_like(u) if nw <= gamma * weight
                        else (1.0 - gamma * weight / nw) * u)
                assert_same_bits(f.prox(gamma, u), want)
                want = u if nw <= weight else np.multiply(u, weight / nw)
                assert_same_bits(f.conjugate_prox(gamma, u), want)

    def test_estimate_norm(self, rng):
        mat = matrix_op(rng.standard_normal((6, 9)))
        # without the matrix's closed-form hint, which the estimate never undercuts
        op = LinearOp(9, 6, mat.apply, mat.adjoint_apply)
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
