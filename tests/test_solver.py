import dataclasses
import functools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitsolve as ss
import splitsolve.benchmarks  # noqa: F401  (the cases below use ss.benchmarks)
from splitsolve.reporting import format_run_csv
from splitsolve.solver import (
    BETA_CAP,
    NORM_SAFETY,
    POWER_MAX_ITER,
    POWER_TOL,
    _bisected_step,
    _closed_form_step,
    _step_margin,
)

from conftest import (assert_same_bits, degenerate_block, inner_blocks, materialize,
                      shrinkage_spec, single_block_spec)
from gap_reference import plain_adjoint_sum


def simple_spec(m=1, dim=1, norms=None, mu=1.0, nus=None, weights=None):
    """Spec with scaled-identity couplings and certified norm hints."""
    norms = norms or (1.0,) * m
    nus = nus or (math.inf,) * m
    weights = weights or tuple(1.0 / m for _ in range(m))
    layout = ss.SpaceLayout(dim, (dim,) * m, weights)
    blocks = []
    for c, nu in zip(norms, nus):
        L = ss.LinearOp(dim, dim, lambda x, c=c: c * x, lambda y, c=c: c * y,
                        norm_hint=c)
        if math.isinf(nu):
            dinv = ss.CocoerciveOp.zero(dim)
        else:
            dinv = ss.CocoerciveOp(dim, lambda v, nu=nu: v / nu, nu)
        blocks.append(ss.Block(B=ss.ResolventOp.zero(dim), Dinv=dinv, L=L,
                               r=np.zeros(dim)))
    return ss.ProblemSpec(
        layout=layout,
        A=ss.ResolventOp.zero(dim),
        C=ss.CocoerciveOp(dim, lambda x: x / mu, mu),
        z=np.zeros(dim),
        blocks=tuple(blocks),
    )


def condition_at(spec, tau, sigmas, **kwargs):
    """:func:`step_condition` of the steps :func:`validate_steps` returns."""
    return ss.step_condition(spec, ss.validate_steps(spec, tau, sigmas, **kwargs))


class TestValidateSteps:
    def test_single_block_half_steps(self):
        cond = condition_at(simple_spec(), 0.5, (0.5,))
        assert abs(cond.rho - 1.0) <= 1e-14
        assert cond.beta == 1.0
        assert cond.admissible  # 2 * 1 * 1 > 1

    def test_admissibility_tracks_beta(self):
        # beta = 0.4 < 0.5 makes 2 rho beta < 1: the paper's test fails, but
        # the margin (2 - 1/0.8) - 1/2 = 1/4 is positive
        spec = simple_spec(mu=0.4)
        cond = condition_at(spec, 0.5, (0.5,))
        assert abs(cond.rho - 1.0) <= 1e-14
        assert 2.0 * cond.rho * cond.beta < 1.0
        assert cond.margin == pytest.approx(0.25, abs=1e-14)
        assert cond.admissible
        # at mu = 0.2 the margin is (2 - 1/0.4) - 1/2 = -1
        cond = condition_at(simple_spec(mu=0.2), 0.5, (0.5,))
        assert cond.margin == pytest.approx(-1.0, abs=1e-14)
        assert not cond.admissible

    def test_margin_refuses_dual_step_past_twice_nu(self):
        # 1/sigma <= 1/(2 nu) leaves the dual block no slack at all
        spec = simple_spec(nus=(0.25,))
        assert condition_at(spec, 0.1, (0.5,)).margin == -math.inf
        assert condition_at(spec, 0.1, (0.4,)).margin > 0.0

    def test_unit_coupling_boundary(self):
        cond = condition_at(simple_spec(), 1.0, (1.0,))
        assert cond.rho == 0.0
        assert not cond.admissible

    def test_two_block_quarter_steps(self):
        spec = simple_spec(m=2)
        cond = condition_at(spec, 0.25, (0.25, 0.25))
        assert abs(cond.rho - 3.0) <= 1e-14

    def test_delta_positive_when_admissible(self):
        cond = condition_at(simple_spec(), 0.5, (0.5,))
        assert cond.delta == pytest.approx(1.0)  # 1/sqrt(0.25) - 1
        assert cond.delta > 0

    def test_never_mutates_spec(self):
        spec = simple_spec()
        before = (spec.layout, spec.blocks)
        ss.validate_steps(spec, 0.1, (0.2,))
        assert (spec.layout, spec.blocks) == before

    def test_rejects_bad_inputs(self):
        spec = simple_spec()
        with pytest.raises(ValueError):
            ss.validate_steps(spec, -1.0, (0.5,))
        with pytest.raises(ValueError):
            ss.validate_steps(spec, 0.5, (0.5, 0.5))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_steps_refused_by_name(self, value):
        spec = simple_spec(m=2)
        with pytest.raises(ValueError, match=f"^tau must lie in \\]0, inf\\[, got {value!r}$"):
            ss.validate_steps(spec, value, (0.2, 0.2))
        with pytest.raises(ValueError, match=f"^sigma\\[1\\] must lie in \\]0, inf\\[, got {value!r}$"):
            ss.validate_steps(spec, 0.2, (0.2, value))


def condat_spec():
    cp, _ = ss.benchmarks.condat_problem()
    return cp.spec


class TestHandBuiltSteps:
    """A hand-built ``StepConfig`` is refused as :func:`validate_steps`
    refuses its steps, by name, and ``run`` refuses a sigma count that
    does not fit the problem before it iterates."""

    @pytest.mark.parametrize("tau, message", [
        (-0.5, r"^tau must lie in \]0, inf\[, got -0.5$"),
        (0.0, r"^tau must lie in \]0, inf\[, got 0.0$"),
        (-0.0, r"^tau must lie in \]0, inf\[, got -0.0$"),
        (math.nan, r"^tau must lie in \]0, inf\[, got nan$"),
        (math.inf, r"^tau must lie in \]0, inf\[, got inf$"),
        (-math.inf, r"^tau must lie in \]0, inf\[, got -inf$"),
    ], ids=["negative", "zero", "-zero", "nan", "inf", "-inf"])
    def test_bad_tau_refused_by_name(self, tau, message):
        spec = condat_spec()
        cfg = ss.suggest_steps(spec)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(cfg, tau=tau)
        with pytest.raises(ValueError, match=message):
            ss.validate_steps(spec, tau, cfg.sigmas, norms=cfg.norms)

    @pytest.mark.parametrize("sigma, message", [
        (0.0, r"^sigma\[1\] must lie in \]0, inf\[, got 0.0$"),
        (-0.25, r"^sigma\[1\] must lie in \]0, inf\[, got -0.25$"),
        (math.nan, r"^sigma\[1\] must lie in \]0, inf\[, got nan$"),
        (math.inf, r"^sigma\[1\] must lie in \]0, inf\[, got inf$"),
    ], ids=["zero", "negative", "nan", "inf"])
    def test_bad_sigma_refused_by_name(self, sigma, message):
        spec = condat_spec()
        cfg = ss.suggest_steps(spec)
        sigmas = (cfg.sigmas[0], sigma)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(cfg, sigmas=sigmas)
        with pytest.raises(ValueError, match=message):
            ss.validate_steps(spec, cfg.tau, sigmas, norms=cfg.norms)

    @pytest.mark.parametrize("count", [1, 3])
    def test_sigma_count_refused_before_iterating(self, count):
        spec = condat_spec()
        cfg = dataclasses.replace(ss.suggest_steps(spec), sigmas=(0.1,) * count)
        asked = []

        def errors(n):
            asked.append(n)
            return None
        with pytest.raises(ValueError, match=(
                f"^sigmas must hold one entry per dual block: expected 2, got {count}$")):
            ss.run(spec, cfg, errors=errors)
        assert asked == []

    def test_steps_stored_as_floats(self):
        cfg = ss.StepConfig(tau=1, sigmas=[2, np.float32(0.5)], norms=[1, 2.0])
        assert type(cfg.tau) is float and cfg.tau == 1.0
        assert cfg.sigmas == (2.0, 0.5)
        assert all(type(s) is float for s in cfg.sigmas)
        assert cfg.norms == (1.0, 2.0)
        assert all(type(nm) is float for nm in cfg.norms)

    def test_inputs_only(self):
        assert [f.name for f in dataclasses.fields(ss.StepConfig)] == [
            "tau", "sigmas", "norms", "lam", "balance"]


class TestStaleSteps:
    """The verdict is formed from the steps the run is handed, so steps
    replaced or built by hand past the step condition are refused before
    iteration 0, whatever config they came from."""

    @staticmethod
    def stale_configs():
        cp, _ = ss.benchmarks.condat_problem()
        spec = cp.spec
        cfg = ss.suggest_steps(spec)
        scaled = dataclasses.replace(cfg, tau=20.0 * cfg.tau,
                                     sigmas=tuple(20.0 * s for s in cfg.sigmas))
        by_hand = ss.StepConfig(tau=100.0, sigmas=(100.0, 100.0), norms=cfg.norms)
        return cp, spec, cfg, {"scaled by 20": scaled, "built by hand": by_hand}

    def test_condition_follows_the_steps(self):
        _, spec, cfg, stale = self.stale_configs()
        assert ss.step_condition(spec, cfg).margin == pytest.approx(0.0406, abs=1e-4)
        assert ss.step_condition(spec, stale["scaled by 20"]).margin == pytest.approx(
            -35.4, abs=0.1)
        for bad in stale.values():
            assert not ss.step_condition(spec, bad).admissible

    @pytest.mark.parametrize("name", ["scaled by 20", "built by hand"])
    def test_refused_before_iterating(self, name):
        cp, spec, _, stale = self.stale_configs()
        asked = []

        def errors(n):
            asked.append(n)
            return None
        with pytest.raises(ss.InadmissibleStepsError, match="^step sizes are inadmissible"):
            ss.run(spec, stale[name], errors=errors)
        with pytest.raises(ss.InadmissibleStepsError):
            ss.solve_convex(cp, cfg=stale[name], errors=errors)
        assert asked == []
        # the override still runs them, into divergence
        report = ss.run(spec, stale[name], errors=errors, allow_inadmissible=True)
        assert report.termination == "diverged"
        assert asked == list(range(report.iterations + 1))

    @pytest.mark.parametrize("norms, message", [
        ((1.0,), "^norms must hold one entry per dual block: expected 2, got 1$"),
        ((1.0, math.nan), r"^block 1: norm of L must lie in \]0, inf\[, got nan$"),
        ((1.0, 0.0), r"^block 1: norm of L must lie in \]0, inf\[, got 0.0$"),
    ], ids=["count", "nan", "zero"])
    def test_bad_norms_refused_before_iterating(self, norms, message):
        _, spec, cfg, _ = self.stale_configs()
        with pytest.raises(ValueError, match=message):
            ss.run(spec, dataclasses.replace(cfg, norms=norms))


class TestSuggestSteps:
    def test_worked_example(self):
        # mu = 1, ||L|| = 1, nu = inf: the margin at tau = sigma is
        # 1/tau - 1/2 - tau, whose root is (sqrt(4.25) - 0.5) / 2
        cfg = ss.suggest_steps(simple_spec(), safety=0.99)
        tau = 0.99 * (math.sqrt(4.25) - 0.5) / 2.0
        assert tau == pytest.approx(0.77297, abs=1e-5)
        assert cfg.tau == pytest.approx(tau, rel=1e-14)
        assert cfg.sigmas[0] == cfg.tau
        cond = ss.step_condition(simple_spec(), cfg)
        assert cond.margin == pytest.approx(1.0 / tau - 0.5 - tau, rel=1e-12)
        assert cond.rho == pytest.approx(1.0 / tau - 1.0, rel=1e-12)
        assert cond.admissible

    def test_capped_beta(self):
        spec = simple_spec(mu=math.inf)  # every constant infinite
        cfg = ss.suggest_steps(spec, safety=0.99)
        cond = ss.step_condition(spec, cfg)
        assert cond.beta == BETA_CAP
        assert cfg.tau == pytest.approx(0.99, rel=1e-9)
        assert cond.admissible

    def test_safety_monotonicity(self):
        spec = simple_spec()
        big = ss.suggest_steps(spec, safety=0.99)
        small = ss.suggest_steps(spec, safety=0.5)
        assert small.tau < big.tau
        assert ss.step_condition(spec, small).admissible

    @pytest.mark.parametrize("mu, nu, values", [
        (1e-320, math.inf, "mu = 1e-320, nu = [inf]"),
        (1.0, 1e-320, "mu = 1.0, nu = [1e-320]"),
    ], ids=["closed-form", "bisection"])
    def test_underflowed_step_refused_naming_the_constants(self, mu, nu, values):
        # 1/(2 mu) or 1/(2 nu) overflows and the boundary step is 0, which
        # used to be refused as "tau must be strictly positive"
        spec = simple_spec(mu=mu, nus=(nu,))
        with pytest.raises(ValueError, match=re.escape(
                f"no positive step size exists for {values} and norms (1.0,)")):
            ss.suggest_steps(spec)

    def test_all_zero_norms_rejected(self):
        spec = simple_spec()
        with pytest.raises(ValueError, match=r"norm of L must lie in \]0, inf\[, got 0.0"):
            ss.suggest_steps(spec, norms=(0.0,))

    def test_zero_norm_caught_by_certification(self):
        layout = ss.SpaceLayout(2, (2,), (1.0,))
        spec = ss.ProblemSpec(
            layout=layout,
            A=ss.ResolventOp.zero(2),
            C=ss.CocoerciveOp(2, lambda x: x, 1.0),
            z=np.zeros(2),
            blocks=(ss.Block(
                B=ss.ResolventOp.zero(2),
                Dinv=ss.CocoerciveOp.zero(2),
                L=ss.LinearOp(2, 2, lambda x: np.zeros(2), lambda y: np.zeros(2)),
                r=np.zeros(2),
            ),),
        )
        with pytest.raises(ValueError, match=r"norm of L must lie in \]0, inf\[, got 0.0"):
            ss.certified_norms(spec)


def log_uniform(lo, hi):
    """Floats spread evenly in log scale over [lo, hi]."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


#: a cocoercivity constant: infinite (the zero map) or in [1e-3, 1e3]
constants = st.one_of(st.just(math.inf), log_uniform(1e-3, 1e3))


@st.composite
def step_instances(draw, all_nu_infinite=False):
    """Scaled-identity instances of 1-4 blocks with random weights, norms
    in [1e-3, 1e3] and constants finite or infinite."""
    m = draw(st.integers(1, 4))
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m))
    weights = tuple(w / math.fsum(raw) for w in raw)
    norms = tuple(draw(st.lists(log_uniform(1e-3, 1e3), min_size=m, max_size=m)))
    mu = draw(constants)
    nus = ((math.inf,) * m if all_nu_infinite
           else tuple(draw(st.lists(constants, min_size=m, max_size=m))))
    return simple_spec(m=m, norms=norms, mu=mu, nus=nus, weights=weights), norms


class TestBlockwiseCondition:
    """The margin against the paper's test, the operator it certifies,
    and the step :func:`suggest_steps` takes from it."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(step_instances(), st.data())
    def test_paper_condition_implies_positive_margin(self, case, data):
        spec, norms = case
        m = spec.num_blocks
        # steps around the paper's boundary, so both verdicts occur
        ratios = data.draw(st.lists(log_uniform(0.1, 10.0), min_size=m, max_size=m))
        beta = min(spec.C.constant, *(blk.Dinv.constant for blk in spec.blocks))
        beta = BETA_CAP if math.isinf(beta) else beta
        coupling = math.sqrt(math.fsum(
            r * w * nm * nm for r, w, nm in zip(ratios, spec.layout.weights, norms)))
        tau = data.draw(st.floats(0.3, 1.5)) / (max(1.0, *ratios) / (2.0 * beta) + coupling)
        cond = condition_at(spec, tau, tuple(r * tau for r in ratios), norms=norms)
        assert cond.admissible == (cond.margin > 0.0)
        # the relative 1e-9 keeps the cases where both tests coincide (one
        # block, tau = sigma, mu = nu) clear of rounding
        if 2.0 * cond.rho * cond.beta > 1.0 + 1e-9:
            assert cond.margin > 0.0
            assert cond.admissible

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(1, 3), constants,
           st.lists(st.tuples(st.integers(1, 3), constants, st.floats(0.1, 1.0)),
                    min_size=1, max_size=3),
           st.integers(0, 2**32 - 1))
    def test_suggested_steps_make_proof_operator_positive(self, n, scale, mu, specs, seed):
        rng = np.random.default_rng(seed)
        mats = [float(scale) * rng.standard_normal((d, n)) for d, _, _ in specs]
        raw = [w for _, _, w in specs]
        weights = tuple(w / math.fsum(raw) for w in raw)
        nus = [nu for _, nu, _ in specs]

        def coco(dim, c):
            if math.isinf(c):
                return ss.CocoerciveOp.zero(dim)
            return ss.CocoerciveOp(dim, lambda u, c=c: u / c, c)

        spec = ss.ProblemSpec(
            layout=ss.SpaceLayout(n, tuple(mat.shape[0] for mat in mats), weights),
            A=ss.ResolventOp.zero(n),
            C=coco(n, mu),
            z=np.zeros(n),
            blocks=tuple(ss.Block(B=ss.ResolventOp.zero(mat.shape[0]),
                                  Dinv=coco(mat.shape[0], nu), L=ss.matrix_op(mat),
                                  r=np.zeros(mat.shape[0]))
                         for mat, nu in zip(mats, nus)),
        )
        cfg = ss.suggest_steps(spec, norms=tuple(np.linalg.norm(mat, 2) for mat in mats))
        # V - M^{-1}/2 as the matrix of its quadratic form in the weighted
        # product space: primal block, then each weighted dual block
        sizes = [n, *(mat.shape[0] for mat in mats)]
        edges = np.cumsum([0, *sizes])
        form = np.zeros((edges[-1], edges[-1]))
        form[:n, :n] = (1.0 / cfg.tau - 0.5 / mu) * np.eye(n)
        for i, (mat, nu, w, sigma) in enumerate(zip(mats, nus, weights, cfg.sigmas)):
            lo, hi = edges[i + 1], edges[i + 2]
            form[lo:hi, lo:hi] = w * (1.0 / sigma - 0.5 / nu) * np.eye(mat.shape[0])
            form[lo:hi, :n] = -w * mat
            form[:n, lo:hi] = -w * mat.T
        assert ss.step_condition(spec, cfg).admissible
        assert np.linalg.eigvalsh(form)[0] > 0.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(step_instances(), st.floats(0.05, 0.999))
    def test_suggested_step_is_the_largest(self, case, safety):
        spec, norms = case
        m = spec.num_blocks
        cfg = ss.suggest_steps(spec, safety=safety, norms=norms)
        assert cfg.sigmas == (cfg.tau,) * m
        assert ss.step_condition(spec, cfg).margin > 0.0
        past = cfg.tau / safety * (1.0 + 1e-9)
        assert _step_margin(spec, past, (past,) * m, norms) <= 0.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(step_instances(all_nu_infinite=True))
    def test_closed_form_and_bisection_agree(self, case):
        spec, norms = case
        closed = _closed_form_step(spec, norms)
        assert _bisected_step(spec, norms) == pytest.approx(closed, rel=1e-12)


def one_block_spec(L):
    """Spec whose single degenerate block couples through ``L``."""
    n = L.in_dim
    return ss.ProblemSpec(
        layout=ss.SpaceLayout(n, (L.out_dim,), (1.0,)),
        A=ss.ResolventOp.zero(n),
        C=ss.CocoerciveOp.zero(n),
        z=np.zeros(n),
        blocks=(degenerate_block(L.out_dim, L),),
    )


class TestCertifiedNorms:
    @pytest.mark.parametrize("op", [ss.identity_op(5), ss.diff1d_op(7), ss.grad2d_op(3, 4)],
                             ids=["identity", "diff1d", "grad2d"])
    def test_closed_form_used_as_it_is(self, op):
        calls = []

        def counted(fn):
            def wrapped(arr):
                calls.append(1)
                return fn(arr)
            return wrapped

        counting = dataclasses.replace(op, apply=counted(op.apply),
                                       adjoint_apply=counted(op.adjoint_apply))
        norms = ss.certified_norms(one_block_spec(counting))
        assert_same_bits(norms, [op.norm_hint])
        assert calls == []

    def test_closed_form_kind_needs_its_hint(self):
        with pytest.raises(ValueError, match="closed-form"):
            dataclasses.replace(ss.diff1d_op(4), norm_hint=None)

    def test_matrix_norm_is_an_upper_bound_where_power_iteration_fails(self):
        # rows 2 u1 and (x0 + u2) / sqrt(2), with x0 the seeded power start
        # and u1, u2 orthonormal and orthogonal to it: from x0, power
        # iteration lands on the eigenvalue 1 of M^T M in two steps and
        # never sees the 4 along u1
        x0 = np.random.default_rng(0).standard_normal(6)
        x0 /= np.linalg.norm(x0)
        q, _ = np.linalg.qr(np.column_stack([x0, np.eye(6)[:, :2]]))
        u1, u2 = q[:, 1], q[:, 2]
        mat = np.vstack([2.0 * u1, (x0 + u2) / math.sqrt(2.0)])
        bare = ss.LinearOp(6, 2, lambda x: mat @ x, lambda y: mat.T @ y)
        est = ss.estimate_norm(bare, tol=POWER_TOL, max_iter=POWER_MAX_ITER)
        assert est.converged and est.value == pytest.approx(1.0, abs=1e-12)
        L = ss.matrix_op(mat)
        assert L.kind == "matrix" and L.norm_hint >= 2.0
        (norm,) = ss.certified_norms(one_block_spec(L))
        assert norm == L.norm_hint
        # a caller's hint raises the bound but never lowers it
        assert ss.matrix_op(mat, norm_hint=1.0).norm_hint == L.norm_hint
        assert ss.matrix_op(mat, norm_hint=3.0).norm_hint == 3.0

    def test_matrix_bound_holds_after_the_caller_changes_the_matrix(self):
        mat = np.random.default_rng(3).standard_normal((7, 5))
        L = ss.matrix_op(mat)
        assert L.norm_hint == np.linalg.norm(mat, 2) * NORM_SAFETY
        before = materialize(L)
        mat *= 10.0
        assert_same_bits(materialize(L), before)
        assert np.linalg.norm(materialize(L), 2) <= L.norm_hint

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_matrix_refused_by_name(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"matrix_op expects at least one row and one column, got shape {shape}")):
            ss.matrix_op(np.zeros(shape))

    def test_custom_hint_below_true_norm_is_repaired(self):
        L = ss.LinearOp(3, 3, lambda x: 2.0 * x, lambda y: 2.0 * y, norm_hint=0.1)
        assert L.kind == "custom"
        (norm,) = ss.certified_norms(one_block_spec(L))
        assert norm >= 2.0

    def test_hintless_custom_op_is_inflated(self):
        L = ss.LinearOp(3, 3, lambda x: 2.0 * x, lambda y: 2.0 * y)
        est = ss.estimate_norm(L, tol=POWER_TOL, max_iter=POWER_MAX_ITER)
        (norm,) = ss.certified_norms(one_block_spec(L))
        assert norm == est.value * NORM_SAFETY
        assert norm > 2.0

    @pytest.mark.parametrize("L", [
        ss.matrix_op([[1.0, math.nan], [0.0, 1.0]]),
        ss.LinearOp(2, 2, lambda x: x, lambda y: y, norm_hint=math.inf),
    ], ids=["nan-matrix", "inf-hint"])
    def test_non_finite_norm_refused_naming_block(self, L):
        spec = ss.ProblemSpec(
            layout=ss.SpaceLayout(2, (2, 2), (0.5, 0.5)),
            A=ss.ResolventOp.zero(2),
            C=ss.CocoerciveOp(2, lambda x: x, 1.0),
            z=np.zeros(2),
            blocks=(degenerate_block(2), degenerate_block(2, L)),
        )
        with pytest.raises(ValueError, match=r"block 1: norm of L must lie in \]0, inf\[, got"):
            ss.certified_norms(spec)
        with pytest.raises(ValueError, match=r"block 1: norm of L must lie in \]0, inf\[, got"):
            ss.suggest_steps(spec)

    def test_bounds_rayleigh_quotients(self, rng):
        mats = [rng.standard_normal((3, 4)), rng.standard_normal((2, 4))]
        spec = ss.ProblemSpec(
            layout=ss.SpaceLayout(4, (3, 2), (0.5, 0.5)),
            A=ss.ResolventOp.zero(4),
            C=ss.CocoerciveOp(4, lambda x: x, 1.0),
            z=np.zeros(4),
            blocks=tuple(degenerate_block(m.shape[0], ss.matrix_op(m)) for m in mats),
        )
        norms = ss.certified_norms(spec)
        for _ in range(200):
            x = rng.standard_normal(4)
            for blk, nm in zip(spec.blocks, norms):
                assert np.linalg.norm(blk.L.apply(x)) <= nm * np.linalg.norm(x)

    def test_unconverged_power_iteration_refused_naming_block(self, monkeypatch):
        # singular values 1 and 0.999 separate too slowly for 20 power steps
        monkeypatch.setattr(ss.solver, "POWER_MAX_ITER", 20)
        d = np.array([1.0, 0.999])
        # a custom operator: a matrix_op's norm is closed form
        L = ss.LinearOp(2, 2, lambda x: d * x, lambda y: d * y)
        assert not ss.estimate_norm(L, tol=POWER_TOL, max_iter=20).converged
        spec = ss.ProblemSpec(
            layout=ss.SpaceLayout(2, (2, 2), (0.5, 0.5)),
            A=ss.ResolventOp.zero(2),
            C=ss.CocoerciveOp(2, lambda x: x, 1.0),
            z=np.zeros(2),
            blocks=(degenerate_block(2), degenerate_block(2, L)),
        )
        message = "^block 1: power iteration for the norm of L did not converge within 20 iterations$"
        with pytest.raises(ValueError, match=message):
            ss.certified_norms(spec)
        with pytest.raises(ValueError, match=message):
            ss.suggest_steps(spec)
        # the full budget converges
        monkeypatch.undo()
        (_, norm) = ss.certified_norms(spec)
        assert norm >= 1.0

    @pytest.mark.parametrize("norms, message", [
        ((1.0,), "norms must hold one entry per dual block: expected 2, got 1"),
        ((1.0, math.nan), r"block 1: norm of L must lie in \]0, inf\[, got nan"),
        ((1.0, math.inf), r"block 1: norm of L must lie in \]0, inf\[, got inf"),
        ((1.0, 0.0), r"block 1: norm of L must lie in \]0, inf\[, got 0.0"),
    ], ids=["short", "nan", "inf", "zero"])
    def test_caller_norms_refused_like_certified_ones(self, norms, message):
        spec = simple_spec(m=2)
        with pytest.raises(ValueError, match=message):
            ss.validate_steps(spec, 0.25, (0.25, 0.25), norms=norms)
        with pytest.raises(ValueError, match=message):
            ss.suggest_steps(spec, norms=norms)

    @pytest.mark.parametrize("hint", [math.nan, -1.0])
    def test_nan_or_negative_hint_refused(self, hint):
        with pytest.raises(ValueError, match=r"^norm_hint must lie in \[0, inf\], got "):
            ss.LinearOp(2, 2, lambda x: x, lambda y: y, norm_hint=hint)


def one_step(spec, cfg, x0=None, v0=None, err=None, allow_inadmissible=False):
    """The state after one update from (x0, v0), with the single error
    ``err`` injected, taken through run."""
    errors = None if err is None else (lambda n: err)
    report = ss.run(spec, cfg, x0=x0, v0=v0, errors=errors,
                    stop=ss.StoppingRule(tol=0.0, max_iter=1),
                    allow_inadmissible=allow_inadmissible)
    return report.final_state


class TestIterateOnce:
    """One update at a time, taken through run."""

    def test_hand_step(self):
        # A = 0, C = Id, x0 = 1, v0 = 0, tau = sigma = 0.25, lam = 1, and a
        # block with L = Id, D^{-1} = 0 and B = N_{0}, so J_{sigma B^{-1}} is
        # the identity: p = 0.75, y = 2p - x = 0.5, q = sigma y = 0.125
        block = ss.Block(B=ss.ResolventOp(1, lambda gamma, w: np.zeros_like(w)),
                         Dinv=ss.CocoerciveOp.zero(1), L=ss.identity_op(1),
                         r=np.zeros(1))
        spec = dataclasses.replace(shrinkage_spec(n=1), blocks=(block,))
        cfg = ss.validate_steps(spec, 0.25, (0.25,))
        nxt = one_step(spec, cfg, x0=np.array([1.0]))
        assert nxt.n == 1
        assert nxt.x[0] == pytest.approx(0.75, abs=0)
        assert nxt.v[0][0] == pytest.approx(0.125, abs=0)

    def test_fixed_point_invariance(self):
        spec = shrinkage_spec(n=3)  # fixed point is the origin
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        nxt = one_step(spec, cfg)
        assert np.max(np.abs(nxt.x)) <= 1e-12
        assert np.max(np.abs(nxt.v[0])) <= 1e-12

    def test_primal_error_shifts_p_exactly(self, rng):
        # from x = 0 at lam = 1 the next x is 0 + (p - 0) = p exactly
        spec = shrinkage_spec(n=4, center=rng.standard_normal(4))
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        e = rng.standard_normal(4)
        clean = one_step(spec, cfg)
        noisy = one_step(spec, cfg, err=ss.solver.IterationErrors(
            a2=e, b=(None,), c=(None,)))
        assert np.all(clean.x != 0.0)
        np.testing.assert_array_equal(noisy.x, clean.x + e)

    def test_relaxation_consistency(self, rng):
        spec = shrinkage_spec(n=5, weight=0.2)
        lam = 0.7
        cfg = ss.validate_steps(spec, 0.4, (0.4,), lam=lam)
        st = ss.initial_state(spec.layout, x0=rng.standard_normal(5))
        nxt = one_step(spec, cfg, st.x, st.v)
        # the unrelaxed update (p, q), recovered from lam = 1 as x + (p - x)
        full = one_step(spec, ss.validate_steps(spec, 0.4, (0.4,)), st.x, st.v)
        # recovering the step from the stored iterates costs one rounding
        np.testing.assert_allclose(nxt.x - st.x, lam * (full.x - st.x),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(nxt.v[0] - st.v[0], lam * (full.v[0] - st.v[0]),
                                   rtol=0, atol=1e-14)

    def test_inadmissible_refused_and_overridable(self):
        spec = shrinkage_spec(n=1)
        cfg = ss.validate_steps(spec, 2.0, (2.0,))
        # margin (1/2 - 1/2) - 1/(1/2) = -2, quoted with rho, beta and delta
        with pytest.raises(ss.InadmissibleStepsError,
                           match=r"margin = -2 <= 0; rho = -0.5, beta = 1, delta = "):
            one_step(spec, cfg, x0=np.array([1.0]))
        one_step(spec, cfg, x0=np.array([1.0]), allow_inadmissible=True)

    def test_lambda_range_enforced(self):
        # refused at setup, by both step constructors, before any run
        spec = shrinkage_spec(n=1)
        for lam in (1.5, 0.0, -0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"^lambda must lie in \]0, 1\], got "):
                ss.validate_steps(spec, 0.5, (0.5,), lam=lam)
            with pytest.raises(ValueError, match=r"^lambda must lie in \]0, 1\], got "):
                ss.suggest_steps(spec, lam=lam)
        # any constant in ]0, 1] is accepted, however small
        for lam in (5e-4, 1.0):
            assert ss.validate_steps(spec, 0.5, (0.5,), lam=lam).lam == lam


class TestRun:
    def test_geometric_decay_matches_closed_form(self):
        # the degenerate reduction contracts by (1 - lam * tau) per step
        spec = shrinkage_spec(n=1)
        lam, tau = 1.0, 0.5
        cfg = ss.validate_steps(spec, tau, (0.5,), lam=lam)
        report = ss.run(spec, cfg, x0=np.array([1.0]),
                        stop=ss.StoppingRule(tol=1e-10, max_iter=500),
                        record_states=True)
        assert report.termination == "converged"
        for k, state in enumerate(report.states):
            assert state.x[0] == pytest.approx((1 - lam * tau) ** k, rel=1e-12)
        assert abs(report.final_state.x[0]) < 1e-9

    def test_zero_problem_converges_immediately(self, rng):
        spec = simple_spec(mu=math.inf)
        cfg = ss.suggest_steps(spec)
        x0 = rng.standard_normal(1)
        report = ss.run(spec, cfg, x0=x0, stop=ss.StoppingRule(tol=1e-12, max_iter=50))
        assert report.termination == "converged"
        assert report.iterations == 1
        np.testing.assert_array_equal(report.final_state.x, x0)

    def test_strongly_monotone_limit_matches_closed_form(self, rng):
        # with A the scaled l1 subdifferential and C = x - b, the unique
        # zero is the soft threshold of b
        b = rng.standard_normal(6)
        spec = shrinkage_spec(n=6, weight=0.3, center=b)
        cfg = ss.suggest_steps(spec)
        report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=1e-14, max_iter=5000))
        assert report.termination == "converged"
        expected = np.sign(b) * np.maximum(np.abs(b) - 0.3, 0.0)
        np.testing.assert_allclose(report.final_state.x, expected, atol=1e-10)

    def test_history_contract(self, rng):
        spec = shrinkage_spec(n=3)
        cfg = ss.suggest_steps(spec)
        report = ss.run(spec, cfg, x0=rng.standard_normal(3),
                        stop=ss.StoppingRule(tol=1e-11, max_iter=300))
        assert len(report.history) == report.iterations
        iters = [rec.iter for rec in report.history]
        assert iters == list(range(1, report.iterations + 1))
        assert all(rec.residual >= 0 for rec in report.history)

    def test_max_iter_termination(self):
        spec = shrinkage_spec(n=2)
        cfg = ss.suggest_steps(spec)
        report = ss.run(spec, cfg, x0=np.ones(2),
                        stop=ss.StoppingRule(tol=0.0, max_iter=7))
        assert report.termination == "max_iter"
        assert report.iterations == 7
        assert report.stop == ss.StopReason("max_iter", 7.0, 7.0)
        assert report.stop.line() == "max_iter (value 7, threshold 7)"

    def test_divergence_detection_names_block(self):
        layout = ss.SpaceLayout(2, (2,), (1.0,))
        bad = ss.ProblemSpec(
            layout=layout,
            A=ss.ResolventOp(2, lambda g, w: w * np.inf),
            C=ss.CocoerciveOp(2, lambda x: x, 1.0),
            z=np.zeros(2),
            blocks=(degenerate_block(2),),
        )
        cfg = ss.validate_steps(bad, 0.5, (0.5,))
        report = ss.run(bad, cfg, x0=np.ones(2), stop=ss.StoppingRule(max_iter=10))
        assert report.termination == "diverged"
        assert report.failure == "non-finite value in primal update p at iteration 0"
        assert report.stop == ss.StopReason("diverged")
        assert report.stop.line() == "diverged"

    def test_residual_rule_reports_value_and_threshold(self, rng):
        spec = shrinkage_spec(n=3)
        cfg = ss.suggest_steps(spec)
        stop = ss.StoppingRule(tol=1e-9, max_iter=300)
        report = ss.run(spec, cfg, x0=rng.standard_normal(3), stop=stop, record_states=True)
        assert report.termination == "converged"
        # the residual belongs to the state the last update started from
        start = report.states[-2]
        layout = spec.layout
        state_norm = math.sqrt(inner_blocks(
            layout.weights, *layout.split(start.u), *layout.split(start.u)))
        assert report.stop.rule == "residual"
        assert report.stop.value == report.history[-1].residual
        assert report.stop.threshold == pytest.approx(stop.tol * (1.0 + state_norm), rel=1e-15)
        assert report.stop.value <= report.stop.threshold

    def test_extra_stop_rule_named(self):
        # the caller's rule reports its own name, value and threshold
        spec = shrinkage_spec(n=2)
        cfg = ss.suggest_steps(spec)
        seen = []

        def extra_stop(st, wsum):
            value = float(np.max(np.abs(st.x)))
            seen.append(value)
            return ss.StopReason("sup_norm", value, 1e-3) if value <= 1e-3 else None

        report = ss.run(spec, cfg, x0=np.ones(2), stop=ss.StoppingRule(tol=0.0, max_iter=50),
                        extra_stop=extra_stop)
        assert report.termination == "converged"
        assert 1 < report.iterations < 50
        assert len(seen) == report.iterations
        assert report.stop == ss.StopReason("sup_norm", seen[-1], 1e-3)
        assert seen[-1] <= 1e-3 < min(seen[:-1])
        assert report.stop.line() == f"sup_norm (value {seen[-1]:.17g}, threshold 0.001)"

    def test_divergence_error_is_private(self):
        assert not hasattr(ss, "DivergenceError")
        assert "DivergenceError" not in ss.solver.__all__

    def test_error_robustness_same_limit(self, rng):
        b = rng.standard_normal(5)
        spec = shrinkage_spec(n=5, weight=0.25, center=b)
        cfg = ss.suggest_steps(spec)
        stop = ss.StoppingRule(tol=1e-14, max_iter=20000)
        exact = ss.run(spec, cfg, stop=stop)
        noisy = ss.run(spec, cfg, stop=stop,
                       errors=ss.geometric_errors(spec.layout, 0.05, 0.8, seed=4))
        assert noisy.used_errors and not exact.used_errors
        np.testing.assert_allclose(noisy.final_state.x, exact.final_state.x,
                                   atol=1e-10)

    def test_forward_backward_equivalence_with_primal_errors(self, rng):
        # degenerate blocks with errors only on the primal half keep the
        # iteration equal to the relaxed forward-backward recursion
        from splitsolve.benchmarks import forward_backward_reference

        b = rng.standard_normal(4)
        spec = shrinkage_spec(n=4, weight=0.15, center=b)
        lam, tau, sigma = 0.8, 0.6, 0.5
        cfg = ss.validate_steps(spec, tau, (sigma,), lam=lam)
        layout = spec.layout

        amp, dec = 0.02, 0.7
        rng_dir = np.random.default_rng(99)
        d1 = rng_dir.standard_normal(4)
        d2 = rng_dir.standard_normal(4)

        def schedule_at(n):
            return ss.solver.IterationErrors(
                a1=amp * dec ** n * d1, a2=amp * dec ** n * d2,
                b=(None,), c=(None,))

        iters = 200
        report = ss.run(spec, cfg, x0=b, errors=schedule_at,
                        stop=ss.StoppingRule(tol=0.0, max_iter=iters),
                        record_states=True)
        prox = ss.catalog_prox("l1", 4, weight=0.15).prox
        xs = forward_backward_reference(
            prox, lambda x: x - b, tau, lam, b, iters,
            a1_seq=lambda n: amp * dec ** n * d1,
            a2_seq=lambda n: amp * dec ** n * d2,
        )
        worst = max(float(np.max(np.abs(s.x - x)))
                    for s, x in zip(report.states, xs))
        assert worst <= 1e-12

    def test_resolvent_certificate_along_run(self, rng):
        # error-free primal updates satisfy the prox subgradient
        # inequality for the argument handed to the resolvent
        b = rng.standard_normal(4)
        f = ss.catalog_prox("l1", 4, weight=0.3)
        layout = ss.SpaceLayout(4, (4,), (1.0,))
        spec = ss.ProblemSpec(
            layout=layout,
            A=ss.resolvent_from_prox(f),
            C=ss.CocoerciveOp(4, lambda x: x - b, 1.0),
            z=np.zeros(4),
            blocks=(degenerate_block(4),),
        )
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        report = ss.run(spec, cfg, x0=b, stop=ss.StoppingRule(tol=0.0, max_iter=25),
                        record_states=True)
        assert len(report.states) == 26
        for st, nxt in zip(report.states, report.states[1:]):
            arg = st.x - cfg.tau * (spec.C.apply(st.x) - spec.z)
            p = nxt.x  # x + 1.0 (p - x), p up to one rounding
            for _ in range(5):
                y = rng.standard_normal(4)
                lhs = cfg.tau * f.evaluate(y)
                rhs = cfg.tau * f.evaluate(p) + float(np.dot(arg - p, y - p))
                assert lhs >= rhs - 1e-8


def tiny_convex_problem():
    """A one-block convex problem whose fixed point is the origin."""
    return ss.ConvexProblem(
        layout=ss.SpaceLayout(2, (2,), (1.0,)),
        f=ss.catalog_prox("l1", 2, weight=0.5), h=ss.quadratic_smooth(np.zeros(2)),
        z=np.zeros(2),
        blocks=(ss.ConvexBlock(g=ss.catalog_prox("l1", 2, weight=0.5),
                               ell=ss.dirac_term(2), L=ss.identity_op(2),
                               r=np.zeros(2)),),
    )


class TestStoppingRule:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(ss.StoppingRule)] == ["tol", "max_iter"]

    @pytest.mark.parametrize("field, value", [
        ("tol", math.nan), ("tol", -1e-3), ("tol", math.inf),
        ("kkt_tol", math.nan), ("kkt_tol", -1.0), ("kkt_tol", math.inf),
    ])
    def test_bad_tolerance_refused_by_name(self, field, value):
        # tol by StoppingRule, kkt_tol by solve_convex, through one check
        with pytest.raises(ValueError, match=f"^{field} must lie in \\[0, inf\\[, got {value!r}$"):
            if field == "tol":
                ss.StoppingRule(tol=value)
            else:
                ss.solve_convex(tiny_convex_problem(), kkt_tol=value)

    @pytest.mark.parametrize("field, value", [
        ("tol", True), ("tol", "1e-3"), ("tol", None),
        ("kkt_tol", True), ("kkt_tol", "1e-3"),
    ])
    def test_bool_or_non_real_tolerance_refused_by_name(self, field, value):
        # True used to be stored as a tolerance and "1e-3" to die in
        # math.isfinite with a raw TypeError
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got {value!r}$"):
            if field == "tol":
                ss.StoppingRule(tol=value)
            else:
                ss.solve_convex(tiny_convex_problem(), kkt_tol=value)

    @pytest.mark.parametrize("value", [10**400, -10**400, 10**5000, Fraction(10**400, 3)],
                             ids=["int", "negative int", "int past the repr limit", "fraction"])
    def test_real_beyond_the_float_range_refused_by_name(self, value):
        # used to escape from float() as an OverflowError
        with pytest.raises(ValueError, match=r"^tol must be a real number in the float range, "
                                             rf"got one beyond it \({type(value).__name__}\)$"):
            ss.StoppingRule(tol=value)

    @pytest.mark.parametrize("value", [np.float64(1e-3), np.float32(1e-3), 0, np.int64(0)])
    def test_real_tolerances_accepted(self, value):
        assert ss.StoppingRule(tol=value).tol == value

    @pytest.mark.parametrize("value", [2.5, 10.0, math.nan, "10"])
    def test_non_integer_max_iter_refused_by_name(self, value):
        # 2.5 and NaN used to pass here and fail in run's range() with a TypeError
        with pytest.raises(ValueError, match="^max_iter must be an integer >= 1, got "):
            ss.StoppingRule(max_iter=value)

    def test_numpy_integer_max_iter_runs(self):
        report, _ = ss.solve_convex(tiny_convex_problem(), x0=np.full(2, 100.0),
                                    stop=ss.StoppingRule(tol=0.0, max_iter=np.int64(3)))
        assert report.stop == ss.StopReason("max_iter", 3.0, 3.0)
        with pytest.raises(ValueError, match="^max_iter must be an integer >= 1, got 0$"):
            ss.StoppingRule(max_iter=0)

    def test_zero_tolerances_accepted(self):
        rule = ss.StoppingRule(tol=0.0)
        assert rule.tol == 0.0
        report, _ = ss.solve_convex(tiny_convex_problem(), x0=np.ones(2),
                                    stop=ss.StoppingRule(tol=0.0, max_iter=3), kkt_tol=0.0)
        # a zero kkt_tol stops only on an exactly zero KKT residual
        assert report.stop == ss.StopReason("kkt_tol", 0.0, 0.0)


COUNT_CALLS = {
    # used to die in range() with a TypeError
    "estimate_norm max_iter=2.5": (
        "max_iter", 1, lambda: ss.estimate_norm(ss.identity_op(2), max_iter=2.5)),
    # bool is an int, so True used to count as 1
    "estimate_norm max_iter=True": (
        "max_iter", 1, lambda: ss.estimate_norm(ss.identity_op(2), max_iter=True)),
    "StoppingRule max_iter=True": ("max_iter", 1, lambda: ss.StoppingRule(max_iter=True)),
    "certify_operators samples=True": (
        "samples", 1, lambda: ss.certify_operators(
            tiny_convex_problem().spec, samples=True)),
    # used to return 0.0, a check of no points that passes
    "check_gradient points=0": (
        "points", 1, lambda: ss.convex.check_gradient(ss.quadratic_smooth(np.zeros(2)),
                                                       points=0)),
    # used to raise a TypeError
    "check_qualification samples=2.5": (
        "samples", 0, lambda: ss.check_qualification(tiny_convex_problem(), samples=2.5)),
    # used to be taken as no samples
    "check_qualification samples=-1": (
        "samples", 0, lambda: ss.check_qualification(tiny_convex_problem(), samples=-1)),
    # used to become dual_dims (2,)
    "SpaceLayout dual_dims=(2.5,)": (
        r"dual_dims\[0\]", 1, lambda: ss.SpaceLayout(3, (2.5,), (1.0,))),
    # used to be built, and np.zeros(layout.size) then raised a TypeError
    "SpaceLayout dim_primal=2.5": ("dim_primal", 1, lambda: ss.SpaceLayout(2.5, (2,), (1.0,))),
    # the non-integers below used to be built, diff1d_op(2.5) as a 2.5 -> 1.5 operator
    "diff1d_op n=2.5": ("n", 2, lambda: ss.diff1d_op(2.5)),
    "diff1d_op n=1": ("n", 2, lambda: ss.diff1d_op(1)),
    "identity_op dim=2.5": ("in_dim", 1, lambda: ss.identity_op(2.5)),
    "LinearOp out_dim=0": ("out_dim", 1, lambda: ss.LinearOp(2, 0, np.negative, np.negative)),
    "grad2d_op rows=2.5": ("rows", 1, lambda: ss.grad2d_op(2.5, 3)),
    "grad2d_op cols=3.0": ("cols", 1, lambda: ss.grad2d_op(3, 3.0)),
    "catalog_prox dim=2.5": ("dim", 1, lambda: ss.catalog_prox("l1", 2.5)),
}


@pytest.mark.parametrize("call", COUNT_CALLS)
def test_count_argument_refused_by_name(call):
    name, minimum, fn = COUNT_CALLS[call]
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= {minimum}, got "):
        fn()


def test_count_arguments_at_their_minimum_accepted():
    cp = tiny_convex_problem()
    assert ss.estimate_norm(ss.identity_op(2), max_iter=np.int64(1)).iterations == 1
    assert ss.check_qualification(cp, samples=0).verdict == "satisfied"
    assert ss.convex.check_gradient(ss.quadratic_smooth(np.zeros(2)), points=1) <= 1e-5
    assert len(ss.certify_operators(cp.spec, samples=1)) == 3
    layout = ss.SpaceLayout(np.int64(1), (np.int64(1),), (1.0,))
    assert layout.size == 2 and type(layout.dual_dims[0]) is int
    assert ss.diff1d_op(np.int64(2)).out_dim == 1
    assert ss.identity_op(np.int64(1)).in_dim == 1
    assert ss.grad2d_op(np.int64(2), 2).out_dim == 4
    assert ss.catalog_prox("l1", np.int64(1)).dim == 1


#: name, call: each dimension argument that the library maps and terms
#: take, a call that passes it on
DIM_CALLS = {
    # these four used to die in np.zeros with a TypeError naming no argument
    "zero_smooth": lambda d: ss.zero_smooth(d),
    "dirac_term": lambda d: ss.dirac_term(d),
    "CocoerciveOp.zero": lambda d: ss.CocoerciveOp.zero(d),
    "ResolventOp.zero": lambda d: ss.ResolventOp.zero(d),
    # these used to be built
    "quadratic_term": lambda d: ss.quadratic_term(d),
    "SmoothTerm": lambda d: ss.SmoothTerm(d, lambda x: 0.0, np.negative, 1.0),
    "StronglyConvexTerm": lambda d: ss.StronglyConvexTerm(d, np.negative, 1.0),
    "ResolventOp": lambda d: ss.ResolventOp(d, lambda gamma, w: w),
    "CocoerciveOp": lambda d: ss.CocoerciveOp(d, np.negative, 1.0),
    "ProxFunction": lambda d: ss.ProxFunction(d, lambda x: 0.0, lambda gamma, w: w),
}


@pytest.mark.parametrize("value", [2.5, 0, -1, True], ids=["2.5", "0", "-1", "True"])
@pytest.mark.parametrize("call", DIM_CALLS)
def test_dimension_refused_by_name(call, value):
    with pytest.raises(ValueError, match=f"^dim must be an integer >= 1, got {value!r}$"):
        DIM_CALLS[call](value)
    assert DIM_CALLS[call](np.int64(2)).dim == 2


def _gradient_check_of_sq_norm(rel_tol):
    """check_gradient on ||x||^2 with the gradient 2x scaled by 1.55 (55 %
    off) at ``rel_tol``."""
    h = ss.SmoothTerm(3, lambda x: float(x.dot(x)), lambda x: 3.1 * x, 1.0)
    return ss.convex.check_gradient(h, rel_tol=rel_tol)


#: name in the message, interval (low, high, brackets as written) and a
#: call that passes the value, for each real-number argument of the
#: public entry points; every one is checked by spaces._check_real
REAL_CALLS = {
    "StepConfig tau": ("tau", 0.0, math.inf, "][", lambda t: ss.StepConfig(t, (0.1,), (1.0,))),
    "validate_steps sigma": ("sigma[1]", 0.0, math.inf, "][",
                             lambda s: ss.validate_steps(simple_spec(m=2), 0.1, (0.1, s))),
    "StepConfig lam": ("lambda", 0.0, 1.0, "]]",
                       lambda lam: ss.StepConfig(0.1, (0.1,), (1.0,), lam)),
    "StoppingRule tol": ("tol", 0.0, math.inf, "[[", lambda t: ss.StoppingRule(tol=t)),
    "solve_convex kkt_tol": ("kkt_tol", 0.0, math.inf, "[[", lambda t: ss.solve_convex(
        tiny_convex_problem(), stop=ss.StoppingRule(max_iter=1), kkt_tol=t)),
    "geometric_errors amplitude": ("amplitude", 0.0, math.inf, "[[", lambda a: ss.geometric_errors(
        ss.SpaceLayout(2, (2,), (1.0,)), a, 0.5)),
    "geometric_errors decay": ("decay", 0.0, 1.0, "][", lambda d: ss.geometric_errors(
        ss.SpaceLayout(2, (2,), (1.0,)), 0.1, d)),
    "validate_steps norms": ("block 0: norm of L", 0.0, math.inf, "][", lambda nm: ss.validate_steps(
        simple_spec(), 0.1, (0.1,), norms=(nm,))),
    "suggest_steps safety": ("safety", 0.0, 1.0, "][",
                             lambda s: ss.suggest_steps(simple_spec(), safety=s)),
    "LinearOp norm_hint": ("norm_hint", 0.0, math.inf, "[]",
                           lambda h: ss.LinearOp(2, 2, np.negative, np.negative, norm_hint=h)),
    "CocoerciveOp constant": ("constant", 0.0, math.inf, "]]",
                              lambda c: ss.CocoerciveOp(2, np.negative, c)),
    "estimate_norm tol": ("tol", 0.0, math.inf, "][",
                          lambda t: ss.estimate_norm(ss.identity_op(2), tol=t)),
    "resolvent_of_inverse sigma": ("sigma", 0.0, math.inf, "][", lambda s: ss.resolvent_of_inverse(
        ss.resolvent_from_prox(ss.catalog_prox("box", 2)), s, np.ones(2))),
    "catalog sq_l2 weight": ("sq_l2 weight", 0.0, math.inf, "][",
                             lambda w: ss.catalog_prox("sq_l2", 2, weight=w)),
    "catalog l1 weight": ("l1 weight", 0.0, math.inf, "][",
                          lambda w: ss.catalog_prox("l1", 2, weight=w)),
    "catalog l2 weight": ("l2 weight", 0.0, math.inf, "][",
                          lambda w: ss.catalog_prox("l2", 2, weight=w)),
    "SmoothTerm lipschitz_inv": ("mu", 0.0, math.inf, "]]",
                                 lambda mu: ss.SmoothTerm(2, lambda x: 0.0, np.negative, mu)),
    "StronglyConvexTerm nu": ("nu", 0.0, math.inf, "]]",
                              lambda nu: ss.StronglyConvexTerm(2, np.negative, nu)),
    "quadratic_smooth weight": ("weight", 0.0, math.inf, "][",
                                lambda w: ss.quadratic_smooth(np.zeros(2), weight=w)),
    "quadratic_term nu": ("nu", 0.0, math.inf, "][", lambda nu: ss.quadratic_term(2, nu=nu)),
    "check_gradient rel_tol": ("rel_tol", 0.0, math.inf, "][", _gradient_check_of_sq_norm),
    "SpaceLayout weights": ("weights[0]", 0.0, 1.0, "]]",
                            lambda w: ss.SpaceLayout(2, (2,), (w,))),
}


def _real_cases():
    """(entry, value, message): a bool, a string, a tuple, NaN, the
    infinities and each interval end through every entry of
    ``REAL_CALLS``; ``message`` is ``None`` where the value is in the
    interval."""
    for entry, (name, low, high, ends, _) in REAL_CALLS.items():
        for value in (True, "0.5", (0.5,)):
            yield entry, value, f"{name} must be a real number, got {value!r}"
        interval = f"{ends[0]}{low:g}, {high:g}{ends[1]}"
        inside = {low: ends[0] == "[", high: ends[1] == "]"}
        for value in (math.nan, -math.inf, low, high, math.inf):
            if not inside.get(value, False):
                yield entry, value, f"{name} must lie in {interval}, got {value!r}"
            elif value == high or value == low:
                yield entry, value, None


@pytest.mark.parametrize("entry, value, message", _real_cases(),
                         ids=lambda v: repr(v) if not isinstance(v, str) else v)
def test_real_argument_refused_by_name(entry, value, message):
    call = REAL_CALLS[entry][-1]
    if message is None:
        call(value)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)


class TestRealArgumentsThatUsedToPass:
    def test_nan_tolerance_fails_a_wrong_gradient(self):
        # a NaN rel_tol used to pass a gradient that is 55 % off
        with pytest.raises(ValueError, match="^gradient fails"):
            _gradient_check_of_sq_norm(1e-5)
        with pytest.raises(ValueError, match=r"^rel_tol must lie in \]0, inf\[, got nan$"):
            _gradient_check_of_sq_norm(math.nan)

    def test_nan_sigma_refused_by_resolvent_of_inverse(self):
        # used to return a finite vector
        B = ss.resolvent_from_prox(ss.catalog_prox("box", 2))
        with pytest.raises(ValueError, match=r"^sigma must lie in \]0, inf\[, got nan$"):
            ss.resolvent_of_inverse(B, math.nan, np.ones(2))

    def test_bool_step_refused(self):
        # True used to be stored as the step 1.0
        with pytest.raises(ValueError, match="^tau must be a real number, got True$"):
            ss.StepConfig(True, (0.1,), (1.0,))
        with pytest.raises(ValueError, match=r"^sigma\[0\] must be a real number, got True$"):
            ss.validate_steps(simple_spec(), 0.1, (True,))

    def test_string_weight_refused(self):
        # "2" used to be read as the weight 2.0
        with pytest.raises(ValueError, match="^l1 weight must be a real number, got '2'$"):
            ss.catalog_prox("l1", 3, weight="2")


class TestErrorSchedules:
    def test_geometric_is_summable(self):
        layout = ss.SpaceLayout(3, (2,), (1.0,))
        sched = ss.geometric_errors(layout, amplitude=0.5, decay=0.9, seed=1)
        total = sum(np.linalg.norm(sched(n).a1) for n in range(2000))
        assert total == pytest.approx(0.5 / (1 - 0.9), rel=1e-6)

    def test_zero_schedule_flags(self):
        # no errors and errors that are all None take the same bits;
        # used_errors says whether a callable was given
        spec = shrinkage_spec(n=3, weight=0.2)
        cfg = ss.suggest_steps(spec)
        stop = ss.StoppingRule(tol=0.0, max_iter=20)
        none = ss.solver.IterationErrors(b=(None,), c=(None,))
        exact = ss.run(spec, cfg, x0=np.ones(3), stop=stop)
        empty = ss.run(spec, cfg, x0=np.ones(3), stop=stop, errors=lambda n: none)
        assert not exact.used_errors and empty.used_errors
        assert_same_bits(exact.final_state.u, empty.final_state.u)
        assert [r.residual for r in exact.history] == [r.residual for r in empty.history]

    def test_zero_amplitude_is_the_exact_schedule(self):
        layout = ss.SpaceLayout(2, (2,), (1.0,))
        assert ss.geometric_errors(layout, 0.0, 0.5) is None

    def test_decay_validation(self):
        layout = ss.SpaceLayout(2, (2,), (1.0,))
        with pytest.raises(ValueError):
            ss.geometric_errors(layout, 0.1, 1.0)
        with pytest.raises(ValueError):
            ss.geometric_errors(layout, -0.1, 0.5)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_bad_seed_refused_by_name(self, seed):
        # a negative seed used to reach numpy's "expected non-negative integer"
        layout = ss.SpaceLayout(2, (2,), (1.0,))
        with pytest.raises(ValueError, match=rf"^seed must be an integer >= 0, got {seed!r}$"):
            ss.geometric_errors(layout, 0.1, 0.5, seed=seed)

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf, -0.1])
    def test_bad_amplitude_refused_by_name(self, amplitude):
        layout = ss.SpaceLayout(2, (2,), (1.0,))
        with pytest.raises(ValueError, match=r"^amplitude must lie in \[0, inf\[, got "):
            ss.geometric_errors(layout, amplitude, 0.5)


# ---------------------------------------------------------------------------
# the workspace kernel against a plain allocating loop


def reference_run(spec, cfg, stop, errors=None, x0=None, v0=None):
    """The update and the stopping arithmetic written with fresh arrays
    everywhere, from ``x0`` and ``v0`` (default 0); returns (step norms,
    residuals, x, v, threshold), the last being tol (1 + ||state||) of
    the last iteration from the exact state norm.  The relaxation-1
    update that the residual measures is taken again, error-free, only
    when errors are injected, so the resolvents are called in the same
    order as by ``run``.  At relaxation 1 without errors the next state
    is (p, q) itself, and the displacement p - x, q - v is both the step
    and the residual's, whose cross term is
    <p - x, W(v_{n+1}) - W(v_n)> with W(v) = sum_i w_i L_i^T v_i;
    otherwise the next state is x + lam (p - x) and so on, the step is
    x_{n+1} - x_n, the residual's displacement (x + (p - x)) - x and so
    on, and the cross term is formed block by block."""
    weights = spec.layout.weights
    tau, sigmas = cfg.tau, cfg.sigmas

    def wsum_of(v):
        wsum = np.zeros(spec.layout.dim_primal)
        for w, blk, vi in zip(weights, spec.blocks, v):
            wsum = wsum + w * blk.L.adjoint_apply(vi)
        return wsum

    def update(x, v, err):
        t = wsum_of(v) + spec.C.apply(x)
        if err is not None and err.a1 is not None:
            t = t + err.a1
        p = spec.A.resolvent(tau, x - tau * (t - spec.z))
        if err is not None and err.a2 is not None:
            p = p + err.a2
        y = 2.0 * p - x
        q = []
        for i, blk in enumerate(spec.blocks):
            u = blk.L.apply(y) - blk.Dinv.apply(v[i])
            if err is not None and err.c[i] is not None:
                u = u - err.c[i]
            u = v[i] + sigmas[i] * (u - blk.r)
            qi = ss.resolvent_of_inverse(blk.B, sigmas[i], u)
            if err is not None and err.b[i] is not None:
                qi = qi + err.b[i]
            q.append(qi)
        return p, q

    def relax(x, v, p, q, lam):
        return x + lam * (p - x), [vi + lam * (qi - vi) for vi, qi in zip(v, q)]

    def sq(dx, dv):
        s = float(np.dot(dx, dx))
        for w, d in zip(weights, dv):
            s += w * float(np.dot(d, d))
        return s

    x = np.zeros(spec.layout.dim_primal) if x0 is None else np.array(x0, dtype=float)
    v = ([np.zeros(d) for d in spec.layout.dual_dims] if v0 is None
         else [np.array(vi, dtype=float) for vi in v0])
    steps, residuals = [], []
    for n in range(stop.max_iter):
        lam = cfg.lam
        err = errors(n) if errors is not None else None
        p, q = update(x, v, err)
        carried = err is None and lam == 1.0
        x1, v1 = (p, q) if carried else relax(x, v, p, q, lam)
        if err is not None:
            p, q = update(x, v, None)
        if carried:
            dx = p - x
            dv = [qi - vi for vi, qi in zip(v, q)]
        else:
            xe, ve = relax(x, v, p, q, 1.0)
            dx = xe - x
            dv = [b - a for a, b in zip(v, ve)]
        quad = float(np.dot(dx, dx)) / tau
        for w, s, blk, d in zip(weights, sigmas, spec.blocks, dv):
            quad += w / s * float(np.dot(d, d))
            if not carried:
                quad -= 2.0 * w * float(np.dot(blk.L.apply(dx), d))
        if carried:
            quad -= 2.0 * float(np.dot(dx, wsum_of(v1) - wsum_of(v)))
        residuals.append(math.sqrt(max(quad, 0.0)))
        if carried:
            steps.append(math.sqrt(sq(dx, dv)))
        else:
            steps.append(math.sqrt(sq(x1 - x, [b - a for a, b in zip(v, v1)])))
        threshold = stop.tol * (1.0 + math.sqrt(sq(x, v)))
        x, v = x1, v1
        if residuals[-1] <= threshold:
            break
    return steps, residuals, x, v, threshold


def recorded(spec):
    """``spec`` with the resolvent of A and each dual resolvent keeping a
    copy of every argument in one log, and the log.  The arguments carry
    signed zeros that a relaxed state loses (v + (q - v) is never -0)."""
    log = []

    def keep(fn):
        if fn is None:
            return None

        def wrapped(gamma, w):
            log.append(np.array(w, dtype=float))
            return fn(gamma, w)
        return wrapped

    def wrap(op):
        return ss.ResolventOp(op.dim, keep(op.resolvent), keep(op.inverse_resolvent))

    blocks = tuple(dataclasses.replace(blk, B=wrap(blk.B)) for blk in spec.blocks)
    return dataclasses.replace(spec, A=wrap(spec.A), blocks=blocks), log


def relaxed(spec, cfg, lam):
    return ss.validate_steps(spec, cfg.tau, cfg.sigmas, norms=cfg.norms,
                             lam=lam)


def fb_case():
    cp, params = ss.benchmarks.fb_problem()
    spec = cp.spec
    cfg = ss.validate_steps(spec, params["tau"], (params["sigma"],),
                            lam=params["lam"])
    return spec, cfg, None


def condat_case():
    cp, params = ss.benchmarks.condat_problem()
    spec = cp.spec
    return spec, relaxed(spec, ss.suggest_steps(spec, safety=params["safety"]),
                         params["lam"]), None


def errors_case():
    cp, _ = ss.benchmarks.fused_lasso_problem()
    spec = cp.spec
    cfg = relaxed(spec, ss.suggest_steps(spec), 0.9)
    return spec, cfg, ss.geometric_errors(spec.layout, 0.1, 0.9, seed=9)


def tv2d_case(side=16):
    half = side // 2
    b = np.kron(np.array([[1.0, -0.5], [0.25, 2.0]]), np.ones((half, half))).ravel()
    b = b + 0.05 * np.random.default_rng(7).standard_normal(b.size)
    L = ss.grad2d_op(side, side)
    n, m = L.in_dim, L.out_dim
    spec = ss.ProblemSpec(
        layout=ss.SpaceLayout(n, (m,), (1.0,)),
        A=ss.resolvent_from_prox(ss.catalog_prox("zero", n)),
        C=ss.CocoerciveOp(n, lambda x: x - b, 1.0),
        z=np.zeros(n),
        blocks=(ss.Block(B=ss.resolvent_from_prox(ss.catalog_prox("l1", m, weight=0.3)),
                         Dinv=ss.CocoerciveOp.zero(m), L=L, r=np.zeros(m)),),
    )
    return spec, dataclasses.replace(ss.suggest_steps(spec), balance=None), None


def custom_b_case():
    """tv2d-16x16 with the l1 block's B as a custom resolvent, so the dual
    step takes the inverse-resolvent identity instead of the clip."""
    spec, cfg, _ = tv2d_case()
    blk = spec.blocks[0]
    g = ss.catalog_prox("l1", blk.B.dim, weight=0.3)
    custom = dataclasses.replace(blk, B=ss.ResolventOp(blk.B.dim, g.prox))
    return dataclasses.replace(spec, blocks=(custom,)), cfg, None


def mixed_dual_case():
    """The condat problem with block 1's B a custom resolvent around the
    l2 prox: block 0 takes the catalog's closed-form dual step and block
    1 the inverse-resolvent identity, at relaxation 0.8 with geometric
    errors."""
    cp, _ = ss.benchmarks.condat_problem()
    spec = cp.spec
    blk = spec.blocks[1]
    custom = dataclasses.replace(blk, B=ss.ResolventOp(blk.B.dim, cp.blocks[1].g.prox))
    spec = dataclasses.replace(spec, blocks=(spec.blocks[0], custom))
    cfg = relaxed(spec, ss.suggest_steps(spec), 0.8)
    return spec, cfg, ss.geometric_errors(spec.layout, 0.1, 0.9, seed=5)


def negated_op(n):
    """-Id as a custom operator; it maps +0 entries to -0."""
    return ss.LinearOp(n, n, np.negative, np.negative, norm_hint=1.0)


def offsets_case(offset=0.0, weights=(1.0,), Dinv=None, C=None, lam=1.0, A=None):
    """Denoising on R^12 that meets every term the kernel may skip.

    A is the prox of (1/2)||x - b||^2, or ``A(b)`` when given, and b
    vanishes on every third entry; C is x - b and each D_i^{-1} the zero
    map unless given.  z and every r_i are filled with ``offset``.  The
    first block couples through -Id, the others through Id.  From the
    :func:`signed_zero_start`, signed zeros reach the resolvent
    arguments in two places:

    * where b = 0, y = 2p - x is +0, so L_1 y = -0; subtracting a -0 r_1
      gives +0, which shows in the dual argument v + sigma (.) where
      v = -0 (-0 + +0 = +0, against -0 + -0 = -0);
    * L_1^T v is -0 where v = +0; the weighted sum's start maps it to
      +0, which with a zero C shows in the primal argument x - tau t at
      x = -0.
    """
    n = 12
    b = np.linspace(-1.5, 1.5, n)
    b[::3] = 0.0
    layout = ss.SpaceLayout(n, (n,) * len(weights), weights)
    blocks = tuple(
        ss.Block(B=ss.resolvent_from_prox(ss.catalog_prox("l1", n, weight=0.3)),
                 Dinv=Dinv or ss.CocoerciveOp.zero(n),
                 L=negated_op(n) if i == 0 else ss.identity_op(n),
                 r=np.full(n, offset))
        for i in range(len(weights))
    )
    spec = ss.ProblemSpec(
        layout=layout,
        A=A(b) if A else ss.resolvent_from_prox(
            ss.catalog_prox("sq_l2", n, weight=1.0, center=b)),
        C=C or ss.CocoerciveOp(n, lambda x: x - b, 1.0),
        z=np.full(n, offset),
        blocks=blocks,
    )
    cfg = dataclasses.replace(ss.suggest_steps(spec, lam=lam), balance=None)
    return spec, cfg, None


def errors_at_one_case():
    """The offsets problem at relaxation 1 with geometric errors, so every
    update takes the relaxed formula x + (p - x)."""
    spec, cfg, _ = offsets_case()
    return spec, cfg, ss.geometric_errors(spec.layout, 0.1, 0.9, seed=3)


def sq_resolvent(returns_input, seen=None):
    """``b -> ResolventOp`` of the resolvent of x - b, (w + gamma b) /
    (1 + gamma), as a custom map: one that writes over its argument and
    returns it, or one that returns a fresh array of the same bits.
    ``seen``, when given, collects every argument."""
    def build(b):
        def resolvent(gamma, w):
            if seen is not None:
                seen.append(w)
            if not returns_input:
                return (w + gamma * b) / (1.0 + gamma)
            np.add(w, gamma * b, out=w)
            return np.divide(w, 1.0 + gamma, out=w)
        return ss.ResolventOp(b.size, resolvent)
    return build


def custom_a_case(returns_input, lam=1.0, seed=None):
    """The offsets problem with A the custom :func:`sq_resolvent`, at
    relaxation ``lam`` and with geometric errors when ``seed`` is given.
    On a relaxed update p lands in the argument the resolvent is handed,
    or in a fresh array, and 2p - x is formed over that argument."""
    spec, cfg, _ = offsets_case(lam=lam, A=sq_resolvent(returns_input))
    return spec, cfg, None if seed is None else ss.geometric_errors(
        spec.layout, 0.1, 0.9, seed=seed)


#: (case, id, skipped): ``skipped`` names the kernel passes the case
#: skips, so each skip is met where it applies and where it must not; the
#: weighted sum's zero fill is folded into its first add on every case
CASES = [
    (fb_case, "fb-0.9", "z r Dinv omega"),
    (condat_case, "condat-0.85", "z r Dinv"),
    (errors_case, "geometric-errors", "z r Dinv omega"),
    (tv2d_case, "tv2d-16x16", "z r Dinv omega lambda"),
    (custom_b_case, "tv2d-custom-B", "z r Dinv omega lambda"),
    (mixed_dual_case, "mixed-dual-steps-errors-0.8", "z r Dinv"),
    (offsets_case, "offsets-+0", "z r Dinv omega lambda"),
    (lambda: offsets_case(offset=-0.0), "offsets--0", "Dinv omega lambda"),
    (lambda: offsets_case(offset=0.25), "offsets-0.25", "Dinv omega lambda"),
    (lambda: offsets_case(weights=(0.7, 0.3)), "omega-0.7-0.3", "z r Dinv lambda"),
    (lambda: offsets_case(lam=0.8), "lambda-0.8", "z r Dinv omega"),
    (lambda: offsets_case(Dinv=ss.CocoerciveOp(12, lambda v: 0.5 * v, 2.0)),
     "custom-Dinv", "z r omega lambda"),
    (lambda: offsets_case(C=ss.CocoerciveOp.zero(12)), "zero-C", "C z r Dinv omega lambda"),
    (errors_at_one_case, "errors-lambda-1", "z r Dinv omega lambda"),
    (lambda: custom_a_case(True, lam=0.9), "A-returns-input-0.9", "z r Dinv omega"),
    (lambda: custom_a_case(False, lam=0.9), "A-fresh-0.9", "z r Dinv omega"),
    (lambda: custom_a_case(True, seed=3), "A-returns-input-errors-lambda-1",
     "z r Dinv omega lambda"),
    (lambda: custom_a_case(False, seed=3), "A-fresh-errors-lambda-1", "z r Dinv omega lambda"),
]


def signed_zero_start(layout):
    """x = -0, and each v_i -0 on odd entries and +0 on even ones."""
    v0 = []
    for d in layout.dual_dims:
        vi = np.zeros(d)
        vi[1::2] = -0.0
        v0.append(vi)
    return np.full(layout.dim_primal, -0.0), v0


class TestBitwiseAgainstPlainLoop:
    """The workspace kernel against the plain loop, bit for bit: every
    step norm, residual, final iterate and resolvent argument, from a
    start of signed zeros (see :func:`offsets_case`)."""

    @pytest.mark.parametrize("case, skipped", [(c, k) for c, _, k in CASES],
                             ids=[i for _, i, _ in CASES])
    def test_history_and_final_state(self, case, skipped):
        spec, cfg, errors = case()
        x0, v0 = signed_zero_start(spec.layout)
        stop = ss.StoppingRule(tol=1e-9, max_iter=3000)
        spec_ref, log_ref = recorded(spec)
        steps, residuals, x, v, threshold = reference_run(spec_ref, cfg, stop, errors, x0, v0)
        spec_run, log_run = recorded(spec)
        report = ss.run(spec_run, cfg, x0=x0, v0=v0, stop=stop, errors=errors)
        assert report.termination == "converged"
        assert report.iterations == len(steps)
        assert report.stop == ss.StopReason("residual", residuals[-1], threshold)
        assert_same_bits([rec.step_norm for rec in report.history], steps)
        assert_same_bits([rec.residual for rec in report.history], residuals)
        assert_same_bits(report.final_state.x, x)
        for got, want in zip(report.final_state.v, v):
            assert_same_bits(got, want)
        assert len(log_run) == len(log_ref)
        for got, want in zip(log_run, log_ref):
            assert_same_bits(got, want)
        assert skip_flags(spec, cfg) == set(skipped.split())


@pytest.mark.parametrize("lam, seed", [(0.9, None), (1.0, 3)], ids=["0.9", "errors-1"])
def test_relaxed_update_hands_a_the_plans_argument(monkeypatch, lam, seed):
    # a relaxed update forms the resolvent's argument in the plan's arg
    # and hands it over as the output too, so p lands there
    plans, seen = [], []
    init = ss.solver._Workspace.__init__

    def kept(ws, *args):
        init(ws, *args)
        plans.append(ws)

    monkeypatch.setattr(ss.solver._Workspace, "__init__", kept)
    spec, cfg, _ = offsets_case(lam=lam, A=sq_resolvent(True, seen))
    errors = None if seed is None else ss.geometric_errors(spec.layout, 0.1, 0.9, seed=seed)
    report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=0.0, max_iter=20), errors=errors)
    assert report.iterations == 20 and len(plans) == 1
    assert len(seen) == (1 if seed is None else 2) * 20
    assert all(w is plans[0].arg for w in seen)
    assert not np.shares_memory(report.final_state.u, plans[0].arg)


def skip_flags(spec, cfg):
    """The skips the kernel takes on ``spec`` at every iteration."""
    ws = ss.solver._Workspace(spec, cfg.tau, cfg.sigmas)
    flags = {name for name, bound in (("C", ws.C), ("z", ws.z)) if bound is None}
    # each block binds (L_i.apply, D_i^{-1}.apply, r_i, ...), None where skipped
    flags |= {"Dinv" for blk in ws.blocks if blk[1] is None}
    flags |= {"r" for blk in ws.blocks if blk[2] is None}
    if all(w == 1.0 for w in spec.layout.weights):
        flags.add("omega")
    if cfg.lam == 1.0:
        flags.add("lambda")
    return flags


def landing_spec(n, A=None, B=None):
    """One identity block on R^n with zero C, z and r, and A and B the
    zero operator unless given: p = J_{tau A}(x - tau v) and
    q = J_{sigma B^{-1}}(v + sigma (2p - x))."""
    return ss.ProblemSpec(
        layout=ss.SpaceLayout(n, (n,), (1.0,)),
        A=A or ss.ResolventOp.zero(n),
        C=ss.CocoerciveOp.zero(n),
        z=np.zeros(n),
        blocks=(ss.Block(B=B or ss.ResolventOp.zero(n), Dinv=ss.CocoerciveOp.zero(n),
                         L=ss.identity_op(n), r=np.zeros(n)),),
    )


def one_update(spec, x0, v0):
    """The report of one update from ``(x0, v0)`` at tau = sigma = 1/2 and
    relaxation 1, and the plain loop's next state."""
    cfg = ss.validate_steps(spec, 0.5, (0.5,))
    stop = ss.StoppingRule(tol=0.0, max_iter=1)
    *_, x, v, _ = reference_run(spec, cfg, stop, None, x0, v0)
    return ss.run(spec, cfg, x0=x0, v0=v0, stop=stop), x, v


class TestNextStateHoldsTheUpdate:
    """At relaxation 1 without errors the next state is (p, q) itself,
    not x + (p - x): p and each q_i are formed in the next state, or
    copied there when a callable returns another array."""

    def test_tiny_p_is_kept_where_the_relaxed_sum_loses_it(self):
        tiny = 2.0 ** -60
        spec = landing_spec(3, A=ss.ResolventOp(3, lambda gamma, w: np.full(3, tiny)))
        report, x, _ = one_update(spec, np.ones(3), [np.zeros(3)])
        assert 1.0 + (tiny - 1.0) == 0.0  # the relaxed formula's x_1
        assert_same_bits(report.final_state.x, np.full(3, tiny))
        assert_same_bits(x, np.full(3, tiny))

    def test_negative_zero_p_and_q_are_kept(self):
        def minus_zero(gamma, w):
            return np.full(3, -0.0)

        spec = landing_spec(3, A=ss.ResolventOp(3, minus_zero),
                            B=ss.ResolventOp(3, lambda gamma, w: w, minus_zero))
        report, x, v = one_update(spec, np.ones(3), [np.ones(3)])
        assert_same_bits(report.final_state.x, np.full(3, -0.0))
        assert_same_bits(report.final_state.v[0], np.full(3, -0.0))
        assert_same_bits(x, report.final_state.x)
        assert_same_bits(v[0], report.final_state.v[0])

    @pytest.mark.parametrize("how", ["fresh-resolvent", "resolvent-returns-input",
                                     "fresh-dual-step", "zero-dual-step"])
    def test_result_lands_in_the_next_state(self, how):
        # the fresh results are tiny, so that x + (p - x) and v + (q - v)
        # round them away
        n = 4
        seen = []

        def tiny(gamma, w):
            return w * 2.0 ** -60

        def same(gamma, w):
            seen.append(w)
            return w

        A = B = None
        if how == "fresh-resolvent":
            A = ss.ResolventOp(n, tiny)
        elif how == "resolvent-returns-input":
            A = ss.ResolventOp(n, same)
        elif how == "fresh-dual-step":
            B = ss.ResolventOp(n, lambda gamma, w: w, tiny)
        spec = landing_spec(n, A=A, B=B)
        report, x, v = one_update(spec, np.linspace(-1.0, 2.0, n),
                                  [np.linspace(0.5, -1.5, n)])
        final = report.final_state
        assert_same_bits(final.x, x)
        assert_same_bits(final.v[0], v[0])
        assert np.shares_memory(final.x, final.u) and np.shares_memory(final.v[0], final.u)
        if how == "resolvent-returns-input":
            # the argument was formed in the next state and is p itself
            assert np.shares_memory(seen[-1], final.u)
        if how == "zero-dual-step":
            zero = spec.blocks[0].B.inverse_resolvent.zero
            assert_same_bits(final.v[0], np.zeros(n))
            assert not zero.flags.writeable and not zero.any()
            assert not np.shares_memory(final.v[0], zero)


def test_gap_plan_holds_no_product_space_array():
    cp, _ = ss.benchmarks.condat_problem()
    plan = ss.convex._GapPlan(cp, 0.1, (0.1, 0.1))
    arrays, todo = [], [getattr(plan.ws, name) for name in type(plan.ws).__slots__]
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            arrays.append(item)
        elif isinstance(item, tuple):
            todo.extend(item)
    assert len(arrays) > 10
    assert max(a.size for a in arrays) < cp.layout.size


def test_wrapped_library_operator_is_called_every_iteration():
    # functools.wraps copies no buffer form onto a wrapper, so the run
    # calls the wrapper, and it gets the bits of the bare operator
    cp, _ = ss.benchmarks.tv1d_problem()
    spec, cfg = cp.spec, ss.suggest_steps(cp.spec)
    L = spec.blocks[0].L
    counts = {"apply": 0, "adjoint": 0}

    def traced(name, fn):
        @functools.wraps(fn)
        def wrapper(x):
            counts[name] += 1
            return fn(x)
        return wrapper

    wrapped = dataclasses.replace(L, apply=traced("apply", L.apply),
                                  adjoint_apply=traced("adjoint", L.adjoint_apply))
    spec_w = dataclasses.replace(spec, blocks=(dataclasses.replace(spec.blocks[0], L=wrapped),))
    stop = ss.StoppingRule(tol=0.0, max_iter=25)
    report = ss.run(spec_w, cfg, stop=stop)
    bare = ss.run(spec, cfg, stop=stop)
    assert report.iterations == 25
    # lambda = 1 without errors: L once and L^T once per iteration, L^T
    # once more for the initial weighted sum
    assert counts == {"apply": 25, "adjoint": 26}
    assert_same_bits(report.final_state.u, bare.final_state.u)
    for name in ("step_norm", "residual"):
        assert_same_bits([getattr(r, name) for r in report.history],
                         [getattr(r, name) for r in bare.history])


def zero_smooth_mu_case():
    """The tv1d suite problem with f the data term and h = zero_smooth
    with a declared mu = 2."""
    cp, params = ss.benchmarks.tv1d_problem()
    n = cp.layout.dim_primal
    cp = dataclasses.replace(cp, f=ss.catalog_prox("sq_l2", n, center=params["b"]),
                             h=ss.zero_smooth(n, mu=2.0))
    return cp.spec, dataclasses.replace(ss.suggest_steps(cp.spec), balance=None), None


def test_zero_smooth_with_finite_mu_skips_its_pass_and_keeps_its_constant():
    spec, cfg, _ = zero_smooth_mu_case()
    assert skip_flags(spec, cfg) >= {"C"}
    assert spec.C.constant == 2.0
    norm = cfg.norms[0]
    margin = (1.0 / cfg.tau - 0.5 / 2.0) - math.fsum([norm * norm / (1.0 / cfg.sigmas[0])])
    assert ss.step_condition(spec, cfg).margin == margin
    x0, v0 = signed_zero_start(spec.layout)
    stop = ss.StoppingRule(tol=1e-9, max_iter=3000)
    spec_ref, log_ref = recorded(spec)
    steps, residuals, x, v, _ = reference_run(spec_ref, cfg, stop, None, x0, v0)
    spec_run, log_run = recorded(spec)
    report = ss.run(spec_run, cfg, x0=x0, v0=v0, stop=stop)
    assert report.termination == "converged" and report.iterations == len(steps)
    assert_same_bits([rec.step_norm for rec in report.history], steps)
    assert_same_bits([rec.residual for rec in report.history], residuals)
    assert_same_bits(report.final_state.x, x)
    assert_same_bits(report.final_state.v[0], v[0])
    assert len(log_run) == len(log_ref)
    for got, want in zip(log_run, log_ref):
        assert_same_bits(got, want)


def test_vanishes_only_for_positive_zeros():
    # x - a = x for every x only when every entry of a is +0.0
    tiny = np.nextafter(0.0, 1.0)
    assert ss.solver._vanishes(np.zeros(7))
    assert ss.solver._vanishes(np.zeros(12)[::3])
    for bad in (-0.0, tiny, -tiny, 1.0, math.inf, -math.inf, math.nan):
        a = np.zeros(7)
        a[4] = bad
        assert not ss.solver._vanishes(a)
        assert not ss.solver._vanishes(np.repeat(a, 2)[::2])


# ---------------------------------------------------------------------------
# the weighted adjoint sum carried across iterations


def counted(L, counts):
    """``L`` as a custom operator that counts its applies and adjoint applies."""
    def apply(x):
        counts["apply"] += 1
        return L.apply(x)

    def adjoint_apply(y):
        counts["adjoint"] += 1
        return L.adjoint_apply(y)
    return ss.LinearOp(L.in_dim, L.out_dim, apply, adjoint_apply, norm_hint=L.norm_hint)


def random_spec(seed, weights=(0.6, 0.4)):
    """Random instance: l1 prox A, C = x - b, one random matrix per block
    with an l1 or box B and a zero or scaled D^{-1}."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    b = rng.standard_normal(n)
    dims = tuple(int(rng.integers(2, 7)) for _ in weights)
    blocks = []
    for i, d in enumerate(dims):
        B = (ss.catalog_prox("l1", d, weight=0.3) if i % 2 == 0
             else ss.catalog_prox("box", d, lo=-0.5, hi=0.5))
        Dinv = (ss.CocoerciveOp.zero(d) if rng.random() < 0.5
                else ss.CocoerciveOp(d, lambda v: 0.5 * v, 2.0))
        blocks.append(ss.Block(B=ss.resolvent_from_prox(B), Dinv=Dinv,
                               L=ss.matrix_op(rng.standard_normal((d, n))),
                               r=0.1 * rng.standard_normal(d)))
    return ss.ProblemSpec(
        layout=ss.SpaceLayout(n, dims, weights),
        A=ss.resolvent_from_prox(ss.catalog_prox("l1", n, weight=0.2)),
        C=ss.CocoerciveOp(n, lambda x: x - b, 1.0),
        z=0.1 * rng.standard_normal(n),
        blocks=tuple(blocks),
    ), rng


class TestCarriedWeightedSum:
    """At relaxation 1 without errors the residual's cross term is
    <dx, W_{n+1} - W_n>, W_n = sum_i w_i L_i^T v_{i,n}, with W_{n+1}
    formed once for the next iteration."""

    @pytest.mark.parametrize("lam, amplitude, applies", [(1.0, 0.0, 1), (0.8, 0.0, 2),
                                                         (1.0, 0.1, 3)])
    def test_operator_calls_per_iteration(self, lam, amplitude, applies):
        spec, _ = random_spec(1)
        counts = [{"apply": 0, "adjoint": 0} for _ in spec.blocks]
        blocks = tuple(dataclasses.replace(blk, L=counted(blk.L, c))
                       for blk, c in zip(spec.blocks, counts))
        spec = dataclasses.replace(spec, blocks=blocks)
        cfg = ss.suggest_steps(spec, lam=lam)
        for c in counts:
            c.update(apply=0, adjoint=0)  # the norm estimates are setup
        errors = ss.geometric_errors(spec.layout, amplitude, 0.9)
        k = 9
        report = ss.run(spec, cfg, errors=errors, stop=ss.StoppingRule(tol=0.0, max_iter=k))
        assert report.iterations == k
        # one L_i in the update, one more in the residual's cross term
        # below relaxation 1 or with errors, and one in the error-free
        # update taken again with errors; one L_i^T per iteration for the
        # next weighted sum, plus W_0
        assert counts == [{"apply": applies * k, "adjoint": k + 1}] * spec.num_blocks

    @pytest.mark.parametrize("seed", range(8))
    def test_residual_agrees_with_blockwise_cross_term(self, seed):
        weights = ((1.0,), (0.6, 0.4), (0.5, 0.3, 0.2))[seed % 3]
        spec, rng = random_spec(seed, weights)
        cfg = dataclasses.replace(ss.suggest_steps(spec), balance=None)
        x0 = rng.standard_normal(spec.layout.dim_primal)
        v0 = [rng.standard_normal(d) for d in spec.layout.dual_dims]
        report = ss.run(spec, cfg, x0=x0, v0=v0, stop=ss.StoppingRule(tol=0.0, max_iter=40),
                        record_states=True)
        assert report.iterations == 40
        for rec, a, b in zip(report.history, report.states, report.states[1:]):
            d = b.u - a.u
            dx, dv = spec.layout.split(d)
            sq = ss.solver._sq_norms(dx, dv)
            quad = ss.solver._Workspace(spec, cfg.tau, cfg.sigmas).quadform(dx, dv, *sq)
            assert rec.residual == pytest.approx(math.sqrt(quad), rel=1e-10)

    def test_overflowed_cross_term_is_not_a_zero_residual(self):
        spec = simple_spec()
        cfg = ss.suggest_steps(spec)
        dx, dv = np.array([1.0]), (np.array([1e-3]),)
        sq = ss.solver._sq_norms(dx, dv)
        ws = ss.solver._Workspace(spec, cfg.tau, cfg.sigmas,
                                  admissible=ss.step_condition(spec, cfg).admissible)
        residual = ws.residual(dx, dv, sq, np.array([math.inf]))
        assert residual == math.inf

    def test_suite_iteration_counts_kept(self):
        counts = {name: rep.iterations
                  for suite in ss.benchmarks.SUITE_NAMES
                  for name, rep in ss.benchmarks.run_suite(suite).reports.items()}
        # the tv1d, fusedlasso and intersection suites run on balanced
        # steps; on fixed ones they took 364, 51, 259 and 223
        assert counts == {
            "tv1d": 204, "fusedlasso": 51, "fusedlasso-errors": 260,
            "project-intersection": 116, "fb-reduction": 1000,
            "condat-reduction": 107, "two-step-reduction": 107,
        }


# ---------------------------------------------------------------------------
# the stop test: finiteness from the update's dots, a carried state-norm bound


def failing_at(n_fail, fn):
    """``fn`` that returns its result times inf from its call ``n_fail``
    (0-based) on."""
    calls = []

    def wrapped(*args):
        calls.append(1)
        out = fn(*args)
        return out * np.inf if len(calls) > n_fail else out
    return wrapped


def spied_state_norms(monkeypatch):
    """Record ``(n, value)`` of every exact state norm ``run`` forms, with
    ``n`` the iteration of the state, counted as the updates ``run`` has
    formed in a new state before the norm, less one.  For runs at
    relaxation 1 without errors, whose every update forms p and q in the
    next state."""
    calls, updates = [], []
    exact, kernel = ss.solver._state_norm, ss.solver._kernel

    def counted(ws, x, v, wsum, err, into, dx, dv):
        if into is not None:
            updates.append(into)
        return kernel(ws, x, v, wsum, err, into, dx, dv)

    def spy(weights, x, v):
        value = exact(weights, x, v)
        calls.append((len(updates) - 1, value))
        return value
    monkeypatch.setattr(ss.solver, "_kernel", counted)
    monkeypatch.setattr(ss.solver, "_state_norm", spy)
    return calls


def expected_norm_calls(report, tol, exact):
    """The iterations at which the stop test must form the exact state
    norm, by the carried bound's recursion, and the number of them at
    which the residual is at most tol (1 + U); ``exact`` maps an
    iteration to the norm formed there."""
    due, near = [], 0
    bound = math.inf
    for n, rec in enumerate(report.history):
        close = not math.isfinite(bound) or rec.residual <= tol * (1.0 + bound)
        near += close
        if n % ss.solver.NORM_RESYNC == 0 or close:
            due.append(n)
            bound = exact[n]
        bound = ((bound + rec.step_norm) * (1.0 + ss.solver.NORM_BOUND_SLACK)
                 + ss.solver.NORM_BOUND_FLOOR)
    return due, near


class TestStopTest:
    """Finiteness is read off the squared norms the update forms, and the
    exact state norm is formed only where it can change the decision."""

    @pytest.mark.parametrize("where", ["B", "L"])
    def test_non_finite_dual_update_names_block(self, where):
        # block 1's B resolvent (box, taken through the inverse-resolvent
        # identity) or L apply returns inf from iteration 3 on
        spec, _ = random_spec(2)
        norms = ss.certified_norms(spec)  # before L is replaced
        blk = spec.blocks[1]
        if where == "B":
            blk = dataclasses.replace(blk, B=ss.ResolventOp(
                blk.B.dim, failing_at(3, blk.B.resolvent)))
        else:
            blk = dataclasses.replace(blk, L=ss.LinearOp(
                blk.L.in_dim, blk.L.out_dim, failing_at(3, blk.L.apply),
                blk.L.adjoint_apply, norm_hint=blk.L.norm_hint))
        spec = dataclasses.replace(spec, blocks=(spec.blocks[0], blk))
        cfg = ss.suggest_steps(spec, norms=norms)
        report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=0.0, max_iter=10))
        assert report.termination == "diverged"
        assert report.stop == ss.StopReason("diverged")
        assert report.failure == "non-finite value in dual update q[1] at iteration 3"
        assert report.iterations == 3

    def test_non_finite_primal_update_names_p_before_any_L(self):
        spec, _ = random_spec(2)
        seen = []

        def watched(L):
            def apply(y):
                seen.append(bool(np.isfinite(y).all()))
                return L.apply(y)
            return ss.LinearOp(L.in_dim, L.out_dim, apply, L.adjoint_apply,
                               norm_hint=L.norm_hint)

        blocks = tuple(dataclasses.replace(blk, L=watched(blk.L)) for blk in spec.blocks)
        A = ss.ResolventOp(spec.A.dim, failing_at(5, spec.A.resolvent))
        spec = dataclasses.replace(spec, A=A, blocks=blocks)
        cfg = ss.suggest_steps(spec)
        seen.clear()  # the norm estimates are setup
        report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=0.0, max_iter=10))
        assert report.failure == "non-finite value in primal update p at iteration 5"
        assert report.iterations == 5
        assert seen == [True] * 10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_state_whose_squares_overflow_goes_on(self):
        # from x = 1e200 the step is about -tau x: finite, but its square
        # overflows, so the dot is inf while p is finite
        spec = shrinkage_spec(n=4)
        cfg = ss.suggest_steps(spec)
        report = ss.run(spec, cfg, x0=np.full(4, 1e200),
                        stop=ss.StoppingRule(tol=1e-10, max_iter=3))
        assert report.failure is None
        assert report.stop == ss.StopReason("max_iter", 3.0, 3.0)
        assert all(rec.step_norm == math.inf for rec in report.history)
        assert np.isfinite(report.final_state.u).all()
        assert np.all(report.final_state.x > 1e150)

    def test_exact_state_norm_formed_only_near_the_threshold(self, monkeypatch):
        spec, cfg, _ = tv2d_case()
        stop = ss.StoppingRule(tol=1e-9, max_iter=3000)
        calls = spied_state_norms(monkeypatch)
        report = ss.run(spec, cfg, stop=stop)
        assert report.termination == "converged"
        k = report.iterations
        assert k > 4 * ss.solver.NORM_RESYNC
        exact = dict(calls)
        assert len(exact) == len(calls)  # at most once per iteration
        due, near = expected_norm_calls(report, stop.tol, exact)
        assert [n for n, _ in calls] == due
        assert len(calls) <= math.ceil(k / ss.solver.NORM_RESYNC) + near
        # the bound spares most of the passes
        assert len(calls) < k // 8

    def test_stop_reason_matches_reference_on_drifting_state(self, monkeypatch):
        # from far out the state norm falls by four orders of magnitude, so
        # the carried bound runs far above it; the stop must not move
        spec, cfg, _ = tv2d_case()
        rng = np.random.default_rng(4)
        x0 = 1e4 * rng.standard_normal(spec.layout.dim_primal)
        v0 = [1e4 * rng.standard_normal(d) for d in spec.layout.dual_dims]
        stop = ss.StoppingRule(tol=1e-7, max_iter=5000)
        steps, residuals, x, v, threshold = reference_run(spec, cfg, stop, None, x0, v0)
        calls = spied_state_norms(monkeypatch)
        report = ss.run(spec, cfg, x0=x0, v0=v0, stop=stop)
        assert report.iterations == len(steps)
        assert report.stop == ss.StopReason("residual", residuals[-1], threshold)
        assert_same_bits([rec.residual for rec in report.history], residuals)
        assert_same_bits(report.final_state.x, x)
        k = report.iterations
        assert (k - 1) % ss.solver.NORM_RESYNC != 0
        assert calls[0][1] > 100 * calls[-1][1]
        assert len(calls) < k // 8

    def test_zero_tolerance_takes_exactly_k_steps(self, monkeypatch):
        spec, rng = random_spec(5)
        cfg = ss.suggest_steps(spec)
        k = 3 * ss.solver.NORM_RESYNC + 5
        calls = spied_state_norms(monkeypatch)
        report = ss.run(spec, cfg, x0=rng.standard_normal(spec.layout.dim_primal),
                        stop=ss.StoppingRule(tol=0.0, max_iter=k))
        assert report.iterations == k
        assert report.stop == ss.StopReason("max_iter", float(k), float(k))
        # no residual is exactly 0, so only the resyncs form the norm
        assert all(rec.residual > 0.0 for rec in report.history)
        assert [n for n, _ in calls] == list(range(0, k, ss.solver.NORM_RESYNC))


def counted_kernel(monkeypatch):
    """A list that grows by one entry per ``_kernel`` call of ``run``."""
    calls, kernel = [], ss.solver._kernel

    def counted(*args):
        calls.append(1)
        return kernel(*args)
    monkeypatch.setattr(ss.solver, "_kernel", counted)
    return calls


def full_run(spec, cfg, **kwargs):
    """``run`` with every row computed: an ``extra_stop`` that never
    stops turns the copying of a repeated state off."""
    return ss.run(spec, cfg, extra_stop=lambda *_: None, **kwargs)


def assert_same_report(got, want):
    """The reports agree in every value but ``wall_ms``, bit for bit, and
    no two recorded states share memory."""
    assert got.iterations == want.iterations
    assert got.stop == want.stop
    assert (got.steps, got.step_changes) == (want.steps, want.step_changes)
    for g, w in zip(got.history.columns[:2], want.history.columns[:2]):
        assert_same_bits(g, w)
    assert got.final_state.n == want.final_state.n
    assert_same_bits(got.final_state.u, want.final_state.u)
    assert (got.states is None) == (want.states is None)
    if got.states is not None:
        assert len(got.states) == len(want.states)
        for k, (g, w) in enumerate(zip(got.states, want.states)):
            assert g.n == w.n
            assert_same_bits(g.u, w.u)
            assert not any(np.shares_memory(g.u, got.states[j].u)
                           for j in range(max(k - 2, 0), k))


class TestRepeatedState:
    """A run that nothing reads row by row copies its rows from a state
    that repeats bit for bit (README's "The stop test")."""

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("max_iter", [1000, 1001])
    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.7, 0.9, 1.0])
    def test_report_is_the_full_runs(self, lam, max_iter, record):
        # on the fb problem lam = 0.9 settles into a 2-cycle and 0.3 into
        # a fixed point, 0.5 and 0.7 into neither, and 1.0 stops by tol
        spec, cfg, _ = fb_case()
        cfg = relaxed(spec, cfg, lam)
        stop = ss.StoppingRule(tol=0.0, max_iter=max_iter)
        want = full_run(spec, cfg, stop=stop, record_states=record)
        got = ss.run(spec, cfg, stop=stop, record_states=record)
        assert_same_report(got, want)

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("lam, period, computed", [(0.9, 2, 41), (0.3, 1, 155)])
    def test_a_cycle_is_computed_once(self, monkeypatch, lam, period, computed, record):
        spec, cfg, _ = fb_case()
        cfg = relaxed(spec, cfg, lam)
        finals = []
        for max_iter in (1000, 1001):
            stop = ss.StoppingRule(tol=0.0, max_iter=max_iter)
            want = full_run(spec, cfg, stop=stop, record_states=record)
            calls = counted_kernel(monkeypatch)
            got = ss.run(spec, cfg, stop=stop, record_states=record)
            assert len(calls) == computed
            assert_same_report(got, want)
            walls = got.history.columns[2]
            assert all(w > 0.0 for w in walls[:computed])
            assert walls[computed:] == [0.0] * (max_iter - computed)
            finals.append(got.final_state.u)
        # the two lengths end on different states of a 2-cycle, so the
        # comparison above tells the final state's phase apart
        assert (finals[0].tobytes() != finals[1].tobytes()) == (period == 2)

    def test_a_positive_tolerance_below_reach_stalls_in_the_cycle(self, monkeypatch):
        spec, cfg, _ = fb_case()
        stop = ss.StoppingRule(tol=1e-30, max_iter=5000)
        want = full_run(spec, cfg, stop=stop)
        calls = counted_kernel(monkeypatch)
        got = ss.run(spec, cfg, stop=stop)
        assert got.stop == ss.StopReason("max_iter", 5000.0, 5000.0)
        assert len(calls) < 50
        assert_same_report(got, want)

    def test_fb_reduction_suite_computes_few_rows(self, monkeypatch):
        calls = counted_kernel(monkeypatch)
        outcome = ss.benchmarks.run_suite("fb-reduction")
        assert outcome.all_passed
        assert outcome.reports["fb-reduction"].iterations == 1000
        assert len(calls) <= 50

    @pytest.mark.parametrize("reader", ["errors", "iter_metrics", "extra_stop"])
    def test_a_run_read_row_by_row_computes_every_row(self, monkeypatch, reader):
        spec, cfg, _ = fb_case()
        hooks = {"errors": lambda n: None, "iter_metrics": lambda st, wsum: {},
                 "extra_stop": lambda st, wsum: None}
        calls = counted_kernel(monkeypatch)
        report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=0.0, max_iter=200),
                        **{reader: hooks[reader]})
        assert report.iterations == len(calls) == 200

    @pytest.mark.parametrize("active", [True, False])
    def test_a_run_computes_every_row_while_balancing(self, monkeypatch, active):
        # the fixed steps of the fb case, balanced by a rule that never
        # changes them: active while alpha is 0.5, stopped at alpha 0
        spec, cfg, _ = fb_case()
        cfg = dataclasses.replace(cfg, balance=0.99)
        if active:
            monkeypatch.setattr(ss.solver._Balance, "check", lambda self, *args: None)
        else:
            monkeypatch.setattr(ss.solver, "_BALANCE_ALPHA", 0.0)
        stop = ss.StoppingRule(tol=0.0, max_iter=200)
        want = full_run(spec, cfg, stop=stop)
        calls = counted_kernel(monkeypatch)
        got = ss.run(spec, cfg, stop=stop)
        assert_same_report(got, want)
        assert len(calls) == (200 if active else 41)


class TestErrorTuples:
    """An empty ``b`` or ``c`` is exact on every block; any other length
    than one entry per block is refused by name."""

    @pytest.mark.parametrize("scale", [0.0, 1e-3])
    def test_empty_means_exact_on_every_block(self, scale):
        spec, cfg, _ = condat_case()
        m = spec.num_blocks
        a2 = scale * np.random.default_rng(8).standard_normal(spec.layout.dim_primal)
        stop = ss.StoppingRule(tol=1e-9, max_iter=500)
        short = ss.run(spec, cfg, stop=stop,
                       errors=lambda n: ss.IterationErrors(a2=a2 * 0.9 ** n))
        full = ss.run(spec, cfg, stop=stop,
                      errors=lambda n: ss.IterationErrors(a2=a2 * 0.9 ** n,
                                                          b=(None,) * m, c=(None,) * m))
        assert short.iterations == full.iterations > 1
        assert short.stop == full.stop
        for name in ("step_norm", "residual"):
            assert_same_bits([getattr(r, name) for r in short.history],
                             [getattr(r, name) for r in full.history])
        assert_same_bits(short.final_state.u, full.final_state.u)

    @pytest.mark.parametrize("field, length", [("b", 1), ("c", 1), ("b", 3)])
    def test_wrong_length_refused_by_name(self, field, length):
        spec, cfg, _ = condat_case()
        assert spec.num_blocks == 2
        terms = {field: (None,) * length}
        with pytest.raises(ValueError, match=(
                rf"^IterationErrors\.{field} must hold one entry per dual block: "
                rf"expected 2, got {length}$")):
            ss.run(spec, cfg, errors=lambda n: ss.IterationErrors(**terms))

    @pytest.mark.parametrize("field, index, size", [
        ("a1", None, 1), ("a2", None, 1), ("b", 0, 1), ("c", 0, 1),
        ("a1", None, 49), ("b", 0, 50), ("c", 0, 48),
    ])
    def test_wrong_shape_refused_by_name(self, field, index, size):
        # a length-1 term would broadcast over every entry of its block
        cp, _ = ss.benchmarks.tv1d_problem()
        spec = cp.spec
        assert (spec.layout.dim_primal, spec.layout.dual_dims) == (50, (49,))
        term = np.full(size, 1e-3)
        terms = {field: term if index is None else (term,)}
        name = field if index is None else rf"{field}\[{index}\]"
        want = 50 if index is None else 49
        with pytest.raises(ValueError, match=(
                rf"^IterationErrors\.{name} must be a vector of length {want}, "
                rf"got shape \({size},\)$")):
            ss.run(spec, ss.suggest_steps(spec),
                   errors=lambda n: ss.IterationErrors(**terms))

    def test_list_terms_of_the_right_length_run(self):
        cp, _ = ss.benchmarks.tv1d_problem()
        spec, cfg = cp.spec, ss.suggest_steps(cp.spec)
        stop = ss.StoppingRule(tol=0.0, max_iter=5)
        a1 = np.linspace(-1e-3, 1e-3, 50)
        listed = ss.run(spec, cfg, stop=stop,
                        errors=lambda n: ss.IterationErrors(a1=list(a1)))
        arrays = ss.run(spec, cfg, stop=stop, errors=lambda n: ss.IterationErrors(a1=a1))
        assert_same_bits(listed.final_state.u, arrays.final_state.u)


# ---------------------------------------------------------------------------
# aliasing: operators that hand back their input array


def passthrough_spec(n=5):
    """Two blocks whose A, L, L^T and D^{-1} return their input array."""
    b = np.linspace(-2.0, 2.0, n)
    layout = ss.SpaceLayout(n, (n, n), (0.6, 0.4))
    L = ss.LinearOp(n, n, lambda x: x, lambda y: y, norm_hint=1.0)
    blocks = (
        ss.Block(B=ss.resolvent_from_prox(ss.catalog_prox("l1", n, weight=0.5)),
                 Dinv=ss.CocoerciveOp(n, lambda v: v, 1.0), L=L, r=0.1 * b),
        ss.Block(B=ss.resolvent_from_prox(ss.catalog_prox("box", n, lo=-1.0, hi=1.0)),
                 Dinv=ss.CocoerciveOp.zero(n), L=L, r=np.zeros(n)),
    )
    return ss.ProblemSpec(
        layout=layout,
        A=ss.ResolventOp(n, lambda gamma, w: w),
        C=ss.CocoerciveOp(n, lambda x: x - b, 1.0),
        z=np.zeros(n),
        blocks=blocks,
    )


def snapshot(st):
    return [a.copy() for a in (st.x, *st.v)]


class TestAliasing:
    def setup_method(self):
        self.spec = passthrough_spec()
        base = ss.suggest_steps(self.spec, safety=0.9)
        self.cfg = relaxed(self.spec, base, 0.8)
        rng = np.random.default_rng(3)
        self.x0 = rng.standard_normal(5)
        self.v0 = (rng.standard_normal(5), rng.standard_normal(5))
        self.stop = ss.StoppingRule(tol=0.0, max_iter=40)

    def test_recorded_states_match_iterate_once_replay(self):
        # each recorded state (a fresh array per iteration) against a replay
        # of its prefix of the run in two alternating arrays
        report = ss.run(self.spec, self.cfg, x0=self.x0, v0=self.v0,
                        stop=self.stop, record_states=True)
        assert len(report.states) == self.stop.max_iter + 1
        for k, kept in enumerate(report.states[1:], start=1):
            short = ss.run(self.spec, self.cfg, x0=self.x0, v0=self.v0,
                           stop=ss.StoppingRule(tol=0.0, max_iter=k))
            assert short.final_state.n == k
            assert_same_bits(kept.u, short.final_state.u)

    def test_caller_arrays_unchanged(self):
        before = [a.copy() for a in (self.x0, *self.v0)]
        for record in (False, True):
            ss.run(self.spec, self.cfg, x0=self.x0, v0=self.v0, stop=self.stop,
                   record_states=record)
        for got, want in zip((self.x0, *self.v0), before):
            assert_same_bits(got, want)

    def test_hook_states_not_mutated_later(self):
        # the hook runs on the rows 10, 20, ... only; every state it gets
        # keeps its bits to the end of the run, and the iterates are those
        # of a run without a hook
        kept = []

        def hook(st, wsum):
            kept.append((st, snapshot(st)))
            return {"primal_obj": float(st.n)}

        stop = ss.StoppingRule(tol=0.0, max_iter=45)
        report = ss.run(self.spec, self.cfg, x0=self.x0, v0=self.v0,
                        stop=stop, iter_metrics=hook)
        assert ss.solver.OBJECTIVE_STRIDE == 10
        assert [st.n for st, _ in kept] == [10, 20, 30, 40]
        assert [r.iter for r in report.history if r.primal_obj is not None] == [10, 20, 30, 40]
        assert all(r.primal_obj in (None, float(r.iter)) for r in report.history)
        plain = ss.run(self.spec, self.cfg, x0=self.x0, v0=self.v0, stop=stop,
                       record_states=True)
        for st, arrays in kept:
            for got, want in zip(snapshot(st), arrays):
                assert_same_bits(got, want)
            assert_same_bits(st.u, plain.states[st.n].u)
        assert report.final_state.n == 45
        assert_same_bits(report.final_state.u, plain.final_state.u)

    @pytest.mark.parametrize("lam", [1.0, 0.8])
    def test_hooks_get_the_carried_weighted_sum(self, lam):
        # both hooks get, with each state, the weighted sum the run carries:
        # the bits of forming sum_i w_i L_i^T v_i from the state's v
        cfg = relaxed(self.spec, self.cfg, lam)
        seen = {"metrics": [], "stop": []}

        def recorder(name):
            def hook(st, wsum):
                seen[name].append((st.n, [a.copy() for a in st.v], wsum.copy()))
                return {} if name == "metrics" else None
            return hook

        stop = ss.StoppingRule(tol=0.0, max_iter=25)
        ss.run(self.spec, cfg, x0=self.x0, v0=self.v0, stop=stop,
               iter_metrics=recorder("metrics"), extra_stop=recorder("stop"))
        assert [n for n, _, _ in seen["metrics"]] == [10, 20]
        assert [n for n, _, _ in seen["stop"]] == list(range(1, 26))
        for _, v, wsum in seen["metrics"] + seen["stop"]:
            assert_same_bits(wsum, plain_adjoint_sum(self.spec.blocks,
                                                     self.spec.layout.weights, v))

    def test_final_state_survives_divergence(self):
        # iteration 3 fails; the state after iteration 2 must be intact
        calls = []

        def resolvent(gamma, w):
            calls.append(1)
            return w * np.inf if len(calls) == 4 else w

        spec = ss.ProblemSpec(layout=self.spec.layout,
                              A=ss.ResolventOp(5, resolvent),
                              C=self.spec.C, z=self.spec.z, blocks=self.spec.blocks)
        report = ss.run(spec, self.cfg, x0=self.x0, v0=self.v0, stop=self.stop)
        assert report.termination == "diverged"
        assert report.iterations == 3
        three = ss.run(self.spec, self.cfg, x0=self.x0, v0=self.v0,
                       stop=ss.StoppingRule(tol=0.0, max_iter=3))
        assert_same_bits(report.final_state.u, three.final_state.u)

    def test_b_error_never_written_into_dual_resolvent_output(self):
        # the catalog zero function's conjugate prox returns one shared
        # read-only array; an injected b error must not land in it
        cp, _ = ss.benchmarks.fb_problem()
        spec = cp.spec
        cfg = ss.suggest_steps(spec)
        report = ss.run(spec, cfg, stop=self.stop,
                        errors=ss.geometric_errors(spec.layout, 0.1, 0.9, seed=2))
        assert report.termination == "max_iter"
        zero = cp.blocks[0].g.conjugate_prox(1.0, np.ones(cp.layout.dual_dims[0]))
        assert_same_bits(zero, np.zeros(cp.layout.dual_dims[0]))

    def test_zero_map_stays_zero(self):
        ss.run(self.spec, self.cfg, x0=self.x0, v0=self.v0, stop=self.stop)
        zero_map = self.spec.blocks[1].Dinv
        out = zero_map.apply(np.ones(5))
        assert_same_bits(out, np.zeros(5))
        with pytest.raises(ValueError):
            out[0] = 1.0


class TestFlatState:
    """Each state is one flat array over the product space, with x and the
    v blocks as views of it; no two states handed out share memory."""

    def setup_method(self):
        self.spec = passthrough_spec()
        self.cfg = ss.suggest_steps(self.spec, safety=0.9)
        rng = np.random.default_rng(5)
        self.x0 = rng.standard_normal(5)
        self.v0 = (rng.standard_normal(5), rng.standard_normal(5))

    def assert_views_of_u(self, st):
        x, v = self.spec.layout.split(st.u)
        assert st.u.shape == (self.spec.layout.size,)
        for view, block in zip((st.x, *st.v), (x, *v)):
            assert np.shares_memory(view, st.u)
            assert_same_bits(view, block)

    def test_x_and_v_are_views_of_u(self):
        self.assert_views_of_u(ss.initial_state(self.spec.layout, self.x0, self.v0))
        for record in (False, True):
            report = ss.run(self.spec, self.cfg, x0=self.x0, v0=self.v0,
                            stop=ss.StoppingRule(tol=0.0, max_iter=5),
                            record_states=record)
            for kept in (*(report.states or ()), report.final_state):
                self.assert_views_of_u(kept)

    def test_initial_state_copies_inputs(self):
        st = ss.initial_state(self.spec.layout, self.x0, self.v0)
        for given, view in zip((self.x0, *self.v0), (st.x, *st.v)):
            assert not np.shares_memory(given, st.u)
            assert_same_bits(view, given)
        st.u[:] = 0.0
        assert np.all(self.x0 != 0.0)

    def test_recorded_states_are_distinct_arrays(self):
        report = ss.run(self.spec, self.cfg, x0=self.x0, v0=self.v0,
                        stop=ss.StoppingRule(tol=0.0, max_iter=6), record_states=True)
        assert [st.n for st in report.states] == list(range(7))
        assert report.states[-1] is report.final_state
        for i, a in enumerate(report.states):
            for b in report.states[i + 1:]:
                assert not np.shares_memory(a.u, b.u)
        assert not any(np.shares_memory(self.x0, st.u) for st in report.states)

    @pytest.mark.parametrize("which", ["states", "history"])
    def test_recorded_states_read_like_a_read_only_list(self, which):
        # both sequences keep the item they built on its first read
        report = ss.run(self.spec, self.cfg, x0=self.x0, v0=self.v0,
                        stop=ss.StoppingRule(tol=0.0, max_iter=6), record_states=True)
        seq = getattr(report, which)
        n = len(seq)
        assert n == (7 if which == "states" else 6)
        assert seq[n - 1] is seq[-1]
        assert seq[2] is seq[2] and seq[-n] is seq[0]
        assert seq[::-3] == [seq[k] for k in range(n - 1, -1, -3)]
        assert list(seq) == seq[:]
        assert all(a is b for a, b in zip(seq, seq[:]))
        for bad in (n, -n - 1):
            with pytest.raises(IndexError, match=f"^{which} index out of range$"):
                seq[bad]
        if which == "history":
            assert [rec.iter for rec in seq[1:4]] == [2, 3, 4]
            return
        assert seq[6] is report.final_state
        assert [st.n for st in seq[1:4]] == [1, 2, 3]
        with pytest.raises(TypeError):
            seq[0] = seq[1]
        assert_same_bits(seq[0].u, np.concatenate([self.x0, *self.v0]))

    def test_a_hooked_state_is_the_recorded_one(self):
        seen = {}

        def hook(st, wsum):
            seen[st.n] = st
            return {}

        def stop(st, wsum):
            seen.setdefault(st.n, st)
            return None

        report = ss.run(self.spec, self.cfg, stop=ss.StoppingRule(tol=0.0, max_iter=25),
                        record_states=True, iter_metrics=hook, extra_stop=stop)
        assert sorted(seen) == list(range(1, 26))
        assert all(report.states[n] is st for n, st in seen.items())


class TestPerIterationObjects:
    """A run builds an ``IterState`` only for a state it hands out (the
    final state and a metrics-hook row's) and an ``IterationRecord`` only
    for a metrics-hook row; the other rows are kept as columns, a
    recorded state as its flat array, and each item is built when it is
    first read."""

    ITERS = 25

    def setup_method(self):
        cp, _ = ss.benchmarks.tv1d_problem()
        self.spec = cp.spec
        self.cfg = ss.suggest_steps(self.spec)
        self.stop = ss.StoppingRule(tol=0.0, max_iter=self.ITERS)

    @staticmethod
    def counting(monkeypatch):
        counts = {"IterState": 0, "IterationRecord": 0}
        for name in counts:
            base = getattr(ss.solver, name)

            def init(self, *args, _base=base, _name=name, **kwargs):
                counts[_name] += 1
                _base.__init__(self, *args, **kwargs)
            monkeypatch.setattr(ss.solver, name, type(name, (base,), {"__init__": init}))
        return counts

    @pytest.mark.parametrize("hook, record, states, records", [
        (False, False, 1, 0),           # the final state only
        (True, False, 2 + 1, 2),        # rows 10 and 20, then the final state
        (False, True, 1, 0),            # the final state, states[-1]
    ], ids=["pair path", "metrics hook", "record_states"])
    def test_constructions(self, monkeypatch, hook, record, states, records):
        plain = ss.run(self.spec, self.cfg, stop=self.stop, record_states=True)
        plain_rows, plain_states = list(plain.history), list(plain.states)
        counts = self.counting(monkeypatch)
        report = ss.run(self.spec, self.cfg, stop=self.stop, record_states=record,
                        iter_metrics=(lambda st, wsum: {"gap": float(st.n)}) if hook else None)
        assert counts == {"IterState": states, "IterationRecord": records}
        assert report.final_state.n == self.ITERS
        assert_same_bits(report.final_state.u, plain.final_state.u)
        if record:
            # reading the states builds each once, with the bits of the
            # states of the plain run
            kept = list(report.states)
            assert counts["IterState"] == self.ITERS + 1
            assert [st.n for st in kept] == list(range(self.ITERS + 1))
            for got, want in zip(kept, plain_states):
                assert_same_bits(got.u, want.u)
            assert all(a is b for a, b in zip(kept, report.states))
            assert counts["IterState"] == self.ITERS + 1
        # reading the history builds the rows' records, with the bits of
        # the run that built a state on every row
        assert len(report.history) == self.ITERS
        for got, want in zip(report.history, plain_rows):
            assert (got.iter, got.gap is None) == (want.iter, not (hook and got.iter % 10 == 0))
            assert_same_bits([got.step_norm, got.residual], [want.step_norm, want.residual])
        assert counts["IterationRecord"] == self.ITERS

    def test_max_state_deviation_reads_the_recorded_arrays(self, monkeypatch):
        # one stack of the flat arrays, without building the states, and
        # the value of comparing the built states
        plain = ss.run(self.spec, self.cfg, stop=self.stop, record_states=True)
        xs = [st.x.copy() for st in plain.states]
        vs = [[vi.copy() for vi in st.v] for st in plain.states]
        xs[7] = xs[7] + 1e-9
        report = ss.run(self.spec, self.cfg, stop=self.stop, record_states=True)
        counts = self.counting(monkeypatch)
        dev = ss.benchmarks.max_state_deviation(report.states, xs, vs)
        assert counts["IterState"] == 1  # states[0], for the block sizes
        assert_same_bits(dev, ss.benchmarks.max_state_deviation(list(report.states), xs, vs))
        assert_same_bits(dev, float(np.max(np.abs(plain.states[7].x - xs[7]))))

    def test_history_takes_only_records(self):
        report = ss.run(self.spec, self.cfg, stop=self.stop)
        last = report.history[-1]
        for bad in (3, None, report.final_state):
            with pytest.raises(TypeError, match=(
                    rf"^history\[{self.ITERS - 1}\] must be an IterationRecord, got ")):
                report.history[-1] = bad
        assert report.history[-1] is last
        assert format_run_csv(report).count("\n") == self.ITERS + 3

    def test_history_reads_like_a_list_of_frozen_records(self):
        report = ss.run(self.spec, self.cfg, stop=self.stop,
                        iter_metrics=lambda st, wsum: {"kkt": 1.5})
        history = report.history
        rows = list(history)
        assert [r.iter for r in rows] == list(range(1, self.ITERS + 1))
        assert history[-1] == rows[-1] and history[0] == rows[0]
        assert history[3:7] == rows[3:7] and history[::-5] == rows[::-5]
        assert history[9] is history[9]  # a hook row keeps its record
        assert history[9].kkt == 1.5 and history[8].kkt is None
        with pytest.raises(dataclasses.FrozenInstanceError):
            history[4].residual = 0.0
        for bad in (self.ITERS, -self.ITERS - 1):
            with pytest.raises(IndexError):
                history[bad]
        history[-1] = dataclasses.replace(rows[-1], gap=2.0)
        assert history[self.ITERS - 1].gap == 2.0
        assert list(history)[:-1] == rows[:-1]
        assert repr(history) == repr(list(history))


# ---------------------------------------------------------------------------
# the standalone reference recursions on random instances


def random_reference_problem(rng, blocks, smooth):
    """A random convex problem: an l1 or sq_l2 f, a quadratic or zero h,
    and ``blocks`` dual blocks, each a random ``matrix_op`` with an l1, l2
    or box g and a dirac ell (no offsets, so the references apply)."""
    n = int(rng.integers(3, 9))
    dims = tuple(int(rng.integers(2, 7)) for _ in range(blocks))
    raw = rng.uniform(0.2, 1.0, blocks)
    weights = tuple(float(w) for w in raw / raw.sum())
    f = (ss.catalog_prox("l1", n, weight=float(rng.uniform(0.05, 0.5))) if rng.random() < 0.5
         else ss.catalog_prox("sq_l2", n, weight=1.0, center=rng.standard_normal(n)))
    h = ss.quadratic_smooth(rng.standard_normal(n)) if smooth else ss.zero_smooth(n)
    gs = []
    for d in dims:
        kind = rng.choice(["l1", "l2", "box"])
        gs.append(ss.catalog_prox("box", d, lo=-0.5, hi=0.5) if kind == "box"
                  else ss.catalog_prox(str(kind), d, weight=float(rng.uniform(0.1, 0.5))))
    return ss.ConvexProblem(
        layout=ss.SpaceLayout(n, dims, weights), f=f, h=h, z=np.zeros(n),
        blocks=tuple(
            ss.ConvexBlock(g=g, ell=ss.dirac_term(d),
                           L=ss.matrix_op(rng.standard_normal((d, n))), r=np.zeros(d))
            for g, d in zip(gs, dims)),
    )


REFERENCE_ITERS = 300


@pytest.mark.parametrize("seed", range(8))
def test_condat_reference_on_random_instances(seed):
    # 1-3 blocks at a common step and a relaxation in ]0, 1]
    rng = np.random.default_rng(1000 + seed)
    cp = random_reference_problem(rng, blocks=1 + seed % 3, smooth=True)
    lam = 1.0 if seed % 4 == 0 else float(1.0 - rng.uniform(0.0, 0.9))
    spec = cp.spec
    cfg = ss.suggest_steps(spec, safety=float(rng.uniform(0.5, 0.99)), lam=lam)
    cfg = dataclasses.replace(cfg, balance=None)
    assert cfg.lam == lam
    report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=0.0, max_iter=REFERENCE_ITERS),
                    record_states=True)
    xs, vs = ss.benchmarks.condat_reference(
        cp.f.prox, cp.h.gradient, [blk.g.prox for blk in cp.blocks],
        [blk.L for blk in cp.blocks], cp.layout.weights, cfg.tau, cfg.sigmas[0], lam,
        np.zeros(cp.layout.dim_primal), [np.zeros(d) for d in cp.layout.dual_dims],
        REFERENCE_ITERS)
    assert ss.benchmarks.max_state_deviation(report.states, xs, vs) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_chambolle_pock_reference_on_random_instances(seed):
    # one unit-weight block, no smooth term, relaxation 1
    rng = np.random.default_rng(2000 + seed)
    cp = random_reference_problem(rng, blocks=1, smooth=False)
    spec = cp.spec
    cfg = ss.suggest_steps(spec, safety=float(rng.uniform(0.5, 0.99)), lam=1.0)
    cfg = dataclasses.replace(cfg, balance=None)
    report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=0.0, max_iter=REFERENCE_ITERS),
                    record_states=True)
    xs, vs = ss.benchmarks.chambolle_pock_reference(
        cp.f.prox, cp.blocks[0].g.prox, cp.blocks[0].L, cfg.tau, cfg.sigmas[0],
        np.zeros(cp.layout.dim_primal), np.zeros(cp.layout.dual_dims[0]), REFERENCE_ITERS)
    assert ss.benchmarks.max_state_deviation(report.states, xs, [[v] for v in vs]) <= 1e-12


# ---------------------------------------------------------------------------
# balanced steps: suggest_steps configs balance sigma_i / tau inside run


def _kkt_counts():
    """``scripts/kkt_counts.py`` as a module."""
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "scripts" / "kkt_counts.py"
    spec = importlib.util.spec_from_file_location("kkt_counts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound_steps(monkeypatch):
    """The ``(tau, sigmas)`` of every binding of a run's step plan."""
    bound = []
    bind = ss.solver._Workspace.bind

    def recording(ws, tau, sigmas):
        bound.append((tau, tuple(sigmas)))
        bind(ws, tau, sigmas)

    monkeypatch.setattr(ss.solver._Workspace, "bind", recording)
    return bound


class TestBalancedSteps:
    @staticmethod
    def tv1d():
        cp, _ = ss.benchmarks.tv1d_problem()
        return cp.spec, ss.suggest_steps(cp.spec)

    def test_suggested_steps_are_marked_balanced(self):
        spec, cfg = self.tv1d()
        assert cfg.balance == 0.99 and cfg.sigmas == (cfg.tau,)
        assert ss.suggest_steps(spec, safety=0.5).balance == 0.5
        assert ss.validate_steps(spec, cfg.tau, cfg.sigmas).balance is None
        with pytest.raises(ValueError, match=r"balance must lie in \]0, 1\["):
            dataclasses.replace(cfg, balance=1.0)

    def test_first_iterates_are_those_of_fixed_steps(self):
        spec, cfg = self.tv1d()
        stop = ss.StoppingRule(tol=0.0, max_iter=40)
        balanced = ss.run(spec, cfg, stop=stop, record_states=True)
        fixed = ss.run(spec, dataclasses.replace(cfg, balance=None), stop=stop, record_states=True)
        assert balanced.step_changes >= 1
        for k in range(ss.solver.BALANCE_STRIDE + 1):
            assert_same_bits(balanced.states[k].u, fixed.states[k].u)
        assert not np.array_equal(balanced.states[-1].u, fixed.states[-1].u)

    def test_update_after_a_change_is_a_fixed_step_update(self):
        # the change on row 25 binds the plan to the new steps: update 26
        # has the bits of one update at those steps from state 25
        spec, cfg = self.tv1d()
        stride = ss.solver.BALANCE_STRIDE
        report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=0.0, max_iter=stride + 1),
                        record_states=True)
        assert report.step_changes == 1 and report.steps != cfg
        start = report.states[stride]
        one = ss.run(spec, dataclasses.replace(report.steps, balance=None), x0=start.x, v0=start.v,
                     stop=ss.StoppingRule(tol=0.0, max_iter=1))
        assert_same_bits(report.final_state.u, one.final_state.u)
        # the row's residual is measured in the metric of the new steps
        assert_same_bits(report.history[-1].residual, one.history[0].residual)

    def test_no_change_on_the_last_row(self):
        spec, cfg = self.tv1d()
        stride = ss.solver.BALANCE_STRIDE
        report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=0.0, max_iter=stride))
        assert report.step_changes == 0 and report.steps is cfg

    def test_every_binding_admissible_and_changes_bounded(self, monkeypatch):
        # a target of 0 makes every check lower the ratio, and a stride of
        # 1 checks every row, so the run makes every change alpha allows
        monkeypatch.setattr(ss.solver, "BALANCE_STRIDE", 1)
        monkeypatch.setattr(ss.solver, "_BALANCE_TARGET", 0.0)
        bound = bound_steps(monkeypatch)
        spec, cfg = self.tv1d()
        report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=0.0, max_iter=300))
        assert report.step_changes == 122
        assert len(bound) == 123 and bound[0] == (cfg.tau, cfg.sigmas)
        assert bound[-1] == (report.steps.tau, report.steps.sigmas)
        taus = [tau for tau, _ in bound]
        assert taus == sorted(taus)  # a smaller ratio allows a larger tau
        for tau, sigmas in bound:
            step = ss.StepConfig(tau, sigmas, cfg.norms)
            assert ss.step_condition(spec, step).admissible
        # 0.5 * 0.95^121 >= 1e-3 > 0.5 * 0.95^122
        assert 0.5 * 0.95 ** 121 >= 1e-3 > 0.5 * 0.95 ** 122

    @pytest.mark.parametrize("how", ["overflow", "inadmissible"])
    def test_failed_change_keeps_the_steps_and_stops(self, monkeypatch, how):
        # a large target makes the first check raise the ratio to 2; there
        # the boundary's 4 r S overflows to a step of 0, and "inadmissible"
        # re-derives the steps at a safety past the margin
        monkeypatch.setattr(ss.solver, "BALANCE_STRIDE", 1)
        monkeypatch.setattr(ss.solver, "_BALANCE_TARGET", 1e30)
        norm = math.sqrt(3e307) if how == "overflow" else 1.0
        spec = single_block_spec(L=ss.matrix_op(norm * np.eye(2)), dims=(2, 2))
        cfg = ss.suggest_steps(spec)
        ratios = []
        ratio_steps = ss.solver._ratio_steps

        def attempted(spec, norms, safety, ratio):
            ratios.append(ratio)
            return ratio_steps(spec, norms, 1.5 if how == "inadmissible" else safety, ratio)

        monkeypatch.setattr(ss.solver, "_ratio_steps", attempted)
        bound = bound_steps(monkeypatch)
        report = ss.run(spec, cfg, x0=np.ones(2), v0=(np.ones(2),),
                        stop=ss.StoppingRule(tol=0.0, max_iter=50))
        # the overflowing run lands on its fixed point at row 2; the other
        # runs all 50 rows, and no check after the first tries again
        assert report.iterations == (2 if how == "overflow" else 50)
        assert ratios == [2.0]
        assert report.steps is cfg and report.step_changes == 0
        assert bound == [(cfg.tau, cfg.sigmas)]

    def test_changes_reallocate_nothing(self, monkeypatch):
        plans, rows = [], []
        init, kernel = ss.solver._Workspace.__init__, ss.solver._kernel

        def kept(ws, *args):
            init(ws, *args)
            plans.append((ws, {name: getattr(ws, name) for name in ("wsum", "tmp", "arg")},
                          ws.dual_arg, ws.dual_out, ws.cross))

        def counted(ws, x, v, wsum, err, into, dx, dv):
            # the run's own buffers: its two weighted sums and the displacement
            rows.append((wsum, dx, dv))
            return kernel(ws, x, v, wsum, err, into, dx, dv)

        monkeypatch.setattr(ss.solver._Workspace, "__init__", kept)
        monkeypatch.setattr(ss.solver, "_kernel", counted)
        spec, cfg = self.tv1d()
        report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=1e-12, max_iter=2000))
        assert report.step_changes >= 2 and len(plans) == 1
        ws, arrays, dual_arg, dual_out, cross = plans[0]
        assert all(getattr(ws, name) is arr for name, arr in arrays.items())
        assert ws.dual_arg is dual_arg and ws.dual_out is dual_out and ws.cross is cross
        assert [blk[5:] for blk in ws.blocks] == list(zip(dual_arg, dual_out))
        assert len(rows) == report.iterations
        sums = {id(wsum) for wsum, _, _ in rows}
        assert len(sums) == 2 and id(ws.wsum) in sums
        _, dx, dv = rows[0]
        assert all(x is dx and v is dv for _, x, v in rows)
        assert ws.tau == report.steps.tau
        assert ws.ratios == (1.0 / report.steps.sigmas[0],)
        # every update is direct: the displacement is dx of the primal
        # length, and dv lies in the dual arguments the dual steps leave dead
        assert dx.shape == (spec.layout.dim_primal,) and dx.base is None
        assert dv is ws.dual_arg
        # an update that can be relaxed keeps (dx, dv) in one array, d
        rows.clear()
        errors = ss.geometric_errors(spec.layout, 0.1, 0.9, seed=4)
        report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=0.0, max_iter=30), errors=errors)
        assert len(rows) == 2 * report.iterations
        _, dx, dv = rows[0]
        assert all(x is dx and v is dv for _, x, v in rows)
        assert dx.base is not None and all(vi.base is dx.base for vi in dv)
        assert dx.base.size == spec.layout.size

    @pytest.mark.parametrize("how", ["validate_steps", "hand-built", "override"])
    def test_fixed_configs_never_change(self, monkeypatch, how):
        bound = bound_steps(monkeypatch)
        spec, cfg = self.tv1d()
        allow = how == "override"
        if how == "validate_steps":
            cfg = dataclasses.replace(cfg, balance=None)
        elif how == "hand-built":
            cfg = ss.StepConfig(cfg.tau, cfg.sigmas, cfg.norms)
        else:
            # a balanced config whose steps were replaced by inadmissible ones
            cfg = dataclasses.replace(cfg, tau=1.5, sigmas=(1.5,))
            assert not ss.step_condition(spec, cfg).admissible
        report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=0.0, max_iter=200),
                        allow_inadmissible=allow)
        assert report.iterations == 200
        assert report.steps is cfg and report.step_changes == 0
        assert bound == [(cfg.tau, cfg.sigmas)]

    def test_relaxed_run_with_errors_converges(self):
        cp, params = ss.benchmarks.tv1d_problem()
        spec = cp.spec
        cfg = ss.suggest_steps(spec, lam=0.8)
        errors = ss.geometric_errors(spec.layout, 0.1, 0.9, seed=4)
        stop = ss.StoppingRule(tol=1e-12, max_iter=20000)
        report = ss.run(spec, cfg, stop=stop, errors=errors)
        assert report.termination == "converged" and report.step_changes >= 1
        assert ss.step_condition(spec, report.steps).admissible
        assert report.steps.lam == 0.8 and report.steps.balance == cfg.balance
        cert = ss.benchmarks.tv_certificate_violation(params["b"], params["weight"],
                                                      report.final_state.x)
        assert cert <= 1e-7
        fixed = ss.run(spec, dataclasses.replace(cfg, balance=None), stop=stop, errors=errors)
        assert report.iterations < fixed.iterations
        assert np.max(np.abs(report.final_state.x - fixed.final_state.x)) <= 1e-9

    @pytest.mark.parametrize("seed", [12, 7])
    def test_tv1d_kkt_count_falls(self, seed):
        counts = _kkt_counts()
        cp = counts.tv1d_problem(counts.workloads.tv1d_signal(seed))
        cfg = ss.suggest_steps(cp.spec)
        fixed, _ = counts.iters_to_kkt(cp, dataclasses.replace(cfg, balance=None))
        balanced, report = counts.iters_to_kkt(cp, cfg)
        assert report.step_changes >= 1
        assert balanced is not None and fixed is not None
        assert balanced < 0.5 * fixed


class TestBufferLayout:
    """The page-sized buffers a row touches start at distinct page offsets,
    cache lines apart (``spaces._vectors``), so none aliases another
    modulo 4 KiB."""

    @pytest.mark.parametrize("lam", [1.0, 0.9])
    def test_page_offsets_lie_apart(self, monkeypatch, lam):
        spec, cfg, _ = tv2d_case(side=24)
        assert spec.layout.dim_primal >= 512 and min(spec.layout.dual_dims) >= 512
        cfg = relaxed(spec, cfg, lam)
        rows, norms = [], []
        kernel, sq_norms = ss.solver._kernel, ss.solver._sq_norms

        def spied(ws, x, v, wsum, err, into, dx, dv):
            rows.append((ws, x, wsum, dx))
            return kernel(ws, x, v, wsum, err, into, dx, dv)

        def seen(dx, dv):
            norms.append(dx)
            return sq_norms(dx, dv)

        monkeypatch.setattr(ss.solver, "_kernel", spied)
        monkeypatch.setattr(ss.solver, "_sq_norms", seen)
        ss.run(spec, cfg, stop=ss.StoppingRule(tol=0.0, max_iter=5))
        assert len(rows) == 5

        def starts(arrays):
            return {a.ctypes.data for a in arrays}

        ws, x0 = rows[0][0], rows[0][1]
        plan = starts((ws.wsum, ws.tmp, ws.arg, *ws.dual_arg, *ws.dual_out,
                       *(buf for _, _, buf in ws.cross)))
        # the plan's wsum and wsum_next; dx, d's first entry when relaxed;
        # the two states alternated between, after the initial one
        sums, dxs = starts(r[2] for r in rows), starts(r[3] for r in rows)
        pair = starts(r[1] for r in rows[1:])
        assert len(plan) == 6 and len(sums) == 2 and len(dxs) == 1 and len(pair) == 2
        buffers = plan | sums | dxs | pair
        if lam != 1.0:
            # the step s taken, whose norms are formed beside d's and the states'
            steps = starts(norms) - dxs - pair - {x0.ctypes.data}
            assert len(steps) == 1
            buffers |= steps
        assert len(buffers) == (10 if lam == 1.0 else 11)
        offsets = sorted(a % 4096 for a in buffers)
        gaps = [b - a for a, b in zip(offsets, offsets[1:])]
        assert min(gaps + [offsets[0] + 4096 - offsets[-1]]) >= 64
