import dataclasses
import math

import numpy as np
import pytest

import splitsolve as ss
from splitsolve.solver import BETA_CAP, NORM_SAFETY, POWER_MAX_ITER, POWER_TOL

from conftest import assert_same_bits, degenerate_block, shrinkage_spec


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


class TestValidateSteps:
    def test_single_block_half_steps(self):
        cfg = ss.validate_steps(simple_spec(), 0.5, (0.5,))
        assert abs(cfg.rho - 1.0) <= 1e-14
        assert cfg.beta == 1.0
        assert cfg.admissible  # 2 * 1 * 1 > 1

    def test_admissibility_tracks_beta(self):
        spec = simple_spec(mu=0.4)  # beta = 0.4 < 0.5 makes 2 rho beta < 1
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        assert abs(cfg.rho - 1.0) <= 1e-14
        assert not cfg.admissible

    def test_unit_coupling_boundary(self):
        cfg = ss.validate_steps(simple_spec(), 1.0, (1.0,))
        assert cfg.rho == 0.0
        assert not cfg.admissible

    def test_two_block_quarter_steps(self):
        spec = simple_spec(m=2)
        cfg = ss.validate_steps(spec, 0.25, (0.25, 0.25))
        assert abs(cfg.rho - 3.0) <= 1e-14

    def test_delta_positive_when_admissible(self):
        cfg = ss.validate_steps(simple_spec(), 0.5, (0.5,))
        assert cfg.delta == pytest.approx(1.0)  # 1/sqrt(0.25) - 1
        assert cfg.delta > 0

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


class TestSuggestSteps:
    def test_worked_example(self):
        cfg = ss.suggest_steps(simple_spec(), safety=0.99)
        assert cfg.tau == pytest.approx(0.66)
        assert cfg.sigmas[0] == pytest.approx(0.66)
        assert cfg.rho == pytest.approx(0.51515151515151514, abs=1e-12)
        assert 2.0 * cfg.rho * cfg.beta > 1.0
        assert cfg.admissible

    def test_capped_beta(self):
        spec = simple_spec(mu=math.inf)  # every constant infinite
        cfg = ss.suggest_steps(spec, safety=0.99)
        assert cfg.beta == BETA_CAP
        assert cfg.tau == pytest.approx(0.99, rel=1e-9)
        assert cfg.admissible

    def test_safety_monotonicity(self):
        spec = simple_spec()
        big = ss.suggest_steps(spec, safety=0.99)
        small = ss.suggest_steps(spec, safety=0.5)
        assert small.tau < big.tau
        assert small.admissible

    def test_all_zero_norms_rejected(self):
        spec = simple_spec()
        with pytest.raises(ValueError, match="zero"):
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
        with pytest.raises(ValueError, match="zero estimated norm"):
            ss.certified_norms(spec)


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


class TestIterateOnce:
    def test_hand_step(self):
        # A = 0, C = Id, degenerate block, x0 = 1, tau = 0.5, lam = 1
        spec = shrinkage_spec(n=1)
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        st = ss.initial_state(spec.layout, x0=np.array([1.0]))
        nxt = ss.iterate_once(spec, cfg, st)
        assert nxt.p[0] == pytest.approx(0.5, abs=0)
        assert nxt.x[0] == pytest.approx(0.5, abs=0)
        assert nxt.v[0][0] == 0.0
        assert nxt.y[0] == pytest.approx(0.0, abs=0)

    def test_fixed_point_invariance(self):
        spec = shrinkage_spec(n=3)  # fixed point is the origin
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        st = ss.initial_state(spec.layout)
        nxt = ss.iterate_once(spec, cfg, st)
        assert np.max(np.abs(nxt.x)) <= 1e-12
        assert np.max(np.abs(nxt.v[0])) <= 1e-12

    def test_primal_error_shifts_p_exactly(self, rng):
        spec = shrinkage_spec(n=4)
        cfg = ss.validate_steps(spec, 0.5, (0.5,))
        x0 = rng.standard_normal(4)
        st = ss.initial_state(spec.layout, x0=x0)
        e = rng.standard_normal(4)
        clean = ss.iterate_once(spec, cfg, st)
        noisy = ss.iterate_once(spec, cfg, st, ss.solver.IterationErrors(
            a2=e, b=(None,), c=(None,)))
        np.testing.assert_array_equal(noisy.p, clean.p + e)

    def test_relaxation_consistency(self, rng):
        spec = shrinkage_spec(n=5, weight=0.2)
        lam = 0.7
        cfg = ss.validate_steps(spec, 0.4, (0.4,), lambda_schedule=lambda n: lam)
        st = ss.initial_state(spec.layout, x0=rng.standard_normal(5))
        nxt = ss.iterate_once(spec, cfg, st)
        # recovering the step from the stored iterates costs one rounding
        np.testing.assert_allclose(nxt.x - st.x, lam * (nxt.p - st.x),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(nxt.v[0] - st.v[0], lam * (nxt.q[0] - st.v[0]),
                                   rtol=0, atol=1e-14)

    def test_inadmissible_refused_and_overridable(self):
        spec = shrinkage_spec(n=1)
        cfg = ss.validate_steps(spec, 2.0, (2.0,))
        st = ss.initial_state(spec.layout, x0=np.array([1.0]))
        with pytest.raises(ss.InadmissibleStepsError):
            ss.iterate_once(spec, cfg, st)
        ss.iterate_once(spec, cfg, st, allow_inadmissible=True)

    def test_lambda_range_enforced(self):
        spec = shrinkage_spec(n=1)
        cfg = ss.validate_steps(spec, 0.5, (0.5,), lambda_schedule=lambda n: 1.5)
        st = ss.initial_state(spec.layout, x0=np.array([1.0]))
        with pytest.raises(ValueError, match="outside"):
            ss.iterate_once(spec, cfg, st)
        wide = ss.validate_steps(spec, 0.5, (0.5,), lambda_schedule=lambda n: 1.5,
                                 allow_overrelax=True)
        ss.iterate_once(spec, wide, st)


class TestRun:
    def test_geometric_decay_matches_closed_form(self):
        # the degenerate reduction contracts by (1 - lam * tau) per step
        spec = shrinkage_spec(n=1)
        lam, tau = 1.0, 0.5
        cfg = ss.validate_steps(spec, tau, (0.5,), lambda_schedule=lambda n: lam)
        report = ss.run(spec, cfg, x0=np.array([1.0]),
                        stop=ss.StoppingRule(tol=1e-10, max_iter=500),
                        record_states=True)
        assert report.termination == "converged"
        for k, state in enumerate(report.states):
            assert state.primal[0] == pytest.approx((1 - lam * tau) ** k, rel=1e-12)
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
        assert "primal update p" in report.failure
        st = ss.initial_state(layout, x0=np.ones(2))
        with pytest.raises(ss.DivergenceError, match="primal"):
            ss.iterate_once(bad, cfg, st)

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
        cfg = ss.validate_steps(spec, tau, (sigma,), lambda_schedule=lambda n: lam)
        layout = spec.layout

        amp, dec = 0.02, 0.7
        rng_dir = np.random.default_rng(99)
        d1 = rng_dir.standard_normal(4)
        d2 = rng_dir.standard_normal(4)

        def schedule_at(n):
            return ss.solver.IterationErrors(
                a1=amp * dec ** n * d1, a2=amp * dec ** n * d2,
                b=(None,), c=(None,))

        errors = ss.ErrorSchedule(at=schedule_at, declared_summable=True)
        iters = 200
        report = ss.run(spec, cfg, x0=b, errors=errors,
                        stop=ss.StoppingRule(tol=0.0, max_iter=iters),
                        record_states=True)
        prox = ss.catalog_prox("l1", 4, weight=0.15).prox
        xs = forward_backward_reference(
            prox, lambda x: x - b, tau, lam, b, iters,
            a1_seq=lambda n: amp * dec ** n * d1,
            a2_seq=lambda n: amp * dec ** n * d2,
        )
        worst = max(float(np.max(np.abs(s.primal - x)))
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
        st = ss.initial_state(layout, x0=b)
        for _ in range(25):
            arg = st.x - cfg.tau * (spec.C.apply(st.x) - spec.z)
            nxt = ss.iterate_once(spec, cfg, st)
            p = nxt.p
            for _ in range(5):
                y = rng.standard_normal(4)
                lhs = cfg.tau * f.evaluate(y)
                rhs = cfg.tau * f.evaluate(p) + float(np.dot(arg - p, y - p))
                assert lhs >= rhs - 1e-8
            st = nxt


class TestErrorSchedules:
    def test_geometric_is_summable(self):
        layout = ss.SpaceLayout(3, (2,), (1.0,))
        sched = ss.geometric_errors(layout, amplitude=0.5, decay=0.9, seed=1)
        total = sum(np.linalg.norm(sched.at(n).a1) for n in range(2000))
        assert total == pytest.approx(0.5 / (1 - 0.9), rel=1e-6)
        assert sched.declared_summable

    def test_zero_schedule_flags(self):
        layout = ss.SpaceLayout(2, (2,), (1.0,))
        sched = ss.zero_errors(layout)
        assert sched.is_zero
        err = sched.at(5)
        assert err.a1 is None and err.a2 is None

    def test_decay_validation(self):
        layout = ss.SpaceLayout(2, (2,), (1.0,))
        with pytest.raises(ValueError):
            ss.geometric_errors(layout, 0.1, 1.0)
        with pytest.raises(ValueError):
            ss.geometric_errors(layout, -0.1, 0.5)


# ---------------------------------------------------------------------------
# the workspace kernel against a plain allocating loop


def reference_run(spec, cfg, stop, errors=None):
    """The update and the stopping arithmetic written with fresh arrays
    everywhere and a second, error-free, relaxation-1 update whenever
    the step taken is not one; returns (step norms, residuals, x, v)."""
    weights = spec.layout.weights
    tau, sigmas = cfg.tau, cfg.sigmas

    def update(x, v, lam, err):
        wsum = np.zeros_like(x)
        for w, blk, vi in zip(weights, spec.blocks, v):
            wsum = wsum + w * blk.L.adjoint_apply(vi)
        t = wsum + spec.C.apply(x)
        if err is not None and err.a1 is not None:
            t = t + err.a1
        p = spec.A.resolvent(tau, x - tau * (t - spec.z))
        if err is not None and err.a2 is not None:
            p = p + err.a2
        y = 2.0 * p - x
        v1 = []
        for i, blk in enumerate(spec.blocks):
            u = blk.L.apply(y) - blk.Dinv.apply(v[i])
            if err is not None and err.c[i] is not None:
                u = u - err.c[i]
            u = v[i] + sigmas[i] * (u - blk.r)
            q = ss.resolvent_of_inverse(blk.B, sigmas[i], u)
            if err is not None and err.b[i] is not None:
                q = q + err.b[i]
            v1.append(v[i] + lam * (q - v[i]))
        return x + lam * (p - x), v1

    def sq(dx, dv):
        s = float(np.dot(dx, dx))
        for w, d in zip(weights, dv):
            s += w * float(np.dot(d, d))
        return s

    x = np.zeros(spec.layout.dim_primal)
    v = [np.zeros(d) for d in spec.layout.dual_dims]
    steps, residuals = [], []
    for n in range(stop.max_iter):
        lam = cfg.lambda_at(n)
        err = errors.at(n) if errors is not None else None
        x1, v1 = update(x, v, lam, err)
        xe, ve = update(x, v, 1.0, None)
        dx = xe - x
        dv = [b - a for a, b in zip(v, ve)]
        quad = float(np.dot(dx, dx)) / tau
        for w, s, blk, d in zip(weights, sigmas, spec.blocks, dv):
            quad += w / s * float(np.dot(d, d))
            quad -= 2.0 * w * float(np.dot(blk.L.apply(dx), d))
        residuals.append(math.sqrt(max(quad, 0.0)))
        steps.append(math.sqrt(sq(x1 - x, [b - a for a, b in zip(v, v1)])))
        state_norm = math.sqrt(sq(x, v))
        x, v = x1, v1
        if residuals[-1] <= stop.tol * (1.0 + state_norm):
            break
    return steps, residuals, x, v


def relaxed(spec, cfg, lam):
    return ss.validate_steps(spec, cfg.tau, cfg.sigmas, norms=cfg.norms,
                             lambda_schedule=lambda n: lam)


def fb_case():
    cp, params = ss.benchmarks.fb_problem()
    spec = ss.lower_to_inclusion(cp)
    cfg = ss.validate_steps(spec, params["tau"], (params["sigma"],),
                            lambda_schedule=lambda n: params["lam"])
    return spec, cfg, None


def condat_case():
    cp, params = ss.benchmarks.condat_problem()
    spec = ss.lower_to_inclusion(cp)
    return spec, relaxed(spec, ss.suggest_steps(spec, safety=params["safety"]),
                         params["lam"]), None


def errors_case():
    cp, _ = ss.benchmarks.fused_lasso_problem()
    spec = ss.lower_to_inclusion(cp)
    cfg = relaxed(spec, ss.suggest_steps(spec), 0.9)
    return spec, cfg, ss.geometric_errors(spec.layout, 0.1, 0.9, seed=9)


def tv2d_case():
    side = 16
    b = np.kron(np.array([[1.0, -0.5], [0.25, 2.0]]), np.ones((8, 8))).ravel()
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
    return spec, ss.suggest_steps(spec), None


class TestBitwiseAgainstPlainLoop:
    @pytest.mark.parametrize("case", [fb_case, condat_case, errors_case, tv2d_case],
                             ids=["fb-0.9", "condat-0.85", "geometric-errors", "tv2d-16x16"])
    def test_history_and_final_state(self, case):
        spec, cfg, errors = case()
        stop = ss.StoppingRule(tol=1e-9, max_iter=3000)
        steps, residuals, x, v = reference_run(spec, cfg, stop, errors)
        report = ss.run(spec, cfg, stop=stop, errors=errors)
        assert report.termination == "converged"
        assert report.iterations == len(steps)
        assert_same_bits([rec.step_norm for rec in report.history], steps)
        assert_same_bits([rec.residual for rec in report.history], residuals)
        assert_same_bits(report.final_state.x, x)
        for got, want in zip(report.final_state.v, v):
            assert_same_bits(got, want)


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
        report = ss.run(self.spec, self.cfg, x0=self.x0, v0=self.v0,
                        stop=self.stop, record_states=True)
        st = ss.initial_state(self.spec.layout, self.x0, self.v0)
        for kept in report.states[1:]:
            st = ss.iterate_once(self.spec, self.cfg, st)
            assert_same_bits(kept.primal, st.x)
            for got, want in zip(kept.duals, st.v):
                assert_same_bits(got, want)
        assert_same_bits(report.final_state.x, st.x)

    def test_caller_arrays_unchanged(self):
        before = [a.copy() for a in (self.x0, *self.v0)]
        ss.run(self.spec, self.cfg, x0=self.x0, v0=self.v0, stop=self.stop)
        st = ss.initial_state(self.spec.layout, self.x0, self.v0)
        ss.iterate_once(self.spec, self.cfg, st)
        for got, want in zip((self.x0, *self.v0), before):
            assert_same_bits(got, want)

    def test_hook_states_not_mutated_later(self):
        kept = []

        def hook(st):
            kept.append((st, snapshot(st), [a.copy() for a in (st.p, st.y, *st.q)]))
            return {}

        report = ss.run(self.spec, self.cfg, x0=self.x0, v0=self.v0,
                        stop=self.stop, iter_metrics=hook)
        assert len(kept) == report.iterations
        for st, arrays, inter in kept:
            for got, want in zip(snapshot(st), arrays):
                assert_same_bits(got, want)
            for got, want in zip((st.p, st.y, *st.q), inter):
                assert_same_bits(got, want)
        assert kept[-1][0] is report.final_state

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
        st = ss.initial_state(self.spec.layout, self.x0, self.v0)
        for _ in range(3):
            st = ss.iterate_once(self.spec, self.cfg, st)
        for got, want in zip((report.final_state.x, *report.final_state.v,
                              report.final_state.p, *report.final_state.q),
                             (st.x, *st.v, st.p, *st.q)):
            assert_same_bits(got, want)

    def test_zero_map_stays_zero(self):
        ss.run(self.spec, self.cfg, x0=self.x0, v0=self.v0, stop=self.stop)
        zero_map = self.spec.blocks[1].Dinv
        out = zero_map.apply(np.ones(5))
        assert_same_bits(out, np.zeros(5))
        with pytest.raises(ValueError):
            out[0] = 1.0
