"""End-to-end acceptance suite.

One test per criterion; each prints a pass/fail line with the measured
value and its bound (visible with ``pytest -s``).  Expensive solves are
shared through session-scoped fixtures.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import splitsolve as ss
from splitsolve.benchmarks import (
    REFERENCES,
    chambolle_pock_reference,
    condat_problem,
    condat_reference,
    cp_problem,
    fb_problem,
    forward_backward_reference,
    fused_lasso_problem,
    huber_tv_certificate_violation,
    huber_tv_dual_from_primal,
    huber_tv_problem,
    max_state_deviation,
    tv1d_problem,
    tv_certificate_violation,
)
from splitsolve.cli import main as cli_main
from splitsolve.diagnostics import certify_operators

from conftest import single_block_spec, v_distances

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def report_line(criterion, label, value, bound, larger_is_fine=False):
    ok = value <= bound if not larger_is_fine else value >= bound
    rel = "<=" if not larger_is_fine else ">="
    print(f"[criterion {criterion}] {label}: {value:.3e} {rel} {bound:g}: "
          f"{'PASS' if ok else 'FAIL'}")
    return ok


# ---------------------------------------------------------------------------
# shared solves


@pytest.fixture(scope="session")
def fb_run():
    cp, params = fb_problem()
    spec = cp.spec
    cfg = ss.validate_steps(spec, params["tau"], (params["sigma"],),
                            lam=params["lam"])
    t0 = time.perf_counter()
    report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=0.0, max_iter=1000),
                    record_states=True)
    xs = forward_backward_reference(
        cp.f.prox, cp.h.gradient, params["tau"], params["lam"],
        np.zeros(cp.layout.dim_primal), 1000)
    elapsed = time.perf_counter() - t0
    return {"spec": spec, "cfg": cfg, "report": report, "xs": xs,
            "elapsed": elapsed}


@pytest.fixture(scope="session")
def condat_run():
    cp, params = condat_problem()
    spec = cp.spec
    base = ss.suggest_steps(spec, safety=params["safety"])
    cfg = ss.validate_steps(spec, base.tau, base.sigmas,
                            lam=params["lam"],
                            norms=base.norms)
    t0 = time.perf_counter()
    report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=0.0, max_iter=1000),
                    record_states=True)
    xs, vs = condat_reference(
        cp.f.prox, cp.h.gradient, [blk.g.prox for blk in cp.blocks],
        [blk.L for blk in cp.blocks], cp.layout.weights,
        cfg.tau, cfg.sigmas[0], params["lam"],
        np.zeros(cp.layout.dim_primal),
        [np.zeros(d) for d in cp.layout.dual_dims], 1000)
    elapsed = time.perf_counter() - t0
    return {"spec": spec, "cfg": cfg, "report": report, "xs": xs, "vs": vs,
            "elapsed": elapsed}


@pytest.fixture(scope="session")
def cp_run():
    cp2, params = cp_problem()
    spec = cp2.spec
    cfg = ss.suggest_steps(spec, safety=params["safety"])
    t0 = time.perf_counter()
    report = ss.run(spec, cfg, stop=ss.StoppingRule(tol=0.0, max_iter=1000),
                    record_states=True)
    xs, vs = chambolle_pock_reference(
        cp2.f.prox, cp2.blocks[0].g.prox, cp2.blocks[0].L,
        cfg.tau, cfg.sigmas[0], np.zeros(cp2.layout.dim_primal),
        np.zeros(cp2.layout.dual_dims[0]), 1000)
    elapsed = time.perf_counter() - t0
    return {"spec": spec, "cfg": cfg, "report": report, "xs": xs, "vs": vs,
            "elapsed": elapsed}


def _tight_solve(builder):
    cp, params = builder()
    spec = cp.spec
    cfg = ss.suggest_steps(spec, safety=0.99)
    t0 = time.perf_counter()
    report, gap = ss.solve_convex(
        cp, cfg=cfg, stop=ss.StoppingRule(tol=1e-13, max_iter=400_000),
        record_states=True)
    elapsed = time.perf_counter() - t0
    return {"cp": cp, "params": params, "spec": spec, "cfg": cfg,
            "report": report, "gap": gap, "elapsed": elapsed}


@pytest.fixture(scope="session")
def tv_run():
    return _tight_solve(tv1d_problem)


@pytest.fixture(scope="session")
def fused_run():
    return _tight_solve(fused_lasso_problem)


@pytest.fixture(scope="session")
def huber_run():
    return _tight_solve(huber_tv_problem)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_forward_backward_equivalence(fb_run):
    dev = max_state_deviation(fb_run["report"].states, fb_run["xs"])
    ok = report_line(1, "forward-backward equivalence over 1000 iterations",
                     dev, 1e-12)
    ok_time = report_line(1, "runtime (s)", fb_run["elapsed"], 1.0)
    assert ok and ok_time


def test_criterion_2_condat_reduction(condat_run):
    assert len(condat_run["spec"].blocks) == 2
    assert len(set(condat_run["cfg"].sigmas)) == 1  # common dual step
    dev = max_state_deviation(condat_run["report"].states,
                              condat_run["xs"], condat_run["vs"])
    ok = report_line(2, "common-step reduction equivalence over 1000 iterations",
                     dev, 1e-12)
    ok_time = report_line(2, "runtime (s)", condat_run["elapsed"], 1.0)
    assert ok and ok_time


def test_criterion_3_chambolle_pock_reduction(cp_run):
    dev = max_state_deviation(cp_run["report"].states, cp_run["xs"],
                              [[v] for v in cp_run["vs"]])
    ok = report_line(3, "two-step reduction equivalence over 1000 iterations",
                     dev, 1e-12)
    assert ok


def test_criterion_4_denoising_benchmarks(tv_run, fused_run):
    ok = True
    for name, data in (("tv1d", tv_run), ("fused lasso", fused_run)):
        ref = REFERENCES["tv1d" if name == "tv1d" else "fusedlasso"]
        rel = abs(data["gap"].primal_value - ref["objective"]) / abs(ref["objective"])
        ok &= report_line(4, f"{name} objective relative error", rel, 1e-6)
        ok &= report_line(4, f"{name} kkt residual",
                          data["gap"].kkt_residual, 1e-8)
        ok &= report_line(4, f"{name} runtime (s)", data["elapsed"], 10.0)
    # independent optimality certificates of the computed solutions
    cert_tv = tv_certificate_violation(tv_run["params"]["b"],
                                       tv_run["params"]["weight"],
                                       tv_run["report"].final_state.x)
    ok &= report_line(4, "tv1d certificate violation", cert_tv, 1e-7)
    x_ref = np.asarray(REFERENCES["fusedlasso"]["x"])
    dev = float(np.max(np.abs(fused_run["report"].final_state.x - x_ref)))
    ok &= report_line(4, "fused lasso deviation vs reference point", dev, 1e-6)
    assert ok


def test_criterion_5_step_admissibility():
    # worked examples, evaluated by hand
    def spec_with(m, weights, norms, mu=1.0):
        dim = 2
        layout = ss.SpaceLayout(dim, (dim,) * m, weights)
        blocks = tuple(
            ss.Block(B=ss.ResolventOp.zero(dim), Dinv=ss.CocoerciveOp.zero(dim),
                     L=ss.LinearOp(dim, dim, lambda x, c=c: c * x,
                                   lambda y, c=c: c * y, norm_hint=c),
                     r=np.zeros(dim))
            for c in norms)
        return ss.ProblemSpec(layout=layout, A=ss.ResolventOp.zero(dim),
                              C=ss.CocoerciveOp(dim, lambda x: x / mu, mu),
                              z=np.zeros(dim), blocks=blocks)

    ok = True
    s1 = spec_with(1, (1.0,), (1.0,))

    def condition_at(spec, tau, sigmas):
        return ss.step_condition(spec, ss.validate_steps(spec, tau, sigmas))

    ok &= report_line(5, "single-block rho deviation",
                      abs(condition_at(s1, 0.5, (0.5,)).rho - 1.0), 1e-14)
    boundary = condition_at(s1, 1.0, (1.0,))
    ok &= report_line(5, "boundary rho deviation", abs(boundary.rho), 1e-14)
    assert not boundary.admissible
    s2 = spec_with(2, (0.5, 0.5), (1.0, 1.0))
    ok &= report_line(5, "two-block rho deviation",
                      abs(condition_at(s2, 0.25, (0.25, 0.25)).rho - 3.0),
                      1e-14)

    # suggested steps stay admissible across random problem data
    rng = np.random.default_rng(2718)
    failures = 0
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        weights = rng.random(m) + 0.1
        weights = tuple(weights / weights.sum())
        norms = tuple(float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
                      for _ in range(m))
        mu = math.inf if rng.random() < 0.2 else float(
            np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
        spec = spec_with(m, weights, norms,
                         mu=mu if math.isfinite(mu) else 1e30)
        if not math.isfinite(mu):
            spec = ss.ProblemSpec(layout=spec.layout, A=spec.A,
                                  C=ss.CocoerciveOp.zero(2), z=spec.z,
                                  blocks=spec.blocks)
        safety = float(rng.uniform(0.05, 0.999))
        steps = ss.suggest_steps(spec, safety=safety)
        cfg = ss.step_condition(spec, steps)
        check = ss.step_condition(spec, ss.validate_steps(
            spec, steps.tau, steps.sigmas, norms=steps.norms))
        if not (cfg.admissible and check.admissible and check.margin > 0.0
                and check.margin == cfg.margin):
            failures += 1
    ok &= report_line(5, "random-spec suggestion failures", failures, 0)
    assert ok


def test_criterion_6_fejer_monotonicity(fb_run, condat_run, cp_run, tv_run,
                                        fused_run, huber_run):
    ok = True
    for name, data in (("fb", fb_run), ("condat", condat_run), ("cp", cp_run),
                       ("tv1d", tv_run), ("fusedlasso", fused_run),
                       ("hubertv", huber_run)):
        assert not data["report"].used_errors, name
        dists = v_distances(data["spec"], data["cfg"], data["report"].states)
        ok &= report_line(6, f"{name} worst distance increase",
                          max(float(np.diff(dists).max()), 0.0), 1e-10)
    assert ok


def test_criterion_7_error_robustness(fused_run):
    cp = fused_run["cp"]
    noisy, _ = ss.solve_convex(
        cp, cfg=fused_run["cfg"],
        stop=ss.StoppingRule(tol=1e-13, max_iter=400_000),
        errors=ss.geometric_errors(cp.layout, amplitude=0.1, decay=0.9, seed=9))
    dev = float(np.max(np.abs(noisy.final_state.x
                              - fused_run["report"].final_state.x)))
    ok = report_line(7, "fused lasso solution shift under injected errors",
                     dev, 1e-6)
    assert ok


def test_criterion_8_strong_convergence(huber_run):
    params = huber_run["params"]
    ref = REFERENCES["hubertv"]
    x_ref = np.asarray(ref["x"])
    v_ref = np.asarray(ref["v"])
    # the frozen references themselves satisfy the optimality system
    cert = huber_tv_certificate_violation(params["b"], params["alpha"],
                                          params["weight"], params["nu"], x_ref)
    assert cert <= 1e-9
    np.testing.assert_allclose(
        v_ref, huber_tv_dual_from_primal(params["weight"], params["nu"], x_ref),
        atol=1e-9)

    final = huber_run["report"].final_state
    ok = report_line(8, "primal distance to reference solution",
                     float(np.linalg.norm(final.x - x_ref)), 1e-8)
    ok &= report_line(8, "dual distance to reference solution",
                      float(np.linalg.norm(final.v[0] - v_ref)), 1e-8)
    assert ok


def test_criterion_9_operator_certificates():
    rng = np.random.default_rng(31415)
    failures = 0
    for k in range(100):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 6))
        dims = tuple(int(rng.integers(2, 6)) for _ in range(m))
        weights = rng.random(m) + 0.1
        weights = tuple(weights / weights.sum())
        layout = ss.SpaceLayout(n, dims, weights)
        blocks = []
        for d in dims:
            mat = 10.0 ** rng.uniform(-3.0, 8.0) * rng.standard_normal((d, n))
            if rng.random() < 0.5:
                dinv = ss.CocoerciveOp.zero(d)
            else:
                scale = float(rng.uniform(0.1, 2.0))
                dinv = ss.CocoerciveOp(d, lambda v, s=scale: s * v, 1.0 / scale)
            blocks.append(ss.Block(B=ss.ResolventOp.zero(d), Dinv=dinv,
                                   L=ss.matrix_op(mat), r=np.zeros(d)))
        c_scale = float(rng.uniform(0.1, 2.0))
        spec = ss.ProblemSpec(
            layout=layout, A=ss.ResolventOp.zero(n),
            C=ss.CocoerciveOp(n, lambda x, s=c_scale: s * x, 1.0 / c_scale),
            z=np.zeros(n), blocks=tuple(blocks))
        cfg = ss.suggest_steps(spec, safety=float(rng.uniform(0.3, 0.99)))
        failures += not ss.step_condition(spec, cfg).admissible
        failures += sum(not rep.passed
                        for rep in certify_operators(spec, samples=100, seed=k))
    ok = report_line(9, "certificate failures over 100 random instances",
                     failures, 0)

    # each deliberate mutation must fail its own certificate and no other
    identity = ss.CocoerciveOp(1, lambda x: x, 1.0)
    mutants = {
        "adjoint(L[0])": single_block_spec(
            C=identity, L=ss.LinearOp(1, 1, lambda x: x, lambda y: -y)),
        "cocoercivity(C)": single_block_spec(C=ss.CocoerciveOp(1, lambda x: x, 3.0)),
        # nu = 2 overstates 1/2 while mu = 1/4 stays the smaller constant
        "cocoercivity(Dinv[0])": single_block_spec(
            mu=0.25, Dinv=ss.CocoerciveOp(1, lambda v: 2.0 * v, 2.0)),
    }
    mutations_caught = sum(
        [rep.name for rep in certify_operators(spec) if not rep.passed] == [name]
        for name, spec in mutants.items())
    ok &= report_line(9, "mutations caught", mutations_caught, len(mutants),
                      larger_is_fine=True)
    assert ok


def test_criterion_10_determinism(tmp_path, capsys):
    ok = True
    for cfg_name in ("lasso1d.cfg", "fusedlasso10.cfg"):
        cfg = str(CONFIG_DIR / cfg_name)
        a = tmp_path / f"{cfg_name}.a.csv"
        b = tmp_path / f"{cfg_name}.b.csv"
        assert cli_main(["solve", cfg, "-o", str(a)]) == 0
        assert cli_main(["solve", cfg, "-o", str(b)]) == 0
        capsys.readouterr()
        identical = a.read_bytes() == b.read_bytes()
        with capsys.disabled():
            print(f"[criterion 10] {cfg_name} byte-identical CSVs: "
                  f"{'PASS' if identical else 'FAIL'}")
        ok &= identical
    assert ok
