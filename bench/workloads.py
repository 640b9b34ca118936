"""The benchmark's workloads: seeded inputs, one timed pass, and gates.

Each workload object is built once per process from the seed (inputs
are generated here; the program receives only config text or arrays),
then ``run_pass`` is called repeatedly.  A pass returns the start times
of its solves (for ``setup_s``) and an opaque outcome that ``gates``
checks after the timed region.  ``gates`` returns ``(label, passed)``
pairs; the first pass of a process is the reference that later passes
must reproduce byte for byte.  ``calibration_side`` picks the size of
the calibration loop that tracks the host's speed for the workload:
small for call-overhead-bound work, large for array arithmetic.

The inputs are built so that iterations to tolerance vary little from
seed to seed: segments and tiles have fixed sizes, neighbouring levels
differ by at least 0.5, and the noise is small enough not to create
near-threshold jumps whose slow identification would dominate the
iteration count.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import splitsolve.benchmarks as benchmarks
import splitsolve.cli as cli
import splitsolve.convex as convex
import splitsolve.operators as ops
import splitsolve.reporting as reporting
import splitsolve.solver as solver
from splitsolve.spaces import SpaceLayout

import baseline

TV1D_N = 2000
TV1D_SEGMENTS = 100
TV1D_NOISE = 0.1
TV1D_WEIGHT = 0.4
TV1D_TOL = 1e-8
#: bound on benchmarks.tv_certificate_violation of the printed solution
TV1D_CERT_BOUND = 1e-9

TV2D_SIDE = 128
TV2D_TILE = 32
TV2D_NOISE = 0.02
TV2D_WEIGHT = 0.3
TV2D_TOL = 1e-6
#: bounds on |duality gap| / (1 + |primal|) and on the KKT residual
TV2D_GAP_BOUND = 1e-4
TV2D_KKT_BOUND = 1e-3

MAX_ITER = 100_000


def alternating_levels(rng, count):
    """Levels whose consecutive differences alternate in sign, with
    magnitudes drawn from [0.5, 1.5]."""
    steps = rng.uniform(0.5, 1.5, count - 1) * np.where(
        np.arange(count - 1) % 2 == 0, 1.0, -1.0)
    return np.concatenate([[0.0], np.cumsum(steps)])


def tv1d_signal(seed: int) -> np.ndarray:
    """Noisy piecewise-constant signal of equal-length segments."""
    rng = np.random.default_rng(seed)
    levels = alternating_levels(rng, TV1D_SEGMENTS)
    base = np.repeat(levels, TV1D_N // TV1D_SEGMENTS)
    return base + TV1D_NOISE * rng.standard_normal(TV1D_N)


def tv1d_config(b: np.ndarray) -> str:
    """Config text of TV-1D denoising of ``b`` with the center inlined."""
    center = ",".join(repr(float(v)) for v in b)
    n = b.size
    return f"""# TV-1D denoising: minimize 0.5 ||x - b||^2 + {TV1D_WEIGHT} ||D x||_1

[problem]
dim_primal = {n}
z = zeros
f = zero
h = sq_l2 weight=1.0 center=({center})

[block]
dim = {n - 1}
omega = 1.0
L = diff1d
g = l1 weight={TV1D_WEIGHT}
ell = dirac
r = zeros

[steps]
mode = auto
safety = 0.99
lambda = 1.0

[stop]
tol = {TV1D_TOL}
max_iter = {MAX_ITER}
"""


def tv2d_image(seed: int) -> np.ndarray:
    """Noisy image of square tiles, checkerboard-signed levels in
    [0.5, 1.5] so that neighbouring tiles differ by at least 1."""
    rng = np.random.default_rng(seed)
    t = TV2D_SIDE // TV2D_TILE
    sign = np.where(np.add.outer(np.arange(t), np.arange(t)) % 2 == 0, 1.0, -1.0)
    levels = sign * rng.uniform(0.5, 1.5, (t, t))
    img = np.kron(levels, np.ones((TV2D_TILE, TV2D_TILE)))
    return (img + TV2D_NOISE * rng.standard_normal(img.shape)).ravel()


class Suites:
    """The five pinned suites, each report rendered as a run CSV.

    Problems are small (n <= 50), so the loop is bound by Python call
    overhead; the only workload with relaxation below 1, injected
    errors, recorded states and 2-3 dual blocks.  The suites use fixed
    internal seeds, so the benchmark seed does not apply.
    """

    name = "suites"
    calibration_side = 6

    def __init__(self, seed: int, workdir: Path):
        self.reference_csv = None

    def run_pass(self):
        starts, checks, texts = [], [], {}
        for suite in benchmarks.SUITE_NAMES:
            starts.append(perf_counter())
            outcome = benchmarks.run_suite(suite)
            checks.extend(outcome.checks)
            for name, report in outcome.reports.items():
                texts[name] = reporting.format_run_csv(report)
        return starts, (checks, texts)

    def gates(self, outcome):
        checks, texts = outcome
        result = [(c.label, c.passed) for c in checks]
        if self.reference_csv is None:
            self.reference_csv = texts
        else:
            result.extend((f"{name}: CSV identical to first pass",
                           texts.get(name) == text)
                          for name, text in self.reference_csv.items())
        return result


class CliTv1d:
    """``splitsolve solve`` in process on generated TV-1D config text.

    The only workload through config parsing and the convex front end's
    default path (gradient check, norm certification), so it is bound
    by setup; it also pays for the per-iteration metrics hook and the
    run CSV that ``solve`` always produces.
    """

    name = "cli-tv1d"
    calibration_side = 128

    def __init__(self, seed: int, workdir: Path):
        self.b = tv1d_signal(seed)
        self.config = workdir / "tv1d.cfg"
        self.config.write_text(tv1d_config(self.b), encoding="utf-8")
        self.csv = workdir / "tv1d.csv"
        self.reference_csv = None

    def run_pass(self):
        self.csv.unlink(missing_ok=True)  # a failed solve must not pass on a stale CSV
        out = io.StringIO()
        start = perf_counter()
        with redirect_stdout(out):
            code = cli.main(["solve", str(self.config), "-o", str(self.csv)])
        return [start], (code, out.getvalue())

    def gates(self, outcome):
        code, stdout = outcome
        csv = self.csv.read_bytes() if self.csv.exists() else b""
        footer = b"# termination=converged\n" in csv
        x_lines = [line for line in stdout.splitlines() if line.startswith("x = ")]
        if x_lines:
            x = np.array([float(v) for v in x_lines[0][4:].split()])
            cert = benchmarks.tv_certificate_violation(self.b, TV1D_WEIGHT, x)
        else:
            cert = math.inf
        result = [
            ("exit code 0", code == 0),
            ("footer termination=converged", footer),
            (f"certificate violation {cert:.2e} <= {TV1D_CERT_BOUND:g}",
             cert <= TV1D_CERT_BOUND),
        ]
        if self.reference_csv is None:
            self.reference_csv = csv
        else:
            result.append(("CSV identical to first pass", csv == self.reference_csv))
        return result


class LibTv2d:
    """2-D TV (ROF) denoising built at the inclusion level and solved
    with ``suggest_steps`` and ``run``, with no metrics hook.

    Bound by iteration at a size where array arithmetic outweighs call
    overhead (about 49k state entries).  It skips the convex front end
    because the gradient check grows as n^2; ``cli-tv1d`` measures it.
    """

    name = "lib-tv2d"
    calibration_side = 128

    def __init__(self, seed: int, workdir: Path):
        self.b = tv2d_image(seed)
        self.stop = solver.StoppingRule(tol=TV2D_TOL, max_iter=MAX_ITER)

    def spec(self):
        n = self.b.size
        L = ops.grad2d_op(TV2D_SIDE, TV2D_SIDE)
        m = L.out_dim
        b = self.b
        return solver.ProblemSpec(
            layout=SpaceLayout(n, (m,), (1.0,)),
            A=ops.resolvent_from_prox(ops.catalog_prox("zero", n)),
            C=ops.CocoerciveOp(n, lambda x: x - b, 1.0),
            z=np.zeros(n),
            blocks=(solver.Block(
                B=ops.resolvent_from_prox(ops.catalog_prox("l1", m, weight=TV2D_WEIGHT)),
                Dinv=ops.CocoerciveOp.zero(m),
                L=L,
                r=np.zeros(m),
            ),),
        )

    def convex_problem(self):
        """The same problem as a convex program, for the gap gates."""
        n = self.b.size
        L = ops.grad2d_op(TV2D_SIDE, TV2D_SIDE)
        m = L.out_dim
        return convex.ConvexProblem(
            layout=SpaceLayout(n, (m,), (1.0,)),
            f=ops.catalog_prox("zero", n),
            h=convex.quadratic_smooth(self.b),
            z=np.zeros(n),
            blocks=(convex.ConvexBlock(
                g=ops.catalog_prox("l1", m, weight=TV2D_WEIGHT),
                ell=convex.dirac_term(m), L=L, r=np.zeros(m)),),
        )

    def run_pass(self):
        start = perf_counter()
        spec = self.spec()
        cfg = solver.suggest_steps(spec)
        report = solver.run(spec, cfg, stop=self.stop)
        return [start], (cfg, report)

    def gates(self, outcome):
        cfg, report = outcome
        cp = self.convex_problem()
        st = report.final_state
        gap = convex.evaluate_gap(cp, st.x, st.v, tau=cfg.tau, sigmas=cfg.sigmas)
        rel_gap = (abs(gap.gap) / (1.0 + abs(gap.primal_value))
                   if gap.gap is not None else math.inf)
        kkt = convex.kkt_residual(cp, st.x, st.v, tau=cfg.tau, sigmas=cfg.sigmas)
        return [
            ("termination=converged", report.termination == "converged"),
            (f"relative duality gap {rel_gap:.2e} <= {TV2D_GAP_BOUND:g}",
             rel_gap <= TV2D_GAP_BOUND),
            (f"kkt residual {kkt:.2e} <= {TV2D_KKT_BOUND:g}", kkt <= TV2D_KKT_BOUND),
        ]

    def baseline(self, seconds: float):
        """Plain-loop floor: gate on agreement with the library's first
        iterates, then time the loop; returns (gates, us_per_iter)."""
        spec = self.spec()
        cfg = solver.suggest_steps(spec, norms=(spec.blocks[0].L.norm_hint,))
        prefix = baseline.PREFIX
        report = solver.run(spec, cfg, stop=solver.StoppingRule(tol=0.0, max_iter=prefix),
                            record_states=True)
        xs, vs = baseline.tv2d_iterates(self.b, TV2D_SIDE, TV2D_WEIGHT,
                                        cfg.tau, cfg.sigmas[0], prefix)
        dev = benchmarks.max_state_deviation(report.states, xs, [[v] for v in vs])
        gates = [(f"baseline deviation over {prefix} iterations {dev:.2e} <= 1e-12",
                  dev <= 1e-12)]
        us = baseline.tv2d_us_per_iter(self.b, TV2D_SIDE, TV2D_WEIGHT,
                                       cfg.tau, cfg.sigmas[0], seconds)
        return gates, us


WORKLOADS = {w.name: w for w in (Suites, CliTv1d, LibTv2d)}
