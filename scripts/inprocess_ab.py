#!/usr/bin/env python3
"""Time a benchmark workload on two checkouts in one process, alternated.

Usage::

    python scripts/inprocess_ab.py PARENT_DIR [--workload lib-tv2d|suites|cli-tv1d]
        [--side N] [--pairs N] [--seed N] [--heap-shift BYTES]

``PARENT_DIR`` is the root of another checkout of this repository (the
parent commit, say).  Both ``src/splitsolve`` packages are loaded into
this process under distinct names, so one interpreter, heap and
calibration-free clock times them both, with the harness's one BLAS
thread.  Three workloads of ``bench/workloads.py`` can be timed:

- ``lib-tv2d`` (the default): the image of ``tv2d_image`` at ``--side``
  (128 there), denoised with its ``l1`` weight on ``grad2d``, solved
  with ``suggest_steps`` and ``run`` to its tolerance.  ``side`` must be
  a multiple of the image's tile.  A solve is timed in µs per
  iteration, and every solve must reach the same iteration count and a
  bitwise-equal final state.
- ``suites``: one pass of ``Suites.run_pass``, ``run_suite`` of each
  pinned suite and its reports rendered as run CSVs, timed as a whole
  in ms.  Every suite check must pass, and every pass must write the
  same CSV bytes.
- ``cli-tv1d``: ``cli.main(["solve", CONFIG, "-o", CSV])`` on the
  generated TV-1D config of ``--seed``, written once to a temporary
  directory, timed in ms per solve.  Every solve must exit 0 and write
  the first solve's standard output (its CSV path made the same) and
  CSV bytes.

Each pair times the workload once per checkout, the parent first in
even pairs and the change first in odd ones (ABBA), after one untimed
run of each.  Every run must give the first run's output on both
checkouts, or the script stops.  It prints each side's median time,
the ratio of the medians (change / parent), the pairs in which the
change was faster, and the parent's interquartile range, which a
claimed change should exceed.

``--heap-shift BYTES`` holds a ``bytearray`` of that size, allocated
before the input and both packages, so that every later allocation of
the process lands elsewhere in the heap.  A large-n row's speed moves
with where its buffers land (``splitsolve.spaces._vectors``), so a
claim about it should hold over several shifts, one process each::

    for b in 0 5000 10000 15000 20000 25000 30000 35000 40000; do
        python scripts/inprocess_ab.py PARENT_DIR --heap-shift $b
    done
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import statistics
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
import run as harness  # noqa: E402  (bench/run.py, which imports numpy only in main)

# the harness's one BLAS thread, set before numpy is imported
harness.set_blas_threads()

import numpy as np  # noqa: E402
import workloads  # noqa: E402


def load(name: str, checkout: Path):
    """The ``splitsolve`` package of ``checkout``, imported as ``name``,
    with its ``benchmarks``, ``reporting`` and ``cli`` modules."""
    pkg = checkout / "src" / "splitsolve"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("benchmarks", "reporting", "cli"):
        importlib.import_module(f"{name}.{sub}")
    return module


def image(side: int, seed: int) -> np.ndarray:
    """``workloads.tv2d_image`` at ``side``: the same draws, in the same order."""
    rng = np.random.default_rng(seed)
    tile = workloads.TV2D_TILE
    t = side // tile
    sign = np.where(np.add.outer(np.arange(t), np.arange(t)) % 2 == 0, 1.0, -1.0)
    levels = sign * rng.uniform(0.5, 1.5, (t, t))
    img = np.kron(levels, np.ones((tile, tile)))
    return (img + workloads.TV2D_NOISE * rng.standard_normal(img.shape)).ravel()


def problem(ss, b: np.ndarray, side: int):
    """lib-tv2d's ``ProblemSpec`` (``workloads.LibTv2d.spec``) built by ``ss``."""
    n = b.size
    L = ss.grad2d_op(side, side)
    m = L.out_dim
    return ss.ProblemSpec(
        layout=ss.SpaceLayout(n, (m,), (1.0,)),
        A=ss.resolvent_from_prox(ss.catalog_prox("zero", n)),
        C=ss.CocoerciveOp(n, lambda x: x - b, 1.0),
        z=np.zeros(n),
        blocks=(ss.Block(
            B=ss.resolvent_from_prox(ss.catalog_prox("l1", m, weight=workloads.TV2D_WEIGHT)),
            Dinv=ss.CocoerciveOp.zero(m), L=L, r=np.zeros(m)),),
    )


def solve(ss, spec):
    """``suggest_steps`` + ``run``: (µs per iteration, iterations, final u)."""
    stop = ss.StoppingRule(tol=workloads.TV2D_TOL, max_iter=workloads.MAX_ITER)
    start = perf_counter()
    report = ss.run(spec, ss.suggest_steps(spec), stop=stop)
    elapsed = perf_counter() - start
    return elapsed * 1e6 / report.iterations, report.iterations, report.final_state.u


def suites_pass(ss):
    """``Suites.run_pass`` of ``bench/workloads.py`` on ``ss``: (ms, the
    run CSV of each report); a failed suite check stops the script."""
    texts, failed = {}, []
    start = perf_counter()
    for suite in ss.benchmarks.SUITE_NAMES:
        outcome = ss.benchmarks.run_suite(suite)
        failed.extend(c.label for c in outcome.checks if not c.passed)
        for name, report in outcome.reports.items():
            texts[name] = ss.reporting.format_run_csv(report)
    elapsed = perf_counter() - start
    if failed:
        raise RuntimeError(f"{ss.__name__}: suite checks failed: {', '.join(failed)}")
    return elapsed * 1e3, texts


def cli_solve(ss, config: Path, csv: Path):
    """``splitsolve solve`` of ``config`` by ``ss.cli.main``: (ms, (its
    stdout with the CSV path replaced, the CSV bytes)); a nonzero exit
    stops the script."""
    csv.unlink(missing_ok=True)
    out = io.StringIO()
    start = perf_counter()
    with redirect_stdout(out):
        code = ss.cli.main(["solve", str(config), "-o", str(csv)])
    elapsed = perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{ss.__name__}: solve exited {code}")
    return elapsed * 1e3, (out.getvalue().replace(str(csv), "CSV"), csv.read_bytes())


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the checkout to compare against")
    parser.add_argument("--workload", choices=("lib-tv2d", "suites", "cli-tv1d"),
                        default="lib-tv2d")
    parser.add_argument("--side", type=int, default=workloads.TV2D_SIDE)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--heap-shift", type=int, default=0, metavar="BYTES",
                        help="bytes held before anything else is allocated")
    args = parser.parse_args(argv)
    if args.side <= 0 or args.side % workloads.TV2D_TILE:
        parser.error(f"--side must be a positive multiple of {workloads.TV2D_TILE}")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.heap_shift < 0:
        parser.error("--heap-shift must be at least 0")
    # held until main returns
    shift = bytearray(args.heap_shift)  # noqa: F841

    if args.workload == "lib-tv2d":
        b = image(args.side, args.seed)
        if (args.side == workloads.TV2D_SIDE
                and not np.array_equal(b, workloads.tv2d_image(args.seed))):
            raise RuntimeError("image() no longer draws workloads.tv2d_image's input")
    sides = {"parent": load("ab_parent", args.parent.resolve()),
             "change": load("ab_change", ROOT)}
    if args.workload == "lib-tv2d":
        specs = {name: problem(ss, b, args.side) for name, ss in sides.items()}
        unit = "us/iter"

        def timed(name):
            us, iters, u = solve(sides[name], specs[name])
            return us, (iters, u.tobytes())
    elif args.workload == "suites":
        unit = "ms/pass"

        def timed(name):
            return suites_pass(sides[name])
    else:
        unit = "ms/solve"
        # removed when main returns
        tmp = tempfile.TemporaryDirectory(prefix="inprocess_ab_")
        workdir = Path(tmp.name)
        config = workdir / "tv1d.cfg"
        config.write_text(workloads.tv1d_config(workloads.tv1d_signal(args.seed)),
                          encoding="utf-8")

        def timed(name):
            return cli_solve(sides[name], config, workdir / f"{name}.csv")
    times = {name: [] for name in sides}
    reference = None
    for k in range(-1, args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for name in order:
            elapsed, output = timed(name)
            if reference is None:
                reference = output
            elif output != reference:
                print(f"{name}: its output differs from the first run's", file=sys.stderr)
                return 1
            if k >= 0:
                times[name].append(elapsed)

    medians = {name: statistics.median(t) for name, t in times.items()}
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    lo, hi = quartiles(times["parent"])
    if args.workload == "lib-tv2d":
        print(f"lib-tv2d side {args.side}, seed {args.seed}, heap shift {args.heap_shift} B: "
              f"{reference[0]} iterations, final states bitwise equal, {args.pairs} ABBA pairs")
    elif args.workload == "suites":
        print(f"suites, heap shift {args.heap_shift} B: {len(reference)} run CSVs "
              f"byte-identical, {args.pairs} ABBA pairs")
    else:
        print(f"cli-tv1d seed {args.seed}, heap shift {args.heap_shift} B: stdout and "
              f"{len(reference[1])} CSV bytes identical, {args.pairs} ABBA pairs")
    for name in sides:
        print(f"{name:>6}: median {medians[name]:.1f} {unit} "
              f"(min {min(times[name]):.1f}, max {max(times[name]):.1f})")
    print(f" ratio: {medians['change'] / medians['parent']:.3f} (change / parent), "
          f"change faster in {wins}/{args.pairs} pairs")
    print(f"   IQR: parent {lo:.1f}-{hi:.1f} {unit} ({(hi - lo) / medians['parent']:.1%} "
          f"of its median); median change {medians['change'] - medians['parent']:+.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
