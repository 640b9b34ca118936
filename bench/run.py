#!/usr/bin/env python3
"""splitsolve benchmark harness.

Run from the repository root::

    python3 bench/run.py --workload suites|cli-tv1d|lib-tv2d|all \
        --seed N --seconds S --trace 0|1

One workload runs in one process.  After an untimed warm-up pass (whose
outputs are the reference later passes must reproduce), passes repeat
until ``--seconds`` have elapsed.  With ``--trace 0`` only the entry to
and exit from ``solver.run`` are marked, and the end-to-end metrics of
BENCHMARK.json are reported.  The host's speed swings by up to half
within seconds and drifts over minutes, so each pass is followed by a
fixed calibration loop (``baseline.calibrate``) and its times are
scaled by the loop's reference time over its measured time: the
reported times are seconds of the reference host at its usual speed.
The unscaled times are printed beside them.  With ``--trace 1`` one
untraced pass is followed by traced passes in which every public
function of the layer modules and every operator callable records a
span; the per-layer metrics of BENCHMARK.json are reported, with the
tracing overhead.

Each metric is printed with its median, a high percentile and the
sample count; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every correctness gate passed, 1 when one failed and 2 when
the program cannot be found next to the benchmark.  ``--workload all``
runs each workload in its own child process, one after another.

The package is imported from ``src/`` of the checkout; nothing is
installed and nothing under ``src/`` is modified.  See METRICS.md for
the metrics, layers, workloads and predictions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("suites", "cli-tv1d", "lib-tv2d")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: BLAS threads of the harness process: one, below the cap of nproc,
#: because threaded dot products over the 49k-entry TV-2D state wait on
#: the other core, whose speed other tenants of the host set
BLAS_THREADS = 1
#: wall time of the calibration loop after each pass, as a share of the
#: pass's wall time
CALIBRATION_SHARE = 0.5
#: end-to-end times that are scaled to the reference host's speed
SCALED = ("wall_s", "setup_s", "us_per_iter")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
#: seconds spent timing the plain-loop baseline
BASELINE_SECONDS = 1.0
NOTE = ("shared, noisy machine: other tenants' load moves timings; "
        "compare medians of repeated runs, never single passes")


def set_blas_threads() -> int:
    """Set BLAS threads to ``BLAS_THREADS`` for this process only.  Must
    run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def summarize(values):
    """(median, high-percentile label, its value, sample count).

    The high percentile is the highest one with at least ten samples
    beyond it; below 20 samples the maximum is reported instead.
    """
    v = sorted(values)
    n = len(v)
    if n >= 20:
        p = math.floor(100 * (1 - 10 / n))
        label, hi = f"p{p}", v[max(math.ceil(p / 100 * n) - 1, 0)]
    else:
        label, hi = "max", v[-1]
    return statistics.median(v), label, hi, n


def pass_metrics(wall, starts, spans):
    """End-to-end metrics of one pass from its ``solver.run`` spans."""
    runs = [s for s in spans if s[0] == "solver.run"]
    run_starts = [s[1] for s in runs]
    setup = sum(min(r for r in run_starts if r >= t) - t for t in starts)
    iters = sum(s[4] for s in runs)
    run_s = sum(s[2] - s[1] for s in runs)
    return {"wall_s": wall, "setup_s": setup, "iters_to_tol": iters,
            "us_per_iter": run_s / iters * 1e6}


def print_table(title, samples, units):
    print(f"{title}:")
    for name, values in samples.items():
        med, label, hi, n = summarize(values)
        print(f"  {name:<34} {units.get(name, ''):<6} median={med:.6g} "
              f"{label}={hi:.6g} n={n}")


def measure(workload, seconds, trace, spans_mod, baseline):
    """Run the passes; return (gates, e2e samples, layer samples, extra).

    Each untraced timed pass gets a ``host_scale``: the calibration
    loop's reference time over its time measured right after the pass.
    """
    rec = spans_mod.Recorder()
    spans_mod.instrument_run(rec)
    gates = []
    side = workload.calibration_side
    reference = baseline.CALIBRATION_REFERENCE_S[side]

    def host_scale(wall):
        return reference / baseline.calibrate(side, CALIBRATION_SHARE * wall)

    def one_pass():
        rec.active = True
        t0 = perf_counter()
        starts, outcome = workload.run_pass()
        wall = perf_counter() - t0
        rec.active = False
        recorded = rec.take()
        gates.extend(workload.gates(outcome))
        return wall, starts, recorded

    # warm-up: fills caches and records the reference outputs
    host_scale(one_pass()[0])
    e2e, layers, last_spans, per_suite = [], [], [], {}
    deadline = perf_counter() + seconds
    while True:
        metrics = pass_metrics(*one_pass())
        if not trace:
            metrics["host_scale"] = host_scale(metrics["wall_s"])
        e2e.append(metrics)
        if trace or (perf_counter() >= deadline and len(e2e) >= MIN_PASSES):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced_walls = []
    if trace:
        spans_mod.instrument_all(rec)
        while perf_counter() < deadline or len(layers) < MIN_TRACED_PASSES:
            wall, _, last_spans = one_pass()
            traced_walls.append(wall)
            metrics, per_suite = spans_mod.layer_metrics(last_spans)
            layers.append(metrics)
    extra = {"peak_rss_mb": peak_rss_mb, "spans": last_spans, "per_suite": per_suite}
    if trace:
        extra["tracing.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(p["wall_s"] for p in e2e))
    if hasattr(workload, "baseline"):
        base_gates, us = workload.baseline(BASELINE_SECONDS)
        gates.extend(base_gates)
        extra["baseline.us_per_iter"] = us
    return gates, e2e, layers, extra


def run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        print(f"=== {name}", flush=True)
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "splitsolve" / "__init__.py").is_file():
        print(f"error: {SRC / 'splitsolve'} not found; run the benchmark from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    threads = set_blas_threads()
    os.environ.pop("SPLITSOLVE_SEED", None)  # the CLI would reseed from it
    sys.path.insert(0, str(SRC))
    import numpy as np
    import splitsolve
    import baseline
    import spans as spans_mod
    import workloads
    if Path(splitsolve.__file__).resolve().parent != SRC / "splitsolve":
        print(f"error: imported splitsolve from {splitsolve.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    host = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": threads,
            "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
            "note": NOTE}
    print("host: " + json.dumps(host))

    workdir = BENCH / "out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        gates, e2e, layers, extra = measure(workload, args.seconds, args.trace,
                                            spans_mod, baseline)
    finally:
        shutil.rmtree(workdir)

    failed = [label for label, ok in gates if not ok]
    for label in failed:
        print(f"gate FAILED: {label}")
    print(f"gates: {len(gates) - len(failed)}/{len(gates)} passed")

    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    samples = {name: [p[name] for p in e2e] for name in e2e[0]}
    if "host_scale" in samples:
        for name in SCALED:
            samples[f"raw.{name}"] = samples[name]
            samples[name] = [p[name] * p["host_scale"] for p in e2e]
        units["host_scale"] = "x"
        units.update({f"raw.{name}": units[name] for name in SCALED})
    samples["peak_rss_mb"] = [extra["peak_rss_mb"]]
    samples["fail_frac"] = [len(failed) / len(gates)]
    units["fail_frac"] = "ratio"
    if "baseline.us_per_iter" in extra:
        samples["baseline.us_per_iter"] = [extra["baseline.us_per_iter"]]
    title = "untraced" if "host_scale" in samples else "untraced, unscaled"
    print_table(f"{args.workload} end to end ({title})", samples, units)

    if args.trace:
        layer_samples = {name: [m[name] for m in layers] for name in layers[0]}
        layer_samples["tracing.overhead_s"] = [extra["tracing.overhead_s"]]
        print_table(f"{args.workload} per layer (traced)", layer_samples, units)
        for suite, row in extra["per_suite"].items():
            it = row["iterations"]
            print(f"  suite {suite}: iterations={it} "
                  f"L_apply_per_iter={row['L_apply'] / it:.6g} "
                  f"L_adjoint_per_iter={row['L_adjoint'] / it:.6g}")
        out = BENCH / "out" / f"spans-{args.workload}.json"
        out.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "attrs"],
                                   "spans": extra["spans"]}), encoding="utf-8")
        print(f"wrote the spans of the last traced pass to {out.relative_to(ROOT)}")
        values = {name: statistics.median(v) for name, v in layer_samples.items()}
        values["baseline.us_per_iter"] = extra.get("baseline.us_per_iter", 0.0)
        listed = contract["per_layer"]
    else:
        values = {name: statistics.median(v) for name, v in samples.items()}
        listed = contract["end_to_end"]

    result = {
        "correct": not failed,
        "attempted": len(gates),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
