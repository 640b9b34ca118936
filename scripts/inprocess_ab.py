#!/usr/bin/env python3
"""Time lib-tv2d's solve on two checkouts in one process, alternated.

Usage::

    python scripts/inprocess_ab.py PARENT_DIR [--side N] [--pairs N] [--seed N]

``PARENT_DIR`` is the root of another checkout of this repository (the
parent commit, say).  Both ``src/splitsolve`` packages are loaded into
this process under distinct names, so one interpreter, heap and
calibration-free clock times them both, with the harness's one BLAS
thread.  The input is lib-tv2d's of
``bench/workloads.py``: the image of ``tv2d_image`` at ``--side`` (128
there), denoised with its ``l1`` weight on ``grad2d``, solved with
``suggest_steps`` and ``run`` to its tolerance.  ``side`` must be a
multiple of the image's tile.

Each pair times ``suggest_steps`` + ``run`` once per checkout, the
parent first in even pairs and the change first in odd ones (ABBA),
after one untimed solve of each.  Every solve must reach the same
iteration count and a bitwise-equal final state on both checkouts, or
the script stops.  It prints each side's median µs per iteration, the
ratio of the medians (change / parent), the pairs in which the change
was faster, and the parent's interquartile range, which a claimed
change should exceed.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
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
    """The ``splitsolve`` package of ``checkout``, imported as ``name``."""
    pkg = checkout / "src" / "splitsolve"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
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


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the checkout to compare against")
    parser.add_argument("--side", type=int, default=workloads.TV2D_SIDE)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=12)
    args = parser.parse_args(argv)
    if args.side <= 0 or args.side % workloads.TV2D_TILE:
        parser.error(f"--side must be a positive multiple of {workloads.TV2D_TILE}")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    b = image(args.side, args.seed)
    if args.side == workloads.TV2D_SIDE and not np.array_equal(b, workloads.tv2d_image(args.seed)):
        raise RuntimeError("image() no longer draws workloads.tv2d_image's input")
    sides = {"parent": load("ab_parent", args.parent.resolve()),
             "change": load("ab_change", ROOT)}
    specs = {name: problem(ss, b, args.side) for name, ss in sides.items()}
    times = {name: [] for name in sides}
    reference = None
    for k in range(-1, args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for name in order:
            us, iters, u = solve(sides[name], specs[name])
            if reference is None:
                reference = iters, u
            elif iters != reference[0] or u.tobytes() != reference[1].tobytes():
                print(f"{name}: {iters} iterations or its final state differ from "
                      f"the first solve's {reference[0]}", file=sys.stderr)
                return 1
            if k >= 0:
                times[name].append(us)

    medians = {name: statistics.median(t) for name, t in times.items()}
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    lo, hi = quartiles(times["parent"])
    print(f"lib-tv2d side {args.side}, seed {args.seed}: {reference[0]} iterations, "
          f"final states bitwise equal, {args.pairs} ABBA pairs")
    for name in sides:
        print(f"{name:>6}: median {medians[name]:.1f} us/iter "
              f"(min {min(times[name]):.1f}, max {max(times[name]):.1f})")
    print(f" ratio: {medians['change'] / medians['parent']:.3f} (change / parent), "
          f"change faster in {wins}/{args.pairs} pairs")
    print(f"   IQR: parent {lo:.1f}-{hi:.1f} us/iter ({(hi - lo) / medians['parent']:.1%} "
          f"of its median); median change {medians['change'] - medians['parent']:+.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
