#!/usr/bin/env python3
"""Print iterations to a KKT tolerance, on fixed and on balanced steps.

Usage::

    PYTHONPATH=src python scripts/kkt_counts.py [--seed N]

Each problem runs twice from zero at relaxation 1: on the steps of
``suggest_steps`` (safety 0.99) held fixed, ratio r = sigma_i / tau = 1,
and on the same steps balanced, as ``run`` balances them by default.  A
run stops once ``kkt_residual`` at tau = sigma_i = 1, which does not
depend on the steps, is at most ``KKT_TOL``; it is checked every
``STRIDE``-th iteration, so counts are multiples of ``STRIDE`` unless a
run lands on an exact fixed point first.  A run that reaches
``MAX_ITER`` prints ``-``.

The problems are TV-1D at n = 2000 (``bench/workloads.tv1d_signal``,
a ``diff1d`` coupling and an ``l1`` weight of 0.4), TV-2D at 128 x 128
(``LibTv2d(seed, ...).convex_problem()`` of ``bench/workloads.py``) and
the seven problems of ``splitsolve.benchmarks``.  ``--seed`` picks the
two TV signals; the benchmark problems have fixed seeds of their own.
The script imports ``bench/workloads.py`` and changes nothing there.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

import splitsolve as ss
from splitsolve import benchmarks

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

KKT_TOL = 1e-6
STRIDE = 10
MAX_ITER = 100_000


def tv1d_problem(b: np.ndarray) -> ss.ConvexProblem:
    """TV-1D denoising of ``b`` as the ``cli-tv1d`` config states it."""
    n = b.size
    return ss.ConvexProblem(
        layout=ss.SpaceLayout(n, (n - 1,), (1.0,)),
        f=ss.catalog_prox("zero", n),
        h=ss.quadratic_smooth(b),
        z=np.zeros(n),
        blocks=(ss.ConvexBlock(g=ss.catalog_prox("l1", n - 1, weight=workloads.TV1D_WEIGHT),
                               ell=ss.dirac_term(n - 1), L=ss.diff1d_op(n),
                               r=np.zeros(n - 1)),),
    )


def problems(seed: int):
    """``(name, ConvexProblem)`` of every problem counted."""
    yield "tv1d-2000", tv1d_problem(workloads.tv1d_signal(seed))
    yield "tv2d-128", workloads.LibTv2d(seed, ROOT).convex_problem()
    for name, build in (("fb", benchmarks.fb_problem),
                        ("condat", benchmarks.condat_problem),
                        ("cp", benchmarks.cp_problem),
                        ("tv1d", benchmarks.tv1d_problem),
                        ("fusedlasso", benchmarks.fused_lasso_problem),
                        ("hubertv", benchmarks.huber_tv_problem),
                        ("intersection", benchmarks.intersection_problem)):
        yield name, build()[0]


def iters_to_kkt(cp: ss.ConvexProblem, cfg: ss.StepConfig):
    """The run on ``cfg``: its iterations to ``KKT_TOL`` (``None`` when
    it reaches ``MAX_ITER``) and its report."""
    unit = (1.0,) * cp.spec.num_blocks

    def extra_stop(st, *_):
        if st.n % STRIDE:
            return None
        kkt = ss.kkt_residual(cp, st.x, st.v, tau=1.0, sigmas=unit)
        return ss.StopReason("kkt", kkt, KKT_TOL) if kkt <= KKT_TOL else None

    report = ss.run(cp.spec, cfg, stop=ss.StoppingRule(tol=0.0, max_iter=MAX_ITER),
                    extra_stop=extra_stop)
    return (None if report.stop.rule == "max_iter" else report.iterations), report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=12,
                        help="seed of the TV-1D and TV-2D signals (default 12)")
    args = parser.parse_args(argv)
    print(f"iters_to_kkt: kkt_residual at tau = sigma_i = 1 <= {KKT_TOL:g}, "
          f"checked every {STRIDE} iterations; seed {args.seed}")
    print(f"{'problem':<14}{'fixed r = 1':>12}{'balanced':>10}{'final r':>10}{'changes':>9}")
    for name, cp in problems(args.seed):
        spec = cp.spec
        cfg = ss.suggest_steps(spec, safety=0.99)
        n_fixed, _ = iters_to_kkt(cp, dataclasses.replace(cfg, balance=None))
        n_balanced, report = iters_to_kkt(cp, cfg)
        final = report.steps
        ratio = final.sigmas[0] / final.tau
        print(f"{name:<14}{n_fixed if n_fixed is not None else '-':>12}"
              f"{n_balanced if n_balanced is not None else '-':>10}"
              f"{ratio:>10.4g}{report.step_changes:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
