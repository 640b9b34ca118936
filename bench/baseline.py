"""Plain numpy loop of the lib-tv2d update: the floor for ``us_per_iter``,
and the calibration loop that measures the host's speed.

The recursion is the relaxation-1 primal-dual step for

    minimize 0.5 ||x - b||^2 + weight ||grad x||_1

written out with hand-coded differences and the closed-form dual
projection, plus the cheapest stopping test a loop needs (the squared
displacement in the plain norm).  It uses nothing from splitsolve, so
its speed moves only with the host, never with the program.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: iterations over which the loop must match the library's iterates
PREFIX = 20
#: iterations per timed block
BLOCK = 200

#: calibration loop: iterations per block, fixed input, step sizes
CALIBRATION_STEPS = 50
CALIBRATION_WEIGHT = 0.3
CALIBRATION_STEP = 0.25
#: seconds per calibration block on the reference host (2-core shared
#: VM, Xeon at 2.0 GHz, Python 3.11, numpy 2.4, one BLAS thread), by
#: image side; a timing scaled by reference / measured reads in seconds
#: of that host at its usual speed
CALIBRATION_REFERENCE_S = {6: 0.00120, 128: 0.0210}


def _grad(img):
    return np.concatenate([(img[1:, :] - img[:-1, :]).ravel(),
                           (img[:, 1:] - img[:, :-1]).ravel()])


def _div_adjoint(v, side):
    n_v = (side - 1) * side
    dv = v[:n_v].reshape(side - 1, side)
    dh = v[n_v:].reshape(side, side - 1)
    out = np.zeros((side, side))
    out[:-1, :] -= dv
    out[1:, :] += dv
    out[:, :-1] -= dh
    out[:, 1:] += dh
    return out.ravel()


def _step(x, v, b, side, weight, tau, sigma):
    p = x - tau * (_div_adjoint(v, side) + x - b)
    u = v + sigma * _grad((2.0 * p - x).reshape(side, side))
    return p, np.clip(u, -weight, weight)


def tv2d_iterates(b, side, weight, tau, sigma, iters):
    """Primal and dual iterates 0..iters from zero starting points."""
    x = np.zeros(side * side)
    v = np.zeros(2 * side * (side - 1))
    xs, vs = [x], [v]
    for _ in range(iters):
        x, v = _step(x, v, b, side, weight, tau, sigma)
        xs.append(x)
        vs.append(v)
    return xs, vs


def tv2d_us_per_iter(b, side, weight, tau, sigma, seconds):
    """Median microseconds per iteration over blocks of ``BLOCK``
    iterations, timed for about ``seconds``."""
    x = np.zeros(side * side)
    v = np.zeros(2 * side * (side - 1))
    samples = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(samples) < 3:
        t0 = perf_counter()
        done = 0
        while done < BLOCK:
            p, q = _step(x, v, b, side, weight, tau, sigma)
            dx = p - x
            dv = q - v
            done += 1
            if float(np.dot(dx, dx)) + float(np.dot(dv, dv)) == 0.0:
                break
            x, v = p, q
        samples.append((perf_counter() - t0) / done * 1e6)
    return statistics.median(samples)


def calibrate(side: int, seconds: float) -> float:
    """Mean seconds per block of ``CALIBRATION_STEPS`` iterations of the
    plain loop on a fixed ``side`` x ``side`` image, over blocks timed
    for about ``seconds`` (at least two).

    Every block starts from zero, so each does the same work.  Side 6
    (36 pixels) is bound by call overhead like the small suites; side
    128 by array arithmetic like the TV workloads.
    """
    b = np.random.default_rng(0).standard_normal(side * side)
    x0 = np.zeros(side * side)
    v0 = np.zeros(2 * side * (side - 1))
    total, blocks = 0.0, 0
    while total < seconds or blocks < 2:
        t0 = perf_counter()
        x, v = x0, v0
        for _ in range(CALIBRATION_STEPS):
            x, v = _step(x, v, b, side, CALIBRATION_WEIGHT,
                         CALIBRATION_STEP, CALIBRATION_STEP)
        total += perf_counter() - t0
        blocks += 1
    return total / blocks
