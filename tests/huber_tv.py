"""Exact optimality checks of the smoothed-TV instance
``splitsolve.benchmarks.huber_tv_problem``, shared by
``tests/test_acceptance.py`` and ``scripts/make_references.py``.

The instance minimizes 0.5 ||x - b||^2 + alpha ||x||_1 + the Huber
penalty of weight ``weight`` and curvature ``nu`` on the differences of
x, whose optimality system is single-valued except for the l1 part.
"""

import numpy as np


def huber_tv_certificate_violation(b, alpha, weight, nu, x) -> float:
    """Worst violation of the optimality system of the smoothed-TV
    instance at the candidate x (single-valued except for the l1 part)."""
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    d = x[1:] - x[:-1]
    hp = np.clip(nu * d, -weight, weight)  # derivative of the smoothed penalty
    dt = np.zeros_like(x)
    dt[:-1] -= hp
    dt[1:] += hp
    s = b - x - dt  # must lie in alpha * subdifferential of ||.||_1
    worst = float(np.max(np.abs(s) - alpha, initial=0.0))
    on = np.abs(x) > 1e-6 * (1.0 + np.max(np.abs(x)))
    if np.any(on):
        worst = max(worst, float(np.max(np.abs(s[on] - alpha * np.sign(x[on])))))
    return worst


def huber_tv_dual_from_primal(weight, nu, x) -> np.ndarray:
    """Closed-form dual block variable at a primal point of the
    smoothed-TV instance (gradient of the smoothed penalty)."""
    x = np.asarray(x, dtype=float)
    return np.clip(nu * (x[1:] - x[:-1]), -weight, weight)
