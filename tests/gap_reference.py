"""Reference formulas of the duality gap and the KKT residual.

The functions below the two wrappers are the plain formulas that
``splitsolve.convex.evaluate_gap`` and ``kkt_residual`` evaluated
before their array passes were planned once per problem
(``convex._GapPlan``), kept unchanged so that the tests can hold the
planned evaluation to their bits.  ``reference_gap`` and
``reference_kkt`` are the public functions of that time: the checked
point, then the formula under the same ``np.errstate``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from splitsolve.convex import ConvexBlock, ConvexProblem, GapReport
from splitsolve.operators import ProxFunction, _norm
from splitsolve.solver import _adjoint_sum


def reference_gap(cp, x, v, tau=1.0, sigmas=None) -> GapReport:
    with np.errstate(over="ignore", invalid="ignore"):
        return _evaluate_gap(cp, *_at_point(cp, x, v, sigmas), tau)


def reference_kkt(cp, x, v, tau=1.0, sigmas=None) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        return _kkt_residual(cp, *_at_point(cp, x, v, sigmas), tau)


def _at_point(cp: ConvexProblem, x, v, sigmas):
    """The checked point shared by :func:`kkt_residual` and
    :func:`evaluate_gap`: ``x`` and each ``v_i`` as float arrays of
    their block's shape (not copied), one sigma per block (default 1),
    each L_i x and sum_i w_i L_i^T v_i.  A sigma that is not positive is
    refused as :func:`resolvent_of_inverse` refuses it."""
    layout = cp.layout
    m = len(cp.blocks)
    sigmas = (1.0,) * m if sigmas is None else tuple(sigmas)
    if len(sigmas) != m:
        raise ValueError("one sigma per block is required")
    if any(s <= 0 for s in sigmas):
        raise ValueError("sigma must be strictly positive")
    x = np.asarray(x, dtype=float)
    if x.shape != (layout.dim_primal,):
        raise ValueError("x has the wrong shape")
    v = tuple(np.asarray(vi, dtype=float) for vi in v)
    if len(v) != m or any(vi.shape != (d,) for vi, d in zip(v, layout.dual_dims)):
        raise ValueError("v has the wrong shapes")
    n = layout.dim_primal
    Lx = [blk.L.apply(x) for blk in cp.blocks]
    adjoints = tuple(zip((blk.L.adjoint_apply for blk in cp.blocks), layout.weights))
    wsum = _adjoint_sum(adjoints, v, np.empty(n), np.empty(n))
    return x, v, sigmas, Lx, wsum


def _kkt_residual(cp: ConvexProblem, x: np.ndarray, v, sigmas, Lx,
                  wsum: np.ndarray, tau: float) -> float:
    """:func:`kkt_residual` at a point checked by :func:`_at_point`."""
    weights = cp.layout.weights
    px = cp.f.prox(tau, x - tau * (wsum + cp.h.gradient(x) - cp.z))
    res = _norm(x - px)
    for w, s, blk, vi, lxi in zip(weights, sigmas, cp.blocks, v, Lx):
        u = vi + s * (lxi - blk.ell.conj_gradient(vi) - blk.r)
        res += w * _norm(vi - _conjugate_prox(blk.g, s, u))
    return res


def _conjugate_prox(g: ProxFunction, sigma: float, u: np.ndarray) -> np.ndarray:
    """``prox_{sigma g*}(u)`` for a float array ``u`` and ``sigma > 0``:
    the bits of ``resolvent_of_inverse(resolvent_from_prox(g), sigma, u)``
    without building the resolvent."""
    if g.conjugate_prox is not None:
        return g.conjugate_prox(sigma, u)
    return u - sigma * g.prox(1.0 / sigma, u / sigma)


def _infconv_value(blk: ConvexBlock, w: np.ndarray):
    """(g inf-conv ell)(w) for the catalog ell kinds; None if unknown."""
    if blk.ell.kind == "dirac":
        return blk.g.evaluate(w)
    if blk.ell.kind == "quadratic":
        nu = blk.ell.params["nu"]
        p = blk.g.prox(1.0 / nu, w)
        d = w - p
        return blk.g.evaluate(p) + 0.5 * nu * float(np.dot(d, d))
    return None


def _conj_infconv_f_h(cp: ConvexProblem, u: np.ndarray):
    """(f* inf-conv h*)(u) in the closed-form cases; None if unknown."""
    if cp.h.kind == "sq_l2":
        c = cp.h.params["weight"]
        b = cp.h.params["center"]
        w = b + u / c
        p = cp.f.prox(1.0 / c, w)
        d = p - w
        envelope = cp.f.evaluate(p) + 0.5 * c * float(np.dot(d, d))
        return float(np.dot(b, u)) + float(np.dot(u, u)) / (2.0 * c) - envelope
    if cp.h.kind == "zero":
        if cp.f.conjugate_value is not None:
            return cp.f.conjugate_value(u)
        return None
    return None


def _evaluate_gap(cp: ConvexProblem, x: np.ndarray, v, sigmas, Lx,
                  wsum: np.ndarray, tau: float) -> GapReport:
    """:func:`evaluate_gap` at a point checked by :func:`_at_point`."""
    weights = cp.layout.weights
    notes: list[str] = []

    primal: Optional[float] = cp.f.evaluate(x) + cp.h.value(x) - float(np.dot(x, cp.z))
    for i, (w, blk, lxi) in enumerate(zip(weights, cp.blocks, Lx)):
        val = _infconv_value(blk, lxi - blk.r)
        if val is None:
            notes.append(f"block {i}: no closed form for (g inf-conv ell); "
                         "primal value unavailable")
            primal = None
            break
        primal = primal + w * val

    dual: Optional[float] = _conj_infconv_f_h(cp, cp.z - wsum)
    if dual is None:
        notes.append("no closed form for (f* inf-conv h*); dual value unavailable")
    else:
        for i, (w, blk, vi) in enumerate(zip(weights, cp.blocks, v)):
            if blk.g.conjugate_value is None or blk.ell.conj_value is None:
                notes.append(f"block {i}: conjugate of g or ell unavailable; "
                             "dual value unavailable")
                dual = None
                break
            term = blk.g.conjugate_value(vi) + blk.ell.conj_value(vi) + float(np.dot(vi, blk.r))
            dual = dual + w * term
        if dual is not None and math.isinf(dual):
            notes.append("dual point infeasible: dual value is +inf")

    if primal is None or dual is None:
        gap = None
    else:
        gap = primal + dual

    return GapReport(
        primal_value=primal,
        dual_value=dual,
        gap=gap,
        kkt_residual=_kkt_residual(cp, x, v, sigmas, Lx, wsum, tau),
        notes=tuple(notes),
    )

