"""Numerical certificates for the product-space operators behind the solver.

The convergence argument rests on three operators on the weighted
product space: a skew coupling map S, a cocoercive map Q collecting C
and the D_i^{-1}, and a self-adjoint strongly positive map V that
renorms the space.  The proof needs V - M^{-1}/2 to be positive
definite, where M^{-1} = diag(1/mu, 1/nu_i) holds the inverse
cocoercivity constants.  This module materializes them at desk scale and
certifies the claimed properties by seeded sampling; mutation tests in
the suite guard against vacuous passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .solver import ProblemSpec, RunReport, StepConfig, _weighted_adjoint_sum
from .spaces import SpaceLayout, inner_weighted

__all__ = [
    "ProductOps",
    "CertificateReport",
    "FejerSeries",
    "build_product_ops",
    "certify_skew",
    "certify_strong_positivity",
    "certify_Q_cocoercive",
    "fejer_monitor",
]

SKEW_TOL = 1e-10
SELFADJ_TOL = 1e-10
POSITIVITY_TOL = 1e-9
COCOERCIVITY_TOL = 1e-9
FEJER_SLACK = 1e-10


@dataclass(frozen=True)
class ProductOps:
    """Product-space maps S, Q, V and M^{-1} for one problem/step-size pair.

    Each map takes and returns a flat product-space array (see
    :meth:`SpaceLayout.split`).  ``Minv_apply`` scales each block by
    its inverse cocoercivity constant, 1/inf = 0 for the zero map.
    """

    layout: SpaceLayout
    S_apply: Callable[[np.ndarray], np.ndarray]
    Q_apply: Callable[[np.ndarray], np.ndarray]
    V_apply: Callable[[np.ndarray], np.ndarray]
    Minv_apply: Callable[[np.ndarray], np.ndarray]
    rho: float
    beta: float
    delta: float


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one sampled certificate."""

    name: str
    passed: bool
    margin: float
    threshold: float
    samples: int
    vacuous: bool = False
    note: str = ""


@dataclass(frozen=True)
class FejerSeries:
    """Distances to the final iterate in the renormed metric."""

    declined: bool
    reason: str
    distances: Optional[np.ndarray]
    max_increase: Optional[float]
    monotone: Optional[bool]


def build_product_ops(spec: ProblemSpec, cfg: StepConfig) -> ProductOps:
    """Materialize S, Q, V and M^{-1} for ``spec`` with the steps in ``cfg``."""
    layout = spec.layout
    weights = layout.weights
    blocks = spec.blocks
    tau, sigmas = cfg.tau, cfg.sigmas
    if len(sigmas) != len(blocks):
        raise ValueError("config and problem disagree on the number of blocks")

    def S_apply(u: np.ndarray) -> np.ndarray:
        x, v = layout.split(u)
        wsum = _weighted_adjoint_sum(blocks, weights, v, np.empty(x.size), np.empty(x.size))
        return np.concatenate([wsum, *(-blk.L.apply(x) for blk in blocks)])

    def Q_apply(u: np.ndarray) -> np.ndarray:
        x, v = layout.split(u)
        return np.concatenate(
            [spec.C.apply(x), *(blk.Dinv.apply(d) for blk, d in zip(blocks, v))])

    def V_apply(u: np.ndarray) -> np.ndarray:
        x, v = layout.split(u)
        wsum = _weighted_adjoint_sum(blocks, weights, v, np.empty(x.size), np.empty(x.size))
        return np.concatenate([
            x / tau - wsum,
            *(d / s - blk.L.apply(x) for s, blk, d in zip(sigmas, blocks, v)),
        ])

    inverse_constants = [1.0 / spec.C.constant, *(1.0 / blk.Dinv.constant for blk in blocks)]

    def Minv_apply(u: np.ndarray) -> np.ndarray:
        x, v = layout.split(u)
        return np.concatenate([c * part for c, part in zip(inverse_constants, (x, *v))])

    return ProductOps(
        layout=layout,
        S_apply=S_apply,
        Q_apply=Q_apply,
        V_apply=V_apply,
        Minv_apply=Minv_apply,
        rho=cfg.rho,
        beta=cfg.beta,
        delta=cfg.delta,
    )


def _sample(layout: SpaceLayout, rng) -> np.ndarray:
    return rng.standard_normal(layout.size)


def certify_skew(ops: ProductOps, samples: int = 100, seed: int = 0) -> CertificateReport:
    """Check <u, S u> = 0 on sampled u (scaled tolerance 1e-10)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        u = _sample(ops.layout, rng)
        nsq = inner_weighted(u, u, ops.layout)
        val = abs(inner_weighted(u, ops.S_apply(u), ops.layout)) / (1.0 + nsq)
        worst = max(worst, val)
    return CertificateReport("skew(S)", worst <= SKEW_TOL, worst, SKEW_TOL, samples)


def certify_strong_positivity(ops: ProductOps, samples: int = 100,
                              seed: int = 0) -> CertificateReport:
    """Check self-adjointness of V, <u, V u> >= rho ||u||^2 and
    <u, (V - M^{-1}/2) u> >= 0, the inequality the convergence proof
    uses; the margin is the smaller of the two sampled lower bounds.

    With ``rho <= 0`` the positivity bound is vacuous; the report says
    so instead of asserting anything.
    """
    rng = np.random.default_rng(seed)
    worst_adj = 0.0
    worst_rho = math.inf
    worst_proof = math.inf
    for _ in range(samples):
        u = _sample(ops.layout, rng)
        w = _sample(ops.layout, rng)
        vu, vw = ops.V_apply(u), ops.V_apply(w)
        worst_adj = max(
            worst_adj,
            abs(inner_weighted(u, vw, ops.layout) - inner_weighted(vu, w, ops.layout)),
        )
        quad = inner_weighted(u, vu, ops.layout)
        worst_rho = min(worst_rho, quad - ops.rho * inner_weighted(u, u, ops.layout))
        worst_proof = min(
            worst_proof, quad - 0.5 * inner_weighted(u, ops.Minv_apply(u), ops.layout))
    worst_pos = min(worst_rho, worst_proof)
    if ops.rho <= 0.0:
        return CertificateReport(
            "strong-positivity(V)", False, worst_pos, -POSITIVITY_TOL, samples,
            vacuous=True,
            note=f"rho = {ops.rho:g} <= 0: bound vacuous (inadmissible steps); "
                 f"self-adjointness deviation {worst_adj:.3e}",
        )
    passed = worst_pos >= -POSITIVITY_TOL and worst_adj <= SELFADJ_TOL
    return CertificateReport(
        "strong-positivity(V)", passed, worst_pos, -POSITIVITY_TOL, samples,
        note=f"V - rho I bound {worst_rho:.3e}, V - M^-1/2 bound {worst_proof:.3e}, "
             f"self-adjointness deviation {worst_adj:.3e} (tol {SELFADJ_TOL:g})",
    )


def certify_Q_cocoercive(ops: ProductOps, beta: Optional[float] = None,
                         samples: int = 100, seed: int = 0) -> CertificateReport:
    """Check <u-w, Qu-Qw> >= beta ||Qu-Qw||^2 on sampled pairs."""
    if beta is None:
        beta = ops.beta
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(samples):
        u = _sample(ops.layout, rng)
        w = _sample(ops.layout, rng)
        qu, qw = ops.Q_apply(u), ops.Q_apply(w)
        dq = qu - qw
        du = u - w
        worst = min(
            worst,
            inner_weighted(du, dq, ops.layout)
            - beta * inner_weighted(dq, dq, ops.layout),
        )
    return CertificateReport(
        "cocoercivity(Q)", worst >= -COCOERCIVITY_TOL, worst, -COCOERCIVITY_TOL,
        samples, note=f"beta = {beta:g}",
    )


def fejer_monitor(report: RunReport, ops: ProductOps) -> FejerSeries:
    """Distance-to-final-iterate series in the renormed metric.

    Declines when the run injected errors (summable perturbations break
    exact monotonicity) or did not record its states.
    """
    if report.used_errors:
        return FejerSeries(True, "run injected nonzero errors; monotonicity "
                           "holds only for exact iterations", None, None, None)
    if report.states is None:
        return FejerSeries(True, "run did not record states "
                           "(pass record_states=True)", None, None, None)
    final = report.states[-1]
    dists = []
    for s in report.states:
        d = s.u - final.u
        dists.append(math.sqrt(max(inner_weighted(d, ops.V_apply(d), ops.layout), 0.0)))
    dists = np.asarray(dists)
    increases = np.diff(dists)
    max_inc = float(increases.max()) if increases.size else 0.0
    return FejerSeries(False, "", dists, max_inc, bool(max_inc <= FEJER_SLACK))
