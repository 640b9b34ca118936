"""Sampled certificates for the operators the step condition trusts.

The step condition of :mod:`splitsolve.solver` takes three kinds of
input at face value: the cocoercivity constant mu of C, each constant
nu_i of D_i^{-1}, and each bound on ||L_i||.  Setup certifies the norm
bounds (:func:`splitsolve.solver.certified_norms`); it cannot certify
the declared constants, nor that each ``L_i.adjoint_apply`` is the
adjoint of ``L_i.apply``, which the iteration and the norm bounds both
assume.  Given adjoint L_i, true constants and certified norms, a
positive margin makes V - M^{-1}/2 positive definite by the
Schur-complement argument of the solver's docstring, so
:func:`certify_operators` samples exactly those facts, one operator at
a time.  Each test is relative to the size of its terms, so scaling an
operator does not change its verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import CocoerciveOp, LinearOp
from .solver import ProblemSpec
from .spaces import _check_count

__all__ = ["CertificateReport", "certify_operators"]

#: largest sampled violation a certificate forgives, relative to its terms
TOL = 1e-9


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one sampled certificate: it passes when the worst
    sampled ``margin`` is at least ``threshold``."""

    name: str
    passed: bool
    margin: float
    threshold: float
    samples: int
    note: str = ""


def _report(name: str, values, note: str = "") -> CertificateReport:
    # np.min propagates NaN, which then fails the comparison; + 0.0 turns -0 into 0
    worst = float(np.min(values)) + 0.0
    return CertificateReport(name, worst >= -TOL, worst, -TOL, len(values), note)


def _relative(value: float, scale: float) -> float:
    # a zero scale means both terms vanish exactly, so the value does too
    return value / scale if scale else 0.0


def _cocoercivity(name: str, op: CocoerciveOp, symbol: str, samples: int,
                  rng) -> CertificateReport:
    """(1/c) <du, dq> - ||dq||^2 >= -tol (||du|| ||dq|| / c + ||dq||^2)
    on sampled pairs, with 1/inf = 0: an infinite constant requires
    dq = 0."""
    inv = 1.0 / op.constant
    values = []
    for _ in range(samples):
        u, w = rng.standard_normal(op.dim), rng.standard_normal(op.dim)
        du, dq = u - w, op.apply(u) - op.apply(w)
        qq = float(np.dot(dq, dq))
        scale = inv * float(np.linalg.norm(du)) * float(np.linalg.norm(dq)) + qq
        values.append(_relative(inv * float(np.dot(du, dq)) - qq, scale))
    return _report(name, values, f"{symbol} = {op.constant:g}")


def _adjoint(name: str, L: LinearOp, samples: int, rng) -> CertificateReport:
    """|<Lx, y> - <x, L^T y>| <= tol (||Lx|| ||y|| + ||x|| ||L^T y||)
    on sampled pairs."""
    values = []
    for _ in range(samples):
        x, y = rng.standard_normal(L.in_dim), rng.standard_normal(L.out_dim)
        lx, lty = L.apply(x), L.adjoint_apply(y)
        scale = (float(np.linalg.norm(lx)) * float(np.linalg.norm(y))
                 + float(np.linalg.norm(x)) * float(np.linalg.norm(lty)))
        values.append(_relative(-abs(float(np.dot(lx, y)) - float(np.dot(x, lty))), scale))
    return _report(name, values)


def certify_operators(spec: ProblemSpec, samples: int = 100,
                      seed: int = 0) -> list[CertificateReport]:
    """Certify C against mu, then each L_i's adjoint, then each D_i^{-1}
    against nu_i, by ``samples`` seeded draws each; ``samples`` must be
    an integer of at least 1."""
    _check_count("samples", samples)
    rng = np.random.default_rng(seed)
    blocks = spec.blocks
    return [
        _cocoercivity("cocoercivity(C)", spec.C, "mu", samples, rng),
        *(_adjoint(f"adjoint(L[{i}])", blk.L, samples, rng)
          for i, blk in enumerate(blocks)),
        *(_cocoercivity(f"cocoercivity(Dinv[{i}])", blk.Dinv, "nu", samples, rng)
          for i, blk in enumerate(blocks)),
    ]
