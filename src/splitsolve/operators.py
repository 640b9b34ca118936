"""Operator algebra for the splitting solver.

Four operator representations are used throughout:

* :class:`LinearOp` -- a bounded linear map with its adjoint, an
  optional upper bound on its norm, and a ``kind`` tag that marks the
  library's operators whose bound is the exact closed-form norm,
* :class:`ResolventOp` -- a maximally monotone operator represented by
  its resolvent ``(gamma, w) -> J_{gamma A}(w)``,
* :class:`CocoerciveOp` -- a single-valued map together with its
  cocoercivity constant (``inf`` encodes the zero map or stronger),
* :class:`ProxFunction` -- a proper convex function with an exact
  proximity operator, optionally carrying a closed-form conjugate and an
  effective-domain description.

The module also provides power-iteration norm estimation (for operators
without a closed-form norm), the inverse-resolvent identity, the Moreau
decomposition for conjugate proxes, and a closed-form prox catalog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "LinearOp",
    "ResolventOp",
    "CocoerciveOp",
    "ProxFunction",
    "Domain",
    "NormEstimate",
    "CLOSED_FORM_NORM_KINDS",
    "CocoercivityReport",
    "identity_op",
    "matrix_op",
    "diff1d_op",
    "grad2d_op",
    "estimate_norm",
    "resolvent_of_inverse",
    "prox_conjugate",
    "catalog_prox",
    "resolvent_from_prox",
    "check_cocoercive",
]

#: feasibility slack used when evaluating indicator-type functions
INDICATOR_TOL = 1e-9
#: ``LinearOp.kind`` tags whose ``norm_hint`` is the exact operator norm
CLOSED_FORM_NORM_KINDS = frozenset({"identity", "diff1d", "grad2d"})


def _read_only_zeros(dim: int) -> np.ndarray:
    """A zero vector that cannot be written, for zero maps to share."""
    zero = np.zeros(dim)
    zero.flags.writeable = False
    return zero


@dataclass(frozen=True)
class LinearOp:
    """Bounded linear operator with adjoint.

    ``norm_hint`` is an upper bound on the operator norm.  ``kind`` is
    ``"custom"`` unless a library constructor sets it; for the kinds in
    ``CLOSED_FORM_NORM_KINDS`` (``identity_op``, ``diff1d_op``,
    ``grad2d_op``) the hint is the exact closed-form norm and is used as
    it is, like the ``kind`` tags of the catalog functions.  A custom
    hint is only a starting point: step certification still runs power
    iteration and repairs a hint below the true norm.  Power iteration
    stays at or below the closed forms (except one ulp at
    ``grad2d_op(2, 2)``), so using them directly leaves step sizes and
    iterates bit for bit the same.
    """

    in_dim: int
    out_dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    adjoint_apply: Callable[[np.ndarray], np.ndarray]
    norm_hint: Optional[float] = None
    kind: str = "custom"

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("operator dimensions must be positive")
        if self.norm_hint is not None and not self.norm_hint >= 0:
            raise ValueError("norm_hint must be nonnegative")
        if self.kind in CLOSED_FORM_NORM_KINDS and self.norm_hint is None:
            raise ValueError(f"a {self.kind} operator needs its closed-form norm_hint")


@dataclass(frozen=True)
class ResolventOp:
    """Maximally monotone operator given by its resolvent map.

    ``resolvent(gamma, w)`` must return ``J_{gamma A}(w)`` for any
    ``gamma > 0``.  Resolvents of maximally monotone operators are
    firmly nonexpansive; that property is the testable contract.
    """

    dim: int
    resolvent: Callable[[float, np.ndarray], np.ndarray]

    @staticmethod
    def zero(dim: int) -> "ResolventOp":
        """Resolvent of the zero operator (the identity map)."""
        return ResolventOp(dim, lambda gamma, w: np.asarray(w, dtype=float))


@dataclass(frozen=True)
class CocoerciveOp:
    """Single-valued map with a cocoercivity constant.

    ``constant = inf`` encodes the zero operator (or stronger); it keeps
    degenerate blocks out of the step-size bound.
    """

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    constant: float

    def __post_init__(self):
        if not self.constant > 0:
            raise ValueError("cocoercivity constant must be strictly positive")

    @staticmethod
    def zero(dim: int) -> "CocoerciveOp":
        """The zero map; every call returns one shared read-only array."""
        zero = _read_only_zeros(dim)
        return CocoerciveOp(dim, lambda v: zero, math.inf)


@dataclass(frozen=True)
class Domain:
    """Effective domain of a catalog function: full space, box, or point."""

    kind: str  # "full" | "box" | "singleton"
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None
    point: Optional[np.ndarray] = None

    @staticmethod
    def full() -> "Domain":
        return Domain("full")

    @staticmethod
    def box(lo, hi) -> "Domain":
        return Domain("box", lo=np.asarray(lo, dtype=float), hi=np.asarray(hi, dtype=float))

    @staticmethod
    def singleton(point) -> "Domain":
        return Domain("singleton", point=np.asarray(point, dtype=float))


@dataclass(frozen=True)
class ProxFunction:
    """Convex function with an exact proximity operator.

    ``prox(gamma, w)`` minimizes ``f(y) + ||w - y||^2 / (2 gamma)``.
    ``conjugate_value`` evaluates the convex conjugate when a closed
    form is known (used for duality-gap reporting).  ``domain``
    describes the effective domain for qualification checking; ``None``
    means unknown.
    """

    dim: int
    evaluate: Callable[[np.ndarray], float]
    prox: Callable[[float, np.ndarray], np.ndarray]
    conjugate_value: Optional[Callable[[np.ndarray], float]] = None
    domain: Optional[Domain] = None
    kind: str = "custom"
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class NormEstimate:
    """Result of :func:`estimate_norm`; ``converged`` is the warning flag."""

    value: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class CocoercivityReport:
    """Sampled cocoercivity verdict from :func:`check_cocoercive`."""

    passed: bool
    min_margin: float
    samples: int
    constant: float


# ---------------------------------------------------------------------------
# linear-operator constructors


def identity_op(dim: int) -> LinearOp:
    """The identity; apply and adjoint return their input array."""
    return LinearOp(dim, dim, lambda x: np.asarray(x, dtype=float),
                    lambda y: np.asarray(y, dtype=float), norm_hint=1.0,
                    kind="identity")


def matrix_op(mat, norm_hint: Optional[float] = None) -> LinearOp:
    """Dense-matrix operator; adjoint is the transpose."""
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2:
        raise ValueError("matrix_op expects a 2-D array")
    return LinearOp(m.shape[1], m.shape[0], lambda x: m @ x, lambda y: m.T @ y,
                    norm_hint=norm_hint)


def diff1d_op(n: int) -> LinearOp:
    """Forward-difference operator R^n -> R^(n-1), x -> (x_{k+1} - x_k).

    Its largest singular value is 2 sin((n-1) pi / (2n)), certified as
    the norm hint.
    """
    if n < 2:
        raise ValueError("diff1d needs n >= 2")

    def apply(x):
        x = np.asarray(x, dtype=float)
        return x[1:] - x[:-1]

    def adjoint(y):
        # 0.0 - y and a zero last entry reproduce np.zeros(n) -= y, signed
        # zeros included, without filling the output twice
        y = np.asarray(y, dtype=float)
        out = np.empty(n)
        np.subtract(0.0, y, out=out[:-1])
        out[-1] = 0.0
        out[1:] += y
        return out

    return LinearOp(n, n - 1, apply, adjoint,
                    norm_hint=2.0 * math.sin((n - 1) * math.pi / (2 * n)),
                    kind="diff1d")


def grad2d_op(rows: int, cols: int) -> LinearOp:
    """Discrete gradient of a rows x cols image (row-major flattening).

    Stacks vertical differences ((rows-1) * cols values) above
    horizontal differences (rows * (cols-1) values).
    """
    if rows < 2 or cols < 2:
        raise ValueError("grad2d needs rows >= 2 and cols >= 2")
    n_v = (rows - 1) * cols
    n_h = rows * (cols - 1)

    def apply(x):
        img = np.asarray(x, dtype=float).reshape(rows, cols)
        out = np.empty(n_v + n_h)
        np.subtract(img[1:, :], img[:-1, :], out=out[:n_v].reshape(rows - 1, cols))
        np.subtract(img[:, 1:], img[:, :-1], out=out[n_v:].reshape(rows, cols - 1))
        return out

    def adjoint(y):
        y = np.asarray(y, dtype=float)
        dv = y[:n_v].reshape(rows - 1, cols)
        dh = y[n_v:].reshape(rows, cols - 1)
        out = np.empty((rows, cols))
        np.subtract(0.0, dv, out=out[:-1, :])
        out[-1, :] = 0.0
        out[1:, :] += dv
        out[:, :-1] -= dh
        out[:, 1:] += dh
        return out.ravel()

    hint = 2.0 * math.sqrt(
        math.sin((rows - 1) * math.pi / (2 * rows)) ** 2
        + math.sin((cols - 1) * math.pi / (2 * cols)) ** 2
    )
    return LinearOp(rows * cols, n_v + n_h, apply, adjoint, norm_hint=hint,
                    kind="grad2d")


# ---------------------------------------------------------------------------
# norm estimation


def estimate_norm(L: LinearOp, tol: float = 1e-8, max_iter: int = 10000,
                  seed: int = 0) -> NormEstimate:
    """Estimate the operator norm of ``L`` by power iteration on L*L.

    Iterates from a seeded random start until the eigen-residual
    ``||L*L x - lam x||`` drops below ``tol * lam``; the returned value
    is ``sqrt(lam)``.  If ``L.norm_hint`` is set the result is
    ``max(hint, estimate)`` so a certified upper bound is never
    undercut.  On non-convergence the best iterate is returned with
    ``converged=False``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(L.in_dim)
    nx = np.linalg.norm(x)
    x = x / nx if nx > 0 else np.ones(L.in_dim) / math.sqrt(L.in_dim)

    # the iterate and the eigen-residual live in two arrays reused by every
    # step, so the loop allocates only what L and its adjoint return
    r = np.empty(L.in_dim)
    lam = 0.0
    converged = False
    iterations = 0
    # an operator too large for doubles overflows to inf/nan here; the
    # caller refuses the non-finite result by name, so numpy's warnings
    # would only add noise ahead of that error
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for iterations in range(1, max_iter + 1):
            w = L.adjoint_apply(L.apply(x))
            lam = float(np.dot(x, w))
            resid = float(np.linalg.norm(np.subtract(w, np.multiply(x, lam, out=r), out=r)))
            if resid <= tol * max(abs(lam), 1e-300):
                converged = True
                break
            nw = float(np.linalg.norm(w))
            if nw == 0.0:
                # x is in the kernel of L*L; the estimate collapses to 0
                lam = 0.0
                converged = True
                break
            x = np.divide(w, nw, out=x)

    value = math.sqrt(max(lam, 0.0))
    if L.norm_hint is not None:
        value = max(L.norm_hint, value)
    return NormEstimate(value=value, iterations=iterations, converged=converged)


# ---------------------------------------------------------------------------
# resolvent and conjugate identities


def resolvent_of_inverse(B: ResolventOp, sigma: float, v: np.ndarray) -> np.ndarray:
    """Resolvent of the inverse operator, J_{sigma B^{-1}}(v).

    Uses the inverse-resolvent identity
    ``J_{sigma B^{-1}}(v) = v - sigma J_{B / sigma}(v / sigma)``,
    which is exact for any maximally monotone ``B``.
    """
    if sigma <= 0:
        raise ValueError("sigma must be strictly positive")
    v = np.asarray(v, dtype=float)
    return v - sigma * B.resolvent(1.0 / sigma, v / sigma)


def prox_conjugate(g: ProxFunction, sigma: float, v: np.ndarray) -> np.ndarray:
    """Proximity operator of ``sigma g*`` via the Moreau decomposition.

    Returns ``v - sigma * g.prox(1/sigma, v/sigma)``, which equals the
    resolvent of ``sigma`` times the subdifferential of the conjugate.
    """
    if sigma <= 0:
        raise ValueError("sigma must be strictly positive")
    v = np.asarray(v, dtype=float)
    return v - sigma * g.prox(1.0 / sigma, v / sigma)


def resolvent_from_prox(f: ProxFunction) -> ResolventOp:
    """Resolvent of the subdifferential of ``f`` (the prox map itself)."""
    return ResolventOp(f.dim, lambda gamma, w: f.prox(gamma, w))


# ---------------------------------------------------------------------------
# prox catalog


def _as_vec(value, dim: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(dim, float(arr))
    if arr.shape != (dim,):
        raise ValueError(f"{name} must be a scalar or a vector of length {dim}")
    return arr


def catalog_prox(kind: str, dim: int, **params) -> ProxFunction:
    """Build a catalog function with a closed-form prox.

    Kinds: ``sq_l2`` (weight, center), ``l1`` (weight), ``box`` (lo,
    hi), ``point`` (point), ``zero``, ``linear`` (a), ``l2`` (weight).
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    builder = _CATALOG.get(kind)
    if builder is None:
        raise ValueError(f"unknown prox kind {kind!r}; known: {sorted(_CATALOG)}")
    return builder(dim, **params)


def _build_sq_l2(dim, weight=1.0, center=0.0):
    """(weight/2) ||x - center||^2"""
    c = float(weight)
    if c <= 0:
        raise ValueError("sq_l2 weight must be positive")
    b = _as_vec(center, dim, "center")

    def prox(gamma, w):
        out = np.multiply(b, gamma * c)
        np.add(w, out, out=out)
        return np.divide(out, 1.0 + gamma * c, out=out)

    return ProxFunction(
        dim,
        evaluate=lambda x: 0.5 * c * float(np.dot(x - b, x - b)),
        prox=prox,
        conjugate_value=lambda u: float(np.dot(b, u)) + float(np.dot(u, u)) / (2.0 * c),
        domain=Domain.full(),
        kind="sq_l2",
        params={"weight": c, "center": b},
    )


def _build_l1(dim, weight=1.0):
    """weight * ||x||_1, prox = soft threshold"""
    c = float(weight)
    if c <= 0:
        raise ValueError("l1 weight must be positive")

    def prox(gamma, w):
        w = np.asarray(w, dtype=float)
        out = np.abs(w)
        np.subtract(out, gamma * c, out=out)
        np.maximum(out, 0.0, out=out)
        return np.multiply(np.sign(w), out, out=out)

    def conj(u):
        # indicator of the weight-radius sup-norm ball
        slack = INDICATOR_TOL * (1.0 + c)
        return 0.0 if float(np.max(np.abs(u), initial=0.0)) <= c + slack else math.inf

    return ProxFunction(
        dim,
        evaluate=lambda x: c * float(np.sum(np.abs(x))),
        prox=prox,
        conjugate_value=conj,
        domain=Domain.full(),
        kind="l1",
        params={"weight": c},
    )


def _build_box(dim, lo=0.0, hi=1.0):
    """indicator of the box [lo, hi]"""
    lo_v = _as_vec(lo, dim, "lo")
    hi_v = _as_vec(hi, dim, "hi")
    if np.any(lo_v > hi_v):
        raise ValueError("box is empty: lo exceeds hi in some coordinate")
    scale = 1.0 + float(np.max(np.abs(np.concatenate([lo_v, hi_v]))))

    def evaluate(x):
        slack = INDICATOR_TOL * scale
        inside = np.all(x >= lo_v - slack) and np.all(x <= hi_v + slack)
        return 0.0 if inside else math.inf

    return ProxFunction(
        dim,
        evaluate=evaluate,
        prox=lambda gamma, w: np.clip(w, lo_v, hi_v),
        conjugate_value=lambda u: float(np.sum(np.maximum(lo_v * u, hi_v * u))),
        domain=Domain.box(lo_v, hi_v),
        kind="box",
        params={"lo": lo_v, "hi": hi_v},
    )


def _build_point(dim, point=0.0):
    """indicator of a single point (default the origin)"""
    p = _as_vec(point, dim, "point")
    scale = 1.0 + float(np.max(np.abs(p)))

    def evaluate(x):
        slack = INDICATOR_TOL * scale
        return 0.0 if float(np.max(np.abs(x - p), initial=0.0)) <= slack else math.inf

    return ProxFunction(
        dim,
        evaluate=evaluate,
        prox=lambda gamma, w: p.copy(),
        conjugate_value=lambda u: float(np.dot(p, u)),
        domain=Domain.singleton(p),
        kind="point",
        params={"point": p},
    )


def _build_zero(dim):
    """the zero function, prox = identity (returns its input array)"""

    def conj(u):
        return 0.0 if float(np.max(np.abs(u), initial=0.0)) <= INDICATOR_TOL else math.inf

    return ProxFunction(
        dim,
        evaluate=lambda x: 0.0,
        prox=lambda gamma, w: np.asarray(w, dtype=float),
        conjugate_value=conj,
        domain=Domain.full(),
        kind="zero",
        params={},
    )


def _build_linear(dim, a=0.0):
    """<a, x>, prox shifts by -gamma a"""
    a_v = _as_vec(a, dim, "a")
    scale = 1.0 + float(np.max(np.abs(a_v)))

    def prox(gamma, w):
        out = np.multiply(a_v, gamma)
        return np.subtract(w, out, out=out)

    def conj(u):
        slack = INDICATOR_TOL * scale
        return 0.0 if float(np.max(np.abs(u - a_v), initial=0.0)) <= slack else math.inf

    return ProxFunction(
        dim,
        evaluate=lambda x: float(np.dot(a_v, x)),
        prox=prox,
        conjugate_value=conj,
        domain=Domain.full(),
        kind="linear",
        params={"a": a_v},
    )


def _build_l2(dim, weight=1.0):
    """weight * ||x||_2, prox = block soft threshold"""
    c = float(weight)
    if c <= 0:
        raise ValueError("l2 weight must be positive")

    def prox(gamma, w):
        w = np.asarray(w, dtype=float)
        nw = float(np.linalg.norm(w))
        if nw <= gamma * c:
            return np.zeros_like(w)
        return (1.0 - gamma * c / nw) * w

    def conj(u):
        slack = INDICATOR_TOL * (1.0 + c)
        return 0.0 if float(np.linalg.norm(u)) <= c + slack else math.inf

    return ProxFunction(
        dim,
        evaluate=lambda x: c * float(np.linalg.norm(x)),
        prox=prox,
        conjugate_value=conj,
        domain=Domain.full(),
        kind="l2",
        params={"weight": c},
    )


_CATALOG = {
    "sq_l2": _build_sq_l2,
    "l1": _build_l1,
    "box": _build_box,
    "point": _build_point,
    "zero": _build_zero,
    "linear": _build_linear,
    "l2": _build_l2,
}


# ---------------------------------------------------------------------------
# cocoercivity sampling


def check_cocoercive(T: CocoerciveOp, samples: int = 100, seed: int = 0) -> CocoercivityReport:
    """Sample the cocoercivity inequality of ``T`` on random pairs.

    Evaluates ``<x - y, Tx - Ty> - constant ||Tx - Ty||^2`` and reports
    the minimum margin; the verdict passes iff it is >= -1e-8.  An
    infinite constant is vacuously consistent only with a zero map.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(samples):
        x = rng.standard_normal(T.dim)
        y = rng.standard_normal(T.dim)
        dT = np.asarray(T.apply(x), dtype=float) - np.asarray(T.apply(y), dtype=float)
        sq = float(np.dot(dT, dT))
        if math.isinf(T.constant):
            margin = 0.0 if sq == 0.0 else -math.inf
        else:
            margin = float(np.dot(x - y, dT)) - T.constant * sq
        worst = min(worst, margin)
    return CocoercivityReport(passed=worst >= -1e-8, min_margin=worst,
                              samples=samples, constant=T.constant)
