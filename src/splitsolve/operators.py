"""Operator algebra for the splitting solver.

Four operator representations are used throughout:

* :class:`LinearOp` -- a bounded linear map with its adjoint, an
  optional upper bound on its norm, and a ``kind`` tag that marks the
  library's operators whose bound is the exact closed-form norm,
* :class:`ResolventOp` -- a maximally monotone operator represented by
  its resolvent ``(gamma, w) -> J_{gamma A}(w)``, optionally with the
  resolvent of its inverse in closed form,
* :class:`CocoerciveOp` -- a single-valued map together with its
  cocoercivity constant (``inf`` encodes the zero map or stronger),
* :class:`ProxFunction` -- a proper convex function with an exact
  proximity operator, optionally carrying its conjugate's value and
  prox in closed form and an effective-domain description.

The module also provides power-iteration norm estimation (for operators
without a closed-form norm), the resolvent of an inverse (closed form
when known, else the inverse-resolvent identity, which for a prox is
the Moreau decomposition), and a closed-form prox catalog.
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
    "NORM_HINT_ULPS",
    "identity_op",
    "matrix_op",
    "diff1d_op",
    "grad2d_op",
    "estimate_norm",
    "resolvent_of_inverse",
    "CATALOG_KINDS",
    "catalog_prox",
    "resolvent_from_prox",
]

#: feasibility slack used when evaluating indicator-type functions
INDICATOR_TOL = 1e-9
#: ``LinearOp.kind`` tags whose ``norm_hint`` is a closed-form upper bound
#: on the operator norm
CLOSED_FORM_NORM_KINDS = frozenset({"identity", "diff1d", "grad2d"})
#: ulps by which a closed-form norm computed in floating point is raised;
#: the computed diff1d and grad2d values lie up to 1.13 ulps below the
#: exact norm, so the raised hints are upper bounds
NORM_HINT_ULPS = 4


def _read_only_zeros(dim: int) -> np.ndarray:
    """A zero vector that cannot be written, for zero maps to share."""
    zero = np.zeros(dim)
    zero.flags.writeable = False
    return zero


def _norm(d: np.ndarray) -> float:
    """``np.linalg.norm(d)`` for a real float array ``d``: its own formula
    there (the square root of the dot of ``d.ravel(order="K")`` with
    itself), without its dispatch."""
    d = d.ravel(order="K")
    return math.sqrt(float(d.dot(d)))


def _vector(x, dim: int, name: str) -> np.ndarray:
    """``x`` as a float array, refused with a ``ValueError`` that names
    the operator ``name`` unless it is a vector of length ``dim``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"{name} takes a vector of length {dim}, got shape {x.shape}")
    return x


def _same(x, out):
    """The buffer form of the identity: ``x`` itself, ``out`` unwritten."""
    return x


def _linear_into(fn) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The buffer form ``(x, out) -> L x`` of a ``LinearOp.apply`` or
    ``adjoint_apply``: ``fn.into`` for the library kinds, which writes
    into the contiguous float array ``out`` (or, for the identity,
    returns ``x``), and for any other operator a call of ``fn(x)`` that
    leaves ``out`` alone."""
    into = getattr(fn, "into", None)
    return into if into is not None else (lambda x, out: fn(x))


def _round_up(value: float) -> float:
    """``value`` raised by ``NORM_HINT_ULPS`` units in the last place."""
    for _ in range(NORM_HINT_ULPS):
        value = math.nextafter(value, math.inf)
    return value


@dataclass(frozen=True)
class LinearOp:
    """Bounded linear operator with adjoint.

    ``norm_hint`` is an upper bound on the operator norm.  ``kind`` is
    ``"custom"`` unless a library constructor sets it; for the kinds in
    ``CLOSED_FORM_NORM_KINDS`` (``identity_op``, ``diff1d_op``,
    ``grad2d_op``) the hint is the closed-form norm, rounded up by
    ``NORM_HINT_ULPS`` ulps where it is not exact (the identity's 1.0
    is), so it is a strict upper bound and is used as it is, like the
    ``kind`` tags of the catalog functions.  A custom hint is only a
    starting point: step certification still runs power iteration and
    repairs a hint below the true norm.

    The library constructors' ``apply`` and ``adjoint_apply`` refuse an
    input of the wrong length by name, and each carries its buffer form
    as ``.into(x, out)``, which it calls on a fresh array: the step plan
    of :func:`splitsolve.solver.run` binds that form to its own buffers.
    Any other callable is called as it is.
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
    ``inverse_resolvent(sigma, w)``, when set, returns
    ``J_{sigma A^{-1}}(w)`` in closed form; :func:`resolvent_from_prox`
    sets it from the catalog's conjugate prox, :meth:`zero` sets it to
    the exact 0, and :func:`resolvent_of_inverse` prefers it to the
    inverse-resolvent identity.  Like ``resolvent`` it may return its input array but
    must not keep it, and callers must not write into what it returns.
    """

    dim: int
    resolvent: Callable[[float, np.ndarray], np.ndarray]
    inverse_resolvent: Optional[Callable[[float, np.ndarray], np.ndarray]] = None

    @staticmethod
    def zero(dim: int) -> "ResolventOp":
        """Resolvent of the zero operator (the identity map).  Its
        inverse is the normal cone of the origin, whose resolvent is
        exactly 0: ``inverse_resolvent`` returns one shared read-only
        zero array."""
        return ResolventOp(dim, lambda gamma, w: np.asarray(w, dtype=float),
                           inverse_resolvent=_ExactZero(dim))


class _ExactZero:
    """The exact-zero dual step ``(sigma, u) -> 0``: the inverse
    resolvent of :meth:`ResolventOp.zero` and the conjugate prox of the
    ``zero`` catalog function.  Every call returns one shared read-only
    zero array, and so does its buffer form ``into(sigma, u, out)``,
    which writes nothing; the step plan of :func:`splitsolve.solver.run`
    recognises it and skips the dual argument it would ignore."""

    __slots__ = ("zero",)

    def __init__(self, dim: int):
        self.zero = _read_only_zeros(dim)

    def __call__(self, sigma, u):
        return self.zero

    def into(self, sigma, u, out):
        return self.zero


@dataclass(frozen=True)
class CocoerciveOp:
    """Single-valued map with a cocoercivity constant.

    ``constant = inf`` encodes the zero operator (or stronger); it keeps
    degenerate blocks out of the step-size bound.  ``kind`` is
    ``"custom"`` unless a library constructor sets it: ``"zero"`` marks
    the library zero map (:meth:`zero`, and the lowered ``zero_smooth``
    and ``dirac_term``), whose ``apply`` returns +0.0 everywhere, so
    :func:`splitsolve.solver.run` skips its application (adding or
    subtracting +0 there changes no bit).  A ``"zero"`` kind needs
    ``constant = inf``.
    """

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    constant: float
    kind: str = "custom"

    def __post_init__(self):
        if not self.constant > 0:
            raise ValueError("cocoercivity constant must be strictly positive")
        if self.kind == "zero" and not math.isinf(self.constant):
            raise ValueError("a zero map has cocoercivity constant inf, "
                             f"got {self.constant!r}")

    @staticmethod
    def zero(dim: int) -> "CocoerciveOp":
        """The zero map; every call returns one shared read-only array."""
        zero = _read_only_zeros(dim)
        return CocoerciveOp(dim, lambda v: zero, math.inf, kind="zero")


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
    form is known (used for duality-gap reporting).
    ``conjugate_prox(sigma, u)`` returns ``prox_{sigma f*}(u)`` in
    closed form; every catalog kind but ``box`` sets it, and without it
    the Moreau decomposition is used.  ``domain`` describes the
    effective domain for qualification checking; ``None`` means
    unknown.
    """

    dim: int
    evaluate: Callable[[np.ndarray], float]
    prox: Callable[[float, np.ndarray], np.ndarray]
    conjugate_value: Optional[Callable[[np.ndarray], float]] = None
    conjugate_prox: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    domain: Optional[Domain] = None
    kind: str = "custom"
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class NormEstimate:
    """Result of :func:`estimate_norm`; ``converged`` is the warning flag."""

    value: float
    iterations: int
    converged: bool


# ---------------------------------------------------------------------------
# linear-operator constructors


def identity_op(dim: int) -> LinearOp:
    """The identity; apply and adjoint return their input array, and
    so does their buffer form."""

    def apply(x):
        return _vector(x, dim, "identity apply")

    def adjoint(y):
        return _vector(y, dim, "identity adjoint")

    apply.into = adjoint.into = _same
    return LinearOp(dim, dim, apply, adjoint, norm_hint=1.0, kind="identity")


def matrix_op(mat, norm_hint: Optional[float] = None) -> LinearOp:
    """Dense-matrix operator; adjoint is the transpose."""
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2:
        raise ValueError("matrix_op expects a 2-D array")
    return LinearOp(m.shape[1], m.shape[0], lambda x: m @ x, lambda y: m.T @ y,
                    norm_hint=norm_hint)


#: library kinds whose adjoint never returns -0.0, so that adding +0.0 to
#: it changes no bit (proved at :func:`diff1d_op` and :func:`grad2d_op`)
NO_NEGATIVE_ZERO_ADJOINT_KINDS = frozenset({"diff1d", "grad2d"})


def diff1d_op(n: int) -> LinearOp:
    """Forward-difference operator R^n -> R^(n-1), x -> (x_{k+1} - x_k).

    Its largest singular value is 2 sin((n-1) pi / (2n)); the norm hint
    is that value rounded up.

    The adjoint never returns -0.0.  In round-to-nearest a - b is -0
    only for a = -0 and b = +0, and a + b only when both are -0.  Entry
    k < n - 1 first holds 0.0 - y_k, which is never -0 (its first
    operand is +0), and the last entry is +0.0; adding y_{k-1} to an
    entry that is not -0 leaves it not -0.
    """
    if n < 2:
        raise ValueError("diff1d needs n >= 2")

    def apply_into(x, out):
        return np.subtract(x[1:], x[:-1], out=out)

    def adjoint_into(y, out):
        # 0.0 - y and a zero last entry reproduce np.zeros(n) -= y, signed
        # zeros included, without filling the output twice
        np.subtract(0.0, y, out=out[:-1])
        out[-1] = 0.0
        tail = out[1:]
        np.add(tail, y, out=tail)
        return out

    def apply(x):
        return apply_into(_vector(x, n, "diff1d apply"), np.empty(n - 1))

    def adjoint(y):
        return adjoint_into(_vector(y, n - 1, "diff1d adjoint"), np.empty(n))

    apply.into, adjoint.into = apply_into, adjoint_into
    return LinearOp(n, n - 1, apply, adjoint,
                    norm_hint=_round_up(2.0 * math.sin((n - 1) * math.pi / (2 * n))),
                    kind="diff1d")


def grad2d_op(rows: int, cols: int) -> LinearOp:
    """Discrete gradient of a rows x cols image (row-major flattening).

    Stacks vertical differences ((rows-1) * cols values) above
    horizontal differences (rows * (cols-1) values).  The norm hint is
    the closed-form norm 2 sqrt(sin^2((rows-1) pi / (2 rows)) +
    sin^2((cols-1) pi / (2 cols))) rounded up.  The adjoint adds the
    horizontal differences in flat passes over a padded copy, with the
    bits of the 2-D column updates (see the comment in ``adjoint_into``).

    The adjoint never returns -0.0: the vertical passes leave no -0, as
    in :func:`diff1d_op`, and then subtracting (a - b is -0 only for
    a = -0) and adding (a + b is -0 only when both are) cannot make one.
    """
    if rows < 2 or cols < 2:
        raise ValueError("grad2d needs rows >= 2 and cols >= 2")
    n_v = (rows - 1) * cols
    n_h = rows * (cols - 1)

    def apply_into(x, out):
        img = x.reshape(rows, cols)
        np.subtract(img[1:, :], img[:-1, :], out=out[:n_v].reshape(rows - 1, cols))
        np.subtract(img[:, 1:], img[:, :-1], out=out[n_v:].reshape(rows, cols - 1))
        return out

    def adjoint_into(y, out):
        # per entry: -dv, + dv, then - dh and + dh as the strided 2-D
        # updates out[:, :-1] -= dh; out[:, 1:] += dh would do, taken
        # flat through buf = (z, dh row 0, z, dh row 1, ..., z) of length
        # rows * cols + 1: buf[1:] lines dh up with out[:, :-1] and
        # buf[:-1] with out[:, 1:].  Each z meets the column the update
        # leaves out and changes no bit, signed zeros included: it is +0
        # for the subtraction (x - (+0) = x) and -0 for the addition
        # (x + (-0) = x)
        dv = y[:n_v].reshape(rows - 1, cols)
        img = out.reshape(rows, cols)
        np.subtract(0.0, dv, out=img[:-1, :])
        img[-1, :] = 0.0
        img[1:, :] += dv
        buf = np.empty(rows * cols + 1)
        buf[1:].reshape(rows, cols)[:, :-1] = y[n_v:].reshape(rows, cols - 1)
        buf[::cols] = 0.0
        out -= buf[1:]
        buf[::cols] = -0.0
        out += buf[:-1]
        return out

    def apply(x):
        return apply_into(_vector(x, rows * cols, "grad2d apply"), np.empty(n_v + n_h))

    def adjoint(y):
        return adjoint_into(_vector(y, n_v + n_h, "grad2d adjoint"), np.empty(rows * cols))

    apply.into, adjoint.into = apply_into, adjoint_into
    hint = 2.0 * math.sqrt(
        math.sin((rows - 1) * math.pi / (2 * rows)) ** 2
        + math.sin((cols - 1) * math.pi / (2 * cols)) ** 2
    )
    return LinearOp(rows * cols, n_v + n_h, apply, adjoint, norm_hint=_round_up(hint),
                    kind="grad2d")


def _check_count(name: str, value, minimum: int = 1) -> None:
    """Refuse a count that is a ``bool``, is not an integer (Python or
    numpy), or is below ``minimum``, naming the argument."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


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
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    _check_count("max_iter", max_iter)
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
            lam = float(x.dot(w))
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
# resolvent of an inverse


def resolvent_of_inverse(B: ResolventOp, sigma: float, v: np.ndarray) -> np.ndarray:
    """Resolvent of the inverse operator, J_{sigma B^{-1}}(v).

    Returns ``B.inverse_resolvent(sigma, v)`` when ``B`` has one, and
    otherwise uses the inverse-resolvent identity
    ``J_{sigma B^{-1}}(v) = v - sigma J_{B / sigma}(v / sigma)``,
    which is exact for any maximally monotone ``B``.  For
    ``B = resolvent_from_prox(g)`` this is the conjugate prox
    ``prox_{sigma g*}(v)``: the catalog's closed form, or else the
    Moreau decomposition ``v - sigma prox_{g/sigma}(v/sigma)``.  The
    result may be ``v`` itself or an array ``B`` keeps; do not write
    into it.
    """
    if sigma <= 0:
        raise ValueError("sigma must be strictly positive")
    return _dual_step(B)(sigma, np.asarray(v, dtype=float))


def _dual_step(B: ResolventOp) -> Callable[[float, np.ndarray], np.ndarray]:
    """The map ``(sigma, v) -> J_{sigma B^{-1}}(v)`` of
    :func:`resolvent_of_inverse`, chosen once for ``B``: its
    ``inverse_resolvent`` itself when set, else the inverse-resolvent
    identity bound to ``B.resolvent``, whose buffer form
    ``.into(sigma, v, out)`` forms it in ``out`` (an array other than
    ``v``).  It neither checks ``sigma`` nor converts ``v``, so a caller
    binds it once and hands it a positive sigma and a float array on
    every call."""
    if B.inverse_resolvent is not None:
        return B.inverse_resolvent
    resolvent = B.resolvent

    def into(sigma, v, out):
        # v - sigma J_{B / sigma}(v / sigma), each pass into out; sigma * w
        # and w * sigma have the same bits
        w = resolvent(1.0 / sigma, np.divide(v, sigma, out=out))
        return np.subtract(v, np.multiply(w, sigma, out=out), out=out)

    def identity(sigma, v):
        return into(sigma, v, np.empty(v.shape))

    identity.into = into
    return identity


def _dual_into(step) -> Callable[[float, np.ndarray, np.ndarray], np.ndarray]:
    """The buffer form ``(sigma, u, out) -> step(sigma, u)`` of a dual
    step of :func:`_dual_step`: ``step.into`` for the inverse-resolvent
    identity, the catalog's ``l1`` clip and the exact zero, and for any
    other step a call of ``step`` that leaves ``out`` alone."""
    into = getattr(step, "into", None)
    return into if into is not None else (lambda sigma, u, out: step(sigma, u))


def resolvent_from_prox(f: ProxFunction) -> ResolventOp:
    """Resolvent of the subdifferential of ``f`` (the prox map itself),
    with ``f``'s closed-form conjugate prox, if any, as the resolvent of
    the inverse."""
    return ResolventOp(f.dim, f.prox, inverse_resolvent=f.conjugate_prox)


# ---------------------------------------------------------------------------
# prox catalog


def _as_vec(value, dim: int, name: str, finite: bool = True) -> np.ndarray:
    """``value`` as a length-``dim`` vector; its entries must be finite
    unless ``finite`` is false."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(dim, float(arr))
    elif arr.shape != (dim,):
        raise ValueError(f"{name} must be a scalar or a vector of length {dim}")
    if finite and not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _weight(value, kind: str) -> float:
    c = float(value)
    if c <= 0:
        raise ValueError(f"{kind} weight must be positive")
    if not math.isfinite(c):
        raise ValueError(f"{kind} weight must be finite, got {c!r}")
    return c


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
    c = _weight(weight, "sq_l2")
    b = _as_vec(center, dim, "center")

    def prox(gamma, w):
        out = np.multiply(b, gamma * c)
        np.add(w, out, out=out)
        return np.divide(out, 1.0 + gamma * c, out=out)

    def conj_prox(sigma, u):
        # f*(u) = <b, u> + ||u||^2 / (2c)
        out = np.multiply(b, sigma)
        np.subtract(u, out, out=out)
        return np.divide(out, 1.0 + sigma / c, out=out)

    return ProxFunction(
        dim,
        evaluate=lambda x: 0.5 * c * float((x - b).dot(x - b)),
        prox=prox,
        conjugate_value=lambda u: float(b.dot(u)) + float(u.dot(u)) / (2.0 * c),
        conjugate_prox=conj_prox,
        domain=Domain.full(),
        kind="sq_l2",
        params={"weight": c, "center": b},
    )


def _build_l1(dim, weight=1.0):
    """weight * ||x||_1, prox = soft threshold"""
    c = _weight(weight, "l1")

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

    def conj_prox_into(sigma, u, out):
        # projection onto the conjugate's weight-radius sup-norm ball,
        # clip(u, -c, c) as numpy's clip ufunc forms it for floats,
        # min(max(u, -c), c) with a NaN u passed on, in its two public
        # ufuncs: ndarray.clip runs numpy's Python-level _clip first
        return np.minimum(np.maximum(u, -c, out=out), c, out=out)

    def conj_prox(sigma, u):
        u = np.asarray(u, dtype=float)
        return conj_prox_into(sigma, u, np.empty(u.shape))

    conj_prox.into = conj_prox_into
    return ProxFunction(
        dim,
        evaluate=lambda x: c * float(np.sum(np.abs(x))),
        prox=prox,
        conjugate_value=conj,
        conjugate_prox=conj_prox,
        domain=Domain.full(),
        kind="l1",
        params={"weight": c},
    )


def _build_box(dim, lo=0.0, hi=1.0):
    """indicator of the box [lo, hi]"""
    lo_v = _as_vec(lo, dim, "lo", finite=False)
    hi_v = _as_vec(hi, dim, "hi", finite=False)
    if np.any(lo_v > hi_v):
        raise ValueError("box is empty: lo exceeds hi in some coordinate")
    # a side may be open; NaN compares false both ways
    if not (lo_v < math.inf).all():
        raise ValueError("lo must be finite or -inf")
    if not (hi_v > -math.inf).all():
        raise ValueError("hi must be finite or +inf")
    scale = 1.0 + float(np.max(np.abs(np.concatenate([lo_v, hi_v]))))

    def evaluate(x):
        slack = INDICATOR_TOL * scale
        inside = np.all(x >= lo_v - slack) and np.all(x <= hi_v + slack)
        return 0.0 if inside else math.inf

    return ProxFunction(
        dim,
        evaluate=evaluate,
        prox=lambda gamma, w: np.asarray(w, dtype=float).clip(lo_v, hi_v),
        conjugate_value=lambda u: float(np.sum(np.maximum(lo_v * u, hi_v * u))),
        # no conjugate_prox: the closed form u - sigma clip(u / sigma, lo, hi)
        # is the Moreau decomposition itself, and u - clip(u, sigma lo,
        # sigma hi) saves the divide but adds two products, so nothing
        # cheaper than the fallback exists
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
        conjugate_value=lambda u: float(p.dot(u)),
        conjugate_prox=lambda sigma, u: np.subtract(u, np.multiply(p, sigma)),
        domain=Domain.singleton(p),
        kind="point",
        params={"point": p},
    )


def _build_zero(dim):
    """the zero function, prox = identity (returns its input array)"""

    def conj(u):
        return 0.0 if float(np.max(np.abs(u), initial=0.0)) <= INDICATOR_TOL else math.inf

    # the conjugate is the indicator of the origin
    return ProxFunction(
        dim,
        evaluate=lambda x: 0.0,
        prox=lambda gamma, w: np.asarray(w, dtype=float),
        conjugate_value=conj,
        conjugate_prox=_ExactZero(dim),
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
        evaluate=lambda x: float(a_v.dot(x)),
        prox=prox,
        conjugate_value=conj,
        # the conjugate is the indicator of the point a
        conjugate_prox=lambda sigma, u: a_v.copy(),
        domain=Domain.full(),
        kind="linear",
        params={"a": a_v},
    )


def _build_l2(dim, weight=1.0):
    """weight * ||x||_2, prox = block soft threshold"""
    c = _weight(weight, "l2")

    def prox(gamma, w):
        w = np.asarray(w, dtype=float)
        nw = _norm(w)
        if nw <= gamma * c:
            return np.zeros_like(w)
        return (1.0 - gamma * c / nw) * w

    def conj(u):
        slack = INDICATOR_TOL * (1.0 + c)
        return 0.0 if float(np.linalg.norm(u)) <= c + slack else math.inf

    def conj_prox(sigma, u):
        # projection onto the conjugate's weight-radius ball
        u = np.asarray(u, dtype=float)
        nu = _norm(u)
        return u if nu <= c else np.multiply(u, c / nu)

    return ProxFunction(
        dim,
        evaluate=lambda x: c * float(np.linalg.norm(x)),
        prox=prox,
        conjugate_value=conj,
        conjugate_prox=conj_prox,
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
#: the kinds :func:`catalog_prox` builds
CATALOG_KINDS = frozenset(_CATALOG)
