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

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .spaces import _FLOAT, _check_count, _check_real, _check_vector

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
CLOSED_FORM_NORM_KINDS = frozenset({"identity", "diff1d", "grad2d", "matrix"})
#: ulps by which a closed-form norm computed in floating point is raised;
#: the computed diff1d and grad2d values lie up to 1.13 ulps below the
#: exact norm, so the raised hints are upper bounds
NORM_HINT_ULPS = 4
#: relative inflation of a norm computed by a floating-point algorithm
#: whose error is not bounded by a few ulps: a power-iteration estimate
#: (in :func:`splitsolve.solver.certified_norms`) or :func:`matrix_op`'s
#: singular value decomposition
NORM_SAFETY = 1.000001


def _norm(d: np.ndarray) -> float:
    """``np.linalg.norm(d)`` for a real float array ``d``: its own formula
    there (the square root of the dot of ``d.ravel(order="K")`` with
    itself), without its dispatch."""
    d = d.ravel(order="K")
    return math.sqrt(float(d.dot(d)))


def _scalar(value: float) -> np.ndarray:
    """``value`` as a 0-d float64 array, an operand the caller keeps to
    itself.  numpy converts a Python float operand on every ufunc call
    and a 0-d array not, and the results have the same bits.  (Making it
    read-only would cost four times what forming it does.)"""
    return np.array(value, dtype=float)


#: +0.0 as a shared read-only 0-d operand (see :func:`_scalar`)
_PLUS_ZERO = _scalar(0.0)
_PLUS_ZERO.flags.writeable = False


def _same(x, out):
    """The buffer form of the identity: ``x`` itself, ``out`` unwritten."""
    return x


def _same_at(gamma):
    """The buffer form of the identity at any step: :func:`_same`."""
    return _same


class _Form:
    """A library map with one implementation, a buffer form that writes
    into an array it is handed, which the step plan binds to its own
    buffers.  A call refuses an argument that is not a vector of real
    numbers of length ``shape[0]`` by ``name`` (``spaces._check_vector``),
    then hands the form a fresh output of length ``out_dim``, or none
    when ``out_dim`` is ``None`` (a form that returns its input).  With
    ``__slots__``, a ``functools.wraps`` wrapper does not inherit the
    form."""

    __slots__ = ("shape", "out_dim", "name")

    def __init__(self, in_dim: int, out_dim: Optional[int], name: str):
        self.shape, self.out_dim, self.name = (in_dim,), out_dim, name


class _MapForm(_Form):
    """A map ``x -> y`` given by ``into(x, out)``, which writes y into the
    float array ``out`` and returns it (a form with no ``out_dim``
    returns ``x``).  ``signless``: the map never returns -0.0 (proved for
    the ``diff1d`` and ``grad2d`` adjoints)."""

    __slots__ = ("into", "signless")

    def __init__(self, into, in_dim: int, out_dim: Optional[int], name: str,
                 signless: bool = False):
        super().__init__(in_dim, out_dim, name)
        self.into, self.signless = into, signless

    def __call__(self, x):
        # a float vector of the right length is let through inline: through
        # a helper method a call at n = 10 cost 1.7 us, inline 1.1 us
        if not (type(x) is np.ndarray and x.dtype is _FLOAT and x.shape == self.shape):
            x = _check_vector(f"{self.name} input", x, self.shape[0])
        return self.into(x, None if self.out_dim is None else np.empty(self.out_dim))


class _StepForm(_Form):
    """A map ``(gamma, w) -> y`` of a step gamma > 0 and a vector: a
    prox, a resolvent or a dual step.  ``at(gamma)`` binds the step once
    (its scalars as :func:`_scalar` operands, and any array the step
    alone decides) and returns the buffer form ``into(w, out)``, which
    writes y into ``out`` and returns it (a form with no ``out_dim``
    returns ``w``).  ``out`` may be ``w`` itself, except for the
    inverse-resolvent identity of :func:`_dual_step`.  A call keeps the
    last step it bound, as ``last = (gamma, into)``, and binds again
    only for another step: a caller such as a reference recursion calls
    at one step throughout.  The pair is replaced whole and ``into``
    writes nothing of its own, so concurrent calls stay correct."""

    __slots__ = ("at", "last")

    def __init__(self, at, dim: int, out_dim: Optional[int], name: str):
        super().__init__(dim, out_dim, name)
        self.at, self.last = at, None

    def __call__(self, gamma, w):
        if not (type(w) is np.ndarray and w.dtype is _FLOAT and w.shape == self.shape):
            w = _check_vector(f"{self.name} input", w, self.shape[0])
        last = self.last
        if last is None or last[0] != gamma:
            last = self.last = (gamma, self.at(gamma))
        return last[1](w, None if self.out_dim is None else np.empty(self.out_dim))


class _Zero:
    """The exact zero on ``dim`` entries, as a map or a dual step: any
    call returns one shared read-only zero array and writes nothing, so
    it is its own buffer form.  A run skips the passes that add or
    subtract it, and the dual argument it ignores."""

    __slots__ = ("zero",)

    def __init__(self, dim: int):
        _check_count("dim", dim)
        self.zero = np.zeros(dim)
        self.zero.flags.writeable = False

    def __call__(self, *args):
        return self.zero

    into = __call__


def _bound(fn) -> Callable:
    """The buffer form ``(x, out) -> fn(x)`` of a map: ``fn.into`` for a
    :class:`_MapForm` or :class:`_Zero`, else a call of ``fn`` that leaves
    ``out`` alone."""
    if isinstance(fn, (_MapForm, _Zero)):
        return fn.into
    return lambda x, out: fn(x)


def _at(fn, gamma: float) -> Callable:
    """The buffer form ``(w, out) -> fn(gamma, w)`` of a step map at the
    step ``gamma``: ``fn.at(gamma)`` for a :class:`_StepForm`, the exact
    zero's for a :class:`_Zero`, else a call of ``fn`` that leaves
    ``out`` alone.  ``gamma`` is not checked: a caller binds it once and
    hands it a positive one."""
    if isinstance(fn, _StepForm):
        return fn.at(gamma)
    if isinstance(fn, _Zero):
        return fn.into
    return lambda w, out: fn(gamma, w)


def _round_up(value: float) -> float:
    """``value`` raised by ``NORM_HINT_ULPS`` units in the last place."""
    for _ in range(NORM_HINT_ULPS):
        value = math.nextafter(value, math.inf)
    return value


@dataclass(frozen=True)
class LinearOp:
    """Bounded linear operator with adjoint.

    ``norm_hint`` is an upper bound on the operator norm, in [0, inf]
    (an infinite one fails certification, by block).  ``kind`` is
    ``"custom"`` unless a library constructor sets it; for the kinds in
    ``CLOSED_FORM_NORM_KINDS`` (``identity_op``, ``diff1d_op``,
    ``grad2d_op``, ``matrix_op``) the hint is an upper bound formed by
    the constructor: the closed-form norm, rounded up by
    ``NORM_HINT_ULPS`` ulps where it is not exact (the identity's 1.0
    is), or the matrix's 2-norm inflated by ``NORM_SAFETY``, and it is
    used as it is, like the ``kind`` tags of the catalog functions.  A
    custom hint is only a starting point: step certification still runs
    power iteration and repairs a hint below the true norm.

    The library constructors' ``apply`` and ``adjoint_apply`` are
    buffer forms (``operators._MapForm``): called, they refuse an input of
    the wrong length by name, and :func:`splitsolve.solver.run` binds
    their forms to its own buffers.  Any other callable, a wrapper
    around a form included, is called as it is.
    """

    in_dim: int
    out_dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    adjoint_apply: Callable[[np.ndarray], np.ndarray]
    norm_hint: Optional[float] = None
    kind: str = "custom"

    def __post_init__(self):
        _check_count("in_dim", self.in_dim)
        _check_count("out_dim", self.out_dim)
        if self.norm_hint is not None:
            _check_real("norm_hint", self.norm_hint, ends="[]")
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

    def __post_init__(self):
        _check_count("dim", self.dim)

    @staticmethod
    def zero(dim: int) -> "ResolventOp":
        """Resolvent of the zero operator (the identity map).  Its
        inverse is the normal cone of the origin, whose resolvent is
        exactly 0: ``inverse_resolvent`` returns one shared read-only
        zero array.  ``resolvent`` returns its input array."""
        return ResolventOp(dim, _StepForm(_same_at, dim, None, "zero resolvent"),
                           inverse_resolvent=_Zero(dim))


@dataclass(frozen=True)
class CocoerciveOp:
    """Single-valued map with a cocoercivity constant.

    ``constant = inf`` encodes the zero operator (or stronger); it keeps
    degenerate blocks out of the step-size bound.  :func:`splitsolve.solver.run`
    skips the library's exact zero (the ``apply`` of :meth:`zero`, and the
    lowered ``zero_smooth`` and ``dirac_term``, whatever their constant):
    adding or subtracting its +0 changes no bit.
    """

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    constant: float

    def __post_init__(self):
        _check_count("dim", self.dim)
        object.__setattr__(self, "constant", _check_real("constant", self.constant, ends="]]"))

    @staticmethod
    def zero(dim: int) -> "CocoerciveOp":
        """The zero map; every call returns one shared read-only array."""
        return CocoerciveOp(dim, _Zero(dim), math.inf)


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

    The ``l1``, ``zero``, ``sq_l2`` and ``box`` proxes and the ``l1`` and
    ``sq_l2`` conjugate proxes are buffer forms
    (``operators._StepForm``): called, they refuse a ``w`` of the wrong
    length by name, and :func:`splitsolve.solver.run` binds their forms
    at its steps, into its own buffers.
    """

    dim: int
    evaluate: Callable[[np.ndarray], float]
    prox: Callable[[float, np.ndarray], np.ndarray]
    conjugate_value: Optional[Callable[[np.ndarray], float]] = None
    conjugate_prox: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    domain: Optional[Domain] = None
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_count("dim", self.dim)


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
    return LinearOp(dim, dim, _MapForm(_same, dim, None, "identity apply"),
                    _MapForm(_same, dim, None, "identity adjoint"), norm_hint=1.0,
                    kind="identity")


def matrix_op(mat, norm_hint: Optional[float] = None) -> LinearOp:
    """Dense-matrix operator; adjoint is the transpose.

    The operator keeps a read-only copy of ``mat``, so the matrix it
    applies is the one its norm hint bounds.  The hint is an upper bound
    on ||M||_2 without power iteration (kind ``"matrix"``, used as it
    is): the largest singular value ``np.linalg.norm(M, 2)`` times
    ``NORM_SAFETY``.  A singular value decomposition rounds it by up to
    p(m, n) eps ||M||, with p growing with the size, so a few ulps would
    not cover it; 1e-6 does.  A ``norm_hint`` given here replaces the
    bound only when it is larger.  A matrix with a non-finite entry has
    the hint inf, and a zero matrix the hint 0, which norm certification
    refuses by block.
    """
    m = np.array(mat, dtype=float)
    if m.ndim != 2:
        raise ValueError("matrix_op expects a 2-D array")
    if 0 in m.shape:
        raise ValueError(f"matrix_op expects at least one row and one column, got shape {m.shape}")
    m.setflags(write=False)
    bound = float(np.linalg.norm(m, 2)) * NORM_SAFETY if np.isfinite(m).all() else math.inf
    if norm_hint is not None:
        bound = max(_check_real("norm_hint", norm_hint, ends="[]"), bound)
    return LinearOp(m.shape[1], m.shape[0], lambda x: m @ x, lambda y: m.T @ y,
                    norm_hint=bound, kind="matrix")


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
    _check_count("n", n, minimum=2)

    def apply_into(x, out):
        return np.subtract(x[1:], x[:-1], out=out)

    def adjoint_into(y, out):
        # 0.0 - y and a zero last entry reproduce np.zeros(n) -= y, signed
        # zeros included, without filling the output twice
        np.subtract(_PLUS_ZERO, y, out=out[:-1])
        out[-1] = 0.0
        tail = out[1:]
        np.add(tail, y, out=tail)
        return out

    return LinearOp(n, n - 1, _MapForm(apply_into, n, n - 1, "diff1d apply"),
                    _MapForm(adjoint_into, n - 1, n, "diff1d adjoint", signless=True),
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
    _check_count("rows", rows)
    _check_count("cols", cols)
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
        np.subtract(_PLUS_ZERO, dv, out=img[:-1, :])
        img[-1, :] = 0.0
        img[1:, :] += dv
        buf = np.empty(rows * cols + 1)
        buf[1:].reshape(rows, cols)[:, :-1] = y[n_v:].reshape(rows, cols - 1)
        buf[::cols] = 0.0
        out -= buf[1:]
        buf[::cols] = -0.0
        out += buf[:-1]
        return out

    hint = 2.0 * math.sqrt(
        math.sin((rows - 1) * math.pi / (2 * rows)) ** 2
        + math.sin((cols - 1) * math.pi / (2 * cols)) ** 2
    )
    n = rows * cols
    return LinearOp(n, n_v + n_h, _MapForm(apply_into, n, n_v + n_h, "grad2d apply"),
                    _MapForm(adjoint_into, n_v + n_h, n, "grad2d adjoint", signless=True),
                    norm_hint=_round_up(hint), kind="grad2d")


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
    _check_real("tol", tol)
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
    """Resolvent of the inverse operator, J_{sigma B^{-1}}(v), for sigma in ]0, inf[.

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
    return _dual_step(B)(_check_real("sigma", sigma), np.asarray(v, dtype=float))


def _dual_step(B: ResolventOp) -> Callable[[float, np.ndarray], np.ndarray]:
    """The map ``(sigma, v) -> J_{sigma B^{-1}}(v)`` of
    :func:`resolvent_of_inverse`, chosen once for ``B``: its
    ``inverse_resolvent`` itself when set, else the inverse-resolvent
    identity bound to ``B.resolvent`` as a :class:`_StepForm`, whose
    ``out`` must not be ``v``.  It does not check ``sigma``: a caller
    binds it once and hands it a positive one."""
    if B.inverse_resolvent is not None:
        return B.inverse_resolvent
    resolvent = B.resolvent

    def at(sigma):
        s = _scalar(sigma)
        resolve = _at(resolvent, 1.0 / sigma)

        def into(v, out):
            # v - sigma J_{B / sigma}(v / sigma), each pass into out, the
            # resolvent's in place; sigma * w and w * sigma have the same bits
            w = resolve(np.divide(v, s, out=out), out)
            return np.subtract(v, np.multiply(w, s, out=out), out=out)

        return into

    return _StepForm(at, B.dim, B.dim, "inverse resolvent")


def resolvent_from_prox(f: ProxFunction) -> ResolventOp:
    """Resolvent of the subdifferential of ``f`` (the prox map itself),
    with ``f``'s closed-form conjugate prox, if any, as the resolvent of
    the inverse."""
    return ResolventOp(f.dim, f.prox, inverse_resolvent=f.conjugate_prox)


# ---------------------------------------------------------------------------
# prox catalog


def catalog_prox(kind: str, dim: int, **params) -> ProxFunction:
    """Build a catalog function with a closed-form prox.

    Kinds: ``sq_l2`` (weight, center), ``l1`` (weight), ``box`` (lo,
    hi), ``point`` (point), ``zero``, ``linear`` (a), ``l2`` (weight).
    An unknown kind or parameter is refused with a ``ValueError``.
    """
    _check_count("dim", dim)
    builder = _CATALOG.get(kind)
    if builder is None:
        raise ValueError(f"unknown prox kind {kind!r}; known: {sorted(_CATALOG)}")
    known = _CATALOG_PARAMS[kind]
    if params.keys() - known:
        raise ValueError(f"{kind}: unknown parameters {sorted(params.keys() - known)}; known: {known}")
    return builder(dim, **params)


def _build_sq_l2(dim, weight=1.0, center=0.0):
    """(weight/2) ||x - center||^2"""
    c = _check_real("sq_l2 weight", weight)
    b = _check_vector("center", center, dim, scalar=True, finite=True)

    def prox_at(gamma):
        # (w + gamma c b) / (1 + gamma c), with gamma c b formed once
        shift, scale = np.multiply(b, gamma * c), _scalar(1.0 + gamma * c)

        def into(w, out):
            np.add(w, shift, out=out)
            return np.divide(out, scale, out=out)

        return into

    def conj_prox_at(sigma):
        # f*(u) = <b, u> + ||u||^2 / (2c): (u - sigma b) / (1 + sigma / c)
        shift, scale = np.multiply(b, sigma), _scalar(1.0 + sigma / c)

        def into(u, out):
            np.subtract(u, shift, out=out)
            return np.divide(out, scale, out=out)

        return into

    return ProxFunction(
        dim,
        evaluate=lambda x: 0.5 * c * float((x - b).dot(x - b)),
        prox=_StepForm(prox_at, dim, dim, "sq_l2 prox"),
        conjugate_value=lambda u: float(b.dot(u)) + float(u.dot(u)) / (2.0 * c),
        conjugate_prox=_StepForm(conj_prox_at, dim, dim, "sq_l2 conjugate prox"),
        domain=Domain.full(),
        kind="sq_l2",
        params={"weight": c, "center": b},
    )


def _build_l1(dim, weight=1.0):
    """weight * ||x||_1, prox = soft threshold"""
    c = _check_real("l1 weight", weight)

    def prox_at(gamma):
        threshold = _scalar(gamma * c)

        def into(w, out):
            # sign(w) * max(|w| - gamma c, 0).  The sign is taken first, as
            # out may be w; it is the one array a call allocates, since
            # np.sign maps -0 to +0 and no pass over out alone does that
            # (copysign keeps -0)
            sign = np.sign(w)
            np.abs(w, out=out)
            np.subtract(out, threshold, out=out)
            np.maximum(out, _PLUS_ZERO, out=out)
            return np.multiply(sign, out, out=out)

        return into

    def conj(u):
        # indicator of the weight-radius sup-norm ball
        slack = INDICATOR_TOL * (1.0 + c)
        return 0.0 if float(np.max(np.abs(u), initial=0.0)) <= c + slack else math.inf

    lower, upper = _scalar(-c), _scalar(c)

    def conj_prox_into(u, out):
        # projection onto the conjugate's weight-radius sup-norm ball,
        # clip(u, -c, c) as numpy's clip ufunc forms it for floats,
        # min(max(u, -c), c) with a NaN u passed on, in its two public
        # ufuncs: ndarray.clip runs numpy's Python-level _clip first
        return np.minimum(np.maximum(u, lower, out=out), upper, out=out)

    return ProxFunction(
        dim,
        evaluate=lambda x: c * float(np.sum(np.abs(x))),
        prox=_StepForm(prox_at, dim, dim, "l1 prox"),
        conjugate_value=conj,
        conjugate_prox=_StepForm(lambda sigma: conj_prox_into, dim, dim,
                                 "l1 conjugate prox"),
        domain=Domain.full(),
        kind="l1",
        params={"weight": c},
    )


def _build_box(dim, lo=0.0, hi=1.0):
    """indicator of the box [lo, hi]"""
    lo_v = _check_vector("lo", lo, dim, scalar=True)
    hi_v = _check_vector("hi", hi, dim, scalar=True)
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

    def clip_into(w, out):
        # the projection clip(w, lo, hi), formed as the l1 conjugate
        # prox forms its clip
        return np.minimum(np.maximum(w, lo_v, out=out), hi_v, out=out)

    return ProxFunction(
        dim,
        evaluate=evaluate,
        prox=_StepForm(lambda gamma: clip_into, dim, dim, "box prox"),
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
    p = _check_vector("point", point, dim, scalar=True, finite=True)
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
        prox=_StepForm(_same_at, dim, None, "zero prox"),
        conjugate_value=conj,
        conjugate_prox=_Zero(dim),
        domain=Domain.full(),
        kind="zero",
        params={},
    )


def _build_linear(dim, a=0.0):
    """<a, x>, prox shifts by -gamma a"""
    a_v = _check_vector("a", a, dim, scalar=True, finite=True)
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
    c = _check_real("l2 weight", weight)

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
#: each kind's parameters, read from its builder's signature after ``dim``
_CATALOG_PARAMS = {kind: list(inspect.signature(build).parameters)[1:]
                   for kind, build in _CATALOG.items()}
