"""Flat product-space arrays over a primal space and weighted dual blocks.

The solver state lives in H x G_1 x ... x G_m, where H and the G_i are
real coordinate spaces.  A point (x, v_1, ..., v_m) of that space is
stored as one contiguous float array of length ``layout.size``, primal
entries first, and :meth:`SpaceLayout.split` returns views of its
blocks.  Each dual block G_i carries a weight w_i in ]0, 1] (the
weights sum to one).  The weights enter the inner product of the
product space, not the stored data: user-facing per-block reporting
uses plain Euclidean norms, while the solver's norms weigh block i by
w_i.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "ShapeMismatchError",
    "SpaceLayout",
]

WEIGHT_SUM_TOL = 1e-12


def _check_count(name: str, value, minimum: int = 1):
    """``value``, refused by name if it is a ``bool``, is not an integer
    (Python or numpy), or is below ``minimum``; :func:`_check_real` is
    its counterpart for real numbers."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _check_real(name: str, value, low: float = 0.0, high: float = math.inf,
                ends: str = "][") -> float:
    """``value`` as a float, refused by name if it is a ``bool``, not a
    real number (Python or numpy), or NaN or outside the interval from
    ``low`` to ``high`` with brackets ``ends``: ``"]["`` open, ``"[]"`` closed.
    A real beyond the float range (an ``int`` such as ``10**400``) is
    refused by name too."""
    # a float is let through first: the ABC check costs about 1 us a call
    if type(value) is not float and (isinstance(value, bool)
                                     or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        # its repr may hold thousands of digits, or raise past int's limit
        raise ValueError(f"{name} must be a real number in the float range, "
                         f"got one beyond it ({type(value).__name__})") from None
    if not ((low <= x if ends[0] == "[" else low < x)
            and (x <= high if ends[1] == "]" else x < high)):
        raise ValueError(f"{name} must lie in {ends[0]}{low:g}, {high:g}{ends[1]}, got {x!r}")
    return x


class ShapeMismatchError(ValueError):
    """The vector ``block`` names has shape ``got``, not ``expected = (dim,)``."""

    def __init__(self, block, expected, got):
        self.block = block
        self.expected = tuple(expected)
        self.got = tuple(got)
        super().__init__(
            f"{block} must be a vector of length {self.expected[0]}, got shape {self.got}")


_FLOAT = np.dtype(float)


def _check_vector(name: str, value, dim: Optional[int] = None, scalar: bool = False,
                  finite: bool = False, index: Optional[int] = None) -> np.ndarray:
    """``value`` as a float array of shape ``(dim,)`` (not copied if it
    is one), refused by ``name`` (``name[index]`` given an ``index``):
    a string or a value numpy cannot read as reals with a ``ValueError``,
    another shape with :class:`ShapeMismatchError`.  ``dim=None`` takes
    any shape, ``scalar`` fills a vector with a 0-d value, and
    ``finite`` refuses a NaN or infinite entry."""
    # a float vector of the right length is let through first: a run
    # checks its error terms on every row
    if (type(value) is np.ndarray and value.dtype is _FLOAT and not finite
            and (dim is None or value.shape == (dim,))):
        return value
    if index is not None:
        name = f"{name}[{index}]"
    try:
        if isinstance(value, (str, bytes)):
            raise TypeError
        value = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a vector of real numbers, "
                         f"got {reprlib.repr(value)}") from None
    if dim is not None and value.shape != (dim,):
        if not (scalar and value.ndim == 0):
            raise ShapeMismatchError(name, (dim,), value.shape)
        value = np.full(dim, value[()])
    if finite and not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite")
    return value


def _check_dim(name: str, dim: int, expected: int) -> None:
    """Refuse the operator or term ``name`` by name unless it acts on
    vectors of length ``expected``, the length of its space."""
    if dim != expected:
        raise ValueError(f"{name} must act on length {expected}, got {dim}")


def _check_blocks(name: str, seq, m: int) -> None:
    """Refuse ``seq`` by name unless it holds one entry per each of ``m`` blocks."""
    if len(seq) != m:
        raise ValueError(f"{name} must hold one entry per dual block: expected {m}, "
                         f"got {len(seq)}")


@dataclass(frozen=True)
class SpaceLayout:
    """Dimensions of H and the G_i (integers >= 1), plus the dual-block weights."""

    dim_primal: int
    dual_dims: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        _check_count("dim_primal", self.dim_primal)
        dims = tuple(self.dual_dims)
        for i, d in enumerate(dims):
            _check_count(f"dual_dims[{i}]", d)
        object.__setattr__(self, "dual_dims", tuple(int(d) for d in dims))
        object.__setattr__(self, "weights", tuple(
            _check_real(f"weights[{i}]", w, high=1.0, ends="]]")
            for i, w in enumerate(self.weights)))
        if len(self.dual_dims) < 1:
            raise ValueError("at least one dual block is required")
        _check_blocks("weights", self.weights, len(self.dual_dims))
        if abs(math.fsum(self.weights) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(
                f"weights must sum to 1 within {WEIGHT_SUM_TOL:g} "
                f"(got {math.fsum(self.weights)!r})"
            )

    @property
    def num_blocks(self) -> int:
        return len(self.dual_dims)

    @property
    def size(self) -> int:
        """Length of the flat array holding one point of the product space."""
        return self.dim_primal + sum(self.dual_dims)

    def split(self, u: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Views ``(x, (v_1, ..., v_m))`` of the blocks of the flat array
        ``u``, as :func:`_check_vector` reads it (a float array is not copied)."""
        u = _check_vector("u", u, self.size)
        start = self.dim_primal
        duals = []
        for d in self.dual_dims:
            duals.append(u[start:start + d])
            start += d
        return u[:self.dim_primal], tuple(duals)

    def check_coupling(self, z, blocks) -> np.ndarray:
        """``z`` as a float vector of H; ``z``, the count of ``blocks``,
        each block's ``L`` (from H to its G_i) and its offset ``r`` (in
        G_i) are refused by name unless they fit the layout."""
        z = _check_vector("z", z, self.dim_primal)
        _check_blocks("blocks", blocks, self.num_blocks)
        for i, (blk, d) in enumerate(zip(blocks, self.dual_dims)):
            if blk.L.in_dim != self.dim_primal or blk.L.out_dim != d:
                raise ValueError(f"block {i}: L must map length {self.dim_primal} to {d}, "
                                 f"got {blk.L.in_dim} to {blk.L.out_dim}")
            _check_vector(f"block {i}: r", blk.r, d)
        return z

