"""Flat product-space arrays over a primal space and weighted dual blocks.

The solver state lives in H x G_1 x ... x G_m, where H and the G_i are
real coordinate spaces.  A point (x, v_1, ..., v_m) of that space is
stored as one contiguous float array of length ``layout.size``, primal
entries first, and :meth:`SpaceLayout.split` returns views of its
blocks.  Each dual block G_i carries a weight w_i in ]0, 1] (the
weights sum to one).  The weights enter the inner product of the
product space, not the stored data: user-facing per-block reporting
uses plain Euclidean norms, while solver-internal metrics use the
weighted ones defined here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShapeMismatchError",
    "SpaceLayout",
    "inner_blocks",
]

WEIGHT_SUM_TOL = 1e-12


def _check_count(name: str, value, minimum: int = 1) -> None:
    """Refuse a count or dimension that is a ``bool``, is not an integer
    (Python or numpy), or is below ``minimum``, naming the argument;
    :func:`_check_real` is its counterpart for real numbers."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


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
    """Block shapes disagree.  ``block`` names the offending component."""

    def __init__(self, block, expected, got):
        self.block = block
        self.expected = tuple(expected)
        self.got = tuple(got)
        super().__init__(
            f"shape mismatch in block '{block}': expected shape "
            f"{self.expected}, got {self.got}"
        )


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
        if len(self.weights) != len(self.dual_dims):
            raise ValueError("weights and dual_dims must have equal length")
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
        """Views ``(x, (v_1, ..., v_m))`` of the blocks of the flat array ``u``."""
        if np.shape(u) != (self.size,):
            raise ShapeMismatchError("u", (self.size,), np.shape(u))
        start = self.dim_primal
        duals = []
        for d in self.dual_dims:
            duals.append(u[start:start + d])
            start += d
        return u[:self.dim_primal], tuple(duals)

    def check_coupling(self, z: np.ndarray, blocks) -> None:
        """Raise ``ValueError`` unless ``z`` lies in H and each of the
        ``num_blocks`` blocks has an ``L`` from H to its G_i and an
        offset ``r`` in G_i."""
        if z.shape != (self.dim_primal,):
            raise ValueError("z has the wrong shape")
        if len(blocks) != self.num_blocks:
            raise ValueError("number of blocks disagrees with layout")
        for i, (blk, d) in enumerate(zip(blocks, self.dual_dims)):
            if blk.L.in_dim != self.dim_primal or blk.L.out_dim != d:
                raise ValueError(f"block {i}: L has the wrong dimensions")
            if blk.r.shape != (d,):
                raise ValueError(f"block {i}: r has the wrong shape")


def inner_blocks(weights, ax: np.ndarray, av, bx: np.ndarray, bv) -> float:
    """Weighted inner product <ax, bx> + sum_i w_i <av_i, bv_i> of two
    split points, reduced in ascending block order."""
    s = float(ax.dot(bx))
    for w, da, db in zip(weights, av, bv):
        s += w * float(da.dot(db))
    return s

