import math

import numpy as np
import pytest

import splitsolve as ss
from splitsolve.solver import _Workspace, _sq_norms


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def degenerate_block(dim, L=None):
    """Dual block whose operators collapse the coupling term to zero."""
    return ss.Block(
        B=ss.ResolventOp.zero(dim),
        Dinv=ss.CocoerciveOp.zero(dim),
        L=L if L is not None else ss.identity_op(dim),
        r=np.zeros(dim),
    )


def shrinkage_spec(n=1, weight=0.0, mu=1.0, center=None):
    """Inclusion whose primal part is soft-thresholding toward a center.

    With weight = 0 the primal operator A is zero (resolvent identity)
    and C is the mu-scaled displacement from the center.
    """
    layout = ss.SpaceLayout(n, (n,), (1.0,))
    b = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    if weight > 0:
        A = ss.resolvent_from_prox(ss.catalog_prox("l1", n, weight=weight))
    else:
        A = ss.ResolventOp.zero(n)
    return ss.ProblemSpec(
        layout=layout,
        A=A,
        C=ss.CocoerciveOp(n, lambda x: (x - b) / mu, mu),
        z=np.zeros(n),
        blocks=(degenerate_block(n),),
    )


def single_block_spec(mu=1.0, C=None, Dinv=None, L=None, dims=(1, 1)):
    """One weight-1 block with C = x/mu (declared mu), and a zero D^{-1}
    and identity L unless given."""
    n, d = dims
    return ss.ProblemSpec(
        layout=ss.SpaceLayout(n, (d,), (1.0,)),
        A=ss.ResolventOp.zero(n),
        C=C if C is not None else ss.CocoerciveOp(n, lambda x: x / mu, mu),
        z=np.zeros(n),
        blocks=(ss.Block(B=ss.ResolventOp.zero(d),
                         Dinv=Dinv if Dinv is not None else ss.CocoerciveOp.zero(d),
                         L=L if L is not None else ss.identity_op(n),
                         r=np.zeros(d)),),
    )


def inner_blocks(weights, ax, av, bx, bv):
    """Weighted inner product <ax, bx> + sum_i w_i <av_i, bv_i> of two
    split points, reduced in ascending block order."""
    s = float(ax.dot(bx))
    for w, da, db in zip(weights, av, bv):
        s += w * float(da.dot(db))
    return s


def materialize(L):
    """Dense matrix of a linear operator, column by column."""
    cols = [np.asarray(L.apply(e), dtype=float) for e in np.eye(L.in_dim)]
    return np.column_stack(cols)


def assert_same_bits(got, want):
    """Equality of float arrays bit for bit, so signed zeros count."""
    np.testing.assert_array_equal(np.asarray(got, dtype=float).view(np.uint64),
                                  np.asarray(want, dtype=float).view(np.uint64))


def v_form(spec, cfg, u):
    """<u, V u> for a flat product-space array ``u``, by the solver's
    quadratic form of the renormed metric V of the steps in ``cfg``."""
    x, v = spec.layout.split(np.asarray(u, dtype=float))
    return _Workspace(spec, cfg.tau, cfg.sigmas).quadform(x, v, *_sq_norms(x, v))


def v_distances(spec, cfg, states):
    """Distance of each recorded state to the last one in the metric V."""
    final = states[-1].u
    return np.asarray([math.sqrt(max(v_form(spec, cfg, st.u - final), 0.0))
                       for st in states])
