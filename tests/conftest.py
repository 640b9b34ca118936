import numpy as np
import pytest

import splitsolve as ss


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


def materialize(L):
    """Dense matrix of a linear operator, column by column."""
    cols = [np.asarray(L.apply(e), dtype=float) for e in np.eye(L.in_dim)]
    return np.column_stack(cols)


def assert_same_bits(got, want):
    """Equality of float arrays bit for bit, so signed zeros count."""
    np.testing.assert_array_equal(np.asarray(got, dtype=float).view(np.uint64),
                                  np.asarray(want, dtype=float).view(np.uint64))
