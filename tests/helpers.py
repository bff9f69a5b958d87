"""Shared test references: pure-int Gauss-Jordan elimination and a
hypothesis strategy for small dealer graphs.

The int references never touch `qss.fqlinalg`, so tests that compare the
package's one elimination loop against them compare two independent
computations.
"""

import numpy as np
from hypothesis import strategies as st

from qss.multigraph import DealerGraph, Multigraph


def int_rref(rows, q):
    """Reduced row echelon form and pivot columns by Gauss-Jordan
    elimination on Python ints, which never overflow."""
    rows = [[x % q for x in row] for row in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, q)
        rows[rank] = [x * inv % q for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[rank])]
        pivots.append(c)
    return rows, pivots


def int_solve(a, b, cols, q):
    """The lowest-pivot particular solution of a.x = b, a with cols columns,
    from int_rref of [a | b], or None when the system is inconsistent."""
    r, pivots = int_rref([row + [v] for row, v in zip(a, b)], q)
    if cols in pivots:
        return None
    x = [0] * cols
    for row, p in zip(r, pivots):
        x[p] = row[cols]
    return x


def vector(n, weights):
    """The length-n int64 vertex vector with the given vertex -> multiplicity
    entries, zero elsewhere: a witness D or C in the package's form."""
    out = np.zeros(n, dtype=np.int64)
    out[list(weights)] = list(weights.values())
    return out


def int_rank(rows, q):
    """Rank from int_rref: the independent reference for the numpy kernels."""
    return len(int_rref(rows, q)[1])


@st.composite
def dealer_graphs(draw, max_n=7):
    """A random multigraph over a small field with a dealer that has a
    neighbour."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(2, max_n))
    m = n * (n - 1) // 2
    gamma = np.zeros((n, n), dtype=np.int64)
    gamma[np.triu_indices(n, 1)] = draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m))
    gamma += gamma.T
    d = draw(st.integers(0, n - 1))
    if not gamma[d].any():
        v = (d + 1) % n
        gamma[d, v] = gamma[v, d] = 1
    return DealerGraph(Multigraph(q, gamma), d)
