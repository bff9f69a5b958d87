"""Shared test references: pure-int Gauss-Jordan elimination, the paper's
sufficient access condition on it, and a hypothesis strategy for small
dealer graphs.

The int references never touch `qss.fqlinalg`, so tests that compare the
package's one elimination loop against them compare two independent
computations.
"""

from itertools import combinations

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


def int_kernel(rows, cols, q):
    """The right-kernel basis read off int_rref of a matrix with cols
    columns, as a cols x k list: one column per free column f in order, 1
    at f, 0 at the other free columns and -R[i][f] at the i-th pivot."""
    r, pivots = int_rref(rows, q)
    free = [f for f in range(cols) if f not in pivots]
    basis = [[0] * len(free) for _ in range(cols)]
    for j, f in enumerate(free):
        basis[f][j] = 1
        for i, p in enumerate(pivots):
            basis[p][j] = -r[i][f] % q
    return basis


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


def sufficient_by_cut_ranks(g, alpha):
    """The paper's sufficient access condition at ratio alpha, by int_rank:
    every t-set T, t = int((1 - alpha) n + 1e-9), has rank Gamma[V - T, T]
    = t. It says that every nonzero multiset C with support of at most
    (1 - alpha) n vertices sees more than that many jointly with its
    neighbours, which makes every set of at least alpha n players
    accessible, whatever the dealer.

    Proof of the equivalence. If a nonzero C has supp C + supp Gamma.C
    inside a t-set T, C on T is a nonzero kernel vector of Gamma[V - T, T];
    conversely such a kernel vector, zero outside T, is such a C. A
    deficient smaller set S makes every t-set containing S deficient, so
    the t-sets decide.
    """
    n, t = g.n, int((1.0 - alpha) * g.n + 1e-9)
    gamma = g.gamma.tolist()
    for cut in combinations(range(n), t):
        rest = [u for u in range(n) if u not in cut]
        if int_rank([[gamma[u][v] for v in cut] for u in rest], g.q) < t:
            return False
    return True


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
