"""Multigraphs over F_q.

A graph of order n is a symmetric n x n matrix over F_q with zero diagonal;
entry (u, v) is the multiplicity of the edge u-v. Vertices are the 0-based
indices 0..n-1. A vertex multiset D, such as a witness of qss.access, is a
length-n int64 vector of F_q multiplicities; Gamma.D, the neighbour
multiset of D, is the matrix-vector product
(Gamma.D)(v) = sum_u Gamma(u, v) D(u) mod q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable

import numpy as np

from .fqlinalg import as_integers, require_prime


class Multigraph:
    """Immutable edge-weighted graph over F_q."""

    def __init__(self, q: int, gamma):
        self.q = require_prime(q)
        arr = as_integers(gamma, "edge multiplicities")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got {arr.shape}")
        if (arr < 0).any() or (arr >= q).any():
            raise ValueError(f"edge multiplicities must lie in [0, {q})")
        if (np.diag(arr) != 0).any():
            raise ValueError("self-loops are not allowed (nonzero diagonal)")
        if not np.array_equal(arr, arr.T):
            raise ValueError("adjacency matrix must be symmetric")
        arr.setflags(write=False)
        self.gamma = arr
        self.n = arr.shape[0]

    @classmethod
    def _checked(cls, q: int, gamma: np.ndarray) -> Multigraph:
        """A graph on a new int64 adjacency matrix that its maker has already
        checked (q prime, entries in [0, q), zero diagonal, symmetric),
        taken as it is, without __init__'s checks or copy."""
        g = cls.__new__(cls)
        gamma.setflags(write=False)
        g.q, g.gamma, g.n = q, gamma, gamma.shape[0]
        return g

    def degree(self, v: int) -> int:
        """Number of distinct neighbours of v."""
        return int(np.count_nonzero(self.gamma[v]))

    def edges(self) -> list[tuple[int, int, int]]:
        """Weighted edges (u, v, w) with u < v, in row-major order."""
        out = []
        for u in range(self.n):
            for v in range(u + 1, self.n):
                w = int(self.gamma[u, v])
                if w:
                    out.append((u, v, w))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Multigraph)
            and self.q == other.q
            and self.n == other.n
            and bool(np.array_equal(self.gamma, other.gamma))
        )

    def __repr__(self):
        return f"Multigraph(q={self.q}, n={self.n}, edges={len(self.edges())})"


@dataclass(frozen=True)
class DealerGraph:
    """A graph together with a distinguished, non-isolated dealer vertex."""

    graph: Multigraph
    dealer: int

    def __post_init__(self):
        if not 0 <= self.dealer < self.graph.n:
            raise ValueError(f"dealer {self.dealer} out of range")
        if self.graph.degree(self.dealer) == 0:
            raise ValueError("dealer vertex is isolated; encoding is not an isometry")

    @property
    def players(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.graph.n) if v != self.dealer)


def delete_vertex(g: Multigraph, v: int) -> Multigraph:
    """Graph with vertex v removed; remaining vertices are re-indexed in
    order, so the result has order n - 1."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for order {g.n}")
    keep = [u for u in range(g.n) if u != v]
    return Multigraph._checked(g.q, g.gamma[np.ix_(keep, keep)])


def local_complement(g: Multigraph, u: int, lam: int) -> Multigraph:
    """lambda-local complementation at u: adds lam*Gamma(v,u)*Gamma(u,w) to
    every off-diagonal entry (v, w)."""
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} out of range for order {g.n}")
    lam = int(lam) % g.q
    col = g.gamma[:, u]
    new = (g.gamma + lam * np.outer(col, col)) % g.q
    np.fill_diagonal(new, 0)
    return Multigraph(g.q, new)


def cut_matrix(g: Multigraph, a: Iterable[int], b: Iterable[int]) -> np.ndarray:
    """Submatrix Gamma[A, B] with rows indexed by A and columns by B (both
    sorted). A and B must be disjoint vertex sets."""
    al, bl = sorted(set(int(v) for v in a)), sorted(set(int(v) for v in b))
    for side in (al, bl):
        if side and not (0 <= side[0] and side[-1] < g.n):
            raise ValueError("cut sides must be subsets of the vertex set")
    if set(al) & set(bl):
        raise ValueError("cut sides overlap")
    return g.gamma[np.ix_(al, bl)]


@cache
def _slot_map(n: int) -> np.ndarray:
    """The read-only (n, n) map from each adjacency entry to its edge slot,
    the one edge-slot layout of the package. The m = n(n-1)/2 slots are
    ordered row-major ((0,1), (0,2), ..., (n-2,n-1)), both entries of a
    pair read its slot, and the diagonal reads slot m, so a row of m edge
    multiplicities and a trailing zero gathers into the symmetric adjacency
    matrix in one step."""
    rows, cols = np.triu_indices(n, 1)
    slots = np.full((n, n), rows.size)
    slots[rows, cols] = slots[cols, rows] = np.arange(rows.size)
    slots.setflags(write=False)
    return slots


def random_graph(n: int, q: int, seed) -> Multigraph:
    """Uniform random multigraph: each of the n(n-1)/2 edge slots of
    _slot_map gets an i.i.d. uniform multiplicity in [0, q). seed may be an
    int or a numpy Generator."""
    require_prime(q)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return Multigraph(q, np.append(rng.integers(0, q, size=n * (n - 1) // 2), 0)[_slot_map(n)])


def parse_graph(text: str) -> Multigraph:
    """Parse the plain text graph format.

    Line 1: ``q <prime>``, line 2: ``n <count>``, then one ``e <u> <v> <w>``
    line per edge with u < v and 1 <= w < q. ``#`` starts a comment. Unlisted
    pairs have multiplicity 0.
    """
    lines = [line for line in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if line]
    if len(lines) < 2:
        raise ValueError("graph text needs 'q' and 'n' header lines")
    qtok = lines[0].split()
    ntok = lines[1].split()
    if len(qtok) != 2 or qtok[0] != "q":
        raise ValueError(f"malformed modulus line: {lines[0]!r}")
    if len(ntok) != 2 or ntok[0] != "n":
        raise ValueError(f"malformed order line: {lines[1]!r}")
    try:
        q, n = int(qtok[1]), int(ntok[1])
    except ValueError as exc:
        raise ValueError(f"malformed header: {exc}") from None
    require_prime(q)
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    upper = [0] * (n * n)  # Gamma row by row, the edge lines fill it above the diagonal
    seen = set()
    for line in lines[2:]:
        tok = line.split()
        if len(tok) != 4 or tok[0] != "e":
            raise ValueError(f"malformed edge line: {line!r}")
        try:
            u, v, w = int(tok[1]), int(tok[2]), int(tok[3])
        except ValueError:
            raise ValueError(f"malformed edge line: {line!r}") from None
        if u == v:
            raise ValueError(f"self-loop on vertex {u}")
        if not u < v:
            raise ValueError(f"edge endpoints must satisfy u < v: {line!r}")
        if not (0 <= u and v < n):
            raise ValueError(f"edge endpoint out of range: {line!r}")
        if not 1 <= w < q:
            raise ValueError(f"edge multiplicity must be in [1, {q}): {line!r}")
        if (u, v) in seen:
            raise ValueError(f"duplicate edge line for ({u}, {v})")
        seen.add((u, v))
        upper[u * n + v] = w
    # the edge lines checked every entry's range and listed none on or below
    # the diagonal, so gamma + gamma.T is a valid adjacency matrix
    gamma = np.array(upper, dtype=np.int64).reshape(n, n)
    return Multigraph._checked(q, gamma + gamma.T)


def serialize_graph(g: Multigraph) -> str:
    """Inverse of parse_graph; edges are emitted in row-major order."""
    out = [f"q {g.q}", f"n {g.n}"]
    out.extend(f"e {u} {v} {w}" for u, v, w in g.edges())
    return "\n".join(out) + "\n"


def rs747_fixture() -> DealerGraph:
    """Order-8 graph over F_7 realising a ((4,7))_7 threshold scheme.

    Vertex 0 is the dealer; 4..7 form the inner layer, 1..3 the outer one.
    The edge multiplicities follow a Reed-Solomon evaluation pattern.
    """
    q = 7
    edges = {
        (0, 4): 6, (0, 5): 3, (0, 6): 4, (0, 7): 1,
        (4, 1): 6, (4, 2): 3, (4, 3): 4,
        (5, 1): 4, (5, 2): 1, (5, 3): 1,
        (6, 1): 1, (6, 2): 1, (6, 3): 4,
        (7, 1): 4, (7, 2): 3, (7, 3): 6,
    }
    gamma = np.zeros((8, 8), dtype=np.int64)
    for (u, v), w in edges.items():
        gamma[u, v] = gamma[v, u] = w
    return DealerGraph(Multigraph(q, gamma), 0)
