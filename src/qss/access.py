"""Access-structure analysis for secret sharing on F_q multigraphs.

Everything here reduces to ranks of cut matrices. For a dealer d and a player
set B, the classical-access indicator is

    pi(B, d) = cutrank_G(B) - cutrank_{G without d}(B)  in {0, 1}

and the quantum-access indicator is the discrete derivative

    cutrank(B + {d}) - cutrank(B)  in {-1, 0, +1}

where -1 means B can reconstruct a quantum secret, +1 means it has no
information, and 0 is the in-between (partial) regime. The witnesses D and
C certify the classical verdicts constructively; each is a vertex multiset,
a length-n int64 vector of residues mod q, checked by one matrix-vector
product with Gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .fqlinalg import (
    _border_indicators,
    _kernel_type,
    _residues,
    _solve_stack,
    as_integers,
    kernel_basis_mod,
    rank_mod,
    require_prime,
)
from .multigraph import Multigraph, cut_matrix

CLASSICAL_ACCESSIBLE = "accessible"
NO_INFO = "no_info"
PARTIAL = "partial"
# quantum verdict of each derivative value
QUANTUM_VERDICT = {-1: CLASSICAL_ACCESSIBLE, 0: PARTIAL, 1: NO_INFO}
# Combinations of a kernel basis min_support_kernel_element enumerates at most
KERNEL_BUDGET = 200_000


def _check_b(g: Multigraph, d: int, b_set) -> tuple[int, ...]:
    if not 0 <= d < g.n:
        raise ValueError(f"dealer {d} out of range for order {g.n}")
    b = tuple(sorted(set(int(v) for v in b_set)))
    if b and not (0 <= b[0] and b[-1] < g.n):
        raise ValueError("player set outside vertex range")
    if d in b:
        raise ValueError(f"dealer {d} must not belong to the player set")
    return b


def cutrank(g: Multigraph, b_set) -> int:
    """Rank over F_q of the cut matrix between b_set and the rest."""
    b = set(int(v) for v in b_set)
    return rank_mod(cut_matrix(g, b, [v for v in range(g.n) if v not in b]), g.q)


def batch_indicators(gammas: np.ndarray, q: int, dealer: int, subsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pi, derivative) for every graph of a stack and every player set of a
    (sets, width) index array, as two (graphs, sets) int64 arrays.

    Gathers one bordered matrix Gamma[B + [d], (V - B - {d}) + [d]] per
    (graph, set) pair: M = Gamma[B, V - B - {d}] with the dealer column c
    and the dealer row r as its border. cutrk(B) = rank M + [c not in
    colspan M] and cutrk(B + {d}) = rank M + [r not in rowspan M], so one
    fqlinalg._border_indicators elimination gives pi = [c not in colspan M]
    and the derivative [r not in rowspan M] - pi. Every indicator in the
    package, scalar or searched, comes from this gather: the stack reduced
    mod q (fqlinalg._residues) and bordered by a zero vertex (_zero_vertex)
    is ranked by _bordered_spans at the flat index that _gather_index's
    halves add up to. A search scan borders its stack once and builds each
    block's index from cached plans (search._plan).

    Rows may hold sets of several sizes: a smaller set lists its members
    and pads the rest of its row with -1. Every matrix then has the shape
    of the widest row and the smallest set, each half its vertices, zero
    pads and the dealer (_bordered). A zero row or column changes neither
    span test, so a padded set gets the verdicts of its own matrix, and one
    kernel call ranks every size. A dealer or member outside 0..n-1, a -1
    before a member, a repeated member or the dealer as a member raises
    ValueError.
    """
    q = require_prime(q)
    rows, cols = _gather_index(gammas.shape[1], dealer, subsets)
    c_outside, r_outside = _bordered_spans(_zero_vertex(_residues(gammas, q), q), q, rows[:, None] + cols)
    pi = c_outside.T.astype(np.int64)
    return pi, r_outside.T - pi


def _zero_vertex(gammas: np.ndarray, q: int) -> np.ndarray:
    """A (graphs, n, n) stack of residues mod q as a new entry-major
    ((n + 1)^2, graphs) stack of the kernel's type: entry (u, v) of every
    graph is row u (n + 1) + v, each graph is one column, n a zero vertex."""
    count, n, _ = gammas.shape
    out = np.zeros((n + 1, n + 1, count), dtype=_kernel_type(q))
    out[:n, :n] = gammas.transpose(1, 2, 0)
    return out.reshape((n + 1) ** 2, count)


def _gather_index(n: int, dealer: int, subsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """batch_indicators' checks, then the halves (rows, cols) of its flat
    index into the stack of _zero_vertex, each with one column per set:
    entry (i, j) of a set's bordered matrix is at rows[i] + cols[j]. rows
    holds u (n + 1) for the set's members, its -1 pads and the dealer; cols
    holds v for the other players ascending, a pad per member beyond the
    smallest set's and the dealer (_bordered); a pad is the zero vertex n."""
    sets = len(subsets)
    if not 0 <= dealer < n:
        raise ValueError(f"dealer {dealer} out of range for order {n}")
    if subsets.min(initial=0) < -1 or subsets.max(initial=0) >= n:
        raise ValueError("player set outside vertex range")
    pad = subsets < 0
    if (pad[:, :-1] > pad[:, 1:]).any():
        raise ValueError("a -1 pad must follow every member of its row")
    others = np.ones((sets, n), dtype=bool)
    others[np.arange(sets)[:, None], np.where(pad, dealer, subsets)] = False
    others[:, dealer] = False
    # a row of m members leaves at least n - 1 - m other players, more if it
    # repeats a member or holds the dealer; the padded gather relies on it
    if np.count_nonzero(others) > sets * (n - 1) - np.count_nonzero(~pad):
        raise ValueError("a player set repeats a member or holds the dealer")
    rows = np.column_stack([subsets % (n + 1), np.full(sets, dealer)]) * (n + 1)
    return tuple(np.ascontiguousarray(half.T, dtype=np.intp) for half in (rows, _bordered(others, n, dealer)))


def _bordered(mask: np.ndarray, pad: int, border) -> np.ndarray:
    """The (S, w + 1) vertex order of the systems of an (S, n) mask, w its
    widest row: each row's True vertices ascending (row-major), then pad up
    to w, then border (a scalar or one per row). A zero pad row or column
    never pivots, so each system keeps its own ranks and solutions."""
    count = mask.sum(axis=1)
    out = np.full((len(mask), count.max(initial=0) + 1), pad)
    out[:, -1] = border
    out[:, :-1][np.arange(out.shape[1] - 1) < count[:, None]] = np.flatnonzero(mask) % mask.shape[1]
    return out


def _bordered_spans(stack: np.ndarray, q: int, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c_outside, r_outside) of fqlinalg._border_indicators, each (sets,
    graphs), for each graph of a _zero_vertex stack and each bordered
    matrix of an (R, C, sets) flat index. One take of the stack's rows
    lays the matrices out with the (set, graph) stack axis last, the layout
    the elimination runs in place on, for a stack of any size."""
    (rows, cols, sets), graphs = index.shape, stack.shape[1]
    gathered = stack.take(index, axis=0).reshape(rows, cols, sets * graphs)
    c_outside, r_outside = _border_indicators(gathered, q)
    return c_outside.reshape(sets, graphs), r_outside.reshape(sets, graphs)


def _index_array(sets: list[tuple[int, ...]]) -> np.ndarray:
    """The (sets, width) index array of batch_indicators for a list of
    player sets, each row padded with -1 to the widest set."""
    width = max(map(len, sets), default=0)
    padded = chain.from_iterable((*b, *[-1] * (width - len(b))) for b in sets)
    return np.fromiter(padded, np.intp, len(sets) * width).reshape(len(sets), width)


def _indicators(g: Multigraph, d: int, b_set) -> tuple[int, int]:
    b = _check_b(g, d, b_set)
    pi, der = batch_indicators(g.gamma[None], g.q, d, np.array(b, dtype=np.intp).reshape(1, -1))
    return int(pi[0, 0]), int(der[0, 0])


def pi_classical(g: Multigraph, d: int, b_set) -> int:
    """Classical-access indicator: 1 iff B can recover a CQ secret.

    pi = cutrank_G(B) - cutrank_{G without d}(B): deleting d just drops d's
    column from the cut matrix of B, so no vertex-deleted graph is built.
    """
    return _indicators(g, d, b_set)[0]


def quantum_derivative(g: Multigraph, d: int, b_set) -> int:
    """Discrete derivative cutrank(B + {d}) - cutrank(B); -1 | 0 | +1."""
    return _indicators(g, d, b_set)[1]


@dataclass(frozen=True)
class AccessVerdict:
    classical: str
    quantum: str
    pi: int
    derivative: int
    witness_d: np.ndarray | None
    witness_c: np.ndarray | None

    def __eq__(self, other):
        """Value equality; the witness vectors compare entry by entry."""
        if not isinstance(other, AccessVerdict):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in self.__dataclass_fields__)


def witness_D(g: Multigraph, d: int, b_set) -> np.ndarray | None:
    """Accessing multiset D over B, a length-n vector, if one exists.

    D satisfies sup(Gamma.D) outside B = {d}, scaled so the dealer sees D
    with multiplicity exactly 1. None iff pi = 0. The returned solution is
    the deterministic one with lowest-index pivots and zero free variables.
    """
    rows, found = witness_rows(g, d, [b_set], [])[:2]
    return rows[0] if found[0] else None


def _members(n: int, sets) -> np.ndarray:
    """The (S, n) mask of each set's members."""
    mask = np.zeros((len(sets), n), dtype=bool)
    mask[np.repeat(np.arange(len(sets)), [len(b) for b in sets]), [v for b in sets for v in b]] = True
    return mask


def witness_rows(g: Multigraph, d: int, d_sets, c_sets) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The witness_D rows (S, n) of the player sets d_sets and their (S,)
    found mask, then the same of witness_C for c_sets, zero where none
    exists, from one _solve_stack call: Gamma[V - B, B] D = [d] for each
    set of d_sets and Gamma[B, V - B] C = 0 plus a last row C(d) = 1 for
    each set of c_sets (the empty set's D system has no columns and is
    inconsistent). Each system is laid out by _bordered and gathered from
    Gamma bordered by a zero vertex n for pads and vertex n + 1 for the pin
    row (a pad for a D system) and the target column."""
    n, k = g.n, len(d_sets)
    inside = _members(n, [_check_b(g, d, b) for b in [*d_sets, *c_sets]])
    pinned = np.arange(len(inside)) >= k
    ext = np.zeros((n + 2, n + 2), dtype=np.int64)
    ext[:n, :n] = g.gamma
    ext[d, n + 1] = ext[n + 1, d] = ext[n + 1, n + 1] = 1
    r, c = _bordered(inside ^ ~pinned[:, None], n, n + pinned), _bordered(inside ^ pinned[:, None], n, n + 1)
    x, found = _solve_stack(ext.take(r.T[:, None, :] * (n + 2) + c.T[None, :, :]), g.q)
    out = np.zeros((len(x), n + 1), dtype=np.int64)
    out[np.arange(len(x))[:, None], c[:, :-1]] = x
    return out[:k, :n], found[:k], out[k:, :n], found[k:]


def witness_C(g: Multigraph, d: int, b_set) -> np.ndarray | None:
    """Hiding multiset C over V minus B, a length-n vector, if one exists.

    C satisfies C(d) = 1 and, for every u in B, the number of neighbours of
    u in C is 0 mod q. None iff pi = 1. To certify that a quantum-accessible
    B can screen the complement, call with b_set = V minus (B + {d}); the
    result is then supported on B + {d}.
    """
    rows, found = witness_rows(g, d, [], [b_set])[2:]
    return rows[0] if found[0] else None


def classify(g: Multigraph, d: int, b_set) -> AccessVerdict:
    """Full verdict for a player set, with witnesses attached."""
    b = _check_b(g, d, b_set)
    pi, der = _indicators(g, d, b)
    classical = CLASSICAL_ACCESSIBLE if pi == 1 else NO_INFO
    wd = witness_D(g, d, b) if pi == 1 else None
    wc = witness_C(g, d, b) if pi == 0 else None
    return AccessVerdict(classical, QUANTUM_VERDICT[der], pi, der, wd, wc)


def _vector_pair(g: Multigraph, d_vec, c_vec) -> tuple[np.ndarray, np.ndarray | None]:
    """A witness pair of length-n vectors (C may be None) as (1, n) rows of
    residues; ValueError if D is missing, a vector has another shape or an
    entry is not an integer."""
    if d_vec is None:
        raise ValueError("the witness D is missing")
    rows = [None if v is None else as_integers(v, f"witness {name}") % g.q for name, v in (("D", d_vec), ("C", c_vec))]
    if any(r is not None and r.shape != (g.n,) for r in rows):
        raise ValueError(f"a witness must be a vector of length {g.n}")
    return rows[0][None], None if rows[1] is None else rows[1][None]


def verify_witness_pairs(g: Multigraph, d: int, sets, d_rows: np.ndarray, c_rows: np.ndarray | None) -> np.ndarray:
    """Check the witness rows D and C (S, n) of each checked player set B
    against the paper's graphical access criterion, C None to check D alone.

    D lives on B and sup(Gamma.D) - B = {d}: outside B, D is seen exactly at
    the dealer, with any nonzero multiplicity. C lives on B + {d}, has
    C(d) != 0 and sup(Gamma.C) - B - {d} empty. Raises ValueError if some
    row breaks its domain, else returns the (S,) verdicts."""
    q, outside = g.q, ~_members(g.n, sets)
    if (d_rows % q * outside).any():
        raise ValueError("D is supported outside the player set")
    outside[:, d] = False
    if c_rows is not None and (c_rows % q * outside).any():
        raise ValueError("C is supported outside the player set plus dealer")
    seen = d_rows @ g.gamma % q
    met = (seen[:, d] != 0) & ~(seen * outside).any(axis=1)
    if c_rows is not None:
        met &= (c_rows[:, d] % q != 0) & ~(c_rows @ g.gamma % q * outside).any(axis=1)
    return met


def dealer_kernel_witness(g: Multigraph, d: int, b_set) -> np.ndarray:
    """Small-support element of the dealer kernel of B, a length-n vector.

    The dealer kernel S_d(B) consists of the multisets over B + {d} whose
    neighbours stay inside B + {d} and which are not extensions of such
    multisets over B alone. When the derivative is -1 its size is
    (q^2 - 1) * q^t. Two echelon columns C1 (nonzero at d) and C2 (zero at
    d, nonzero image at d) generate a q^2 - 1 element slice of it; the
    returned witness is the slice element with the smallest support,
    ties broken lexicographically.

    Proved: let s be the joint support of C1 and C2. Each of those s
    coordinates is zero on exactly q - 1 of the q^2 - 1 slice elements, so
    their supports sum to s * q * (q - 1) and the smallest is at most the
    mean, |sup| <= q * s / (q + 1). And s <= cutrk(B) + 1: the columns of
    kernel_slice_columns are a reduced column echelon basis of ker M, M =
    Gamma[V - (B + {d}), B + {d}]. Each column's leading 1 is the only
    nonzero entry of its pivot row, so a column is supported on its own
    pivot coordinate and on the non-pivot coordinates alone. Of the |B| + 1
    coordinates, dim ker M are pivots, which leaves rank M non-pivot ones,
    so s <= rank M + 2. rank M = cutrk(B + {d}) = cutrk(B) - 1 for an
    accessible set (derivative -1), so s <= cutrk(B) + 1 and
    |sup| * (q + 1) <= q * (cutrk(B) + 1). The strict form
    |sup| * (q + 1) < q * cutrk(B) is false whenever cutrk(B) = 1.
    """
    basis, d_row, cols = kernel_slice_columns(g, d, b_set)
    seen = np.flatnonzero(d_row @ basis[:, 1:] % g.q)  # the columns after C1 with a nonzero image at d
    # x C1 + y C2 for every nonzero (x, y) of the lexicographic grid; the
    # lexsort's last key, the support, is its primary one
    members = np.indices((g.q, g.q)).reshape(2, -1).T[1:] @ basis[:, [0, 1 + seen[0]]].T % g.q
    out = np.zeros(g.n, dtype=np.int64)
    out[cols] = members[np.lexsort([*members.T[::-1], np.count_nonzero(members, axis=1)])[0]]
    return out


def kernel_slice_columns(g: Multigraph, d: int, b_set) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Reduced column echelon basis of the multisets over B + {d} whose
    neighbours stay inside B + {d}, the dealer's row on those columns, and
    the column vertex order (dealer first).

    dealer_kernel_witness picks its (C1, C2) pair from this basis and
    min_support_kernel_element scans every combination of it. Both need an
    accessible set, and the basis shows one: the derivative is -1 exactly
    when basis[0, 0] != 0 and a later column has a nonzero image at d.

    Proved: with W = V - B - {d}, M0 = Gamma[B, W], c = Gamma[B, d] and
    r = Gamma[d, W], cutrk(B) = rank M0 + [c not in colspan M0] and
    cutrk(B + {d}) = rank M0 + [r not in rowspan M0], so the derivative is
    -1 exactly when r is in rowspan M0 (a hiding C exists) and c is not in
    colspan M0 (an accessing D exists). The basis spans the kernel of
    Gamma[W, B + {d}] = [r^T | M0^T]. A hiding C is a kernel vector nonzero
    at d, and in reduced column echelon form only the first column can lead
    at the dealer's row, the others being zero there. The kernel vectors
    zero at d are then the span of the later columns, the D over B with
    D M0 = 0; c is outside colspan M0 exactly when one has c . D != 0, its
    image at d, and by linearity exactly when a later column has.
    """
    b = _check_b(g, d, b_set)
    cols = [d] + list(b)
    rows = [v for v in range(g.n) if v not in set(cols)]
    m = g.gamma[np.ix_(rows, cols)]
    # over the reversed columns each basis vector is 1 at its own free column,
    # 0 at the other free ones and nonzero only at pivots before it, so read
    # back reversed the basis is in reduced column echelon form
    basis = kernel_basis_mod(m[:, ::-1], g.q)[::-1, ::-1]
    d_row = g.gamma[d, cols]
    if not basis.shape[1] or basis[0, 0] == 0 or not (d_row @ basis[:, 1:] % g.q).any():
        raise ValueError("dealer kernel witness requires an accessible set (derivative -1)")
    return basis, d_row, cols


def min_support_kernel_element(g: Multigraph, d: int, b_set) -> int:
    """Exact minimum support size over the whole dealer kernel S_d(B).

    B must be accessible (derivative -1). Enumerates all (q^2 - 1) * q^t
    elements; raises if the q^(t + 2) combinations of the kernel basis
    exceed KERNEL_BUDGET. Used to probe how tight the echelon-pair bound is.
    """
    basis, d_row, _cols = kernel_slice_columns(g, d, b_set)
    q, k = g.q, basis.shape[1]
    if q**k > KERNEL_BUDGET:
        raise ValueError(f"kernel too large to enumerate ({q**k} > {KERNEL_BUDGET})")
    # every combination of the basis, one per row of the lexicographic grid;
    # the kernel holds those nonzero at d or with a nonzero image at d, never
    # none: kernel_slice_columns checked that the first column is nonzero at d
    vecs = np.indices((q,) * k).reshape(k, -1).T @ basis.T % q
    kept = vecs[(vecs[:, 0] != 0) | (vecs @ d_row % q != 0)]
    return int(np.count_nonzero(kept, axis=1).min())
