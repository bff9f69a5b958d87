"""Access verdicts: cut ranks, the two indicators, and the witness vectors.

The published witness table for the order-8 Reed-Solomon graph is pinned row
by row. Four of its 21 rows fail verification (three C tuples, one D tuple);
those are asserted as defective on purpose, together with the fact that a
valid replacement witness exists for each, so the table stays an honest
record instead of silently passing.
"""

from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qss.access
from qss.access import (
    CLASSICAL_ACCESSIBLE,
    NO_INFO,
    PARTIAL,
    _bordered,
    _index_array,
    batch_indicators,
    classify,
    cutrank,
    dealer_kernel_witness,
    kernel_slice_columns,
    min_support_kernel_element,
    pi_classical,
    quantum_derivative,
    verify_witness_pairs,
    witness_C,
    witness_D,
    witness_rows,
)
from qss.fqlinalg import _kernel_type
from qss.multigraph import Multigraph, random_graph, rs747_fixture
from qss.oracle import code_unitaries, decode_params, qq_decode_bell, qq_encode
from qss.search import _gamma_from_index

from helpers import dealer_graphs, int_rank, int_rref, int_solve, vector


def star3(q=3):
    return Multigraph(q, [[0, 1, 1], [1, 0, 0], [1, 0, 0]])


def all_subsets(universe):
    for r in range(len(universe) + 1):
        yield from combinations(universe, r)


# ------------------------------------------------------------------- cutrank


def test_cutrank_examples():
    rs = rs747_fixture().graph
    assert cutrank(rs, [1, 2, 3, 7]) == 4
    assert cutrank(rs, []) == 0
    assert cutrank(rs, range(8)) == 0  # empty other side
    g = star3()
    assert cutrank(g, [1, 2]) == 1
    assert cutrank(g, [0]) == 1


@pytest.mark.parametrize("b", [[-1], [5], [0, 3]])
def test_cutrank_rejects_vertices_outside_the_graph(b):
    # [-1] would read the last vertex through a negative index
    with pytest.raises(ValueError, match="subsets of the vertex set"):
        cutrank(star3(), b)


def test_cutrank_symmetric_under_complement():
    rng = np.random.default_rng(41)
    for _ in range(200):
        q = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 7))
        g = random_graph(n, q, rng)
        bits = int(rng.integers(0, 2**n))
        b = [v for v in range(n) if bits >> v & 1]
        comp = [v for v in range(n) if v not in b]
        assert cutrank(g, b) == cutrank(g, comp)


def test_cutrank_bounded_by_side_sizes():
    rng = np.random.default_rng(42)
    for _ in range(100):
        g = random_graph(6, 3, rng)
        b = [0, 2, 5]
        assert 0 <= cutrank(g, b) <= 3


# ----------------------------------------------------------------- indicators


def test_pi_examples():
    rs = rs747_fixture()
    assert pi_classical(rs.graph, 0, [1, 2, 3]) == 0
    assert pi_classical(rs.graph, 0, [1, 2, 3, 7]) == 1
    assert pi_classical(rs.graph, 0, []) == 0


def test_derivative_examples():
    rs = rs747_fixture()
    assert quantum_derivative(rs.graph, 0, [1, 2, 3, 7]) == -1
    assert quantum_derivative(rs.graph, 0, [1, 2, 3]) == 1
    g = star3()
    assert quantum_derivative(g, 0, [1, 2]) == -1
    assert quantum_derivative(g, 0, [1]) == 0
    assert quantum_derivative(g, 0, []) == 1


def test_dealer_membership_rejected():
    g = star3()
    with pytest.raises(ValueError, match="dealer"):
        pi_classical(g, 0, [0, 1])
    with pytest.raises(ValueError, match="dealer"):
        quantum_derivative(g, 0, [0])
    with pytest.raises(ValueError, match="range"):
        pi_classical(g, 0, [5])


def _bell_decode_on(g, d, b):
    secret = np.eye(g.q, dtype=np.complex128)[1]
    encoded = qq_encode(g, 0, secret)
    return qq_decode_bell(g, d, b, encoded, np.random.default_rng(0), expected=secret)


@pytest.mark.parametrize("call", [pi_classical, quantum_derivative, witness_D, classify, _bell_decode_on],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("dealer", [-1, -8, 8, 99])
def test_dealer_out_of_range_rejected(call, dealer):
    # on rs747 (order 8) index -1 would wrap to player 7 and -8 to vertex 0
    g = rs747_fixture().graph
    with pytest.raises(ValueError, match=f"dealer {dealer} out of range"):
        call(g, dealer, [1, 2, 3])


def test_indicator_ranges_random():
    rng = np.random.default_rng(43)
    for _ in range(300):
        q = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 7))
        g = random_graph(n, q, rng)
        d = int(rng.integers(0, n))
        bits = int(rng.integers(0, 2 ** (n - 1)))
        players = [v for v in range(n) if v != d]
        b = [players[i] for i in range(n - 1) if bits >> i & 1]
        assert pi_classical(g, d, b) in (0, 1)
        assert quantum_derivative(g, d, b) in (-1, 0, 1)


def test_derivative_monotone_on_nested_sets():
    # growing the player set can only improve access
    rng = np.random.default_rng(44)
    checked = 0
    while checked < 1000:
        q = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(3, 8))
        g = random_graph(n, q, rng)
        d = int(rng.integers(0, n))
        players = [v for v in range(n) if v != d]
        small = [v for v in players if rng.random() < 0.4]
        extra = [v for v in players if v not in small and rng.random() < 0.5]
        big = small + extra
        assert quantum_derivative(g, d, big) <= quantum_derivative(g, d, small)
        checked += 1


def test_derivative_complement_antisymmetry():
    # B sees the secret exactly when the complementary players see nothing
    rng = np.random.default_rng(45)
    for _ in range(300):
        q = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 7))
        g = random_graph(n, q, rng)
        d = int(rng.integers(0, n))
        players = [v for v in range(n) if v != d]
        bits = int(rng.integers(0, 2 ** len(players)))
        b = [players[i] for i in range(len(players)) if bits >> i & 1]
        comp = [v for v in players if v not in b]
        der_b = quantum_derivative(g, d, b)
        der_c = quantum_derivative(g, d, comp)
        assert (der_b == -1) == (der_c == 1)
        assert (der_b == 0) == (der_c == 0)


def test_derivative_equals_dual_indicator_pair():
    # derivative -1 iff B classically accessible and complement fully hidden
    rng = np.random.default_rng(46)
    for _ in range(300):
        q = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 7))
        g = random_graph(n, q, rng)
        d = int(rng.integers(0, n))
        players = [v for v in range(n) if v != d]
        bits = int(rng.integers(0, 2 ** len(players)))
        b = [players[i] for i in range(len(players)) if bits >> i & 1]
        comp = [v for v in players if v not in b]
        dual = pi_classical(g, d, b) == 1 and pi_classical(g, d, comp) == 0
        assert dual == (quantum_derivative(g, d, b) == -1)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(dealer_graphs(), st.data())
def test_indicators_match_pure_int_cut_ranks(dg, data):
    # both indicators are read from one bordered elimination; check them
    # against the cut-rank definitions, ranked by the pure-int reference
    g, d = dg.graph, dg.dealer
    players = list(dg.players)
    drawn = tuple(sorted(data.draw(st.lists(st.sampled_from(players), unique=True))))

    def rk(rows, cols):
        return int_rank([[int(g.gamma[u, v]) for v in cols] for u in rows], g.q)

    for b in ((), tuple(players), drawn):
        rest = [v for v in players if v not in b]
        pi = rk(b, rest + [d]) - rk(b, rest)
        der = rk(b + (d,), rest) - rk(b, rest + [d])
        verdict = classify(g, d, b)
        assert pi_classical(g, d, b) == verdict.pi == pi
        assert quantum_derivative(g, d, b) == verdict.derivative == der


def test_batch_indicators_many_sets_match_pure_int_cut_ranks():
    # one graph, then two, against every player set of each size: with many
    # sets per graph the stack axis runs mostly over sets, and each pivot row
    # must be read from the live stack, not from a stale copy of it
    rs = rs747_fixture()
    d, players = rs.dealer, list(rs.players)
    graphs = [rs.graph, random_graph(8, 7, 23)]
    gammas = np.stack([g.gamma for g in graphs])

    def rk(g, rows, cols):
        return int_rank([[int(g.gamma[u, v]) for v in cols] for u in rows], g.q)

    for size in range(len(players) + 1):
        sets = list(combinations(players, size))
        want = []
        for g in graphs:
            pairs = []
            for b in sets:
                rest = [v for v in players if v not in b]
                pairs.append((rk(g, b, rest + [d]) - rk(g, b, rest), rk(g, b + (d,), rest) - rk(g, b, rest + [d])))
            want.append(pairs)
        subsets = np.array(sets, dtype=np.intp).reshape(len(sets), size)
        for count in (1, 2):
            pi, der = batch_indicators(gammas[:count], 7, d, subsets)
            assert pi.shape == der.shape == (count, len(sets))
            assert [list(zip(p, r)) for p, r in zip(pi.tolist(), der.tolist())] == want[:count]
        if size == 3:
            assert want[0][sets.index((4, 5, 7))] == (0, 1)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(dealer_graphs(max_n=9), st.data())
def test_padded_rows_match_one_uniform_call_per_size(dg, data):
    # sets of every size from 0 to p in one array, padded with -1, on a
    # stack of two graphs, against one unpadded call per size; members may
    # come in any order
    g, d, players = dg.graph, dg.dealer, list(dg.players)
    n, q = g.n, g.q
    other = np.zeros((n, n), dtype=np.int64)
    other[np.triu_indices(n, 1)] = data.draw(st.lists(st.integers(0, q - 1), min_size=n * (n - 1) // 2,
                                                      max_size=n * (n - 1) // 2))
    gammas = np.stack([g.gamma, other + other.T])
    drawn = data.draw(st.lists(st.permutations(players).flatmap(
        lambda perm: st.integers(0, len(perm)).map(lambda size: tuple(perm[:size]))), max_size=30))
    sets = data.draw(st.permutations(drawn + [(), tuple(players)]))
    subsets = np.full((len(sets), len(players)), -1, dtype=np.intp)
    for i, b in enumerate(sets):
        subsets[i, : len(b)] = b
    pi, der = batch_indicators(gammas, q, d, subsets)
    for size in {len(b) for b in sets}:
        at = [i for i, b in enumerate(sets) if len(b) == size]
        uniform = np.array([sets[i] for i in at], dtype=np.intp).reshape(len(at), size)
        want_pi, want_der = batch_indicators(gammas, q, d, uniform)
        assert np.array_equal(pi[:, at], want_pi) and np.array_equal(der[:, at], want_der)


def test_bordered_matches_a_pure_python_layout():
    # each row's True vertices ascending, then pad up to the widest row,
    # then the border, a scalar or one per row: random masks with an empty
    # and a full row, and stacks of no rows
    rng = np.random.default_rng(46)
    for sets, n in [(0, 1), (0, 6), (1, 1), (2, 5), (7, 9), (40, 12)]:
        mask = rng.random((sets, n)) < rng.random()
        if sets >= 2:
            mask[0], mask[-1] = False, True
        for pad, border in [(n, n + 1), (-1, rng.integers(0, 50, size=sets))]:
            members = [[v for v in range(n) if row[v]] for row in mask.tolist()]
            width = max(map(len, members), default=0)
            ends = np.broadcast_to(border, sets).tolist()
            want = [b + [pad] * (width - len(b)) + [end] for b, end in zip(members, ends)]
            got = _bordered(mask, pad, border)
            assert got.shape == (sets, width + 1) and got.tolist() == want


@pytest.mark.parametrize(
    "rows, complaint",
    [
        ([[1, 2, 3], [-1, 2, 3]], "pad must follow"),
        ([[1, 2, 3], [4, -1, 5]], "pad must follow"),
        ([[1, 2, 3], [4, 4, -1]], "repeats a member"),
        ([[1, 2, 3], [0, 5, -1]], "repeats a member or holds the dealer"),
        ([[1, 2, 3], [8, -1, -1]], "outside vertex range"),
        ([[1, 2, 3], [5, -2, -1]], "outside vertex range"),
    ],
)
def test_malformed_padded_rows_are_rejected(rows, complaint):
    # rs747: dealer 0, players 1..7; each bad row would rank a wrong matrix
    rs = rs747_fixture()
    with pytest.raises(ValueError, match=complaint):
        batch_indicators(rs.graph.gamma[None], rs.graph.q, rs.dealer, np.array(rows, dtype=np.intp))


@pytest.mark.parametrize(
    "rows, dealer, complaint",
    [
        # {1, 1, 1, 5} is {1, 5}, whose derivative is 1, not 0
        ([[1, 2, 3, 4], [1, 1, 1, 5]], 0, "repeats a member"),
        ([[0, 1, 2]], 0, "holds the dealer"),
        ([[1, 2, 8]], 0, "outside vertex range"),
        ([[1, 2, 3]], 8, "dealer 8 out of range"),
        ([[1, 2, 3]], -1, "dealer -1 out of range"),
    ],
)
def test_malformed_uniform_rows_are_rejected(rows, dealer, complaint):
    # an unpadded array gets the padded path's checks: rs747 again
    rs = rs747_fixture()
    assert quantum_derivative(rs.graph, 0, [1, 5]) == 1
    with pytest.raises(ValueError, match=complaint):
        batch_indicators(rs.graph.gamma[None], rs.graph.q, dealer, np.array(rows, dtype=np.intp))


def test_a_stack_of_residues_in_the_kernel_type_is_not_reduced_again():
    # int64 entries anywhere, against the same graphs as kernel-type
    # residues, which batch_indicators reduces into a copy of its own and
    # leaves as they are
    rng = np.random.default_rng(41)
    subsets = np.array(list(combinations(range(1, 8), 3)), dtype=np.intp)
    for q in (2, 7, 2039, 2053):
        gammas = rng.integers(0, q, size=(5, 8, 8))
        gammas = np.triu(gammas, 1) + np.triu(gammas, 1).transpose(0, 2, 1)
        shifted = gammas + q * rng.integers(-3, 4, size=gammas.shape)
        residues = gammas.astype(_kernel_type(q))
        got = batch_indicators(residues, q, 0, subsets)
        assert all(np.array_equal(a, b) for a, b in zip(got, batch_indicators(shifted, q, 0, subsets)))
        assert residues.dtype == _kernel_type(q) and np.array_equal(residues, gammas)
        want = [[quantum_derivative(Multigraph(q, g), 0, b) for b in subsets] for g in gammas]
        assert got[1].tolist() == want


# ------------------------------------------------------------------- classify


def test_classify_labels_and_witnesses():
    rs = rs747_fixture()
    v = classify(rs.graph, 0, [1, 2, 3, 7])
    assert v.classical == CLASSICAL_ACCESSIBLE
    assert v.quantum == CLASSICAL_ACCESSIBLE
    assert (v.pi, v.derivative) == (1, -1)
    assert v.witness_d is not None and v.witness_c is None

    v0 = classify(rs.graph, 0, [1, 2, 3])
    assert v0.classical == NO_INFO
    assert v0.quantum == NO_INFO
    assert v0.witness_d is None and v0.witness_c is not None
    assert v0.witness_c[0] != 0  # C(d) pinned to a nonzero value

    g = star3()
    vp = classify(g, 0, [1])
    assert vp.quantum == PARTIAL
    assert vp.derivative == 0


def test_verdicts_compare_by_value():
    # the witness vectors compare entry by entry, and a None witness equals
    # only None
    rs = rs747_fixture()
    v = classify(rs.graph, 0, [1, 2, 3, 7])
    assert v == classify(rs.graph, 0, [1, 2, 3, 7]) and v.witness_c is None
    assert v != classify(rs.graph, 0, [1, 2, 3])
    assert v != replace(v, witness_d=(v.witness_d + 1) % rs.graph.q)
    assert v != replace(v, witness_c=v.witness_d)
    assert v != replace(v, witness_d=None)
    assert v != (v.classical, v.quantum, v.pi, v.derivative, v.witness_d, v.witness_c)


def test_classify_cross_check_random():
    rng = np.random.default_rng(47)
    for _ in range(200):
        q = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 7))
        g = random_graph(n, q, rng)
        d = int(rng.integers(0, n))
        players = [v for v in range(n) if v != d]
        bits = int(rng.integers(0, 2 ** len(players)))
        b = [players[i] for i in range(len(players)) if bits >> i & 1]
        # the quantum verdict re-derived from the two classical indicators:
        # B reads the secret and the complement sees nothing
        verdict = classify(g, d, b)
        comp = [v for v in players if v not in b]
        dual = verdict.pi == 1 and pi_classical(g, d, comp) == 0
        assert dual == (verdict.quantum == CLASSICAL_ACCESSIBLE)


# ------------------------------------------------------------------ witnesses


def test_witness_d_exists_iff_accessible():
    rng = np.random.default_rng(48)
    for _ in range(200):
        q = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 7))
        g = random_graph(n, q, rng)
        d = int(rng.integers(0, n))
        players = [v for v in range(n) if v != d]
        bits = int(rng.integers(0, 2 ** len(players)))
        b = [players[i] for i in range(len(players)) if bits >> i & 1]
        w = witness_D(g, d, b)
        assert (w is not None) == (pi_classical(g, d, b) == 1)
        if w is not None:
            # seen outside B exactly at the dealer, with multiplicity 1
            assert w.shape == (g.n,)
            nb = (g.gamma @ w) % g.q
            outside = [v for v in range(g.n) if v not in set(b)]
            assert {v for v in outside if nb[v]} == {d}
            assert nb[d] == 1


def test_witness_c_exists_iff_hidden():
    rng = np.random.default_rng(49)
    for _ in range(200):
        q = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(2, 7))
        g = random_graph(n, q, rng)
        d = int(rng.integers(0, n))
        players = [v for v in range(n) if v != d]
        bits = int(rng.integers(0, 2 ** len(players)))
        b = [players[i] for i in range(len(players)) if bits >> i & 1]
        w = witness_C(g, d, b)
        assert (w is not None) == (pi_classical(g, d, b) == 0)
        if w is not None:
            assert w.shape == (g.n,)
            assert w[d] == 1
            nb = (g.gamma @ w) % g.q
            assert all(nb[v] == 0 for v in b)
            assert set(np.flatnonzero(w).tolist()) <= set(range(g.n)) - set(b)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dealer_graphs(max_n=6))
def test_stacked_witnesses_are_the_lowest_pivot_solutions(dg):
    # every player set of the graph, both witness kinds, in one stacked
    # solve, against int_rref on each set's own unpadded system
    g, d = dg.graph, dg.dealer
    players = [v for v in range(g.n) if v != d]
    sets = list(all_subsets(players))
    rows = witness_rows(g, d, sets, sets)
    as_list = lambda vec: None if vec is None else vec.tolist()
    stacked_d, stacked_c = ([row.tolist() if ok else None for row, ok in zip(rows[k], rows[k + 1])] for k in (0, 2))
    for b, got_d, got_c in zip(sets, stacked_d, stacked_c):
        rest = [v for v in range(g.n) if v not in b]
        x = int_solve(g.gamma[np.ix_(rest, b)].tolist(), [int(v == d) for v in rest], len(b), g.q)
        assert got_d == (None if x is None else vector(g.n, dict(zip(b, x))).tolist())
        assert got_d == as_list(witness_D(g, d, b))
        pinned = g.gamma[np.ix_(b, rest)].tolist() + [[int(v == d) for v in rest]]
        x = int_solve(pinned, [0] * len(b) + [1], len(rest), g.q)
        assert got_c == (None if x is None else vector(g.n, dict(zip(rest, x))).tolist())
        assert got_c == as_list(witness_C(g, d, b))


def test_screening_form_supported_on_b_plus_dealer():
    # hiding witness for the far complement lives on B + {d}
    rs = rs747_fixture()
    b = (1, 2, 3, 7)
    far = [v for v in range(8) if v != 0 and v not in b]
    w = witness_C(rs.graph, 0, far)
    assert w is not None
    assert set(np.flatnonzero(w).tolist()) <= set(b) | {0}


PUBLISHED_WITNESS_TABLE = [
    # (B in listed order, D over B, C over (d, *B), D valid, C valid)
    ((7, 1, 2, 3), (1, 0, 0, 0), (1, 0, 6, 0, 0), True, False),
    ((6, 1, 2, 3), (1, 0, 0, 0), (1, 0, 2, 2, 1), True, True),
    ((5, 1, 2, 3), (1, 0, 0, 0), (1, 0, 3, 4, 1), True, False),
    ((4, 1, 2, 3), (1, 0, 0, 0), (1, 0, 4, 6, 2), True, False),
    ((6, 7, 2, 3), (3, 1, 0, 0), (1, 0, 0, 1, 3), True, True),
    ((6, 7, 1, 2), (1, 4, 0, 0), (1, 0, 0, 3, 6), True, True),
    ((6, 7, 1, 3), (4, 1, 0, 0), (1, 0, 0, 5, 5), True, True),
    ((5, 7, 2, 3), (3, 4, 0, 0), (1, 0, 0, 6, 1), True, True),
    ((5, 7, 1, 2), (1, 1, 0, 0), (1, 0, 0, 2, 1), True, True),
    ((5, 7, 1, 3), (4, 3, 0, 0), (1, 0, 0, 1, 4), False, True),
    ((4, 7, 2, 3), (4, 1, 0, 0), (1, 0, 0, 2, 2), True, True),
    ((4, 7, 1, 3), (3, 4, 0, 0), (1, 0, 0, 6, 1), True, True),
    ((5, 6, 1, 2), (3, 1, 0, 0), (1, 0, 0, 1, 3), True, True),
    ((5, 6, 1, 3), (1, 6, 0, 0), (1, 0, 0, 4, 3), True, True),
    ((5, 6, 7, 3), (2, 2, 1, 0), (1, 0, 0, 0, 2), True, True),
    ((5, 6, 7, 2), (4, 1, 1, 0), (1, 0, 0, 0, 5), True, True),
    ((5, 6, 7, 1), (5, 6, 1, 0), (1, 0, 0, 0, 6), True, True),
    ((4, 5, 7, 3), (1, 1, 1, 0), (1, 0, 0, 0, 6), True, True),
    ((4, 5, 7, 1), (4, 6, 1, 0), (1, 0, 0, 0, 3), True, True),
    ((4, 5, 7, 2), (6, 1, 4, 0), (1, 0, 0, 0, 3), True, True),
    ((4, 5, 6, 7), (5, 6, 1, 2), (1, 0, 0, 0, 0), True, True),
]


def _split_pair_checks(g, d, b, dvec, cvec):
    """The two halves of verify_witness_pairs' check, reported separately."""
    q = g.q
    nb_d = (g.gamma @ dvec) % q
    nb_c = (g.gamma @ cvec) % q
    outside = [v for v in range(g.n) if v not in set(b)]
    d_ok = {v for v in outside if nb_d[v]} == {d}
    far = [v for v in outside if v != d]
    c_ok = cvec[d] != 0 and all(nb_c[v] == 0 for v in far)
    return d_ok, c_ok


@pytest.mark.parametrize("row", range(len(PUBLISHED_WITNESS_TABLE)))
def test_published_witness_table_row(row):
    rs = rs747_fixture()
    g, d = rs.graph, rs.dealer
    b, d_tuple, c_tuple, want_d, want_c = PUBLISHED_WITNESS_TABLE[row]
    d_vec = vector(g.n, dict(zip(b, d_tuple)))
    c_vec = vector(g.n, dict(zip((d,) + b, c_tuple)))
    d_ok, c_ok = _split_pair_checks(g, d, b, d_vec, c_vec)
    assert d_ok == want_d
    assert c_ok == want_c
    assert verify_witness_pairs(g, d, [b], d_vec[None], c_vec[None]).tolist() == [want_d and want_c]
    # every set in the table is genuinely accessible and a valid pair exists
    assert quantum_derivative(g, d, b) == -1
    wd = witness_D(g, d, b)
    far = [v for v in range(8) if v != d and v not in b]
    wc = witness_C(g, d, far)
    assert wd is not None and wc is not None
    assert verify_witness_pairs(g, d, [b], wd[None], wc[None]).tolist() == [True]


def test_table_covers_every_support_pattern_once():
    seen = {frozenset(b) for b, *_ in PUBLISHED_WITNESS_TABLE}
    assert len(seen) == len(PUBLISHED_WITNESS_TABLE)


def test_verify_witness_pair_rejects_domain_violations():
    rs = rs747_fixture()
    b = [1, 2, 3, 7]
    with pytest.raises(ValueError, match="player set"):
        verify_witness_pairs(rs.graph, 0, [b], vector(8, {4: 1})[None], vector(8, {0: 1})[None])
    with pytest.raises(ValueError, match="dealer"):
        verify_witness_pairs(rs.graph, 0, [b], vector(8, {7: 1})[None], vector(8, {5: 1})[None])
    # without C the D domain is still checked
    with pytest.raises(ValueError, match="D is supported outside"):
        verify_witness_pairs(rs.graph, 0, [b], vector(8, {4: 1})[None], None)
    # a C domain violation raises even when D alone already fails
    with pytest.raises(ValueError, match="C is supported outside"):
        verify_witness_pairs(rs.graph, 0, [(6, 7, 2, 3)], vector(8, {6: 3, 7: 2})[None], vector(8, {5: 1})[None])
    # a vector of another length names no vertex set at all
    for call in PAIR_CALLS.values():
        with pytest.raises(ValueError, match="length 8"):
            call(rs.graph, 0, b, vector(9, {7: 1}), vector(8, {0: 1}))


def test_verify_witness_pair_rejects_zero_d():
    rs = rs747_fixture()
    zero = vector(8, {})[None]
    assert verify_witness_pairs(rs.graph, 0, [[1, 2, 3, 7]], zero, vector(8, {0: 1})[None]).tolist() == [False]
    assert verify_witness_pairs(rs.graph, 0, [[1, 2, 3, 7]], zero, None).tolist() == [False]


def test_verify_witness_pair_perturbation_breaks():
    # the pair, D perturbed and C perturbed, stacked on one player set
    rs = rs747_fixture()
    b = (6, 7, 2, 3)
    d_rows = np.stack([vector(8, {6: 3, 7: 1}), vector(8, {6: 3, 7: 2}), vector(8, {6: 3, 7: 1})])
    c_rows = np.stack([vector(8, {0: 1, 2: 1, 3: 3}), vector(8, {0: 1, 2: 1, 3: 3}), vector(8, {0: 1, 2: 1, 3: 4})])
    assert verify_witness_pairs(rs.graph, 0, [b] * 3, d_rows, c_rows).tolist() == [True, False, False]
    # with c_rows None only D is checked
    assert verify_witness_pairs(rs.graph, 0, [b] * 3, d_rows, None).tolist() == [True, False, True]


def _decode_params_t0(*args):
    row, offset = decode_params(*args, 0)
    return row.tolist(), offset


# the one-set entry points of a witness pair, called as f(g, d, B, D, C),
# their rows as lists so that two results compare with ==
PAIR_CALLS = {
    "decode_params": _decode_params_t0,
    "code_unitaries": lambda *args: code_unitaries(*args).tolist(),
}


@pytest.mark.parametrize("name", sorted(PAIR_CALLS))
def test_pair_calls_name_a_missing_d(name):
    g = star3()
    with pytest.raises(ValueError, match="witness(es)? D|both witnesses"):
        PAIR_CALLS[name](g, 0, [1, 2], None, None)


@pytest.mark.parametrize("name", sorted(PAIR_CALLS))
def test_pair_calls_reject_non_integral_entries(name):
    g = star3()
    half = np.array([0, 1.5, 0])
    with pytest.raises(ValueError, match="witness D must be integers"):
        PAIR_CALLS[name](g, 0, [1, 2], half, vector(3, {0: 1}))
    with pytest.raises(ValueError, match="witness C must be integers"):
        PAIR_CALLS[name](g, 0, [1, 2], vector(3, {1: 1}), np.array([1.0, 0.5, 0.0]))
    # integral floats pass as the integers they hold
    want = PAIR_CALLS[name](g, 0, [1, 2], vector(3, {1: 1}), vector(3, {0: 1}))
    assert PAIR_CALLS[name](g, 0, [1, 2], np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])) == want


# ---------------------------------------------------------------- dealer kernel


def test_dealer_kernel_witness_star():
    g = star3()
    w = dealer_kernel_witness(g, 0, [1, 2])
    assert w.tolist() == [0, 1, 0]
    assert min_support_kernel_element(g, 0, [1, 2]) == 1


def test_dealer_kernel_witness_requires_accessible_set():
    g = star3()
    assert quantum_derivative(g, 0, [1]) == 0
    for probe in (dealer_kernel_witness, kernel_slice_columns, min_support_kernel_element):
        with pytest.raises(ValueError, match="derivative -1"):
            probe(g, 0, [1])


def test_kernel_slice_columns_accepts_exactly_the_accessible_sets():
    # kernel_slice_columns reads accessibility off its own basis (the proof in
    # its docstring); against the batched derivative on every order-4 graph
    # over F_3, graph i with dealer i mod 4, so every dealer meets every
    # player set (the empty one included) on 182 or 183 graphs
    n, q = 4, 3
    gammas = _gamma_from_index(np.arange(q ** (n * (n - 1) // 2)), n, q)
    accessible = 0
    for d in range(n):
        players = [v for v in range(n) if v != d]
        sets = [b for size in range(n) for b in combinations(players, size)]
        derivatives = batch_indicators(gammas[d::n], q, d, _index_array(sets))[1]
        for gamma, row in zip(gammas[d::n], derivatives):
            g = Multigraph(q, gamma)
            for b, der in zip(sets, row):
                try:
                    kernel_slice_columns(g, d, b)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == (der == -1), (gamma.tolist(), d, b)
                accessible += accepted
    assert 0 < accessible < len(gammas) * 2 ** (n - 1)


def _kernel_member(g, d, cols, vec):
    rows = [v for v in range(g.n) if v not in set(cols)]
    if rows:
        if ((g.gamma[np.ix_(rows, cols)] @ vec) % g.q).any():
            return False
    return vec[0] != 0 or int(g.gamma[d, cols] @ vec) % g.q != 0


def test_dealer_kernel_witness_rs747_all_quads():
    rs = rs747_fixture()
    g, d = rs.graph, rs.dealer
    for b in combinations(range(1, 8), 4):
        w = dealer_kernel_witness(g, d, b)
        assert w.shape == (8,) and 1 <= np.count_nonzero(w) <= 3
        cols = [d] + list(b)
        vec = w[cols]
        assert _kernel_member(g, d, cols, vec)


@pytest.mark.parametrize("n, q, count", [(4, 3, 2088), (5, 2, 4840)])
def test_echelon_pair_support_on_every_small_graph(n, q, count):
    # the proof in dealer_kernel_witness: C1 and C2 are supported on their
    # own pivot coordinates and the rank M non-pivot ones, so their joint
    # support is at most rank M + 2 = cutrk(B) + 1; every accessible set of
    # every graph of the order, dealer 0, ranked by one batch_indicators call
    sets = [b for size in range(1, n) for b in combinations(range(1, n), size)]
    gammas = _gamma_from_index(np.arange(q ** (n * (n - 1) // 2)), n, q)
    derivatives = batch_indicators(gammas, q, 0, _index_array(sets))[1]
    instances = tight = 0
    for gamma, row in zip(gammas, derivatives):
        g = Multigraph(q, gamma)
        for b in (b for b, der in zip(sets, row) if der == -1):
            basis, d_row, cols = kernel_slice_columns(g, 0, b)
            seen = np.flatnonzero(d_row @ basis[:, 1:] % q)
            joint = np.count_nonzero(basis[:, 0] | basis[:, 1 + seen[0]])
            rank_m = len(cols) - basis.shape[1]
            assert joint <= rank_m + 2 and rank_m == cutrank(g, b) - 1
            if (n, q) == (4, 3):
                # the basis is in reduced column echelon form, its transpose
                # its own RREF with a pivot in every row, and spans ker M: it
                # lies in it and has as many columns as ker M has dimensions
                echelon, pivots = int_rref(basis.T.tolist(), q)
                assert echelon == basis.T.tolist() and len(pivots) == basis.shape[1]
                m = g.gamma[np.ix_([v for v in range(n) if v not in cols], cols)]
                assert not (m @ basis % q).any() and rank_m == int_rank(m.tolist(), q)
            instances, tight = instances + 1, tight + (joint == rank_m + 2)
    assert instances == count and tight > 0  # the bound is attained


def test_dealer_kernel_size_formula():
    # kernel membership count is (q^2 - 1) q^t whenever the derivative is -1
    rng = np.random.default_rng(50)
    checked = 0
    while checked < 60:
        q = int(rng.choice([2, 3]))
        n = int(rng.integers(3, 6))
        g = random_graph(n, q, rng)
        d = int(rng.integers(0, n))
        players = [v for v in range(n) if v != d]
        bits = int(rng.integers(1, 2 ** len(players)))
        b = tuple(players[i] for i in range(len(players)) if bits >> i & 1)
        if quantum_derivative(g, d, b) != -1:
            continue
        basis, d_row, cols = kernel_slice_columns(g, d, b)
        k = basis.shape[1]
        members = 0
        for coeffs in product(range(q), repeat=k):
            vec = (basis @ np.array(coeffs, dtype=np.int64)) % q
            if vec[0] != 0 or int(d_row @ vec) % q != 0:
                members += 1
        assert members == (q * q - 1) * q ** (k - 2)
        checked += 1


def test_slice_minimum_upper_bounds_exact_minimum():
    # the echelon-pair slice is inside the kernel, so its minimum cannot
    # beat the exact kernel-wide minimum
    rng = np.random.default_rng(51)
    checked = 0
    while checked < 80:
        q = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(3, 7))
        g = random_graph(n, q, rng)
        d = int(rng.integers(0, n))
        players = [v for v in range(n) if v != d]
        bits = int(rng.integers(1, 2 ** len(players)))
        b = tuple(players[i] for i in range(len(players)) if bits >> i & 1)
        if quantum_derivative(g, d, b) != -1:
            continue
        w = dealer_kernel_witness(g, d, b)
        exact = min_support_kernel_element(g, d, b)
        assert exact <= np.count_nonzero(w)
        checked += 1


def _looped_probes(g, d, b):
    """dealer_kernel_witness and min_support_kernel_element as loops over
    itertools.product, the references of their one-product forms: the
    slice element of least (support, entries) and the least support of
    every basis combination nonzero at d or with a nonzero image at d."""
    basis, d_row, cols = kernel_slice_columns(g, d, b)
    q = g.q
    seen = np.flatnonzero(d_row @ basis[:, 1:] % q)
    c1, c2 = basis[:, 0], basis[:, 1 + seen[0]]
    members = [(x * c1 + y * c2) % q for x, y in product(range(q), repeat=2) if x or y]
    witness = np.zeros(g.n, dtype=np.int64)
    witness[cols] = min(members, key=lambda v: (int(np.count_nonzero(v)), v.tolist()))
    best = None
    for coeffs in product(range(q), repeat=basis.shape[1]):
        vec = (basis @ np.array(coeffs, dtype=np.int64)) % q
        if vec[0] == 0 and int(d_row @ vec) % q == 0:
            continue
        size = int(np.count_nonzero(vec))
        if best is None or size < best:
            best = size
    return witness, best


@pytest.mark.parametrize("q", [2, 3, 5])
def test_kernel_probes_match_their_loops(q):
    # every accessible set of two seeded graphs per order 2..6, every dealer
    rng = np.random.default_rng(q)
    checked = 0
    for n in range(2, 7):
        for _ in range(2):
            g = random_graph(n, q, rng)
            for d in range(n):
                players = [v for v in range(n) if v != d]
                for b in all_subsets(players):
                    if quantum_derivative(g, d, b) != -1:
                        continue
                    witness, best = _looped_probes(g, d, b)
                    got = dealer_kernel_witness(g, d, b)
                    assert got.dtype == np.int64 and got.tolist() == witness.tolist(), (g.gamma.tolist(), d, b)
                    assert min_support_kernel_element(g, d, b) == best, (g.gamma.tolist(), d, b)
                    checked += 1
    assert checked >= 200


def test_min_support_budget_guard(monkeypatch):
    rs = rs747_fixture()
    monkeypatch.setattr(qss.access, "KERNEL_BUDGET", 10)
    with pytest.raises(ValueError, match="budget|too large"):
        min_support_kernel_element(rs.graph, 0, [1, 2, 3, 7])
