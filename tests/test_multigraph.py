"""Graphs over F_q, neighbour multisets as vectors, and the text graph format.

The 5-vertex worked example used throughout comes in two variants: the
adjacency matrix as printed (no v1-v2 edge) and a figure variant with a
weight-1 v1-v2 edge added. The narrative neighbour claims hold
for the figure variant; both are pinned so a regression in either direction
is caught. Vertices v1..v5 are indices 0..4.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qss.access import cutrank
from qss.multigraph import (
    DealerGraph,
    Multigraph,
    cut_matrix,
    delete_vertex,
    local_complement,
    parse_graph,
    random_graph,
    rs747_fixture,
    serialize_graph,
)

PRINTED_GAMMA = np.array(
    [
        [0, 0, 1, 0, 1],
        [0, 0, 2, 0, 1],
        [1, 2, 0, 2, 0],
        [0, 0, 2, 0, 2],
        [1, 1, 0, 2, 0],
    ]
)


def printed_example():
    return Multigraph(3, PRINTED_GAMMA)


def figure_example():
    gamma = PRINTED_GAMMA.copy()
    gamma[0, 1] = gamma[1, 0] = 1
    return Multigraph(3, gamma)


def star(q, n):
    gamma = np.zeros((n, n), dtype=np.int64)
    gamma[0, 1:] = 1
    gamma[1:, 0] = 1
    return Multigraph(q, gamma)


def path3(q):
    return Multigraph(q, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


# ------------------------------------------------------------- construction


def test_graph_rejects_asymmetry():
    with pytest.raises(ValueError, match="symmetric"):
        Multigraph(3, [[0, 1], [2, 0]])


def test_graph_rejects_loops():
    with pytest.raises(ValueError, match="loop"):
        Multigraph(3, [[1, 0], [0, 0]])


def test_graph_rejects_out_of_range_weights():
    with pytest.raises(ValueError, match="multiplicities"):
        Multigraph(3, [[0, 3], [3, 0]])
    with pytest.raises(ValueError, match="multiplicities"):
        Multigraph(3, [[0, -1], [-1, 0]])


def test_graph_rejects_non_integral_entries():
    # an entry is never truncated: 1.5 would read as an edge of multiplicity 1
    with pytest.raises(ValueError, match="integers"):
        Multigraph(3, [[0, 1.5], [1.5, 0]])
    # an entry beyond int64 raises ValueError, not OverflowError
    with pytest.raises(ValueError, match="integers"):
        Multigraph(3, np.array([[0, 2**64], [2**64, 0]], dtype=object))
    # integral floats pass: the search builds its found graph from float digits
    g = Multigraph(3, np.array([[0.0, 2.0], [2.0, 0.0]], dtype=np.float32))
    assert g.gamma.dtype == np.int64 and g.gamma.tolist() == [[0, 2], [2, 0]]


def test_graph_rejects_nonsquare_and_nonprime():
    with pytest.raises(ValueError, match="square"):
        Multigraph(3, [[0, 1, 0], [1, 0, 0]])
    with pytest.raises(ValueError, match="prime"):
        Multigraph(4, [[0, 1], [1, 0]])


def test_edges_listing_row_major():
    g = printed_example()
    assert g.edges() == [(0, 2, 1), (0, 4, 1), (1, 2, 2), (1, 4, 1), (2, 3, 2), (3, 4, 2)]
    assert g.degree(2) == 3


def test_dealer_graph_rejects_isolated_dealer():
    g = Multigraph(3, [[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    with pytest.raises(ValueError, match="isolated"):
        DealerGraph(g, 0)
    dg = DealerGraph(g, 1)
    assert dg.players == (0, 2)


def test_dealer_graph_range_check():
    g = path3(3)
    with pytest.raises(ValueError, match="range"):
        DealerGraph(g, 3)


# ------------------------------------------------------- worked 5-vertex example


def neighbors_multiset(g: Multigraph, d) -> list[int]:
    """Neighbour multiset Gamma.D over the full vertex set, as a list of
    residues, for a length-n vertex multiset D."""
    return (g.gamma @ np.asarray(d) % g.q).tolist()


def test_neighbors_printed_matrix():
    g = printed_example()
    a = np.array([1, 1, 0, 0, 0])
    d = np.array([2, 1, 0, 0, 0])
    assert neighbors_multiset(g, a) == [0, 0, 0, 0, 2]
    assert neighbors_multiset(g, d) == [0, 0, 1, 0, 0]


def test_neighbors_figure_variant_matches_narrative():
    g = figure_example()
    a = np.array([1, 1, 0, 0, 0])
    d = np.array([2, 1, 0, 0, 0])
    assert neighbors_multiset(g, a) == [1, 1, 0, 0, 2]
    assert neighbors_multiset(g, d) == [1, 2, 1, 0, 0]


def test_neighbors_accepts_plain_list():
    g = printed_example()
    assert neighbors_multiset(g, [2, 1, 0, 0, 0]) == [0, 0, 1, 0, 0]


# ------------------------------------------------------------ local operations


def test_delete_vertex_reindexes():
    g = figure_example()
    h = delete_vertex(g, 2)
    assert h.n == 4
    # old vertices 0,1,3,4 -> new 0,1,2,3; old (3,4) weight 2 survives as (2,3)
    assert h.gamma[2, 3] == 2
    assert h.gamma[0, 1] == 1
    with pytest.raises(ValueError, match="range"):
        delete_vertex(g, 5)


def test_local_complement_path_creates_edge():
    g = path3(2)
    h = local_complement(g, 1, 1)
    assert h.gamma[0, 2] == 1
    assert h.gamma[0, 1] == 1 and h.gamma[1, 2] == 1


def test_local_complement_inverse():
    rng = np.random.default_rng(21)
    for q in (3, 5):
        for _ in range(30):
            g = random_graph(5, q, rng)
            lam = int(rng.integers(1, q))
            h = local_complement(local_complement(g, 2, lam), 2, (-lam) % q)
            assert h == g


def test_local_complement_preserves_cutrank():
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 1000:
        q = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(3, 7))
        g = random_graph(n, q, rng)
        u = int(rng.integers(0, n))
        lam = int(rng.integers(1, q))
        h = local_complement(g, u, lam)
        bits = int(rng.integers(1, 2**n - 1))
        b = frozenset(v for v in range(n) if bits >> v & 1)
        assert cutrank(g, b) == cutrank(h, b)
        checked += 1


# ------------------------------------------------------------------ cut matrix


def test_cut_matrix_rs747_row():
    rs = rs747_fixture()
    m = cut_matrix(rs.graph, [7], [1, 2, 3])
    assert m.tolist() == [[4, 3, 6]]


def test_cut_matrix_orders_and_validates():
    g = figure_example()
    m = cut_matrix(g, [4, 0], [2, 1])
    assert m.shape == (2, 2)
    assert m.tolist() == [[1, 1], [1, 0]]  # rows 0,4 x cols 1,2
    with pytest.raises(ValueError, match="overlap"):
        cut_matrix(g, [0, 1], [1, 2])
    with pytest.raises(ValueError, match="subsets"):
        cut_matrix(g, [0], [9])


def test_cut_matrix_empty_side():
    g = figure_example()
    assert cut_matrix(g, [], [0, 1]).shape == (0, 2)


# ---------------------------------------------------------------- random graphs


def test_random_graph_deterministic_per_seed():
    a = random_graph(6, 5, 123)
    b = random_graph(6, 5, 123)
    c = random_graph(6, 5, 124)
    assert a == b
    assert a != c


def _upper_triangle_fill(n, q, rng):
    """random_graph's reference: one draw per edge slot, filled into the
    upper triangle row by row and mirrored."""
    gamma = np.zeros((n, n), dtype=np.int64)
    iu = np.triu_indices(n, 1)
    gamma[iu] = rng.integers(0, q, size=len(iu[0]))
    gamma += gamma.T
    return gamma


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_random_graph_matches_the_upper_triangle_fill(q):
    # the same graph from the same draws, and the generator left at the
    # same state, from an int seed and from a Generator
    for n in range(13):
        for seed in (0, 1, 47, 2026):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            g = random_graph(n, q, rng)
            assert g.n == n and g.gamma.dtype == np.int64
            assert np.array_equal(g.gamma, _upper_triangle_fill(n, q, ref))
            assert rng.integers(0, 2**62) == ref.integers(0, 2**62)
            assert random_graph(n, q, seed) == g


def test_random_graph_uniform_edge_weights():
    # single edge slot at n=2: weight counts should be uniform over F_5
    q, draws = 5, 10_000
    rng = np.random.default_rng(31)
    counts = np.zeros(q, dtype=np.int64)
    for _ in range(draws):
        counts[random_graph(2, q, rng).gamma[0, 1]] += 1
    expect = draws / q
    sigma = (draws * (1 / q) * (1 - 1 / q)) ** 0.5
    assert (np.abs(counts - expect) <= 3 * sigma).all(), counts


# ----------------------------------------------------------------- text format


def test_parse_serialize_roundtrip():
    g = figure_example()
    assert parse_graph(serialize_graph(g)) == g
    rs = rs747_fixture().graph
    assert parse_graph(serialize_graph(rs)) == rs


def test_parse_handles_comments_and_blanks():
    text = """
# a 3-cycle over F_2
q 2
n 3

e 0 1 1   # first
e 0 2 1
e 1 2 1
"""
    g = parse_graph(text)
    assert g.edges() == [(0, 1, 1), (0, 2, 1), (1, 2, 1)]


PARSE_MESSAGES = [
    ("q 3\n", "graph text needs 'q' and 'n' header lines"),
    ("p 3\nn 2\n", "malformed modulus line: 'p 3'"),
    ("q 4\nn 2\n", "modulus must be a prime, got 4"),
    ("q 3\nm 2\n", "malformed order line: 'm 2'"),
    ("q x\nn 2\n", "malformed header: invalid literal for int() with base 10: 'x'"),
    ("q 3\nn -1\n", "order must be nonnegative, got -1"),
    ("q 3\nn 2\ne 0 1\n", "malformed edge line: 'e 0 1'"),
    ("q 3\nn 2\ne 0 1 1 1\n", "malformed edge line: 'e 0 1 1 1'"),
    ("q 3\nn 2\nf 0 1 1\n", "malformed edge line: 'f 0 1 1'"),
    ("q 3\nn 2\ne 0 x 1\n", "malformed edge line: 'e 0 x 1'"),
    ("q 3\nn 2\ne 0 1 1.0\n", "malformed edge line: 'e 0 1 1.0'"),
    ("q 3\nn 2\ne 1 0 1\n", "edge endpoints must satisfy u < v: 'e 1 0 1'"),
    ("q 3\nn 3\ne 2 1 0\n", "edge endpoints must satisfy u < v: 'e 2 1 0'"),
    ("q 3\nn 2\ne 1 1 1\n", "self-loop on vertex 1"),
    ("q 3\nn 3\ne 2 2 9\n", "self-loop on vertex 2"),
    ("q 3\nn 2\ne 0 2 1\n", "edge endpoint out of range: 'e 0 2 1'"),
    ("q 3\nn 2\ne -1 1 1\n", "edge endpoint out of range: 'e -1 1 1'"),
    ("q 3\nn 2\ne 0 1 0\n", "edge multiplicity must be in [1, 3): 'e 0 1 0'"),
    ("q 3\nn 2\ne 0 1 3\n", "edge multiplicity must be in [1, 3): 'e 0 1 3'"),
    ("q 3\nn 2\ne 0 1 1\ne 0 1 2\n", "duplicate edge line for (0, 1)"),
]


def test_parse_error_cases():
    for text, message in PARSE_MESSAGES:
        with pytest.raises(ValueError) as err:
            parse_graph(text)
        assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ("q 3\nn 3\ne 0 5 1\ne 1 1 1\n", "edge endpoint out of range: 'e 0 5 1'"),
    ("q 3\nn 3\ne 1 1 1\ne 0 5 1\n", "self-loop on vertex 1"),
    ("q 3\nn 3\ne 0 1 1\ne 1 2 1\ne 0 1 1\ne 1 2 2\n", "duplicate edge line for (0, 1)"),
    ("q 3\nn 3\ne 1 2 1\ne 0 1 1\ne 1 2 1\ne 0 1 1\n", "duplicate edge line for (1, 2)"),
    ("q 3\nn 3\ne 0 1 1\ne 0 1 2\ne 0 5 1\n", "duplicate edge line for (0, 1)"),
    ("q 3\nn 3\ne 0 5 1\ne 0 1 1\ne 0 1 2\n", "edge endpoint out of range: 'e 0 5 1'"),
])
def test_parse_names_the_first_bad_line(text, message):
    with pytest.raises(ValueError) as err:
        parse_graph(text)
    assert str(err.value) == message


def test_parse_handles_extra_spaces_and_trailing_comments():
    text = "  q   3 # field\n\n\tn 4\n# e 0 1 1\ne   0 3\t2   \n   \ne 1 2 1#\n"
    assert parse_graph(text).edges() == [(0, 3, 2), (1, 2, 1)]


def reference_parse(text):
    """A pure-Python parse of a valid graph text: (q, n, gamma as nested lists)."""
    lines = [line.split("#")[0].split() for line in text.splitlines()]
    (_, q), (_, n), *edges = [[int(t) if t.lstrip("-").isdigit() else t for t in tok] for tok in lines if tok]
    gamma = [[0] * n for _ in range(n)]
    for _, u, v, w in edges:
        gamma[u][v] = gamma[v][u] = w
    return q, n, gamma


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_parse_round_trip_matches_a_reference_parser(data):
    q = data.draw(st.sampled_from([2, 3, 5, 7]))
    n = data.draw(st.integers(0, 7))
    gamma = np.zeros((n, n), dtype=np.int64)
    gamma[np.triu_indices(n, 1)] = data.draw(st.lists(st.integers(0, q - 1), min_size=n * (n - 1) // 2,
                                                      max_size=n * (n - 1) // 2))
    g = Multigraph(q, gamma + gamma.T)
    lines = serialize_graph(g).splitlines()
    # the edge lines in any order, each with spaces, a comment or a blank line around it
    lines[2:] = data.draw(st.permutations(lines[2:]))
    pad = st.sampled_from(["", " ", "\t", "  "])
    text = "".join(data.draw(pad) + line.replace(" ", data.draw(pad) + " ") + data.draw(pad)
                   + data.draw(st.sampled_from(["", " # note", "#"])) + data.draw(st.sampled_from(["\n", "\n\n"]))
                   for line in lines)
    parsed = parse_graph(text)
    assert parsed == g
    assert (parsed.q, parsed.n, parsed.gamma.tolist()) == reference_parse(text)


def test_parse_edgeless_graph():
    g = parse_graph("q 5\nn 4\n")
    assert g.n == 4 and not g.edges()


# -------------------------------------------------------------------- fixtures


def test_rs747_fixture_edge_table():
    rs = rs747_fixture()
    assert rs.dealer == 0
    assert rs.graph.n == 8
    assert rs.graph.q == 7
    want = {
        (0, 4): 6, (0, 5): 3, (0, 6): 4, (0, 7): 1,
        (1, 4): 6, (2, 4): 3, (3, 4): 4,
        (1, 5): 4, (2, 5): 1, (3, 5): 1,
        (1, 6): 1, (2, 6): 1, (3, 6): 4,
        (1, 7): 4, (2, 7): 3, (3, 7): 6,
    }
    assert {(u, v): w for u, v, w in rs.graph.edges()} == want
    # outer-layer players are pairwise non-adjacent
    assert rs.graph.gamma[1, 2] == 0
    assert rs.graph.gamma[0, 7] == 1
