"""Graphs over F_q, neighbour multisets as vectors, and the text graph format.

The 5-vertex worked example used throughout comes in two variants: the
adjacency matrix as printed (no v1-v2 edge) and a figure variant with a
weight-1 v1-v2 edge added. The narrative neighbour claims hold
for the figure variant; both are pinned so a regression in either direction
is caught. Vertices v1..v5 are indices 0..4.
"""

import numpy as np
import pytest

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
    assert dg.n_players == 2


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


def test_parse_error_cases():
    with pytest.raises(ValueError, match="header"):
        parse_graph("q 3\n")
    with pytest.raises(ValueError, match="modulus"):
        parse_graph("p 3\nn 2\n")
    with pytest.raises(ValueError, match="prime"):
        parse_graph("q 4\nn 2\n")
    with pytest.raises(ValueError, match="order"):
        parse_graph("q 3\nm 2\n")
    with pytest.raises(ValueError, match="edge line"):
        parse_graph("q 3\nn 2\ne 0 1\n")
    with pytest.raises(ValueError, match="u < v"):
        parse_graph("q 3\nn 2\ne 1 0 1\n")
    with pytest.raises(ValueError, match="self-loop"):
        parse_graph("q 3\nn 2\ne 1 1 1\n")
    with pytest.raises(ValueError, match="out of range"):
        parse_graph("q 3\nn 2\ne 0 2 1\n")
    with pytest.raises(ValueError, match="multiplicity"):
        parse_graph("q 3\nn 2\ne 0 1 0\n")
    with pytest.raises(ValueError, match="multiplicity"):
        parse_graph("q 3\nn 2\ne 0 1 3\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_graph("q 3\nn 2\ne 0 1 1\ne 0 1 2\n")


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
