"""Threshold extraction, exhaustive enumeration, and random trials.

The batched search paths are compared with scalar references built on the
pure-int `int_rank`, which never runs the package's rank kernel, including
hypothesis property tests.
"""

import dataclasses
import os
import tempfile
import tracemalloc
from functools import lru_cache
from itertools import combinations, islice, product
from math import ceil, comb, isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qss.fqlinalg
import qss.search
from qss.access import (
    _border_indicators,
    _bordered_spans,
    _gather_index,
    _index_array,
    _zero_vertex,
    batch_indicators,
    quantum_derivative,
)
from qss.fqlinalg import _residues
from qss.multigraph import DealerGraph, Multigraph, local_complement, parse_graph, random_graph, rs747_fixture
from qss.multigraph import _slot_map
from qss.search import (
    TRIAL_CHUNK,
    batch_accessible_at_k,
    exhaustive_search,
    is_scheme,
    random_trials,
    scheme_k,
)
from qss.search import (
    BLOCK,
    BLOCK_BYTES,
    BLOCK_CAP,
    GROWTH,
    PLAN_CACHE,
    _block_index,
    _first_failure,
    _gamma_from_index,
    _graphs_realising_k,
    _plan,
    _some_set_fails,
    _worst_unauthorized,
)

from helpers import dealer_graphs, int_rank, int_rref, sufficient_by_cut_ranks


def star3(q=3):
    return DealerGraph(Multigraph(q, [[0, 1, 1], [1, 0, 0], [1, 0, 0]]), 0)


def random_dealer_graph(rng, n, q):
    while True:
        g = random_graph(n, q, rng)
        if g.degree(0) > 0:
            return DealerGraph(g, 0)


@lru_cache(maxsize=None)
def _cut_rank(q, cut):
    return int_rank(cut, q)


def _scalar_derivative(gamma, q, d, b):
    def cutrank(s):
        return _cut_rank(q, tuple(tuple(gamma[u][v] for v in range(len(gamma)) if v not in s) for u in s))

    return cutrank(tuple(sorted(b + (d,)))) - cutrank(b)


def _has_access(dg, b):
    return _scalar_derivative(dg.graph.gamma.tolist(), dg.graph.q, dg.dealer, b) == -1


def scheme_k_windows(dg):
    """scheme_k's two lists of size windows for dg's p players: one window
    of sizes p - 1 down to p // 2, and one window per size from p // 2 up."""
    p = len(dg.players)
    return [tuple(range(p - 1, p // 2 - 1, -1))], [(size,) for size in range(p // 2, p)]


def naive_scheme_k(dg):
    """Unpruned reference: largest non-accessible player set, plus one."""
    worst = 0
    players = dg.players
    for size in range(1, len(players) + 1):
        for b in combinations(players, size):
            if not _has_access(dg, b):
                worst = max(worst, size)
    return worst + 1


def scalar_is_scheme(dg, k):
    """(ok, counterexample) of is_scheme by one int_rank derivative per set."""
    for b in combinations(dg.players, k):
        if not _has_access(dg, b):
            return False, b
    tight = any(not _has_access(dg, b) for b in combinations(dg.players, k - 1))
    return tight, None


def scalar_first_scheme(n, q, k, dealer_fixed):
    """(index, checked) of the first scheme graph by a per-index scalar scan:
    the definition of is_scheme evaluated with int_rank, one graph and one
    set at a time, cut ranks memoised on the cut matrix."""
    slots = list(combinations(range(n), 2))
    for index, digits in enumerate(product(range(q), repeat=len(slots))):
        gamma = [[0] * n for _ in range(n)]
        for (u, v), w in zip(slots, digits):
            gamma[u][v] = gamma[v][u] = w
        for d in (0,) if dealer_fixed else range(n):
            players = [v for v in range(n) if v != d]
            if (
                any(gamma[d])
                and all(_scalar_derivative(gamma, q, d, b) == -1 for b in combinations(players, k))
                and any(_scalar_derivative(gamma, q, d, b) != -1 for b in combinations(players, k - 1))
            ):
                return index, index + 1
    return None, q ** len(slots)


# -------------------------------------------------------------------- scheme_k


def test_scheme_k_star_and_edge():
    rep = scheme_k(star3())
    assert rep.k == 2
    assert rep.n_players == 2
    assert rep.worst_unauthorized == (1,)

    edge = DealerGraph(Multigraph(2, [[0, 1], [1, 0]]), 0)
    rep = scheme_k(edge)
    assert rep.k == 1
    assert rep.worst_unauthorized == ()


def test_scheme_k_rs747():
    rep = scheme_k(rs747_fixture())
    assert rep.k == 4
    assert rep.n_players == 7
    # pinned: recorded on the two-rank-call derivative kernel, which every
    # later kernel must reproduce
    assert rep.worst_unauthorized == (1, 2, 3)


def test_scheme_k_matches_naive_scan():
    rng = np.random.default_rng(61)
    for _ in range(200):
        q = int(rng.choice([2, 3]))
        n = int(rng.integers(3, 7))
        dg = random_dealer_graph(rng, n, q)
        assert scheme_k(dg).k == naive_scheme_k(dg)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(dealer_graphs(max_n=8))
def test_scheme_k_matches_unpruned_reference(dg):
    rep = scheme_k(dg)
    k = naive_scheme_k(dg)
    assert (rep.k, rep.n_players) == (k, len(dg.players))
    # the lexicographically first unauthorized set of the largest such size
    unauthorized = [b for b in combinations(dg.players, k - 1) if not _has_access(dg, b)]
    assert rep.worst_unauthorized == unauthorized[0]


@pytest.mark.parametrize("q, seed", [(2, 1), (3, 2), (5, 3)])
def test_scheme_k_scans_upwards_at_order_13(q, seed):
    # 12 players: the 2,509 sets of sizes 6 to 11 exceed one block, so
    # scheme_k scans upwards; both orders must give the int reference
    dg = random_dealer_graph(np.random.default_rng(seed), 13, q)
    assert sum(comb(12, size) for size in range(6, 12)) > BLOCK_CAP
    rep, k = scheme_k(dg), naive_scheme_k(dg)
    unauthorized = [b for b in combinations(dg.players, k - 1) if not _has_access(dg, b)]
    assert (rep.k, rep.worst_unauthorized) == (k, unauthorized[0])
    one, per_size = scheme_k_windows(dg)
    assert _worst_unauthorized(dg, per_size) == _worst_unauthorized(dg, one) == unauthorized[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dealer_graphs(), st.data())
def test_cut_rank_invariances_keep_every_derivative(dg, data):
    # relabelling the players (dealer fixed), scaling Gamma -> D Gamma D and
    # local complementation keep every cut rank, so the threshold workloads
    # may run relabelled copies of one graph
    g, d = dg.graph, dg.dealer
    q, n = g.q, g.n
    players = np.array(dg.players)
    perm = np.arange(n)
    perm[players] = data.draw(st.permutations(dg.players))
    relabelled = np.empty_like(g.gamma)
    relabelled[np.ix_(perm, perm)] = g.gamma
    scale = np.array(data.draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n)))
    scaled = scale[:, None] * g.gamma * scale[None, :] % q
    lc = local_complement(g, data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, q - 1))).gamma
    k = scheme_k(dg).k
    for gamma in (relabelled, scaled, lc):
        assert scheme_k(DealerGraph(Multigraph(q, gamma), d)).k == k
    for size in range(len(players) + 1):
        subsets = np.array(list(combinations(dg.players, size)), dtype=np.intp)
        images = np.sort(perm[subsets], axis=1)
        want = batch_indicators(g.gamma[None], q, d, subsets)[1]
        assert np.array_equal(batch_indicators(relabelled[None], q, d, images)[1], want)
        assert np.array_equal(batch_indicators(np.stack([scaled, lc]), q, d, subsets)[1], np.vstack([want, want]))


@pytest.mark.parametrize("count", [1, 3, 300])
def test_first_failure_across_blocks(count):
    # order-14 graphs over F_7: the downward scan of sizes 12 to 7 lists
    # 4,095 player sets, several blocks however many graphs are live, in
    # two plans. The stack keeps the graphs of a larger random pool whose
    # lexicographic first failures lie deepest, so a set taken from a wrong
    # block or plan differs
    rng = np.random.default_rng(70 + count)
    n, q = 14, 7
    iu = np.triu_indices(n, 1)
    pool = np.zeros((count + 16, n, n), dtype=np.int64)
    pool[:, iu[0], iu[1]] = rng.integers(0, q, size=(len(pool), len(iu[0])))
    pool += np.transpose(pool, (0, 2, 1))
    firsts = {}
    for sizes in ((12, 11, 10, 9, 8, 7), (12,)):
        stream = _index_array([b for size in sizes for b in combinations(range(1, n), size)])
        # ranked 512 sets at a time, so the reference stays a few MiB
        failing = np.hstack([batch_indicators(pool, q, 0, stream[i : i + 512])[1] != -1
                             for i in range(0, len(stream), 512)])
        want = np.where(failing.any(axis=1), failing.argmax(axis=1), len(stream))
        if len(sizes) > 1:
            deepest = np.argsort(-want, kind="stable")[:count]
        want = want[deepest]
        got = _first_failure(pool[deepest], q, 0, sizes)
        assert got.dtype == np.int64 and got.tolist() == [j if j < len(stream) else -1 for j in want]
        firsts[sizes[-1]] = want
    # every first failure lies past the first block
    assert (firsts[7] >= max(1, BLOCK // count)).all()
    if count == 1:
        # a lone graph is ranked in blocks of BLOCK and GROWTH * BLOCK sets,
        # then up to the plan end at BLOCK_CAP: its first failure lies past
        # the second block, so a set taken from a wrongly grown block fails
        # the comparison above
        assert firsts[7][0] > BLOCK + GROWTH * BLOCK
    # size 12 covers graphs on which every set has access
    assert (firsts[12] == comb(13, 12)).any()


def _padded_stream(players, sizes, start, stop):
    """The sets at [start, stop) of the lexicographic sets of each size in
    turn, as batch_indicators' index array padded with -1."""
    stream = [b for size in sizes for b in combinations(players, size)][start:stop]
    subsets = np.full((len(stream), max(sizes)), -1, dtype=np.intp)
    for row, b in zip(subsets, stream):
        row[: len(b)] = b
    return subsets


def _index_sets(index, n):
    """The sets of an (R, C, sets) flat index as rows of members padded with
    -1, then the dealer: its rows, read off the first column."""
    rows = index[:, 0].T // (n + 1)
    return np.where(rows < n, rows, -1)


def _assert_plan_route_matches(gammas, q, dealer, sizes, start, stop):
    n = gammas.shape[1]
    index = _block_index(n, dealer, tuple(sizes), start, stop)
    subsets = _padded_stream([v for v in range(n) if v != dealer], sizes, start, stop)
    width = index.shape[0] - 1
    assert width == (subsets >= 0).sum(axis=1).max()  # no row pads beyond the block's widest set
    sets = _index_sets(index, n)
    assert np.array_equal(sets[:, :-1], subsets[:, :width])
    assert (subsets[:, width:] == -1).all() and (sets[:, -1] == dealer).all()
    # the whole index is the one batch_indicators gathers these sets at
    rows, cols = _gather_index(n, dealer, subsets[:, :width])
    assert np.array_equal(index, rows[:, None] + cols)
    c_outside, r_outside = _bordered_spans(_zero_vertex(gammas, q), q, index)
    pi, derivative = batch_indicators(gammas, q, dealer, subsets)
    assert np.array_equal(c_outside.T, pi == 1)
    assert np.array_equal(r_outside.T.astype(np.int64) - pi, derivative)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_plan_blocks_match_batch_indicators(data):
    # any block of any list of sizes, any dealer: the plan route gathers
    # the sets of the padded index array and gives its verdicts
    n = data.draw(st.integers(2, 9))
    q = data.draw(st.sampled_from([2, 3, 5, 7]))
    dealer = data.draw(st.integers(0, n - 1))
    sizes = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    total = sum(comb(n - 1, size) for size in sizes)
    start = data.draw(st.integers(0, total - 1))
    stop = data.draw(st.integers(start + 1, min(total, start + BLOCK_CAP)))
    gammas = np.stack([random_graph(n, q, np.random.default_rng(data.draw(st.integers(0, 99)))).gamma
                       for _ in range(2)])
    _assert_plan_route_matches(gammas, q, dealer, sizes, start, stop)


def _assert_blocks_stay_in_plans(gammas, q, dealer, sizes, start, stop):
    """A block that spans two plans raises; cut at each plan boundary, every
    piece matches batch_indicators."""
    cuts = [start, *range((start // BLOCK_CAP + 1) * BLOCK_CAP, stop, BLOCK_CAP), stop]
    if len(cuts) > 2:
        with pytest.raises(ValueError, match="span two plans"):
            _block_index(gammas.shape[1], dealer, tuple(sizes), start, stop)
    for lo, hi in zip(cuts, cuts[1:]):
        _assert_plan_route_matches(gammas, q, dealer, sizes, lo, hi)


@pytest.mark.parametrize("start, stop", [(2000, 2100), (2950, 3050), (5040, 5060), (0, 2048), (2900, 4200)])
def test_plan_blocks_cross_chunks_at_order_15(start, stop):
    # 14 players: C(14, 8) = 3,003 sets of size 8 and C(14, 7) = 3,432 of
    # size 7, a stream of four BLOCK_CAP chunks; the ranges cross a chunk
    # within size 8, span both sizes inside one chunk, lie inside a chunk of
    # size 7, fill one whole chunk, and cross a chunk and a size at once
    assert comb(14, 7) > comb(14, 8) > BLOCK_CAP
    gammas = np.stack([random_graph(15, 5, np.random.default_rng(s)).gamma for s in range(3)])
    _assert_blocks_stay_in_plans(gammas, 5, 4, [8, 7], start, stop)


@pytest.mark.parametrize("start, stop", [(1984, 3432), (2040, 2050), (2048, 3432)])
def test_single_size_blocks_cross_chunks_at_order_15(start, stop):
    # ranges over the C(14, 7) = 3,432 sets of one size that cross a chunk,
    # a long one and a short one, and the rest of the size from the second
    # chunk
    gammas = np.stack([random_graph(15, 3, np.random.default_rng(s)).gamma for s in range(2)])
    _assert_blocks_stay_in_plans(gammas, 3, 0, [7], start, stop)


def _rs_floor_graph(q=17, n=16, k=8):
    """The Reed-Solomon floor graph: a Vandermonde generator at 0..n-1,
    reduced to [I | P], joined as a bipartite graph by P."""
    r, pivots = int_rref([[pow(x, i, q) for x in range(n)] for i in range(k)], q)
    assert pivots == list(range(k))
    gamma = np.zeros((n, n), dtype=np.int64)
    gamma[:k, k:] = np.array(r)[:, k:]
    return Multigraph(q, gamma + gamma.T)


@pytest.mark.parametrize("graph", ["rs17", "random15"])
def test_first_failure_scans_across_plans(monkeypatch, graph):
    # the F_17 Reed-Solomon floor graph has k = 8, so its upward scan ranks
    # all C(15, 8) = 6,435 size-8 sets, four plans, and its downward stream
    # of sizes 14 to 7 holds eight; the random F_2 graph's downward stream
    # of sizes 13 to 7 holds five, though its scans all stop in the first.
    # Each scan's positions are the argmax of batch_indicators over its
    # stream, and each of its blocks is a slice of one plan
    if graph == "rs17":
        dg = DealerGraph(_rs_floor_graph(), 0)
    else:
        dg = random_dealer_graph(np.random.default_rng(15), 15, 2)
    g, players, p = dg.graph, dg.players, len(dg.players)
    blocks = []

    def spy(stack, q, index):
        blocks.append(index.shape[2])
        return _bordered_spans(stack, q, index)

    monkeypatch.setattr(qss.search, "_bordered_spans", spy)
    k = scheme_k(dg).k
    ranked = 0
    for sizes in [tuple(range(p - 1, p // 2 - 1, -1)), *[(size,) for size in range(p // 2, k + 1)]]:
        stream = [b for size in sizes for b in combinations(players, size)]
        failing = batch_indicators(g.gamma[None], g.q, dg.dealer, _index_array(stream))[1][0] != -1
        blocks.clear()
        got = _first_failure(g.gamma[None], g.q, dg.dealer, sizes)
        assert got.tolist() == [int(failing.argmax()) if failing.any() else -1]
        # the blocks run on from 0 up to the first failure or the stream's end
        stops = np.cumsum(blocks)
        assert stops[-1] == len(stream) if got[0] < 0 else stops[-1] - blocks[-1] <= got[0] < stops[-1]
        assert ((stops - blocks) // BLOCK_CAP == (stops - 1) // BLOCK_CAP).all()
        assert len(stream) > BLOCK_CAP or len(sizes) == 1
        ranked = max(ranked, stops[-1])
    assert ranked > 3 * BLOCK_CAP if graph == "rs17" else ranked < BLOCK_CAP
    one, per_size = scheme_k_windows(dg)
    assert _worst_unauthorized(dg, one) == _worst_unauthorized(dg, per_size) == scheme_k(dg).worst_unauthorized


def test_plans_are_read_only_lexicographic_chunks():
    players = [v for v in range(15) if v != 2]
    for chunk in (0, 1):
        plan = _plan(15, 2, (7,), chunk)
        want = list(islice(combinations(players, 7), chunk * BLOCK_CAP, (chunk + 1) * BLOCK_CAP))
        rows, cols = plan
        assert (rows[:-1].T // 16).tolist() == [list(b) for b in want] and (rows[-1] == 2 * 16).all()
        assert cols.T.tolist() == [[v for v in players if v not in b] + [2] for b in want]
        for a in plan:
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0
    # each chunk of a stream of sizes 8 and 7 is as wide as its own sets:
    # C(14, 8) = 3,003 size-8 sets end inside chunk 1, so chunk 0 holds only
    # size-8 sets, chunk 1 both sizes and chunks 2 and 3 only size-7 sets
    for chunk, (widest, smallest) in enumerate([(8, 8), (8, 7), (7, 7), (7, 7)]):
        rows, cols = _plan(15, 2, (8, 7), chunk)
        assert rows.shape[0] == widest + 1 and cols.shape[0] == 15 - smallest
        assert not rows.flags.writeable and not cols.flags.writeable


def test_plan_cache_stays_within_its_bound():
    # upward scans over every dealer of an order-16 graph use more plans
    # than the cache holds, which keeps no more than PLAN_CACHE of them
    _plan.cache_clear()
    g = random_graph(16, 3, np.random.default_rng(16))
    assert sum(comb(15, size) for size in range(7, 15)) > BLOCK_CAP  # one window per size
    for dealer in range(16):
        dg = DealerGraph(g, dealer)
        assert scheme_k(dg).worst_unauthorized == _worst_unauthorized(dg, scheme_k_windows(dg)[1])
    info = _plan.cache_info()
    assert info.misses > info.maxsize == PLAN_CACHE >= info.currsize


def test_cached_plans_stay_within_the_memory_bound():
    # the PLAN_CACHE comment bounds the cache by n + 1 int64 entries per set
    # of BLOCK_CAP: the arrays allocated under qss.search and still alive
    # after an order-18 scheme_k and is_scheme (the kernel's scratch buffer
    # aside) are the cached plans
    _plan.cache_clear()
    dg = DealerGraph(random_graph(18, 3, np.random.default_rng(18)), 0)
    tracemalloc.start(4)
    try:
        rep = scheme_k(dg)
        assert is_scheme(dg, rep.k).ok
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    kept = snapshot.filter_traces([tracemalloc.Filter(True, qss.search.__file__, all_frames=True),
                                   tracemalloc.Filter(False, qss.fqlinalg.__file__, all_frames=True)])
    cached = sum(stat.size for stat in kept.statistics("filename"))
    assert _plan.cache_info().currsize
    plans = sum(a.nbytes for key in [(18, 0, (size,), 0) for size in (12, 13)] for a in _plan(*key))
    assert plans <= cached < PLAN_CACHE * 2 * 18 * BLOCK_CAP * 8


@st.composite
def small_field_graphs(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 9))
    gamma = np.zeros((n, n), dtype=np.int64)
    gamma[np.triu_indices(n, 1)] = draw(st.lists(st.integers(0, q - 1), min_size=n * (n - 1) // 2,
                                                 max_size=n * (n - 1) // 2))
    gamma += gamma.T
    gamma[0, 1] = gamma[1, 0] = draw(st.integers(1, q - 1))
    return DealerGraph(Multigraph(q, gamma), 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_field_graphs())
@example(DealerGraph(Multigraph(3, [[0, 2], [2, 0]]), 0))
def test_streamed_scan_matches_scalar_derivative_loop(dg):
    # the streamed first-failure scan against one quantum_derivative call per
    # set of each combinations level; n = 2 has the size-0 level at k = 1
    g, d, players = dg.graph, dg.dealer, dg.players
    failures = {
        size: [b for b in combinations(players, size) if quantum_derivative(g, d, b) != -1]
        for size in range(len(players) + 1)
    }
    k = 1 + max(size for size, failed in failures.items() if failed)
    rep = scheme_k(dg)
    assert (rep.k, rep.worst_unauthorized) == (k, failures[k - 1][0])
    for size in range(1, len(players) + 1):
        res = is_scheme(dg, size)
        if failures[size]:
            want = (False, failures[size][0])
        else:
            want = (bool(failures[size - 1]), None)
        assert (res.ok, res.counterexample) == want


def test_scheme_report_json_shape():
    payload = dataclasses.asdict(scheme_k(star3()))
    assert set(payload) == {"k", "n_players", "worst_unauthorized"}


# ------------------------------------------------------------------- is_scheme


def test_is_scheme_rs747():
    rs = rs747_fixture()
    assert is_scheme(rs, 4).ok
    r3 = is_scheme(rs, 3)
    assert not r3.ok
    assert r3.counterexample is not None
    assert not _has_access(rs, r3.counterexample)
    r5 = is_scheme(rs, 5)
    assert not r5.ok
    assert r5.counterexample is None  # fails tightness, not access
    assert "minimal" in r5.reason


def test_is_scheme_bounds_check():
    with pytest.raises(ValueError, match="outside"):
        is_scheme(star3(), 0)
    with pytest.raises(ValueError, match="outside"):
        is_scheme(star3(), 3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dealer_graphs())
def test_is_scheme_matches_scalar_loop(dg):
    for k in range(1, len(dg.players) + 1):
        res = is_scheme(dg, k)
        assert (res.ok, res.counterexample) == scalar_is_scheme(dg, k)


def test_is_scheme_truthiness():
    assert is_scheme(star3(), 2)
    assert not is_scheme(star3(), 1)


# ----------------------------------------------------------------- no-cloning


@pytest.fixture
def gathered_stacks(monkeypatch):
    """(shape, nbytes) of every (R, C, N) stack _bordered_spans gathers."""
    stacks = []

    def recorded(a, q):
        stacks.append((a.shape, a.nbytes))
        return _border_indicators(a, q)

    monkeypatch.setattr(qss.access, "_border_indicators", recorded)
    return stacks


@pytest.fixture
def kernel_calls(monkeypatch):
    """The (sets, width) index array of batch_indicators for every kernel
    call from qss.search: the sets of its flat index without the dealer."""
    calls = []

    def counted(stack, q, index):
        calls.append(_index_sets(index, isqrt(stack.shape[0]) - 1)[:, :-1])
        return _bordered_spans(stack, q, index)

    monkeypatch.setattr(qss.search, "_bordered_spans", counted)
    return calls


@settings(max_examples=80, deadline=None, derandomize=True)
@given(dealer_graphs(max_n=8))
def test_no_two_disjoint_sets_both_have_access(dg):
    players = dg.players
    subsets = [b for size in range(len(players) + 1) for b in combinations(players, size)]
    accessing = [set(b) for b in subsets if _has_access(dg, b)]
    assert not any(a.isdisjoint(b) for a, b in combinations(accessing, 2))
    for size in range(len(players) + 1):
        if _some_set_fails(size, len(players)):
            assert any(not _has_access(dg, b) for b in combinations(players, size))


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
def test_every_small_graph_matches_the_int_references(n, q):
    gammas = _gamma_from_index(np.arange(q ** (n * (n - 1) // 2)), n, q)
    for gamma in gammas:
        for d in range(n):
            if not gamma[d].any():
                continue
            dg = DealerGraph(Multigraph(q, gamma), d)
            rep, k = scheme_k(dg), naive_scheme_k(dg)
            unauthorized = [b for b in combinations(dg.players, k - 1) if not _has_access(dg, b)]
            assert (rep.k, rep.worst_unauthorized) == (k, unauthorized[0])
            # scheme_k scans these small graphs in one window; one window
            # per size must find the same set
            one, per_size = scheme_k_windows(dg)
            assert _worst_unauthorized(dg, one) == _worst_unauthorized(dg, per_size) == unauthorized[0]
            for size in range(1, n):
                res = is_scheme(dg, size)
                assert (res.ok, res.counterexample) == scalar_is_scheme(dg, size)


def test_scheme_k_ranks_rs747_in_one_call(kernel_calls):
    rep = scheme_k(rs747_fixture())
    assert (rep.k, rep.worst_unauthorized) == (4, (1, 2, 3))
    # the downward stream of sizes 6 to 3 holds 98 sets, fewer than BLOCK:
    # the 63 sets of sizes 6, 5 and 4 and the 35 of size 3 are one block.
    # Sizes 1 and 2 must fail, so they are never ranked
    [subsets] = kernel_calls
    sizes = (subsets >= 0).sum(axis=1)
    assert BLOCK >= 98 and subsets.shape == (98, 6)
    assert np.bincount(sizes).tolist() == [0, 0, 0, 35, 35, 21, 7]
    assert np.flatnonzero(sizes == 3)[0] == 63


@pytest.mark.parametrize("players, q, seed", [(None, 7, None), (10, 3, 10), (12, 2, 12), (14, 3, 14)])
def test_scheme_k_scans_one_window_up_to_11_players_and_one_size_a_scan_above(monkeypatch, players, q, seed):
    # rs747 and 10 players: the sets of sizes p // 2 to p - 1 fit one plan,
    # so one scan runs from p - 1 down. 12 and 14 players: one scan per
    # size from p // 2 up, ending at the first size without a failure or
    # at p - 1, the last failing size being k - 1
    dg = rs747_fixture() if players is None else random_dealer_graph(np.random.default_rng(seed), players + 1, q)
    p, calls = len(dg.players), []

    def recorded(gammas, q, dealer, sizes):
        found = _first_failure(gammas, q, dealer, sizes)
        calls.append((tuple(sizes), int(found[0])))
        return found

    monkeypatch.setattr(qss.search, "_first_failure", recorded)
    k = scheme_k(dg).k
    if p <= 11:
        assert [sizes for sizes, _ in calls] == [tuple(range(p - 1, p // 2 - 1, -1))]
        return
    assert [sizes for sizes, _ in calls] == [(size,) for size in range(p // 2, p // 2 + len(calls))]
    assert all(found >= 0 for _, found in calls[:-1])
    assert calls[-1][1] < 0 or calls[-1][0] == (p - 1,)
    assert k == p // 2 + sum(found >= 0 for _, found in calls)


def test_is_scheme_skips_a_tightness_scan_no_cloning_settles(kernel_calls):
    assert is_scheme(rs747_fixture(), 4).ok
    assert len(kernel_calls) == 1  # 2 * 3 <= 7 players: some set of 3 fails


def test_is_scheme_ranks_both_sizes_in_one_call(kernel_calls):
    rs = rs747_fixture()
    res = is_scheme(rs, 5)
    assert (res.ok, res.counterexample) == (False, None)
    # the 21 sets of size 5 and the 35 of size 4 all have access
    [subsets] = kernel_calls
    assert np.bincount((subsets >= 0).sum(axis=1)).tolist() == [0, 0, 0, 0, 35, 21]


def test_batch_accessible_at_k_ranks_nothing_below_the_floor(kernel_calls):
    rs = rs747_fixture()
    gammas = np.stack([rs.graph.gamma] * 3)
    for k in (1, 2, 3):
        assert not batch_accessible_at_k(gammas, 7, k, rs.dealer).any()
    assert kernel_calls == []
    assert batch_accessible_at_k(gammas, 7, 4, rs.dealer).all()
    assert kernel_calls


def test_block_bytes_cap_every_stack_and_move_no_position(gathered_stacks, monkeypatch):
    # a TRIAL_CHUNK of graphs at the (11, 5) scan point, ranked over the
    # sizes 8 and 7 of is_scheme at k = 8: the widest bordered matrix takes
    # 9 x 4 int8 bytes, so BLOCK_BYTES admits 14,563 matrices, 7 sets while
    # every graph is live, where growth alone would give the third block 16
    n, q, sizes = 11, 5, (8, 7)
    m = n * (n - 1) // 2
    slots = np.zeros((TRIAL_CHUNK, m + 1), dtype=np.int8)
    slots[:, :m] = np.random.default_rng(11).integers(0, q, size=(TRIAL_CHUNK, m))
    gammas = slots[:, _slot_map(n)]
    got = _first_failure(gammas, q, 0, sizes)
    assert all(nbytes <= BLOCK_BYTES for _, nbytes in gathered_stacks)
    assert max(shape[2] for shape, _ in gathered_stacks) > BLOCK_CAP
    calls = len(gathered_stacks)
    # a cap below one matrix ranks one set per call
    monkeypatch.setattr(qss.search, "BLOCK_BYTES", 1)
    gathered_stacks.clear()
    want = _first_failure(gammas, q, 0, sizes)
    assert got.tolist() == want.tolist() and (want >= 0).any()
    ranked = total = comb(n - 1, 8) + comb(n - 1, 7)
    if (want >= 0).all():
        ranked = want.max() + 1
    assert calls < len(gathered_stacks) == ranked <= total
    # an empty stack ranks nothing, as when every graph of a chunk has an
    # isolated dealer: index 0 is the empty graph
    gathered_stacks.clear()
    empty = _first_failure(gammas[:0], q, 0, sizes)
    assert empty.dtype == np.int64 and empty.shape == (0,)
    assert _graphs_realising_k(0, 1, n, q, 8, True) is None
    assert gathered_stacks == []


def test_impossible_searches_rank_nothing(kernel_calls, tmp_path):
    r = exhaustive_search(8, 2, 3)
    assert (r.status, r.checked, r.next_index) == ("exhausted", 2**28, 2**28)
    assert random_trials(5, 2, 0.5, 4096, seed=1).successes == 0
    ck = tmp_path / "run.ckpt"
    r = exhaustive_search(5, 3, 2, budget=40000, checkpoint_path=str(ck))
    assert (r.status, r.checked) == ("budget_exceeded", 40000)
    assert ck.read_text() == "# n=5 q=3 k=2 dealer_fixed=1\n0, 39999, none\n"
    assert kernel_calls == []


# ---------------------------------------------------------------- enumeration


def test_gamma_from_index_roundtrip():
    q, n = 3, 4
    m = n * (n - 1) // 2
    iu = np.triu_indices(n, 1)
    for index in (0, 1, 5, 123, 3**m - 1):
        gamma = _gamma_from_index(index, n, q)
        digits = gamma[iu]
        back = 0
        for dig in digits:
            back = back * q + int(dig)
        assert back == index
        assert np.array_equal(gamma, gamma.T)
        assert not np.diag(gamma).any()


def _slot_by_slot_gamma(index, n, q):
    """_gamma_from_index's reference: one base-q digit per pass."""
    rest = np.array(index, dtype=np.int64)
    m = n * (n - 1) // 2
    digits = np.zeros(rest.shape + (m + 1,), dtype=np.min_scalar_type(-((q - 1) ** 2)))
    for slot in range(m - 1, -1, -1):
        digits[..., slot] = rest % q
        rest //= q
    return digits[..., _slot_map(n)]


@pytest.mark.parametrize("q", [2, 7])
def test_gamma_from_index_matches_slot_by_slot_digits(q):
    # from n = 12 at q = 2 and n = 9 at q = 7, q^(m - 1) overflows int64
    rng = np.random.default_rng(q)
    for n in range(1, 13):
        top = min(q ** (n * (n - 1) // 2), 2**63)
        drawn = rng.integers(0, top, size=201, dtype=np.uint64)
        index = np.concatenate([np.array([0, top - 1, top // q], dtype=np.uint64), drawn])
        index = index.astype(np.int64).reshape(2, -1)
        got, want = _gamma_from_index(index, n, q), _slot_by_slot_gamma(index, n, q)
        assert got.dtype == want.dtype and got.shape == (2, index.shape[1], n, n)
        assert np.array_equal(got, want)
        assert np.array_equal(_gamma_from_index(top - 1, n, q), want[0, 1])


def test_exhaustive_search_no_scheme_exists():
    r = exhaustive_search(4, 2, 2)
    assert r.status == "exhausted"
    assert r.index is None
    assert r.checked == 64
    assert r.next_index == 64


def test_exhaustive_search_dealer_roaming_agrees():
    r = exhaustive_search(4, 2, 2, dealer_fixed=False)
    assert r.status == "exhausted"
    assert r.checked == 64


def test_exhaustive_search_first_hits():
    r = exhaustive_search(5, 2, 3)
    assert (r.status, r.index, r.checked) == ("found", 204, 205)

    r = exhaustive_search(4, 3, 2)
    assert (r.status, r.index, r.checked) == ("found", 123, 124)
    assert r.graph_text == "q 3\nn 4\ne 0 2 1\ne 0 3 1\ne 1 2 1\ne 1 3 2\n"
    g = parse_graph(r.graph_text)
    assert is_scheme(DealerGraph(g, 0), 2).ok


@pytest.mark.parametrize("dealer_fixed", [True, False])
@pytest.mark.parametrize(
    "n, q, k", [(n, q, k) for n in range(2, 6) for q in (2, 3) for k in range(1, n)]
)
def test_exhaustive_search_matches_scalar_scan(n, q, k, dealer_fixed):
    r = exhaustive_search(n, q, k, dealer_fixed=dealer_fixed)
    index, checked = scalar_first_scheme(n, q, k, dealer_fixed)
    assert (r.status, r.index, r.checked) == ("exhausted" if index is None else "found", index, checked)


def test_exhaustive_search_hit_must_be_tight(tmp_path):
    # graph 123 of (n=4, q=3) realises ((2, 3)): every 2-set already has
    # access, so it has every 3-set but is no ((3, 3)) scheme
    assert is_scheme(DealerGraph(Multigraph(3, _gamma_from_index(123, 4, 3)), 0), 2).ok
    ck = tmp_path / "scan.ck"
    ck.write_text("# n=4 q=3 k=3 dealer_fixed=1\n0, 122, none\n")
    r = exhaustive_search(4, 3, 3, budget=1, checkpoint_path=str(ck))
    assert (r.status, r.index, r.checked, r.next_index) == ("budget_exceeded", None, 1, 124)


def test_exhaustive_search_worker_invariance():
    for every in (40, 50_000):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qss.search, "CHECKPOINT_EVERY", every)
            base = exhaustive_search(4, 3, 2)
            assert base.status == "found"
            for workers in (2, 3):
                # slices past the block's least hit are not counted
                assert exhaustive_search(4, 3, 2, workers=workers) == base


def test_exhaustive_search_budget_and_resume(tmp_path, monkeypatch):
    monkeypatch.setattr(qss.search, "CHECKPOINT_EVERY", 10)
    ck = tmp_path / "scan.ck"
    first = exhaustive_search(4, 3, 2, budget=50, checkpoint_path=str(ck))
    assert first.status == "budget_exceeded"
    assert first.checked == 50
    assert first.next_index == 50
    lines = [ln for ln in ck.read_text().splitlines() if ln.strip() and not ln.startswith("#")]
    assert len(lines) == 5
    for ln in lines:
        slice_id, last, mark = [p.strip() for p in ln.split(",")]
        assert slice_id == "0"
        assert mark == "none"
        int(last)

    second = exhaustive_search(4, 3, 2, checkpoint_path=str(ck))
    assert second.status == "found"
    assert second.index == 123
    assert second.checked == 74  # resumed at 50, hit at 123
    final = [ln for ln in ck.read_text().splitlines() if ln.strip()][-1]
    assert final.split(",")[2].strip() == "123"


def test_exhaustive_search_opens_one_pool_per_call(monkeypatch):
    opened = []

    class CountingPool(qss.search.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(qss.search, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(qss.search, "CHECKPOINT_EVERY", 40)
    r = exhaustive_search(4, 3, 2, workers=2)
    assert (r.status, r.index) == ("found", 123)
    assert len(opened) == 1  # four blocks of 40 indices share it


def test_random_trials_opens_one_pool_per_call(monkeypatch):
    opened = []

    class CountingPool(qss.search.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(qss.search, "ProcessPoolExecutor", CountingPool)
    trials = 3 * TRIAL_CHUNK + 7
    serial = random_trials(5, 2, 0.75, trials, seed=13)
    assert opened == []
    assert random_trials(5, 2, 0.75, trials, seed=13, workers=2) == serial
    assert len(opened) == 1  # four chunks share it


def test_checkpoint_header_guards_resume(tmp_path):
    ck = tmp_path / "scan.ck"
    first = exhaustive_search(4, 3, 3, checkpoint_path=str(ck))
    assert (first.status, first.index) == ("found", 27)
    text = ck.read_text()
    assert text.splitlines()[0] == "# n=4 q=3 k=3 dealer_fixed=1"
    # reused for (5, 2, 3) the file would answer 27 after 0 graphs; the
    # fresh answer is 204
    with pytest.raises(ValueError, match="another search"):
        exhaustive_search(5, 2, 3, checkpoint_path=str(ck))
    with pytest.raises(ValueError, match="another search"):
        exhaustive_search(4, 3, 3, dealer_fixed=False, checkpoint_path=str(ck))
    assert ck.read_text() == text
    headerless = tmp_path / "old.ck"
    headerless.write_text("0, 26, 27\n")
    with pytest.raises(ValueError, match="another search"):
        exhaustive_search(4, 3, 3, checkpoint_path=str(headerless))


@pytest.mark.parametrize("torn", ["0, 99, no", "0, 99, 12", "0, 9", "# n=4 q"])
def test_checkpoint_torn_trailing_record_is_ignored(tmp_path, monkeypatch, torn):
    monkeypatch.setattr(qss.search, "CHECKPOINT_EVERY", 10)
    ck = tmp_path / "scan.ck"
    if torn.startswith("#"):
        ck.write_text(torn)  # the header itself was cut short
    else:
        exhaustive_search(4, 3, 2, budget=50, checkpoint_path=str(ck))
        with open(ck, "a") as fh:
            fh.write(torn)
    resumed = exhaustive_search(4, 3, 2, checkpoint_path=str(ck))
    assert (resumed.status, resumed.index) == ("found", 123)
    assert resumed.checked == (124 if torn.startswith("#") else 74)
    lines = ck.read_text().splitlines()
    assert lines[0] == "# n=4 q=3 k=2 dealer_fixed=1"
    for ln in lines[1:]:
        slice_id, last, mark = ln.split(", ")
        assert slice_id == "0"
        assert mark in ("none", "123")
        int(last)


@pytest.mark.parametrize("record", ["0, 99, no", "0, x, none", "zero, 99, none", "0, 99", "0, 99, none, 1"])
def test_checkpoint_malformed_complete_record_raises(tmp_path, monkeypatch, record):
    monkeypatch.setattr(qss.search, "CHECKPOINT_EVERY", 10)
    ck = tmp_path / "scan.ck"
    exhaustive_search(4, 3, 2, budget=50, checkpoint_path=str(ck))
    with open(ck, "a") as fh:
        fh.write(record + "\n")  # the newline makes it a complete record
    text = ck.read_text()
    with pytest.raises(ValueError, match=f"checkpoint {ck} line 7: '{record}' is not"):
        exhaustive_search(4, 3, 2, checkpoint_path=str(ck))
    assert ck.read_text() == text


@pytest.mark.parametrize(
    "record, complaint",
    [
        ("0, -50, none", "has its last index outside 0..728"),
        ("0, 729, none", "has its last index outside 0..728"),
        ("0, 40, 123", "has its found index outside 0..40"),
        ("0, 40, -1", "has its found index outside 0..40"),
        # graph 5 leaves the dealer isolated
        ("0, 10, 5", "names graph 5, which realises no such scheme"),
    ],
)
def test_checkpoint_record_out_of_range_raises(tmp_path, record, complaint):
    ck = tmp_path / "scan.ck"
    ck.write_text(f"# n=4 q=3 k=2 dealer_fixed=1\n0, 9, none\n{record}\n")
    text = ck.read_text()
    with pytest.raises(ValueError, match=f"checkpoint {ck} line 3: '{record}' {complaint}"):
        exhaustive_search(4, 3, 2, checkpoint_path=str(ck))
    assert ck.read_text() == text


def test_checkpoint_record_at_the_last_index_is_exhausted(tmp_path):
    ck = tmp_path / "scan.ck"
    ck.write_text("# n=4 q=3 k=2 dealer_fixed=1\n0, 728, none\n")
    r = exhaustive_search(4, 3, 2, checkpoint_path=str(ck))
    assert (r.status, r.checked, r.next_index) == ("exhausted", 0, 729)


def test_search_stops_before_index_2_to_the_63(tmp_path, monkeypatch):
    monkeypatch.setattr(qss.search, "CHECKPOINT_EVERY", 10)
    # n = 8, q = 7 has 7^28 > 2^63 indices; _gamma_from_index builds int64
    ck = tmp_path / "scan.ck"
    ck.write_text(f"# n=8 q=7 k=4 dealer_fixed=1\n0, {2**63 - 21}, none\n")
    r = exhaustive_search(8, 7, 4, budget=10, checkpoint_path=str(ck))
    assert (r.status, r.checked, r.next_index) == ("budget_exceeded", 10, 2**63 - 10)
    # the block up to index 2^63 - 1 runs, the next one would reach 2^63
    with pytest.raises(ValueError, match=f"block from index {2**63} reaches 2\\^63"):
        exhaustive_search(8, 7, 4, budget=100, checkpoint_path=str(ck))
    assert ck.read_text().splitlines()[-1] == f"0, {2**63 - 1}, none"
    ck.write_text(f"# n=8 q=7 k=4 dealer_fixed=1\n0, {2**63 + 92}, none\n")
    with pytest.raises(ValueError, match=f"last index outside 0..{2**63 - 1}"):
        exhaustive_search(8, 7, 4, budget=10, checkpoint_path=str(ck))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from([(4, 3, 2), (4, 3, 3), (4, 2, 2), (5, 2, 3), (5, 2, 4)]),
    st.booleans(),
    st.integers(1, 60),
    st.lists(st.integers(1, 300), min_size=1, max_size=5),
    st.booleans(),
)
def test_interrupted_search_resumes_to_uninterrupted_result(space, dealer_fixed, every, budgets, torn):
    n, q, k = space
    whole = exhaustive_search(n, q, k, dealer_fixed=dealer_fixed)
    checked = 0
    with tempfile.TemporaryDirectory() as tmp:
        ck = os.path.join(tmp, "scan.ck")
        for budget in budgets + [None]:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(qss.search, "CHECKPOINT_EVERY", every)
                part = exhaustive_search(n, q, k, dealer_fixed, budget=budget, checkpoint_path=ck)
            checked += part.checked
            if part.status != "budget_exceeded":
                break
            if torn:  # the interruption cut a record short
                with open(ck, "a") as fh:
                    fh.write("0, 1")
    assert (part.status, part.index, part.graph_text) == (whole.status, whole.index, whole.graph_text)
    assert checked == whole.checked


def test_exhaustive_search_resume_after_found_skips_scan(tmp_path):
    ck = tmp_path / "scan.ck"
    exhaustive_search(4, 3, 2, checkpoint_path=str(ck))
    again = exhaustive_search(4, 3, 2, checkpoint_path=str(ck))
    assert again.status == "found"
    assert again.index == 123
    assert again.checked == 0


def test_exhaustive_search_validation():
    with pytest.raises(ValueError, match="prime"):
        exhaustive_search(4, 4, 2)
    with pytest.raises(ValueError, match="dealer"):
        exhaustive_search(1, 2, 1)
    for k in (0, 4, 5):
        with pytest.raises(ValueError, match="outside 1..3"):
            exhaustive_search(4, 2, k)
    with pytest.raises(ValueError, match="budget"):
        exhaustive_search(4, 2, 2, budget=-5)
    assert exhaustive_search(4, 2, 2, budget=0).status == "budget_exceeded"


def test_search_result_json_shape():
    payload = dataclasses.asdict(exhaustive_search(4, 2, 2))
    assert set(payload) == {"status", "index", "graph_text", "checked", "next_index"}


# -------------------------------------------------------------- random trials


def test_random_trials_frozen_counts():
    t = random_trials(6, 3, 0.8, 300, seed=77)
    assert t.successes == 252
    assert t.success_rate == pytest.approx(0.84)
    assert (t.q, t.n, t.alpha, t.trials, t.seed) == (3, 6, 0.8, 300, 77)


@pytest.mark.parametrize(
    "n, q, alpha, trials, seed, k, successes",
    [
        (8, 3, 0.5, 3000, 7, None, 0),
        (8, 3, 5 / 7, 3000, 7, 5, 1199),
        (11, 5, 0.75, 2000, 11, None, 1994),
        (10, 2, 0.75, 3000, 5, None, 977),
    ],
)
def test_random_trials_pinned_counts(n, q, alpha, trials, seed, k, successes):
    # recorded on the two-rank-call derivative kernel; every later kernel
    # (fused, narrowed or bit-packed) must reproduce them. A row that names
    # k pins the threshold ceil(alpha * (n - 1)) its alpha gives.
    assert k is None or ceil(alpha * (n - 1) - 1e-9) == k
    assert random_trials(n, q, alpha, trials, seed).successes == successes


@pytest.mark.parametrize("n, q, successes", [(11, 5, 255), (10, 2, 98)])
def test_random_trials_rank_in_growing_blocks(kernel_calls, n, q, successes):
    # 256 graphs start at BLOCK // 256 = 1 set per call, and most of them
    # pass many of the 45 and 36 sets: blocks that stayed at one set would
    # take 45 and 36 calls, and doubling ones 6. Each block holds GROWTH
    # times the sets of the one before, far below the byte cap, and the
    # last holds the rest
    assert random_trials(n, q, 0.75, 256, seed=7).successes == successes
    total = comb(n - 1, ceil(0.75 * (n - 1)))
    assert GROWTH == 4 and [len(sets) for sets in kernel_calls] == [1, 4, 16, total - 21]


@pytest.mark.parametrize(
    "n, q, alpha, trials, calls, successes",
    [(8, 3, 0.5, 1024, 3, 0), (11, 5, 0.75, 256, 4, 255), (10, 2, 0.75, 256, 4, 98)],
)
def test_random_trials_kernel_calls_at_the_scan_points(kernel_calls, n, q, alpha, trials, calls, successes):
    # the benchmark's scan points. At (11, 5) nearly all 256 graphs pass all
    # 45 sets, ranked 1, 4, 16 and 24 per call as the sets per block grow
    # 4-fold from BLOCK // 256 = 1
    assert random_trials(n, q, alpha, trials, seed=7).successes == successes
    assert len(kernel_calls) == calls


def test_random_trials_zero_trials_null_rate():
    t = random_trials(6, 3, 0.8, 0, seed=1)
    assert t.trials == 0
    assert t.successes == 0
    assert t.success_rate is None
    assert dataclasses.asdict(t)["success_rate"] is None


def test_random_trials_deterministic_and_worker_invariant():
    # spans two chunks, so the parallel path actually runs
    trials = TRIAL_CHUNK + 100
    a = random_trials(5, 2, 0.75, trials, seed=13)
    b = random_trials(5, 2, 0.75, trials, seed=13, workers=3)
    assert a.successes == b.successes
    c = random_trials(5, 2, 0.75, trials, seed=14)
    assert a.successes != c.successes or a.seed != c.seed


def test_random_trials_validation():
    with pytest.raises(ValueError, match="trials"):
        random_trials(5, 2, 0.5, -1, seed=0)
    with pytest.raises(ValueError, match="outside"):
        random_trials(5, 2, 2.25, 10, seed=0)  # k = 9 of 4 players
    for alpha in (float("inf"), float("nan"), 1e308):
        with pytest.raises(ValueError, match="no finite threshold"):
            random_trials(5, 3, alpha, 1, seed=1)


def test_batch_accessibility_matches_scalar():
    rng = np.random.default_rng(62)
    for q, n, k in ((2, 5, 2), (3, 5, 3), (5, 4, 2)):
        count = 40
        gammas = np.zeros((count, n, n), dtype=np.int64)
        iu = np.triu_indices(n, 1)
        for i in range(count):
            row = rng.integers(0, q, size=len(iu[0]))
            gammas[i][iu] = row
            gammas[i] += gammas[i].T
        got = batch_accessible_at_k(gammas, q, k)
        players = [v for v in range(n) if v != 0]
        for i in range(count):
            want = all(_scalar_derivative(gammas[i].tolist(), q, 0, b) == -1 for b in combinations(players, k))
            assert bool(got[i]) == want
    # one gather for every stack size: inside stacks of 0, 1, 2 and 257
    # graphs each graph gets the verdicts it gets alone, and an empty stack
    # or an empty block ranks to empty (sets, graphs) arrays
    q, n, k = 3, 6, 3
    gammas = np.stack([random_graph(n, q, np.random.default_rng(s)).gamma for s in range(257)])
    subsets = _index_array(list(combinations(range(1, n), k)))
    alone = [batch_indicators(g[None], q, 0, subsets) for g in gammas]
    alone_k = [bool(batch_accessible_at_k(g[None], q, k)[0]) for g in gammas]
    assert 0 < sum(alone_k) < len(gammas)
    rows, cols = _gather_index(n, 0, subsets)
    index = rows[:, None] + cols
    for count in (0, 1, 2, 257):
        pi, der = batch_indicators(gammas[:count], q, 0, subsets)
        assert pi.shape == der.shape == (count, len(subsets))
        for i in range(count):
            assert np.array_equal(pi[i], alone[i][0][0]) and np.array_equal(der[i], alone[i][1][0])
        assert batch_accessible_at_k(gammas[:count], q, k).tolist() == alone_k[:count]
        stack = _zero_vertex(_residues(gammas[:count], q), q)
        for sets in (0, len(subsets)):
            spans = _bordered_spans(stack, q, index[:, :, :sets])
            assert [a.shape for a in spans] == [(sets, count)] * 2


# ----------------------------------------------- sufficient access condition


def test_sufficient_condition_implies_access():
    rng = np.random.default_rng(63)
    confirmed = 0
    for _ in range(300):
        q = int(rng.choice([2, 3]))
        n = int(rng.integers(3, 6))
        g = random_graph(n, q, rng)
        alpha = float(rng.choice([0.6, 0.75, 0.9]))
        if not sufficient_by_cut_ranks(g, alpha):
            continue
        confirmed += 1
        k_min = int(np.ceil(alpha * n - 1e-9))
        for d in range(n):
            if g.degree(d) == 0:
                continue
            players = [v for v in range(n) if v != d]
            for size in range(k_min, len(players) + 1):
                for b in combinations(players, size):
                    assert quantum_derivative(g, d, b) == -1
    assert confirmed > 10  # the sweep must actually exercise the guarantee


def _sufficient_by_multisets(g: Multigraph, alpha: float) -> bool:
    """The condition read literally: every nonzero vertex multiset C with
    at most t = (1 - alpha) n support vertices, one per scalar class (first
    nonzero multiplicity 1), sees more than t vertices jointly with its
    neighbours."""
    n, q = g.n, g.q
    threshold = (1.0 - alpha) * n
    for size in range(1, int(threshold + 1e-9) + 1):
        for supp in combinations(range(n), size):
            for tail in product(range(1, q), repeat=size - 1):
                vec = np.zeros(n, dtype=np.int64)
                vec[list(supp)] = (1, *tail)
                joint = np.count_nonzero((vec != 0) | (g.gamma @ vec % q != 0))
                if not joint > threshold + 1e-9:
                    return False
    return True


def test_sufficient_condition_matches_the_multiset_reference():
    # every third graph keeps about 30% of its edges, so both verdicts occur
    rng = np.random.default_rng(34)
    verdicts = []
    for q in (2, 3, 5):
        for n in range(2, 9):
            for alpha in (0.5, 0.55, 0.6, 0.7, 0.75, 0.8, 0.9, 1.0):
                for thin in (False, False, True):
                    g = random_graph(n, q, rng)
                    if thin:
                        keep = np.triu(rng.random((n, n)) < 0.3, 1)
                        g = Multigraph(q, g.gamma * (keep | keep.T))
                    verdict = sufficient_by_cut_ranks(g, alpha)
                    assert verdict == _sufficient_by_multisets(g, alpha), (q, n, alpha, g.edges())
                    verdicts.append(verdict)
    assert 100 < sum(verdicts) < len(verdicts) - 100
