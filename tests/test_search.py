"""Threshold extraction, exhaustive enumeration, and random trials.

The batched search paths are compared with scalar references built on the
pure-int `int_rank`, which never runs the package's rank kernel, including
hypothesis property tests.
"""

import dataclasses
import os
import tempfile
from functools import lru_cache
from itertools import combinations, product
from math import ceil, comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qss.search
from qss.access import batch_indicators, quantum_derivative
from qss.multigraph import DealerGraph, Multigraph, local_complement, parse_graph, random_graph, rs747_fixture
from qss.search import (
    TRIAL_CHUNK,
    batch_accessible_at_k,
    exhaustive_search,
    is_scheme,
    random_trials,
    scheme_k,
    sufficient_condition_check,
)
from qss.search import BLOCK, _first_failure, _gamma_from_index, _some_set_fails

from helpers import dealer_graphs, int_rank


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
    assert rep.all_accessible_at_k

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
    assert (rep.k, rep.n_players, rep.all_accessible_at_k) == (k, len(dg.players), True)
    # the lexicographically first unauthorized set of the largest such size
    unauthorized = [b for b in combinations(dg.players, k - 1) if not _has_access(dg, b)]
    assert rep.worst_unauthorized == unauthorized[0]


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
    # order-12 graphs have C(11, 6) = 462 player sets of size 6, several
    # blocks however many graphs are live
    rng = np.random.default_rng(70 + count)
    n, q = 12, 3
    iu = np.triu_indices(n, 1)
    gammas = np.zeros((count, n, n), dtype=np.int64)
    gammas[:, iu[0], iu[1]] = rng.integers(0, q, size=(count, len(iu[0])))
    gammas += np.transpose(gammas, (0, 2, 1))
    firsts = {}
    for size in (6, 10):
        subsets = np.array(list(combinations(range(1, n), size)))
        # sets that fail on few graphs go first, so first failures fall
        # deep into the list and past the first block
        failing = batch_indicators(gammas, q, 0, subsets)[1] != -1
        order = np.argsort(failing.sum(axis=0), kind="stable")
        failing = failing[:, order]
        want = np.where(failing.any(axis=1), failing.argmax(axis=1), len(subsets))
        stream = [tuple(int(v) for v in subsets[i]) for i in order]
        got = _first_failure(gammas, q, 0, iter(stream))
        assert got == [stream[j] if j < len(stream) else None for j in want]
        firsts[size] = want
    # a result taken from the wrong block would name a set before this
    assert (firsts[6] >= max(1, BLOCK // count)).any()
    if count == 1:
        # a lone graph is ranked in blocks of BLOCK, 2 * BLOCK, 4 * BLOCK
        # sets: its first failure lies in the third block, so a set taken
        # from a wrongly grown block fails the comparison above
        assert firsts[6][0] > BLOCK + 2 * BLOCK
    # size 10 covers graphs on which every set has access
    assert (firsts[10] == comb(11, 10)).any()


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
    assert set(payload) == {"k", "n_players", "worst_unauthorized", "all_accessible_at_k"}


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
def kernel_calls(monkeypatch):
    """The (sets, size) shape of every batch_indicators call from qss.search."""
    calls = []

    def counted(*args):
        calls.append(args[3].shape)
        return batch_indicators(*args)

    monkeypatch.setattr(qss.search, "batch_indicators", counted)
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
            for size in range(1, n):
                res = is_scheme(dg, size)
                assert (res.ok, res.counterexample) == scalar_is_scheme(dg, size)


def test_scheme_k_ranks_two_sizes_on_rs747(kernel_calls):
    rep = scheme_k(rs747_fixture())
    assert (rep.k, rep.worst_unauthorized) == (4, (1, 2, 3))
    assert [shape[1] for shape in kernel_calls] == [3, 4]  # sizes 1 and 2 must fail


def test_is_scheme_skips_a_tightness_scan_no_cloning_settles(kernel_calls):
    assert is_scheme(rs747_fixture(), 4).ok
    assert len(kernel_calls) == 1  # 2 * 3 <= 7 players: some set of 3 fails


def test_batch_accessible_at_k_ranks_nothing_below_the_floor(kernel_calls):
    rs = rs747_fixture()
    gammas = np.stack([rs.graph.gamma] * 3)
    for k in (1, 2, 3):
        assert not batch_accessible_at_k(gammas, 7, k, rs.dealer).any()
    assert kernel_calls == []
    assert batch_accessible_at_k(gammas, 7, 4, rs.dealer).all()
    assert kernel_calls


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
        base = exhaustive_search(4, 3, 2, checkpoint_every=every)
        assert base.status == "found"
        for workers in (2, 3):
            # slices past the block's least hit are not counted
            assert exhaustive_search(4, 3, 2, workers=workers, checkpoint_every=every) == base


def test_exhaustive_search_budget_and_resume(tmp_path):
    ck = tmp_path / "scan.ck"
    first = exhaustive_search(4, 3, 2, budget=50, checkpoint_path=str(ck), checkpoint_every=10)
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

    second = exhaustive_search(4, 3, 2, checkpoint_path=str(ck), checkpoint_every=10)
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
    r = exhaustive_search(4, 3, 2, workers=2, checkpoint_every=40)
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
def test_checkpoint_torn_trailing_record_is_ignored(tmp_path, torn):
    ck = tmp_path / "scan.ck"
    if torn.startswith("#"):
        ck.write_text(torn)  # the header itself was cut short
    else:
        exhaustive_search(4, 3, 2, budget=50, checkpoint_path=str(ck), checkpoint_every=10)
        with open(ck, "a") as fh:
            fh.write(torn)
    resumed = exhaustive_search(4, 3, 2, checkpoint_path=str(ck), checkpoint_every=10)
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
def test_checkpoint_malformed_complete_record_raises(tmp_path, record):
    ck = tmp_path / "scan.ck"
    exhaustive_search(4, 3, 2, budget=50, checkpoint_path=str(ck), checkpoint_every=10)
    with open(ck, "a") as fh:
        fh.write(record + "\n")  # the newline makes it a complete record
    text = ck.read_text()
    with pytest.raises(ValueError, match=f"checkpoint {ck} line 7: '{record}' is not"):
        exhaustive_search(4, 3, 2, checkpoint_path=str(ck), checkpoint_every=10)
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


def test_search_stops_before_index_2_to_the_63(tmp_path):
    # n = 8, q = 7 has 7^28 > 2^63 indices; _gamma_from_index builds int64
    ck = tmp_path / "scan.ck"
    ck.write_text(f"# n=8 q=7 k=4 dealer_fixed=1\n0, {2**63 - 21}, none\n")
    r = exhaustive_search(8, 7, 4, budget=10, checkpoint_path=str(ck), checkpoint_every=10)
    assert (r.status, r.checked, r.next_index) == ("budget_exceeded", 10, 2**63 - 10)
    # the block up to index 2^63 - 1 runs, the next one would reach 2^63
    with pytest.raises(ValueError, match=f"block from index {2**63} reaches 2\\^63"):
        exhaustive_search(8, 7, 4, budget=100, checkpoint_path=str(ck), checkpoint_every=10)
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
            part = exhaustive_search(n, q, k, dealer_fixed, budget=budget, checkpoint_path=ck, checkpoint_every=every)
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


@pytest.mark.parametrize("n, q, calls, successes", [(11, 5, 10, 255), (10, 2, 8, 98)])
def test_random_trials_rank_in_doubling_blocks(kernel_calls, n, q, calls, successes):
    # most of the 256 graphs pass many sets, so a budget that stayed at
    # BLOCK matrices would rank one set per call: 45 and 36 calls
    assert random_trials(n, q, 0.75, 256, seed=7).successes == successes
    assert len(kernel_calls) <= calls


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


# -------------------------------------------------- sufficient condition check


def test_sufficient_condition_implies_access():
    rng = np.random.default_rng(63)
    confirmed = 0
    for _ in range(300):
        q = int(rng.choice([2, 3]))
        n = int(rng.integers(3, 6))
        g = random_graph(n, q, rng)
        alpha = float(rng.choice([0.6, 0.75, 0.9]))
        if not sufficient_condition_check(g, alpha):
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


def test_sufficient_condition_validation():
    g = random_graph(4, 3, 1)
    with pytest.raises(ValueError, match="alpha"):
        sufficient_condition_check(g, 0.3)
    with pytest.raises(ValueError, match="budget"):
        sufficient_condition_check(random_graph(12, 5, 1), 0.5, budget=10)
