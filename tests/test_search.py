"""Threshold extraction, exhaustive enumeration, and random trials."""

from itertools import combinations

import numpy as np
import pytest

from qss.access import quantum_derivative
from qss.multigraph import DealerGraph, Multigraph, parse_graph, random_graph, rs747_fixture
from qss.search import (
    TRIAL_CHUNK,
    batch_accessible_at_k,
    exhaustive_search,
    is_scheme,
    random_trials,
    scheme_k,
    sufficient_condition_check,
)
from qss.search import _gamma_from_index


def star3(q=3):
    return DealerGraph(Multigraph(q, [[0, 1, 1], [1, 0, 0], [1, 0, 0]]), 0)


def random_dealer_graph(rng, n, q):
    while True:
        g = random_graph(n, q, rng)
        if g.degree(0) > 0:
            return DealerGraph(g, 0)


def naive_scheme_k(dg):
    """Unpruned reference: largest non-accessible player set, plus one."""
    worst = 0
    players = dg.players
    for size in range(1, len(players) + 1):
        for b in combinations(players, size):
            if quantum_derivative(dg.graph, dg.dealer, b) != -1:
                worst = max(worst, size)
    return worst + 1


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
    assert len(rep.worst_unauthorized) == 3


def test_scheme_k_matches_naive_scan():
    rng = np.random.default_rng(61)
    for _ in range(200):
        q = int(rng.choice([2, 3]))
        n = int(rng.integers(3, 7))
        dg = random_dealer_graph(rng, n, q)
        assert scheme_k(dg).k == naive_scheme_k(dg)


def test_scheme_report_json_shape():
    import json

    payload = json.loads(scheme_k(star3()).to_json())
    assert set(payload) == {"k", "n_players", "worst_unauthorized", "all_accessible_at_k"}


# ------------------------------------------------------------------- is_scheme


def test_is_scheme_rs747():
    rs = rs747_fixture()
    assert is_scheme(rs, 4).ok
    r3 = is_scheme(rs, 3)
    assert not r3.ok
    assert r3.counterexample is not None
    assert quantum_derivative(rs.graph, 0, r3.counterexample) != -1
    r5 = is_scheme(rs, 5)
    assert not r5.ok
    assert r5.counterexample is None  # fails tightness, not access
    assert "minimal" in r5.reason


def test_is_scheme_bounds_check():
    with pytest.raises(ValueError, match="outside"):
        is_scheme(star3(), 0)
    with pytest.raises(ValueError, match="outside"):
        is_scheme(star3(), 3)


def test_is_scheme_truthiness():
    assert is_scheme(star3(), 2)
    assert not is_scheme(star3(), 1)


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


def test_exhaustive_search_worker_invariance():
    base = exhaustive_search(4, 3, 2)
    par = exhaustive_search(4, 3, 2, workers=2, checkpoint_every=40)
    assert par.status == "found"
    assert par.index == base.index
    # parallel slices may scan a little past the hit, never less
    assert par.checked >= base.checked


def test_exhaustive_search_budget_and_resume(tmp_path):
    ck = tmp_path / "scan.ck"
    first = exhaustive_search(4, 3, 2, budget=50, checkpoint_path=str(ck), checkpoint_every=10)
    assert first.status == "budget_exceeded"
    assert first.checked == 50
    assert first.next_index == 50
    lines = [ln for ln in ck.read_text().splitlines() if ln.strip()]
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


def test_search_result_json_shape():
    import json

    payload = json.loads(exhaustive_search(4, 2, 2).to_json())
    assert set(payload) == {"status", "index", "graph_text", "checked", "next_index"}


# -------------------------------------------------------------- random trials


def test_random_trials_frozen_counts():
    t = random_trials(6, 3, 0.8, 300, seed=77)
    assert t.successes == 252
    assert t.success_rate == pytest.approx(0.84)
    assert (t.q, t.n, t.alpha, t.trials, t.seed) == (3, 6, 0.8, 300, 77)


def test_random_trials_zero_trials_null_rate():
    t = random_trials(6, 3, 0.8, 0, seed=1)
    assert t.trials == 0
    assert t.successes == 0
    assert t.success_rate is None
    import json

    assert json.loads(t.to_json())["success_rate"] is None


def test_random_trials_deterministic_and_worker_invariant():
    # spans two chunks, so the parallel path actually runs
    trials = TRIAL_CHUNK + 100
    a = random_trials(5, 2, 0.75, trials, seed=13)
    b = random_trials(5, 2, 0.75, trials, seed=13, workers=3)
    assert a.successes == b.successes
    c = random_trials(5, 2, 0.75, trials, seed=14)
    assert a.successes != c.successes or a.seed != c.seed


def test_random_trials_explicit_k_overrides_alpha():
    a = random_trials(5, 2, 0.75, 500, seed=3, k=4)
    b = random_trials(5, 2, 1.0, 500, seed=3)
    assert a.successes == b.successes


def test_random_trials_validation():
    with pytest.raises(ValueError, match="trials"):
        random_trials(5, 2, 0.5, -1, seed=0)
    with pytest.raises(ValueError, match="outside"):
        random_trials(5, 2, 0.5, 10, seed=0, k=9)


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
            g = Multigraph(q, gammas[i])
            want = all(
                quantum_derivative(g, 0, b) == -1 for b in combinations(players, k)
            )
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
