"""Threshold computation and scheme-existence searches.

A dealer graph realises a ((k, n))_q scheme when every set of k players can
reconstruct a quantum secret and some set of k - 1 players cannot (n counts
players, not vertices). Because accessibility is monotone, k - 1 is the size
of the largest non-accessible set, and subset scans can prune aggressively.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from math import ceil, comb
from typing import NamedTuple

import numpy as np

from .fqlinalg import batch_rank_mod, require_prime
from .multigraph import DealerGraph, Multigraph, serialize_graph
from .access import quantum_derivative

TRIAL_CHUNK = 2048


@dataclass(frozen=True)
class SchemeReport:
    k: int
    n_players: int
    worst_unauthorized: tuple[int, ...]
    all_accessible_at_k: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "n_players": self.n_players,
                "worst_unauthorized": list(self.worst_unauthorized),
                "all_accessible_at_k": self.all_accessible_at_k,
            },
            sort_keys=True,
        )


def scheme_k(dg: DealerGraph) -> SchemeReport:
    """Exact threshold k: 1 + the size of the largest non-accessible set.

    Scans player subsets by increasing size. A set with an accessible subset
    is accessible by monotonicity and is skipped without a rank computation;
    the scan stops at the first size where everything is accessible.
    """
    g, d = dg.graph, dg.dealer
    players = dg.players
    worst: tuple[int, ...] = ()
    accessible_prev: set[int] = set()
    pos = {v: i for i, v in enumerate(players)}
    for size in range(1, len(players) + 1):
        accessible_here: set[int] = set()
        found_unauth = False
        for b in combinations(players, size):
            mask = 0
            for v in b:
                mask |= 1 << pos[v]
            pruned = any((mask & ~(1 << pos[v])) in accessible_prev for v in b)
            if pruned or quantum_derivative(g, d, b) == -1:
                accessible_here.add(mask)
            else:
                found_unauth = True
                if size > len(worst) or not worst:
                    worst = b
        if not found_unauth:
            return SchemeReport(size, len(players), worst, True)
        accessible_prev = accessible_here
    # unreachable for a non-isolated dealer: the full player set always has
    # derivative -1
    raise AssertionError("no threshold found; dealer isolated?")


class IsSchemeResult(NamedTuple):
    ok: bool
    counterexample: tuple[int, ...] | None
    reason: str

    def __bool__(self) -> bool:
        return self.ok


def is_scheme(dg: DealerGraph, k: int) -> IsSchemeResult:
    """Decide whether the graph realises a ((k, n)) scheme at exactly this k.

    Requires every size-k player set to be accessible and at least one
    size-(k-1) set not to be (tightness; without it the graph realises a
    smaller threshold). The first failing size-k set in lexicographic order
    is returned as the counterexample; a tightness failure has none.
    """
    g, d = dg.graph, dg.dealer
    players = dg.players
    if not 1 <= k <= len(players):
        raise ValueError(f"k={k} outside 1..{len(players)}")
    for b in combinations(players, k):
        if quantum_derivative(g, d, b) != -1:
            return IsSchemeResult(False, b, f"set of size {k} cannot access the secret")
    for b in combinations(players, k - 1):
        if quantum_derivative(g, d, b) != -1:
            return IsSchemeResult(True, None, "ok")
    return IsSchemeResult(False, None, f"k is not minimal: every set of size {k - 1} already has access")


def _gamma_from_index(index: int, n: int, q: int) -> np.ndarray:
    """Adjacency matrix for an enumeration index.

    Edge slots are ordered row-major ((0,1), (0,2), ..., (n-2,n-1)) and read
    as base-q digits with the first slot most significant, so contiguous
    index ranges share their leading entries.
    """
    m = n * (n - 1) // 2
    digits = np.zeros(m, dtype=np.int64)
    for slot in range(m - 1, -1, -1):
        digits[slot] = index % q
        index //= q
    gamma = np.zeros((n, n), dtype=np.int64)
    iu = np.triu_indices(n, 1)
    gamma[iu] = digits
    return gamma + gamma.T


@dataclass(frozen=True)
class SearchResult:
    status: str  # found | exhausted | budget_exceeded
    index: int | None
    graph_text: str | None
    checked: int
    next_index: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "status": self.status,
                "index": self.index,
                "graph_text": self.graph_text,
                "checked": self.checked,
                "next_index": self.next_index,
            },
            sort_keys=True,
        )


def _graphs_realising_k(start: int, stop: int, n: int, q: int, k: int, dealer_fixed: bool) -> tuple[int | None, int]:
    """Scan enumeration indices [start, stop); return (first hit or None,
    count checked)."""
    checked = 0
    for index in range(start, stop):
        gamma = _gamma_from_index(index, n, q)
        checked += 1
        dealers = (0,) if dealer_fixed else tuple(range(n))
        for d in dealers:
            if gamma[d].any() and is_scheme(DealerGraph(Multigraph(q, gamma), d), k).ok:
                return index, checked
    return None, checked


def _read_checkpoint(path: str) -> dict[int, tuple[int, int | None]]:
    """Latest (last_index, found) per slice from an append-only checkpoint."""
    state: dict[int, tuple[int, int | None]] = {}
    if not path or not os.path.exists(path):
        return state
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3:
                continue
            sl, last = int(parts[0]), int(parts[1])
            found = None if parts[2] in ("none", "") else int(parts[2])
            prev = state.get(sl)
            if prev is None or last > prev[0]:
                state[sl] = (last, found)
    return state


def exhaustive_search(
    n: int,
    q: int,
    k: int,
    dealer_fixed: bool = True,
    budget: int | None = None,
    workers: int = 1,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 50_000,
) -> SearchResult:
    """Enumerate every order-n F_q-graph in index order and return the first
    one realising a ((k, n-1))_q scheme.

    With dealer_fixed the dealer is vertex 0 (sufficient when searching for
    existence: relabeling moves any dealer there); otherwise every vertex is
    tried. budget caps the number of graphs examined and yields a
    budget_exceeded result carrying the resume index. The checkpoint file
    appends `slice_index, last_enumeration_index, partial_result` lines and
    a rerun with the same file skips finished work.
    """
    require_prime(q)
    if n < 2:
        raise ValueError("need at least a dealer and one player")
    total = q ** (n * (n - 1) // 2)
    state = _read_checkpoint(checkpoint_path) if checkpoint_path else {}
    start = 0
    found_prev: int | None = None
    if state:
        start = max(last + 1 for last, _ in state.values())
        hits = [f for _, f in state.values() if f is not None]
        found_prev = min(hits) if hits else None
    stop = total if budget is None else min(total, start + budget)
    if found_prev is not None:
        stop = min(stop, found_prev)

    found: int | None = None
    checked = 0
    cursor = start
    ck = open(checkpoint_path, "a") if checkpoint_path else None
    try:
        while cursor < stop and found is None:
            block = min(stop - cursor, max(checkpoint_every, 1))
            if workers <= 1 or block < 4 * workers:
                hit, cnt = _graphs_realising_k(cursor, cursor + block, n, q, k, dealer_fixed)
            else:
                bounds = np.linspace(cursor, cursor + block, workers + 1, dtype=np.int64)
                hits = []
                cnt = 0
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = [
                        pool.submit(_graphs_realising_k, int(a), int(b), n, q, k, dealer_fixed)
                        for a, b in zip(bounds[:-1], bounds[1:])
                    ]
                    for fut in futures:
                        h, c = fut.result()
                        cnt += c
                        if h is not None:
                            hits.append(h)
                hit = min(hits) if hits else None
            checked += cnt
            cursor += block
            if hit is not None:
                found = hit
            if ck:
                mark = "none" if found is None else str(found)
                ck.write(f"0, {cursor - 1}, {mark}\n")
                ck.flush()
    finally:
        if ck:
            ck.close()

    if found is None and found_prev is not None:
        found = found_prev
    if found is not None:
        g = Multigraph(q, _gamma_from_index(found, n, q))
        return SearchResult("found", found, serialize_graph(g), checked, cursor)
    if cursor >= total:
        return SearchResult("exhausted", None, None, checked, cursor)
    return SearchResult("budget_exceeded", None, None, checked, cursor)


@dataclass(frozen=True)
class TrialSummary:
    q: int
    n: int
    alpha: float
    trials: int
    successes: int
    seed: int
    success_rate: float | None

    def to_json(self) -> str:
        return json.dumps(
            {
                "q": self.q,
                "n": self.n,
                "alpha": self.alpha,
                "trials": self.trials,
                "successes": self.successes,
                "seed": self.seed,
                "success_rate": self.success_rate,
            },
            sort_keys=True,
        )


def batch_accessible_at_k(gammas: np.ndarray, q: int, k: int, dealer: int = 0) -> np.ndarray:
    """For a stack of adjacency matrices, test whether every size-k player
    set has derivative -1. Vectorized: one batched rank call per subset,
    with graphs dropped from the batch as soon as one subset fails."""
    count, n, _ = gammas.shape
    players = [v for v in range(n) if v != dealer]
    alive = np.ones(count, dtype=bool)
    for b in combinations(players, k):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        bset = set(b)
        rows = sorted(bset)
        cols = [v for v in range(n) if v not in bset]
        rows_d = sorted(bset | {dealer})
        cols_d = [v for v in cols if v != dealer]
        r_b = batch_rank_mod(gammas[np.ix_(idx, rows, cols)], q)
        r_bd = batch_rank_mod(gammas[np.ix_(idx, rows_d, cols_d)], q)
        alive[idx[r_bd - r_b != -1]] = False
    return alive


def random_trials(
    n: int,
    q: int,
    alpha: float,
    trials: int,
    seed: int,
    k: int | None = None,
    workers: int = 1,
) -> TrialSummary:
    """Sample uniform random order-n multigraphs (dealer 0) and count how
    many give every set of ceil(alpha * (n-1)) players access.

    Graphs are generated in fixed-size chunks, each from its own
    deterministic child seed, so the outcome depends only on (seed, n, q,
    alpha, trials) and not on the worker count.
    """
    require_prime(q)
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    players = n - 1
    if k is None:
        k = ceil(alpha * players - 1e-9)
    if not 1 <= k <= players:
        raise ValueError(f"threshold k={k} outside 1..{players}")
    if trials == 0:
        return TrialSummary(q, n, alpha, 0, 0, seed, None)

    chunks = [
        (chunk_index, min(TRIAL_CHUNK, trials - chunk_index * TRIAL_CHUNK))
        for chunk_index in range(-(-trials // TRIAL_CHUNK))
    ]
    if workers <= 1 or len(chunks) == 1:
        successes = sum(_trial_chunk(seed, ci, cn, n, q, k) for ci, cn in chunks)
    else:
        successes = 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_trial_chunk, seed, ci, cn, n, q, k) for ci, cn in chunks]
            for fut in futures:
                successes += fut.result()
    return TrialSummary(q, n, alpha, trials, successes, seed, successes / trials)


def _trial_chunk(seed: int, chunk_index: int, count: int, n: int, q: int, k: int) -> int:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
    m = n * (n - 1) // 2
    flat = rng.integers(0, q, size=(count, m))
    gammas = np.zeros((count, n, n), dtype=np.int64)
    iu = np.triu_indices(n, 1)
    gammas[:, iu[0], iu[1]] = flat
    gammas += np.transpose(gammas, (0, 2, 1))
    return int(batch_accessible_at_k(gammas, q, k).sum())


def sufficient_condition_check(g: Multigraph, alpha: float, budget: int = 5_000_000) -> bool:
    """Test the sufficient access condition at ratio alpha: every nonzero
    multiset C with support of at most (1-alpha)*n vertices must see, jointly
    with its neighbours, more than (1-alpha)*n vertices.

    True guarantees all sets of at least alpha*n players are accessible
    (regardless of dealer); False says nothing. Enumeration is over one
    representative per scalar class (first nonzero multiplicity = 1).
    """
    if not 0.5 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0.5, 1]")
    n, q = g.n, g.q
    threshold = (1.0 - alpha) * n
    s_max = int(threshold + 1e-9)
    classes = sum(comb(n, s) * (q - 1) ** (s - 1) for s in range(1, s_max + 1)) if s_max else 0
    if classes > budget:
        raise ValueError(f"{classes} support classes exceed budget {budget}")
    for size in range(1, s_max + 1):
        for supp in combinations(range(n), size):
            for tail in np.ndindex(*([q - 1] * (size - 1))):
                vec = np.zeros(n, dtype=np.int64)
                vec[supp[0]] = 1
                for j, t in enumerate(tail):
                    vec[supp[j + 1]] = t + 1
                nb = (g.gamma @ vec) % q
                joint = np.count_nonzero((vec != 0) | (nb != 0))
                if not joint > threshold + 1e-9:
                    return False
    return True
