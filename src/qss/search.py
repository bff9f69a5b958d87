"""Threshold computation and scheme-existence searches.

A dealer graph realises a ((k, n))_q scheme when every set of k players can
reconstruct a quantum secret and some set of k - 1 players cannot (n counts
players, not vertices). Because accessibility is monotone, k - 1 is the size
of the largest non-accessible set. Every path asks one question of a list of
player sets: which is the first without access? `_first_failure` answers it
for a stack of graphs, and a graph stops being ranked at its first failure.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import combinations, islice
from math import ceil, comb, isfinite
from typing import Iterable, NamedTuple, TextIO

import numpy as np

from .access import batch_indicators
from .fqlinalg import require_prime
from .multigraph import DealerGraph, Multigraph, serialize_graph

TRIAL_CHUNK = 2048
# Bordered cut matrices in _first_failure's first batch_indicators call,
# unless the live stack alone is larger. The budget doubles after each call
# up to BLOCK_CAP: a graph that fails early leaves the stack after small
# blocks, while a long scan pays the kernel's fixed per-call cost rarely.
# Past BLOCK_CAP matrices the elimination slows per matrix, as the stack
# outgrows a 2 MiB L2 cache.
BLOCK = 64
BLOCK_CAP = 2048
# _gamma_from_index builds int64 indices, so no search reaches this index
_INDEX_LIMIT = 2**63


@contextmanager
def _ordered_map(workers: int):
    """The map every parallel path runs through: the builtin map when
    workers is 1, else the ordered map of one process pool that serves the
    whole call. Results come back in input order either way."""
    if workers == 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool.map


@dataclass(frozen=True)
class SchemeReport:
    k: int
    n_players: int
    worst_unauthorized: tuple[int, ...]
    all_accessible_at_k: bool


def _first_failure(
    gammas: np.ndarray, q: int, dealer: int, sets: Iterable[tuple[int, ...]]
) -> list[tuple[int, ...] | None]:
    """For each graph of a stack, the first player set of the ordered stream
    sets whose derivative is not -1, or None when every set has access.

    The one subset scan behind every search path. The stream is pulled in
    blocks of max(1, budget // live) sets, where live counts the graphs
    still in the stack and the budget of bordered matrices starts at BLOCK
    and doubles after each call up to BLOCK_CAP; the stream is never built
    whole. A graph leaves the stack at its first failure, the argmax inside
    its ordered block, so the block sizes change only the number of calls,
    never a result. The scan stops when no graph is left.
    """
    first: list[tuple[int, ...] | None] = [None] * len(gammas)
    live = np.arange(len(gammas))
    sets = iter(sets)
    budget = BLOCK
    while live.size and (block := list(islice(sets, max(1, budget // live.size)))):
        budget = min(2 * budget, BLOCK_CAP)
        failing = batch_indicators(gammas, q, dealer, np.array(block, dtype=np.intp))[1] != -1
        failed = failing.any(axis=1)
        if failed.any():
            for i, j in zip(live[failed], failing[failed].argmax(axis=1)):
                first[i] = block[j]
            keep = ~failed
            live, gammas = live[keep], gammas[keep]
    return first


def _some_set_fails(size: int, players: int) -> bool:
    """No-cloning (Cleve, Gottesman and Lo, PRL 83, 648, 1999): when
    2 * size <= players, some set of that size has no access.

    Proof. For player set P, the bordered matrix of P - B (batch_indicators)
    is the transpose of B's, so der(B) = pi(P - B) - pi(B). pi is monotone:
    a witness D over B also serves any superset. So der(B) = -1 gives
    pi(P - B) = 0, and every set disjoint from B has pi = 0 and der >= 0.
    Two disjoint sets of this size exist and never both have access.
    """
    return 2 * size <= players


def scheme_k(dg: DealerGraph) -> SchemeReport:
    """Exact threshold k: 1 + the size of the largest non-accessible set.

    Scans player subsets size by size, upwards from p // 2 (_some_set_fails
    decides every smaller size), stopping each size at its first
    non-accessible set. Subsets of a non-accessible set are non-accessible,
    so the first size without one is k, and worst_unauthorized is the
    lexicographically first non-accessible set of size k - 1.
    """
    g, d, players = dg.graph, dg.dealer, dg.players
    worst: tuple[int, ...] = ()
    for size in range(1, len(players) + 1):
        if _some_set_fails(size + 1, len(players)):
            continue  # size + 1 fails too, so size is neither k nor k - 1
        failure = _first_failure(g.gamma[None], g.q, d, combinations(players, size))[0]
        if failure is None:
            return SchemeReport(size, len(players), worst, True)
        worst = failure
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
    smaller threshold). Scans the size-k sets, then, unless _some_set_fails
    settles tightness, the size-(k-1) sets, each up to its first failure.
    The first failing size-k set in lexicographic order is returned as the
    counterexample; a tightness failure has none.
    """
    g, d = dg.graph, dg.dealer
    players = dg.players
    if not 1 <= k <= len(players):
        raise ValueError(f"k={k} outside 1..{len(players)}")
    failure = _first_failure(g.gamma[None], g.q, d, combinations(players, k))[0]
    if failure is not None:
        return IsSchemeResult(False, failure, f"set of size {k} cannot access the secret")
    tight = _some_set_fails(k - 1, len(players))
    if tight or _first_failure(g.gamma[None], g.q, d, combinations(players, k - 1))[0] is not None:
        return IsSchemeResult(True, None, "ok")
    return IsSchemeResult(False, None, f"k is not minimal: every set of size {k - 1} already has access")


def _gamma_from_index(index, n: int, q: int) -> np.ndarray:
    """Adjacency matrices for enumeration indices.

    Edge slots are ordered row-major ((0,1), (0,2), ..., (n-2,n-1)) and read
    as base-q digits with the first slot most significant, so contiguous
    index ranges share their leading entries. index is an int or an integer
    array; the result has shape index.shape + (n, n).
    """
    rest = np.array(index, dtype=np.int64)
    gamma = np.zeros(rest.shape + (n, n), dtype=np.int64)
    rows, cols = np.triu_indices(n, 1)
    for slot in range(rows.size - 1, -1, -1):
        gamma[..., rows[slot], cols[slot]] = rest % q
        rest //= q
    return gamma + np.swapaxes(gamma, -1, -2)


@dataclass(frozen=True)
class SearchResult:
    status: str  # found | exhausted | budget_exceeded
    index: int | None
    graph_text: str | None
    checked: int
    next_index: int


def _graphs_realising_k(start: int, stop: int, n: int, q: int, k: int, dealer_fixed: bool) -> int | None:
    """The first hit among enumeration indices [start, stop), scanned in
    sub-blocks of at most TRIAL_CHUNK graphs, or None.

    A graph is a hit for dealer d when d has a neighbour, every size-k
    player set is accessible and some size-(k-1) set is not.
    """
    if _some_set_fails(k, n - 1):
        return None  # no graph realises this k, so none is built
    dealers = (0,) if dealer_fixed else range(n)
    for lo in range(start, stop, TRIAL_CHUNK):
        gammas = _gamma_from_index(lo + np.arange(min(stop - lo, TRIAL_CHUNK)), n, q)
        hit = np.zeros(len(gammas), dtype=bool)
        for d in dealers:
            ok = gammas[:, d].any(axis=1) & ~hit
            for size, wanted in ((k, True), (k - 1, False)):
                live = np.flatnonzero(ok)
                ok[live] = batch_accessible_at_k(gammas[live], q, size, d) == wanted
            hit |= ok
        if hit.any():
            return lo + int(np.argmax(hit))
    return None


def _read_checkpoint(fh: TextIO, header: str, limit: int, scan) -> tuple[int, int | None] | None:
    """(last_index, found) of the last complete record of an append-only
    checkpoint, or None when it holds no record yet.

    fh is the checkpoint opened in "a+" mode. An empty file gets the header
    line; otherwise the file must start with it, so a run never resumes
    another search's progress. A trailing record without its newline was
    torn by an interrupted write: it is cut off, and the next append starts
    a fresh line. Records only ever advance, so the last one is the state.
    One that does not parse as `slice, last, found`, whose last index lies
    outside [0, limit), or whose found index lies outside [0, last] or is
    no hit of scan(start, stop) raises ValueError.
    """
    fh.seek(0)
    text = fh.read()
    if not (text.startswith(header + "\n") or (header + "\n").startswith(text)):
        first = text.splitlines()[0]
        raise ValueError(f"checkpoint {fh.name} starts {first!r}, not {header!r}: it belongs to another search")
    complete = text[: text.rfind("\n") + 1]
    fh.truncate(len(complete.encode()))
    if not complete:
        fh.write(header + "\n")
        fh.flush()
    lines = complete.splitlines()
    if len(lines) < 2:
        return None
    where = f"checkpoint {fh.name} line {len(lines)}: {lines[-1]!r}"
    try:
        sl, last, found = [p.strip() for p in lines[-1].split(",")]
        int(sl)
        last, found = int(last), None if found in ("none", "") else int(found)
    except ValueError:
        raise ValueError(f"{where} is not a 'slice, last, found' record") from None
    if not 0 <= last < limit:
        raise ValueError(f"{where} has its last index outside 0..{limit - 1}")
    if found is not None and not 0 <= found <= last:
        raise ValueError(f"{where} has its found index outside 0..{last}")
    if found is not None and scan(found, found + 1) is None:
        raise ValueError(f"{where} names graph {found}, which realises no such scheme")
    return last, found


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
    tried. Graphs are built and tested in vectorised sub-blocks of at most
    TRIAL_CHUNK indices through batch_accessible_at_k. budget caps the
    number of graphs examined and yields a budget_exceeded result carrying
    the resume index. The checkpoint file starts with a
    `# n=.. q=.. k=.. dealer_fixed=..` header and appends
    `slice_index, last_enumeration_index, partial_result` lines; a rerun
    with the same file and parameters skips finished work, and one with
    other parameters raises ValueError. Each checkpoint block is cut into
    `workers` contiguous slices, mapped through one process pool for the
    whole call when workers > 1; the block's hit is the least slice hit, so
    the result does not depend on workers. A block that would reach index
    2^63 raises ValueError.
    """
    require_prime(q)
    if n < 2:
        raise ValueError("need at least a dealer and one player")
    if not 1 <= k <= n - 1:
        raise ValueError(f"threshold k={k} outside 1..{n - 1}")
    if budget is not None and budget < 0:
        raise ValueError("budget must be nonnegative")
    if workers < 1:
        raise ValueError(f"workers={workers} is below 1")
    total = q ** (n * (n - 1) // 2)
    header = f"# n={n} q={q} k={k} dealer_fixed={int(dealer_fixed)}"
    scan = partial(_graphs_realising_k, n=n, q=q, k=k, dealer_fixed=dealer_fixed)
    found: int | None = None
    checked = 0
    with ExitStack() as stack:
        ck = stack.enter_context(open(checkpoint_path, "a+")) if checkpoint_path else None
        state = _read_checkpoint(ck, header, min(total, _INDEX_LIMIT), scan) if ck else None
        last, found_prev = state or (-1, None)
        start = last + 1
        stop = total if budget is None else min(total, start + budget)
        if found_prev is not None:
            stop = min(stop, found_prev)

        run = stack.enter_context(_ordered_map(workers))
        cursor = start
        while cursor < stop and found is None:
            end = min(stop, cursor + max(checkpoint_every, 1))
            if end > _INDEX_LIMIT:
                raise ValueError(f"the block from index {cursor} reaches 2^63, beyond the int64 enumeration")
            cuts = [cursor + (end - cursor) * i // workers for i in range(workers + 1)]
            found = min((hit for hit in run(scan, cuts[:-1], cuts[1:]) if hit is not None), default=None)
            checked += (end if found is None else found + 1) - cursor
            cursor = end
            if ck:
                mark = "none" if found is None else str(found)
                ck.write(f"0, {cursor - 1}, {mark}\n")
                ck.flush()

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


def batch_accessible_at_k(gammas: np.ndarray, q: int, k: int, dealer: int = 0) -> np.ndarray:
    """For a stack of adjacency matrices, test whether every size-k player
    set has derivative -1: never when _some_set_fails, so nothing is ranked."""
    players = [v for v in range(gammas.shape[1]) if v != dealer]
    if _some_set_fails(k, len(players)):
        return np.zeros(len(gammas), dtype=bool)
    first = _first_failure(gammas, q, dealer, combinations(players, k))
    return np.array([f is None for f in first], dtype=bool)


def random_trials(
    n: int,
    q: int,
    alpha: float,
    trials: int,
    seed: int,
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
    if workers < 1:
        raise ValueError(f"workers={workers} is below 1")
    players = n - 1
    if not isfinite(alpha * players):
        raise ValueError(f"alpha={alpha} gives no finite threshold over {players} players")
    k = ceil(alpha * players - 1e-9)
    if not 1 <= k <= players:
        raise ValueError(f"threshold k={k} outside 1..{players}")
    if trials == 0:
        return TrialSummary(q, n, alpha, 0, 0, seed, None)

    chunks = range(-(-trials // TRIAL_CHUNK))
    counts = [min(TRIAL_CHUNK, trials - ci * TRIAL_CHUNK) for ci in chunks]
    with _ordered_map(workers) as run:
        successes = sum(run(partial(_trial_chunk, seed, n=n, q=q, k=k), chunks, counts))
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

    This is the paper's sufficient condition behind its random-multigraph
    theorem (a random multigraph has accessing parameter k <= alpha*n with
    high probability); bounds.random_threshold_alpha(q) is that alpha.

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
