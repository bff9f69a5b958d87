"""Threshold computation and scheme-existence searches.

A dealer graph realises a ((k, n))_q scheme when every set of k players can
reconstruct a quantum secret and some set of k - 1 players cannot (n counts
players, not vertices). Because accessibility is monotone, k - 1 is the size
of the largest non-accessible set. Every path asks one question of a list of
sizes: in the lexicographic player sets of each size in turn, which is the
first without access? `_first_failure` answers it for a stack of graphs from
cached gather plans with each graph's position in that stream of sets, and a
graph stops being ranked at its first failure. Only the set a report names is
read back off its plan (`_set_at`). The scan ranks its sets in blocks that
grow 4-fold per kernel call, each gathered stack capped at 512 KiB
(`BLOCK_BYTES`): on 9 x 3 matrices over F_5 a column step costs the int8
kernel 25 ns per matrix at 2,048 matrices and 16-18 ns from 8,192 up to
the cap.
One kernel call may rank a block that spans sizes: `scheme_k` scans one
window of sizes after another, a small graph's one window running from the
largest size down, and `is_scheme` ranks the size-k sets and then the
size-(k - 1) sets."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, chain, combinations, islice
from math import ceil, comb, isfinite, log2
from typing import Iterable, NamedTuple, TextIO

import numpy as np

from .access import _bordered_spans, _gather_index, _index_array, _zero_vertex
from .fqlinalg import _kernel_type, _residues, require_prime
from .multigraph import DealerGraph, Multigraph, _slot_map, serialize_graph

TRIAL_CHUNK = 2048
# Enumeration indices per exhaustive_search block: the checkpoint gains one
# record per block, and a block is cut into one slice per worker.
CHECKPOINT_EVERY = 50_000
# Bordered cut matrices in _first_failure's first kernel call, unless the
# live stack alone is larger: a graph that fails early leaves the stack
# after a small block. A call costs about as much for 256 matrices as for
# 64 on the scan's 9 x 3, 8 x 3 and 5 x 4 bordered matrices, being bound by
# its numpy calls per column step, so the first block starts at 256.
BLOCK = 256
# Sets per call grow GROWTH-fold after each call, so a long scan pays the
# kernel's fixed per-call cost rarely, while each block's gathered stack
# stays within BLOCK_BYTES. On int8 9 x 3 matrices over F_5 a column step
# costs 25.0 ns per matrix at 2,048 matrices (54 KiB), 16.1 ns at 8,192,
# 16.5 ns at 16,384 and 17.7 ns at 19,418 (512 KiB); at 512 KiB the stack
# and the kernel's scratch copy of it fit one core's 2 MiB L2. On the
# sample scans 4-fold growth won as much as 8-fold, and 2-fold little.
GROWTH = 4
BLOCK_BYTES = 1 << 19
# Sets per plan (_plan), so no block holds more; scheme_k scans its sizes
# in one window when their sets fit one plan.
BLOCK_CAP = 2048
# Plans (_plan) kept at once. A plan holds the halves of the flat gather
# index of at most BLOCK_CAP sets of a stream of sizes, n + 1 int64
# entries per set for one size and at most 2n for several: at most 32 KiB
# per vertex, so the cache holds at most 1 MiB per vertex. scheme_k's one
# window of sizes (order 12 or less) uses one plan, its windows of one size
# each a plan per BLOCK_CAP sets. A block's flat index is never kept.
PLAN_CACHE = 32
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


@lru_cache(maxsize=PLAN_CACHE)
def _plan(n: int, dealer: int, sizes: tuple[int, ...], chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only gather plan of the chunk-th run of at most BLOCK_CAP
    sets of the stream of lexicographic player sets (every vertex but the
    dealer) of each size of sizes in turn: access._gather_index's halves
    (rows, cols) of their flat index (access._index_array), as wide as the
    run's own widest and smallest sets. Its checks run once per plan. At
    most PLAN_CACHE plans are kept, so no stream is built whole and memory
    stays bounded at any n."""
    players = [v for v in range(n) if v != dealer]
    stream = chain.from_iterable(combinations(players, size) for size in sizes)
    sets = list(islice(stream, chunk * BLOCK_CAP, (chunk + 1) * BLOCK_CAP))
    rows, cols = _gather_index(n, dealer, _index_array(sets))
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _block_index(n: int, dealer: int, sizes: tuple[int, ...], start: int, stop: int) -> np.ndarray:
    """The (R, C, sets) flat index of the sets [start, stop) of the stream of
    sizes: a slice of one plan whose halves keep their first w entries and
    the dealer, w the members of the block's widest set (rows) and the other
    players of its smallest (cols). A block spanning two plans raises ValueError."""
    chunk, lo = divmod(start, BLOCK_CAP)
    hi = stop - chunk * BLOCK_CAP
    if hi > BLOCK_CAP:
        raise ValueError(f"sets {start}..{stop - 1} span two plans")
    ends = list(accumulate(comb(n - 1, size) for size in sizes))  # where each size's sets end
    touched = sizes[bisect_right(ends, start) : bisect_left(ends, stop) + 1]
    rows, cols = _plan(n, dealer, sizes, chunk)
    cut = lambda half, w: half[:, lo:hi] if w == len(half) - 1 else half[[*range(w), -1], lo:hi]
    return cut(rows, max(touched))[:, None] + cut(cols, n - 1 - min(touched))


def _set_at(n: int, dealer: int, sizes: tuple[int, ...], position: int) -> tuple[int, ...]:
    """The set at a position of the stream of sizes, read off its plan: the
    members are the rows before the dealer's that reach no pad."""
    chunk, j = divmod(int(position), BLOCK_CAP)
    return tuple(u // (n + 1) for u in _plan(n, dealer, sizes, chunk)[0][:-1, j].tolist() if u < n * (n + 1))


def _first_failure(gammas: np.ndarray, q: int, dealer: int, sizes: Iterable[int]) -> np.ndarray:
    """For each graph of a stack, the position of its first set without
    access in the stream of lexicographic player sets of each size of sizes
    in turn, or -1: an int64 array.

    The one subset scan behind every search path. It borders the stack
    once (_zero_vertex), one column per graph, and ranks blocks of sets,
    each gathered at one flat index (_block_index) in one _bordered_spans
    call and stopping at the end of its plan. The first block holds
    max(1, BLOCK // graphs) sets, and each later one GROWTH (4) times as
    many as the one before, but never more than fit BLOCK_BYTES (512 KiB)
    at the widest bordered matrix of the stream for the graphs still live
    (at least one set): a column step costs the int8 kernel 25 ns per
    9 x 3 matrix at 2,048 matrices and 16-18 ns from 8,192 up to the cap.
    A set fails unless its derivative is -1: when r is outside rowspan M or
    c inside colspan M (batch_indicators). A graph leaves at its first
    failure, the argmax inside its ordered block, so block sizes change
    only the number of calls, never a result. Its column is dropped by
    compress: on order-11 int8 stacks (2-vCPU Xeon) 154 us against
    246-255 us for a boolean index at 2,048 graphs, 23 against 14 at 256.
    The stack must hold residues mod q; an empty one ranks nothing.
    """
    sizes = tuple(sizes)
    n = gammas.shape[1]
    stack = _zero_vertex(gammas, q)
    found = np.full(len(gammas), -1)
    live = np.arange(len(gammas))
    start, total = 0, sum(comb(n - 1, size) for size in sizes)
    count = max(1, BLOCK // max(1, live.size))
    matrices = BLOCK_BYTES // ((max(sizes) + 1) * (n - min(sizes)) * stack.itemsize)
    while live.size and start < total:
        stop = min(total, start + min(count, max(1, matrices // live.size)), (start // BLOCK_CAP + 1) * BLOCK_CAP)
        count = min(GROWTH * count, BLOCK_CAP)
        c_outside, r_outside = _bordered_spans(stack, q, _block_index(n, dealer, sizes, start, stop))
        failing = r_outside | ~c_outside
        failed = failing.any(axis=0)
        if failed.any():
            found[live[failed]] = start + failing[:, failed].argmax(axis=0)
            live, stack = live[~failed], stack.compress(~failed, axis=1)
        start = stop
    return found


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


def _worst_unauthorized(dg: DealerGraph, windows: Iterable[tuple[int, ...]]) -> tuple[int, ...]:
    """The set of the last failure found by one _first_failure scan per
    window of sizes, in order, up to the first window without a failure.
    scheme_k's windows make it the lexicographically first non-accessible
    set of the largest size."""
    g = dg.graph
    for sizes in windows:
        position = _first_failure(g.gamma[None], g.q, dg.dealer, sizes)[0]
        if position < 0:
            break
        found = sizes, position
    return _set_at(g.n, dg.dealer, *found)


def scheme_k(dg: DealerGraph) -> SchemeReport:
    """Exact threshold k: 1 + the size of the largest non-accessible set.

    Subsets of a non-accessible set are non-accessible, and every set of
    size p // 2 or less fails for p players (_some_set_fails), so k - 1 is
    the largest size from p // 2 to p - 1 with a failing set; the full
    player set of a non-isolated dealer has access. worst_unauthorized is
    the lexicographically first non-accessible set of size k - 1. When the
    sets of those sizes fit one BLOCK_CAP plan, one window of the sizes
    from p - 1 down to p // 2 ranks them in a few kernel calls, and its
    first failure lies in the largest failing size; larger graphs take one
    window per size upwards from p // 2 and never rank the sets above k.
    """
    p = len(dg.players)
    sizes = range(p // 2, p)
    if sum(comb(p, size) for size in sizes) <= BLOCK_CAP:
        windows = [tuple(reversed(sizes))]
    else:
        windows = [(size,) for size in sizes]
    worst = _worst_unauthorized(dg, windows)
    return SchemeReport(len(worst) + 1, p, worst)


class IsSchemeResult(NamedTuple):
    ok: bool
    counterexample: tuple[int, ...] | None
    reason: str

    def __bool__(self) -> bool:
        return self.ok


def _sizes_at_k(k: int, players: int) -> tuple[int, ...]:
    """The sizes a test of threshold k ranks, in order: k, then k - 1 unless
    _some_set_fails settles tightness. In one scan of both, a failure of
    size k is a counterexample and one of size k - 1 proves tightness."""
    return (k,) if _some_set_fails(k - 1, players) else (k, k - 1)


def is_scheme(dg: DealerGraph, k: int) -> IsSchemeResult:
    """Decide whether the graph realises a ((k, n)) scheme at exactly this k.

    Requires every size-k player set to be accessible and at least one
    size-(k-1) set not to be (tightness; without it the graph realises a
    smaller threshold). One scan ranks the size-k sets and then, unless
    _some_set_fails settles tightness, the size-(k-1) sets, up to the first
    failure. The first failing size-k set in lexicographic order is returned
    as the counterexample; a tightness failure has none.
    """
    g, d = dg.graph, dg.dealer
    players = dg.players
    if not 1 <= k <= len(players):
        raise ValueError(f"k={k} outside 1..{len(players)}")
    sizes = _sizes_at_k(k, len(players))
    position = _first_failure(g.gamma[None], g.q, d, sizes)[0]
    if 0 <= position < comb(len(players), k):
        return IsSchemeResult(False, _set_at(g.n, d, sizes, position), f"set of size {k} cannot access the secret")
    if position < 0 and len(sizes) == 2:
        return IsSchemeResult(False, None, f"k is not minimal: every set of size {k - 1} already has access")
    return IsSchemeResult(True, None, "ok")


def _gamma_from_index(index, n: int, q: int) -> np.ndarray:
    """Adjacency matrices for enumeration indices, in the kernel's type for
    q, so a scan of them reduces nothing; Multigraph takes one as int64.

    The edge slots of multigraph._slot_map are read as base-q digits with
    the first slot most significant, so contiguous index ranges share their
    leading entries. index is an int or an integer array below 2^63; the
    result has shape index.shape + (n, n). Such an index has at most g + 1
    base-q digits, g the most with q^g below 2^63, so one vectorised pass
    takes the last min(m, g + 1) slots and leaves the slots above them zero.
    """
    m = n * (n - 1) // 2
    width = min(m, int(63 / log2(q) - 1e-9) + 1)
    index = np.asarray(index, dtype=np.int64)
    digits = np.zeros(index.shape + (m + 1,), dtype=_kernel_type(q))
    digits[..., m - width : m] = index[..., None] // q ** np.arange(width - 1, -1, -1, dtype=np.int64) % q
    return digits[..., _slot_map(n)]


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
    player set is accessible and some size-(k-1) set is not. One scan per
    dealer over the sizes of _sizes_at_k decides both: the first failure
    lies past the C(n - 1, k) size-k sets, or is absent if k alone is ranked.
    """
    if _some_set_fails(k, n - 1):
        return None  # no graph realises this k, so none is built
    dealers = (0,) if dealer_fixed else range(n)
    sizes = _sizes_at_k(k, n - 1)
    for lo in range(start, stop, TRIAL_CHUNK):
        gammas = _gamma_from_index(lo + np.arange(min(stop - lo, TRIAL_CHUNK)), n, q)
        hit = np.zeros(len(gammas), dtype=bool)
        for d in dealers:
            live = np.flatnonzero(gammas[:, d].any(axis=1) & ~hit)
            first = _first_failure(gammas[live], q, d, sizes)
            hit[live] = first >= comb(n - 1, k) if len(sizes) == 2 else first < 0
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
) -> SearchResult:
    """Enumerate every order-n F_q-graph in index order and return the first
    one realising a ((k, n-1))_q scheme.

    With dealer_fixed the dealer is vertex 0 (sufficient when searching for
    existence: relabeling moves any dealer there); otherwise every vertex is
    tried. Graphs are built and tested in vectorised sub-blocks of at most
    TRIAL_CHUNK indices (_graphs_realising_k). budget caps the number of
    graphs examined and yields a budget_exceeded result carrying the resume
    index. The checkpoint file starts with a
    `# n=.. q=.. k=.. dealer_fixed=..` header and appends
    `slice_index, last_enumeration_index, partial_result` lines; a rerun
    with the same file and parameters skips finished work, and one with
    other parameters raises ValueError. Each block of CHECKPOINT_EVERY
    indices is cut into `workers` contiguous slices, mapped through one
    process pool for the whole call when workers > 1; the block's hit is
    the least slice hit, so the result does not depend on workers. A block
    that would reach index 2^63 raises ValueError.
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
    checked = 0
    with ExitStack() as stack:
        ck = stack.enter_context(open(checkpoint_path, "a+")) if checkpoint_path else None
        state = _read_checkpoint(ck, header, min(total, _INDEX_LIMIT), scan) if ck else None
        last, found = state or (-1, None)
        start = last + 1
        stop = total if budget is None else min(total, start + budget)
        run = stack.enter_context(_ordered_map(workers))
        cursor = start
        while cursor < stop and found is None:
            end = min(stop, cursor + CHECKPOINT_EVERY)
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
    set has derivative -1: never when _some_set_fails, so nothing is ranked,
    but the stack is reduced mod q first, so every entry is checked."""
    gammas = _residues(gammas, require_prime(q))
    if _some_set_fails(k, gammas.shape[1] - 1):
        return np.zeros(len(gammas), dtype=bool)
    return _first_failure(gammas, q, dealer, [k]) < 0


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
    # the multiplicities are residues, drawn straight into the kernel's
    # type, so batch_accessible_at_k reduces bytes
    slots = np.zeros((count, m + 1), dtype=_kernel_type(q))
    slots[:, :m] = rng.integers(0, q, size=(count, m))
    return int(batch_accessible_at_k(slots[:, _slot_map(n)], q, k).sum())
