"""The four benchmark workloads: scan, threshold, enumerate and oracle.

A workload turns the run seed into input files and a stream of CLI ops.
Ops come in cycles: one cycle covers the workload's whole input mix once,
so a run of whole cycles measures the same mix whatever the seed. Each op
of a cycle fills a slot, and slot j of every cycle has the same shape and
cost; the runner times a slot by its median over the cycles. The seed changes only
the contents of the inputs (graph entries, `--seed` values, the order of
the search spaces), never their shapes.

Inputs are generated here with numpy and written in the program's text
graph format, so a change to the program's own generators cannot change
what the benchmark feeds it. Output checks use the library (`is_scheme`,
`quantum_derivative`, `exhaustive_search`) and run after the timed region.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import ceil
from pathlib import Path

import numpy as np

from qss.access import quantum_derivative
from qss.multigraph import DealerGraph, Multigraph, parse_graph
from qss.search import TRIAL_CHUNK, exhaustive_search, is_scheme

# Order-8 graph over F_7 realising a ((4,7))_7 scheme with dealer 0 (the
# README's rs747 fixture), spelled out so the benchmark input is fixed.
RS747_TEXT = """q 7
n 8
e 0 4 6
e 0 5 3
e 0 6 4
e 0 7 1
e 1 4 6
e 1 5 4
e 1 6 1
e 1 7 4
e 2 4 3
e 2 5 1
e 2 6 1
e 2 7 3
e 3 4 4
e 3 5 1
e 3 6 4
e 3 7 6
"""


@dataclass
class Op:
    """One CLI invocation; the runner fills in rc, out, err, latency and
    probe_s, and the workload's evaluate() fills in error and items. Ops of
    the same slot do the same work in every cycle."""

    argv: list[str]
    key: tuple
    label: str
    slot: object
    rc: int | None = None
    out: str = ""
    err: str = ""
    latency: float = 0.0
    probe_s: float = 0.0
    error: str | None = None
    items: int = 0


def graph_text(q: int, gamma: np.ndarray) -> str:
    n = gamma.shape[0]
    lines = [f"q {q}", f"n {n}"]
    lines += [f"e {u} {v} {int(gamma[u, v])}" for u in range(n) for v in range(u + 1, n) if gamma[u, v]]
    return "\n".join(lines) + "\n"


def random_gamma(rng: np.random.Generator, n: int, q: int, nonisolated: str) -> np.ndarray:
    """Uniform F_q adjacency matrix, redrawn until the dealer (vertex 0) or
    every vertex, as `nonisolated` says, has a neighbour."""
    iu = np.triu_indices(n, 1)
    while True:
        gamma = np.zeros((n, n), dtype=np.int64)
        gamma[iu] = rng.integers(0, q, size=len(iu[0]))
        gamma += gamma.T
        degrees = np.count_nonzero(gamma, axis=1)
        if (degrees[0] if nonisolated == "dealer" else degrees.min()) > 0:
            return gamma


def relabel(rng: np.random.Generator, q: int, gamma: np.ndarray) -> np.ndarray:
    """A copy of the graph with the players (every vertex but 0) permuted and
    each vertex scaled by a nonzero factor (Gamma -> D Gamma D). Both keep
    every cut rank, so the copy has the same access structure, up to the
    permutation, and costs the program the same work."""
    n = gamma.shape[0]
    perm = np.concatenate(([0], 1 + rng.permutation(n - 1)))
    scale = rng.integers(1, q, size=n)
    return (scale[:, None] * gamma[np.ix_(perm, perm)] * scale[None, :]) % q


def _parse(op: Op, expected_rc: tuple[int, ...] = (0,)) -> dict | None:
    """Decode the op's JSON report; record a failure on the op if the exit
    code or the report is not what the CLI promises."""
    if op.rc not in expected_rc:
        op.error = f"exit code {op.rc}: {op.err.strip()[-200:]}"
        return None
    try:
        return json.loads(op.out)
    except json.JSONDecodeError as exc:
        op.error = f"report is not JSON: {exc}"
        return None


class Workload:
    name = ""
    cycle_s = 1.0  # nominal wall time of one cycle on the reference machine
    trace_cycles = 1

    def __init__(self, seed: int, workdir: Path, smoke: bool, cycles: int):
        """Generate the inputs of cycles 0..cycles-1 from the seed."""
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def warmup(self) -> list[Op]:
        raise NotImplementedError

    def cycle(self, c: int, tag: str):
        """Yield the ops of cycle c. A generator may read the rc of the op
        it yielded last to decide what comes next."""
        raise NotImplementedError

    def evaluate(self, ops: list[Op]) -> None:
        """Set op.error (None when the output checks pass) and op.items."""
        raise NotImplementedError

    def layer_counts(self, ops: list[Op]) -> dict[str, float]:
        """Per-layer counts only the benchmark can see (files, reports)."""
        return {}

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        return str(path)


class Scan(Workload):
    """`qss sample --workers 1` cycling over three (n, q, alpha) points."""

    name = "scan"
    cycle_s = 2.8
    trace_cycles = 2
    # (n, q, alpha, trials per op). (8,3,0.5) is the criterion-11 point, where
    # graphs leave the batch after a few subsets; (11,5,0.75) the criterion-10
    # point, where nearly all survive every subset; (10,2,0.75) mixes both.
    POINTS = [(8, 3, 0.5, 1024), (11, 5, 0.75, 256), (10, 2, 0.75, 256)]
    OPS_PER_POINT = 16
    SMOKE_POINTS = [(8, 3, 0.5, 64), (11, 5, 0.75, 16), (10, 2, 0.75, 16)]

    def __init__(self, seed, workdir, smoke, cycles):
        super().__init__(seed, workdir, smoke, cycles)
        self.points = self.SMOKE_POINTS if smoke else self.POINTS
        self.per_point = 2 if smoke else self.OPS_PER_POINT
        self.op_seeds = self.rng.integers(0, 2**31 - 1, size=(cycles, len(self.points), self.per_point))
        self.warm_seeds = self.rng.integers(0, 2**31 - 1, size=len(self.points))

    def _op(self, i: int, seed: int, trials: int, slot) -> Op:
        n, q, alpha, _ = self.points[i]
        argv = ["sample", "--n", str(n), "--q", str(q), "--alpha", str(alpha),
                "--trials", str(trials), "--seed", str(seed), "--workers", "1"]
        return Op(argv, (i, seed, trials), f"n{n}q{q}a{alpha}", slot)

    def warmup(self):
        return [self._op(i, int(s), 64, None) for i, s in enumerate(self.warm_seeds)]

    def cycle(self, c, tag):
        for j in range(self.per_point):
            for i, point in enumerate(self.points):
                yield self._op(i, int(self.op_seeds[c, i, j]), point[3], (i, j))

    def evaluate(self, ops):
        rederived: set[int] = set()
        for op in ops:
            report = _parse(op)
            if report is None:
                continue
            i, seed, trials = op.key
            n, q, alpha, _ = self.points[i]
            res = report["result"]
            got = (res["n"], res["q"], res["alpha"], res["trials"], res["seed"])
            if got != (n, q, alpha, trials, seed) or not 0 <= res["successes"] <= trials:
                op.error = f"report does not match the request: {res}"
                continue
            if i not in rederived:
                rederived.add(i)
                scalar = scalar_successes(n, q, alpha, trials, seed)
                if scalar != res["successes"]:
                    op.error = f"successes {res['successes']} but the scalar path gives {scalar}"
                    continue
            op.items = trials


def scalar_successes(n: int, q: int, alpha: float, trials: int, seed: int) -> int:
    """Re-derive a `sample` success count by the scalar path.

    Regenerates the graphs from the per-chunk seeding that `random_trials`
    documents, SeedSequence(entropy=seed, spawn_key=(chunk,)), and asks
    `quantum_derivative` about every k-set of every graph.
    """
    k = ceil(alpha * (n - 1) - 1e-9)
    iu = np.triu_indices(n, 1)
    players = range(1, n)
    successes = 0
    for chunk in range(-(-trials // TRIAL_CHUNK)):
        count = min(TRIAL_CHUNK, trials - chunk * TRIAL_CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))
        for row in rng.integers(0, q, size=(count, len(iu[0]))):
            gamma = np.zeros((n, n), dtype=np.int64)
            gamma[iu] = row
            g = Multigraph(q, gamma + gamma.T)
            successes += all(quantum_derivative(g, 0, b) == -1 for b in combinations(players, k))
    return successes


class Threshold(Workload):
    """One `qss scheme-k --dealer 0` per graph file."""

    name = "threshold"
    cycle_s = 3.7
    trace_cycles = 1
    # Base graphs, drawn once from BASE_SEED: rs747 and one random graph per
    # (n, q). The cost of scheme_k varies a lot between random graphs of one
    # shape (the threshold k and the pruning differ), so fresh random graphs
    # per seed would make the run's median and tail depend on the seed.
    # Instead every op gets a copy of a base graph relabelled by the seed,
    # which keeps the threshold, the pruning and the number of rank
    # computations while the file the program reads changes with the seed.
    # A cycle holds COPIES copies of each random base and RS747_COPIES of
    # rs747.
    BASE_SEED = 747
    SHAPES = [(n, q) for n in (9, 10, 11) for q in (2, 3, 5, 7)]
    COPIES = 3
    RS747_COPIES = 4
    SMOKE_SHAPES = [(6, 2), (7, 5)]

    def __init__(self, seed, workdir, smoke, cycles):
        super().__init__(seed, workdir, smoke, cycles)
        base_rng = np.random.default_rng(self.BASE_SEED)
        rs747 = parse_graph(RS747_TEXT)
        copies = 1 if smoke else self.COPIES
        randoms = [(q, random_gamma(base_rng, n, q, "dealer"), f"n{n}q{q}")
                   for n, q in (self.SMOKE_SHAPES if smoke else self.SHAPES)]
        self.slots = [(rs747.q, rs747.gamma, "rs747")] * (1 if smoke else self.RS747_COPIES) + randoms * copies
        self.cycles = [self._relabelled(f"c{c}", self.slots) for c in range(cycles)]
        # Warm-up touches every field size on the smallest graphs only.
        n_warm = min(gamma.shape[0] for _, gamma, _ in randoms)
        self.warm = self._relabelled("warm", self.slots[:1] + [b for b in randoms if b[1].shape[0] == n_warm])
        self._k: dict[str, int] = {}

    def _relabelled(self, tag: str, bases) -> list[str]:
        return [self._write(f"{tag}.{j}-{label}.txt", graph_text(q, relabel(self.rng, q, gamma)))
                for j, (q, gamma, label) in enumerate(bases)]

    def warmup(self):
        return [self._op(p, None) for p in self.warm]

    def cycle(self, c, tag):
        for j, p in enumerate(self.cycles[c]):
            yield self._op(p, j)

    @staticmethod
    def _op(path: str, slot) -> Op:
        return Op(["scheme-k", path, "--dealer", "0"], (path,), Path(path).stem.split("-", 1)[-1], slot)

    def evaluate(self, ops):
        """The first op of each base graph must pass `is_scheme(k)`; every
        other copy must report the same k (relabelling keeps it). Every op's
        `worst_unauthorized` must be an unauthorized set of size k-1."""
        for op in ops:
            report = _parse(op)
            if report is None:
                continue
            res = report["result"]
            g = parse_graph(Path(op.key[0]).read_text())
            op.error = self._check(op.label, g, res["k"], tuple(res["worst_unauthorized"]))
            op.items = 0 if op.error else 1

    def _check(self, label: str, g, k: int, worst: tuple) -> str | None:
        if label not in self._k:
            if not is_scheme(DealerGraph(g, 0), k).ok:
                return f"is_scheme rejects k={k}"
            self._k[label] = k
        if k != self._k[label]:
            return f"k={k} on a relabelled copy of {label}, {self._k[label]} on another"
        if len(worst) != k - 1 or quantum_derivative(g, 0, worst) == -1:
            return f"worst_unauthorized {worst} is not an unauthorized set of size {k - 1}"
        return None


class Enumerate(Workload):
    """Budgeted `qss search` blocks resumed from a checkpoint until exit 0."""

    name = "enumerate"
    cycle_s = 2.7
    trace_cycles = 1
    # (n, q, k): (5,2,2) is exhausted without a hit; (5,3,3) and (6,2,3)
    # stop at their first scheme graph, at indices 2931 and 7915.
    SPACES = [(5, 2, 2), (5, 3, 3), (6, 2, 3)]
    BUDGET = 256
    SMOKE_SPACES = [(4, 2, 2), (4, 3, 3)]
    SMOKE_BUDGET = 64

    def __init__(self, seed, workdir, smoke, cycles):
        super().__init__(seed, workdir, smoke, cycles)
        self.spaces = self.SMOKE_SPACES if smoke else self.SPACES
        self.budget = self.SMOKE_BUDGET if smoke else self.BUDGET
        self.orders = [self.rng.permutation(len(self.spaces)) for _ in range(cycles)]
        self._reference: dict[tuple[int, int, int], tuple[str, int | None]] = {}

    def _argv(self, space, ckpt: Path, budget: int) -> list[str]:
        n, q, k = space
        return ["search", "--n", str(n), "--q", str(q), "--k", str(k), "--budget", str(budget),
                "--workers", "1", "--checkpoint", str(ckpt)]

    def warmup(self):
        return [Op(self._argv(s, self.workdir / f"warm-{i}.ckpt", 64), (s, None, 0), "warm", None)
                for i, s in enumerate(self.spaces)]

    def cycle(self, c, tag):
        for i in self.orders[c]:
            space = self.spaces[i]
            n, q, _ = space
            ckpt = self.workdir / f"{tag}-{c}-{i}.ckpt"
            ckpt.unlink(missing_ok=True)
            max_blocks = -(-q ** (n * (n - 1) // 2) // self.budget)
            for block in range(max_blocks):
                op = Op(self._argv(space, ckpt, self.budget), (space, ckpt, block),
                        "n{}q{}k{}".format(*space), (space, block))
                yield op
                if op.rc != 3:
                    break

    def evaluate(self, ops):
        prev = 0
        for op in ops:
            space, ckpt, block = op.key
            if block == 0:
                prev = 0
            report = _parse(op, (0, 3))
            if report is None:
                continue
            res = report["result"]
            op.items = res["next_index"] - prev
            prev = res["next_index"]
            if op.rc == 3:
                if res["status"] != "budget_exceeded" or res["next_index"] != (block + 1) * self.budget:
                    op.error = f"block {block} of {space} did not advance by one budget: {res}"
            else:
                op.error = self._check_final(space, res)
            if op.error:
                op.items = 0

    def _check_final(self, space, res) -> str | None:
        if space not in self._reference:
            ref = exhaustive_search(*space)
            self._reference[space] = (ref.status, ref.index)
        if (res["status"], res["index"]) != self._reference[space]:
            return f"resumed search of {space} ended {res['status']}/{res['index']}, " \
                   f"one uninterrupted search gives {self._reference[space]}"
        if res["status"] == "found":
            dg = DealerGraph(parse_graph(res["graph_text"]), 0)
            if not is_scheme(dg, space[2]).ok:
                return f"found graph {res['index']} of {space} is not a scheme"
        return None

    def layer_counts(self, ops):
        files = {op.key[1] for op in ops}
        lines = sum(len(f.read_text().splitlines()) for f in files)
        size = sum(f.stat().st_size for f in files)
        return {
            "search.exhaustive_search.indices_covered": sum(op.items for op in ops),
            "search.checkpoint.lines": lines,
            "search.checkpoint.bytes": size,
        }


class Oracle(Workload):
    """One `qss oracle-verify --dealer 0` per non-isolated graph file."""

    name = "oracle"
    cycle_s = 2.5
    trace_cycles = 1
    # Criterion-03 shapes: q=2 up to n=6, q=3 up to n=5, q=5 up to n=4. Slot
    # j holds one base graph, drawn once from BASE_SEED, and every cycle
    # gives it a copy relabelled by the seed, as threshold does: the
    # simulator's work depends on the graph, not only on its shape. A cycle
    # holds COPIES base graphs of each shape.
    BASE_SEED = 3
    SHAPES = [(2, n) for n in range(2, 7)] + [(3, n) for n in range(2, 6)] + [(5, n) for n in range(2, 5)]
    COPIES = 4
    SMOKE_SHAPES = [(2, 3), (3, 3), (5, 3)]

    def __init__(self, seed, workdir, smoke, cycles):
        super().__init__(seed, workdir, smoke, cycles)
        base_rng = np.random.default_rng(self.BASE_SEED)
        shapes = self.SMOKE_SHAPES if smoke else self.SHAPES
        bases = [(q, n, random_gamma(base_rng, n, q, "all")) for q, n in shapes * (1 if smoke else self.COPIES)]
        self.cycles = [[self._spec(f"c{c}.{j}", q, n, gamma, j) for j, (q, n, gamma) in enumerate(bases)]
                       for c in range(cycles)]
        self.warm = [self._spec(f"warm.{j}", q, n, gamma, None)
                     for j, (q, n, gamma) in enumerate(bases[:len(shapes)])]

    def _spec(self, name, q, n, gamma, slot):
        path = self._write(f"{name}-{q}-{n}.txt", graph_text(q, relabel(self.rng, q, gamma)))
        return path, q, n, int(self.rng.integers(0, 2**31 - 1)), slot

    @staticmethod
    def _op(path, q, n, seed, slot) -> Op:
        return Op(["oracle-verify", path, "--dealer", "0", "--seed", str(seed)], (n,), f"n{n}q{q}", slot)

    def warmup(self):
        return [self._op(*spec) for spec in self.warm]

    def cycle(self, c, tag):
        for spec in self.cycles[c]:
            yield self._op(*spec)

    def evaluate(self, ops):
        for op in ops:
            report = _parse(op)
            if report is None:
                continue
            res = report["result"]
            if res["disagreements"] != 0:
                op.error = f"{res['disagreements']} graph/oracle disagreements"
            elif len(res["rows"]) != 2 ** (op.key[0] - 1):
                op.error = f"{len(res['rows'])} player sets checked, expected {2 ** (op.key[0] - 1)}"
            else:
                op.items = len(res["rows"])


WORKLOADS = {w.name: w for w in (Scan, Threshold, Enumerate, Oracle)}
