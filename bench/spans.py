"""Call tracing for the traced benchmark run.

The tracer wraps public functions of the `qss` modules from outside the
program. A function is replaced under every name that any `qss` module
bound it to (`from .fqlinalg import rank_mod` copies the reference, so
patching `qss.fqlinalg.rank_mod` alone would miss `qss.access.rank_mod`).
`Multigraph` is traced through its `__init__`, which keeps the class
itself, and so `isinstance` checks, untouched.

Each call records a span: name, start, end and parent span; the op that
caused it is the root. Spans stay in memory in flat arrays and are written
out when the run ends. A span's self time is its duration minus the time
its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from array import array
from collections import Counter
from math import comb
from time import perf_counter

import numpy as np

import qss.multigraph


def _subsets_seen(tracer, args, kwargs, report):
    tracer.counts["search.scheme_k.subsets_seen"] += sum(
        comb(report.n_players, s) for s in range(1, report.k + 1))


def _batch_matrices(tracer, args, kwargs, ranks):
    tracer.counts["fqlinalg.batch_rank_mod.matrices"] += len(ranks)
    if tracer.current() == "search.batch_accessible_at_k":
        tracer.counts["search.batch_accessible_at_k.ranked"] += len(ranks)


def _batch_slots(tracer, args, kwargs, alive):
    gammas = args[0]
    k = args[2] if len(args) > 2 else kwargs["k"]
    count, n = gammas.shape[0], gammas.shape[1]
    tracer.counts["search.batch_accessible_at_k.slots"] += 2 * count * comb(n - 1, k)


def _graphs_checked(tracer, args, kwargs, result):
    tracer.counts["search.exhaustive_search.graphs_checked"] += result.checked


def _state_size(tracer, args, kwargs, state):
    size = state.amplitudes.size
    tracer.counts["oracle.graph_state.amplitudes"] += size
    tracer.peak_amplitudes = max(tracer.peak_amplitudes, size)


def _state_arg_size(tracer, args, kwargs, result):
    tracer.peak_amplitudes = max(tracer.peak_amplitudes, args[0].amplitudes.size)


# (module, attribute, span name, hook run on each call's result).
TARGETS = [
    ("fqlinalg", "rank_mod", "fqlinalg.rank_mod", None),
    ("fqlinalg", "solve_affine_mod", "fqlinalg.solve_affine_mod", None),
    ("fqlinalg", "batch_rank_mod", "fqlinalg.batch_rank_mod", _batch_matrices),
    ("multigraph", "parse_graph", "multigraph.parse_graph", None),
    ("multigraph", "delete_vertex", "multigraph.delete_vertex", None),
    ("access", "quantum_derivative", "access.quantum_derivative", None),
    ("access", "cutrank", "access.cutrank", None),
    ("access", "classify", "access.classify", None),
    ("access", "witness_D", "access.witness", None),
    ("access", "witness_C", "access.witness", None),
    ("search", "scheme_k", "search.scheme_k", _subsets_seen),
    ("search", "is_scheme", "search.is_scheme", None),
    ("search", "exhaustive_search", "search.exhaustive_search", _graphs_checked),
    ("search", "batch_accessible_at_k", "search.batch_accessible_at_k", _batch_slots),
    ("search", "random_trials", "search.random_trials", None),
    ("oracle", "density_fidelity", "oracle.density_fidelity", None),
    ("oracle", "trace_distance", "oracle.trace_distance", None),
    ("oracle", "leak_profile", "oracle.leak_profile", None),
    ("oracle", "reduced_density", "oracle.reduced_density", _state_arg_size),
    ("oracle", "graph_state", "oracle.graph_state", _state_size),
    ("oracle", "cq_encode", "oracle.cq_encode", None),
    ("oracle", "qq_encode", "oracle.qq_encode", None),
    ("oracle", "qq_decode_bell", "oracle.qq_decode_bell", None),
    ("oracle", "measure_weyl", "oracle.measure_weyl", _state_arg_size),
    ("cli", "main", "cli.main", None),
]
CONSTRUCTOR = "multigraph.Multigraph"

TIMED = [CONSTRUCTOR] + list(dict.fromkeys(t[2] for t in TARGETS))

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = [(f"{name}.{m}", u) for name in TIMED for m, u in (("calls", "count"), ("self_s", "s"))] + [
    ("fqlinalg.rank_mod.us_per_call", "us"),
    ("fqlinalg.batch_rank_mod.matrices", "count"),
    ("fqlinalg.batch_rank_mod.us_per_matrix", "us"),
    ("search.scheme_k.subsets_seen", "count"),
    ("search.scheme_k.subsets_pruned", "count"),
    ("search.scheme_k.prune_ratio", "1"),
    ("search.is_scheme.derivatives_per_call", "1/call"),
    ("search.exhaustive_search.indices_covered", "count"),
    ("search.exhaustive_search.graphs_checked", "count"),
    ("search.checkpoint.lines", "count"),
    ("search.checkpoint.bytes", "B"),
    ("search.batch_accessible_at_k.live_ratio", "1"),
    ("oracle.graph_state.amplitudes", "count"),
    ("oracle.peak_amplitudes", "count"),
    ("cli.report_bytes", "B"),
    ("trace.overhead_ratio", "1"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.peak_amplitudes = 0
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def current(self) -> str | None:
        top = self.stack[-1]
        return None if top < 0 else self.names[self.name_ids[top]]

    def _begin(self, nid: int) -> int:
        i = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _end(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._begin(self._id(name))
        try:
            yield
        finally:
            self._end(i)

    def wrap(self, name: str, fn, hook=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(i)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "qss" or n.startswith("qss.")]
        for module, attr, name, hook in TARGETS:
            original = getattr(sys.modules[f"qss.{module}"], attr)
            wrapper = self.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        cls = qss.multigraph.Multigraph
        self._patches.append((cls, "__init__", cls.__dict__["__init__"]))
        cls.__init__ = self.wrap(CONSTRUCTOR, cls.__dict__["__init__"])

    def uninstall(self) -> None:
        while self._patches:
            obj, key, value = self._patches.pop()
            setattr(obj, key, value)

    def arrays(self):
        return (np.frombuffer(self.name_ids, dtype=np.uint16), np.frombuffer(self.parents, dtype=np.int64),
                np.frombuffer(self.starts), np.frombuffer(self.ends))

    def save(self, path) -> None:
        names, parents, starts, ends = self.arrays()
        np.savez(path, span_names=np.array(self.names), name=names, parent=parents, start=starts, end=ends)

    def layer_metrics(self, extra: dict[str, float]) -> dict[str, tuple[float, str]]:
        """Aggregate the spans into the PER_LAYER metrics; `extra` supplies
        the values measured outside the program (files, reports, overhead).
        A metric that neither the spans nor `extra` give reads 0."""
        names, parents, starts, ends = self.arrays()
        dur = ends - starts
        self_time = dur.copy()
        child = parents >= 0
        np.subtract.at(self_time, parents[child], dur[child])
        width = max(len(self.names), 1)
        calls = np.bincount(names, minlength=width)
        self_s = np.bincount(names, weights=self_time, minlength=width)
        parent_names = np.where(child, names[np.where(child, parents, 0)], -1)

        def ident(name):
            return self._ids.get(name, -1)

        def calls_under(name, parent):
            return int(np.count_nonzero((names == ident(name)) & (parent_names == ident(parent))))

        values: dict[str, float] = {}
        for name in TIMED:
            i = ident(name)
            values[f"{name}.calls"] = int(calls[i]) if i >= 0 else 0
            values[f"{name}.self_s"] = float(self_s[i]) if i >= 0 else 0.0
        c = self.counts
        rank_calls = values["fqlinalg.rank_mod.calls"]
        matrices = c["fqlinalg.batch_rank_mod.matrices"]
        seen = c["search.scheme_k.subsets_seen"]
        pruned = seen - calls_under("access.quantum_derivative", "search.scheme_k")
        is_scheme_calls = values["search.is_scheme.calls"]
        slots = c["search.batch_accessible_at_k.slots"]
        values.update({
            "fqlinalg.rank_mod.us_per_call":
                values["fqlinalg.rank_mod.self_s"] / rank_calls * 1e6 if rank_calls else 0.0,
            "fqlinalg.batch_rank_mod.matrices": matrices,
            "fqlinalg.batch_rank_mod.us_per_matrix":
                values["fqlinalg.batch_rank_mod.self_s"] / matrices * 1e6 if matrices else 0.0,
            "search.scheme_k.subsets_seen": seen,
            "search.scheme_k.subsets_pruned": pruned,
            "search.scheme_k.prune_ratio": pruned / seen if seen else 0.0,
            "search.is_scheme.derivatives_per_call":
                calls_under("access.quantum_derivative", "search.is_scheme") / is_scheme_calls
                if is_scheme_calls else 0.0,
            "search.exhaustive_search.graphs_checked": c["search.exhaustive_search.graphs_checked"],
            "search.batch_accessible_at_k.live_ratio":
                c["search.batch_accessible_at_k.ranked"] / slots if slots else 0.0,
            "oracle.graph_state.amplitudes": c["oracle.graph_state.amplitudes"],
            "oracle.peak_amplitudes": self.peak_amplitudes,
        })
        values.update(extra)
        return {name: (values.get(name, 0), unit) for name, unit in PER_LAYER}

