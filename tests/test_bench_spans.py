"""The benchmark tracer's targets must exist in the package, and its hooks
must run against the package's current signatures.

`bench/spans.py` wraps each `(module, attribute)` pair in `TARGETS` by
looking it up with `getattr`, so deleting or renaming a traced function
would crash a traced benchmark run. Its hooks read call arguments and
results, so a changed signature or result type would crash it too. The
benchmark's own tests live outside the test paths, so these checks keep
the tracer honest in the regular suite.
"""

import importlib
import importlib.util
from pathlib import Path

import qss.cli
from qss.multigraph import Multigraph, serialize_graph

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_trace_target_resolves():
    spans = _load_spans()
    missing = [
        f"qss.{module}.{attr}"
        for module, attr, _name, _hook in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"qss.{module}"), attr, None))
    ]
    assert spans.TARGETS and not missing


def test_tracer_hooks_run_on_one_call_per_command(tmp_path, capsys):
    star = tmp_path / "star.graph"
    star.write_text(serialize_graph(Multigraph(3, [[0, 1, 1], [1, 0, 0], [1, 0, 0]])))
    calls = [
        ["scheme-k", str(star), "--dealer", "0"],
        ["sample", "--n", "5", "--q", "2", "--alpha", "0.75", "--trials", "20", "--seed", "1"],
        ["search", "--n", "4", "--q", "2", "--k", "2", "--checkpoint", str(tmp_path / "scan.ck")],
        ["oracle-verify", str(star), "--dealer", "0", "--seed", "1"],
        ["qq-decode", str(star), "--dealer", "0", "--set", "1,2", "--seed", "3"],
        ["access", str(star), "--dealer", "0", "--set", "1,2"],
    ]
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        codes = [qss.cli.main(argv) for argv in calls]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(calls)
    metrics = tracer.layer_metrics({})
    assert metrics["cli.main.calls"][0] == len(calls)
    assert metrics["search.exhaustive_search.graphs_checked"][0] > 0
    assert metrics["oracle.peak_amplitudes"][0] > 0
    assert tracer.counts["search.batch_accessible_at_k.slots"] > 0


def test_tracer_hooks_read_the_state_record_in_a_round(tmp_path, capsys):
    # the measure_weyl hook reads .amplitudes.size off its first argument,
    # which cq_round passes as a StateVector
    star = tmp_path / "star.graph"
    star.write_text(serialize_graph(Multigraph(3, [[0, 1, 1], [1, 0, 0], [1, 0, 0]])))
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        code = qss.cli.main(["cq-round", str(star), "--dealer", "0", "--set", "1,2", "--rounds", "1", "--seed", "1"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.layer_metrics({})
    assert code == 0
    assert metrics["oracle.measure_weyl.calls"][0] > 0
    assert metrics["oracle.peak_amplitudes"][0] > 0
