"""Self-test of the benchmark at smoke size.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_run.py

For every workload it runs the benchmark once untraced and twice traced on
tiny inputs, and checks that every metric BENCHMARK.json names is printed
with its unit, that no op fails, and that the traced counts repeat exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def check_metrics(result: dict, specs: list[dict]) -> None:
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in specs} == {k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    untraced = run(workload, 0)
    check_metrics(untraced, SPEC["end_to_end"])
    assert untraced["metrics"]["ok_ratio"]["value"] == 1.0
    for metric in SPEC["end_to_end"]:
        assert untraced["metrics"][metric["name"]]["value"] > 0, metric["name"]

    first, second = run(workload, 1), run(workload, 1)
    for traced in (first, second):
        check_metrics(traced, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} == {n: second["metrics"][n]["value"] for n in counts}
    assert first["metrics"]["cli.main.calls"]["value"] == first["attempted"]


def test_fails_without_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in SPEC["paths"]:
        dest = tmp_path / path
        dest.mkdir(parents=True)
        for f in (ROOT / path).iterdir():
            if f.is_file():
                (dest / f.name).write_bytes(f.read_bytes())
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "scan", "--seed", "1", "--seconds", "1",
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
