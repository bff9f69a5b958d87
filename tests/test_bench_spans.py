"""The benchmark tracer's targets must exist in the package.

`bench/spans.py` wraps each `(module, attribute)` pair in `TARGETS` by
looking it up with `getattr`, so deleting or renaming a traced function
would crash a traced benchmark run. The benchmark's own tests live outside
the test paths, so this check keeps the names honest in the regular suite.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"qss.{module}.{attr}"
        for module, attr, _name, _hook in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"qss.{module}"), attr, None))
    ]
    assert spans.TARGETS and not missing
