"""The modules are the package's only public surface, and every public
name in them earns its place.

A public top-level `def` or `class` of `src/qss` must be referenced
somewhere beyond its own definition: by package code, a demo, the bench
or the acceptance suite. A reference is a name, an attribute, an imported
name or a string equal to the name (the bench looks its trace targets up
with `getattr`). BENCH_ONLY pins the names that, outside the tests, only
the bench's tracer refers to.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "qss").glob("*.py"))
PROGRAM = [*MODULES, *(ROOT / "demos").glob("*.py")]
BENCH = sorted((ROOT / "bench").glob("*.py"))
TRACER = ROOT / "bench" / "spans.py"
SOURCES = [*PROGRAM, *BENCH, ROOT / "tests" / "test_acceptance.py"]
# outside the tests only the bench's trace targets (bench/spans.py TARGETS)
# refer to these; ROADMAP item 1 retargets the tracer and deletes them
BENCH_ONLY = ("density_fidelity", "leak_profile", "solve_affine_mod")


def _references(tree: ast.AST) -> Counter:
    """How often a tree refers to each name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names[node.value] += 1
    return names


def _callers(sources) -> dict[str, int]:
    """References in the sources, the package among them, to each public
    top-level def or class of the package, minus those inside its own
    definition."""
    trees = {path: ast.parse(path.read_text()) for path in sources}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    out = {}
    for path in MODULES:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out[node.name] = total[node.name] - _references(node)[node.name]
    return out


def test_every_public_name_has_a_caller():
    callers = _callers(SOURCES)
    assert sorted(name for name, count in callers.items() if count == 0) == []


def test_bench_only_names_are_pinned():
    untraced = _callers([*PROGRAM, *(path for path in BENCH if path != TRACER)])
    traced = _callers([*PROGRAM, *BENCH])
    assert sorted(name for name, count in traced.items() if count > untraced[name] == 0) == sorted(BENCH_ONLY)


def _top_level_users(name: str) -> set[tuple[str, str | None]]:
    """(module, def or class name) of each top-level statement of src/qss,
    imports aside, that refers to name."""
    return {
        (path.stem, getattr(node, "name", None))
        for path in MODULES
        for node in ast.parse(path.read_text()).body
        if not isinstance(node, (ast.Import, ast.ImportFrom)) and _references(node)[name]
    }


def test_one_scan_ranks_every_block():
    # the package ranks its bordered matrices in one block loop, the scan
    # of search._first_failure, and in access.batch_indicators' one call:
    # no other top-level statement of src/qss refers to _bordered_spans
    assert _top_level_users("_bordered_spans") == {("search", "_first_failure"), ("access", "batch_indicators")}


def test_one_edge_slot_layout():
    # the edge slots are laid out once, by multigraph._slot_map, which both
    # enumeration and random graphs gather through: no other top-level
    # statement of src/qss refers to triu_indices
    assert _top_level_users("triu_indices") == {("multigraph", "_slot_map")}


def test_one_vertex_order_for_every_bordered_system():
    # the cut matrices of batch_indicators and the witness systems D and C
    # are laid out by access._bordered alone, and no top-level statement of
    # src/qss sorts anything into place: every solve reads its pivot rows
    # where the elimination leaves them
    assert _top_level_users("_bordered") == {("access", "_gather_index"), ("access", "witness_rows")}
    assert _top_level_users("argsort") == set()


def test_one_bordered_stack_layout():
    # every scan stack is bordered by access._zero_vertex, for the one
    # gather of _bordered_spans: no other top-level statement of src/qss
    # refers to _zero_vertex
    assert _top_level_users("_zero_vertex") == {("access", "batch_indicators"), ("search", "_first_failure")}


def test_one_route_to_pivot_rows():
    # every answer read off an elimination's pivot rows goes through
    # fqlinalg._solve_stack (solutions) or fqlinalg.kernel_basis_mod (the
    # RREF of one elimination): no other top-level statement of src/qss
    # refers to _pivot_rows
    assert _top_level_users("_pivot_rows") == {("fqlinalg", "_solve_stack"), ("fqlinalg", "kernel_basis_mod")}


def test_one_check_of_the_witness_pairs_that_become_operators():
    # every witness pair turned into code unitaries, for the classical round
    # and the Bell decode alike, is checked by oracle._code_rows: no other
    # top-level statement of src/qss refers to verify_witness_pairs
    assert _top_level_users("verify_witness_pairs") == {("oracle", "_code_rows")}


def test_every_property_test_is_derandomized():
    # the suite is deterministic: each hypothesis @given test fixes its
    # examples with @settings(derandomize=True)
    called = lambda dec, name: isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == name
    fixed = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            decorators = getattr(node, "decorator_list", [])
            if any(called(dec, "given") for dec in decorators):
                fixed[path.stem, node.name] = any(called(dec, "settings") and any(
                    k.arg == "derandomize" and getattr(k.value, "value", None) is True for k in dec.keywords)
                    for dec in decorators)
    assert len(fixed) >= 18
    assert sorted(test for test, ok in fixed.items() if not ok) == []


def test_import_qss_binds_only_the_version():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import qss; print(sorted(n for n in vars(qss) if not n.startswith('_')), qss.__version__)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "0.1.0"]
