"""The modules are the package's only public surface, and every public
name in them earns its place.

A public top-level `def` or `class` of `src/qss` must be referenced
somewhere beyond its own definition: by package code, a demo, the bench
or the acceptance suite. A reference is a name, an attribute, an imported
name or a string equal to the name (the bench looks its trace targets up
with `getattr`). The only names allowed to rest on their unit tests alone
are the test references listed in TEST_REFERENCES.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "qss").glob("*.py"))
SOURCES = [*MODULES, *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py"),
           ROOT / "tests" / "test_acceptance.py"]
# no program path uses these; tests in tests/test_oracle.py and
# tests/test_search.py use them to check the paper's statements (Schmidt rank
# q^cutrk, stabilizer eigenvalues, the sufficient access condition).
# info_leak answers the trace distance of one set without a decode, so it
# reaches sets whose Bell decode exceeds the amplitude budget: rs747 {1,2,3},
# whose decode needs 7^9 amplitudes. verify_witness_pair is the one-set form
# of the paper's graphical access criterion; the oracle checks whole stacks
# through verify_witness_pairs, and tests/test_access.py pins the criterion's
# verdicts and domain errors through the one-set form.
# batch_border_indicators_mod is the public form of the bordered span test:
# it reduces any integer stack, while batch_indicators gathers from residues
# and eliminates through the private route fqlinalg._border_indicators, and
# tests/test_fqlinalg.py checks the kernel against int_rank through it
TEST_REFERENCES = (
    "schmidt_rank",
    "eigenvalue_label",
    "sufficient_condition_check",
    "info_leak",
    "verify_witness_pair",
    "batch_border_indicators_mod",
)


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


def _callers() -> dict[str, int]:
    """References to each public top-level def or class of the package,
    minus those inside its own definition."""
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    out = {}
    for path in MODULES:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out[node.name] = total[node.name] - _references(node)[node.name]
    return out


def test_every_public_name_has_a_caller():
    callers = _callers()
    assert sorted(name for name, count in callers.items() if count == 0 and name not in TEST_REFERENCES) == []
    # an exception that gains a program caller leaves the list
    assert {name: callers.get(name) for name in TEST_REFERENCES} == dict.fromkeys(TEST_REFERENCES, 0)


def test_import_qss_binds_only_the_version():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import qss; print(sorted(n for n in vars(qss) if not n.startswith('_')), qss.__version__)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "0.1.0"]
