"""The library's boundary with the benchmark and with the tests.

The benchmark tracer (perfbench/tracer.py) wraps package functions and
methods by name, so removing or renaming one of them breaks every
traced benchmark run; a fresh interpreter installs the tracer here to
catch that.  And the library stands alone: no module under
src/superslice imports from tests/, where the oracles and cross-checks
live.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"


def test_tracer_installs_on_the_package():
    code = ("import tracer\n"
            "tracer.install(tracer.Tracer())\n"
            "print('install ok')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "install ok\n"


def imported_modules(tree):
    """(line, absolute module name) of every import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module


def test_library_imports_nothing_from_tests():
    test_modules = {p.stem for p in TESTS.glob("*.py")} | {"tests"}
    sources = sorted((SRC / "superslice").rglob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, name in imported_modules(tree):
            assert name.split(".")[0] not in test_modules, \
                f"{path.relative_to(ROOT)}:{line} imports {name}"
