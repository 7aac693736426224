"""Example scripts and benchmark modules: syntax, imports and structure.

Full example runs take minutes; the suite verifies they compile, import
only public API that exists, and expose a ``main()`` — the cheap 90% of
"the examples are not rotten".  The same goes for ``benchmarks/``,
which nothing else in the tier-1 suite imports: every ``bench_*.py``
must collect cleanly.
"""

import ast
import importlib
import os
import pathlib
import py_compile
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    assert len(EXAMPLE_FILES) >= 3, "deliverable requires >= 3 examples"


@pytest.mark.parametrize("path", EXAMPLE_FILES,
                         ids=[p.stem for p in EXAMPLE_FILES])
class TestExampleStructure:
    def test_compiles(self, path, tmp_path):
        py_compile.compile(str(path),
                           cfile=str(tmp_path / "out.pyc"), doraise=True)

    def test_has_module_docstring(self, path):
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path.name} lacks a docstring"

    def test_defines_main_guard(self, path):
        source = path.read_text()
        assert "def main(" in source
        assert '__name__ == "__main__"' in source

    def test_imports_resolve(self, path):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("repro"):
                    module = importlib.import_module(node.module)
                    for alias in node.names:
                        assert hasattr(module, alias.name), (
                            f"{path.name} imports {alias.name} from "
                            f"{node.module}, which does not exist")


def test_benchmarks_collect_cleanly():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", "benchmarks"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "error" not in out.stdout.lower(), out.stdout
    collected = [line for line in out.stdout.splitlines()
                 if line.startswith("benchmarks/bench_")]
    assert len(collected) >= len(list(
        (REPO_ROOT / "benchmarks").glob("bench_*.py")))
