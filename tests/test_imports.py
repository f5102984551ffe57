"""Every top-level import of a module in the package is used in it, and
every import anywhere in the package is of the standard library or the
package itself, and importing the CLI leaves ``multiprocessing`` out.

The package ``__init__`` re-exports what it imports and is skipped by
the first check.  Names quoted in annotations count as used.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "daggeralg"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    tree = ast.parse(path.read_text())
    unused = sorted(set(_imported(tree)) - _used(tree))
    assert not unused, f"{path.name} imports unused {unused}"


def _imported_roots(tree):
    """The top-level module of every absolute import, function-level
    ones too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    """``pyproject.toml`` declares ``dependencies = []``: the package may
    import nothing a plain Python install lacks (sympy, pytest and
    hypothesis are for the tests only)."""
    allowed = set(sys.stdlib_module_names) | {"daggeralg"}
    foreign = sorted(set(_imported_roots(ast.parse(path.read_text())))
                     - allowed)
    assert not foreign, f"{path.name} imports {foreign}"


def test_importing_the_cli_leaves_multiprocessing_out():
    """Only ``selftest.run_all`` starts a process, and it imports
    ``multiprocessing`` itself: every other command, and every process
    that imports the CLI, does without it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    code = "import sys, daggeralg.cli; print('multiprocessing' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=60)
    assert run.stdout == "False\n", run.stderr
