"""Every public top-level function and class of the package is used,
and so is every public method of a package class.

A definition counts as used when another package module, or its own
module outside the definition, names it (as a name or an attribute), or
when a module under ``bench/`` does, counting the words of its string
constants too, since ``bench/spans.py`` lists the functions it traces as
strings.  The re-exports of the package ``__init__`` count for nothing,
and neither do the tests.  Methods are matched by name alone, so a
method counts as used when any call names a method of that name, and
dunder methods, reached through operators, are not checked.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "daggeralg"
TREES = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
         if p.name != "__init__.py"}

# definitions kept although nothing above uses them, with the reason
ALLOWED = {
    "evaluate_seminorm": "the fiber-sup oracle of tests/test_spectrum.py",
}


def _words(node, strings=False):
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if strings and isinstance(node, ast.Constant) \
            and isinstance(node.value, str):
        return set(re.findall(r"\w+", node.value))
    return set()


def _names(trees, strings=False):
    return {word for tree in trees for node in ast.walk(tree)
            for word in _words(node, strings)}


BENCH = _names((ast.parse(p.read_text())
                for p in sorted((ROOT / "bench").glob("*.py"))), strings=True)


def _public(body):
    return [n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
            and not n.name.startswith("_")]


def _unused(path):
    tree = TREES[path]
    used = BENCH | _names(t for p, t in TREES.items() if p != path)
    out = []
    for node in _public(tree.body):
        if node.name not in used | _names(n for n in tree.body
                                          if n is not node):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            for method in _public(node.body):
                inside = set(map(id, ast.walk(method)))
                rest = {word for n in ast.walk(tree) if id(n) not in inside
                        for word in _words(n)}
                if method.name not in used | rest:
                    out.append(f"{node.name}.{method.name}")
    return out


@pytest.mark.parametrize("path", list(TREES), ids=lambda p: p.name)
def test_every_public_definition_is_used(path):
    unused = sorted(set(_unused(path)) - ALLOWED.keys())
    assert not unused, f"{path.name} defines unused {unused}"


def test_allowlist_holds_only_unused_names():
    unused = {name for path in TREES for name in _unused(path)}
    assert ALLOWED.keys() <= unused
