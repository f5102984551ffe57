"""Every public top-level function and class of the package is used,
and so is every public method of a package class.

A definition counts as used when another package module, or its own
module outside the definition, names it (as a name or an attribute), or
when a module under ``bench/`` does, counting the words of the strings
in ``bench/spans.py``'s ``LAYERS`` too, the functions it traces by name.
No other string counts.  The re-exports of the package ``__init__``
count for nothing, and neither do the tests.  Dunder methods, reached
through operators, are not checked.

A method is matched as ``Class.method`` where the receiver's class is
evident from the package source: the class's own name, ``self`` or
``cls`` inside it, a call of the class or of a function whose return
annotation names it, a parameter annotated with it or a local assigned
one of these, and a field annotated with it of any of these.  A method
name that no other package class or top-level function defines may also
be matched by name alone, and then only by an attribute (``x.method``,
or ``Class.method`` in ``LAYERS``): a local variable or a function of
that name is no use of it.  A shared name (``to_json``, say) matched by
name alone counts only when ``ALLOWED`` lists ``Class.method``, so that a
method which shares its name with a used one never passes unchecked.

Every parameter with a default is also passed, by position or by
keyword, at some package or ``bench/`` call of a function of its name
outside its own body, unless ``ALLOWED_DEFAULTS`` says why it is kept.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "daggeralg"
TREES = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
         if p.name != "__init__.py"}

# definitions kept although the check above cannot see them used, with
# the reason
ALLOWED = {
    "TruncatedSeries.to_json": "DaggerPresentation.to_json, on the "
    "relations it holds in a tuple",
    "TensorElement.scale": "criterion 1's tensor axioms, on an element "
    "unpacked from its instance tuple",
}


def _words(node, attributes_only=False):
    if isinstance(node, ast.Name) and not attributes_only:
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def _names(trees, attributes_only=False):
    return {word for tree in trees for node in ast.walk(tree)
            for word in _words(node, attributes_only)}


BENCH_PATHS = sorted((ROOT / "bench").glob("*.py"))
BENCH_TREES = [ast.parse(p.read_text()) for p in BENCH_PATHS]


def _layers(tree):
    """The strings of the ``LAYERS`` assignment of a module."""
    return [node.value for stmt in tree.body if isinstance(stmt, ast.Assign)
            and [getattr(t, "id", None) for t in stmt.targets] == ["LAYERS"]
            for node in ast.walk(stmt.value)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


LAYERS = _layers(BENCH_TREES[BENCH_PATHS.index(ROOT / "bench" / "spans.py")])
# what bench/ names, and the attributes it names; a "Class.method" of
# LAYERS names the class and the method as an attribute
BENCH = _names(BENCH_TREES) | {w for s in LAYERS
                               for w in re.findall(r"\w+", s)}
BENCH_ATTRIBUTES = _names(BENCH_TREES, attributes_only=True) | {
    s.rsplit(".", 1)[1] for s in LAYERS if "." in s}


def _public(body):
    return [n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
            and not n.name.startswith("_")]


def _annotated(node, classes):
    """The package class an annotation names, through Optional and
    quotes; None for anything else (a tuple of them, say)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _annotated(ast.parse(node.value, mode="eval").body, classes)
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) \
            and node.value.id == "Optional":
        return _annotated(node.slice, classes)
    if isinstance(node, ast.Name) and node.id in classes:
        return node.id
    return None


def _own_nodes(scope):
    """The nodes of a module, class or function body, without those of
    the functions and classes defined in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


class Package:
    """The definitions of the package modules ``trees`` and their uses."""

    def __init__(self, trees):
        self.trees = trees
        self.classes = {node.name: node for tree in trees.values()
                        for node in tree.body
                        if isinstance(node, ast.ClassDef)}
        self.fields = {
            name: {n.target.id: self.annotated(n.annotation)
                   for n in cls.body if isinstance(n, ast.AnnAssign)}
            for name, cls in self.classes.items()}
        self.returns = {}
        functions = []
        for tree in trees.values():
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    functions.append((node.name, node))
                elif isinstance(node, ast.ClassDef):
                    functions += [(f"{node.name}.{m.name}", m)
                                  for m in node.body
                                  if isinstance(m, ast.FunctionDef)]
        for name, node in functions:
            if node.returns is not None:
                self.returns[name] = self.annotated(node.returns)
        # public method names that two package classes, or a class and a
        # top-level function, define
        counts = Counter(name.rsplit(".", 1)[-1] for name, _ in functions
                         if not name.rsplit(".", 1)[-1].startswith("_"))
        self.shared = {name for name, count in counts.items() if count > 1}
        self.resolved = [use for tree in trees.values()
                         for use in self._resolved(tree)]

    def annotated(self, node):
        return _annotated(node, self.classes)

    def class_of(self, node, env, cls):
        """The package class of an expression's value, when evident."""
        if isinstance(node, ast.Name):
            if node.id in ("self", "cls"):
                return cls
            return env.get(node.id,
                           node.id if node.id in self.classes else None)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                return func.id if func.id in self.classes \
                    else self.returns.get(func.id)
            if isinstance(func, ast.Attribute):
                owner = self.class_of(func.value, env, cls)
                return self.returns.get(f"{owner}.{func.attr}")
        if isinstance(node, ast.Attribute):
            owner = self.class_of(node.value, env, cls)
            return self.fields.get(owner, {}).get(node.attr)
        return None

    def _resolved(self, tree):
        """(Class.method, the scope naming it) for every attribute whose
        receiver's class is evident."""
        out = []

        def visit(scope, cls, env):
            nodes = list(_own_nodes(scope))
            if isinstance(scope, ast.FunctionDef):
                env = dict(env)
                for arg in scope.args.args + scope.args.kwonlyargs:
                    if arg.annotation is not None:
                        env[arg.arg] = self.annotated(arg.annotation)
                for node in nodes:
                    if isinstance(node, ast.Assign) \
                            and len(node.targets) == 1 \
                            and isinstance(node.targets[0], ast.Name):
                        env[node.targets[0].id] = self.class_of(
                            node.value, env, cls)
            for node in nodes:
                if isinstance(node, ast.Attribute):
                    owner = self.class_of(node.value, env, cls)
                    if owner:
                        out.append((f"{owner}.{node.attr}", scope))
                elif isinstance(node, ast.ClassDef):
                    visit(node, node.name, env)
                elif isinstance(node, ast.FunctionDef):
                    visit(node, cls, env)

        visit(tree, None, {})
        return out

    def unused(self, path, allowed=ALLOWED):
        tree = self.trees[path]
        others = [t for p, t in self.trees.items() if p != path]
        used = BENCH | _names(others)
        attributes = BENCH_ATTRIBUTES | _names(others, attributes_only=True)
        out = []
        for node in _public(tree.body):
            if node.name not in used | _names(n for n in tree.body
                                              if n is not node):
                out.append(node.name)
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body):
                    key = f"{node.name}.{method.name}"
                    inside = set(map(id, ast.walk(method)))
                    if any(k == key and id(site) not in inside
                           for k, site in self.resolved):
                        continue
                    rest = {word for n in ast.walk(tree)
                            if id(n) not in inside
                            for word in _words(n, attributes_only=True)}
                    if method.name not in attributes | rest or \
                            method.name in self.shared and key not in allowed:
                        out.append(key)
        return out


PACKAGE_NOW = Package(TREES)


@pytest.mark.parametrize("path", list(TREES), ids=lambda p: p.name)
def test_every_public_definition_is_used(path):
    unused = sorted(set(PACKAGE_NOW.unused(path)) - ALLOWED.keys())
    assert not unused, f"{path.name} defines unused {unused}"


def test_allowlist_holds_only_unused_names():
    unused = {name for path in TREES for name in PACKAGE_NOW.unused(path, {})}
    assert ALLOWED.keys() <= unused


def test_a_method_sharing_a_used_name_is_caught():
    # NormValue.scale once passed by name alone, through
    # TruncatedSeries.scale, which selftest calls on a series
    path = PACKAGE / "scalars.py"
    tree = ast.parse(path.read_text())
    norm_value = next(n for n in tree.body if isinstance(n, ast.ClassDef)
                      and n.name == "NormValue")
    norm_value.body.append(ast.parse("def scale(self, c):\n"
                                     "    return self\n").body[0])
    package = Package({**TREES, path: tree})
    assert "scale" in package.shared
    assert "NormValue.scale" in package.unused(path)
    assert "TruncatedSeries.scale" not in package.unused(PACKAGE / "series.py")


def test_a_method_named_only_by_a_local_or_a_docstring_is_caught():
    # NormValue.zero once passed, with no caller: "zero" was a word of a
    # bench/ docstring and the name of a local variable of linalg.rref
    path = PACKAGE / "scalars.py"
    tree = ast.parse(path.read_text())
    norm_value = next(n for n in tree.body if isinstance(n, ast.ClassDef)
                      and n.name == "NormValue")
    norm_value.body.append(ast.parse("def zero():\n"
                                     "    return NormValue(0, 0)\n").body[0])
    package = Package({**TREES, path: tree})
    assert "zero" in _names([TREES[PACKAGE / "linalg.py"]])
    assert "NormValue.zero" in package.unused(path)


# ---------------------------------------------------------------------------
# defaulted parameters

# parameters with a default that no package or bench call passes, kept
# with the reason
ALLOWED_DEFAULTS = {
    "mayer_vietoris.disk_radius": "criterion 5 passes it through _rejects",
    "mayer_vietoris.annulus_inner": "criterion 5 passes it through "
    "_rejects",
}


def _defaulted(tree):
    """(qualified name, function node, parameter, position) for every
    parameter with a default of a function or method in a module; the
    position counts the arguments a caller writes (not a method's
    ``self``), and is None for a keyword-only parameter."""
    todo = [(node, None) for node in tree.body]
    while todo:
        node, cls = todo.pop()
        if isinstance(node, ast.ClassDef):
            todo += [(n, node.name) for n in node.body]
        if not isinstance(node, ast.FunctionDef):
            continue
        todo += [(n, None) for n in node.body]
        args = node.args
        positional = args.posonlyargs + args.args
        bound = cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list)
        name = f"{cls}.{node.name}" if cls else node.name
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield f"{name}.{arg.arg}", node, arg.arg, i - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{name}.{arg.arg}", node, arg.arg, None


def _calls(trees):
    """(callee name, positional count, keyword names, node) for every
    call by name or attribute; a ``*`` argument passes every position
    and a ``**`` argument every keyword."""
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _words(node.func)
            if not name:
                continue
            count = len(node.args)
            if any(isinstance(a, ast.Starred) for a in node.args):
                count = float("inf")
            keywords = {k.arg for k in node.keywords}
            yield name.pop(), count, keywords, node


CALLS = list(_calls([*TREES.values(), *BENCH_TREES]))


def unpassed_defaults(trees, calls):
    out = []
    for tree in trees.values():
        for key, node, param, position in _defaulted(tree):
            inside = set(map(id, ast.walk(node)))
            if not any(name == node.name and id(call) not in inside
                       and (param in keywords or None in keywords
                            or position is not None and count > position)
                       for name, count, keywords, call in calls):
                out.append(key)
    return out


def test_every_defaulted_parameter_is_passed():
    """Each parameter with a default is passed, by position or by
    keyword, at some package or bench call outside its own function, or
    ``ALLOWED_DEFAULTS`` says why it is kept."""
    unpassed = set(unpassed_defaults(TREES, CALLS))
    assert unpassed == ALLOWED_DEFAULTS.keys(), \
        f"unpassed {sorted(unpassed - ALLOWED_DEFAULTS.keys())}, passed " \
        f"but allowed {sorted(ALLOWED_DEFAULTS.keys() - unpassed)}"


def test_an_unpassed_default_is_caught():
    # a call inside the function's own body does not count
    tree = ast.parse("def _fresh(x, scale=2, *, shift=0):\n"
                     "    return _fresh(x, 3, shift=1)\n\n"
                     "def _user(y):\n"
                     "    return _fresh(y, shift=y)\n")
    assert unpassed_defaults({"m": tree}, list(_calls([tree]))) \
        == ["_fresh.scale"]
