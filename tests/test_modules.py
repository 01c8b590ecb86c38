"""Static checks of the library modules: every imported name is used (in
the tests' dense oracle too), every name in __all__ is defined at the
module's top level, and every private top-level function has a caller in
the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ncdbr"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
# the tests' word-space oracle imports the library's private helpers, so it
# is held to the same import check
ORACLE = Path(__file__).resolve().parent / "dense_fock.py"


def _top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", MODULES + [ORACLE], ids=lambda path: path.name)
def test_imports_are_used_and_exports_are_defined(path):
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exports = _exports(tree)
    assert sorted(imported - used - set(exports)) == []
    assert sorted(set(exports) - _top_level_names(tree) - imported) == []


def _referenced_names(tree, skip):
    """The names a module reads, as bare names or attributes, outside the
    function definitions in skip."""
    names = set()
    stack = [node for node in tree.body if node not in skip]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_private_functions_have_callers():
    # a private helper no library code reaches is dead code; a reference
    # from its own body does not count
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    names = {name: _referenced_names(tree, set()) for name, tree in trees.items()}
    orphans = []
    for name, tree in trees.items():
        elsewhere = set().union(*(names[other] for other in trees if other != name))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                if node.name not in elsewhere | _referenced_names(tree, {node}):
                    orphans.append("%s.%s" % (name, node.name))
    assert orphans == []


def _callers(name):
    """The module.function names of the top-level functions and classes in
    the package that call name, as a bare name or as an attribute."""
    callers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    func = call.func
                    if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                        callers.add("%s.%s" % (path.stem, getattr(node, "name", "<module>")))
    return callers


def test_contractions_are_built_in_one_place():
    # one SVD per contraction: a RowContraction takes its SVD when it is
    # built, so only the two functions that return a new contraction build
    # one, through _from_row, and the CLI builds the one it loads
    assert _callers("_from_row") == {
        "rowcontraction.iso_pure_decompose",
        "rowcontraction.reconstruct",
    }
    assert _callers("RowContraction") == {"rowcontraction._from_row", "cli.load_contraction"}
