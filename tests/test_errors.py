"""Every error type that the toolkit defines is raised or warned with
somewhere in the library, so that no type outlives its last raiser."""

import ast
from pathlib import Path

import ncdbr.errors

SRC = Path(ncdbr.errors.__file__).parent


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _raised_and_warned():
    used = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                used.add(_name(exc))
            elif isinstance(node, ast.Call) and _name(node.func) == "warn":
                categories = node.args[1:2] + [
                    kw.value for kw in node.keywords if kw.arg == "category"
                ]
                used.update(_name(c) for c in categories)
    return used


def test_every_error_type_has_a_raiser():
    tree = ast.parse(Path(ncdbr.errors.__file__).read_text())
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    # a base class such as NcdbrError is caught, not raised
    bases = {_name(b) for node in classes for b in node.bases}
    leaves = {node.name for node in classes} - bases
    assert leaves
    assert sorted(leaves - _raised_and_warned()) == []
