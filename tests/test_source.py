"""Checks on the package source itself."""

import ast
from pathlib import Path

import kneserdom

SOURCES = sorted(Path(kneserdom.__file__).resolve().parent.glob("*.py"))
# The modules whose references count as uses: not __init__.py, which only
# re-exports.
CALLERS = [path for path in SOURCES if path.name != "__init__.py"]

# Definitions that a framework calls by name: argparse calls the parser's
# error method.
CALLED_BY_FRAMEWORK = {"_Parser.error"}


def _trees(paths):
    return [ast.parse(path.read_text(), str(path)) for path in paths]


def test_no_assert_statements():
    """Internal checks use internal_check, which python -O does not strip."""
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _definitions(body, prefix=""):
    """(qualified name, name) of every function, method and class in `body`."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield prefix + node.name, node.name
            yield from _definitions(node.body, f"{prefix}{node.name}.")


def _references(tree):
    """Every name a module uses: names, attributes, imported names and the
    dotted parts of string constants, which monkeypatching refers by."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from node.value.split(".")


def test_every_definition_is_used():
    """A function, method or class that no module of the package refers to
    is dead code. Tests and re-exports do not count: code that only the
    tests call, such as an oracle, lives under tests/."""
    sources = _trees(SOURCES)
    used = {name for tree in _trees(CALLERS) for name in _references(tree)}
    dead = [
        f"{path.name}:{qualified}"
        for path, tree in zip(SOURCES, sources)
        for qualified, name in _definitions(tree.body)
        if name not in used
        and not (name.startswith("__") and name.endswith("__"))
        and qualified not in CALLED_BY_FRAMEWORK
    ]
    assert dead == []


def test_capacity_is_checked_only_in_core():
    """The vertex ceiling is checked where the vertices are enumerated,
    in KneserParams.vertex_masks; no other module checks it."""
    outside = [
        path.name
        for path, tree in zip(SOURCES, _trees(SOURCES))
        if path.name != "core.py" and "check_capacity" in _references(tree)
    ]
    assert outside == []
