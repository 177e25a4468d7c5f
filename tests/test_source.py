"""Checks on the package source itself."""

import ast
from pathlib import Path

import kneserdom

SOURCES = sorted(Path(kneserdom.__file__).resolve().parent.glob("*.py"))


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
