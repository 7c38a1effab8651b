"""Source-level checks on the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "k3lattice"


def _nodes():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_no_assert_statements():
    # python -O strips assert statements, so no result may depend on one
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_no_raise_assertion_error():
    # broken internal invariants raise ArithmeticError; AssertionError is
    # reserved for tests
    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if isinstance(node, ast.Raise) and _raised_name(node) == "AssertionError"
    ]
    assert found == []
