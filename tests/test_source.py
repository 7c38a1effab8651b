"""Source-level checks on the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "k3lattice"


def test_no_assert_statements():
    # python -O strips assert statements, so no result may depend on one
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
