"""Source-level checks on the package."""

import ast
import importlib
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


def test_tracer_functions_resolve():
    # perfbench/tracer.py wraps these names from outside; a rename here would
    # silently drop their rows from a traced benchmark run
    tracer = SRC.parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(), str(tracer))
    (names,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets)
    ]
    assert names
    for name in names:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"k3lattice.{module}")
        for attr in attrs:
            obj = getattr(obj, attr)
        assert callable(obj), name
    # the tracer's Smith-form counter unpacks (d, u, v)
    exact = importlib.import_module("k3lattice.exact")
    result = exact.smith_normal_form([[2, 4], [6, 8]])
    assert isinstance(result, tuple) and len(result) == 3


def test_one_coefficient_box_enumerator():
    # coefficient boxes go through exact.box_norms; a second product loop in
    # the searches would bring back the per-point O(n^2) norm
    for name in ("k3embed.py", "glue.py"):
        text = (SRC / name).read_text()
        assert "itertools.product" not in text, name
        imports = [
            alias.name
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ImportFrom) and node.module == "itertools"
            for alias in node.names
        ]
        assert "product" not in imports, name


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / module).read_text())
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    return fn


def test_ldl_eliminates_in_integers():
    # exact.ldl and exact.solve divide only exactly (//), by Sylvester's
    # identity; a true division would bring the Fraction elimination back
    for name in ("ldl", "solve"):
        found = [
            node.lineno
            for node in ast.walk(_function("exact.py", name))
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        ]
        assert found == [], name


def test_discriminant_form_searches_compare_integers():
    # q and b are compared as integer numerators over the exponent; a
    # Fraction, or the Fraction-valued q, b, q_values and b_matrix, would
    # bring the rational sums back into the searches
    rational = {"q", "b", "q_values", "b_matrix"}
    for module, name in (
        ("glue.py", "_isotropic_subgroups"),
        ("k3embed.py", "find_disc_form_isomorphism"),
    ):
        found = [
            node.lineno
            for node in ast.walk(_function(module, name))
            if (isinstance(node, ast.Name) and node.id == "Fraction")
            or (isinstance(node, ast.Attribute) and node.attr in rational)
        ]
        assert found == [], name
