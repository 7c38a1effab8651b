"""Source-level checks on the package."""

import argparse
import ast
import importlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

from k3lattice import cli, exact, glue, k3embed as ke, lattice as lat, lattice_io, quadform as qf

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
    # coefficient boxes go through exact.box_vectors; a second product loop
    # in the searches would bring back the per-point O(n^2) norm and the
    # walk over points of unwanted norm
    exact = importlib.import_module("k3lattice.exact")
    assert callable(exact.box_vectors)
    assert not hasattr(exact, "box_norms")
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_private_names_across_modules():
    # a module uses only the public names of another package module, so a
    # rename inside one module cannot silently break another
    modules = {path.stem for path in SRC.glob("*.py")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        aliases = set()  # local names bound to package modules
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not (
                node.level > 0 or (node.module or "").startswith("k3lattice")
            ):
                continue
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                if node.module in (None, "k3lattice") and alias.name in modules:
                    aliases.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and _is_private(node.attr)
            ):
                found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    assert found == []


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / module).read_text())
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    return fn


def test_ldl_eliminates_in_integers():
    # exact.det and exact.ldl divide only exactly (//), by Sylvester's
    # identity, exact.lll keeps integer Gram-Schmidt numerators over leading
    # minors and divides only exactly too, and exact.solve, which reads the Hermite basis and no
    # longer runs Bareiss elimination, divides only exactly as well, as does
    # exact.hermite_basis_mod, whose entries are residues; a true division
    # would bring the Fraction elimination back.  det's arithmetic
    # runs in det itself (the Schur step) and in the private helpers it
    # calls, which are held to the same rule
    helpers = sorted(filter(_is_private, _called_names(_function("exact.py", "det"))))
    assert {"_diagonal_block", "_bareiss"} <= set(helpers)
    for name in ("det", *helpers, "ldl", "lll", "solve", "hermite_basis_mod", "_reduce_above"):
        found = [
            node.lineno
            for node in ast.walk(_function("exact.py", name))
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        ]
        assert found == [], name
    # ldl returns integer pivots, and quadform reads them as they come
    assert "Fraction" not in exact.ldl.__code__.co_names
    assert "_rational_to_int_class" not in qf._form.__code__.co_names


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


def _files_holding(text: str) -> list[str]:
    return [path.name for path in sorted(SRC.glob("*.py")) if text in path.read_text()]


def _nested(code: types.CodeType) -> list[types.CodeType]:
    """code and the code objects nested in it: inner functions, lambdas and
    comprehensions."""
    return [code, *(inner for c in code.co_consts if isinstance(c, types.CodeType)
                    for inner in _nested(c))]


def _functions_naming(modules, *values: str) -> list[list[str]]:
    """For each value, module.function (or module.Class.method) for every
    function defined in ``modules`` whose code, nested code included, holds
    the value as a name or a constant, read off the code objects, so
    nothing is parsed."""
    found: list[list[str]] = [[] for _ in values]
    for module in modules:
        stem = module.__name__.rpartition(".")[2]
        members = [(f"{stem}.{attr}", obj) for attr, obj in vars(module).items()
                   if getattr(obj, "__module__", None) == module.__name__]
        members += [(f"{label}.{attr}", obj) for label, cls in list(members)
                    if isinstance(cls, type) for attr, obj in vars(cls).items()]
        for label, obj in members:
            fn = getattr(obj, "func", None) or getattr(obj, "__func__", None) or obj
            if not isinstance(fn, types.FunctionType):
                continue
            codes = _nested(fn.__code__)
            for labels, value in zip(found, values):
                if any(value in c.co_names or value in c.co_consts for c in codes):
                    labels.append(label)
    return found


def test_sub_forms_are_read_by_one_restriction():
    # primary parts, Jordan scales and H^perp / H read q and b over a
    # smaller exponent through FiniteQuadraticForm.restrict; it, negate and
    # the discriminant form of a lattice build their forms through
    # lattice._read_form, the one place that raises for a numerator the
    # exponent ratio does not divide and the one constructor call
    for text in ("discriminant pairing is not in (1/N)Z", "FiniteQuadraticForm("):
        assert _files_holding(text) == ["lattice.py"], text
    raising, building = _functions_naming([lat], "discriminant pairing is not in (1/N)Z",
                                          "FiniteQuadraticForm")
    assert raising == building == ["lattice._read_form"]
    for fn in (lat.FiniteQuadraticForm.restrict, lat.FiniteQuadraticForm.negate,
               lat.Lattice._discriminant_form.func):
        assert "_read_form" in fn.__code__.co_names, fn.__name__
    for fn in (ke._jordan_symbols, glue._quotient_form):
        assert "restrict" in fn.__code__.co_names, fn.__name__
    # and every rows * gram * rows^T product is exact.congruence
    for fn in (lat.FiniteQuadraticForm.restrict, lat.Lattice._discriminant_form.func):
        names = set(fn.__code__.co_names)
        assert "congruence" in names and not names & {"transpose", "dot"}, fn.__name__


def _called_names(fn: ast.AST) -> set[str]:
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }


def test_one_gram_matching_search():
    # Gram-matching backtracking lives in k3embed._match_gram alone: a
    # nested self-recursive function anywhere else in k3embed would be a
    # second matcher.  The discriminant-form search runs on it and grows no
    # subgroup spans, which a b-preserving map on a nondegenerate form
    # makes redundant
    tree = ast.parse((SRC / "k3embed.py").read_text())
    recursive = [
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for inner in ast.walk(fn)
        if inner is not fn
        and isinstance(inner, ast.FunctionDef)
        and inner.name in _called_names(inner)
    ]
    assert recursive == ["_match_gram"]
    calls = _called_names(_function("k3embed.py", "find_disc_form_isomorphism"))
    assert "_match_gram" in calls
    assert "span" not in calls


def _call_count(fn: ast.AST, name: str) -> int:
    return sum(
        isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == name)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == name)
        )
        for node in ast.walk(fn)
    )


def test_disc_form_search_walks_each_group_once():
    # one walk of f1 counts its (order, q) profile and one walk of f2 takes
    # it down and fills the pools; the per-scale determinants of the Jordan
    # symbols, not a pass over the elements or an index of [B; N I], make
    # the matched map injective
    search = _function("k3embed.py", "find_disc_form_isomorphism")
    assert _call_count(search, "elements") == 2
    assert _call_count(search, "index") == 0
    assert _call_count(search, "_jordan_symbols") == 1


def test_disc_forms_isomorphic_walks_no_group():
    # the odd parts are compared by their Jordan symbols; only the search
    # on the 2-parts walks elements
    compare = _function("k3embed.py", "disc_forms_isomorphic")
    assert _call_count(compare, "elements") == 0
    assert _call_count(compare, "_jordan_symbols") == 2
    assert _call_count(compare, "find_disc_form_isomorphism") == 1


def test_nikulin_invariants_walk_no_group():
    # a 2-part of exponent 2 is compared by (a, delta, sigma) read off F_2
    # bitmasks: no element walk, no Gram matching, and only the integer
    # numerators, never a Fraction or the rational q, b, q_values, b_matrix
    rational = {"q", "b", "q_values", "b_matrix"}
    invariants = _function("k3embed.py", "_nikulin_invariants")
    assert not {"elements", "_match_gram"} & _called_names(invariants)
    found = [
        node.lineno
        for node in ast.walk(invariants)
        if (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr in rational)
    ]
    assert found == []
    assert _call_count(_function("k3embed.py", "disc_forms_isomorphic"), "_nikulin_invariants") == 2


def test_short_vectors_walk_in_integers():
    # the Fincke-Pohst walk keeps its budget as an integer multiple of the
    # norm and reads each coordinate's range off one isqrt: no Fraction
    # anywhere in k3embed, and no loop stepping a coordinate to its bound
    tree = ast.parse((SRC / "k3embed.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert "Fraction" not in names
    walk = _function("k3embed.py", "short_vectors")
    assert "isqrt" in _called_names(walk)
    assert sum(isinstance(node, ast.While) for node in ast.walk(walk)) == 1


def test_definite_searches_run_on_one_lll():
    # both definite searches reduce with exact.lll, which also gives the
    # walk its Gram-Schmidt data; k3embed reads no ldl and keeps no
    # reduction of its own
    tree = ast.parse((SRC / "k3embed.py").read_text())
    assert _call_count(tree, "ldl") == 0
    for name in ("short_vectors", "definite_isomorphic"):
        assert _call_count(_function("k3embed.py", name), "lll") == 1, name
    for path in SRC.glob("*.py"):
        assert "_greedy_reduce" not in path.read_text(), path.name


def test_subgroups_and_membership_read_one_structure_each():
    # isotropic subgroups grow by pool refinement from one walk over the
    # group, with no generic subgroup span; membership and saturation read
    # the Hermite basis, without a rational solve or a Smith form
    lattice = importlib.import_module("k3lattice.lattice")
    assert not hasattr(lattice.FiniteQuadraticForm, "span")
    grow = _function("glue.py", "_isotropic_subgroups")
    assert _call_count(grow, "elements") == 1
    assert _call_count(grow, "span") == 0
    assert _call_count(_function("lattice.py", "contains_ambient"), "solve") == 0
    saturation = _function("lattice.py", "saturation_index")
    assert _call_count(saturation, "smith_normal_form") == 0


def test_one_reader_of_echelon_coordinates():
    # membership and the generators of H^perp / H are the two places that
    # write a vector in an echelon basis; both call exact.echelon_coordinates
    # and keep no reduction loop of their own
    for module, name in (("lattice.py", "contains_ambient"), ("glue.py", "_quotient_form")):
        fn = _function(module, name)
        assert _call_count(fn, "echelon_coordinates") == 1, name
        assert not any(isinstance(node, ast.For) for node in ast.walk(fn)), name
    assert _files_holding("echelon_coordinates(") == ["exact.py", "glue.py", "lattice.py"]
    (calling,) = _functions_naming([exact, glue, lat], "echelon_coordinates")
    assert calling == ["exact.echelon_coordinates", "glue._quotient_form",
                       "lattice.contains_ambient"]


def test_each_isotropic_subgroup_is_built_once():
    # least-element growth reaches each subgroup along one path, so no
    # table of the subgroups seen drops repeats, and one union per step
    # builds the larger group
    grow = _function("glue.py", "_isotropic_subgroups")
    names = {node.id for node in ast.walk(grow) if isinstance(node, ast.Name)}
    assert "found" not in names
    assert _call_count(grow, "union") == 1


def test_one_embedded_lattice_type():
    # rows in an ambient are stored one way, as lattice.Embedding; a second
    # class holding an ambient and a basis would bring back a parallel type
    found = []
    for name, node in _nodes():
        if name == "lattice.py" or not isinstance(node, ast.ClassDef):
            continue
        fields = {
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        }
        if {"ambient", "basis"} <= fields:
            found.append(f"{name}:{node.name}")
    assert found == []


def test_readme_python_blocks_run():
    # the library example in README.md is run, so it cannot go stale
    readme = (SRC.parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_one_named_frame_lookup():
    # loads and dumps look the frame a name stands for up through one
    # function, which alone calls glue.build_named
    (calling,) = _functions_naming([lattice_io], "build_named")
    assert calling == ["lattice_io._named_frame"]
    for fn in (lattice_io.loads, lattice_io.dumps):
        assert "_named_frame" in fn.__code__.co_names, fn.__name__


def test_loads_builds_the_lattice_once():
    # lattice_io.loads hands its decoded integer tuples to the Lattice
    # constructor, which checks every entry once
    assert "lattice" not in _called_names(_function("lattice_io.py", "loads"))
    assert "Lattice" in _called_names(_function("lattice_io.py", "loads"))


def test_one_constructor_per_lattice_value():
    # Lattice checks its input and Embedding is a plain record, so no
    # function forwards to either; sublattice rows are checked for
    # independence in one place
    assert not {"lattice", "make_embedding"} & set(vars(lat))
    tree = ast.parse((SRC / "lattice.py").read_text())
    found = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(c, ast.Constant) and "rank-deficient" in str(c.value)
            for c in ast.walk(node)
        )
    ]
    assert len(found) == 1, found


def test_index_and_kernel_basis_stop_at_the_echelon_form():
    # the pivots and the rows past the rank are final once the elimination
    # below the pivots is done; the reduction above them in _hermite changes
    # neither, so index and kernel_basis do not run it
    for name in ("index", "kernel_basis"):
        called = _called_names(_function("exact.py", name))
        assert "_echelon" in called, name
        assert not called & {"_hermite", "hermite_row_basis"}, name


def test_adjoin_finds_its_basis_modulo_the_glue_denominator():
    # adjoin's basis contains s*Z^n, so it is found modulo s with no s*I_n
    # rows; that search and _hermite share one reduction above the pivots
    called = _called_names(_function("glue.py", "adjoin"))
    assert "hermite_basis_mod" in called
    assert "hermite_row_basis" not in called
    for name in ("_hermite", "hermite_basis_mod"):
        assert "_reduce_above" in _called_names(_function("exact.py", name)), name


def test_lattice_summary_builds_no_discriminant_form():
    # named and lattice info print only the invariant factors and the det,
    # so they take the Smith diagonal without companions, generators, q or b
    called = _called_names(_function("cli.py", "_lattice_summary"))
    assert "invariant_factors" in called
    assert "discriminant_group" not in called


def test_invariant_factors_take_no_hermite_basis(monkeypatch):
    # smith_diagonal splits unit pivots off the Gram matrix itself, so the
    # invariant factors of a named lattice need no Hermite basis of it,
    # nor its tail
    names = sorted(glue.NAMED_BUILDERS)
    want = [lat.discriminant_group(glue.build_named(name)).invariant_factors for name in names]
    lattices = [glue.build_named(name) for name in names]

    def refuse(*args, **kwargs):
        raise RuntimeError("a Hermite basis was taken")

    monkeypatch.setattr(exact, "hermite_row_basis", refuse)
    monkeypatch.setattr(lat, "_hermite_tail", refuse)
    for l, factors in zip(lattices, want):
        assert "_discriminant_form" not in vars(l)
        assert lat.invariant_factors(l) == factors


def _eliminated_grams(monkeypatch) -> list[tuple[str, tuple]]:
    """Record every matrix passed to exact.ldl and exact.det from now on,
    with the caches of Lattice.det and Lattice.signature emptied."""
    seen = []

    def recording(name, fn):
        def wrapper(m):
            seen.append((name, tuple(map(tuple, m))))
            return fn(m)
        return wrapper

    for name in ("ldl", "det"):
        monkeypatch.setattr(exact, name, recording(name, getattr(exact, name)))
    lat._det_cached.cache_clear()
    lat._signature_cached.cache_clear()
    return seen


def test_named_reads_det_and_signature_off_the_frame(monkeypatch, capsys, tmp_path):
    # KummerK is an overlattice of its frame, so neither its det nor its
    # signature takes an elimination of its own Gram matrix; its frame A1^16
    # is sixteen 1x1 blocks, so the frame's signature takes no ldl either
    kummer = glue.build_named("KummerK").gram
    seen = _eliminated_grams(monkeypatch)
    assert cli.main(["named", "KummerK"]) == 0
    assert "signature:  (0, 0, 16)" in capsys.readouterr().out
    assert not any(name == "ldl" for name, _ in seen)
    assert all(m != kummer for _, m in seen)
    # a lattice file without a frame still runs one elimination
    path = tmp_path / "kummer.lattice"
    path.write_text(json.dumps({"name": "K", "gram": [list(row) for row in kummer]}))
    seen.clear()
    assert cli.main(["lattice", "info", str(path)]) == 0
    assert seen == [("ldl", kummer)]


def test_a_command_builds_the_parser_of_its_own_subtree(monkeypatch, capsys):
    # the top level and the named subparser, against 13 for the full tree
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    try:
        assert cli.main(["named", "N1"]) == 0
        assert cli.main(["named", "N2"]) == 0
        assert len(built) == 2
        built.clear()
        cli.build_parser()
        assert len(built) == 13
    finally:
        cli.build_parser.cache_clear()


def _names(fn: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}


def test_one_hermite_elimination_and_one_rational_vector_conversion():
    # exact.solve reads the Hermite basis instead of running an elimination
    # with per-row divisors of its own, and exact.numerators is the one
    # place that writes a rational vector as integers over one denominator
    solve = _function("exact.py", "solve")
    assert "hermite_row_basis" in _called_names(solve)
    assert "level" not in _names(solve)
    lattice = importlib.import_module("k3lattice.lattice")
    assert not hasattr(lattice, "_numerators")
    assert "Fraction" not in _names(_function("lattice.py", "divisibility"))


def test_glue_computes_in_integers_only():
    # every overlattice is one adjoin of integer GlueSpecs, and L2's torsion
    # classes are stored, not solved for, so glue needs no Fraction
    tree = ast.parse((SRC / "glue.py").read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {(node.module or "").split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert "fractions" not in imported
    assert "Fraction" not in _names(tree)
    assert not hasattr(glue, "adjoin_ambient_vectors")


def _loops(fn: ast.AST) -> int:
    return sum(isinstance(node, (ast.For, ast.While)) for node in ast.walk(fn))


def test_one_hasse_pass_per_place():
    # the private _hasse runs one loop over a running integer product, which
    # hasse_invariant reaches after checking and converting once and
    # _invariants reaches directly; places are checked only where they enter
    # the module, no function of the module calls hilbert_symbol (which
    # checks and converts again), and the global Witt index reads the Hasse
    # invariants of invariants_and_witt_index
    assert _loops(_function("quadform.py", "_hasse")) == 1
    hasse = _function("quadform.py", "hasse_invariant")
    assert _loops(hasse) == 0 and "_hasse" in _called_names(hasse)
    called = _called_names(_function("quadform.py", "_invariants"))
    assert "_hasse" in called and "hasse_invariant" not in called
    tree = ast.parse((SRC / "quadform.py").read_text())
    checking = [
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and "_require_place" in _called_names(fn)
    ]
    assert checking and not any(map(_is_private, checking)), checking
    assert _call_count(tree, "hilbert_symbol") == 0
    assert "invariants_and_witt_index" in _called_names(_function("quadform.py", "witt_index"))
    for path in SRC.glob("*.py"):
        assert "_global_witt_index" not in path.read_text(), path.name
    # the places helper of the Witt-index oracle lives in the tests
    assert not hasattr(importlib.import_module("k3lattice.quadform"), "relevant_places")


def test_int_converts_only_text():
    # exact.require_integers refuses an entry that is not an int, so nothing
    # is truncated: int() runs only where text is parsed, in exact.parse_int,
    # which the CLI's --glue specs, Kodaira symbols and fibre counts,
    # named-lattice parameters and the decimal strings of a lattice file call
    parsers = {"exact.parse_int"}
    found = set()

    def is_int(node):
        return isinstance(node, ast.Name) and node.id == "int"

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            # int(x), or map(int, ...)
            if isinstance(child, ast.Call) and (
                is_int(child.func)
                or isinstance(child.func, ast.Name) and child.func.id == "map"
                and child.args and is_int(child.args[0])
            ):
                found.add(scope)
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            walk(child, f"{scope}.{child.name}" if named else scope)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path.stem)
    assert found == parsers, sorted(found ^ parsers)


def test_post_init_is_looked_up_on_each_construction(monkeypatch):
    # perfbench's tracer replaces __post_init__ on the class after import, so
    # the constructor must reach the hook through the instance on every
    # call; Lattice._formed builds an already checked lattice without it
    lattice = importlib.import_module("k3lattice.lattice")
    glue = importlib.import_module("k3lattice.glue")
    seen = []
    for cls in (lattice.Lattice, glue.GlueSpec):
        hook = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda self, hook=hook: seen.append(self) or hook(self)
        )
    a2 = lattice.Lattice(((2, 1), (1, 2)), "A2")
    spec = glue.GlueSpec((1, 0), 2)
    assert seen == [a2, spec]
    lattice.Lattice._formed(((2, 1), (1, 2)), "A2", None)
    assert len(seen) == 2


def test_cold_import_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, and compiles the
    # methods of each class through exec: together 20-30 ms of every cold
    # k3lattice process; json is imported where a file or report is read
    # or written
    code = (
        "import sys, k3lattice.cli, k3lattice.claims; "
        "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_no_dataclasses_and_no_runtime_compilation():
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        if any(m.split(".")[0] == "dataclasses" for m in modules):
            found.append(f"{name}:{node.lineno} imports dataclasses")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("exec", "eval", "compile"):
            found.append(f"{name}:{node.lineno} calls {node.func.id}")
    assert found == []


# what a fresh process runs: every claim, then every CLI command through
# cli.main; a function counts as called on its first "call" event
_LEDGER_DRIVE = r'''
import contextlib, io, json, sys
from pathlib import Path

codes = set()
sys.setprofile(lambda frame, event, arg: event == "call" and codes.add(frame.f_code))
import k3lattice
from k3lattice import claims, cli, glue

claims.run_all()
tmp = Path(sys.argv[1])


def run(*argv, code=0):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        got = cli.main(list(argv))
    if got != code:
        sys.exit(f"{argv}: exit {got}, want {code}")


run("list", "-v")
run("named", "--list")
for name in glue.NAMED_BUILDERS:
    run("named", name, "--save", str(tmp / f"{name}.lattice"))
for name in ("Lp(17)", "Np(5,2)", "L_d(7,subgroup)", "L_d(11,all)"):
    run("named", name)
run("named", "Lambda(3)", "--save", str(tmp / "lam3.lattice"))
run("verify", "--all", "--json", str(tmp / "report.json"), code=1)  # two fail by design
lam3, rows, out = (str(tmp / f) for f in ("lam3.lattice", "rows.json", "out.lattice"))
Path(rows).write_text("[[1, 0, 0, 0, 0, 0]]")
for path in (str(tmp / "L2.lattice"), lam3):
    run("lattice", "info", path)
    run("lattice", "op", "disc-form", path)
    run("quadform", "invariants", path)
run("lattice", "op", "complement", lam3, "--sub", rows)
run("lattice", "op", "complement", lam3, "--sub", rows, "--out", out)
run("lattice", "info", out)
run("lattice", "op", "saturation", lam3, "--sub", rows)
run("lattice", "op", "adjoin", lam3, "--glue", "1,1,0,0,0,0/2", "--odd-ok")
run("lattice", "op", "adjoin", lam3, "--glue", "1,0,0,0,0,0/2", code=2)
sys.setprofile(None)
package = Path(k3lattice.__file__).parent
print(json.dumps([[Path(c.co_filename).name, c.co_firstlineno]
                  for c in codes if Path(c.co_filename).parent == package]))
'''

# the functions the drive never calls, each with the reason it stays
UNCALLED = {
    "quadform._pollard_rho": "splits a |det| whose part past the primes up to 31 is composite",
    "quadform._strong_lucas": "primality from psi12 = 318665857834031151167461 on",
    "quadform.hilbert_symbol": "public, and perfbench/tracer.py FUNCTIONS names it",
    "k3embed.isometry_search": (
        "public, and perfbench/tracer.py FUNCTIONS names it; the claims check stored maps"
    ),
    "k3embed.find_disc_form_isomorphism": (
        "2-parts of exponent > 2; no claim has one; perfbench/tracer.py FUNCTIONS names it"
    ),
    "glue.even_overlattices": "public; perfbench/tracer.py FUNCTIONS names it",
    "exact.solve": (
        "public; perfbench/tracer.py FUNCTIONS names it; the tests' oracle for `glue.L2_TORSION`"
    ),
    "glue.find_isotropic_glue": (
        "public; perfbench/tracer.py FUNCTIONS names it; the claims check stored witnesses"
    ),
    "exact.box_vectors": (
        "the box walk of find_isotropic_glue and isometry_search, which no claim reaches"
    ),
    "exact.box_vectors.last": "the closed-form last coordinate of exact.box_vectors",
    "exact.box_vectors.level": "the coordinate levels of exact.box_vectors",
    "lattice.FiniteQuadraticForm.element_order": (
        "the (order, q) profile of k3embed.find_disc_form_isomorphism, which no claim reaches"
    ),
    "lattice_io._decode_int": "the error path of an entry that is not a plain int",
    "value.Value.__setattr__": "refuses assignment to a field",
    "value.Value.__delattr__": "refuses deletion of a field",
    "value.Value.__hash__": "values as set members and dict keys",
    "value.Value.__repr__": "debugging aid",
    "lattice.Lattice.__repr__": "debugging aid",
    "ellsurf.KodairaType.__str__": "a fibre type as its Kodaira symbol",
    "lattice.FiniteQuadraticForm.q": "the Fraction q value, the documented rational boundary",
    "lattice.FiniteQuadraticForm.b": "the Fraction b value, the documented rational boundary",
}


def _package_functions() -> dict[tuple[str, int], str]:
    # keyed as a code object is: file name and first line, which for a
    # decorated function is the line of its first decorator
    found = {}

    def walk(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[(file, line)] = f"{prefix}{child.name}"
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            walk(child, file, f"{prefix}{child.name}." if named else prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path.name, f"{path.stem}.")
    return found


def test_every_function_is_called_by_a_claim_or_command(tmp_path):
    # a fresh process, since the caches of a warm one (claims._named,
    # lattice._det_cached) would hide callees
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", _LEDGER_DRIVE, str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    called = {tuple(key) for key in json.loads(proc.stdout)}
    functions = _package_functions()
    assert set(UNCALLED) <= set(functions.values()), set(UNCALLED) - set(functions.values())
    never = {name for key, name in functions.items() if key not in called}
    assert never <= set(UNCALLED), sorted(never - set(UNCALLED))
    # an entry for a function that something calls is stale
    assert set(UNCALLED) <= never, sorted(set(UNCALLED) - never)
