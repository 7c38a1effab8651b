"""Tests for lattices, discriminant forms, complements and saturation."""

import gc
import importlib.util
import random
import weakref
from fractions import Fraction
from math import gcd, prod
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import k3lattice.ellsurf as es
import k3lattice.lattice as lat
import k3lattice.quadform as qf
from k3lattice import cli, exact, glue, k3embed as ke, lattice_io
from test_exact import eager_solve, even_grams


# ---------------------------------------------------------------------------
# constructors


def test_root_lattice_gram():
    a1 = lat.root_lattice("A", 1)
    assert a1.gram == ((-2,),)
    a3 = lat.root_lattice("A", 3)
    assert a3.gram == ((-2, 1, 0), (1, -2, 1), (0, 1, -2))


@pytest.mark.parametrize(
    "kind,n,expected_abs_det",
    [
        ("A", 1, 2),
        ("A", 2, 3),
        ("A", 5, 6),
        ("D", 4, 4),
        ("D", 8, 4),
        ("E", 6, 3),
        ("E", 7, 2),
        ("E", 8, 1),
    ],
)
def test_root_lattice_determinants(kind, n, expected_abs_det):
    l = lat.root_lattice(kind, n)
    assert abs(l.det()) == expected_abs_det
    assert l.signature() == (0, 0, n)  # negative definite
    assert l.is_even()


def test_root_lattice_invalid():
    for kind, n in (("E", 5), ("E", 9), ("D", 2), ("A", 0), ("F", 4)):
        with pytest.raises(ValueError):
            lat.root_lattice(kind, n)


def test_hyperbolic_and_rescale():
    u = lat.hyperbolic()
    assert u.gram == ((0, 1), (1, 0))
    assert lat.rescale(u, 2).gram == ((0, 2), (2, 0))
    with pytest.raises(ValueError):
        lat.rescale(u, 0)


def test_rank_one_even_flag():
    assert lat.rank_one(-6).gram == ((-6,),)
    with pytest.raises(ValueError):
        lat.rank_one(1)
    assert lat.rank_one(1, allow_odd=True).gram == ((1,),)


def test_direct_sum_dets():
    lam3 = lat.direct_sum(
        lat.rank_one(-2), lat.rank_one(-6), lat.hyperbolic(), lat.hyperbolic()
    )
    assert lam3.rank == 6
    assert lam3.det() == 12  # (-2)(-6)(-1)(-1)
    mixed = lat.direct_sum(
        lat.hyperbolic(),
        lat.root_lattice("D", 8),
        lat.root_lattice("A", 5),
        lat.root_lattice("A", 1),
    )
    assert abs(mixed.det()) == 48  # 1 * 4 * 6 * 2


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6))
def test_rescale_det_law(n):
    l = lat.direct_sum(lat.hyperbolic(), lat.root_lattice("A", 2))
    assert lat.rescale(l, n).det() == n**l.rank * l.det()


def test_gram_must_be_symmetric():
    with pytest.raises(ValueError):
        lat.Lattice([[0, 1], [2, 0]])


def test_a_wrong_ambient_basis_is_rejected():
    a2 = lat.root_lattice("A", 2)
    e = lat.Embedding(a2, ((1, 0), (1, 1)))
    assert lat.Lattice(((-2, -1), (-1, -2)), None, e).rank == 2
    with pytest.raises(ValueError):
        lat.Lattice(((-2, 1), (1, -2)), None, e)
    with pytest.raises(ValueError):
        lat.Lattice([[-2, 1], [1, -2]], "A2", lat.Embedding(a2, ((1, 0), (1, 1))))
    with pytest.raises(ValueError):  # the denominator scales the product
        lat.Lattice([[-2, -1], [-1, -2]], None, lat.Embedding(a2, ((1, 0), (1, 1)), 2))


def test_an_embedding_of_the_wrong_shape_is_rejected():
    # the B G B^T check reads only the top-left rank x rank block, so the
    # row count and the denominator's sign are checked on their own
    uu = lat.direct_sum(lat.hyperbolic(), lat.hyperbolic())
    u = ((0, 1), (1, 0))
    assert lat.Lattice(u, None, lat.Embedding(uu, ((1, 0, 0, 0), (0, 1, 0, 0)))).rank == 2
    three_rows = lat.Embedding(uu, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))
    with pytest.raises(ValueError, match="3 rows for a lattice of rank 2"):
        lat.Lattice(u, None, three_rows)
    with pytest.raises(ValueError, match="1 rows for a lattice of rank 2"):
        lat.Lattice(u, None, lat.Embedding(uu, ((1, 0, 0, 0),)))
    for den in (-1, 0):
        flipped = lat.Embedding(uu, ((1, 0, 0, 0), (0, 1, 0, 0)), den)
        with pytest.raises(ValueError, match="denominator must be positive"):
            lat.Lattice(u, None, flipped)


def test_built_lattices_pass_the_ambient_check():
    # sublattice, adjoin and rename skip the constructor's B G B^T check on
    # a product they formed; the constructor must accept what they build
    e8 = lat.root_lattice("E", 8)
    base = lat.Lattice([[-2, 0, 0, 0], [0, -2, 0, 0], [0, 0, 6, 0], [0, 0, 0, 6]])
    built = [
        lat.sublattice(e8, ke.unit_rows([0, 2, 4], 8), "sub"),
        lat.orthogonal_complement(e8, ke.unit_rows([0, 1, 2, 3, 4, 6], 8)),
        glue.adjoin(base, [glue.GlueSpec((1, 1, 1, 1), 2)]),
        glue.n1_lattice(),
        glue.l2_lattice().rename("renamed"),
        e8.rename("E8 again"),
    ]
    for l in built:
        again = lat.Lattice(l.gram, l.name, l.ambient)
        assert again == l and again.ambient == l.ambient
        assert all(type(x) is int for row in l.gram for x in row)


def _uu():
    return lat.direct_sum(lat.hyperbolic(), lat.hyperbolic())


# each entry point that takes integers, called with x in one entry
INTEGER_ENTRY_POINTS = {
    "rescale": lambda x: lat.rescale(lat.hyperbolic(), x),
    "Lattice": lambda x: lat.Lattice(((x,),)),
    "Lattice ambient": lambda x: lat.Lattice(((0,),), None, lat.Embedding(lat.hyperbolic(), ((x, 0),))),
    "Lattice denominator": lambda x: lat.Lattice(
        ((0,),), None, lat.Embedding(lat.hyperbolic(), ((1, 0),), x)
    ),
    "sublattice": lambda x: lat.sublattice(lat.hyperbolic(), [[x, 1]]),
    "saturation": lambda x: lat.saturation(lat.hyperbolic(), [[x, 0]]),
    "find_isotropic_glue": lambda x: glue.find_isotropic_glue(_uu(), [x, 0, 0, 0], 1),
    "GlueSpec vector": lambda x: glue.adjoin(_uu(), [glue.GlueSpec((x, 0, 0, 0), 2)]),
    "GlueSpec denominator": lambda x: glue.GlueSpec((1, 0), x),
    "height_pairing": lambda x: es.height_pairing(
        es.SurfaceData(1, 10), es.SectionIncidence(0, ((es.kodaira("I4"), x),))
    ),
    "det": lambda x: exact.det([[x]]),
    "ldl": lambda x: exact.ldl([[x]]),
    "lll": lambda x: exact.lll([[x]]),
}
# these read rationals, so only a float or a bool is refused
RATIONAL_ENTRY_POINTS = {
    "divisibility": lambda x: lat.divisibility(lat.hyperbolic(), [x, 2]),
    "pairing": lambda x: lat.hyperbolic().pairing([x, 2], [1, 1]),
    "numerators": lambda x: exact.numerators([x, 1]),
    "hilbert_symbol": lambda x: qf.hilbert_symbol(x, 3, 2),
}


@pytest.mark.parametrize(
    "name,value",
    [
        pytest.param(name, x, id=f"{name}-{x}")
        for names, values in (
            (INTEGER_ENTRY_POINTS, (2.5, Fraction(1, 2), True)),
            (RATIONAL_ENTRY_POINTS, (2.5, True)),
        )
        for name in names
        for x in values
    ],
)
def test_non_integer_input_is_refused(name, value):
    # refused with ValueError, never truncated by int() or read as a binary
    # fraction
    call = INTEGER_ENTRY_POINTS.get(name) or RATIONAL_ENTRY_POINTS[name]
    with pytest.raises(ValueError, match="integer entries|int or Fraction|an int or a Fraction"):
        call(value)


mixed_entries = st.one_of(
    st.integers(-20, 20),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(mixed_entries, min_size=n, max_size=n),
        st.lists(mixed_entries, min_size=n, max_size=n),
    )
))
def test_pairing_equals_the_fraction_sum(case):
    m, v, w = case
    n = len(m)
    l = lat.Lattice([[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])

    def plain(x, y):
        return sum(
            (Fraction(x[i]) * l.gram[i][j] * Fraction(y[j]) for i in range(n) for j in range(n)),
            Fraction(0),
        )

    for x, y in ((v, w), (w, v), (v, v)):
        got = l.pairing(x, y)
        assert type(got) is Fraction and got == plain(x, y)
    assert l.norm(w) == plain(w, w)
    assert l.pairing(tuple(v), list(w)) == plain(v, w)


# ---------------------------------------------------------------------------
# discriminant groups


def test_disc_group_e8_trivial():
    form = lat.discriminant_group(lat.root_lattice("E", 8))
    assert form.invariant_factors == ()
    assert form.order == 1


def test_disc_group_a1():
    form = lat.discriminant_group(lat.root_lattice("A", 1))
    assert form.invariant_factors == (2,)
    # the dual generator e/2 has norm -1/2, i.e. 3/2 in [0, 2)
    assert form.q_values == (Fraction(3, 2),)


def test_disc_group_order_is_abs_det():
    for l in (
        lat.root_lattice("A", 5),
        lat.root_lattice("D", 4),
        lat.direct_sum(lat.hyperbolic(), lat.root_lattice("A", 2)),
    ):
        assert lat.discriminant_group(l).order == abs(l.det())


def test_disc_group_degenerate_rejected():
    with pytest.raises(ValueError):
        lat.discriminant_group(lat.Lattice([[0]]))


def test_disc_group_odd_lattice_has_no_q():
    form = lat.discriminant_group(lat.rank_one(3, allow_odd=True))
    assert form.q_values is None
    assert form.invariant_factors == (3,)


def check_quadratic_refinement(form, els):
    """q(x + y) = q(x) + q(y) + 2 b(x, y) mod 2 for every pair from els."""
    for x in els:
        for y in els:
            s = tuple((a + b) % d for a, b, d in zip(x, y, form.invariant_factors))
            assert (form.q(s) - form.q(x) - form.q(y) - 2 * form.b(x, y)) % 2 == 0


def test_disc_form_axioms_small():
    for kind, n in (("A", 3), ("D", 4)):
        form = lat.discriminant_group(lat.root_lattice(kind, n))
        check_quadratic_refinement(form, list(form.elements()))


def check_form_against_gram_pairings(l):
    """q(x) and b(x, y) for every element x and pair (x, y) against the
    Gram pairing of the rational vectors sum_i c_i g_i / d_i, reduced mod 2
    and mod 1; negation against the negated values."""
    form = lat.discriminant_group(l)
    top = max(form.invariant_factors, default=1)
    assert form.order == abs(l.det())
    assert all(0 <= b < top for row in form.b_numerators for b in row)
    if form.q_numerators is not None:
        assert all(0 <= q < 2 * top for q in form.q_numerators)
    # top * sum_i c_i g_i / d_i, an integer vector, with its image under G
    vecs = []
    for el in form.elements():
        v = [0] * l.rank
        for c, d, g in zip(el, form.invariant_factors, form.generators):
            v = [a + c * (top // d) * x for a, x in zip(v, g)]
        vecs.append((el, v, [sum(map(mul, row, v)) for row in l.gram]))
    neg = form.negate()
    assert neg.negate() == form
    for x, v, gv in vecs:
        if form.q_numerators is not None:
            q = Fraction(sum(map(mul, v, gv)), top * top) % 2
            assert form.q(x) == q
            assert neg.q(x) == -q % 2
        for y, w, _ in vecs:
            b = Fraction(sum(map(mul, w, gv)), top * top) % 1
            assert form.b(x, y) == b
            assert neg.b(x, y) == -b % 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: lat.root_lattice("A", 1),
        lambda: lat.root_lattice("A", 2),
        lambda: lat.root_lattice("D", 4),
        lambda: lat.direct_sum(lat.rescale(lat.hyperbolic(), 2), lat.root_lattice("A", 1)),
        lambda: lat.rank_one(3, allow_odd=True),
        glue.l2_lattice,
        glue.n1_lattice,
        glue.m16_lattice,
    ],
    ids=["A1", "A2", "D4", "U(2)+A1", "<3>", "L2", "N1", "M16"],
)
def test_disc_form_matches_gram_pairings(build):
    check_form_against_gram_pairings(build())


@st.composite
def small_grams(draw):
    n = draw(st.integers(1, 4))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * draw(st.integers(-4, 4))
        for j in range(i):
            g[i][j] = g[j][i] = draw(st.integers(-4, 4))
    return g


@settings(max_examples=40, deadline=None)
@given(small_grams().filter(lambda g: 0 < abs(exact.det(g)) <= 64))
def test_disc_form_matches_gram_pairings_on_drawn_grams(g):
    check_form_against_gram_pairings(lat.Lattice(g))


def reference_discriminant_group(l):
    """The discriminant form from the Smith form of the Gram matrix itself:
    the columns of v whose invariant factor exceeds 1, over that factor,
    generate, and q and b are read off the Gram pairings of the columns."""
    n = l.rank
    d, _, v = exact.smith_normal_form([list(r) for r in l.gram])
    factors = [d[i][i] for i in range(n) if d[i][i] > 1]
    gens = [tuple(v[r][i] for r in range(n)) for i in range(n) if d[i][i] > 1]
    top = max(factors, default=1)
    nums = [
        [top * exact.dot(g, exact.mat_vec(l.gram, h)) // (dg * dh) for h, dh in zip(gens, factors)]
        for g, dg in zip(gens, factors)
    ]
    qn = tuple(row[i] % (2 * top) for i, row in enumerate(nums)) if l.is_even() else None
    bn = tuple(tuple(x % top for x in row) for row in nums)
    return lat.FiniteQuadraticForm(tuple(factors), tuple(gens), qn, bn)


def random_even_gram(rng, n, half_diagonal, off_diagonal):
    """A nondegenerate even n x n Gram matrix, drawn row by row: each
    diagonal entry twice ``rng.randint(*half_diagonal)``, each entry left of
    it ``rng.randint(*off_diagonal)``; drawn again while the det is 0."""
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(*half_diagonal)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(*off_diagonal)
        if exact.det(g):
            return g


NAMED = sorted(glue.NAMED_BUILDERS) + [
    "Lambda(3)", "Lp(17)", "Np(5,2)", "L_d(7,subgroup)", "L_d(11,all)"
]


@pytest.mark.parametrize("name", NAMED)
def test_disc_group_of_named_lattices_equals_the_reference(name):
    l = glue.build_named(name)
    assert lat.discriminant_group(l) == reference_discriminant_group(l)


@pytest.mark.parametrize("n,seed", [(16, 1), (16, 2), (16, 3), (22, 1), (22, 2), (22, 3)])
def test_disc_group_of_random_even_grams_equals_the_reference(n, seed):
    rng = random.Random(f"disc:{n}:{seed}")
    l = lat.Lattice(random_even_gram(rng, n, (-1, 1), (-1, 1)))
    assert lat.discriminant_group(l) == reference_discriminant_group(l)


def test_disc_group_reduces_the_gram_without_a_companion(monkeypatch):
    # the first pass over the Gram matrix builds the Hermite basis; a row
    # companion there would be the discarded u of the Smith form
    calls = []
    hermite = exact._hermite

    def spy(a, u=None):
        calls.append(u is None)
        return hermite(a, u)

    monkeypatch.setattr(exact, "_hermite", spy)
    l = lat.Lattice(random_even_gram(random.Random("guard"), 12, (-1, 1), (-1, 1)))
    form = lat.discriminant_group(l)
    assert calls and calls[0] is True
    monkeypatch.undo()
    assert form == reference_discriminant_group(l)


def test_disc_group_is_built_once_per_lattice(monkeypatch):
    l = glue.build_named("N1")
    form = lat.discriminant_group(l)
    assert lat.discriminant_group(l) is form
    assert form.primary_part(2) is form.primary_part(2)
    assert form.primary_part(3) is form.primary_part(3) != form.primary_part(2)
    # with the form stored, invariant_factors reads it and takes no Hermite basis
    monkeypatch.setattr(exact, "hermite_row_basis", None)
    assert lat.invariant_factors(l) == form.invariant_factors == (2, 2, 2, 2, 2, 6)


def test_the_det_and_signature_caches_are_bounded():
    # dropped lattices may not grow the module caches for the life of the
    # process
    for x in range(1, 301):
        l = lat.Lattice(((x,),))
        l.det(), l.signature()
    for cache in (lat._det_cached, lat._signature_cached):
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


def test_a_stored_form_does_not_keep_its_lattice_alive():
    # the form lives on the lattice object, so no module cache holds either
    l = glue.build_named("N1")
    lat.discriminant_group(l).primary_part(2)
    ref = weakref.ref(l)
    del l
    gc.collect()
    assert ref() is None


@settings(max_examples=60, deadline=None)
@given(small_grams().filter(lambda g: exact.det(g) != 0))
def test_disc_group_of_drawn_grams_equals_the_reference(g):
    l = lat.Lattice(g)
    assert lat.discriminant_group(l) == reference_discriminant_group(l)


def _pivots(l):
    h = exact.hermite_row_basis(l.gram)
    return [row[i] for i, row in enumerate(h)]


@pytest.mark.parametrize("name", ["U_E8_E6", "Lambda(3)", "Lp(17)", "L_sat"])
def test_disc_group_with_interleaved_unit_pivots_equals_the_reference(name):
    # a unit pivot after the first non-unit one stays in the Smith form's
    # input; only the leading run of unit pivots is split off
    l = glue.build_named(name)
    pivots = _pivots(l)
    k = next(i for i, p in enumerate(pivots) if p != 1)
    assert 1 in pivots[k:]
    assert lat.discriminant_group(l) == reference_discriminant_group(l)


@pytest.mark.parametrize(
    "build",
    [glue.n1_lattice, lambda: lat.root_lattice("E", 8), lambda: lat.root_lattice("A", 3)],
    ids=["N1", "E8", "A3"],
)
def test_disc_group_takes_the_smith_form_of_the_hermite_tail(build, monkeypatch):
    l = build()
    pivots = _pivots(l)
    k = next((i for i, p in enumerate(pivots) if p != 1), l.rank)
    want = reference_discriminant_group(l)
    shapes = []
    smith = exact.smith_normal_form

    def spy(m):
        shapes.append((len(m), len(m[0]) if m else 0))
        return smith(m)

    def no_det(*args):
        raise AssertionError("discriminant_group took a determinant")

    monkeypatch.setattr(exact, "smith_normal_form", spy)
    monkeypatch.setattr(exact, "det", no_det)
    monkeypatch.setattr(lat.Lattice, "det", no_det)
    form = lat.discriminant_group(l)
    monkeypatch.undo()
    assert shapes == [(l.rank - k, l.rank - k)]
    assert form == want


def test_disc_group_exponent_and_numerators():
    a1a2 = lat.direct_sum(lat.root_lattice("A", 1), lat.root_lattice("A", 2))
    form = lat.discriminant_group(a1a2)
    assert form.invariant_factors == (6,)
    assert form.exponent == 6
    assert form.q_values == tuple(Fraction(q, 6) for q in form.q_numerators)
    assert form.b_matrix == tuple(
        tuple(Fraction(b, 6) for b in row) for row in form.b_numerators
    )
    trivial = lat.discriminant_group(lat.root_lattice("E", 8))
    assert trivial.exponent == 1
    assert trivial.q_values == () and trivial.b_matrix == ()


def gram_info_inputs(seed=7, pass_index=0):
    """The matrices of one pass of the benchmark's gram-info workload, from
    perfbench/inputs.py, which imports nothing of the package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.gram_inputs(seed, pass_index)


@pytest.mark.parametrize("name", NAMED)
def test_invariant_factors_of_named_lattices_are_those_of_the_form(name):
    l = glue.build_named(name)
    assert "_discriminant_form" not in vars(l)  # so the Hermite path runs
    assert lat.invariant_factors(l) == lat.discriminant_group(l).invariant_factors


def test_invariant_factors_of_the_gram_info_matrices_are_those_of_the_form():
    for g in gram_info_inputs(7, 0):
        l = lat.Lattice(g)
        assert lat.invariant_factors(l) == lat.discriminant_group(l).invariant_factors


def _sympy_invariant_factors(g):
    """As the benchmark's oracle takes them, the Smith diagonal entries > 1
    sorted, or None when sympy is absent."""
    try:
        from sympy import ZZ, Matrix
        from sympy.matrices.normalforms import smith_normal_form
    except ImportError:
        return None
    d = smith_normal_form(Matrix(g), domain=ZZ)
    return tuple(sorted(x for x in (abs(int(d[i, i])) for i in range(len(g))) if x > 1))


@settings(max_examples=80, deadline=None)
@given(even_grams().filter(lambda g: exact.det(g) != 0))
def test_invariant_factors_of_drawn_even_grams_are_those_of_the_form(g):
    # drawn Hermite bases often hold a unit pivot after a larger one
    l = lat.Lattice(g)
    factors = lat.invariant_factors(l)
    assert factors == lat.discriminant_group(l).invariant_factors
    assert _sympy_invariant_factors(g) in (None, factors)


@settings(max_examples=60, deadline=None)
@given(even_grams().filter(lambda g: exact.det(g) != 0), st.sampled_from([2, 3, 4, 6, 12]))
def test_invariant_factors_of_scaled_even_grams_are_those_of_the_form(g, c):
    # c*G has no unit entry, so its Smith diagonal starts from its content
    cg = [[c * x for x in row] for row in g]
    l = lat.Lattice(cg)
    factors = lat.invariant_factors(l)
    assert factors == lat.discriminant_group(l).invariant_factors
    assert _sympy_invariant_factors(cg) in (None, factors)


@pytest.mark.parametrize(
    "name", [f"Lambda({n})" for n in range(1, 9)] + ["Lp(17)", "Lp(41)", "Lp(89)"]
)
def test_invariant_factors_drop_unit_pivots_after_a_larger_one(name):
    # each Hermite basis here has a unit pivot after a non-unit one, which
    # discriminant_group keeps in its tail; invariant_factors takes no
    # Hermite tail and splits unit entries off the Gram matrix itself
    l = glue.build_named(name)
    pivots = _pivots(l)
    k = next(i for i, p in enumerate(pivots) if p != 1)
    assert 1 in pivots[k:]
    assert "_discriminant_form" not in vars(l)
    factors = lat.invariant_factors(l)
    assert factors == lat.discriminant_group(l).invariant_factors
    assert _sympy_invariant_factors(l.gram) in (None, factors)


def test_invariant_factors_equal_sympys():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    grams = gram_info_inputs(7, 0) + [list(map(list, glue.build_named(n).gram)) for n in NAMED]
    for g in grams:
        want = [abs(int(x)) for x in invariant_factors(sympy.Matrix(g), domain=sympy.ZZ)]
        assert list(lat.invariant_factors(lat.Lattice(g))) == [x for x in want if x > 1]


def prime_divisors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] * (n > 1)


def check_primary_parts(form):
    """The parts' orders multiply to the order, and each part's q and b at
    its generator i are the parent's at (d_i / p^e) g_i; restricted to all
    its generators, each of its own order, the form is itself."""
    units = exact.identity(len(form.invariant_factors))
    assert form.restrict(units, form.invariant_factors, form.generators) == form
    parts = {p: form.primary_part(p) for p in prime_divisors(form.exponent)}
    assert prod(part.order for part in parts.values()) == form.order
    for p, part in parts.items():
        kept = [i for i, d in enumerate(form.invariant_factors) if d % p == 0]
        assert part.generators == tuple(form.generators[i] for i in kept)
        assert (part.q_numerators is None) == (form.q_numerators is None)
        lifts = []
        for i, pe in zip(kept, part.invariant_factors):
            m, rest = divmod(form.invariant_factors[i], pe)
            assert rest == 0 and m % p != 0
            while pe % p == 0:
                pe //= p
            assert pe == 1
            lifts.append([m if j == i else 0 for j in range(len(form.invariant_factors))])
        units = exact.identity(len(kept))
        for e, x in zip(units, lifts):
            if form.q_numerators is not None:
                assert part.q(e) == form.q(x)
            for f, y in zip(units, lifts):
                assert part.b(e, f) == form.b(x, y)


@pytest.mark.parametrize("name", NAMED)
def test_primary_parts_of_named_lattices(name):
    form = lat.discriminant_group(glue.build_named(name))
    check_primary_parts(form)
    check_primary_parts(form.negate())


def test_primary_parts_of_gram_info_matrices():
    for g in gram_info_inputs():
        check_primary_parts(lat.discriminant_group(lat.Lattice(g)))


def test_primary_part_rejects_a_pairing_off_the_lattice():
    # b(g_0, g_0) = 1/6 for g_0 of order 3 is not admissible, as
    # 3 b(g_0, g_0) = 1/2 is not an integer: read over 3, the numerator 1
    # leaves a remainder
    bad = lat.FiniteQuadraticForm((3, 6), ((1, 0), (0, 1)), None, ((1, 0), (0, 0)))
    assert bad.primary_part(2).invariant_factors == (2,)
    with pytest.raises(ArithmeticError):
        bad.primary_part(3)


# ---------------------------------------------------------------------------
# complements and saturation


def test_complement_of_u_in_uu():
    uu = lat.direct_sum(lat.hyperbolic(), lat.hyperbolic())
    comp = lat.orthogonal_complement(uu, ke.unit_rows([0, 1], 4))
    assert comp.gram == ((0, 1), (1, 0))


def test_complement_rank_deficient_rejected():
    uu = lat.direct_sum(lat.hyperbolic(), lat.hyperbolic())
    with pytest.raises(ValueError):
        lat.orthogonal_complement(uu, [[1, 0, 0, 0], [2, 0, 0, 0]])


def test_complement_a5a1_in_e8_has_rank2_kernel():
    e8 = lat.root_lattice("E", 8)
    rows = ke.unit_rows([0, 1, 2, 3, 4, 6], 8)
    comp = lat.orthogonal_complement(e8, rows)
    assert comp.rank == 2  # 8 - 6
    assert comp.det() == 12
    # complement output is primitive: saturating it changes nothing
    comp_rows = [[int(x) for x in r] for r in comp.ambient.basis]
    assert lat.saturation_index(e8, comp_rows) == 1


def test_saturation_divides_out_index():
    u = lat.hyperbolic()
    sat = lat.saturation(u, [[2, 0]])
    assert [[int(x) for x in r] for r in sat.ambient.basis] in ([[1, 0]], [[-1, 0]])
    assert lat.saturation_index(u, [[2, 0]]) == 2
    assert lat.saturation_index(u, [[2, 2], [0, 6]]) == 12
    for bad in ([[1, 0], [2, 0]], [[1, 0], [0, 1], [1, 1]]):
        with pytest.raises(ValueError, match="rank-deficient"):
            lat.saturation_index(u, bad)


def test_saturation_on_a_degenerate_ambient(tmp_path, capsys):
    # the double complement took in the radical (1, 0, 0); the saturation is
    # the integer points of the rational span, which no Gram matrix enters
    ambient = lat.Lattice([[0, 0, 0], [0, 0, 1], [0, 1, 0]], "deg")
    sat = lat.saturation(ambient, [[0, 2, 0]])
    assert sat.rank == 1 and sat.ambient.basis == ((0, 1, 0),)
    base, rows = tmp_path / "deg.lattice", tmp_path / "rows.json"
    lattice_io.save_lattice(ambient, base)
    rows.write_text("[[0, 2, 0]]")
    assert cli.main(["lattice", "op", "saturation", str(base), "--sub", str(rows)]) == 0
    assert lattice_io.loads(capsys.readouterr().out).gram == ((0,),)
    # no rows give the zero lattice, full-rank rows the whole lattice
    u = lat.hyperbolic()
    assert lat.saturation(u, []).rank == 0
    assert lat.saturation(u, [[2, 0], [0, 3]]).ambient.basis == ((1, 0), (0, 1))
    with pytest.raises(ValueError, match="rank-deficient"):
        lat.saturation(u, [[1, 0], [2, 0]])


def double_complement(ambient, rows):
    """The orthogonal complement of the orthogonal complement of ``rows``
    in ``ambient``: their saturation when the ambient is nondegenerate."""
    comp = lat.orthogonal_complement(ambient, rows)
    return lat.orthogonal_complement(ambient, comp.ambient.basis)


@settings(max_examples=100, deadline=None)
@given(small_grams().filter(lambda g: exact.det(g) != 0), st.data())
def test_saturation_is_the_double_complement_on_nondegenerate_ambients(g, data):
    n = len(g)
    rows = data.draw(
        st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1, max_size=n)
        .filter(lambda r: len(exact.hermite_row_basis(r)) == len(r))
    )
    ambient = lat.Lattice(g)
    got = lat.saturation(ambient, rows).ambient.basis
    want = double_complement(ambient, rows).ambient.basis
    assert exact.hermite_row_basis(got) == exact.hermite_row_basis(want)


def test_saturation_index_is_the_smith_invariant_product():
    # the pivots of the Hermite basis of the columns multiply to the gcd of
    # the maximal minors, which the Smith diagonal gives as well
    rng = random.Random(5)
    deficient = 0
    for _ in range(600):
        n = rng.randint(1, 5)
        k = rng.randint(1, n + 1)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        d, _, _ = exact.smith_normal_form(rows)
        invariants = [d[i][i] for i in range(min(k, n))]
        ambient = lat.Lattice(exact.identity(n))
        if k > n or 0 in invariants:
            deficient += 1
            with pytest.raises(ValueError, match="rank-deficient"):
                lat.saturation_index(ambient, rows)
        else:
            product = 1
            for x in invariants:
                product *= x
            assert lat.saturation_index(ambient, rows) == product
    assert 50 < deficient < 550


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sublattice_det_index_law(data):
    base = lat.direct_sum(lat.root_lattice("A", 2), lat.root_lattice("A", 1))
    t = data.draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        ).filter(lambda m: exact.det(m) != 0)
    )
    rows = t
    gram = exact.matmul(
        exact.matmul(rows, [list(r) for r in base.gram]), exact.transpose(rows)
    )
    sub = lat.Lattice(gram)
    index = abs(exact.det(t))
    assert sub.det() == index**2 * base.det()


def test_is_even():
    assert lat.root_lattice("E", 8).is_even()
    assert not lat.rank_one(1, allow_odd=True).is_even()


def test_contains_and_divisibility():
    a1 = lat.root_lattice("A", 1)
    assert lat.divisibility(a1, [1]) == 2
    u = lat.hyperbolic()
    assert lat.divisibility(u, [1, 1]) == 1
    assert lat.divisibility(u, [2, 4]) == 2


def test_divisibility_reads_vectors_in_the_ambient_frame():
    base = lat.Lattice([[-2, 0, 0, 0], [0, -2, 0, 0], [0, 0, 6, 0], [0, 0, 0, 6]])
    l = glue.adjoin(base, [glue.GlueSpec((1, 1, 1, 1), 2)])
    e = l.ambient
    assert e.denominator == 2
    w = [2, 0, 0, 2]
    gw = exact.mat_vec(base.gram, w)
    pairings = [Fraction(sum(map(mul, row, gw)), e.denominator) for row in e.basis]
    assert all(p.denominator == 1 for p in pairings)
    expected = gcd(*(int(p) for p in pairings))
    assert lat.divisibility(l, w) == expected == 4
    # read in l's own basis the same entries give a different answer
    assert lat.divisibility(lat.Lattice(l.gram), w) == 2
    # an overlattice is not a sublattice of its frame
    with pytest.raises(ValueError):
        lat.is_primitive(l)


def fraction_divisibility(l, w):
    """gcd of the pairings of ``w`` with the basis of ``l``, each pairing
    a Fraction; ValueError when one of them is not an integer."""
    e = l.ambient
    if e is None:
        pairings = [Fraction(x) for x in exact.mat_vec(l.gram, w)]
    else:
        gw = exact.mat_vec(e.ambient.gram, w)
        pairings = [Fraction(exact.dot(row, gw), e.denominator) for row in e.basis]
    if any(p.denominator != 1 for p in pairings):
        raise ValueError("vector does not pair integrally with the lattice")
    return gcd(*(int(p) for p in pairings))


@st.composite
def embedded_lattices_and_vectors(draw):
    """A lattice spanned by integer rows B over a denominator D in an ambient
    with Gram D^2 G (so B G B^T is its Gram), or, without an ambient, a
    Gram of its own; and a rational vector in its frame."""
    n = draw(st.integers(1, 5))
    entries = st.integers(-4, 4)
    g = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    g = [[g[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    w = draw(st.lists(
        st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4])),
        min_size=n, max_size=n,
    ))
    if draw(st.booleans()):
        return lat.Lattice(g), w
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=n))
    gram = exact.matmul(exact.matmul(rows, g), exact.transpose(rows))
    ambient = lat.Lattice([[d * d * x for x in row] for row in g])
    return lat.Lattice(gram, None, lat.Embedding(ambient, tuple(map(tuple, rows)), d)), w


@settings(max_examples=400, deadline=None)
@given(embedded_lattices_and_vectors())
def test_divisibility_equals_the_fraction_version(case):
    l, w = case
    try:
        want = fraction_divisibility(l, w)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            lat.divisibility(l, w)
    else:
        assert lat.divisibility(l, w) == want


def test_ambient_round_trip():
    e8 = lat.root_lattice("E", 8)
    comp = lat.orthogonal_complement(e8, ke.unit_rows([0, 1, 2, 3, 4, 6], 8))
    e = comp.ambient
    # the vector with coordinates [1, 1] in comp's basis, in E8 coordinates
    v = [Fraction(a + b, e.denominator) for a, b in zip(*e.basis)]
    assert lat.contains_ambient(comp, v)
    assert lat.contains_ambient(comp, [0] * 8)
    assert not lat.contains_ambient(comp, [x / 2 for x in v])
    # outside the rational span of comp
    assert not lat.contains_ambient(comp, ke.unit_rows([0], 8)[0])
    with pytest.raises(ValueError, match="no recorded ambient"):
        lat.contains_ambient(e8, v)
    with pytest.raises(ValueError, match="length"):
        lat.contains_ambient(comp, v[:7])


def solve_contains(l, w):
    """Membership read off the rational coordinates of w in l's basis, by
    the fraction-free elimination ``eager_solve``, which shares no code with
    the Hermite basis that contains_ambient reduces against."""
    e = l.ambient
    coords = eager_solve(exact.transpose(e.basis), w)
    return coords is not None and all(
        (c * e.denominator).denominator == 1 for c in coords
    )


def membership_cases(l, rng, count):
    """Vectors of l, their fractions, and random rational vectors, in l's
    ambient frame."""
    e = l.ambient
    n = e.ambient.rank
    for _ in range(count):
        coeffs = [rng.randint(-2, 2) for _ in e.basis]
        v = [
            Fraction(sum(c * row[j] for c, row in zip(coeffs, e.basis)), e.denominator)
            for j in range(n)
        ]
        yield v
        yield [x / rng.choice([2, 3]) for x in v]
        yield [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 4])) for _ in range(n)]


def test_contains_ambient_matches_solve_on_random_sublattices():
    rng = random.Random(17)
    checked = members = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        if len(exact.hermite_row_basis(rows)) < k:
            continue
        sub = lat.sublattice(lat.Lattice(exact.identity(n)), rows)
        for w in membership_cases(sub, rng, 10):
            got = lat.contains_ambient(sub, w)
            assert got == solve_contains(sub, w), (rows, w)
            checked += 1
            members += got
    assert checked > 1000 and members > 300


@pytest.mark.parametrize("name", ["N1", "N2", "L2", "KummerK", "M16"])
def test_contains_ambient_matches_solve_on_named_overlattices(name):
    l = glue.build_named(name)
    rng = random.Random(name)
    results = [
        (lat.contains_ambient(l, w), solve_contains(l, w))
        for w in membership_cases(l, rng, 40)
    ]
    assert all(got == want for got, want in results)
    assert {got for got, _ in results} == {True, False}


# ---------------------------------------------------------------------------
# det and signature read off the frame


def test_a_gram_of_lists_is_stored_as_tuples():
    # the det and signature caches key on the Gram matrix, which must hash
    l = lat.Lattice([[2, 1], [1, 2]])
    assert l.gram == ((2, 1), (1, 2))
    assert l.det() == 3 and l.signature() == (2, 0, 0)
    assert l == lat.Lattice([[2, 1], [1, 2]]) and hash(l) == hash(lat.Lattice(l.gram))


def _assert_det_and_signature_of_the_gram(l):
    assert l.det() == exact.det(l.gram), l.name
    assert l.signature() == exact.signature(l.gram), l.name


@pytest.mark.parametrize("name", NAMED)
def test_named_det_and_signature_are_those_of_the_gram(name):
    _assert_det_and_signature_of_the_gram(glue.build_named(name))


@pytest.mark.parametrize("parts", [
    (("D", 8), ("A", 5), ("A", 1)),
    (("D", 8), ("E", 6)),
])
def test_overlattice_det_and_signature_are_those_of_the_gram(parts):
    base = lat.direct_sum(lat.hyperbolic(), *(lat.root_lattice(*p) for p in parts))
    members = glue.even_overlattices(base)
    assert sum(m.ambient is not None for m in members) >= 2
    for m in members:
        _assert_det_and_signature_of_the_gram(m)


@settings(max_examples=60, deadline=None)
@given(even_grams(1, 6), st.data())
def test_sublattice_det_and_signature_are_those_of_the_gram(g, data):
    # square rows, singular ones included, and a sublattice of a sublattice
    ambient = lat.Lattice(g)
    n = ambient.rank
    square = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=n, max_size=n)
    sub = lat.sublattice(ambient, data.draw(square))
    _assert_det_and_signature_of_the_gram(sub)
    _assert_det_and_signature_of_the_gram(lat.sublattice(sub, data.draw(square)))


def test_a_square_singular_basis_takes_the_gram_path():
    uu = lat.direct_sum(lat.hyperbolic(), lat.hyperbolic())
    l = lat.sublattice(uu, [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert l.det() == 0 and l.signature() == (1, 2, 1)


def test_a_framed_lattice_file_reads_det_and_signature_off_its_frame():
    lam3 = glue.build_named("Lambda(3)")
    rows = [[1 if j == i else 0 for j in range(lam3.rank)] for i in range(lam3.rank)]
    rows[0][1] = 2
    rows[2][2] = 3
    loaded = lattice_io.loads(lattice_io.dumps(lat.sublattice(lam3, rows, "sub")))
    assert loaded.ambient is not None and loaded.ambient.ambient.name == "Lambda(3)"
    assert loaded.det() == 9 * lam3.det()
    _assert_det_and_signature_of_the_gram(loaded)


def test_a_frame_det_that_does_not_divide_raises():
    # B = (1) over 2 of <2> induces 1/2, which no honest builder records
    frame = lat.Embedding(lat.rank_one(2), ((1,),), 2)
    with pytest.raises(ArithmeticError):
        lat.Lattice._formed([[2]], None, frame).det()
