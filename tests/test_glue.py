"""Tests for overlattice constructions and the named-lattice registry."""

import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

import k3lattice.lattice as lat
from k3lattice import claims, exact, glue, k3embed as ke
from k3lattice.k3embed import build_V
from test_exact import stacked_hermite_basis
from test_k3embed import even_test_forms, span
from test_lattice import check_quadratic_refinement


# ---------------------------------------------------------------------------
# adjoin


def test_adjoin_rejects_odd_norm():
    a1a1 = lat.direct_sum(lat.root_lattice("A", 1), lat.root_lattice("A", 1))
    with pytest.raises(glue.GlueError):
        glue.adjoin(a1a1, [glue.GlueSpec((1, 1), 2)])  # norm -1


def test_adjoin_rejects_nonintegral_pairing():
    u = lat.hyperbolic()
    with pytest.raises(glue.GlueError):
        glue.adjoin(u, [glue.GlueSpec((1, 0), 2)])  # pairs 1/2 with a generator


def _adjoin_outcome(base, specs, require_even, checks_first):
    try:
        if checks_first:
            glue._glue_fault(base, specs, require_even)
        return glue.adjoin(base, specs, require_even).gram
    except glue.GlueError as e:
        return str(e)


@st.composite
def glue_cases(draw):
    """A1^k, optionally with U and an odd <1>, and up to three glue vectors
    w/2 (or 2w/4), w in {0, 1} on the A1s and mostly 0 elsewhere: every
    fault adjoin names, and overlattices that close up."""
    k = draw(st.integers(1, 6))
    parts = [lat.root_lattice("A", 1)] * k
    if draw(st.booleans()):
        parts.append(lat.hyperbolic())
    if draw(st.booleans()):
        parts.append(lat.rank_one(1, allow_odd=True))
    base = lat.direct_sum(*parts)
    coords = [st.integers(0, 1)] * k + [st.sampled_from([0, 0, 0, 1, 2])] * (base.rank - k)
    spec = st.builds(
        lambda w, two: glue.GlueSpec(tuple(x * two for x in w), 2 * two),
        st.tuples(*coords),
        st.sampled_from([1, 1, 1, 2]),
    )
    count = draw(st.sampled_from([1, 1, 2, 3]))
    return base, draw(st.lists(spec, min_size=count, max_size=count)), draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(glue_cases())
def test_adjoin_names_the_first_fault_of_the_glue_checks(case):
    base, specs, require_even = case
    assert _adjoin_outcome(base, specs, require_even, False) == _adjoin_outcome(
        base, specs, require_even, True
    )


def _clear_builder_caches():
    for module in (claims, glue):
        for f in vars(module).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()


def test_adjoin_bases_equal_the_stacked_hermite_basis(monkeypatch):
    # every adjoin of the named registry and of a cold claims.run_all():
    # the basis found modulo the glue denominator s is the Hermite basis of
    # [s*I_n; s*glue] that the generic elimination gives
    seen = []
    modular = exact.hermite_basis_mod

    def recorder(rows, d, n):
        basis = modular(rows, d, n)
        seen.append((rows, d, n, basis))
        return basis

    monkeypatch.setattr(exact, "hermite_basis_mod", recorder)
    _clear_builder_caches()
    drawn = [f"L_d({d},{v})" for d in (3, 7, 11) for v in ("subgroup", "all")]
    for name in [*glue.NAMED_BUILDERS, *drawn]:
        glue.build_named(name)
    _clear_builder_caches()
    claims.run_all()
    assert len(seen) >= 30
    assert {d for _, d, _, _ in seen} >= {2, 6}
    for rows, d, n, basis in seen:
        assert basis == stacked_hermite_basis(rows, d, n)


def test_adjoin_d8_to_e8():
    d8 = lat.root_lattice("D", 8)
    form = lat.discriminant_group(d8)
    spinor = next(
        el
        for el in form.elements()
        if any(el) and form.q(el) == 0
    )
    vec = [
        sum(
            Fraction(c * form.generators[i][j], form.invariant_factors[i])
            for i, c in enumerate(spinor)
        )
        for j in range(8)
    ]
    bigger = glue.adjoin_ambient_vectors(d8, [vec])
    assert bigger.det() == d8.det() // 4
    assert abs(bigger.det()) == 1
    assert bigger.is_even()


def test_adjoin_determinant_law_random():
    rng = random.Random(11)
    for _ in range(15):
        base = lat.direct_sum(
            lat.root_lattice("A", rng.choice([1, 2, 3])),
            lat.root_lattice("A", rng.choice([1, 2])),
            lat.hyperbolic(),
        )
        form = lat.discriminant_group(base)
        isotropics = [
            el for el in form.elements() if any(el) and form.q(el) == 0
        ]
        if not isotropics:
            continue
        el = rng.choice(isotropics)
        vec = [
            sum(
                Fraction(c * form.generators[i][j], form.invariant_factors[i])
                for i, c in enumerate(el)
            )
            for j in range(base.rank)
        ]
        results = [glue.adjoin_ambient_vectors(base, [vec])]
        results += [m for m in glue.even_overlattices(base) if m.ambient is not None]
        for bigger in results:
            index = glue.glue_index(bigger)
            assert base.det() == index**2 * bigger.det()
            assert bigger.is_even()
            # integer rows over one denominator: B G B^T = den^2 gram
            e = bigger.ambient
            assert all(type(x) is int for row in e.basis for x in row)
            induced = exact.matmul(
                exact.matmul(e.basis, base.gram), exact.transpose(e.basis)
            )
            assert induced == [[e.denominator**2 * x for x in row] for row in bigger.gram]


# ---------------------------------------------------------------------------
# even overlattices


def reference_isotropic_subgroups(
    form: lat.FiniteQuadraticForm, max_order: int
) -> list[tuple[tuple[int, ...], ...]]:
    """All isotropic subgroups of order <= max_order, each as a sorted tuple
    of element coordinate tuples.  Grown one generator at a time."""
    zero = tuple(0 for _ in form.invariant_factors)
    iso_elements = [e for e in form.elements() if e != zero and not form.q_numerator(e)]

    found = {frozenset([zero])}
    frontier = [frozenset([zero])]
    while frontier:
        grp = frontier.pop()
        for e in iso_elements:
            if e in grp:
                continue
            if any(form.b_numerator(e, h) for h in grp):
                continue
            bigger = span(form, [e], start=grp, limit=max_order)
            if bigger is None or bigger in found:
                continue
            if not any(form.q_numerator(x) for x in bigger):
                found.add(bigger)
                frontier.append(bigger)
    return sorted(tuple(sorted(g)) for g in found)


def subgroup_elements(form, bound):
    """The elements of each subgroup ``glue._isotropic_subgroups`` returns,
    after checking that its path generates them."""
    got = glue._isotropic_subgroups(form, bound)
    for els, path in got:
        assert span(form, path) == frozenset(els)
        assert 2 ** len(path) <= len(els)
    return [els for els, _ in got]


def test_isotropic_subgroups_match_reference():
    # an isotropic e orthogonal to an isotropic group keeps it isotropic,
    # so the q scan of each new subgroup the reference made never rejects.
    # An isotropic H has |H|^2 <= |G|, so isqrt(order) never binds: the
    # smaller bounds check that no subgroup above the bound is returned.
    # Subgroups grow through smaller ones, so one top reference serves all
    checked = nontrivial = bound_binds = 0
    for form in even_test_forms():
        if form.order > 512:
            continue
        top = isqrt(form.order)
        bounds = {top} | {2**k for k in range(top.bit_length())}
        unbounded = subgroup_elements(form, top)
        assert unbounded == reference_isotropic_subgroups(form, top)
        for bound in sorted(bounds):
            got = subgroup_elements(form, bound)
            assert all(len(g) <= bound for g in got)
            assert got == [g for g in unbounded if len(g) <= bound]
            bound_binds += got != unbounded
        checked += 1
        nontrivial += len(unbounded) > 1
    assert checked > 100 and nontrivial > 20 and bound_binds > 20


def test_isotropic_subgroups_of_u_a1_8():
    # 902 subgroups of (Z/2)^8 with the A1 form, each built once
    l = lat.direct_sum(lat.hyperbolic(), *[lat.root_lattice("A", 1)] * 8)
    form = lat.discriminant_group(l)
    got = subgroup_elements(form, 16)
    assert len(got) == 902
    assert got == reference_isotropic_subgroups(form, 16)


# pieces whose forms have cyclic factors 2, 3, 4 and 8, so that a multiple
# te of a pool element can be less than e
FORM_PIECES = [
    lat.root_lattice("A", 1),
    lat.root_lattice("A", 2),
    lat.root_lattice("A", 3),
    lat.root_lattice("A", 7),
    lat.root_lattice("D", 4),
    lat.root_lattice("D", 5),
    lat.rank_one(4),
    lat.rank_one(-4),
    lat.rank_one(8),
    lat.rank_one(-8),
    lat.Lattice([[0, 2], [2, 0]]),
    lat.Lattice([[0, 4], [4, 0]]),
]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(FORM_PIECES), min_size=1, max_size=3))
def test_isotropic_subgroups_of_direct_sums_match_reference(pieces):
    form = lat.discriminant_group(lat.direct_sum(*pieces))
    assume(form.order <= 512)
    top = isqrt(form.order)
    reference = reference_isotropic_subgroups(form, top)
    for bound in sorted({top} | {2**k for k in range(top.bit_length())}):
        got = subgroup_elements(form, bound)
        assert len(set(got)) == len(got)
        assert got == [g for g in reference if len(g) <= bound]


def test_even_overlattices_of_unimodular():
    assert len(glue.even_overlattices(lat.root_lattice("E", 8))) == 1


def test_even_overlattices_contain_base():
    base = lat.direct_sum(lat.root_lattice("A", 1), lat.root_lattice("A", 1), lat.hyperbolic())
    members = glue.even_overlattices(base)
    for m in members:
        assert m.is_even()
        if m.ambient is None:
            continue
        index = glue.glue_index(m)
        assert base.det() == index**2 * m.det()
        # the base is inside: every standard basis vector has integral
        # coordinates in m
        for i in range(base.rank):
            e = [1 if j == i else 0 for j in range(base.rank)]
            assert lat.contains_ambient(m, e)


def test_even_overlattices_round_trip():
    base = lat.direct_sum(
        lat.hyperbolic(), lat.root_lattice("D", 8), lat.root_lattice("E", 6)
    )
    members = glue.even_overlattices(base)
    assert sorted(abs(m.det()) for m in members) == [3, 3, 12]
    for m in members:
        if m.ambient is None:
            continue
        again = glue.even_overlattices(m)
        assert all(x.det() == m.det() for x in again)  # -3 members are maximal


def test_even_overlattices_requires_even():
    with pytest.raises(glue.GlueError):
        glue.even_overlattices(lat.rank_one(1, allow_odd=True))


def _u_d8_a5_a1():
    return lat.direct_sum(
        lat.hyperbolic(),
        lat.root_lattice("D", 8),
        lat.root_lattice("A", 5),
        lat.root_lattice("A", 1),
    )


def test_u_d8_a5_a1_overlattice_indices():
    base = _u_d8_a5_a1()
    members = glue.even_overlattices(base)
    by_index = sorted(
        (1 if m.ambient is None else glue.glue_index(m), m.det()) for m in members
    )
    assert (1, -48) in by_index
    assert (2, -12) in by_index
    # index-4 even overlattices of this direct sum do exist (the two copies
    # of D8 -> E8 and A5+A1 -> E6 glue classes combine); see the decisions
    # log for how this interacts with the registry claim
    assert (4, -3) in by_index


def test_l_sat_is_the_first_proper_index_two_overlattice():
    base = _u_d8_a5_a1()
    first = next(m for m in glue.even_overlattices(base, 2) if m.ambient is not None)
    l_sat = glue.build_named("L_sat")
    assert l_sat.gram == first.gram
    assert l_sat.ambient.basis == first.ambient.basis
    assert l_sat.ambient.denominator == first.ambient.denominator == 2
    assert l_sat.ambient.ambient.gram == base.gram


def test_l_sat_adjoins_one_overlattice(monkeypatch):
    # L_sat stops at the first index-2 overlattice, where building the list
    # of all of them adjoins each of the five
    calls = []
    adjoin = glue.adjoin
    monkeypatch.setattr(glue, "adjoin", lambda *args: calls.append(args) or adjoin(*args))
    glue.build_named("L_sat")
    assert len(calls) == 1
    assert len(glue.even_overlattices(_u_d8_a5_a1(), 2)) == 6
    assert len(calls) == 1 + 5


# ---------------------------------------------------------------------------
# named lattices


@pytest.mark.parametrize(
    "name,rank,det,even",
    [
        ("L0", 15, 2048, True),
        ("L2", 16, -192, True),
        ("M16", 15, -128, True),
        ("N1", 16, -192, True),
        ("N2", 16, -192, True),
        ("KummerK", 16, 64, True),
        ("U_E8_E6", 16, -3, True),
        ("L_sat", 16, -12, True),
        ("V", 22, -1, True),
        ("Lambda(3)", 6, 12, True),
        ("Lambda(1)", 6, 4, True),
        ("Lp(17)", 5, -816, True),
        ("Np(5,2)", 4, 100, False),
        ("L_d(7,subgroup)", 16, -448, True),
        ("L_d(7,all)", 16, -448, True),
    ],
)
def test_named_lattices(name, rank, det, even):
    l = glue.build_named(name)
    assert l.rank == rank
    assert l.det() == det
    assert l.is_even() == even


def reference_nonzero_elements():
    els = [
        (a, b, c, d)
        for a in range(2)
        for b in range(2)
        for c in range(2)
        for d in range(2)
    ]
    return [e for e in els if any(e)]


REFERENCE_NONZERO16 = reference_nonzero_elements()


def reference_supports():
    """Per nonzero character phi of (Z/2)^4, in the order of
    REFERENCE_NONZERO16: the indices of the nonzero elements e with
    phi . e odd, found by pairing phi with each of the 15."""
    out = []
    for phi in REFERENCE_NONZERO16:  # nonzero characters
        support = [
            i
            for i, e in enumerate(REFERENCE_NONZERO16)
            if sum(x * y for x, y in zip(phi, e)) % 2 == 1
        ]
        out.append(support)
    return out


def reference_m16():
    base = lat.direct_sum(*[lat.root_lattice("A", 1)] * 15)
    specs = []
    for support in reference_supports():
        vec = [0] * 15
        for i in support:
            vec[i] = 1
        specs.append(glue.GlueSpec(tuple(vec), 2))
    return glue.adjoin(base, specs)


def reference_kummer():
    base = lat.direct_sum(*[lat.root_lattice("A", 1)] * 16)
    elements = [(0, 0, 0, 0), *REFERENCE_NONZERO16]
    specs = []
    for phi in REFERENCE_NONZERO16:
        for value in (0, 1):
            vec = [
                1 if sum(x * y for x, y in zip(phi, e)) % 2 == value else 0
                for e in elements
            ]
            specs.append(glue.GlueSpec(tuple(vec), 2))
    return glue.adjoin(base, specs)


def reference_ld(d, variant):
    base = lat.direct_sum(lat.rank_one(2 * d), *[lat.root_lattice("A", 1)] * 15)
    specs = []
    for support in reference_supports():
        vec = [0] * 16
        for i in support:
            vec[i + 1] = 1
        specs.append(glue.GlueSpec(tuple(vec), 2))
    vec = [1] + [0] * 15
    subgroup = [(0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1)]
    indices = sorted(map(REFERENCE_NONZERO16.index, subgroup)) if variant == "subgroup" else range(15)
    for i in indices:
        vec[i + 1] = 1
    specs.append(glue.GlueSpec(tuple(vec), 2))
    return glue.adjoin(base, specs)


def test_named_v_is_build_v():
    v = glue.build_named("V")
    assert v == build_V()
    assert v.name == "V"
    # the (Z/2)^4 frames built from the support table and frame_vector are
    # those the per-builder loops built, for every d that perfbench draws
    assert glue.NONZERO16 == REFERENCE_NONZERO16
    assert list(map(list, glue.index2_subgroup_complements())) == reference_supports()

    def key(l):
        return l.gram, l.ambient.basis, l.ambient.denominator

    assert key(glue.m16_lattice()) == key(reference_m16())
    assert key(glue.kummer_lattice()) == key(reference_kummer())
    for d in range(3, 200, 4):
        for variant in ("subgroup", "all"):
            assert key(glue.ld_lattice(d, variant)) == key(reference_ld(d, variant)), (d, variant)


def test_named_signatures():
    assert glue.build_named("L2").signature() == (1, 0, 15)
    assert glue.build_named("V").signature() == (3, 0, 19)
    assert glue.build_named("KummerK").signature() == (0, 0, 16)


def test_l2_disc_group_order_matches_snf():
    l2 = glue.build_named("L2")
    d, _, _ = exact.smith_normal_form([list(r) for r in l2.gram])
    prod = 1
    for i in range(16):
        prod *= d[i][i]
    assert prod == 192 == abs(l2.det())


def test_l2_torsion_solutions_verify_constraints():
    frame, t1, t2 = glue.l2_data()
    # back-substitution of the defining incidences
    for t, comp, zero_set in ((t1, 1, {0, 1, 2}), (t2, 2, {3, 4, 5})):
        assert frame.norm(t) == -2
        pair = lambda i: frame.pairing(t, [1 if j == i else 0 for j in range(16)])
        assert pair(0) == 1  # fiber degree
        assert pair(1) == 0  # misses the zero section
        assert pair(15) == 0  # misses the free section
        assert pair(2) == 0  # misses the central component
        for d in (1, 2, 3):
            assert pair(2 + d) == (1 if d == comp else 0)
        for i in range(9):
            assert pair(6 + i) == (0 if i in zero_set else 1)


def test_l2_frame_index_four():
    l2 = glue.build_named("L2")
    assert glue.glue_index(l2) == 4
    assert l2.ambient.ambient.det() == -192 * 16


def test_glue_index_needs_a_recorded_frame():
    with pytest.raises(ValueError, match="no recorded ambient frame"):
        glue.glue_index(lat.hyperbolic())


def test_glue_index_needs_an_overlattice_of_the_frame():
    # a proper sublattice, and a lattice of lower rank than its frame, are
    # not overlattices: the index s^n / |det B| is no integer, or undefined
    half = lat.sublattice(lat.hyperbolic(), [[2, 0], [0, 1]])
    for l in (half, ke.embed_standard("A5+A1 in E8")):
        with pytest.raises(ValueError, match="not an overlattice of its frame"):
            glue.glue_index(l)


def test_degree_frame_sits_in_n1_with_index_two():
    # <6> + M16 has determinant -768; N1 contains it with index 2
    six_m16 = lat.direct_sum(lat.rank_one(6), glue.build_named("M16"))
    assert six_m16.det() == -768
    n1 = glue.build_named("N1")
    assert six_m16.rank == n1.rank and six_m16.det() % n1.det() == 0
    assert six_m16.det() == 2**2 * n1.det()


def test_named_invalid_parameters():
    for name in ("Lp(19)", "Lp(24)", "Np(5,4)", "Np(4,3)", "L_d(4,subgroup)",
                 "L_d(7,weird)", "Lambda(0)", "Nonsense", "L_d(7)"):
        with pytest.raises(glue.GlueError):
            glue.build_named(name)
    # a parameter that is not an integer makes the name unknown
    for name in ("Lambda(x)", "Np(5,x)", "L_d(x,all)"):
        with pytest.raises(glue.GlueError, match="unknown lattice name"):
            glue.build_named(name)


@pytest.mark.parametrize("name", [" L2 ", " M16 ", "\tN1\n", " Lambda(3) "])
def test_named_ignores_surrounding_whitespace(name):
    # plain and parameterized names follow one rule
    assert glue.build_named(name).gram == glue.build_named(name.strip()).gram


def test_named_lambda_n():
    for n in (1, 2, 3, 6):
        l = glue.build_named(f"Lambda({n})")
        assert l.rank == 6
        assert l.det() == 4 * n
        assert l.signature() == (2, 0, 4)


# ---------------------------------------------------------------------------
# isotropic glue search


def test_find_isotropic_glue_trivial():
    u = lat.hyperbolic()
    assert glue.find_isotropic_glue(u, [1, 0], 1) == [1, 0]
    assert glue.find_isotropic_glue(u, [1, 1], 1) is None  # norm 2


def test_find_isotropic_glue_search():
    u = lat.hyperbolic()
    # target (1, 2) has norm 4; subtracting twice the second generator fixes it
    got = glue.find_isotropic_glue(u, [1, 2], 1, [[0, 1]], bound=3)
    assert got == [1, 0]


def brute_isotropic_glue(l, target, divisor, search_basis, bound):
    """Product-order box search with the exact frame norm at every point;
    oracle for ``glue.find_isotropic_glue``."""
    frame = l.ambient.ambient
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(search_basis)):
        v = [
            t + sum(c * s[i] for c, s in zip(coeffs, search_basis))
            for i, t in enumerate(target)
        ]
        if frame.norm(v) == 0 and lat.divisibility(l, v) == divisor:
            return v
    return None


def _sqrel_8dminus5_search(dp):
    outside = [i for i in range(15) if i not in glue.N1_SUBGROUP]
    x = glue.frame_vector(0, outside)
    v0 = [a - b for a, b in zip(glue.frame_vector(2, [outside[0]], -2), x)]
    search = [glue.frame_vector(0, [h], 2) for h in glue.N1_SUBGROUP]
    return glue.ld_lattice(dp, "subgroup"), v0, 2, search, 3


def _sqrel_p2_search():
    search = [glue.frame_vector(0, [i], -3) for i in range(4)]
    return glue.ld_lattice(27, "subgroup"), glue.frame_vector(1, []), 3, search, 7


@pytest.mark.parametrize(
    "inputs, found",
    [
        (lambda: _sqrel_8dminus5_search(7), [2, -2, -2, 0, -3] + [-1] * 11),
        (lambda: _sqrel_8dminus5_search(11), [2, -4, -2, -2, -3] + [-1] * 11),
        (_sqrel_p2_search, [1, 3, 3, 0, 3] + [0] * 11),
    ],
    ids=["sqrel.8dminus5.d7", "sqrel.8dminus5.d11", "sqrel.discform-p2"],
)
def test_find_isotropic_glue_vectors_of_the_claims(inputs, found):
    l, target, divisor, search, bound = inputs()
    got = glue.find_isotropic_glue(l, target, divisor, search, bound)
    assert got == found == brute_isotropic_glue(l, target, divisor, search, bound)


def test_disc_form_axioms_on_named_lattices():
    for name in ("L2", "N1", "N2", "M16", "KummerK", "L_sat", "U_E8_E6",
                 "Lambda(3)", "L0", "Lp(17)"):
        l = glue.build_named(name)
        form = lat.discriminant_group(l)
        els = list(form.elements())
        if len(els) > 200:
            rng = random.Random(1)
            els = [tuple(rng.randrange(d) for d in form.invariant_factors) for _ in range(60)]
        check_quadratic_refinement(form, els[:40])
