"""Tests for overlattice constructions and the named-lattice registry."""

import itertools
import random
from fractions import Fraction

import pytest

import k3lattice.lattice as lat
from k3lattice import claims, exact, glue
from k3lattice.k3embed import build_V


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


def test_u_d8_a5_a1_overlattice_indices():
    base = lat.direct_sum(
        lat.hyperbolic(),
        lat.root_lattice("D", 8),
        lat.root_lattice("A", 5),
        lat.root_lattice("A", 1),
    )
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


def test_named_v_is_build_v():
    v = glue.build_named("V")
    assert v == build_V()
    assert v.name == "V"


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


def test_degree_frame_sits_in_n1_with_index_two():
    # <6> + M16 has determinant -768; N1 contains it with index 2
    six_m16 = lat.direct_sum(lat.rank_one(6), glue.build_named("M16"))
    assert six_m16.det() == -768
    n1 = glue.build_named("N1")
    assert six_m16.rank == n1.rank and six_m16.det() % n1.det() == 0
    assert exact.isqrt_exact(six_m16.det() // n1.det()) == 2


def test_named_invalid_parameters():
    for name in ("Lp(19)", "Lp(24)", "Np(5,4)", "Np(4,3)", "L_d(4,subgroup)",
                 "L_d(7,weird)", "Lambda(0)", "Nonsense", "L_d(7)"):
        with pytest.raises(glue.GlueError):
            glue.build_named(name)


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
        if frame.norm(v) == 0 and lat.divisibility_ambient(l, v) == divisor:
            return v
    return None


def _sqrel_8dminus5_search(dp):
    outside = [i for i in range(15) if i not in glue.N1_SUBGROUP]
    x = claims._frame_vector(0, outside)
    v0 = [a - b for a, b in zip(claims._frame_vector(2, [outside[0]], -2), x)]
    search = [claims._frame_vector(0, [h], 2) for h in glue.N1_SUBGROUP]
    return glue.ld_lattice(dp, "subgroup"), v0, 2, search, 3


def _sqrel_p2_search():
    search = [claims._frame_vector(0, [i], -3) for i in range(4)]
    return glue.ld_lattice(27, "subgroup"), claims._frame_vector(1, []), 3, search, 7


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
        for x in els[:40]:
            for y in els[:40]:
                s = tuple(
                    (a + b) % d for a, b, d in zip(x, y, form.invariant_factors)
                )
                assert (form.q(s) - form.q(x) - form.q(y) - 2 * form.b(x, y)) % 2 == 0
