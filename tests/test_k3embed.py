"""Tests for embeddings, genus comparison, definite isometry and quadric
certificates."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import k3lattice.lattice as lat
from k3lattice import claims, exact, glue, k3embed as ke, quadform as qf


def complete_box_bound(g, max_norm):
    """|x_i| <= sqrt(max_norm * (g^-1)_ii) for vectors of norm <= max_norm in
    a positive definite lattice, so this box bound makes the naive search
    exhaustive."""
    from fractions import Fraction
    from math import isqrt

    n = len(g)
    det = exact.det(g)
    bound = 1
    for i in range(n):
        minor = [[g[r][c] for c in range(n) if c != i] for r in range(n) if r != i]
        val = Fraction(max_norm * exact.det(minor), det)
        bound = max(bound, isqrt(int(val)) + 1)
    return bound


def naive_match_gram(target, cands, gram):
    """Unrefined backtracking: each level scans its whole candidate list and
    recomputes every pairing with the earlier choices; oracle for
    ``k3embed._match_gram``."""
    n = len(target)

    def pairing(v, w):
        return sum(v[i] * gram[i][j] * w[j] for i in range(n) for j in range(n))

    chosen = []

    def extend(i):
        if i == n:
            return abs(exact.det([list(v) for v in chosen])) == 1
        for v in cands.get(target[i][i], ()):
            if all(pairing(v, chosen[j]) == target[i][j] for j in range(i)):
                chosen.append(v)
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    return [list(v) for v in chosen] if extend(0) else None


def naive_isomorphic(g1, g2):
    """Exhaustive isometry search over a provably sufficient coordinate box;
    oracle for small definite lattices."""
    n = len(g1)
    bound = complete_box_bound(g2, max(g1[i][i] for i in range(n)))
    by_norm = {}
    for v in itertools.product(range(-bound, bound + 1), repeat=n):
        norm = sum(v[i] * g2[i][j] * v[j] for i in range(n) for j in range(n))
        by_norm.setdefault(norm, []).append(v)
    return naive_match_gram(g1, by_norm, g2) is not None


def random_posdef_rank3(rng):
    while True:
        b = [[rng.randrange(-2, 3) for _ in range(3)] for _ in range(3)]
        if exact.det(b) == 0:
            continue
        g = exact.matmul(b, exact.transpose(b))
        if all(abs(g[i][j]) <= 6 for i in range(3) for j in range(3)):
            return g


# ---------------------------------------------------------------------------
# the ambient lattice and standard embeddings


def test_build_v():
    v = ke.build_V()
    assert v.rank == 22
    assert v.det() == -1
    assert v.is_even()
    assert v.signature() == (3, 0, 19)


def test_embed_a5a1_primitive():
    e = ke.embed_standard("A5+A1 in E8")
    sub = e.lattice()
    assert abs(sub.det()) == 12
    assert e.is_primitive()


def test_complement_a5a1_is_diag_2_6():
    comp = ke.transcendental_of(ke.embed_standard("A5+A1 in E8"))
    assert comp.rank == 2
    assert comp.det() == 12
    assert ke.definite_isomorphic(comp, lat.lattice([[-2, 0], [0, -6]]))


def test_complement_a2a1c_is_a1_plus_a2_scaled():
    comp = ke.transcendental_of(ke.embed_standard("A2+A1^3 in E8"))
    target = lat.direct_sum(
        lat.root_lattice("A", 1), lat.rescale(lat.root_lattice("A", 2), 2)
    )
    assert ke.definite_isomorphic(comp, target)


def test_big_embedding_complement_is_lambda3():
    comp = ke.embed_standard("L2-isogeny-complement")
    tr = comp.lattice()
    assert tr.rank == 6
    assert tr.det() == 12
    assert qf.rationally_equivalent(tr.gram, glue.build_named("Lambda(3)").gram)


def test_transcendental_of_full_lattice_is_zero():
    v = ke.build_V()
    full = ke.EmbeddedLattice(v, tuple(tuple(r) for r in exact.identity(22)))
    assert ke.transcendental_of(full).rank == 0


def test_vector_of_norm():
    e = ke.embed_standard("vector_of_norm(k) in U", k=4 * 17)
    assert e.lattice().gram == ((68,),)
    assert e.is_primitive()
    with pytest.raises(ValueError):
        ke.embed_standard("vector_of_norm(k) in U", k=3)


def test_rank_additivity_for_primitive_embeddings():
    e = ke.embed_standard("U+E8+A5+A1 in V")
    tr = ke.transcendental_of(e)
    assert len(e.basis) + tr.rank == 22
    # exact orthogonality
    amb = e.ambient
    for r in e.basis:
        for c in tr.ambient.basis:
            assert amb.pairing(r, c) == 0


# ---------------------------------------------------------------------------
# genus comparison


def test_genus_equal_reflexive_symmetric():
    n1 = glue.build_named("N1")
    u = glue.build_named("U_E8_E6")
    assert ke.genus_equal(n1, n1)
    assert ke.genus_equal(u, u)
    assert ke.genus_equal(n1, u) == ke.genus_equal(u, n1) == False  # noqa: E712


def test_genus_u_d8_e6_overlattice():
    base = lat.direct_sum(
        lat.hyperbolic(), lat.root_lattice("D", 8), lat.root_lattice("E", 6)
    )
    target = glue.build_named("U_E8_E6")
    proper = [m for m in glue.even_overlattices(base) if m.det() == -3]
    assert proper and all(ke.genus_equal(m, target) for m in proper)


def test_genus_distinguishes_n1_n2():
    assert not ke.genus_equal(glue.build_named("N1"), glue.build_named("N2"))


def test_disc_form_isomorphism_verified_map():
    a3 = lat.root_lattice("A", 3)
    images = ke.find_disc_form_isomorphism(
        lat.discriminant_group(a3), lat.discriminant_group(a3)
    )
    assert images is not None


def test_genus_requires_even():
    odd = lat.rank_one(1, allow_odd=True)
    with pytest.raises(ValueError):
        ke.genus_equal(odd, odd)


def test_uniqueness_conditions():
    assert ke.genus_uniqueness_applicable(glue.build_named("U_E8_E6"))
    u23 = lat.direct_sum(*[lat.rescale(lat.hyperbolic(), 2)] * 3)
    assert ke.genus_uniqueness_applicable(u23)  # 2-elementary
    assert not ke.genus_uniqueness_applicable(lat.root_lattice("E", 8))  # definite


def test_kummer_complement_data():
    k = glue.build_named("KummerK")
    sig, negform = ke.complement_genus_in_unimodular(k)
    assert sig == (3, 3)
    u23 = lat.direct_sum(*[lat.rescale(lat.hyperbolic(), 2)] * 3)
    assert ke.disc_forms_isomorphic(negform, lat.discriminant_group(u23))


# ---------------------------------------------------------------------------
# definite isometry


def test_definite_isomorphic_rejects_indefinite():
    u = lat.hyperbolic()
    with pytest.raises(ValueError):
        ke.definite_isomorphic(u, u)


def test_definite_isomorphic_easy_cases():
    a1a1 = lat.direct_sum(lat.root_lattice("A", 1), lat.root_lattice("A", 1))
    a2 = lat.root_lattice("A", 2)
    assert not ke.definite_isomorphic(a1a1, a2)  # determinants 4 vs 3
    d4 = lat.root_lattice("D", 4)
    reordered = lat.lattice(
        [[d4.gram[p][q] for q in (3, 1, 0, 2)] for p in (3, 1, 0, 2)]
    )
    assert ke.definite_isomorphic(d4, reordered)


def test_definite_isomorphic_vs_naive_oracle():
    rng = random.Random(13)
    pairs = 0
    while pairs < 12:
        g1 = random_posdef_rank3(rng)
        if rng.random() < 0.5:
            # build an actually isometric pair by a unimodular change of basis
            while True:
                t = [[rng.randrange(-2, 3) for _ in range(3)] for _ in range(3)]
                if abs(exact.det(t)) == 1:
                    break
            g2 = exact.matmul(exact.matmul(t, g1), exact.transpose(t))
            if any(abs(x) > 30 for row in g2 for x in row):
                continue
        else:
            g2 = random_posdef_rank3(rng)
        l1, l2 = lat.lattice(g1), lat.lattice(g2)
        if (l1.det(), l1.signature()) != (l2.det(), l2.signature()):
            continue
        assert ke.definite_isomorphic(l1, l2) == naive_isomorphic(g1, g2)
        pairs += 1


def theta_counts(l, max_norm):
    """Number of vectors (both signs) of each norm up to max_norm in a
    negative-definite lattice."""
    neg = [[-x for x in row] for row in l.gram]
    return {k: 2 * len(v) for k, v in ke.short_vectors(neg, max_norm).items()}


def test_definite_isomorphic_implies_equal_theta():
    comp = ke.transcendental_of(ke.embed_standard("A5+A1 in E8"))
    target = lat.lattice([[-2, 0], [0, -6]])
    assert ke.definite_isomorphic(comp, target)
    assert theta_counts(comp, 8) == theta_counts(target, 8)


def test_theta_counts_values():
    a1 = lat.root_lattice("A", 1)
    assert theta_counts(a1, 8) == {2: 2, 8: 2}
    a2 = lat.root_lattice("A", 2)
    assert theta_counts(a2, 2)[2] == 6  # six roots


def test_short_vectors_e8_roots():
    e8 = lat.root_lattice("E", 8)
    neg = [[-x for x in row] for row in e8.gram]
    assert 2 * len(ke.short_vectors(neg, 2)[2]) == 240


def _square(n, lo=-2, hi=2):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=n, max_size=n), min_size=n, max_size=n
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(_square), st.integers(1, 6))
def test_short_vectors_match_box_enumeration(b, max_norm):
    assume(exact.det(b) != 0)
    g = exact.matmul(b, exact.transpose(b))
    n = len(g)
    bound = complete_box_bound(g, max_norm)
    assume(bound <= 5)
    expected = {}
    for v in itertools.product(range(-bound, bound + 1), repeat=n):
        norm = sum(v[i] * g[i][j] * v[j] for i in range(n) for j in range(n))
        if 0 < norm <= max_norm:
            expected.setdefault(norm, set()).add(max(v, tuple(-c for c in v)))
    got = ke.short_vectors(g, max_norm)
    assert {k: {max(v, tuple(-c for c in v)) for v in vs} for k, vs in got.items()} == expected
    assert all(len(vs) == len(expected[k]) for k, vs in got.items())


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: _square(n, -3, 3)))
def test_short_vectors_reject_indefinite_and_semidefinite(m):
    n = len(m)
    sym = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    # b^T b for b of shape (n-1) x n is positive semidefinite and singular
    semi = exact.matmul(exact.transpose(m[:-1]), m[:-1]) if n > 1 else [[0]]
    for g in (sym, semi):
        p, z, q = exact.signature(g)
        if p == n:
            continue
        with pytest.raises(ValueError):
            ke.short_vectors(g, 4)


# ---------------------------------------------------------------------------
# bounded isometry certificates (indefinite allowed)


def test_isometry_search_returns_verified_map():
    t_gram = [[-2, -1, 0, -1], [-1, 2, 1, -1], [0, 1, -2, 1], [-1, -1, 1, 2]]
    t = lat.lattice(t_gram)
    perm = [2, 0, 3, 1]
    shuffled = lat.lattice([[t_gram[p][q] for q in perm] for p in perm])
    rows = ke.isometry_search(t, shuffled, bound=2)
    assert rows is not None
    got = exact.matmul(
        exact.matmul(rows, [list(r) for r in shuffled.gram]), exact.transpose(rows)
    )
    assert got == t_gram


def test_match_gram_agrees_with_unrefined_search():
    rng = random.Random(5)
    found = 0
    for _ in range(150):
        n = rng.randrange(2, 5)
        b = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
        if exact.det(b) == 0:
            continue
        gram = exact.matmul(b, exact.transpose(b))
        # shuffled, thinned pools: the refined search must keep pool order
        cands = {}
        for v in itertools.product(range(-2, 3), repeat=n):
            if any(v) and rng.random() < 0.8:
                norm = sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))
                cands.setdefault(norm, []).append(v)
        for pool in cands.values():
            rng.shuffle(pool)
        # the Gram of n pool vectors: of index 1 when they happen to form a basis
        norms = sorted(cands)
        rows = [rng.choice(cands[rng.choice(norms[:4])]) for _ in range(n)]
        target = exact.matmul(exact.matmul(rows, gram), exact.transpose(rows))
        got = ke._match_gram(target, cands, gram)
        assert got == naive_match_gram(target, cands, gram)
        found += got is not None
    assert found >= 10


def _t_glue_inputs():
    m = lat.direct_sum(
        lat.rank_one(-2), lat.rank_one(-2), lat.hyperbolic(), lat.hyperbolic()
    )
    tp = lat.orthogonal_complement(m, [[0, 0, 1, -2, -1, 1], [0, 0, 1, -1, 1, -2]])
    dmodel = lat.lattice(claims._diag([-2, -2, 6, 6]))
    glued = glue.adjoin(dmodel, [glue.GlueSpec((1, 1, 1, 1), 2)])
    return (dmodel, tp), (glued, lat.lattice(claims.T_GRAM))


def _rank17_inputs():
    tr = ke.transcendental_of(claims._rank17_embedding())
    target = lat.direct_sum(
        lat.root_lattice("A", 1),
        lat.rescale(lat.root_lattice("A", 2), 2),
        lat.rank_one(2),
        lat.rank_one(2),
    )
    return target, tr


@pytest.mark.parametrize(
    "inputs, rows",
    [
        (
            lambda: _t_glue_inputs()[0],
            [[-2, 0, -1, -2], [0, -2, -1, -1], [-3, 0, -2, -4], [0, -3, -2, -2]],
        ),
        (
            lambda: _t_glue_inputs()[1],
            [[-4, -4, -3, 2], [-2, -2, -2, 1], [-3, -4, -3, 1], [-2, -1, -1, 2]],
        ),
        (
            _rank17_inputs,
            [
                [0, -2, 0, -1, -1],
                [-1, 0, 4, -1, 3],
                [0, 0, 4, 2, 3],
                [0, -2, 1, 0, 0],
                [0, -1, -2, -2, -2],
            ],
        ),
    ],
    ids=["T.glue-isom.step1", "T.glue-isom.step2", "rank17.trans"],
)
def test_isometry_search_rows_of_the_claims(inputs, rows):
    # the first isometry in search order, as the unrefined box search found it
    l1, l2 = inputs()
    assert ke.isometry_search(l1, l2, bound=4) == rows


def test_isometry_search_distinguishes():
    u = lat.hyperbolic()
    u2 = lat.rescale(u, 2)
    assert ke.isometry_search(u, u2, bound=3) is None  # determinants differ


# ---------------------------------------------------------------------------
# quadric certificates


def test_certificate_rescaling_invariance():
    rng = random.Random(17)
    base_lattices = [
        glue.build_named("Lambda(3)"),
        lat.direct_sum(lat.root_lattice("A", 2), lat.hyperbolic()),
        lat.direct_sum(lat.rank_one(-2), lat.rank_one(4), lat.hyperbolic()),
        lat.root_lattice("D", 4),
        lat.direct_sum(lat.rank_one(-6), lat.hyperbolic()),
    ]
    while len(base_lattices) < 20:
        pieces = [lat.rank_one(2 * rng.choice([-5, -3, -2, -1, 1, 2, 3, 7]))
                  for _ in range(rng.randrange(1, 4))]
        if rng.random() < 0.5:
            pieces.append(lat.hyperbolic())
        base_lattices.append(lat.direct_sum(*pieces))
    for l in base_lattices:
        cert = ke.quadric_certificate(l)
        for n in (2, 3, 5):
            assert ke.quadric_certificate(lat.rescale(l, n)) == cert, (l.name, n)


def test_certificate_sublattice_invariance():
    lam3 = glue.build_named("Lambda(3)")
    cert = ke.quadric_certificate(lam3)
    # a finite-index sublattice has the same rational form class
    rows = exact.identity(6)
    rows[0][0] = 2
    gram = exact.matmul(
        exact.matmul(rows, [list(r) for r in lam3.gram]), exact.transpose(rows)
    )
    # index-2 sublattice: congruent over Q only if the change of basis is
    # rational, which it is
    assert ke.quadric_certificate(lat.lattice(gram)) == cert


def test_certificate_distinguishes_counterexample():
    lam3 = glue.build_named("Lambda(3)")
    ce = lat.lattice(
        [
            [-1, 0, 0, 0, 0, 0],
            [0, -1, 0, 0, 0, 0],
            [0, 0, -2, 0, 0, 0],
            [0, 0, 0, -6, 0, 0],
            [0, 0, 0, 0, 7, 0],
            [0, 0, 0, 0, 0, 7],
        ]
    )
    assert ke.quadric_certificate(lam3) != ke.quadric_certificate(ce)


def test_certificate_t_vs_kummer_complement():
    t = lat.lattice([[-2, -1, 0, -1], [-1, 2, 1, -1], [0, 1, -2, 1], [-1, -1, 1, 2]])
    u23 = lat.direct_sum(*[lat.rescale(lat.hyperbolic(), 2)] * 3)
    assert ke.quadric_certificate(t) != ke.quadric_certificate(u23)


def test_certificate_same_for_similar_forms():
    # q and 3q define the same quadric
    a = lat.direct_sum(lat.rank_one(-2), lat.rank_one(-6), lat.hyperbolic())
    assert ke.quadric_certificate(a) == ke.quadric_certificate(lat.rescale(a, 3))


def test_certificate_invariant_under_external_prime_scalings():
    # similarity classes include scalings by primes outside 2*det and by
    # negative constants; the certificate must not move
    mats = [
        glue.build_named("Lambda(3)"),
        lat.direct_sum(
            lat.rank_one(2), lat.rank_one(-10), lat.rank_one(14), lat.rank_one(6)
        ),
        lat.direct_sum(lat.rank_one(-2), lat.rank_one(4), lat.rank_one(-22)),
        lat.root_lattice("A", 3),
        lat.direct_sum(lat.hyperbolic(), lat.rank_one(2), lat.rank_one(-30)),
    ]
    for l in mats:
        c0 = ke.quadric_certificate(l)
        for s in (7, 11, 13, -1, -7, 77, 105, -143):
            scaled = lat.lattice([[s * x for x in row] for row in l.gram])
            assert ke.quadric_certificate(scaled) == c0, (l.name, s)
