"""Tests for embeddings, genus comparison and isometry searches."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, prod
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

import k3lattice.lattice as lat
from k3lattice import claims, exact, glue, k3embed as ke, quadform as qf
from test_exact import naive_ldl
from test_lattice import gram_info_inputs, random_even_gram


def complete_box_bound(g, max_norm):
    """|x_i| <= sqrt(max_norm * (g^-1)_ii) for vectors of norm <= max_norm in
    a positive definite lattice, so this box bound makes the naive search
    exhaustive."""
    n = len(g)
    det = exact.det(g)
    bound = 1
    for i in range(n):
        minor = [[g[r][c] for c in range(n) if c != i] for r in range(n) if r != i]
        val = Fraction(max_norm * exact.det(minor), det)
        bound = max(bound, isqrt(int(val)) + 1)
    return bound


def naive_match_gram(target, pools, gram):
    """Unrefined backtracking: each level scans its whole candidate pool and
    recomputes every pairing with the earlier choices; oracle for
    ``k3embed._match_gram``."""
    n = len(target)

    def pairing(v, w):
        return sum(v[i] * gram[i][j] * w[j] for i in range(n) for j in range(n))

    chosen = []

    def extend(i):
        if i == n:
            return True
        for v in pools[i]:
            if all(pairing(v, chosen[j]) == target[i][j] for j in range(i)):
                chosen.append(v)
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    return [list(v) for v in chosen] if extend(0) else None


def naive_isomorphic(g1, g2):
    """Exhaustive isometry search over a provably sufficient coordinate box;
    oracle for small definite lattices.  A match of Gram matrices with equal
    nonzero determinants is unimodular, so the box search decides."""
    if exact.det(g1) != exact.det(g2):
        return False
    n = len(g1)
    bound = complete_box_bound(g2, max(g1[i][i] for i in range(n)))
    by_norm = {}
    for v in itertools.product(range(-bound, bound + 1), repeat=n):
        norm = sum(v[i] * g2[i][j] * v[j] for i in range(n) for j in range(n))
        by_norm.setdefault(norm, []).append(v)
    return naive_match_gram(g1, [by_norm.get(g1[i][i], []) for i in range(n)], g2) is not None


def random_posdef(rng, n):
    while True:
        b = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
        # a row of norm > 6 is a diagonal entry > 6: rejected before the det
        if any(sum(x * x for x in row) > 6 for row in b) or exact.det(b) == 0:
            continue
        g = exact.matmul(b, exact.transpose(b))
        if all(abs(g[i][j]) <= 6 for i in range(n) for j in range(n)):
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
    assert abs(e.det()) == 12
    assert lat.is_primitive(e)
    # a vector of norm 68 in U spans a primitive sublattice
    v = lat.sublattice(lat.hyperbolic(), [[1, 34]])
    assert v.gram == ((68,),)
    assert lat.is_primitive(v)


def test_complement_a5a1_is_diag_2_6():
    comp = ke.transcendental_of(ke.embed_standard("A5+A1 in E8"))
    assert comp.rank == 2
    assert comp.det() == 12
    assert ke.definite_isomorphic(comp, lat.Lattice([[-2, 0], [0, -6]]))


def test_complement_a2a1c_is_a1_plus_a2_scaled():
    comp = ke.transcendental_of(ke.embed_standard("A2+A1^3 in E8"))
    target = lat.direct_sum(
        lat.root_lattice("A", 1), lat.rescale(lat.root_lattice("A", 2), 2)
    )
    assert ke.definite_isomorphic(comp, target)


def test_big_embedding_complement_is_lambda3():
    tr = ke.transcendental_of(ke.embed_standard("U+E8+A5+A1 in V"))
    assert tr.rank == 6
    assert tr.det() == 12
    assert qf.rationally_equivalent(tr.gram, glue.build_named("Lambda(3)").gram)


def test_transcendental_of_full_lattice_is_zero():
    v = ke.build_V()
    full = lat.sublattice(v, exact.identity(22))
    assert ke.transcendental_of(full).rank == 0


def test_transcendental_of_needs_an_ambient():
    with pytest.raises(ValueError, match="no recorded ambient"):
        ke.transcendental_of(lat.root_lattice("E", 8))


def test_rank_additivity_for_primitive_embeddings():
    e = ke.embed_standard("U+E8+A5+A1 in V")
    tr = ke.transcendental_of(e)
    assert e.rank + tr.rank == 22
    # exact orthogonality
    amb = e.ambient.ambient
    for r in e.ambient.basis:
        for c in tr.ambient.basis:
            assert amb.pairing(r, c) == 0


# ---------------------------------------------------------------------------
# reference searches: discriminant-form isomorphisms by backtracking over
# generator images, each subgroup grown element by element, and short
# vectors by a depth-first walk on the Fraction LDL^T


def span(form, gens, start=None, limit=None):
    """Elements reached from ``start`` (default: zero) by adding
    generators: the subgroup generated by ``gens``, or start + <gens>
    when ``start`` is a subgroup.  None once more than ``limit``
    elements are reached."""
    if start is None:
        start = (tuple(0 for _ in form.invariant_factors),)
    seen = set(start)
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % d for a, b, d in zip(x, g, form.invariant_factors))
            if y not in seen:
                seen.add(y)
                if limit is not None and len(seen) > limit:
                    return None
                frontier.append(y)
    return frozenset(seen)


def reference_find_disc_form_isomorphism(
    f1: lat.FiniteQuadraticForm, f2: lat.FiniteQuadraticForm
) -> list[tuple[int, ...]] | None:
    """Images in f2 of f1's generators under some isomorphism preserving q
    and b, or None.  Requires both forms to carry q-values."""
    if f1.invariant_factors != f2.invariant_factors:
        return None
    if f1.q_numerators is None or f2.q_numerators is None:
        raise ValueError("both lattices must be even")
    k = len(f1.invariant_factors)
    if k == 0:
        return []
    # equal invariant factors give both forms the same exponent N, so q and
    # b compare as integer numerators over N.  The multiset of (order, q)
    # over all elements is an isomorphism invariant; it prunes distinct
    # forms without any search
    profile1 = sorted((f1.element_order(e), f1.q_numerator(e)) for e in f1.elements())
    profile2: dict[tuple, list[tuple[int, ...]]] = {}
    for e in f2.elements():
        profile2.setdefault((f2.element_order(e), f2.q_numerator(e)), []).append(e)
    if profile1 != sorted(
        key for key, els in profile2.items() for _ in els
    ):
        return None
    images: list[tuple[int, ...]] = []

    def extend(i: int, grp: frozenset) -> bool:
        # grp = <images> has order d_0 * ... * d_{i-1}; an image that does not
        # grow it by its full order d_i can never complete an isomorphism
        if i == k:
            return True
        for cand in profile2.get((f1.invariant_factors[i], f1.q_numerators[i]), ()):
            if any(
                f2.b_numerator(cand, images[j]) != f1.b_numerators[i][j]
                for j in range(i)
            ):
                continue
            bigger = span(f2, [cand], grp)
            if len(bigger) != len(grp) * f1.invariant_factors[i]:
                continue
            images.append(cand)
            if extend(i + 1, bigger):
                return True
            images.pop()
        return False

    if not extend(0, span(f2, [])):
        return None

    # verify on every element: q determines b by polarization, so checking q
    # of each element under the induced map is a full check
    def push(el: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * k
        for c, img in zip(el, images):
            if c:
                out = [
                    (a + c * b) % d
                    for a, b, d in zip(out, img, f2.invariant_factors)
                ]
        return tuple(out)

    for el in f1.elements():
        if f1.q_numerator(el) != f2.q_numerator(push(el)):
            return None
    return images


def reference_short_vectors(gram, max_norm: int) -> dict[int, list[tuple[int, ...]]]:
    """All vectors of a positive-definite lattice with 0 < q(v) <= max_norm,
    grouped by norm: a depth-first walk of each coordinate's whole interval
    on the ``Fraction`` LDL^T of ``naive_ldl``, the reference for
    ``k3embed.short_vectors``.  The walk reaches both x and -x and keeps, at
    the leaf, the one whose last nonzero coordinate is negative."""
    n = len(gram)
    # q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2
    d, u = naive_ldl(gram)
    if not all(p > 0 for p in d):
        raise ValueError("matrix is not positive definite")
    out: dict[int, list[tuple[int, ...]]] = {}
    # depth first over x_{n-1}, ..., x_0, each coordinate ascending: a stack
    # of the coordinates x_i..x_{n-1} fixed so far and the norm they leave
    stack: list[tuple[tuple[int, ...], Fraction]] = [((), Fraction(max_norm))]
    while stack:
        tail, remaining = stack.pop()
        i = n - 1 - len(tail)
        if i < 0:
            norm = int(max_norm - remaining)
            # of x and -x the walk reaches first the one whose last nonzero
            # coordinate is negative; that one represents the pair
            if norm > 0 and next(c for c in reversed(tail) if c) < 0:
                out.setdefault(norm, []).append(tail)
            continue
        center = -sum(map(mul, u[i][i + 1 :], tail))
        # d_i (x_i - center)^2 <= remaining
        bound = remaining / d[i]
        c0 = center.numerator // center.denominator  # floor
        t = c0
        while (t - center) ** 2 <= bound:
            t -= 1
        low = t + 1
        t = c0 + 1
        while (t - center) ** 2 <= bound:
            t += 1
        stack.extend(
            ((xi,) + tail, remaining - d[i] * (xi - center) ** 2)
            for xi in range(t - 1, low - 1, -1)
        )
    return out


NAMED_FOR_FORMS = sorted(glue.NAMED_BUILDERS) + [
    "Lambda(3)", "Lp(17)", "Np(5,2)", "L_d(3,subgroup)", "L_d(27,subgroup)", "L_d(7,all)",
]


def even_test_forms():
    """Discriminant forms, each with its negation: every even named lattice,
    then random even Gram matrices with |det| <= 400 of rank 1-5, each also
    after a random unimodular change of basis, which moves its generators."""
    grams = []
    for name in NAMED_FOR_FORMS:
        l = glue.build_named(name)
        if l.is_even():
            grams.append([list(r) for r in l.gram])
    rng = random.Random(3)
    while len(grams) < len(NAMED_FOR_FORMS) + 60:
        n = rng.randrange(1, 6)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randrange(-4, 5)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randrange(-3, 4)
        if not 0 < abs(exact.det(g)) <= 400:
            continue
        u = [[rng.randrange(-1, 2) for _ in range(n)] for _ in range(n)]
        grams.append(g)
        if abs(exact.det(u)) == 1:
            grams.append(exact.matmul(exact.matmul(u, g), exact.transpose(u)))
    forms = []
    for g in grams:
        form = lat.discriminant_group(lat.Lattice(g))
        forms += [form, form.negate()]
    return forms


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


def test_genus_equal_builds_one_form_per_lattice(monkeypatch):
    # N1N2.distinct compares three lattices pairwise: one Smith form each,
    # where building both forms on every call took six
    n1, n2, l2 = (glue.build_named(name) for name in ("N1", "N2", "L2"))
    calls = []
    smith = exact.smith_normal_form

    def counted(m):
        calls.append(m)
        return smith(m)

    monkeypatch.setattr(exact, "smith_normal_form", counted)
    assert [ke.genus_equal(a, b) for a, b in ((n1, n2), (n1, l2), (n2, l2))] == [False] * 3
    assert len(calls) == 3


def test_disc_form_isomorphism_verified_map():
    a3 = lat.root_lattice("A", 3)
    images = ke.find_disc_form_isomorphism(
        lat.discriminant_group(a3), lat.discriminant_group(a3)
    )
    assert images is not None


def test_disc_form_isomorphism_matches_reference():
    # the shared matcher tries the same candidates in the same order, so
    # the first full match, and with it every returned image, is the same
    forms = even_test_forms()
    pairs = isomorphic = 0
    for f1 in forms:
        for f2 in forms:
            if f1.invariant_factors != f2.invariant_factors:
                continue
            got = ke.find_disc_form_isomorphism(f1, f2)
            assert got == reference_find_disc_form_isomorphism(f1, f2)
            pairs += 1
            isomorphic += got is not None
    assert pairs > 500 and 0 < isomorphic < pairs


def test_disc_form_isomorphism_rejects_degenerate_form():
    # Z/2 x Z/2 with q = 0 and b = 0: both generators may go to one image,
    # so the radical check rejects the form before any search; the
    # subgroup-growing reference returned a map for it
    flat = lat.FiniteQuadraticForm((2, 2), ((1, 0), (0, 1)), (0, 0), ((0, 0), (0, 0)))
    assert reference_find_disc_form_isomorphism(flat, flat) == [(0, 1), (1, 0)]
    with pytest.raises(ValueError, match="degenerate"):
        ke.find_disc_form_isomorphism(flat, flat)


def test_disc_form_tests_reject_pairings_outside_the_generator_order():
    # g_0 has order 3 but b(g_0, g_0) = 1/9: 3 g_0 pairs to 1/3 with g_0, so
    # this is no discriminant form, and the scale-3 block of the 3-part must
    # raise rather than round 1/9 down to a degenerate 0
    bad = lat.FiniteQuadraticForm((3, 9), ((1, 0), (0, 1)), (2, 0), ((1, 0), (0, 1)))
    for search in (ke.find_disc_form_isomorphism, ke.disc_forms_isomorphic):
        with pytest.raises(ArithmeticError, match=r"not in \(1/N\)Z"):
            search(bad, bad)


@st.composite
def forms_dividing_12(draw):
    """Forms on Z/d_1 x ... x Z/d_k, d_i | d_{i+1} | 12, k <= 3, with random
    admissible b numerators (N b(g_i, g_j) a multiple of N / d_min(i, j)),
    degenerate ones included, and a q numerator on each generator that
    lifts b(g_i, g_i) and has d_i^2 q(g_i) in 2Z."""
    factors = [draw(st.sampled_from([2, 3, 4, 6, 12]))]
    for _ in range(draw(st.integers(0, 2))):
        factors.append(draw(st.sampled_from([d for d in (2, 3, 4, 6, 12) if d % factors[-1] == 0])))
    k, n = len(factors), factors[-1]
    b = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            b[i][j] = b[j][i] = n // factors[i] * draw(st.integers(0, factors[i] - 1))
    q = [
        next(t for t in (b[i][i], b[i][i] + n) if d * d * t % (2 * n) == 0)
        for i, d in enumerate(factors)
    ]
    gens = tuple(map(tuple, exact.identity(k)))
    return lat.FiniteQuadraticForm(tuple(factors), gens, tuple(q), tuple(map(tuple, b)))


@settings(max_examples=60, deadline=None)
@given(forms_dividing_12())
def test_radical_check_matches_a_scan(form):
    # the search raises exactly when some nonzero x has b(x, g_j) = 0 for
    # every generator, and otherwise maps the form onto itself
    units = exact.identity(len(form.invariant_factors))
    degenerate = any(
        any(x) and all(form.b_numerator(x, e) == 0 for e in units) for x in form.elements()
    )
    if degenerate:
        with pytest.raises(ValueError, match="degenerate"):
            ke.find_disc_form_isomorphism(form, form)
    else:
        assert ke.find_disc_form_isomorphism(form, form) is not None


def test_genus_requires_even():
    odd = lat.rank_one(1, allow_odd=True)
    with pytest.raises(ValueError):
        ke.genus_equal(odd, odd)


def _diagonal(*norms):
    return lat.direct_sum(*[lat.rank_one(k, allow_odd=True) for k in norms])


def test_evenness_is_checked_before_the_invariant_factors():
    # <1>+<-1>+<3> and <1>+<5> have different groups, Z/3 and Z/5; so do
    # the odd <1>+<5> and the even A1
    odd3 = lat.discriminant_group(_diagonal(1, -1, 3))
    odd5 = lat.discriminant_group(_diagonal(1, 5))
    even2 = lat.discriminant_group(lat.root_lattice("A", 1))
    for f1, f2 in [(odd3, odd5), (odd5, odd3), (odd5, even2), (even2, odd5)]:
        with pytest.raises(ValueError, match="even"):
            ke.disc_forms_isomorphic(f1, f2)
        with pytest.raises(ValueError, match="even"):
            ke.find_disc_form_isomorphism(f1, f2)


def test_uniqueness_requires_even():
    # Nikulin 1.13.3 is a theorem about even lattices; <1>+<-1>+<3> is odd
    with pytest.raises(ValueError, match="even"):
        ke.genus_uniqueness_applicable(_diagonal(1, -1, 3))


def test_complement_genus_requires_a_lattice_that_fits():
    # U^4 has 4 positive squares, E8^2 + A4 has 20 negative ones, and
    # U + <1> is odd
    u, e8 = lat.hyperbolic(), lat.root_lattice("E", 8)
    too_positive = lat.direct_sum(u, u, u, u)
    too_negative = lat.direct_sum(e8, e8, lat.root_lattice("A", 4))
    for l in [too_positive, too_negative, lat.direct_sum(u, _diagonal(1))]:
        with pytest.raises(ValueError, match=r"does not embed in II_\(3,19\)"):
            ke.complement_genus_in_unimodular(l)
    # signatures (3, 19), (2, 2) and (0, 19) fit
    sig, form = ke.complement_genus_in_unimodular(ke.build_V())
    assert sig == (0, 0) and form.order == 1
    for l, sig in [
        (lat.direct_sum(u, lat.rescale(u, 2)), (1, 17)),
        (lat.direct_sum(e8, e8, lat.root_lattice("A", 3)), (3, 0)),
    ]:
        assert ke.complement_genus_in_unimodular(l)[0] == sig


def unimodular(rng, n):
    """A random unimodular n x n matrix: a lower times an upper unitriangular
    matrix with entries in {-1, 0, 1}, rows shuffled."""
    def entry(i, j, below):
        return 1 if i == j else rng.randrange(-1, 2) if (j < i) == below else 0

    low = [[entry(i, j, True) for j in range(n)] for i in range(n)]
    up = [[entry(i, j, False) for j in range(n)] for i in range(n)]
    u = exact.matmul(low, up)
    rng.shuffle(u)
    return u


def moved(g, rng):
    u = unimodular(rng, len(g))
    return exact.matmul(exact.matmul(u, g), exact.transpose(u))


def test_genus_walks_only_the_two_part(monkeypatch):
    # the three large matrices of the gram-info workload (orders 526,992,
    # 1,386,120 and 488,086,624) and a rank-22 Gram with entries in
    # [-30, 30], each against a unimodular change of basis of itself: the
    # odd parts are decided by their Jordan symbols, so at most the 2-part
    # is walked, once in each form
    grams = gram_info_inputs()
    rank22 = random_even_gram(random.Random(99), 22, (-15, 15), (-30, 30))
    cases = [grams[-1], grams[6], grams[12], rank22]
    rng = random.Random(28)
    walked = [0]
    elements = lat.FiniteQuadraticForm.elements

    def counted(self):
        for e in elements(self):
            walked[0] += 1
            yield e

    monkeypatch.setattr(lat.FiniteQuadraticForm, "elements", counted)
    counts = []
    for g in cases:
        two_part = lat.discriminant_group(lat.Lattice(g)).primary_part(2).order
        walked[0] = 0
        assert ke.genus_equal(lat.Lattice(g), lat.Lattice(moved(g, rng)))
        assert walked[0] <= 2 * two_part
        counts.append(walked[0])
    assert counts[:3] == [32, 16, 64]


def _odd_part(n):
    return n // (n & -n)


# multisets of m with prod 2|m| <= 500 and some odd prime dividing two of
# them, so the odd part of the sum of <+-2m> is not cyclic
DIAGONALS = [
    ms
    for size in (2, 3)
    for ms in itertools.combinations_with_replacement(
        [3, 5, 6, 9, 10, 12, 15, 18, 25, 27, 45], size
    )
    if prod(2 * m for m in ms) <= 500
    and any(_odd_part(gcd(a, b)) > 1 for a, b in itertools.combinations(ms, 2))
]


@st.composite
def diagonal_form_pairs(draw):
    """Two forms of sums of <+-2m> over the same m from ``DIAGONALS``; the
    second lattice has its own signs, and each a random unimodular change
    of basis, so the invariant factors agree and the generators move."""
    ms = draw(st.sampled_from(DIAGONALS))
    forms = []
    for _ in range(2):
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(ms), max_size=len(ms)))
        g = exact.zeros(len(ms), len(ms))
        for i, (m, s) in enumerate(zip(ms, signs)):
            g[i][i] = 2 * s * m
        g = moved(g, random.Random(draw(st.integers(0, 10**6))))
        forms.append(lat.discriminant_group(lat.Lattice(g)))
    return forms


@settings(max_examples=150, deadline=None)
@given(diagonal_form_pairs())
def test_jordan_symbols_agree_with_the_search(forms):
    f1, f2 = forms
    assert f1.invariant_factors == f2.invariant_factors
    want = ke.find_disc_form_isomorphism(f1, f2) is not None
    assert ke.disc_forms_isomorphic(f1, f2) == want
    assert ke.disc_forms_isomorphic(f2, f1) == want


# the four blocks of a form on (Z/2)^a: <1/2>, <-1/2>, u(2) and v(2)
NIKULIN_BLOCKS = {
    "A1(-1)": lat.rank_one(2),
    "A1": lat.root_lattice("A", 1),
    "U(2)": lat.rescale(lat.hyperbolic(), 2),
    "D4": lat.root_lattice("D", 4),
}
# swapping one block for its partner moves sigma by 2 or 4 mod 8
NIKULIN_PARTNER = {"A1(-1)": "A1", "A1": "A1(-1)", "U(2)": "D4", "D4": "U(2)"}


def _block_form(names, seed):
    """The discriminant form of the sum of the named blocks, after a
    seeded unimodular change of basis, which moves its generators."""
    g = [list(r) for r in lat.direct_sum(*[NIKULIN_BLOCKS[name] for name in names]).gram]
    return lat.discriminant_group(lat.Lattice(moved(g, random.Random(seed))))


def q_counts(form):
    """How many elements take each q value.  On a nondegenerate
    2-elementary form the counts fix the order, the parity (some q not an
    integer) and the Gauss sum sqrt|A| exp(2 pi i sigma / 8), which classify
    it (Nikulin 1979, 3.6): an oracle that costs one pass over the
    elements, with no code shared with ``_nikulin_invariants``."""
    return Counter(Fraction(form.q_numerator(e), form.exponent) for e in form.elements())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(sorted(NIKULIN_BLOCKS)), min_size=1, max_size=5),
    st.randoms(use_true_random=False),
)
def test_nikulin_invariants_agree_with_the_search(names, rng):
    # at most 8 generators, so the counts walk at most 256 elements
    assume(sum(2 if name in ("U(2)", "D4") else 1 for name in names) <= 8)
    f = _block_form(names, rng.randrange(10**6))
    copy = _block_form(rng.sample(names, len(names)), rng.randrange(10**6))
    i = rng.randrange(len(names))
    swapped = names[:i] + [NIKULIN_PARTNER[names[i]]] + names[i + 1 :]
    other = _block_form(swapped, rng.randrange(10**6))
    assert f.exponent == copy.exponent == other.exponent == 2
    for g, want in ((copy, True), (other, False)):
        assert g.order == f.order
        assert (q_counts(f) == q_counts(g)) == want
        assert ke.disc_forms_isomorphic(f, g) == want
        assert ke.disc_forms_isomorphic(g, f) == want


def _two_elementary_inputs():
    """Every even named lattice and claim input whose discriminant group is
    2-elementary, each with the signature pair it has or that its form
    belongs to."""
    lats = [glue.build_named(name) for name in NAMED_FOR_FORMS]
    lats += [glue.build_named(f"Lambda({n})") for n in (1, 2)]
    lats += [claims._u23(), lat.direct_sum(lat.hyperbolic(), *[lat.root_lattice("A", 1)] * 8)]
    cases = [(lat.discriminant_group(l), l.signature_pair()) for l in lats if l.is_even()]
    sig, negform = ke.complement_genus_in_unimodular(glue.build_named("KummerK"))
    cases.append((negform, sig))
    return [(f, sig) for f, sig in cases if set(f.invariant_factors) <= {2}]


def test_milgram_signature_on_two_elementary_forms():
    # Milgram's formula: the Gauss-sum signature of the discriminant form
    # of an even lattice of signature (p, n) is p - n mod 8
    cases = _two_elementary_inputs()
    assert len(cases) >= 8 and {1, 4, 64, 128, 256} <= {f.order for f, _ in cases}
    for form, (p, n) in cases:
        assert ke._nikulin_invariants(form)[2] == (p - n) % 8


def test_nikulin_invariants_reject_a_degenerate_form():
    # b = 0 on (Z/2)^2, and b = diag(1/2, 0) on (Z/2)^2 with its radical
    # on the second generator: the same error as the Jordan symbols raise
    flat = lat.FiniteQuadraticForm((2, 2), ((1, 0), (0, 1)), (0, 0), ((0, 0), (0, 0)))
    half = lat.FiniteQuadraticForm((2, 2), ((1, 0), (0, 1)), (1, 0), ((1, 0), (0, 0)))
    for form in (flat, half):
        for call in (ke._nikulin_invariants, lambda f: ke.disc_forms_isomorphic(f, f),
                     lambda f: ke._jordan_symbols(f, 2)):
            with pytest.raises(ValueError, match="^degenerate discriminant form: b has"):
                call(form)


def _item5_pairs():
    """U + A1^m, U(2)^k and U(2) + E8(2) + A1^k, each with a non-isomorphic
    form of the same order: one A1 made A1(-1), one U(2) made D4."""
    u, a1, a1m = lat.hyperbolic(), lat.root_lattice("A", 1), lat.rank_one(2)
    u2, d4 = lat.rescale(u, 2), lat.root_lattice("D", 4)
    e82 = lat.rescale(lat.root_lattice("E", 8), 2)
    for m in (1, 12, 16, 20):
        yield lat.direct_sum(u, *[a1] * m), lat.direct_sum(u, *[a1] * (m - 1), a1m)
    for k in (1, 6, 11):
        yield lat.direct_sum(*[u2] * k), lat.direct_sum(*[u2] * (k - 1), d4)
    for k in (0, 4, 10):
        other = lat.direct_sum(u2, e82, *[a1] * (k - 1), a1m) if k else lat.direct_sum(d4, e82)
        yield lat.direct_sum(u2, e82, *[a1] * k), other


def test_two_elementary_families_decided_by_the_invariants(monkeypatch):
    # ROADMAP item 5's families, against a unimodular change of basis of
    # themselves and against a form of the same order that is not
    # isomorphic; the search would walk up to 2^20 elements
    monkeypatch.setattr(ke, "find_disc_form_isomorphism", None)
    rng = random.Random(5)
    for l, other in _item5_pairs():
        f = lat.discriminant_group(l)
        again = lat.discriminant_group(lat.Lattice(moved([list(r) for r in l.gram], rng)))
        no = lat.discriminant_group(other)
        assert f.invariant_factors == again.invariant_factors == no.invariant_factors
        assert ke.disc_forms_isomorphic(f, again) and ke.disc_forms_isomorphic(again, f)
        assert not ke.disc_forms_isomorphic(f, no) and not ke.disc_forms_isomorphic(no, f)


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
    reordered = lat.Lattice(
        [[d4.gram[p][q] for q in (3, 1, 0, 2)] for p in (3, 1, 0, 2)]
    )
    assert ke.definite_isomorphic(d4, reordered)


def test_definite_isomorphic_rank_zero():
    # the empty lattice is definite with det 1: isometric to itself
    zero = lat.Lattice([])
    assert ke.definite_isomorphic(zero, zero)
    assert ke.definite_isomorphic(zero, lat.direct_sum())


def test_definite_isomorphic_vs_naive_oracle():
    # ranks 2-4; a reduced basis with a repeated norm gives two levels one
    # shared pool, which the search filters once per choice
    rng = random.Random(13)
    repeated = 0
    for n in (2, 3, 4):
        pairs = 0
        while pairs < 12:
            g1 = random_posdef(rng, n)
            if rng.random() < 0.5:
                # build an actually isometric pair by a unimodular change of basis
                while True:
                    t = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
                    if abs(exact.det(t)) == 1:
                        break
                g2 = exact.matmul(exact.matmul(t, g1), exact.transpose(t))
                if any(abs(x) > 30 for row in g2 for x in row):
                    continue
            else:
                g2 = random_posdef(rng, n)
            l1, l2 = lat.Lattice(g1), lat.Lattice(g2)
            if (l1.det(), l1.signature()) != (l2.det(), l2.signature()):
                continue
            # the oracle walks a box of side 2 * bound + 1: cap it at rank 4
            if n == 4 and complete_box_bound(g2, max(g1[i][i] for i in range(n))) > 5:
                continue
            assert ke.definite_isomorphic(l1, l2) == naive_isomorphic(g1, g2)
            red = exact.lll(g1)[0]
            norms = [exact.dot(r, exact.mat_vec(g1, r)) for r in red]
            repeated += len(set(norms)) < n
            pairs += 1
    assert repeated >= 12


def theta_counts(l, max_norm):
    """Number of vectors (both signs) of each norm up to max_norm in a
    negative-definite lattice."""
    neg = [[-x for x in row] for row in l.gram]
    return {k: 2 * len(v) for k, v in ke.short_vectors(neg, max_norm).items()}


def test_definite_isomorphic_implies_equal_theta():
    comp = ke.transcendental_of(ke.embed_standard("A5+A1 in E8"))
    target = lat.Lattice([[-2, 0], [0, -6]])
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


def test_short_vectors_match_reference():
    e8 = [[-x for x in row] for row in lat.root_lattice("E", 8).gram]
    cases = [(e8, m) for m in (2, 4)]
    rng = random.Random(1)
    while len(cases) < 150:
        n = rng.randrange(1, 6)
        b = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
        if exact.det(b) == 0:
            continue
        cases.append((exact.matmul(b, exact.transpose(b)), rng.randrange(1, 12)))
    for g, max_norm in cases:
        got = ke.short_vectors(g, max_norm)
        assert list(got.items()) == list(reference_short_vectors(g, max_norm).items())


def test_short_vectors_sign_cap_keeps_the_lists():
    # capping the outermost nonzero coordinate at <= 0 only prunes subtrees
    # whose leaves the reference's leaf test drops: the same vectors, norms
    # in the same order, each list in the same order
    e8 = [[-x for x in row] for row in lat.root_lattice("E", 8).gram]
    cases = [(e8, 4)]
    rng = random.Random(5)
    while len(cases) < 277:
        n = rng.randint(1, 6)
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if exact.det(b) == 0:
            continue
        cases.append((exact.matmul(b, exact.transpose(b)), rng.randint(1, 8)))
    for g, max_norm in cases:
        got = ke.short_vectors(g, max_norm)
        assert list(got.items()) == list(reference_short_vectors(g, max_norm).items())
    assert {k: len(v) for k, v in ke.short_vectors(e8, 4).items()} == {2: 120, 4: 1080}


def skew(n: int, steps: int, seed: int = 1) -> list[list[int]]:
    """A unimodular n x n matrix: from the identity, ``steps`` times add
    +-row j to row i, with (i, j) and the sign drawn from Random(seed)."""
    rng = random.Random(seed)
    u = exact.identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        sign = rng.choice((1, -1))
        u[i] = [a + sign * b for a, b in zip(u[i], u[j])]
    return u


def test_short_vectors_on_a_skewed_basis():
    # E8 in a basis with entries up to 1,150: the same vectors as in the
    # standard basis, mapped through the transform, up to sign
    e8 = [[-x for x in row] for row in lat.root_lattice("E", 8).gram]
    u = skew(8, 50)
    g = exact.matmul(exact.matmul(u, e8), exact.transpose(u))
    assert max(abs(x) for row in g for x in row) == 1150

    def pairs(vectors):
        return {norm: {max(v, tuple(-c for c in v)) for v in vs} for norm, vs in vectors.items()}

    mapped = {
        norm: [tuple(exact.mat_vec(exact.transpose(u), v)) for v in vs]
        for norm, vs in ke.short_vectors(g, 4).items()
    }
    assert pairs(mapped) == pairs(ke.short_vectors(e8, 4))
    skewed = lat.Lattice([[-x for x in row] for row in g])
    assert ke.definite_isomorphic(lat.root_lattice("E", 8), skewed)


def test_definite_isomorphic_on_skewed_bases():
    # E8 + E8 in bases with entries in the hundreds, on one side and on both
    e8 = lat.root_lattice("E", 8)
    e16 = lat.direct_sum(e8, e8)

    def skewed(seed):
        u = skew(16, 60, seed)
        return lat.Lattice(exact.matmul(exact.matmul(u, e16.gram), exact.transpose(u)))

    assert ke.definite_isomorphic(e16, skewed(1))
    assert ke.definite_isomorphic(skewed(2), skewed(3))


def test_short_vectors_of_nonpositive_norm_bound():
    e8 = [[-x for x in row] for row in lat.root_lattice("E", 8).gram]
    for g in (e8, [[2]], []):
        for max_norm in (-3, 0):
            assert ke.short_vectors(g, max_norm) == {}
    assert ke.short_vectors([], 4) == {}


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
    t = lat.Lattice(t_gram)
    perm = [2, 0, 3, 1]
    shuffled = lat.Lattice([[t_gram[p][q] for q in perm] for p in perm])
    rows = ke.isometry_search(t, shuffled, bound=2)
    assert rows is not None
    got = exact.matmul(
        exact.matmul(rows, [list(r) for r in shuffled.gram]), exact.transpose(rows)
    )
    assert got == t_gram


def test_match_gram_agrees_with_unrefined_search():
    rng = random.Random(5)
    found = unimodular = 0
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
        pools = [cands.get(target[i][i], []) for i in range(n)]
        got = ke._match_gram(target, pools, gram)
        assert got == naive_match_gram(target, pools, gram)
        found += got is not None
        # det(rows)^2 det(gram) = det(target): equal nonzero determinants
        # make every match unimodular, so the search need not check it
        if got is not None and exact.det(target) == exact.det(gram) != 0:
            assert abs(exact.det(got)) == 1
            unimodular += 1
    assert found >= 10 and unimodular >= 5


def _t_glue_inputs():
    m = lat.direct_sum(
        lat.rank_one(-2), lat.rank_one(-2), lat.hyperbolic(), lat.hyperbolic()
    )
    tp = lat.orthogonal_complement(m, [[0, 0, 1, -2, -1, 1], [0, 0, 1, -1, 1, -2]])
    dmodel = lat.Lattice(claims._diag([-2, -2, 6, 6]))
    glued = glue.adjoin(dmodel, [glue.GlueSpec((1, 1, 1, 1), 2)])
    return (dmodel, tp), (glued, lat.Lattice(claims.T_GRAM))


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
            [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, -1], [0, 0, -1, -2]],
        ),
        (
            lambda: _t_glue_inputs()[1],
            [[0, -1, 0, 0], [-1, 0, 0, 0], [0, -1, 0, 1], [1, -1, -1, -1]],
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
    # the first isometry in search order: each norm's pool in box order,
    # stably sorted by (max |c|, sum |c|)
    l1, l2 = inputs()
    assert ke.isometry_search(l1, l2, bound=4) == rows
    got = exact.matmul(exact.matmul(rows, [list(r) for r in l2.gram]), exact.transpose(rows))
    assert got == [list(r) for r in l1.gram]
    assert abs(exact.det(rows)) == 1


def test_stored_maps_are_the_searched_rows():
    # each claim's stored map is the search's first isometry (the rows
    # pinned above) written in the claim's own coordinates: a complement's
    # rows through its embedding rows, and step 2's images of glued's basis
    # B/s as B/s times the images of the frame
    (dmodel, tp), (glued, t) = _t_glue_inputs()
    rows = ke.isometry_search(dmodel, tp, bound=4)
    assert exact.matmul(rows, tp.ambient.basis) == [list(r) for r in claims.T_COMPLEMENT_MAP]
    e = glued.ambient
    frame_images = exact.matmul(e.basis, claims.T_FRAME_MAP)
    assert [[Fraction(x, e.denominator) for x in r] for r in frame_images] == (
        ke.isometry_search(glued, t, bound=4)
    )
    target, tr = _rank17_inputs()
    rows = ke.isometry_search(target, tr, bound=4)
    assert exact.matmul(rows, tr.ambient.basis) == [list(r) for r in claims.RANK17_MAP]


@pytest.mark.parametrize(
    "claim_id, name",
    [
        ("T.glue-isom", "T_COMPLEMENT_MAP"),
        ("T.glue-isom", "T_FRAME_MAP"),
        ("rank17.trans", "RANK17_MAP"),
        ("sqrel.8dminus5", "SQREL_COMPLETIONS"),
        ("sqrel.discform-p2", "DISCFORM_P2_GLUE"),
    ],
)
def test_changing_one_entry_of_a_stored_map_fails_its_claim(monkeypatch, claim_id, name):
    check = claims.get_claim(claim_id).check
    assert check()[0]
    stored = getattr(claims, name)
    for i, row in enumerate(stored):
        for j in range(len(row)):
            for step in (1, -1):
                edited = [list(r) for r in stored]
                edited[i][j] += step
                monkeypatch.setattr(claims, name, edited)
                assert not check()[0], (i, j, step)


def test_maps_onto_refuses_a_map_off_the_target_or_onto_a_sublattice():
    # the source's Gram matrix and det, but images that pair 1 with a
    # removed norm -6 vector, so they miss the complement
    (dmodel, tp), _ = _t_glue_inputs()
    outside = [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 3, 0, 0], [0, 0, 0, 0, 1, 3]]
    assert exact.congruence(outside, tp.ambient.ambient.gram) == [list(r) for r in dmodel.gram]
    assert not claims._maps_onto(dmodel, tp, outside)
    # x -> 2x takes <8> into <2> with the right Gram matrix, onto index 2
    assert not claims._maps_onto(lat.rank_one(8), lat.rank_one(2), [[2]])
    # <2> + <8> to <8> + <2> with the Gram matrix and det right, off the lattice
    two_eight = lat.direct_sum(lat.rank_one(2), lat.rank_one(8))
    eight_two = lat.direct_sum(lat.rank_one(8), lat.rank_one(2))
    assert not claims._maps_onto(two_eight, eight_two, [[Fraction(1, 2), 0], [0, 2]])
    assert claims._maps_onto(lat.rank_one(2), lat.rank_one(2), [[-1]])


def _rank17_counts(monkeypatch):
    """Points that ``exact.box_vectors`` yields and multiplications in
    ``k3embed`` (the pairings of ``_match_gram``) in the rank-17 search."""
    counts = {"points": 0, "mul": 0}
    box_vectors = exact.box_vectors

    def counted_box(*args):
        for point in box_vectors(*args):
            counts["points"] += 1
            yield point

    def counted_mul(a, b):
        counts["mul"] += 1
        return a * b

    target, tr = _rank17_inputs()
    monkeypatch.setattr(exact, "box_vectors", counted_box)
    monkeypatch.setattr(ke, "mul", counted_mul)
    assert ke.isometry_search(target, tr, bound=4) is not None
    return counts


def test_isometry_search_walks_one_of_each_sign_pair(monkeypatch):
    # the pools hold 880 nonzero vectors of the needed norms (306 + 370 +
    # 204), the 440 whose first nonzero coordinate is positive and their
    # negations, and one walk of the box meets just those
    target, tr = _rank17_inputs()
    needed = {target.gram[i][i] for i in range(target.rank)}
    full = [v for v, _ in exact.box_vectors([list(r) for r in tr.gram], 4, needed) if any(v)]
    assert len(full) == 880
    levels = []
    match_gram = ke._match_gram

    def spy(target, pools, gram):
        levels.extend(pools)
        return match_gram(target, pools, gram)

    monkeypatch.setattr(ke, "_match_gram", spy)
    assert _rank17_counts(monkeypatch)["points"] == 880
    # level 0 holds the negative-leading half of its pool
    first, *rest = levels
    pooled = {w for v in first for w in (v, tuple(-c for c in v))}.union(*rest)
    assert pooled == set(full)
    assert sum(1 for v in pooled if next(c for c in v if c) > 0) == len(full) // 2 == 440


def test_match_gram_filters_each_shared_pool_once(monkeypatch):
    # levels 1-2 and 3-4 of the rank-17 target share a pool and a wanted
    # pairing, and level 0 tries one of each +-v pair: 20,000 pairing
    # multiplications, where filtering per level over both signs took 68,470
    assert _rank17_counts(monkeypatch)["mul"] == 20_000 <= 68_470 // 2


def sorted_box_pools(g1, g2, bound):
    """The nonzero vectors of [-bound, bound]^n with the norms of g1's
    diagonal, by norm, in product order stably sorted by (max |c|, sum |c|)."""
    n = len(g2)
    needed = {g1[i][i] for i in range(n)}
    pools = {}
    for v in itertools.product(range(-bound, bound + 1), repeat=n):
        norm = sum(v[i] * g2[i][j] * v[j] for i in range(n) for j in range(n))
        if norm in needed and any(v):
            pools.setdefault(norm, []).append(v)
    for pool in pools.values():
        pool.sort(key=lambda v: (max(map(abs, v)), sum(map(abs, v))))
    return pools


def _search_order_inputs():
    # the claims' searches; <2>^4 in a basis where the images of e_1, e_2 are
    # (1, 1, 1, 1) and (2, 1, 0, 0), which (max, sum) and (sum, max) order
    # differently; then random lattices and unimodular images of them
    yield from (_t_glue_inputs()[0], _t_glue_inputs()[1], _rank17_inputs())
    yield lat.Lattice(claims._diag([2, 2, 2, 2])), lat.Lattice(
        [[8, -14, 2, 2], [-14, 26, -4, -4], [2, -4, 2, 0], [2, -4, 0, 2]]
    )
    rng = random.Random(11)
    while True:
        n = rng.randrange(2, 4)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randrange(-3, 4)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randrange(-2, 3)
        if exact.det(g) == 0:
            continue
        u = [[rng.randrange(-1, 2) for _ in range(n)] for _ in range(n)]
        if abs(exact.det(u)) != 1:
            continue
        yield lat.Lattice(g), lat.Lattice(exact.matmul(exact.matmul(u, g), exact.transpose(u)))


def test_isometry_search_tries_small_coordinates_first():
    found = 0
    for l1, l2 in itertools.islice(_search_order_inputs(), 40):
        bound = 4 if l1.rank > 3 else 2
        g1, g2 = [list(r) for r in l1.gram], [list(r) for r in l2.gram]
        got = ke.isometry_search(l1, l2, bound=bound)
        pools = sorted_box_pools(g1, g2, bound)
        assert got == naive_match_gram(g1, [pools.get(g1[i][i], []) for i in range(len(g1))], g2)
        found += got is not None
    assert found >= 20


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_isometry_search_equals_the_unpruned_oracle(data):
    # an even Gram against a unimodular image of itself, and against an odd
    # lattice of the same det and signature, which no isometry reaches: the
    # half walk and the one-sign first level give the first match of the
    # unpruned search over the full sorted box
    n = data.draw(st.integers(2, 4), "rank")
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * data.draw(st.integers(-3, 3))
        for j in range(i):
            g[i][j] = g[j][i] = data.draw(st.integers(-2, 2))
    det = exact.det(g)
    assume(det != 0)
    bound = data.draw(st.integers(1, 3), "bound")
    steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from((1, -1)))
    u = exact.identity(n)
    for i, j, sign in data.draw(st.lists(steps, max_size=6), "steps"):
        if i != j:
            u[i] = [a + sign * b for a, b in zip(u[i], u[j])]
    p, _, m = exact.signature(g)
    signs = [1] * p + [-1] * m
    odd = claims._diag([signs[0] * abs(det)] + signs[1:])
    for h in (g, odd):
        h = exact.matmul(exact.matmul(u, h), exact.transpose(u))
        pools = sorted_box_pools(g, h, bound)
        want = naive_match_gram(g, [pools.get(g[i][i], []) for i in range(n)], h)
        assert ke.isometry_search(lat.Lattice(g), lat.Lattice(h), bound=bound) == want


def check_half_box_search(h, bound):
    """The search into a target Gram h from a unimodular image of h, and
    from an odd lattice of the same det and signature, gives the unpruned
    search's first match."""
    n = len(h)
    rng = random.Random(repr((h, bound)))
    u = exact.identity(n)
    for _ in range(4):
        (i, j), sign = rng.sample(range(n), 2), rng.choice((1, -1))
        u[i] = [a + sign * b for a, b in zip(u[i], u[j])]
    p, _, m = exact.signature(h)
    signs = [1] * p + [-1] * m
    odd = claims._diag([signs[0] * abs(exact.det(h))] + signs[1:])
    for g in (exact.matmul(exact.matmul(u, h), exact.transpose(u)), odd):
        pools = sorted_box_pools(g, h, bound)
        want = naive_match_gram(g, [pools.get(g[i][i], []) for i in range(n)], h)
        assert ke.isometry_search(lat.Lattice(g), lat.Lattice(h), bound=bound) == want


@st.composite
def lone_row_grams(draw):
    """An even nondegenerate Gram of rank 2-4: k lone rows (no nonzero
    off-diagonal entry) at random positions, and the rest a block of size 0,
    2 or 3 in which every row has a nonzero off-diagonal entry."""
    k, r = draw(st.sampled_from([(k, r) for k in range(4) for r in (0, 2, 3) if 2 <= k + r <= 4]))
    where = draw(st.permutations(range(k + r)))
    nonzero = st.integers(-2, 2).filter(bool)
    block = [[0] * r for _ in range(r)]
    for i in range(r):
        block[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i):
            # a chain 0-1-2 of nonzero entries gives each row a partner
            block[i][j] = block[j][i] = draw(nonzero if j == i - 1 else st.integers(-2, 2))
    diag = [2 * draw(st.integers(-3, 3).filter(bool)) for _ in range(k)]
    h = [[0] * (k + r) for _ in range(k + r)]
    for a, i in enumerate(where[:k]):
        h[i][i] = diag[a]
    for a, i in enumerate(where[k:]):
        for b, j in enumerate(where[k:]):
            h[i][j] = block[a][b]
    assume(exact.det(h) != 0)
    return h


@settings(max_examples=50, deadline=None)
@given(lone_row_grams(), st.integers(1, 3))
def test_half_box_with_lone_rows_equals_the_full_box(h, bound):
    check_half_box_search(h, bound)


@pytest.mark.parametrize(
    "h",
    [
        [[2, 0, 0], [0, -2, 0], [0, 0, 6]],  # every row lone
        [[2, 1, 0], [1, -2, 1], [0, 1, 4]],  # no row lone
        [[-2, 0, 1], [0, 4, 0], [1, 0, 2]],  # a lone row between the block's rows
    ],
)
def test_half_box_on_fixed_grams(h):
    for bound in (1, 2, 3):
        check_half_box_search(h, bound)


def test_isometry_search_distinguishes():
    u = lat.hyperbolic()
    u2 = lat.rescale(u, 2)
    assert ke.isometry_search(u, u2, bound=3) is None  # determinants differ


def test_isometry_search_rejects_degenerate():
    # without a nonzero determinant a Gram match need not be a bijection:
    # here both basis vectors could go to (1, 0)
    l = lat.Lattice([[2, 2], [2, 2]])
    assert l.det() == 0
    assert ke.isometry_search(l, l, bound=2) is None
