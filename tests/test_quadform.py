"""Tests for Hilbert symbols, Hasse invariants and local isotropy.

The Hilbert symbol is checked against an equation-level oracle that searches
for primitive solutions of a x^2 + b y^2 = z^2 modulo prime powers, using
only elementary substitutions (scaling a variable by p, and the z = p*w
descent when p divides both coefficients).  Witt indices are spot-checked
against a bounded search for isotropic vectors.
"""

import contextlib
import io
import itertools
import random
import signal
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

import k3lattice.lattice as lat
from k3lattice import claims, cli, exact, lattice_io, quadform as qf
from test_lattice import random_even_gram

def relevant_places(n):
    # the real place, 2 and the primes of the nonzero integer n
    return [qf.REAL] + sorted({2, *qf.factorize(n)})


# ---------------------------------------------------------------------------
# oracle: solvability of a x^2 + b y^2 = z^2 over Q_p by search mod p^k


def _strip_squares(a: int, p: int) -> int:
    while a % (p * p) == 0:
        a //= p * p
    return a


def _primitive_isotropic_mod(coeffs, p: int, k: int) -> bool:
    """Primitive zero of c0 x^2 + c1 y^2 + c2 z^2 mod p^k by exhaustion."""
    a, b, c = coeffs
    m = p**k
    zsq_any = set()
    zsq_unit = set()
    for z in range(m):
        val = (-c * z * z) % m
        zsq_any.add(val)
        if z % p:
            zsq_unit.add(val)
    by = [(b * y * y % m, y % p != 0) for y in range(m)]
    for x in range(m):
        ax = a * x * x % m
        x_unit = x % p != 0
        for byy, y_unit in by:
            t = (ax + byy) % m
            if x_unit or y_unit:
                if t in zsq_any:
                    return True
            elif t in zsq_unit:
                return True
    return False


def hilbert_oracle(a: int, b: int, p: int) -> int:
    """Equation-based (a,b)_p for finite p, independent of the symbol
    formulas: searches for primitive solutions modulo p^k with k large
    enough that a primitive solution is Hensel-liftable.  For odd p a
    primitive zero mod p^2 (mod p for unit coefficients) always has a unit
    coordinate on a unit coefficient, so k = 2 suffices; for p = 2 the
    valuation of the gradient is at most 2, so k = 6 does."""
    a = _strip_squares(a, p)
    b = _strip_squares(b, p)
    if a % p == 0 and b % p == 0:
        # a x^2 + b y^2 = z^2 forces p | z; with z = p w the equation becomes
        # (a/p) x^2 + (b/p) y^2 = p w^2
        coeffs = (a // p, b // p, -p)
    else:
        coeffs = (a, b, -1)
    if p == 2:
        k = 6
    elif all(x % p for x in coeffs):
        k = 1
    else:
        k = 2
    return 1 if _primitive_isotropic_mod(coeffs, p, k) else -1


def isotropic_vector_search(gram, bound=20):
    """Complete search for a nonzero isotropic vector with coordinates in
    [-bound, bound]: every point of the box in the first n - 1 coordinates,
    and the last one solved from q = g t^2 + 2 l t + q0 = 0 with isqrt."""
    n = len(gram)
    last = n - 1
    g = gram[last][last]
    box = range(-bound, bound + 1)
    for head in itertools.product(box, repeat=last):
        q0 = sum(head[i] * gram[i][j] * head[j] for i in range(last) for j in range(last))
        l = sum(head[i] * gram[i][last] for i in range(last))
        if g:
            d = l * l - g * q0
            r = isqrt(d) if d >= 0 else -1
            ts = ((-l + r) // g, (-l - r) // g) if r * r == d else ()
        elif l:
            ts = (-q0 // (2 * l),)
        else:
            ts = box
        for t in ts:
            if abs(t) <= bound and g * t * t + 2 * l * t + q0 == 0 and (t or any(head)):
                return head + (t,)
    return None


# ---------------------------------------------------------------------------
# Hilbert symbols


def test_hilbert_identity_cases():
    for b in (2, -3, 5, 7):
        for v in (qf.REAL, 2, 3, 5, 11):
            assert qf.hilbert_symbol(1, b, v) == 1


def test_hilbert_classical_values():
    assert qf.hilbert_symbol(-1, -1, qf.REAL) == -1
    assert qf.hilbert_symbol(-1, -1, 2) == -1
    assert qf.hilbert_symbol(-1, -1, 3) == 1
    assert qf.hilbert_symbol(2, 3, 2) == -1


def test_hilbert_zero_rejected():
    with pytest.raises(ValueError):
        qf.hilbert_symbol(0, 1, 2)


def test_hilbert_rational_arguments():
    assert qf.hilbert_symbol(Fraction(1, 2), Fraction(3, 4), 2) == qf.hilbert_symbol(
        2, 3, 2
    )


def test_hilbert_minus_one_minus_one_2_by_bruteforce():
    # no primitive solution of z^2 = -x^2 - y^2 over Z/8
    solvable = any(
        (x * x + y * y + z * z) % 8 == 0
        for x in range(8)
        for y in range(8)
        for z in range(8)
        if x % 2 or y % 2 or z % 2
    )
    assert not solvable
    assert hilbert_oracle(-1, -1, 2) == -1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_hilbert_symbol_against_oracle(p):
    rng = random.Random(p)
    values = [v for v in range(-30, 31) if v]
    pairs = {(1, 1), (-1, -1), (p, p), (-p, p), (2 * p, 3), (p, p * p - p)}
    while len(pairs) < (24 if p <= 7 else 10):
        pairs.add((rng.choice(values), rng.choice(values)))
    for a, b in sorted(pairs):
        assert qf.hilbert_symbol(a, b, p) == hilbert_oracle(a, b, p), (a, b, p)


def test_hilbert_reciprocity_on_200_pairs():
    rng = random.Random(20260808)
    for _ in range(200):
        a = rng.randrange(-60, 61) or 1
        b = rng.randrange(-60, 61) or 1
        prod = 1
        for v in relevant_places(a * b):
            prod *= qf.hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)


# ---------------------------------------------------------------------------
# factoring and square classes


def test_squarefree_part():
    assert qf.squarefree_part(12) == 3
    assert qf.squarefree_part(-12) == -3
    assert qf.squarefree_part(1156) == 1
    assert qf.squarefree_part(588) == 3
    with pytest.raises(ValueError):
        qf.squarefree_part(0)


def test_factorize_large_smooth():
    n = 2**10 * 3**4 * 17**2
    assert qf.factorize(n) == {2: 10, 3: 4, 17: 2}
    assert qf.factorize(-35) == {5: 1, 7: 1}


# ---------------------------------------------------------------------------
# diagonalization


def test_diagonalize_hyperbolic():
    assert qf.diagonalize([[0, 1], [1, 0]]) == [1, -1]


def test_diagonalize_lambda3():
    lam3 = lat.direct_sum(
        lat.rank_one(-2), lat.rank_one(-6), lat.hyperbolic(), lat.hyperbolic()
    )
    assert qf.diagonalize(lam3.gram) == [-2, -6, 1, -1, 1, -1]


def test_diagonalize_degenerate_rejected():
    with pytest.raises(ValueError):
        qf.diagonalize([[1, 1], [1, 1]])
    # a non-symmetric matrix is refused, not read through its det -2
    with pytest.raises(ValueError, match="symmetric"):
        qf.invariants([[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="degenerate"):
        qf.invariants([[2, 2], [2, 2]])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
    )
))
def test_diagonalize_is_equivalent_to_input(m):
    sym = [[m[i][j] + m[j][i] for j in range(len(m))] for i in range(len(m))]
    if exact.det(sym) == 0:
        return
    diag = qf.diagonalize(sym)
    n = len(sym)
    diag_m = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    assert qf.rationally_equivalent(sym, diag_m)


def _symmetric(n, zero_diag=False):
    return st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda m: [
        [0 if zero_diag and i == j else m[min(i, j)][max(i, j)] for j in range(n)]
        for i in range(n)
    ])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.one_of(_symmetric(n), _symmetric(n, zero_diag=True))
))
def test_diagonalize_det_class_and_signs(m):
    d = exact.det(m)
    if d == 0:
        with pytest.raises(ValueError):
            qf.diagonalize(m)
        return
    diag = qf.diagonalize(m)
    prod = 1
    for x in diag:
        prod *= x
    assert qf.squarefree_part(prod) == qf.squarefree_part(d)
    pos = sum(1 for x in diag if x > 0)
    assert (pos, 0, len(diag) - pos) == exact.signature(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8).flatmap(
    lambda n: st.tuples(_symmetric(n), st.integers(0, n - 1), st.integers(0, n - 1),
                        st.integers(-2, 2))
))
def test_diagonalize_singular_rejected(args):
    # row/column j replaced by c times row/column i (i != j): singular
    m, i, j, c = args
    if i == j:
        j = (i + 1) % len(m)
    m = [row[:] for row in m]
    for r in range(len(m)):
        m[r][j] = c * m[r][i]
    m[j] = [c * x for x in m[i]]
    assert exact.det(m) == 0
    with pytest.raises(ValueError):
        qf.diagonalize(m)


# ---------------------------------------------------------------------------
# Hasse invariants


def test_hasse_m3_trivial_at_finite_places():
    lam3 = lat.direct_sum(
        lat.rank_one(-2), lat.rank_one(-6), lat.hyperbolic(), lat.hyperbolic()
    )
    diag = qf.diagonalize(lam3.gram)
    for p in (2, 3, 5, 7, 11, 13):
        assert qf.hasse_invariant(diag, p) == 1


def test_hasse_counterexample_at_2_and_7():
    diag = [-1, -1, -2, -6, 7, 7]
    minus = {
        v for v in relevant_places(2 * 6 * 49) if qf.hasse_invariant(diag, v) == -1
    }
    assert minus == {2, 7}


def test_hasse_lp_at_p():
    for p in (17, 41):
        diag = [-2, -6, 1, -1, 4 * p]
        assert qf.hasse_invariant(diag, p) == -1


def pairwise_hasse(diag, v):
    # the Hasse invariant as the product of the Hilbert symbols of all
    # pairs i < j of diagonal entries, one symbol per pair
    sign = 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            sign *= qf.hilbert_symbol(diag[i], diag[j], v)
    return sign


_nonzero_rational = st.builds(
    Fraction, st.integers(-400, 400).filter(bool), st.integers(1, 60)
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_nonzero_rational, max_size=9))
@example([Fraction(4, 9), Fraction(-12), Fraction(18, 25), Fraction(-3, 8), Fraction(50)])
def test_hasse_invariant_is_the_pairwise_product(diag):
    divisors = {p for d in diag for p in qf.factorize(d.numerator * d.denominator)}
    for v in sorted({qf.REAL, 2, 3, 5, 7, *divisors}, key=qf.place_sort_key):
        assert qf.hasse_invariant(diag, v) == pairwise_hasse(diag, v), v


def test_hasse_pass_is_linear_per_place(monkeypatch):
    # the pairwise product took n(n-1)/2 symbols per place for the
    # invariants and as many again for the global Witt index
    g = random_even_gram(random.Random(3), 22, (-15, 15), (-30, 30))
    calls = []
    core = qf._hilbert
    monkeypatch.setattr(qf, "_hilbert", lambda a, b, v: calls.append(v) or core(a, b, v))
    qf.invariants_and_witt_index(g)
    places = relevant_places(exact.det(g))
    assert len(places) >= 3 and set(calls) <= set(places)
    for v in places:
        assert calls.count(v) <= 2 * 22, v
    calls.clear()
    qf.hasse_invariant(range(1, 10), 3)
    assert len(calls) == 8


# ---------------------------------------------------------------------------
# local classification


def test_aniso_hyperbolic_everywhere_zero():
    u3 = lat.direct_sum(lat.hyperbolic(), lat.hyperbolic(), lat.hyperbolic())
    for v in (qf.REAL, 2, 3, 5):
        assert qf.anisotropic_dimension(u3.gram, v) == 0


def test_aniso_rank5_at_most_4():
    rng = random.Random(5)
    for _ in range(20):
        entries = [rng.choice([-6, -4, -2, 2, 4, 6]) for _ in range(5)]
        g = [[entries[i] if i == j else 0 for j in range(5)] for i in range(5)]
        for p in (2, 3, 5, 7):
            assert qf.anisotropic_dimension(g, p) <= 4
    # the bound is reached at rank 4: the norm form of Np(5,2) is
    # anisotropic at 5
    np_gram = [[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 5, 0], [0, 0, 0, -10]]
    assert qf.anisotropic_dimension(np_gram, 5) == 4


def test_aniso_real():
    g = [[2, 0, 0], [0, 2, 0], [0, 0, -2]]
    assert qf.anisotropic_dimension(g, qf.REAL) == 1


def test_witt_examples():
    u23 = lat.direct_sum(*[lat.rescale(lat.hyperbolic(), 2)] * 3)
    for v in (qf.REAL, 2, 3, qf.GLOBAL):
        assert qf.witt_index(u23.gram, v) == 3


def test_a_place_is_real_or_a_prime():
    # v = 1 never returned, v = 0 divided by zero, and 4, 9, -3, "7" and
    # 2.0 gave values that mean nothing
    g = [[1, 0], [0, 1]]
    calls = (
        lambda v: qf.witt_index(g, v),
        lambda v: qf.anisotropic_dimension(g, v),
        lambda v: qf.hilbert_symbol(2, 3, v),
        lambda v: qf.hasse_invariant([2], v),
        lambda v: qf.has_k_planes(g, 0, v),
    )
    with _deadline(5):
        for v in (1, 0, 4, 9, -3, "7", 2.0):
            for call in calls:
                with pytest.raises(ValueError, match="place"):
                    call(v)
    assert [call(7) for call in calls] == [0, 2, 1, 1, False]


def test_witt_global_brute_force_spot_checks():
    cases = [
        [[2, 0], [0, -2]],                       # hyperbolic: isotropic
        [[2, 0], [0, 2]],                        # definite: anisotropic
        [[2, 1], [1, 2]],                        # definite
        [[0, 1], [1, 0]],
        [[2, 0, 0], [0, 3, 0], [0, 0, -5]],
        [[2, 0, 0], [0, 3, 0], [0, 0, -7]],
        [[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 5, 0], [0, 0, 0, -10]],  # anisotropic at 5
        [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, -4, 1], [0, 0, 1, -2]],
        [[-2, -1, 0, -1], [-1, 2, 1, -1], [0, 1, -2, 1], [-1, -1, 1, 2]],  # witt 0
        [[6, 5, 3, -3], [5, 6, -2, 4], [3, -2, -6, -2], [-3, 4, -2, 6]],   # witt 0
    ]
    for gram in cases:
        found = isotropic_vector_search(gram, bound=20)
        isotropic = qf.witt_index(gram, qf.GLOBAL) >= 1
        if found is not None:
            norm = sum(
                found[i] * gram[i][j] * found[j]
                for i in range(len(gram))
                for j in range(len(gram))
            )
            assert norm == 0 and any(found)
            assert isotropic, gram
        else:
            assert not isotropic, gram


def _generic_witt(g):
    # Witt index at every prime not dividing 2 det: a unimodular form of
    # even rank 2k splits k planes there iff (-1)^k det is a square
    n = len(g)
    if n % 2:
        return (n - 1) // 2
    half = n // 2
    return half if qf.squarefree_part(exact.det(g) * (-1) ** half) == 1 else half - 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.one_of(_symmetric(n), _symmetric(n, zero_diag=True))
))
@example(lat.direct_sum(lat.hyperbolic(), lat.rank_one(-2), lat.rank_one(6)).gram)
@example(lat.direct_sum(lat.hyperbolic(), lat.hyperbolic(), lat.rank_one(-2)).gram)
@example([[6, 5, 3, -3], [5, 6, -2, 4], [3, -2, -6, -2], [-3, 4, -2, 6]])
def test_witt_global_is_min_over_places(m):
    d = exact.det(m)
    if d == 0:
        return
    local = [qf.witt_index(m, v) for v in relevant_places(d)]
    assert qf.witt_index(m, qf.GLOBAL) == min(local + [_generic_witt(m)])


def test_witt_global_diagonalizes_once(monkeypatch):
    # one elimination serves every place: at rank 22, eliminating and
    # factoring the discriminant again per place costs seconds
    rng = random.Random(1)
    while True:
        g = [[0] * 22 for _ in range(22)]
        for i in range(22):
            g[i][i] = rng.choice((-2, 0, 2))
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-2, 2)
        if exact.det(g):
            break
    calls = []
    ldl = exact.ldl
    monkeypatch.setattr(exact, "ldl", lambda gram: calls.append(1) or ldl(gram))
    w = qf.witt_index(g, qf.GLOBAL)
    assert len(calls) == 1
    assert w == min(
        [qf.witt_index(g, v) for v in relevant_places(exact.det(g))] + [_generic_witt(g)]
    )


def test_has_k_planes_semantics():
    u23 = lat.direct_sum(*[lat.rescale(lat.hyperbolic(), 2)] * 3)
    assert qf.has_k_planes(u23.gram, 2, qf.GLOBAL)
    assert not qf.has_k_planes(u23.gram, 3, qf.GLOBAL)
    t = [[-2, -1, 0, -1], [-1, 2, 1, -1], [0, 1, -2, 1], [-1, -1, 1, 2]]
    assert not qf.has_k_planes(t, 0, 2)  # no points over Q_2


# ---------------------------------------------------------------------------
# rational equivalence


def test_equivalence_u2_u():
    u = lat.hyperbolic()
    assert qf.rationally_equivalent(lat.rescale(u, 2).gram, u.gram)


def test_equivalence_is_equivalence_relation():
    rng = random.Random(7)
    grams = []
    while len(grams) < 3:
        g = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                g[i][j] = g[j][i] = rng.randrange(-4, 5)
        if exact.det(g) != 0:
            grams.append(g)
    for g in grams:
        assert qf.rationally_equivalent(g, g)
    for g, h in itertools.permutations(grams, 2):
        assert qf.rationally_equivalent(g, h) == qf.rationally_equivalent(h, g)
    if qf.rationally_equivalent(grams[0], grams[1]) and qf.rationally_equivalent(
        grams[1], grams[2]
    ):
        assert qf.rationally_equivalent(grams[0], grams[2])


# ---------------------------------------------------------------------------
# only |det| is factored: large forms finish, unsplittable dets fail cleanly


@contextlib.contextmanager
def _deadline(seconds):
    def timeout(signum, frame):
        raise TimeoutError(f"took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# factoring every ~70-digit elimination pivot made each of these run for
# seconds to minutes; their determinants factor in milliseconds
HANG_CASES = [(12, 30, 1), (12, 30, 2), (16, 30, 1), (16, 30, 2),
              (22, 30, 1), (22, 30, 2), (22, 3, 1), (22, 3, 2)]


@pytest.mark.parametrize("n, bound, seed", HANG_CASES)
def test_large_random_forms_finish(n, bound, seed, tmp_path, capsys):
    rng = random.Random(seed)
    g = random_even_gram(rng, n, ((-bound) // 2, bound // 2), (-bound, bound))
    with _deadline(5):
        inv = qf.invariants(g)
        w = qf.witt_index(g, qf.GLOBAL)
    # oracles that do not read the pivots: reciprocity, inertia, det class
    assert len(inv.hasse_minus) % 2 == 0
    pos, _, neg = exact.signature(g)
    assert (inv.rank, inv.signature) == (n, (pos, neg))
    d = exact.det(g)
    assert inv.disc_class * d > 0 and isqrt(inv.disc_class * d) ** 2 == inv.disc_class * d
    local = [qf.witt_index(g, v) for v in relevant_places(d)]
    assert w == min(local + [_generic_witt(g)])

    path = tmp_path / "form.lattice"
    lattice_io.save_lattice(lat.Lattice(g, "random"), path)
    with _deadline(5):
        assert cli.main(["quadform", "invariants", str(path)]) == 0
    assert f"witt index (Q):  {w}" in capsys.readouterr().out


def _all_invariants(g, places):
    return (
        qf.invariants(g),
        [qf.witt_index(g, v) for v in places + [qf.GLOBAL]],
        [qf.anisotropic_dimension(g, v) for v in places],
    )


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.one_of(_symmetric(n), _symmetric(n, zero_diag=True))
))
@example([[0, 1], [1, 0]])
@example([[-2, -1, 0, -1], [-1, 2, 1, -1], [0, 1, -2, 1], [-1, -1, 1, 2]])
def test_raw_pivots_agree_with_squarefree_diagonal(m):
    # the squarefree diagonal from ``diagonalize`` is the independent oracle
    d = exact.det(m)
    if d == 0:
        return
    places = sorted({qf.REAL, 2, 3, 5, 7, *qf.factorize(d)}, key=qf.place_sort_key)
    oracle = claims._diag(qf.diagonalize(m))
    assert _all_invariants(m, places) == _all_invariants(oracle, places)


def test_factorize_called_at_most_once_per_form(monkeypatch):
    g = random_even_gram(random.Random(1), 12, (-15, 15), (-30, 30))
    calls = []
    factorize = qf.factorize
    monkeypatch.setattr(qf, "factorize", lambda n: calls.append(n) or factorize(n))
    for fn, most in (
        (qf.invariants, 1),
        (lambda g: qf.witt_index(g, qf.GLOBAL), 1),
        (lambda g: qf.witt_index(g, 2), 0),
        (lambda g: qf.witt_index(g, 211), 0),
        (lambda g: qf.anisotropic_dimension(g, qf.REAL), 0),
    ):
        calls.clear()
        fn(g)
        assert len(calls) <= most
        assert all(abs(n) == abs(exact.det(g)) for n in calls)


def test_cli_quadform_factors_det_once(monkeypatch, tmp_path, capsys):
    g = random_even_gram(random.Random(1), 12, (-15, 15), (-30, 30))
    path = tmp_path / "form.lattice"
    lattice_io.save_lattice(lat.Lattice(g, "random"), path)
    calls = []
    factorize = qf.factorize
    monkeypatch.setattr(qf, "factorize", lambda n: calls.append(n) or factorize(n))
    assert cli.main(["quadform", "invariants", str(path)]) == 0
    assert [abs(n) for n in calls] == [abs(exact.det(g))]
    inv = qf.invariants(g)
    out = capsys.readouterr().out
    assert f"disc class:      {inv.disc_class}" in out
    assert f"witt index (Q):  {qf.witt_index(g, qf.GLOBAL)}" in out


def test_factorize_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    values = [rng.randrange(2, 10**k) for k in range(2, 25) for _ in range(4)]
    values += [2**61 - 1, (2**31 - 1) * (2**61 - 1), 3**40 * 1000003**2]
    for n in values:
        assert qf.factorize(n) == sympy.factorint(n), n
        assert qf.factorize(-n) == sympy.factorint(n), n


# psi_12, the least strong pseudoprime to the twelve prime bases up to 37
PSI12 = 318665857834031151167461
# a strong pseudoprime to every prime base up to 41, above psi_12
SPSP41 = 3317044064679887385961981

try:
    import sympy
except ImportError:
    sympy = None


def test_a_strong_pseudoprime_above_psi12_is_split():
    assert qf.factorize(SPSP41) == {1287836182261: 1, 2575672364521: 1}
    assert not qf.is_probable_prime(SPSP41)
    with pytest.raises(ValueError):
        qf.hilbert_symbol(2, 3, SPSP41)
    assert qf.invariants([[2, 0], [0, -2 * SPSP41]]).hasse_minus == {2, 1287836182261}


def test_strong_lucas_pseudoprimes():
    # run alone, the Lucas half of Baillie-PSW passes the odd composites
    # of OEIS A217255 and every odd prime
    def prime(n):
        return all(n % q for q in range(2, isqrt(n) + 1))

    passed = [n for n in range(3, 11000, 2) if qf._strong_lucas(n) and not prime(n)]
    assert passed == [5459, 5777, 10877]
    assert all(qf._strong_lucas(n) for n in range(3, 11000, 2) if prime(n))


def euler_legendre(a, p):
    """(a/p) by Euler's criterion, a^((p-1)/2) mod p: the oracle for
    ``quadform.legendre``, which takes the Jacobi symbol instead."""
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def test_legendre_matches_euler_criterion():
    odd_primes = [p for p in range(3, 200) if all(p % q for q in range(2, isqrt(p) + 1))]
    for p in odd_primes:
        for a in range(1, p):
            for shifted in (a, a - p, a + 3 * p):
                assert qf.legendre(shifted, p) == euler_legendre(a, p), (shifted, p)
        for zero in (0, p, -2 * p):
            with pytest.raises(ValueError):
                qf.legendre(zero, p)


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(PSI12, 10**40).map(lambda n: n | 1),
    st.integers(10**13, 10**30).map(lambda n: sympy.nextprime(n) * sympy.nextprime(n // 7)),
))
@example(PSI12)
@example(SPSP41)
@example(2**89 - 1)
def test_is_probable_prime_above_psi12_against_sympy(n):
    assert qf.is_probable_prime(n) == sympy.isprime(n)


def test_factorize_splits_a_40_bit_factor():
    # a 100-bit semiprime with a 40-bit factor: Brent's rho splits it after
    # about 3.2 million evaluations, past the reach of 10^6 Floyd steps
    p, q = 685481207069, 603227601403954517
    if sympy is not None:
        assert sympy.isprime(p) and sympy.isprime(q)
    with _deadline(20):
        assert qf.factorize(-p * q) == {p: 1, q: 1}


# two 30-digit primes: Pollard rho needs ~10^15 steps to split their product
P30, Q30 = 100000000000000000000000000319, 300000000000000000000000000007


@pytest.fixture(scope="module")
def unsplittable_run(tmp_path_factory):
    # both give-up tests read one `quadform invariants` run on det 7·P30·Q30
    path = tmp_path_factory.mktemp("pq") / "pq.lattice"
    lattice_io.save_lattice(lat.Lattice([[7, 0], [0, P30 * Q30]], "pq"), path)
    raised, factorize, err = [], qf.factorize, io.StringIO()
    def recording(n):
        try:
            return factorize(n)
        except ValueError as e:
            raised.append((n, e))
            raise
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), _deadline(20):
        mp.setattr(qf, "factorize", recording)
        return cli.main(["quadform", "invariants", str(path)]), err.getvalue(), raised


def test_factorize_gives_up_on_an_unsplittable_cofactor(unsplittable_run):
    (n, e), = unsplittable_run[2]
    assert n == 7 * P30 * Q30 and isinstance(e, ValueError) and str(P30 * Q30) in str(e)


def test_cli_quadform_exits_2_on_an_unsplittable_det(unsplittable_run):
    code, err, _ = unsplittable_run
    assert code == 2 and err.startswith("error:") and str(P30 * Q30) in err
