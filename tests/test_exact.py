"""Tests for the exact linear algebra kernel.

Determinants are cross-checked against naive Laplace expansion, signatures
against Descartes' rule applied to the (real-rooted) characteristic
polynomial computed by division-free Faddeev-LeVerrier.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from k3lattice import exact

try:  # optional oracle for the invariant factors
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
except ImportError:
    sympy_snf = None

# ---------------------------------------------------------------------------
# oracles


def laplace_det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * laplace_det(minor)
    return total


def charpoly(m):
    """Coefficients of det(xI - m), highest degree first (Faddeev-LeVerrier)."""
    n = len(m)
    coeffs = [Fraction(1)]
    a = [[Fraction(x) for x in row] for row in m]
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A * M_{k-1} + c_{k-1} I
        mk = exact.matmul(a, mk)
        for i in range(n):
            mk[i][i] += coeffs[-1]
        trace = sum(sum(a[i][j] * mk[j][i] for j in range(n)) for i in range(n))
        coeffs.append(-trace / k)
    return coeffs


def signature_by_descartes(m):
    """Inertia from sign changes in the characteristic polynomial, which is
    exact because symmetric matrices have real spectra."""
    coeffs = charpoly(m)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    zero = len(m) + 1 - len(coeffs)
    signs = [c for c in coeffs if c != 0]
    pos = sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))
    return pos, zero, len(m) - zero - pos


def naive_ldl(m):
    """The ``Fraction`` elimination that ``exact.ldl`` replaced: the same
    pivot order, hyperbolic rule and degenerate tail on the rational Schur
    complements; oracle for the fraction-free elimination."""
    n = exact.require_symmetric(m)
    a = [[Fraction(x) for x in row] for row in m]
    zero = Fraction(0)
    mult = [[zero] * n for _ in range(n)]
    pivots = []
    active = list(range(n))
    while active:
        piv = next((i for i in active if a[i][i] != 0), None)
        if piv is not None:
            p = a[piv][piv]
            pivots.append(p)
            active.remove(piv)
            for r in active:
                if a[r][piv] == 0:
                    continue
                f = mult[piv][r] = a[r][piv] / p
                for s in active:
                    a[r][s] -= f * a[piv][s]
            continue
        pair = next(
            ((i, j) for i in active for j in active if i < j and a[i][j] != 0),
            None,
        )
        if pair is None:
            pivots.extend([zero] * len(active))
            break
        i, j = pair
        pivots.extend([Fraction(1), Fraction(-1)])
        active.remove(i)
        active.remove(j)
        p = a[i][j]
        for r in active:
            ci, cj = a[r][i], a[r][j]
            if ci == 0 and cj == 0:
                continue
            for s in active:
                # Schur complement of the block [[0,p],[p,0]]
                a[r][s] -= (ci * a[j][s] + cj * a[i][s]) / p
    return pivots, mult


def naive_solve(a, b):
    """The ``Fraction`` elimination that ``exact.solve`` replaced: Gauss-Jordan
    over Q with the first nonzero entry of each column as pivot and the free
    variables set to zero; oracle for the fraction-free elimination."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pr = aug[r]
        inv = 1 / pr[c]
        for j in range(c, cols + 1):
            pr[j] *= inv
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                for j in range(c, cols + 1):
                    aug[i][j] -= f * pr[j]
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    if any(aug[i][cols] != 0 for i in range(r, rows)):
        return None
    x = [Fraction(0)] * cols
    for i, c in pivots:
        x[c] = aug[i][cols]
    return x


def naive_matmul(a, b):
    """Triple loop; the width of the product is read from b (0 when b has
    no rows)."""
    cols = len(b[0]) if b else 0
    return [
        [sum((a[i][t] * b[t][j] for t in range(len(b))), 0) for j in range(cols)]
        for i in range(len(a))
    ]


small_square = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


def rational_rank(m):
    a = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c] / a[rank][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def int_matrix(rows, cols, bound):
    return st.lists(
        st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


def matrices(max_rows, max_cols, bound):
    """Dense matrices and rank-deficient products (rows x k)(k x cols)."""
    shape = st.tuples(
        st.integers(1, max_rows), st.integers(1, max_cols), st.integers(1, max_rows)
    )
    dense = shape.flatmap(lambda s: int_matrix(s[0], s[1], bound))
    product = shape.flatmap(
        lambda s: st.tuples(int_matrix(s[0], s[2], 5), int_matrix(s[2], s[1], 5))
    ).map(lambda ab: exact.matmul(*ab))
    return st.one_of(dense, product)


def symmetric(n, lo=-6, hi=6):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda m: [[m[i][j] if i <= j else m[j][i] for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# det


def test_det_examples():
    assert exact.det([[2, 1], [1, 2]]) == 3
    assert exact.det([[5]]) == 5
    assert exact.det([]) == 1
    assert exact.det([[0, 1], [1, 0]]) == -1


def test_det_requires_square():
    with pytest.raises(ValueError):
        exact.det([[1, 2, 3], [4, 5, 6]])


@settings(max_examples=60, deadline=None)
@given(small_square)
def test_det_matches_laplace(m):
    assert exact.det(m) == laplace_det(m)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3),
)
def test_det_multiplicative_on_blocks(a, b):
    block = [row + [0, 0, 0] for row in a] + [[0, 0, 0] + row for row in b]
    assert exact.det(block) == exact.det(a) * exact.det(b)


def test_det_huge_entries_exact():
    big = 10**40
    m = [[big, 1], [1, big]]
    assert exact.det(m) == big * big - 1


# ---------------------------------------------------------------------------
# Smith normal form


def check_snf(m):
    d, u, v = exact.smith_normal_form(m)
    assert exact.matmul(exact.matmul(u, m), v) == d
    assert abs(exact.det(u)) == 1
    assert abs(exact.det(v)) == 1
    diag = [d[i][i] for i in range(min(len(m), len(m[0])))]
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if b != 0:
            assert a != 0 and b % a == 0
        for i, row in enumerate(d):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0
    return diag


def test_snf_identity():
    d, u, v = exact.smith_normal_form(exact.identity(3))
    assert d == u == v == exact.identity(3)


def test_snf_rank_one_negative():
    d, u, v = exact.smith_normal_form([[-2]])
    assert d == [[2]]
    assert exact.matmul(exact.matmul(u, [[-2]]), v) == [[2]]


@settings(max_examples=80, deadline=None)
@given(matrices(12, 12, 30))
def test_snf_random(m):
    diag = check_snf(m)
    if sympy_snf is not None:
        s = sympy_snf(Matrix(m), domain=ZZ)
        assert sorted(diag) == sorted(abs(int(s[i, i])) for i in range(len(diag)))


def test_snf_det_consistency():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    diag = check_snf(m)
    prod = 1
    for x in diag:
        prod *= x
    assert prod == abs(exact.det(m))


# ---------------------------------------------------------------------------
# kernels


def test_kernel_zero_matrix():
    assert exact.kernel_basis([[0, 0], [0, 0]]) == [[1, 0], [0, 1]]


def test_kernel_row():
    (v,) = exact.kernel_basis([[1, 1]])
    assert v in ([1, -1], [-1, 1])


def test_kernel_saturated():
    # the kernel of [[2, 4]] is generated by (2, -1), not (4, -2)
    (v,) = exact.kernel_basis([[2, 4]])
    assert sorted(map(abs, v)) == [1, 2]
    assert exact.gcd_vector(v) == 1


@settings(max_examples=60, deadline=None)
@given(matrices(6, 8, 6))
def test_kernel_annihilates(m):
    kern = exact.kernel_basis(m)
    for v in kern:
        assert exact.mat_vec(m, v) == [0] * len(m)
    cols = len(m[0])
    assert len(kern) == cols - rational_rank(m)
    if kern:
        # the maximal minors are coprime exactly when the span is saturated
        minors = [
            exact.det([[v[j] for j in cs] for v in kern])
            for cs in combinations(range(cols), len(kern))
        ]
        assert gcd(*minors) == 1


# ---------------------------------------------------------------------------
# signature


def test_signature_examples():
    assert exact.signature([[0, 1], [1, 0]]) == (1, 0, 1)
    assert exact.signature([[2]]) == (1, 0, 0)
    assert exact.signature([[0]]) == (0, 1, 0)


def test_signature_non_symmetric_rejected():
    with pytest.raises(ValueError):
        exact.signature([[0, 1], [2, 0]])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(symmetric))
def test_signature_matches_charpoly(m):
    assert exact.signature(m) == signature_by_descartes(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(symmetric))
def test_signature_counts_rank(m):
    pos, zero, neg = exact.signature(m)
    assert pos + zero + neg == len(m)
    assert zero == len(exact.kernel_basis(m))


def zero_diagonal(n):
    return symmetric(n).map(
        lambda m: [[0 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)]
    )


def degenerate(n):
    """b^T a b with b of shape k x n, k < n: symmetric of rank below n."""
    return st.integers(0, n - 1).flatmap(
        lambda k: st.tuples(
            symmetric(k, -3, 3),
            st.lists(
                st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=k, max_size=k
            ),
        )
    ).map(
        lambda ab: exact.matmul(exact.matmul(exact.transpose(ab[1]), ab[0]), ab[1])
        if ab[1] else exact.zeros(n, n)
    )


def any_symmetric(lo=1, hi=8):
    return st.integers(lo, hi).flatmap(
        lambda n: st.one_of(symmetric(n), zero_diagonal(n), degenerate(n))
    )


def is_rational_square(x):
    x = Fraction(x)
    if x < 0:
        return False
    num, den = x.numerator, x.denominator
    return isqrt(num) ** 2 == num and isqrt(den) ** 2 == den


def test_ldl_examples():
    assert exact.ldl([[0, 1], [1, 0]])[0] == [1, -1]
    assert exact.ldl([[0, 0], [0, 0]])[0] == [0, 0]
    pivots, mult, det = exact.ldl([[2, 1], [1, 2]])
    assert pivots == [2, Fraction(3, 2)]
    assert mult[0][1] == Fraction(1, 2)
    assert det == 3
    assert exact.ldl([[0, 1], [1, 0]])[2] == -1
    assert exact.ldl([[0, 0], [0, 0]])[2] == 0
    assert exact.ldl([]) == ([], [], 1)


def test_ldl_rejects_non_integer_entries():
    for bad in ([[Fraction(1, 2)]], [[2, 1.0], [1.0, 2]], [[Fraction(2), 1], [1, 2]]):
        with pytest.raises(ValueError, match="integer"):
            exact.ldl(bad)
        with pytest.raises(ValueError, match="integer"):
            exact.signature(bad)


@settings(max_examples=250, deadline=None)
@given(
    st.one_of(
        any_symmetric(),
        st.integers(1, 12).flatmap(lambda n: st.one_of(symmetric(n, -30, 30), degenerate(n))),
    )
)
def test_ldl_matches_the_fraction_elimination(m):
    pivots, mult, det = exact.ldl(m)
    assert (pivots, mult) == naive_ldl(m)
    assert det == exact.det(m)


@settings(max_examples=60, deadline=None)
@given(any_symmetric())
def test_ldl_pivots_give_inertia_and_det_class(m):
    pivots, _, _ = exact.ldl(m)
    assert len(pivots) == len(m)
    pos = sum(1 for p in pivots if p > 0)
    neg = sum(1 for p in pivots if p < 0)
    assert (pos, len(m) - pos - neg, neg) == signature_by_descartes(m)
    d = exact.det(m)
    prod = Fraction(1)
    for p in pivots:
        prod *= p
    if d == 0:
        assert prod == 0
    else:
        assert is_rational_square(prod * d)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(symmetric))
def test_ldl_reconstructs_positive_definite(b):
    # g = b b^T + I is positive definite, so the pivots come in index order
    # and g = L D L^T with L unit lower triangular, L[i][j] = u[j][i]
    n = len(b)
    g = exact.matmul(b, exact.transpose(b))
    for i in range(n):
        g[i][i] += 1
    d, u, _ = exact.ldl(g)
    assert all(p > 0 for p in d)
    low = [[u[j][i] if j < i else Fraction(i == j) for j in range(n)] for i in range(n)]
    diag = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    assert exact.matmul(exact.matmul(low, diag), exact.transpose(low)) == g


# ---------------------------------------------------------------------------
# solve


def test_solve_identity():
    assert exact.solve(exact.identity(3), [1, 2, 3]) == [1, 2, 3]


def test_solve_inconsistent():
    assert exact.solve([[1, 1], [1, 1]], [1, 2]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        exact.solve([[1, 2]], [1, 2])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-8, 8), min_size=3, max_size=3), min_size=3, max_size=3
    ),
    st.lists(st.integers(-8, 8), min_size=3, max_size=3),
)
def test_solve_verifies(a, b):
    x = exact.solve(a, b)
    if x is not None:
        assert exact.mat_vec(a, x) == [Fraction(t) for t in b]


# integers, Fractions and many zeros, as in sparse lattice bases
entries = st.one_of(
    st.just(0), st.integers(-9, 9), st.fractions(-9, 9, max_denominator=7)
)


def entry_matrix(rows, cols):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@st.composite
def linear_systems(draw):
    """Square, rectangular and rank-deficient a; b either a*x for a drawn x
    (consistent) or drawn freely (often inconsistent when a is deficient)."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if draw(st.booleans()):
        a = draw(entry_matrix(rows, cols))
    else:
        inner = draw(st.integers(0, min(rows, cols)))
        a = naive_matmul(draw(entry_matrix(rows, inner)), draw(entry_matrix(inner, cols)))
        if inner == 0:
            a = [[0] * cols for _ in range(rows)]
    if draw(st.booleans()):
        x = draw(st.lists(entries, min_size=cols, max_size=cols))
        b = [sum((p * q for p, q in zip(row, x)), 0) for row in a]
    else:
        b = draw(st.lists(entries, min_size=rows, max_size=rows))
    return a, b


@settings(max_examples=400, deadline=None)
@given(linear_systems())
def test_solve_matches_the_fraction_elimination(system):
    a, b = system
    x = exact.solve(a, b)
    assert x == naive_solve(a, b)
    if x is not None:
        assert all(type(t) is Fraction for t in x)
        assert [sum((p * t for p, t in zip(row, x)), 0) for row in a] == b


def test_solve_examples_with_fractions():
    # rank-deficient, consistent: free variable x_1 = 0
    assert exact.solve([[2, 4], [1, 2]], [Fraction(1, 3), Fraction(1, 6)]) == [
        Fraction(1, 6),
        0,
    ]
    # rank-deficient, inconsistent
    assert exact.solve([[2, 4], [1, 2]], [1, 1]) is None
    # Fraction coefficients, 3 x 2
    a = [[Fraction(1, 2), 0], [0, Fraction(2, 3)], [1, 1]]
    assert exact.solve(a, [1, 2, 5]) == [2, 3]
    assert exact.solve(a, [1, 2, 4]) is None
    assert exact.solve([], []) == []


@st.composite
def products(draw):
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    a = draw(entry_matrix(r, k))
    if r and draw(st.booleans()):
        a[draw(st.integers(0, r - 1))] = [0] * k
    return a, draw(entry_matrix(k, c))


@settings(max_examples=300, deadline=None)
@given(products())
def test_matmul_matches_the_triple_loop(ab):
    a, b = ab
    assert exact.matmul(a, b) == naive_matmul(a, b)


def test_matmul_edge_shapes():
    assert exact.matmul([], [[1, 2]]) == []  # 0 x 1 times 1 x 2
    assert exact.matmul([[1], [2]], [[]]) == [[], []]  # 2 x 1 times 1 x 0
    assert exact.matmul([[0, 0]], [[1, 2], [3, 4]]) == [[0, 0]]
    with pytest.raises(ValueError):
        exact.matmul([[1, 2]], [[1, 2]])


def test_ragged_matrices_are_rejected():
    # zip would silently drop the extra entries
    with pytest.raises(ValueError, match="ragged"):
        exact.solve([[1, 0], [0, 1, 5]], [1, 2])
    with pytest.raises(ValueError, match="ragged"):
        exact.matmul([[1, 2], [3, 4, 5]], exact.identity(2))
    with pytest.raises(ValueError, match="ragged"):
        exact.matmul(exact.identity(2), [[1, 2], [3, 4, 5]])
    with pytest.raises(ValueError, match="ragged"):
        exact.mat_vec([[1, 2], [3, 4, 5]], [1, 1])


# ---------------------------------------------------------------------------
# Hermite row basis


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=1, max_size=5
    )
)
def test_hermite_preserves_span(rows):
    basis = exact.hermite_row_basis(rows)
    # every original row reduces to zero against the basis
    for row in rows:
        v = list(row)
        for b in basis:
            piv = next((j for j, x in enumerate(b) if x != 0), None)
            if piv is not None and v[piv] % b[piv] == 0:
                q = v[piv] // b[piv]
                v = [x - q * y for x, y in zip(v, b)]
        assert all(x == 0 for x in v)


def test_hermite_canonical():
    a = exact.hermite_row_basis([[2, 0], [0, 2], [1, 1]])
    b = exact.hermite_row_basis([[1, 1], [1, -1]])
    assert a == b == [[1, 1], [0, 2]]



# ---------------------------------------------------------------------------
# coefficient-box enumeration


def brute_norm(g, c):
    n = len(g)
    return sum(c[i] * g[i][j] * c[j] for i in range(n) for j in range(n))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(symmetric), st.integers(0, 3))
def test_box_norms_walks_the_product_box(g, bound):
    box = list(product(range(-bound, bound + 1), repeat=len(g)))
    got = list(exact.box_norms(g, bound))
    assert [c for c, _ in got] == box
    assert [q for _, q in got] == [brute_norm(g, c) for c in box]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            symmetric(n), st.lists(st.integers(-3, 3), min_size=1, max_size=n)
        )
    ),
    st.integers(0, 2),
)
def test_box_norms_after_a_fixed_prefix(g_prefix, bound):
    g, prefix = g_prefix
    box = list(product(range(-bound, bound + 1), repeat=len(g) - len(prefix)))
    got = list(exact.box_norms(g, bound, prefix))
    assert got == [(c, brute_norm(g, tuple(prefix) + c)) for c in box]
