"""Tests for the exact linear algebra kernel.

Determinants are cross-checked against naive Laplace expansion, signatures
against Descartes' rule applied to the (real-rooted) characteristic
polynomial computed by division-free Faddeev-LeVerrier.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from k3lattice import ellsurf as es
from k3lattice import exact, glue, k3embed as ke, lattice as lat, quadform as qf

try:  # optional oracle for the invariant factors
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
except ImportError:
    sympy_snf = None

# ---------------------------------------------------------------------------
# oracles
# one reference per kernel, each computing its answer without the kernel's code


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
    """Symmetric elimination over Q in ``Fraction``s, with the pivot order,
    hyperbolic rule and degenerate tail of ``exact.ldl`` on the rational
    Schur complements: the reference for the pivots of ``exact.ldl``, and
    through its multipliers for ``k3embed.short_vectors``.  Returns the
    pivots and the multipliers as ``Fraction``s: row r was reduced with
    pivot ``piv`` by ``mult[piv][r]``.  For a positive-definite m the pivots
    come in index order and
    q(x) = sum_i pivots[i] (x_i + sum_{j>i} mult[i][j] x_j)^2."""
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


def eager_solve(a, b):
    """Fraction-free Gauss-Jordan elimination (Bareiss) on the integer rows
    that clear each equation's denominators, every row rescaled by p/d at
    each pivot, with the first nonzero entry of each column as pivot and the
    free variables set to zero: the reference for ``exact.solve`` and, in
    test_lattice, for ``lattice.contains_ambient``.  It shares no code with
    the Hermite basis that both read."""
    rows, cols = len(a), len(a[0]) if a else 0
    aug = []
    for row, rhs in zip(a, b):
        entries = [Fraction(x) for x in [*row, rhs]]
        den = 1
        for x in entries:
            den = den * x.denominator // gcd(den, x.denominator)
        aug.append([x.numerator * (den // x.denominator) for x in entries])
    pivot_cols = []
    d = 1
    for c in range(cols):
        r = len(pivot_cols)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        prow = aug[r]
        p = prow[c]
        tail = prow[c:]
        for i, row in enumerate(aug):
            if i == r:
                continue
            f = row[c]
            if f:
                row[c:] = [(p * x - f * y) // d for x, y in zip(row[c:], tail)]
            elif p != d:
                row[c:] = [p * x // d for x in row[c:]]
        d = p
        pivot_cols.append(c)
    if any(row[cols] for row in aug[len(pivot_cols) :]):
        return None
    x = [Fraction(0)] * cols
    for row, c in zip(aug, pivot_cols):
        x[c] = Fraction(row[cols], d)
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


# every public kernel that eliminates or enumerates over the integers, with
# an input that reaches its integer check
INTEGER_KERNELS = {
    "det": lambda x: exact.det([[x]]),
    "smith_normal_form": lambda x: exact.smith_normal_form([[x]]),
    "smith_diagonal": lambda x: exact.smith_diagonal([[x]]),
    "kernel_basis": lambda x: exact.kernel_basis([[x, 1]]),
    "ldl": lambda x: exact.ldl([[x]]),
    "signature": lambda x: exact.signature([[x]]),
    "lll": lambda x: exact.lll([[x]]),
    "hermite_row_basis": lambda x: exact.hermite_row_basis([[x]]),
    "echelon_coordinates": lambda x: exact.echelon_coordinates([[1]], [x], 1),
    "hermite_basis_mod": lambda x: exact.hermite_basis_mod([[x, 0]], 3, 2),
    "index": lambda x: exact.index([[x]]),
    "box_vectors": lambda x: list(exact.box_vectors([[x]], 1, [0])),
}


@pytest.mark.parametrize("value", [2.0, Fraction(1, 2), True], ids=["float", "Fraction", "bool"])
@pytest.mark.parametrize("name", sorted(INTEGER_KERNELS))
def test_integer_kernels_refuse_non_integers(name, value):
    # refused by name: the eliminations would otherwise run on the float or
    # Fraction and return a wrong value of the wrong type, such as a Smith
    # diagonal of floats, instead of an error
    with pytest.raises(ValueError, match=f"^{name} needs integer entries$"):
        INTEGER_KERNELS[name](value)


# integer parameters beside the matrices, each checked at entry
INTEGER_PARAMETERS = {
    "box_vectors": lambda x: list(exact.box_vectors([[-2]], x, [-2])),
    "short_vectors": lambda x: ke.short_vectors([[2]], x),
    "even_overlattices": lambda x: glue.even_overlattices(lat.hyperbolic(), x),
    "has_k_planes": lambda x: qf.has_k_planes([[1, 0], [0, -1]], x, qf.GLOBAL),
    "root_lattice": lambda x: lat.root_lattice("A", x),
    "rank_one": lambda x: lat.rank_one(x),
    "lambda_lattice": lambda x: glue.lambda_lattice(x),
}


@pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("name", sorted(INTEGER_PARAMETERS))
def test_integer_parameters_refuse_non_integers(name, value):
    # 2.5 used to raise a TypeError from range or read as an odd norm, and
    # True ran as 1
    with pytest.raises(ValueError, match=f"^{name} needs integer entries$"):
        INTEGER_PARAMETERS[name](value)


BOX_CALLERS = {
    "box_vectors": INTEGER_PARAMETERS["box_vectors"],
    "isometry_search": lambda b: ke.isometry_search(lat.root_lattice("A", 2),
                                                    lat.root_lattice("A", 2), b),
    "find_isotropic_glue": lambda b: glue.find_isotropic_glue(lat.hyperbolic(), [1, 0], 1,
                                                              [[0, 1]], b),
}


@pytest.mark.parametrize("name", sorted(BOX_CALLERS))
def test_box_callers_refuse_a_negative_bound(name):
    # an empty box would answer None, which reads as "none found"
    with pytest.raises(ValueError, match="^box_vectors needs a nonnegative bound$"):
        BOX_CALLERS[name](-1)


OVERLATTICE_CALLERS = {
    "even_overlattices": glue.even_overlattices,
    "even_overlattice_forms": glue.even_overlattice_forms,
}


@pytest.mark.parametrize("name", sorted(OVERLATTICE_CALLERS))
def test_overlattice_callers_refuse_a_negative_max_index(name):
    # -1 would give the base alone, which reads as "no proper overlattice";
    # the forms are a generator, so only next() reaches the check
    u2 = lat.rescale(lat.hyperbolic(), 2)
    call = OVERLATTICE_CALLERS[name]
    with pytest.raises(ValueError, match="^even_overlattices needs a nonnegative max_index$"):
        next(iter(call(u2, -1)))
    # U(2) has two isotropic subgroups of order 2, e/2 and f/2
    assert [len(list(call(u2, m))) for m in (0, 1, 2)] == [1, 1, 3]


def test_det_huge_entries_exact():
    big = 10**40
    m = [[big, 1], [1, big]]
    assert exact.det(m) == big * big - 1


def test_det_rejects_non_integer_entries():
    # floor division would return -1 and 0.0 here, not -2/3 and 0.5
    for bad in ([[Fraction(1, 3), 1], [1, 1]], [[1.5, 1], [1, 1]], [[True]]):
        with pytest.raises(ValueError, match="det needs integer entries"):
            exact.det(bad)


@st.composite
def sparse_squares(draw, max_n=6):
    """Zero-heavy square matrices: plain, symmetric, with a zero diagonal
    (so the first pivot is missing) or singular (one row a multiple of
    another, or zero)."""
    n = draw(st.integers(1, max_n))
    entry = st.sampled_from([0] * 6 + [1, -1, 2, -2, 3, -5])
    m = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    shape = draw(st.sampled_from(["plain", "symmetric", "zero diagonal", "singular"]))
    if shape == "symmetric":
        m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    elif shape == "zero diagonal":
        for i in range(n):
            m[i][i] = 0
    elif shape == "singular":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-2, 2))
        m[i] = [c * x for x in m[j]] if i != j else [0] * n
    return m


@settings(max_examples=300, deadline=None)
@given(sparse_squares())
def test_det_matches_laplace_on_sparse_matrices(m):
    assert exact.det(m) == laplace_det(m)


@settings(max_examples=100, deadline=None)
@given(sparse_squares().flatmap(lambda m: st.tuples(st.just(m), st.permutations(range(len(m))))))
def test_det_is_invariant_under_symmetric_permutation(m_perm):
    m, perm = m_perm
    assert exact.det([[m[i][j] for j in perm] for i in perm]) == exact.det(m)


@st.composite
def block_structured(draw, max_n=8):
    """A diagonal block of k >= 2 pivots bordered by r rows, hidden by a
    symmetric permutation: distinct diagonal entries (their lcm is less than
    their product), repeated block rows (applied once as a class), zero
    diagonal entries outside the block, a Schur complement made singular, a
    row that meets a block row's column but not its row, or a permuted
    diagonal matrix."""
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(2, n))
    entry = st.sampled_from([0] * 4 + [1, -1, 2, -3])
    deltas = draw(st.lists(st.sampled_from([1, -1, 2, -2, 4, 6, -6, 12]), min_size=k, max_size=k))
    m = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    for i in range(k):
        m[i][:k] = [deltas[i] if j == i else 0 for j in range(k)]
        for j in range(k, n):
            m[j][i] = draw(entry)
    shape = draw(
        st.sampled_from(
            ["plain", "symmetric", "repeated", "zero diagonal", "singular", "one-sided", "permuted"]
        )
    )
    if shape == "symmetric":
        m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    elif shape == "repeated":
        for i in range(1, k):
            m[i][k:] = m[0][k:]
    elif shape == "zero diagonal":
        for j in range(k, n):
            m[j][j] = 0
    elif shape == "singular" and k < n:
        # row k = c * (block row 0): its row of the Schur complement is zero
        c = draw(st.integers(-2, 2))
        m[k] = [c * x for x in m[0]]
    elif shape == "one-sided":
        # row 0 is zero off its diagonal, so a row j with m[j][0] != 0
        # meets it in its row only
        m = [[x if i == j or i else 0 for j, x in enumerate(row)] for i, row in enumerate(m)]
        for i in range(1, n):
            m[i][i] = m[i][i] or 1
    elif shape == "permuted":
        perm = draw(st.permutations(range(n)))
        m = [[deltas[i % k] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    return [[m[i][j] for j in perm] for i in perm]


@settings(max_examples=300, deadline=None)
@given(block_structured())
def test_det_schur_step_matches_laplace(m):
    assert exact.det(m) == laplace_det(m)


@settings(max_examples=100, deadline=None)
@given(block_structured(14))
def test_det_schur_step_matches_the_plain_elimination(m):
    # the helper run from divisor 1 on every row is the elimination without
    # the block step, in the order given
    assert exact.det(m) == exact._bareiss(exact.copy_matrix(m), 1, [1] * len(m))


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


def reference_hermite(a, u=None):
    """Row Hermite form of ``a`` in place, returning its rank.  Per column,
    the smallest nonzero entry at or below the pivot row is swapped into it
    and divides into the entries below, again until only it is nonzero;
    the pivot is made positive and the entries above it reduced into
    [0, pivot).
    Every row operation runs over whole rows of ``a`` and of ``u``.
    ``exact._hermite`` must return exactly this."""
    mats = (a,) if u is None else (a, u)

    def sub(i, k, q):
        for mat in mats:
            mat[i] = [x - q * y for x, y in zip(mat[i], mat[k])]

    rows = len(a)
    r = 0
    for c in range(len(a[0]) if rows else 0):
        if r == rows:
            break
        nz = [i for i in range(r, rows) if a[i][c]]
        if not nz:
            continue
        while True:
            p = min(nz, key=lambda i: abs(a[i][c]))
            for mat in mats:
                mat[r], mat[p] = mat[p], mat[r]
            below = [i for i in range(r + 1, rows) if a[i][c]]
            if not below:
                break
            for i in below:
                sub(i, r, a[i][c] // a[r][c])
            nz = [r] + [i for i in below if a[i][c]]
        if a[r][c] < 0:
            for mat in mats:
                mat[r] = [-x for x in mat[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                sub(i, r, q)
        r += 1
    return r


def reference_smith_normal_form(m):
    """Smith form ``(d, u, v)`` with u*m*v = d: row and column passes of
    ``reference_hermite`` alternate until the matrix is diagonal; then the
    first pair d_i, d_j (i < j) with d_i not dividing d_j has column j
    added to column i, and the passes start again."""
    rows, cols = len(m), len(m[0])
    a = [list(row) for row in m]
    u = exact.identity(rows)
    vt = exact.identity(cols)
    while True:
        reference_hermite(a, u)
        if any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            at = exact.transpose(a)
            reference_hermite(at, vt)
            a = exact.transpose(at)
            continue
        diag = [a[i][i] for i in range(min(rows, cols))]
        pairs = ((i, j) for j in range(len(diag)) for i in range(j))
        bad = next(((i, j) for i, j in pairs if diag[i] and diag[j] % diag[i]), None)
        if bad is None:
            return a, u, exact.transpose(vt)
        i, j = bad
        a[j][i] = a[j][j]
        vt[i] = [x + y for x, y in zip(vt[i], vt[j])]


@st.composite
def hermite_inputs(draw):
    """Rectangular matrices, some with repeated or combined rows (rank
    deficient) and some with zeroed columns."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    bound = draw(st.sampled_from([1, 3, 30]))
    m = draw(int_matrix(rows, cols, bound))
    for _ in range(draw(st.integers(0, rows - 1))):
        i, j, k = (draw(st.integers(0, rows - 1)) for _ in range(3))
        f = draw(st.integers(-2, 2))
        m[i] = [x + f * y for x, y in zip(m[j], m[k])]
    for c in draw(st.lists(st.integers(0, cols - 1), max_size=cols)):
        for row in m:
            row[c] = 0
    return m


@st.composite
def even_grams(draw, min_n=1, max_n=12, bound=2):
    """Even Gram matrices, off-diagonal entries in [-bound, bound] and
    diagonal entries twice that."""
    n = draw(st.integers(min_n, max_n))
    size = n * (n + 1) // 2
    entries = iter(draw(st.lists(st.integers(-bound, bound), min_size=size, max_size=size)))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * next(entries)
        for j in range(i):
            g[i][j] = g[j][i] = next(entries)
    return g


# rank 16-22, entries in {-1, 0, 1} and diagonal in {-2, 0, 2}, as in the
# random benchmark matrices: long runs of unit pivots, so the reduction
# above the pivots works over many finished rows
WIDE_EVEN_GRAMS = even_grams(16, 22, 1)


def check_hermite_against_the_reference(m, with_companion):
    a, b = [list(row) for row in m], [list(row) for row in m]
    u = exact.identity(len(m)) if with_companion else None
    w = exact.identity(len(m)) if with_companion else None
    assert exact._hermite(a, u) == reference_hermite(b, w)
    assert a == b and u == w


@settings(max_examples=300, deadline=None)
@given(st.one_of(hermite_inputs(), WIDE_EVEN_GRAMS), st.booleans())
def test_hermite_equals_the_reference(m, with_companion):
    check_hermite_against_the_reference(m, with_companion)


@pytest.mark.parametrize("with_companion", [False, True])
@pytest.mark.parametrize("name", sorted(glue.NAMED_BUILDERS))
def test_hermite_equals_the_reference_on_named_grams(name, with_companion):
    check_hermite_against_the_reference(glue.build_named(name).gram, with_companion)


@settings(max_examples=150, deadline=None)
@given(st.one_of(hermite_inputs(), WIDE_EVEN_GRAMS))
def test_index_and_kernel_basis_read_the_reference_echelon(m):
    # index is the product of the reference pivots at full rank, and the
    # kernel is the companion's rows past the rank of the transpose
    a, width = [list(row) for row in m], len(m[0])
    rank = reference_hermite(a)
    pivots = [next(x for x in row if x) for row in a[:rank]]
    assert exact.index(m) == (prod(pivots) if rank == width else 0)
    at, u = exact.transpose(m), exact.identity(width)
    assert exact.kernel_basis(m) == u[reference_hermite(at, u) :]


@st.composite
def modular_hermite_inputs(draw):
    """(rows, d, n) for ``hermite_basis_mod``: d prime, composite or 1,
    widths 0-8, 0-6 rows with negative entries, some rows zero."""
    d, n, k = draw(st.integers(1, 12)), draw(st.integers(0, 8)), draw(st.integers(0, 6))
    rows = draw(int_matrix(k, n, draw(st.sampled_from([1, 3, 30]))))
    for i in draw(st.lists(st.integers(0, k - 1), max_size=k)) if k else ():
        rows[i] = [0] * n
    return rows, d, n


def stacked_hermite_basis(rows, d, n):
    """The reference: the Hermite basis of [d*I_n; rows] by the generic
    elimination."""
    return exact.hermite_row_basis([[d * (i == j) for j in range(n)] for i in range(n)] + rows)


@settings(max_examples=400, deadline=None)
@given(modular_hermite_inputs())
def test_hermite_basis_mod_equals_the_stacked_hermite_basis(case):
    rows, d, n = case
    before = [list(row) for row in rows]
    basis = exact.hermite_basis_mod(rows, d, n)
    assert basis == stacked_hermite_basis(rows, d, n)
    assert rows == before
    # full rank, pivots on the diagonal dividing d
    assert all(d % basis[i][i] == 0 for i in range(n))


@st.composite
def mod_two_inputs(draw):
    """(rows, n) for ``hermite_basis_mod`` with d = 2, up to 32 rows of
    width up to 20, as KummerK's glue has 30 rows of width 16: sparse
    rows of both parities and signs, some repeated, so the rank mod 2
    varies."""
    n, k = draw(st.integers(0, 20)), draw(st.integers(0, 32))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, 3, -5])
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
    for i in range(1, k):
        if draw(st.booleans()):
            rows[i] = list(rows[draw(st.integers(0, i - 1))])
    return rows, n


@settings(max_examples=200, deadline=None)
@given(mod_two_inputs())
def test_hermite_basis_mod_two_equals_the_stacked_hermite_basis(case):
    # d = 2 reduces over F_2 with rows as bitmasks
    rows, n = case
    before = [list(row) for row in rows]
    assert exact.hermite_basis_mod(rows, 2, n) == stacked_hermite_basis(rows, 2, n)
    assert rows == before


def test_hermite_basis_mod_examples():
    assert exact.hermite_basis_mod([], 3, 2) == [[3, 0], [0, 3]]
    assert exact.hermite_basis_mod([[5, -7]], 1, 2) == [[1, 0], [0, 1]]
    assert exact.hermite_basis_mod([[2, 1]], 4, 2) == [[2, 1], [0, 2]]
    assert exact.hermite_basis_mod([[1, 1], [0, 0]], 4, 2) == [[1, 1], [0, 4]]
    assert exact.hermite_basis_mod([[1] * 3], 2, 3) == [[1, 1, 1], [0, 2, 0], [0, 0, 2]]
    for rows, d, n in (([[1, 2]], 0, 2), ([[1, 2]], -2, 2), ([[1, 2, 3]], 2, 2)):
        with pytest.raises(ValueError):
            exact.hermite_basis_mod(rows, d, n)


@settings(max_examples=200, deadline=None)
@given(st.one_of(hermite_inputs(), even_grams()))
def test_snf_equals_the_reference(m):
    assert exact.smith_normal_form(m) == reference_smith_normal_form(m)


@st.composite
def repair_heavy(draw):
    """Rectangular diagonal matrices, zero and negative entries included,
    whose entries mostly break divisibility, as a unit after a larger entry
    does; some gain one off-diagonal entry."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entries = st.sampled_from([0, 1, -1, 2, -3, 4, 6, -10, 15, 30, 246])
    m = [[0] * cols for _ in range(rows)]
    for i in range(min(rows, cols)):
        m[i][i] = draw(entries)
    if draw(st.booleans()):
        m[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(entries)
    return m


@settings(max_examples=300, deadline=None)
@given(repair_heavy())
def test_snf_equals_the_reference_on_repair_heavy_matrices(m):
    d, u, v = exact.smith_normal_form(m)
    assert (d, u, v) == reference_smith_normal_form(m)
    assert exact.smith_diagonal(m) == [d[i][i] for i in range(min(len(m), len(m[0])))]


# diagonal matrices whose pairs break divisibility, so the Smith driver
# repairs them on 2x2 blocks
REPAIR_DIAGONALS = [[2, 246, 1, 1, 1, 1], [6, 10, 15], [4, 6, 0, 9], [30, 1, 2, 3, 5]]


def test_smith_repairs_run_on_the_two_by_two_block(monkeypatch):
    # once the matrix is diagonal, a pair that breaks divisibility is
    # repaired by passes over its own 2x2 block, not over the whole matrix;
    # with no companions its gcd and lcm are written down with no pass.
    # smith_diagonal splits off unit pivots and content before any pass,
    # so the no-companion driver _smith is run directly on a copy
    calls = []
    hermite = exact._hermite

    def recorder(a, u=None):
        rank = hermite(a, u)
        calls.append((len(a), exact._is_diagonal(a)))
        return rank

    monkeypatch.setattr(exact, "_hermite", recorder)
    for entries in REPAIR_DIAGONALS:
        m = [[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)]
        out = []
        for run, passes in (
            (exact.smith_normal_form, {2}),
            (lambda m: exact._smith(exact.copy_matrix(m)), set()),
        ):
            calls.clear()
            out.append(run(m))
            first = next(k for k, (_, diagonal) in enumerate(calls) if diagonal)
            after = [rows for rows, _ in calls[first + 1 :]]
            assert set(after) == passes and bool(after) == bool(passes), (entries, run)
        d = out[0][0]
        assert out[1] == [d[i][i] for i in range(len(m))], entries
        assert exact.smith_diagonal(m) == [d[i][i] for i in range(len(m))], entries


@pytest.mark.parametrize("entries", REPAIR_DIAGONALS)
def test_smith_repairs_keep_every_companion_row_in_one_slot(entries):
    # the 2x2 repair hands u's own row objects to the block's passes, which
    # update companion rows in place; each must still end in one slot
    m = [[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)]
    d, u, v = exact.smith_normal_form(m)
    assert (d, u, v) == reference_smith_normal_form(m)
    for t in (u, v):
        assert len({id(row) for row in t}) == len(t)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-60, 60), max_size=8))
def test_smith_diagonal_of_a_diagonal_matrix_is_the_snf_diagonal(entries):
    # the gcd/lcm repair of smith_diagonal against smith_normal_form's
    # 2x2 passes
    m = [[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)]
    d, _, _ = exact.smith_normal_form(m)
    diag = exact.smith_diagonal(m)
    assert diag == [d[i][i] for i in range(len(m))]
    nonzero = [x for x in diag if x]
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    assert prod(nonzero) == prod(abs(x) for x in entries if x)


@st.composite
def unitless_matrices(draw):
    """Rectangular matrices with no +-1 entry, entries from
    {0, +-2, +-3, +-4, +-6}; some rows repeat or negate an earlier one, so
    some are rank-deficient."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entries = st.sampled_from([0, 2, -2, 3, -3, 4, -4, 6, -6])
    m = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    for i in range(1, rows):
        if draw(st.booleans()):
            m[i] = [draw(st.sampled_from([1, -1])) * x for x in m[draw(st.integers(0, i - 1))]]
    return m


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrices(6, 8, 6), unitless_matrices()), st.sampled_from([1, 2, 3, 4, 6, 12]))
def test_smith_diagonal_of_scaled_matrices_is_the_snf_diagonal(m, c):
    # for c > 1, c*M has content c and no unit entry, so smith_diagonal
    # first divides it out; c = 1 eliminates the unit entries of M in
    # place.  The diagonal has length min(rows, cols), zeros last
    cm = [[c * x for x in row] for row in m]
    before = [list(row) for row in cm]
    d, _, _ = exact.smith_normal_form(cm)
    diag = exact.smith_diagonal(cm)
    assert cm == before  # smith_diagonal works on a copy
    assert diag == [d[i][i] for i in range(min(len(cm), len(cm[0])))]
    rank = rational_rank(m)
    assert all(diag[:rank]) and not any(diag[rank:])
    assert all(x % c == 0 for x in diag)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.integers(1, 7).flatmap(lambda n: int_matrix(n, n, 30)), even_grams()
    ).filter(lambda m: exact.det(m) != 0)
)
def test_snf_of_the_hermite_basis_has_the_same_d_and_v(m):
    h = exact.hermite_row_basis(m)
    d, _, v = exact.smith_normal_form(h)
    d0, _, v0 = exact.smith_normal_form(m)
    assert (d, v) == (d0, v0)
    # the first row pass finds h reduced already
    a, u = [list(row) for row in h], exact.identity(len(h))
    exact._hermite(a, u)
    assert (a, u) == (h, exact.identity(len(h)))


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
    assert gcd(*v) == 1


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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.one_of(symmetric(n, -2, 2), int_matrix(n, n, 1))))
def test_is_symmetric_compares_rows_with_columns(m):
    n = len(m)
    assert exact.is_symmetric(m) == all(m[i][j] == m[j][i] for i in range(n) for j in range(i))
    assert exact.is_symmetric([tuple(row) for row in m]) == exact.is_symmetric(m)
    if n > 1:  # not square
        assert not exact.is_symmetric(m[:-1])
        assert not exact.is_symmetric([row[:-1] for row in m])


def test_signature_non_symmetric_rejected():
    with pytest.raises(ValueError):
        exact.signature([[0, 1], [2, 0]])
    with pytest.raises(ValueError):  # row 0 has no off-diagonal entry, column 0 has
        exact.signature([[1, 0], [2, 1]])


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


def inertia(pivots):
    pos, neg = sum(1 for p in pivots if p > 0), sum(1 for p in pivots if p < 0)
    return pos, len(pivots) - pos - neg, neg


@st.composite
def permuted_block_grams(draw):
    """(g, p): g block diagonal, blocks of size 1-4 among them zero and
    degenerate ones, and p = g under a random symmetric permutation."""
    blocks = draw(st.lists(st.integers(1, 4).flatmap(
        lambda n: st.one_of(symmetric(n), degenerate(n), st.just(exact.zeros(n, n)))
    ), max_size=6))
    n = sum(map(len, blocks))
    g, off = exact.zeros(n, n), 0
    for b in blocks:
        for i, row in enumerate(b):
            g[off + i][off : off + len(b)] = row
        off += len(b)
    perm = draw(st.permutations(range(n)))
    return g, [[g[i][j] for j in perm] for i in perm]


@settings(max_examples=300, deadline=None)
@given(permuted_block_grams())
def test_signature_of_permuted_block_grams_is_the_ldl_inertia(grams):
    g, p = grams
    assert exact.signature(p) == exact.signature(g) == inertia(exact.ldl(g)[0])
    assert exact.signature(p) == inertia(exact.ldl(p)[0])


def test_signature_reads_1x1_blocks_and_passes_the_rest_to_one_ldl(monkeypatch):
    seen = []
    ldl = exact.ldl

    def spy(m):
        seen.append(m)
        return ldl(m)

    monkeypatch.setattr(exact, "ldl", spy)
    # the A1^16 frame: sixteen 1x1 blocks, no ldl
    a1 = [[-2 if i == j else 0 for j in range(16)] for i in range(16)]
    assert exact.signature(a1) == (0, 0, 16)
    diag = [2] * 5 + [0] * 3 + [-4] * 8
    assert exact.signature([[x if i == j else 0 for j in range(16)] for i, x in enumerate(diag)]) == (5, 3, 8)
    assert seen == []
    # a matrix that is one block goes to ldl itself
    one = [[2, 1, 0], [1, 0, 1], [0, 1, -2]]
    assert exact.signature(one) == inertia(ldl(one)[0])
    assert len(seen) == 1 and seen[0] is one
    # two blocks of size 2 and a 1x1 block: the 2x2 blocks go to one ldl
    seen.clear()
    m = [[0, 0, 3, 0, 0], [0, 2, 0, 0, 1], [3, 0, 0, 0, 0], [0, 0, 0, -6, 0], [0, 1, 0, 0, 2]]
    assert exact.signature(m) == (3, 0, 2)
    assert [list(map(list, s)) for s in seen] == [[[0, 0, 3, 0], [0, 2, 0, 1], [3, 0, 0, 0], [0, 1, 0, 2]]]


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


def integer_pivots(m):
    """The pivots of ``naive_ldl`` as ``exact.ldl`` returns them: each
    numerator times its denominator in lowest terms."""
    return [f.numerator * f.denominator for f in naive_ldl(m)[0]]


def is_rational_square(x):
    x = Fraction(x)
    if x < 0:
        return False
    num, den = x.numerator, x.denominator
    return isqrt(num) ** 2 == num and isqrt(den) ** 2 == den


def test_ldl_examples():
    assert exact.ldl([[0, 1], [1, 0]])[0] == [1, -1]
    assert exact.ldl([[0, 0], [0, 0]])[0] == [0, 0]
    # pivots 3/2 and 5/2, returned as numerator times denominator
    assert exact.ldl([[2, 1], [1, 2]]) == ([2, 6], 3)
    assert exact.ldl([[-2, 1], [1, 2]]) == ([-2, 10], -5)
    assert exact.ldl([[0, 1], [1, 0]])[1] == -1
    assert exact.ldl([[0, 0], [0, 0]])[1] == 0
    assert exact.ldl([]) == ([], 1)


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
    pivots, det = exact.ldl(m)
    assert pivots == integer_pivots(m)
    assert det == exact.det(m)


@settings(max_examples=60, deadline=None)
@given(any_symmetric())
def test_ldl_pivots_give_inertia_and_det_class(m):
    pivots, _ = exact.ldl(m)
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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: symmetric(n, -3, 3)))
def test_lll_reconstructs_positive_definite(b):
    # g = b b^T + I is positive definite; its reduced basis r = u g u^T has
    # leading minors d and r = L D L^T with L[k][j] = lam[k][j] / d[j+1]
    # below the unit diagonal and D = d[i+1] / d[i], and is LLL reduced
    n = len(b)
    g = exact.matmul(b, exact.transpose(b))
    for i in range(n):
        g[i][i] += 1
    u, d, lam = exact.lll(g)
    assert n == 0 or abs(exact.det(u)) == 1
    r = exact.matmul(exact.matmul(u, g), exact.transpose(u))
    assert d == [exact.det([row[:i] for row in r[:i]]) for i in range(n + 1)]
    low = [
        [Fraction(lam[k][j], d[j + 1]) if j < k else Fraction(j == k) for j in range(n)]
        for k in range(n)
    ]
    diag = [[Fraction(d[i + 1], d[i]) if i == j else 0 for j in range(n)] for i in range(n)]
    assert exact.matmul(exact.matmul(low, diag), exact.transpose(low)) == r
    assert all(2 * abs(lam[k][j]) <= d[j + 1] for k in range(n) for j in range(k))
    for k in range(1, n):
        assert 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: symmetric(n, -4, 4)))
def test_lll_rejects_indefinite_and_semidefinite(m):
    # m when it is not positive definite, and c^T c for c = m without its
    # last row, positive semidefinite and singular
    semi = exact.matmul(exact.transpose(m[:-1]), m[:-1]) if len(m) > 1 else [[0]]
    for g in (m, semi):
        if exact.signature(g)[0] < len(g):
            with pytest.raises(ValueError, match="not positive definite"):
                exact.lll(g)
    for bad in ([[1, 2], [2, 1]], [[1, 1], [1, 1]], [[0]], [[2, 0], [0, -1]]):
        with pytest.raises(ValueError, match="not positive definite"):
            exact.lll(bad)


@settings(max_examples=150, deadline=None)
@given(st.one_of(any_symmetric(), sparse_squares().filter(exact.is_symmetric)))
def test_det_equals_the_ldl_determinant(m):
    assert exact.det(m) == exact.ldl(m)[1]


def banded(n, width):
    return symmetric(n, -4, 4).map(
        lambda m: [
            [x if abs(i - j) <= width else 0 for j, x in enumerate(row)]
            for i, row in enumerate(m)
        ]
    )


def block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    m = exact.zeros(n, n)
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            m[at + i][at : at + len(b)] = row
        at += len(b)
    return m


# banded and block-diagonal matrices and the table-1 intersection matrices,
# where most multipliers are zero, so the per-row divisor is exercised
mostly_zero_symmetric = st.one_of(
    st.tuples(st.integers(1, 12), st.integers(0, 2)).flatmap(lambda nw: banded(*nw)),
    st.lists(any_symmetric(1, 4), min_size=1, max_size=4).map(block_diagonal),
    st.tuples(st.integers(1, 3), st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda nab: es.table1_matrix(*nab)
    ),
    sparse_squares(9).filter(exact.is_symmetric),
)


@settings(max_examples=200, deadline=None)
@given(mostly_zero_symmetric)
def test_ldl_matches_the_fraction_elimination_on_mostly_zero_matrices(m):
    pivots, det = exact.ldl(m)
    assert pivots == integer_pivots(m)
    assert det == exact.det(m)


# ---------------------------------------------------------------------------
# solve


@st.composite
def echelon_queries(draw):
    """(rows, v, den): rows the Hermite basis of drawn integer rows, den in
    {1, 2, 3, 6}, and v den times an integer combination of the rows (in
    the lattice), the combination itself (integral coordinates only when
    den divides them), that plus a unit vector, or drawn freely (mostly
    outside the rational span)."""
    m = draw(hermite_inputs())
    rows, cols = exact.hermite_row_basis(m), len(m[0])
    den = draw(st.sampled_from([1, 2, 3, 6]))
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=len(rows), max_size=len(rows)))
    combo = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(cols)]
    kind = draw(st.sampled_from(["member", "combination", "shifted", "free"]))
    if kind == "member":
        v = [den * x for x in combo]
    elif kind == "combination":
        v = combo
    elif kind == "shifted":
        j = draw(st.integers(0, cols - 1))
        v = [x + (i == j) for i, x in enumerate(combo)]
    else:
        v = draw(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols))
    return rows, v, den


def reference_coordinates(rows, v, den):
    """The coordinates of v / den in the independent rows by ``eager_solve``,
    when they are integers, else None."""
    if not rows:
        return None if any(v) else []
    x = eager_solve(exact.transpose(rows), [Fraction(t, den) for t in v])
    if x is None or any(t.denominator != 1 for t in x):
        return None
    return [t.numerator for t in x]


@settings(max_examples=200, deadline=None)
@given(echelon_queries())
def test_echelon_coordinates_match_solve(query):
    rows, v, den = query
    assert exact.echelon_coordinates(rows, v, den) == reference_coordinates(rows, v, den)


def test_echelon_coordinates_refuse_a_vector_of_another_length():
    with pytest.raises(ValueError, match="ragged"):
        exact.echelon_coordinates([[1, 0], [0, 2]], [1, 0, 0], 1)
    assert exact.echelon_coordinates([[1, 0], [0, 2]], [2, 4], 2) == [1, 1]
    assert exact.echelon_coordinates([[1, 0], [0, 2]], [2, 2], 2) is None


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
def test_solve_matches_the_fraction_free_elimination(system):
    a, b = system
    x = exact.solve(a, b)
    assert x == eager_solve(a, b)
    if x is not None:
        assert all(type(t) is Fraction for t in x)
        assert [sum((p * t for p, t in zip(row, x)), 0) for row in a] == b


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        linear_systems(),
        mostly_zero_symmetric.flatmap(
            lambda m: st.tuples(st.just(m), st.lists(entries, min_size=len(m), max_size=len(m)))
        ),
    )
)
def test_solve_equals_the_eager_elimination(system):
    a, b = system
    assert exact.solve(a, b) == eager_solve(a, b)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=40))))
def test_numerators_round_trip(v):
    ints, den = exact.numerators(v)
    assert all(type(x) is int for x in ints) and type(den) is int
    assert den > 0 and den == lcm(*(Fraction(x).denominator for x in v))
    assert [Fraction(n, den) for n in ints] == [Fraction(x) for x in v]
    as_ints = [int(x) for x in v if Fraction(x).denominator == 1]
    assert exact.numerators(as_ints) == (as_ints, 1)


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


class Counted(int):
    """An int whose products are logged as (self, other) in ``log``; its
    products and differences stay ``Counted``, so every row an elimination
    derives from counted entries is counted too."""

    log: list[tuple[int, int]] = []

    def __mul__(self, other):
        Counted.log.append((int(self), int(other)))
        return Counted(int(self) * int(other))

    __rmul__ = __mul__

    def __sub__(self, other):
        return Counted(int(self) - int(other))

    def __rsub__(self, other):
        return Counted(int(other) - int(self))

    def __neg__(self):
        return Counted(-int(self))


def counted(m):
    return [[Counted(x) for x in row] for row in m]


def test_matmul_multiplies_only_nonzero_pairs():
    # a row of a weights rows of b by its nonzero entries only, and each
    # such row adds only its own nonzeros: a unit row costs the nonzeros of
    # the row of b it picks
    g = glue.build_named("N1").gram
    a = [exact.identity(len(g))[i] for i in (0, 3, 9, 15)] + [[0] * len(g)]
    Counted.log = []
    assert exact.matmul(a, counted(g)) == naive_matmul(a, g)
    nnz = sum(len(list(filter(None, g[k]))) for row in a for k, x in enumerate(row) if x)
    assert len(Counted.log) == nnz


@pytest.mark.parametrize("phase", ["_echelon", "_hermite"])
def test_row_operations_never_multiply_a_zero(phase):
    # reducing a row subtracts q times the pivot row and q times its
    # companion on their nonzero entries only; q itself is never 0
    g = glue.build_named("N1").gram
    a, u = counted(g), counted(exact.identity(len(g)))
    plain_a, plain_u = exact.copy_matrix(g), exact.identity(len(g))
    Counted.log = []
    getattr(exact, phase)(a, u)
    getattr(exact, phase)(plain_a, plain_u)
    assert (a, u) == (plain_a, plain_u)
    assert Counted.log and all(x and y for x, y in Counted.log)


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


def test_index_small_cases():
    assert exact.index([]) == 1
    assert exact.index([[2, 0], [0, 2], [1, 1]]) == 2
    assert exact.index([[2, 0], [0, 3]]) == 6
    assert exact.index([[1, 2], [2, 4]]) == 0  # rank 1 in Z^2
    assert exact.index([[1, 0, 0], [0, 1, 0]]) == 0


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3
    ),
    st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), max_size=2),
)
def test_index_is_the_gcd_of_the_maximal_minors(square, extra):
    # for a square matrix the index is |det|; more rows divide it down to
    # the gcd of all maximal minors
    assert exact.index(square) == abs(exact.det(square))
    rows = square + extra
    minors = [exact.det(list(c)) for c in combinations(rows, 3)]
    assert exact.index(rows) == gcd(*minors)



# ---------------------------------------------------------------------------
# coefficient-box enumeration


def brute_norm(g, c):
    n = len(g)
    return sum(c[i] * g[i][j] * c[j] for i in range(n) for j in range(n))


def box_with_norms(g, bound, prefix=()):
    """Every point of the box after ``prefix`` with its norm, in product
    order: the oracle for ``exact.box_vectors``."""
    box = product(range(-bound, bound + 1), repeat=len(g) - len(prefix))
    return [(c, brute_norm(g, tuple(prefix) + c)) for c in box]


@st.composite
def box_grams(draw, max_prefix=0):
    """A symmetric matrix and a fixed prefix; the last diagonal entry is
    often 0, so the last coordinate enters the norm linearly, and then the
    last row is sometimes 0 too, so it does not enter at all."""
    n = draw(st.integers(1, 4))
    g = draw(symmetric(n))
    last = draw(st.sampled_from(["quadratic", "linear", "constant"]))
    if last != "quadratic":
        g[n - 1][n - 1] = 0
    if last == "constant":
        for j in range(n):
            g[n - 1][j] = g[j][n - 1] = 0
    prefix = draw(st.lists(st.integers(-3, 3), max_size=min(max_prefix, n)))
    return g, prefix


@settings(max_examples=60, deadline=None)
@given(box_grams(), st.integers(0, 3))
def test_box_vectors_with_every_norm_walks_the_product_box(g_prefix, bound):
    g, _ = g_prefix
    full = box_with_norms(g, bound)
    assert list(exact.box_vectors(g, bound, {q for _, q in full})) == full


@settings(max_examples=100, deadline=None)
@given(box_grams(max_prefix=4), st.integers(0, 3), st.data())
def test_box_vectors_keeps_the_drawn_norms(g_prefix, bound, data):
    g, prefix = g_prefix
    full = box_with_norms(g, bound, prefix)
    attained = sorted({q for _, q in full})
    norms = data.draw(
        st.sets(st.sampled_from(attained)) | st.sets(st.integers(-60, 60), max_size=6)
    )
    got = list(exact.box_vectors(g, bound, norms, prefix))
    assert got == [(c, q) for c, q in full if q in norms]


def test_box_vectors_examples():
    # q(x, y) = 2x^2 + 2xy: the last coordinate enters linearly
    g = [[2, 1], [1, 0]]
    assert list(exact.box_vectors(g, 1, [0])) == [
        ((-1, 1), 0), ((0, -1), 0), ((0, 0), 0), ((0, 1), 0), ((1, -1), 0)
    ]
    assert list(exact.box_vectors(g, 1, [4], (1,))) == [((1,), 4)]
    assert list(exact.box_vectors(g, 2, [])) == []
    # a fully fixed prefix is the one point ()
    assert list(exact.box_vectors(g, 1, [4], (1, 1))) == [((), 4)]
    assert list(exact.box_vectors(g, 1, [2], (1, 1))) == []
