"""Exact integer and rational linear algebra on dense row-major matrices.

Matrices are plain sequences of rows.  Every routine works with Python's
arbitrary-precision integers or with ``fractions.Fraction``; nothing in this
package ever touches floating point.  The eliminations on integer matrices
are fraction-free: ``det`` (Bareiss), ``_hermite`` behind the Smith form,
kernels and Hermite bases, and the symmetric ``ldl``, whose working entries
are bordered minors det(m[P+r, P+s]) over the pivot set P taken so far, so
that only its returned pivots and multipliers are rational.  ``solve``
clears the denominators of each row and runs the same fraction-free
elimination in Gauss-Jordan form; a ``Fraction`` is made only for the
solution it returns.  ``matmul`` adds up rows of its right factor, so the
zeros of sparse bases cost nothing.  All public functions return fresh
objects and never mutate their arguments, so values can be shared freely
between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from operator import mul
from typing import Iterator, Sequence

IntMatrix = list[list[int]]
IntVector = list[int]
RatMatrix = list[list[Fraction]]
RatVector = list[Fraction]


def copy_matrix(m: Sequence[Sequence[int]]) -> IntMatrix:
    return [list(row) for row in m]


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> IntMatrix:
    return [[0] * cols for _ in range(rows)]


def transpose(m: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*m)] if m else []


def matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """a * b, each output row the sum of the rows of b weighted by the
    nonzero entries of the matching row of a, so zeros cost nothing."""
    inner, cols = _width(a), _width(b)
    if a and inner != len(b):
        raise ValueError("dimension mismatch in matmul")
    out = []
    for row in a:
        acc = None
        for x, brow in zip(row, b):
            if x:
                acc = (
                    [x * y for y in brow]
                    if acc is None
                    else [s + x * y for s, y in zip(acc, brow)]
                )
        out.append([0] * cols if acc is None else acc)
    return out


def mat_vec(m: Sequence[Sequence], v: Sequence) -> list:
    if m and _width(m) != len(v):
        raise ValueError("dimension mismatch in mat_vec")
    return [sum(map(mul, row, v)) for row in m]


def dot(v: Sequence, w: Sequence) -> object:
    if len(v) != len(w):
        raise ValueError("dimension mismatch in dot")
    return sum(map(mul, v, w))


def require_square(m: Sequence[Sequence]) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    return n


def is_symmetric(m: Sequence[Sequence]) -> bool:
    n = len(m)
    if any(len(row) != n for row in m):
        return False
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i))


def require_symmetric(m: Sequence[Sequence]) -> int:
    if not is_symmetric(m):
        raise ValueError("matrix is not symmetric")
    return len(m)


def det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant via Bareiss fraction-free elimination."""
    n = require_square(m)
    if n == 0:
        return 1
    a = copy_matrix(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            aik = a[i][k]
            akk = a[k][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                # Bareiss: the division is exact.
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _hermite(a: IntMatrix, u: IntMatrix | None = None) -> int:
    """Reduce ``a`` in place to row Hermite normal form and return its rank.

    Pivots are positive, the entries above each pivot lie in [0, pivot) and
    zero rows come last.  Every row operation is applied to the companion
    ``u`` as well, so an identity companion ends as a unimodular u with
    u * a_before = a_after.  Reducing above each pivot as soon as it is found
    stops the coefficient growth of unreduced elimination (Kannan-Bachem;
    Cohen, GTM 138, section 2.4).
    """
    mats = (a,) if u is None else (a, u)

    def sub(i: int, k: int, q: int) -> None:
        # row_i -= q * row_k
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


def _width(m: Sequence[Sequence[int]]) -> int:
    cols = len(m[0]) if m else 0
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    return cols


def smith_normal_form(
    m: Sequence[Sequence[int]],
) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form ``d`` with unimodular ``u``, ``v``: u*m*v = d.

    The diagonal of ``d`` is nonnegative with d1 | d2 | ... .  Row and column
    Hermite reductions alternate until the matrix is diagonal; a diagonal
    pair that breaks divisibility is merged by adding one column to the other
    and reducing again.  Works for any rectangular matrix.
    """
    rows, cols = len(m), _width(m)
    a = copy_matrix(m)
    u = identity(rows)
    vt = identity(cols)  # v transposed: column operations are its row operations
    while True:
        _hermite(a, u)
        if any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            at = transpose(a)
            _hermite(at, vt)
            a = transpose(at)
            continue
        diag = [a[i][i] for i in range(min(rows, cols))]
        pairs = ((i, j) for j in range(len(diag)) for i in range(j))
        bad = next(((i, j) for i, j in pairs if diag[i] and diag[j] % diag[i]), None)
        if bad is None:
            return a, u, transpose(vt)
        i, j = bad
        # column_i += column_j puts d_j below d_i; the next reduction takes their gcd
        a[j][i] = a[j][j]
        vt[i] = [x + y for x, y in zip(vt[i], vt[j])]


def kernel_basis(m: Sequence[Sequence[int]]) -> list[IntVector]:
    """Basis of the integer kernel {x : m*x = 0}, saturated in Z^cols.

    The Hermite reduction u * m^T = h has zero rows past the rank; the
    matching rows of the unimodular u span the kernel."""
    u = identity(_width(m))
    return u[_hermite(transpose(m), u) :]


def ldl(m: Sequence[Sequence[int]]) -> tuple[RatVector, RatMatrix, int]:
    """Symmetric rational elimination m = L D L^T, the one shared core of
    inertia, rational diagonalization and short-vector enumeration.

    Returns ``(pivots, mult, det)``.  ``pivots`` lists the pivots in the
    order they are taken, always the first remaining nonzero diagonal entry.
    When the remaining diagonal vanishes, a hyperbolic 2x2 block is split off
    and contributes the pair 1, -1 (one eigenvalue of each sign); a
    degenerate remainder contributes zeros.  ``mult[piv][r]`` is the
    multiplier by which row r was reduced with the diagonal pivot ``piv``
    (zero otherwise; hyperbolic blocks record none).  When all pivots are
    positive they were taken in index order, and
    q(x) = sum_i pivots[i] (x_i + sum_{j>i} mult[i][j] x_j)^2.
    ``det`` is the determinant of m.

    The elimination is fraction-free (Bareiss 1968).  Once the pivot set P
    is split off, the working entry a[r][s] is the bordered minor
    det(m[P+r, P+s]) and ``d`` is det(m[P, P]), so a diagonal pivot p is the
    ratio p/d of consecutive leading minors and its multipliers are
    a[r][piv]/p; by Sylvester's identity every update divides exactly.
    """
    n = require_symmetric(m)
    if not all(type(x) is int for row in m for x in row):
        raise ValueError("ldl needs integer entries")
    a = [list(row) for row in m]
    zero = Fraction(0)
    mult = [[zero] * n for _ in range(n)]
    pivots: RatVector = []
    active = list(range(n))  # active[k] is the index of row and column k of a
    d = 1
    while active:
        k = next((k for k, row in enumerate(a) if row[k]), None)
        if k is not None:
            prow = a.pop(k)
            piv = active.pop(k)
            p = prow.pop(k)
            pivots.append(Fraction(p, d))
            for row, r in zip(a, active):
                f = row.pop(k)
                if f:
                    mult[piv][r] = Fraction(f, p)
                    row[:] = [(p * x - f * y) // d for x, y in zip(row, prow)]
                elif p != d:
                    row[:] = [p * x // d for x in row]
            d = p
            continue
        pair = next(
            ((i, j) for i, row in enumerate(a) for j in range(i + 1, len(a)) if row[j]),
            None,
        )
        if pair is None:
            pivots.extend([zero] * len(active))
            return pivots, mult, 0
        i, j = pair
        pivots.extend([Fraction(1), Fraction(-1)])
        h = a[i][j]
        d2 = d * d
        rj, ri = a.pop(j), a.pop(i)
        del active[j], active[i], ri[j], ri[i], rj[j], rj[i]
        # bordered minors of the block [[0, h], [h, 0]]
        for row in a:
            ci, cj = row[i], row[j]
            del row[j], row[i]
            row[:] = [
                h * (ci * y + cj * x - h * z) // d2 for z, x, y in zip(row, ri, rj)
            ]
        d = -h * h // d
    return pivots, mult, d


def signature(m: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Exact inertia (positive, zero, negative) of a symmetric matrix: the
    signs of its ``ldl`` pivots."""
    pivots, _, _ = ldl(m)
    pos = sum(1 for p in pivots if p > 0)
    neg = sum(1 for p in pivots if p < 0)
    return pos, len(pivots) - pos - neg, neg


def solve(a: Sequence[Sequence], b: Sequence) -> RatVector | None:
    """Exact solution of a*x = b, or None when the system is inconsistent.

    Underdetermined systems return one particular solution (free variables
    set to zero).  Entries may be integers or ``Fraction``s.

    Each row of the augmented matrix is multiplied by the lcm of its
    denominators, and fraction-free Gauss-Jordan elimination (Bareiss 1968)
    takes the first nonzero entry of each column as its pivot, as
    elimination over Q does, so the pivot columns and the solution are the
    same.  A pivot p scales every other row by p over the previous pivot d
    and clears it in the pivot column; by Sylvester's identity the division
    by d is exact.  Left of the pivot column the pivot row is zero, so
    those columns would only be scaled and are left alone: at the end each
    pivot row stands for d_last * x_c = its last entry.
    """
    rows = len(a)
    if rows != len(b):
        raise ValueError("dimension mismatch in solve")
    cols = _width(a)
    aug = []
    for row, rhs in zip(a, b):
        entries = [*row, rhs]
        if not all(type(x) is int for x in entries):
            entries = [x if type(x) is int else Fraction(x) for x in entries]
            den = 1
            for x in entries:
                den = den * x.denominator // gcd(den, x.denominator)
            entries = [x.numerator * (den // x.denominator) for x in entries]
        aug.append(entries)
    pivot_cols: list[int] = []
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


def hermite_row_basis(rows: Sequence[Sequence[int]]) -> list[IntVector]:
    """Canonical basis (row-style Hermite form) of the lattice spanned by rows.

    Pivots are positive and entries above each pivot are reduced to lie in
    [0, pivot), so the result is a deterministic function of the row span.
    """
    _width(rows)
    a = copy_matrix(rows)
    return a[: _hermite(a)]


def box_norms(
    gram: Sequence[Sequence[int]], bound: int, prefix: Sequence[int] = ()
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every c in [-bound, bound]^k, in ``itertools.product`` order, with
    q(prefix + c) under the symmetric integer matrix ``gram``.

    The k = rank - len(prefix) coordinates after the fixed ``prefix`` are
    set one at a time.  Each level carries the pairings of the coordinates
    set so far with every basis vector, so a point costs O(1) amortised
    instead of the O(rank^2) of a fresh evaluation (Fincke-Pohst 1985).
    """
    n = require_symmetric(gram)
    g = copy_matrix(gram)
    values = range(-bound, bound + 1)
    lin = [0] * n  # lin[j]: pairing of the coefficients set so far with e_j
    q = 0
    for i, t in enumerate(prefix):
        q += t * (g[i][i] * t + 2 * lin[i])
        lin = [a + t * b for a, b in zip(lin, g[i])]

    def level(i: int, c: tuple[int, ...], q: int, lin: list[int]):
        gii, li = g[i][i], 2 * lin[i]
        if i == n - 1:
            for t in values:
                yield c + (t,), q + t * (gii * t + li)
            return
        row = g[i]
        for t in values:
            yield from level(
                i + 1, c + (t,), q + t * (gii * t + li),
                [a + t * b for a, b in zip(lin, row)],
            )

    if len(prefix) == n:
        yield (), q
    else:
        yield from level(len(prefix), (), q, lin)


def lcm(a: int, b: int) -> int:
    return abs(a * b) // gcd(a, b) if a and b else 0


def gcd_vector(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def isqrt_exact(n: int) -> int:
    """Integer square root of a perfect square; raises otherwise."""
    if n < 0:
        raise ValueError("negative argument")
    r = isqrt(n)
    if r * r != n:
        raise ValueError(f"{n} is not a perfect square")
    return r
