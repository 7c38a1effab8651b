"""Exact integer and rational linear algebra on dense row-major matrices.

Matrices are plain sequences of rows.  Every routine works with Python's
arbitrary-precision integers or with ``fractions.Fraction``; nothing in this
package ever touches floating point.  The eliminations on integer matrices
are fraction-free: ``det`` (Bareiss), ``_hermite`` behind the Smith form,
kernels, Hermite bases and ``solve``, and the symmetric ``ldl``, whose
working entries are bordered minors det(m[P+r, P+s]) over the pivot set P
taken so far; it returns its rational pivots as integers.  ``lll`` keeps
leading minors and Gram-Schmidt numerators, all integers.  A rational vector
is written one way, by ``numerators``, as integers over one positive
denominator.  ``solve`` writes each augmented row so, takes the Hermite
basis of those rows and back-substitutes in integers; a ``Fraction`` is made
only for the solution it returns.  In ``det`` and ``ldl`` a row whose entry
in the pivot column is zero is not touched: each row keeps as its own
divisor the pivot it was last reduced by, and is scaled up to the current
pivot only when it becomes the pivot row.  ``det`` alone also reorders: it
takes rows and columns in one symmetric order, sparsest rows first, so that
the sparse intersection matrices fill in little; ``ldl`` keeps its pivot
order, which its callers read.  ``det`` first gathers a diagonal block, the
rows in that order with a nonzero diagonal entry that meet no row gathered
before them, and eliminates all its pivots in one Schur step, applying block
rows that agree off the block once; the elimination then goes on from the
state that the block's pivots, taken one by one, would have left.  The 6n
mutually orthogonal fiber components of a table-1 matrix are such a block.
A row operation that adds a multiple of a row touches only that row's
nonzero entries.  A row added to many rows has them listed once: the pivot
row of each round of ``_echelon`` and its companion, each finished row of
``_reduce_above``, the unit row of ``smith_diagonal``.  A row that is added
once, or seldom, is scanned for them as it is added: a finished companion
row in ``_reduce_above``, and each row of ``matmul``'s right factor that a
nonzero entry of the left one weights, so the zeros of both factors cost
nothing.  ``ldl`` and ``det``'s Bareiss steps rescale every entry of a
reduced row and stay dense.
``box_vectors`` is the one coefficient-box enumerator: it yields only the
points of the wanted norms, solving for the last coordinate in closed form
straight from the loop over the next-to-last one.
``_hermite`` eliminates below the pivots (``_echelon``) before it reduces
above them, once, over the finished rows (``_reduce_above``); ``index`` and
``kernel_basis`` read only the pivots and the rows past the rank, and stop
after the first.  ``hermite_basis_mod`` ends in the same pass; it finds the
pivots of a lattice containing d*Z^n modulo d, with no d*I_n rows, and for
d = 2 reduces over F_2 with each row a bitmask, adding two rows by one XOR.
``smith_normal_form`` and ``smith_diagonal`` share one driver, ``_smith``,
run with and without the companions u and v; it repairs a diagonal pair
that breaks divisibility on the pair's 2x2 block alone, and with no
companions writes down the pair's gcd and lcm; ``smith_diagonal`` first
splits off unit pivots and content.  A caller that reads only d and v may
pass the Hermite basis (``hermite_row_basis``, built without a companion)
in place of a nonsingular matrix: the first row pass then finds it reduced,
and every later pass, with d and v, is the same.  It may pass less: the
passes over a Hermite basis whose first k pivots are 1 clear those rows
and columns against the unit pivots and then run on the tail from row and
column k exactly as they would on the tail alone, so ``lattice`` passes
only that tail to ``smith_normal_form``.
``signature`` reads the pivot of a row with no off-diagonal entry off the
diagonal and passes only the other rows to ``ldl``.
``echelon_coordinates`` is the one reader of coordinates in an echelon
basis: it divides the entry in each row's pivot column exactly and
subtracts only a row whose quotient is not 0; ``lattice.contains_ambient``
and the generators of H^perp/H in ``glue`` read through it.
Every public kernel that eliminates or enumerates over the integers checks
its input at entry with ``require_integers``, which names the kernel.
All public functions return fresh objects and never mutate their
arguments, so values can be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm, prod
from operator import itemgetter, mul
from typing import Iterable, Iterator, Sequence

IntMatrix = list[list[int]]
IntVector = list[int]
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
    nonzero entries of the matching row of a, each added on its own nonzero
    entries only, so the zeros of both factors cost nothing.  Most products
    have one or two rows, so a row of b is scanned where it is added rather
    than listed once for all rows of a."""
    inner, cols = _width(a), _width(b)
    if a and inner != len(b):
        raise ValueError("dimension mismatch in matmul")
    out = []
    for row in a:
        acc = [0] * cols
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def congruence(rows: Sequence[Sequence[int]], gram: Sequence[Sequence[int]]) -> IntMatrix:
    """rows * gram * rows^T, the Gram matrix of ``rows`` under ``gram``, by
    two ``matmul``s, so the zeros of sparse rows cost nothing."""
    return matmul(matmul(rows, gram), transpose(rows))


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
    return [*zip(*m)] == [*map(tuple, m)]


def require_symmetric(m: Sequence[Sequence]) -> int:
    if not is_symmetric(m):
        raise ValueError("matrix is not symmetric")
    return len(m)


def require_integers(m: Sequence[Sequence], name: str) -> None:
    """The one integer check: a float, ``Fraction`` or bool entry is refused,
    never truncated."""
    if not set(map(type, chain.from_iterable(m))) <= {int}:
        raise ValueError(f"{name} needs integer entries")


def parse_int(text: str) -> int:
    """The one reader of integer text: ASCII -?[0-9]+, else ValueError.
    int() alone would also take "1_0", " 12 ", "+4" and non-ASCII digits."""
    if text.removeprefix("-").isdigit() and text.isascii():
        return int(text, 10)
    raise ValueError(f"not an integer: {text!r}")


def det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by sparse fraction-free
    elimination (Bareiss 1968).

    Rows and columns are taken in one symmetric order, the rows with the
    fewest nonzeros first (Tinney-Walker 1967, scheme 1), which leaves the
    determinant unchanged and keeps the fill-in small.  The rows of a
    diagonal block B come first (``_diagonal_block``), and their pivots
    delta_i are eliminated in one Schur step: with c the lcm of the delta_i,
    each remaining row j becomes c*m[j] - sum_i (c/delta_i)*m[j][i]*m[i] on
    the remaining columns, c times its row of the Schur complement S, as a
    sum of scaled block rows, so zeros cost nothing.  Block rows with the
    same delta_i and the same entries on the remaining columns are applied
    once, by the sum of their columns.  Eliminating B pivot by pivot would
    leave the divisor det m[B, B] = prod(delta_i) and the bordered minors
    prod(delta_i)*S as entries, so the elimination goes on from there, each
    row stored over c.  From there a row whose entry in the pivot column is
    zero is left untouched: each row keeps the pivot it was last reduced by
    as its own divisor l, its true entries are its stored ones times d/l
    for the last pivot d, and a reduced row is (p*x - f*y) // l, exact by
    Sylvester's identity.  The last pivot is the determinant; with an empty
    block this is the plain elimination.
    """
    n = require_square(m)
    require_integers(m, "det")
    order = sorted(range(n), key=lambda i: n - m[i].count(0))
    block = _diagonal_block(m, order)
    inside = set(block)
    rest = [i for i in order if i not in inside]
    rows = [m[j] for j in rest]
    classes: dict[tuple[int, ...], list[int]] = {}
    for i in block:
        key = (m[i][i], *[m[i][k] for k in rest])
        col = [row[i] for row in rows]
        acc = classes.get(key)
        classes[key] = col if acc is None else [x + y for x, y in zip(acc, col)]
    c = lcm(*[key[0] for key in classes])
    terms = [(col, [c // delta * y for y in brow]) for (delta, *brow), col in classes.items()]
    a = []
    for pos, row in enumerate(rows):
        t = [c * row[k] for k in rest]
        for col, brow in terms:
            f = col[pos]
            if f:
                t = [x - f * y for x, y in zip(t, brow)]
        a.append(t)
    return _bareiss(a, prod([m[i][i] for i in block]), [c] * len(a))


def _diagonal_block(m: Sequence[Sequence[int]], order: Sequence[int]) -> list[int]:
    """The rows i, in ``order``, with m[i][i] != 0 whose row and column have
    no nonzero in a row or column taken before them, so that m restricted
    to them is diagonal."""
    taken: list[int] = []
    for i in order:
        if m[i][i] and not any(m[i][j] or m[j][i] for j in taken):
            taken.append(i)
    return taken


def _bareiss(a: IntMatrix, d: int, level: list[int]) -> int:
    """Resume the sparse fraction-free elimination that ``det`` describes on
    a state with divisor d and row i stored over level[i], in place, and
    return its last pivot with the sign of its row swaps: det(x) / d^(n-1)
    for the n-square x whose row i is a[i] * d / level[i] (d when n = 0).
    With d = 1 and every level 1 that is det(a)."""
    n = len(a)
    sign = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            level[k], level[piv] = level[piv], level[k]
            sign = -sign
        prow = a[k][k:]
        if level[k] != d:  # bring the pivot row up to date
            prow = [x * d // level[k] for x in prow]
        p, tail = prow[0], prow[1:]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            if f:
                l = level[i]
                row[k + 1 :] = [(p * x - f * y) // l for x, y in zip(row[k + 1 :], tail)]
                level[i] = p
        d = p
    return sign * d


def _nonzeros(row: Sequence, start: int = 0) -> list[tuple[int, object]]:
    """The (column, entry) pairs of ``row``'s nonzero entries from ``start``
    on: a row operation that adds a multiple of ``row`` touches only these."""
    return [(j, y) for j, y in enumerate(row[start:], start) if y]


def _echelon(a: IntMatrix, u: IntMatrix | None = None) -> list[int]:
    """``_hermite``'s first phase: row echelon form in place, pivots positive
    and zero rows last, row operations mirrored on ``u``; returns the pivot
    columns.  The rows from the current one down are zero left of the pivot
    column c, so each round lists the pivot row's nonzero entries from c on,
    and the companion's, once, and a reduced row is updated only there."""
    rows = len(a)
    pivots: list[int] = []
    for c in range(len(a[0]) if rows else 0):
        r = len(pivots)
        if r == rows:
            break
        nz = [i for i in range(r, rows) if a[i][c]]
        if not nz:
            continue
        while True:
            mags = [abs(a[i][c]) for i in nz]
            k = mags.index(min(mags))
            p = nz[k]
            a[r], a[p] = a[p], a[r]
            if u is not None:
                u[r], u[p] = u[p], u[r]
            # nz: the rows from r on nonzero in column c; row r went to p
            below = nz[1:] if nz[0] == r else nz[:k] + nz[k + 1 :]
            if not below:
                break
            x0, prow = a[r][c], _nonzeros(a[r], c)
            urow = None if u is None else _nonzeros(u[r])
            nz = [r]
            for i in below:
                row = a[i]
                q = row[c] // x0
                for j, y in prow:
                    row[j] -= q * y
                if urow is not None:
                    ui = u[i]
                    for j, y in urow:
                        ui[j] -= q * y
                if row[c]:
                    nz.append(i)
            if len(nz) == 1:  # every remainder is zero
                break
        if a[r][c] < 0:
            a[r][c:] = [-x for x in a[r][c:]]
            if u is not None:
                u[r] = [-x for x in u[r]]
        pivots.append(c)
    return pivots


def _hermite(a: IntMatrix, u: IntMatrix | None = None) -> int:
    """Reduce ``a`` in place to row Hermite normal form and return its rank.

    Pivots are positive, the entries above each pivot lie in [0, pivot) and
    zero rows come last.  Every row operation is applied to the companion
    ``u`` as well, so an identity companion ends as a unimodular u with
    u * a_before = a_after.  After ``_echelon``, one pass from the last pivot
    row up reduces each row against the finished rows below it, in pivot
    order, applying only their nonzero entries, and their companions'.
    The elimination never reads a row above the current pivot again, so the
    result is that of reducing above each pivot as soon as it is found.
    """
    pivots = _echelon(a, u)
    _reduce_above(a, pivots, u)
    return len(pivots)


def _reduce_above(a: IntMatrix, pivots: Sequence[int], u: IntMatrix | None = None) -> None:
    """``_hermite``'s second phase, in place, on echelon rows with positive
    pivots in the columns ``pivots``: entries above a pivot into [0, pivot)."""
    done = []  # (pivot column, nonzero entries from it on, row) per finished row
    for r in range(len(pivots) - 1, -1, -1):
        row = a[r]
        for c, entries, k in done:
            q = row[c] // entries[0][1]
            if q:
                for j, y in entries:
                    row[j] -= q * y
                if u is not None:
                    urow = u[r]
                    for j, y in enumerate(u[k]):
                        if y:
                            urow[j] -= q * y
        c = pivots[r]
        done.insert(0, (c, _nonzeros(row, c), r))


def _width(m: Sequence[Sequence[int]]) -> int:
    cols = len(m[0]) if m else 0
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    return cols


def smith_normal_form(
    m: Sequence[Sequence[int]],
) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form ``d`` with unimodular ``u``, ``v``: u*m*v = d.

    The diagonal of ``d`` is nonnegative with d1 | d2 | ... .  Works for any
    rectangular matrix; a Hermite basis, or its tail after leading unit
    pivots, may stand in for a nonsingular matrix (see the module docstring).
    """
    rows, cols = len(m), _width(m)
    require_integers(m, "smith_normal_form")
    a = copy_matrix(m)
    u = identity(rows)
    vt = identity(cols)  # v transposed: column operations are its row operations
    _smith(a, u, vt)
    return a, u, transpose(vt)


def smith_diagonal(m: Sequence[Sequence[int]]) -> IntVector:
    """The diagonal of ``smith_normal_form(m)``'s d (Cohen, GTM 138, 2.4).
    While some entry is +-1, the first row holding one and that unit's
    column are eliminated against it, with no division, and the running
    content c goes on the diagonal.  With no unit left, the gcd g of the
    entries divides every later factor, so the rest is divided by g and c
    multiplied by it; at content 1, one Hermite pass makes the column gcds
    pivots, often units, and the split goes on.  A rest that still has no
    unit goes to ``_smith``, with no companions; its diagonal, times c,
    ends the list, zeros last."""
    _width(m)
    require_integers(m, "smith_diagonal")
    a, diag, c, reduced = copy_matrix(m), [], 1, False
    while a and a[0]:
        i = next((i for i, row in enumerate(a) if 1 in row or -1 in row), None)
        if i is None:
            g = gcd(*chain.from_iterable(a))
            if g > 1:
                a, c = [[x // g for x in row] for row in a], c * g
            elif reduced:
                return diag + [c * x for x in _smith(a)]
            else:
                _hermite(a)
                reduced = True
            continue
        prow = a.pop(i)
        j = prow.index(1) if 1 in prow else prow.index(-1)
        nz = [(k, prow[j] * y) for k, y in enumerate(prow) if y]
        for row in a:
            f = row[j]
            if f:
                for k, y in nz:
                    row[k] -= f * y
            del row[j]
        diag.append(c)
    return diag


def _smith(a: IntMatrix, u: IntMatrix | None = None, vt: IntMatrix | None = None) -> IntVector:
    """Reduce ``a`` in place to Smith normal form and return its diagonal,
    mirroring row operations on ``u`` and column operations on ``vt`` (v
    transposed), both or neither.  Row and column Hermite passes alternate
    until ``a`` is diagonal; a row pass after a column pass that leaves it
    diagonal, with positive pivots and zero columns last, would do nothing
    and is skipped.  A diagonal pair d_i, d_j (i < j) that breaks
    divisibility is then merged by adding column j to column i; the passes
    over the result touch only rows and columns i and j, so they run on the
    block [[d_i, 0], [d_j, d_j]] with rows i and j of ``u`` and ``vt``, and
    leave gcd(d_i, d_j) and d_i d_j / gcd(d_i, d_j) (Cohen, GTM 138, 2.4.4).
    With no companions those two are written down directly."""
    _hermite(a, u)
    while not _is_diagonal(a):
        at = transpose(a)
        _hermite(at, vt)
        a[:] = transpose(at)
        if not _is_diagonal(a):
            _hermite(a, u)
    diag = [row[i] for i, row in enumerate(a[: len(a[0]) if a else 0])]
    while True:
        pairs = ((i, j) for j in range(len(diag)) for i in range(j))
        bad = next(((i, j) for i, j in pairs if diag[i] and diag[j] % diag[i]), None)
        if bad is None:
            return diag
        i, j = bad
        if u is None:
            g = gcd(diag[i], diag[j])
            a[i][i], a[j][j] = diag[i], diag[j] = g, diag[i] * diag[j] // g
            continue
        bu, bv = [u[i], u[j]], [[x + y for x, y in zip(vt[i], vt[j])], vt[j]]
        a[i][i], a[j][j] = diag[i], diag[j] = _smith([[diag[i], 0], [diag[j], diag[j]]], bu, bv)
        u[i], u[j] = bu
        vt[i], vt[j] = bv


def _is_diagonal(a: IntMatrix) -> bool:
    return not any(any(row[:i]) or any(row[i + 1 :]) for i, row in enumerate(a))


def kernel_basis(m: Sequence[Sequence[int]]) -> list[IntVector]:
    """Basis of the integer kernel {x : m*x = 0}, saturated in Z^cols.

    The echelon reduction u * m^T = h has zero rows past the rank; the
    matching rows of the unimodular u span the kernel."""
    u = identity(_width(m))
    require_integers(m, "kernel_basis")
    return u[len(_echelon(transpose(m), u)) :]


def ldl(m: Sequence[Sequence[int]]) -> tuple[IntVector, int]:
    """Symmetric rational elimination m = L D L^T, the one shared core of
    inertia and rational diagonalization.

    Returns ``(pivots, det)``.  ``pivots`` lists the pivots in the order they
    are taken, always the first remaining nonzero diagonal entry.  When the
    remaining diagonal vanishes, a hyperbolic 2x2 block is split off and
    contributes the pair 1, -1 (one eigenvalue of each sign); a degenerate
    remainder contributes zeros.  ``det`` is the determinant of m.

    The elimination is fraction-free (Bareiss 1968).  Once the pivot set P
    is split off, the working entry a[r][s] is the bordered minor
    det(m[P+r, P+s]) and ``d`` is det(m[P, P]), so a diagonal pivot is the
    ratio p/d of consecutive leading minors, returned as the integer
    pd / gcd(p, d)^2, its numerator times its denominator in lowest terms,
    of the same sign and square class.  A row keeps the d it was last reduced
    with as its own divisor l (see the module docstring), and a reduced row
    is (p*x - f*y) // l, exact by Sylvester's identity.
    """
    n = require_symmetric(m)
    require_integers(m, "ldl")
    a = [list(row) for row in m]
    pivots: IntVector = []
    level = [1] * n  # level[k]: the d row k of a was last reduced with
    d = 1

    def current(k: int) -> IntVector:
        # row k of a pops out, brought up to date from its level to d
        row, l = a.pop(k), level.pop(k)
        return row if l == d else [x * d // l for x in row]

    while a:
        k = next((k for k, row in enumerate(a) if row[k]), None)
        if k is not None:
            prow = current(k)
            p = prow.pop(k)
            pivots.append(p * d // gcd(p, d) ** 2)
            for i, row in enumerate(a):
                f = row.pop(k)
                if f:
                    row[:] = [(p * x - f * y) // level[i] for x, y in zip(row, prow)]
                    level[i] = p
            d = p
            continue
        pair = next(
            ((i, j) for i, row in enumerate(a) for j in range(i + 1, len(a)) if row[j]),
            None,
        )
        if pair is None:
            pivots.extend([0] * len(a))
            return pivots, 0
        i, j = pair
        pivots.extend([1, -1])
        rj, ri = current(j), current(i)
        h = ri[j]
        del ri[j], ri[i], rj[j], rj[i]
        e = -h * h // d  # det(m[P, P]) once the block joins P
        # bordered minors of the block [[0, h], [h, 0]]; a row meeting
        # neither i nor j keeps its level
        for t, row in enumerate(a):
            ci, cj = row[i], row[j]
            del row[j], row[i]
            if ci or cj:
                l = level[t] * d
                row[:] = [
                    h * (ci * y + cj * x - h * z) // l for z, x, y in zip(row, ri, rj)
                ]
                level[t] = e
        d = e
    return pivots, d


def lone_rows(m: Sequence[Sequence[int]]) -> list[int]:
    """The rows of ``m`` with no nonzero off-diagonal entry, in order: each
    is a 1x1 orthogonal block of a symmetric matrix."""
    return [i for i, row in enumerate(m) if not (any(row[:i]) or any(row[i + 1 :]))]


def signature(m: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Exact inertia (positive, zero, negative) of a symmetric matrix, which
    adds up over an orthogonal sum.  A row with no nonzero off-diagonal
    entry is a 1x1 block, its own pivot; the larger blocks go to one
    ``ldl`` together, since ``ldl`` leaves every row outside a pivot's
    block untouched, and the matrix goes whole when no row is alone.  The
    integer pivots ``ldl`` returns carry the signs of the rational ones."""
    alone = set(lone_rows(m))
    if alone:  # read off here, so checked here
        require_symmetric(m)
        require_integers(m, "signature")
    nums = [m[i][i] for i in alone]
    rest = [i for i in range(len(m)) if i not in alone]
    if rest:
        pick = itemgetter(*rest)  # two or more: a row not alone has a partner
        sub = [pick(m[i]) for i in rest] if alone else m
        nums += ldl(sub)[0]
    pos = sum(1 for x in nums if x > 0)
    neg = sum(1 for x in nums if x < 0)
    return pos, len(nums) - pos - neg, neg


def lll(gram: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntVector, IntMatrix]:
    """Integral LLL reduction, delta = 3/4, of a positive-definite integer
    Gram matrix (Lenstra-Lenstra-Lovasz 1982; Cohen, GTM 138, Alg. 2.6.7):
    the unimodular transform b, the leading minors d of b * gram * b^T with
    d[0] = 1, and its Gram-Schmidt numerators lam[k][j] = d[j+1] mu[k][j]
    for j < k, zero elsewhere.  Every division is exact.  A leading minor
    that is not positive raises ``ValueError``.
    """
    n = require_symmetric(gram)
    require_integers(gram, "lll")
    b = identity(n)
    d = [1] + [0] * n  # d[k+1] = 0 until the loop first reaches row k
    lam = zeros(n, n)

    def reduce(k: int, l: int) -> None:
        # b_k -= q b_l with q the integer nearest lam[k][l] / d[l+1]
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        if q:
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k = 0
    while k < n:
        if not d[k + 1]:
            # rows are reduced and swapped only below the loop's furthest
            # row, so row k is still e_k and pairs with b_j as gram[k]
            for j in range(k + 1):
                u = dot(gram[k], b[j])
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
            if u <= 0:
                raise ValueError("matrix is not positive definite")
            d[k + 1] = u
        if k:
            reduce(k, k - 1)
            t = lam[k][k - 1]
            if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * t * t:
                # swap rows k-1 and k; rows not yet reached keep their zeros
                b[k - 1], b[k] = b[k], b[k - 1]
                lam[k - 1][: k - 1], lam[k][: k - 1] = lam[k][: k - 1], lam[k - 1][: k - 1]
                e = (d[k - 1] * d[k + 1] + t * t) // d[k]
                for row in lam[k + 1 :]:
                    s = row[k]
                    row[k] = (d[k + 1] * row[k - 1] - t * s) // d[k]
                    row[k - 1] = (e * s + t * row[k]) // d[k + 1]
                d[k] = e
                k -= 1
                continue
        for l in range(k - 2, -1, -1):
            reduce(k, l)
        k += 1
    return b, d, lam


def numerators(v: Sequence) -> tuple[IntVector, int]:
    """v, of ``int``s or ``Fraction``s, as integer numerators over one
    positive denominator, the lcm of the entries' denominators; any other
    entry, a float or a bool, is refused."""
    if all(type(x) is int for x in v):
        return list(v), 1
    if not {type(x) for x in v} <= {int, Fraction}:
        raise ValueError("numerators needs int or Fraction entries")
    den = lcm(*[x.denominator for x in v])
    return [x.numerator * (den // x.denominator) for x in v], den


def solve(a: Sequence[Sequence], b: Sequence) -> RatVector | None:
    """Exact solution of a*x = b, or None when the system is inconsistent.

    Underdetermined systems return one particular solution (free variables
    set to zero).  Entries may be integers or ``Fraction``s.

    The augmented rows [row | rhs], written as integer numerators, span the
    same row space over Q as their Hermite basis, and the pivot columns of
    an echelon form depend on that space alone, so they are those of
    elimination over Q and the solution is the same.  A pivot in b's column
    makes the system inconsistent.  Otherwise the pivot rows are solved
    from the last one up in integers: x is kept as numerators over one
    running denominator, which each pivot multiplies by only the factor
    that its row's numerator does not cancel.
    """
    if len(a) != len(b):
        raise ValueError("dimension mismatch in solve")
    cols = _width(a)
    h = hermite_row_basis([numerators([*row, rhs])[0] for row, rhs in zip(a, b)])
    if h and not any(h[-1][:cols]):
        return None
    x = [0] * cols  # the solution is x / den
    den = 1
    for row in reversed(h):
        c = next(j for j, t in enumerate(row) if t)
        # row[c] x_c = row[cols] - row[c+1:cols] . x[c+1:], all over den
        num = row[cols] * den - sum(map(mul, row[c + 1 : cols], x[c + 1 :]))
        g = gcd(num, row[c])
        p = row[c] // g
        if p != 1:
            x = [t * p for t in x]
            den *= p
        x[c] = num // g
    return [Fraction(t, den) for t in x]


def hermite_row_basis(rows: Sequence[Sequence[int]]) -> list[IntVector]:
    """Canonical basis (row-style Hermite form) of the lattice spanned by rows.

    Pivots are positive and entries above each pivot are reduced to lie in
    [0, pivot), so the result is a deterministic function of the row span.
    """
    _width(rows)
    require_integers(rows, "hermite_row_basis")
    a = copy_matrix(rows)
    return a[: _hermite(a)]


def echelon_coordinates(rows: Sequence[Sequence[int]], v: Sequence[int],
                        den: int) -> IntVector | None:
    """The one reader of coordinates in an echelon basis: the integer x with
    x * rows = v / den, for echelon ``rows`` (each row's first nonzero entry
    right of the row above's), or None when there is none.  Row by row, v's
    entry in the row's pivot column must be an exact multiple q of den times
    the pivot; q den row is subtracted from v only when q is not 0, and v
    must end at 0.  A v whose length is not the rows' is a ragged matrix.
    Only v and den are checked for integers: the rows, like their echelon
    shape, are taken as ``hermite_row_basis`` or ``hermite_basis_mod``
    returned them, from checked input, and are often reused."""
    _width([*rows, v])
    require_integers([v, (den,)], "echelon_coordinates")
    x = []
    for row in rows:
        c = row.index(next(filter(None, row)))  # the pivot column
        q, r = divmod(v[c], den * row[c])
        if r:
            return None
        v = [a - step * b for a, b in zip(v, row)] if (step := q * den) else v
        x.append(q)
    return None if any(v) else x


def hermite_basis_mod(rows: Sequence[Sequence[int]], d: int, n: int) -> list[IntVector]:
    """``hermite_row_basis`` of [d*I_n; rows], the lattice d*Z^n + span(rows),
    found modulo d (Domich-Kannan-Trotter 1987; Cohen, GTM 138, Alg. 2.4.8).
    Column c's pivot row starts as d*e_c, and each row with a nonzero x in
    column c is folded into it by the extended gcd g of (pivot[c], x); the
    remainder, zero in column c, stays in the pool.  The folds are
    unimodular and d*Z^n lies in the lattice, so the entries right of column
    c are kept modulo d.  The pivots divide d; one pass reduces above them.
    For d = 2 the rows are reduced over F_2 as bitmasks (bit c for column
    c), adding two rows by one XOR; the reduced echelon rows and 2*e_c for
    each column c without a pivot are that same Hermite basis."""
    if d < 1 or any(len(row) != n for row in rows):
        raise ValueError("hermite_basis_mod needs a positive modulus and rows of length n")
    require_integers([*rows, (d,)], "hermite_basis_mod")
    if d == 2:
        piv: dict[int, int] = {}  # pivot column -> reduced row
        for row in rows:
            v = sum(1 << c for c, x in enumerate(row) if x & 1)
            for c, b in piv.items():
                if v >> c & 1:
                    v ^= b
            if v:
                low = v & -v
                piv = {c: b ^ v if b & low else b for c, b in piv.items()}
                piv[low.bit_length() - 1] = v
        return [[piv[c] >> j & 1 for j in range(n)] if c in piv
                else [2 * (j == c) for j in range(n)] for c in range(n)]
    pool = [v for v in ([x % d for x in row] for row in rows) if any(v)]
    basis = []
    for c in range(n):  # the pool rows and the pivot row hold columns c.. only
        piv, rest = [d] + [0] * (n - c - 1), []
        for row in pool:
            x, p = row[0], piv[0]
            if x % p:  # s*p + t*x = g
                g = gcd(p, x)
                s = pow(p // g, -1, x // g)
                t, a, b = (g - s * p) // x, x // g, p // g
                piv, row = ([(s * y + t * z) % d for y, z in zip(piv, row)],
                            [(a * y - b * z) % d for y, z in zip(piv, row)])
            elif x:
                row = [(z - x // p * y) % d for y, z in zip(piv, row)]
            if any(row):
                rest.append(row[1:])
        basis.append([0] * c + piv)
        pool = rest
    _reduce_above(basis, range(n))
    return basis


def index(rows: Sequence[Sequence[int]]) -> int:
    """The index in Z^width of the span of integer ``rows``: the product of
    the pivots of its echelon form, or 0 when the span has lower rank."""
    width, a = _width(rows), copy_matrix(rows)
    require_integers(rows, "index")
    if len(_echelon(a)) < width:
        return 0
    return prod(a[i][i] for i in range(width))


def box_vectors(
    gram: Sequence[Sequence[int]],
    bound: int,
    norms: Iterable[int],
    prefix: Sequence[int] = (),
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every c in [-bound, bound]^k, in ``itertools.product`` order, for
    which q(prefix + c) under the symmetric integer matrix ``gram`` lies in
    ``norms``, with that norm.

    The k = rank - len(prefix) coordinates after the fixed ``prefix`` are
    set one at a time, each level carrying the pairings of the coordinates
    set so far with the basis vectors still to come (Fincke-Pohst 1985).
    The last coordinate is not walked: q = g t^2 + 2 l t + q0 is solved for
    t in closed form for each wanted norm, so a point of the box that misses
    every norm costs nothing.
    """
    n = require_symmetric(gram)
    require_integers([*gram, prefix, (bound,)], "box_vectors")
    if bound < 0:
        raise ValueError("box_vectors needs a nonnegative bound")
    g = copy_matrix(gram)
    targets = set(norms)
    lin = [0] * n  # lin[j]: pairing of the coefficients set so far with e_j
    q = 0
    for i, t in enumerate(prefix):
        q += t * (g[i][i] * t + 2 * lin[i])
        lin = [a + t * b for a, b in zip(lin, g[i])]
    if len(prefix) == n:
        if q in targets:
            yield (), q
        return
    values = range(-bound, bound + 1)
    glast = g[n - 1][n - 1]

    def last(q: int, l: int) -> list[tuple[int, int]]:
        # the integer roots t in the box of glast t^2 + 2 l t + q = N, for
        # every wanted N, ascending; t fixes the norm, so each t comes once
        if not glast and not l:
            return [(t, q) for t in values] if q in targets else []
        roots = []
        for N in targets:
            if glast:
                d = l * l - glast * (q - N)  # a quarter of the discriminant
                if d < 0:
                    continue
                s = isqrt(d)
                if s * s != d:
                    continue
                nums, den = ((-l - s, -l + s) if s else (-l,)), glast
            else:
                nums, den = (N - q,), 2 * l
            for num in nums:
                t, r = divmod(num, den)
                if not r and -bound <= t <= bound:
                    roots.append((t, N))
        roots.sort()
        return roots

    def level(i: int, c: tuple[int, ...], q: int, lin: list[int]):
        # lin[0] belongs to coordinate i, lin[1:] to the coordinates after it
        if i == n - 1:
            for t, norm in last(q, lin[0]):
                yield c + (t,), norm
            return
        gii, li, row = g[i][i], 2 * lin[0], g[i][i + 1 :]
        rest = lin[1:]
        for t in values:
            ct, qt = c + (t,), q + t * (gii * t + li)
            if i == n - 2:  # the last coordinate is solved here, not a level down
                for s, norm in last(qt, rest[0] + t * row[0]):
                    yield ct + (s,), norm
            else:
                yield from level(i + 1, ct, qt, [a + t * b for a, b in zip(rest, row)])

    yield from level(len(prefix), (), q, lin[len(prefix) :])
