"""Rational quadratic-form invariants and local-global decision procedures.

Places of Q are either a prime number or the real place, represented by the
string constant ``REAL``.  The Hasse invariant follows the product convention
eps_v = prod_{i<j} (d_i, d_j)_v over a diagonalization; decisions about
isotropy over completions use the standard classification of forms over
local fields by rank, discriminant class and Hasse invariant.

Every decision reads the raw ``exact.ldl`` pivots and the determinant, and
only |det| is factored: at an odd p not dividing det an integral form is
Z_p-unimodular, with Hasse invariant +1 and isotropy fixed by rank and
discriminant, so the places to check are REAL, 2 and the primes of |det|
(Cassels, Rational Quadratic Forms, ch. 4 and 8; Serre, A Course in
Arithmetic, ch. IV).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Sequence

from . import exact

# a place is either a prime number or the real place
REAL = "real"
GLOBAL = "global"


# ---------------------------------------------------------------------------
# integer factorization (trial division plus Pollard rho)

# total evaluations of y -> y^2 + c that one ``factorize`` call may spend,
# over every cofactor and every c, before giving up
_RHO_EVALS = 4_000_000
# differences multiplied together before each gcd
_RHO_BATCH = 128


def _pollard_rho(n: int, budget: int) -> tuple[int, int]:
    """A proper factor of the odd composite n, and what is left of the
    evaluation ``budget`` after finding it.

    Brent's cycle finding (Brent 1980): each round holds x at the current
    point, moves y r steps on unchecked and then r more against x, then
    doubles r.  The differences x - y are multiplied modulo n and one gcd is
    taken per batch; a batch whose gcd is n is walked again one step at a
    time, and if that still gives n the next c is tried.
    """
    for c in range(1, 20):
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and budget > 0:
            x = y
            for _ in range(min(r, budget)):
                y = (y * y + c) % n
            budget -= r
            k = 0
            while k < r and g == 1 and budget > 0:
                ys = y
                steps = min(_RHO_BATCH, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                budget -= steps
                g = gcd(q, n)
                k += steps
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                budget -= 1
                g = gcd(x - ys, n)
        if 1 < g < n:
            return g, budget
        if budget <= 0:
            break
    raise ValueError(f"cannot split the cofactor {n} within {_RHO_EVALS} Pollard rho evaluations")


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    small = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for p in small:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as a dict prime -> exponent."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor zero")
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    budget = _RHO_EVALS
    while stack:
        m = stack.pop()
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d, budget = _pollard_rho(m, budget)
        stack.extend([d, m // d])
    return out


def _class_and_places(n: int) -> tuple[int, list]:
    """The signed squarefree representative of the nonzero integer n and the
    places REAL, 2 and the primes of |n|, from one factorization."""
    if n == 0:
        raise ValueError("zero has no square class")
    primes = factorize(n)
    out = -1 if n < 0 else 1
    for p, e in primes.items():
        if e % 2:
            out *= p
    return out, [REAL] + sorted({2, *primes})


def squarefree_part(n: int) -> int:
    """Signed squarefree representative of n modulo nonzero squares."""
    return _class_and_places(n)[0]


def _rational_to_int_class(a) -> int:
    """Integer in the same square class as the nonzero rational a."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("zero argument")
    return a.numerator * a.denominator


# ---------------------------------------------------------------------------
# Hilbert symbols


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ValueError("argument divisible by p")
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def hilbert_symbol(a, b, v) -> int:
    """Classical Hilbert symbol (a,b)_v for nonzero rationals a, b."""
    a = _rational_to_int_class(a)
    b = _rational_to_int_class(b)
    if v == REAL:
        return -1 if (a < 0 and b < 0) else 1
    p = int(v)
    if p == 2:
        alpha, u = _split(a, 2)
        beta, w = _split(b, 2)
        eps = ((u - 1) // 2) * ((w - 1) // 2)
        omega = alpha * ((w * w - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if (eps + omega) % 2 else 1
    alpha, u = _split(a, p)
    beta, w = _split(b, p)
    sign = 1
    if (alpha * beta) % 2 and (p - 1) // 2 % 2:
        sign = -sign
    if beta % 2 and _legendre(u, p) < 0:
        sign = -sign
    if alpha % 2 and _legendre(w, p) < 0:
        sign = -sign
    return sign


def _split(a: int, p: int) -> tuple[int, int]:
    """a = p^alpha * u with p not dividing u."""
    alpha = 0
    while a % p == 0:
        a //= p
        alpha += 1
    return alpha, a


def hasse_invariant(diag: Sequence, v) -> int:
    """prod_{i<j} (d_i, d_j)_v over a diagonal representation."""
    entries = [_rational_to_int_class(d) for d in diag]
    if any(d == 0 for d in entries):
        raise ValueError("zero diagonal entry")
    sign = 1
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            sign *= hilbert_symbol(entries[i], entries[j], v)
    return sign


# ---------------------------------------------------------------------------
# diagonalization


def _form(gram: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """The ``exact.ldl`` pivots of a nondegenerate symmetric integer matrix,
    each as an integer in its square class, and its determinant."""
    pivots, _, det = exact.ldl(gram)
    if det == 0:
        raise ValueError("degenerate form")
    return [_rational_to_int_class(p) for p in pivots], det


def diagonalize(gram: Sequence[Sequence[int]]) -> list[int]:
    """Squarefree diagonal representatives of a nondegenerate symmetric
    matrix under rational congruence.

    The entries are the squarefree parts of the ``exact.ldl`` pivots, so
    hyperbolic planes that appear with both diagonal entries zero are split
    off as (1, -1).  Factoring every pivot is slow on large forms; the
    invariants below never call this.
    """
    return [squarefree_part(p) for p in _form(gram)[0]]


# ---------------------------------------------------------------------------
# invariants


@dataclass(frozen=True)
class QuadFormInvariants:
    """Q-equivalence certificate: rank, signature, discriminant square class
    and the places where the Hasse invariant is -1.  ``complete`` marks that
    every place outside ``hasse_minus`` has invariant +1."""

    rank: int
    signature: tuple[int, int]
    disc_class: int
    hasse_minus: frozenset
    complete: bool = True


def place_sort_key(v) -> tuple[int, int]:
    return (0, 0) if v == REAL else (1, int(v))


def relevant_places(n: int) -> list:
    """The real place, 2 and the primes of the nonzero integer n."""
    return _class_and_places(n)[1]


def _invariants(pivots: Sequence[int], disc: int, places: Sequence) -> QuadFormInvariants:
    """Invariants of the diagonal form ``pivots`` with discriminant class
    ``disc``, whose Hasse invariant is +1 outside ``places``."""
    pos = sum(1 for d in pivots if d > 0)
    minus = frozenset(v for v in places if hasse_invariant(pivots, v) == -1)
    return QuadFormInvariants(len(pivots), (pos, len(pivots) - pos), disc, minus)


def invariants(gram: Sequence[Sequence[int]]) -> QuadFormInvariants:
    pivots, det = _form(gram)
    return _invariants(pivots, *_class_and_places(det))


def invariants_and_witt_index(
    gram: Sequence[Sequence[int]],
) -> tuple[QuadFormInvariants, int]:
    """``invariants(gram)`` together with ``witt_index(gram, GLOBAL)``, from
    one elimination and one factorization of |det|."""
    pivots, det = _form(gram)
    disc, places = _class_and_places(det)
    return _invariants(pivots, disc, places), _global_witt_index(pivots, det, places)


def rationally_equivalent(g1: Sequence[Sequence[int]], g2: Sequence[Sequence[int]]) -> bool:
    """Equivalence over Q: equal rank, signature, discriminant class and
    Hasse invariants at every place."""
    i1, i2 = invariants(g1), invariants(g2)
    return (
        i1.rank == i2.rank
        and i1.signature == i2.signature
        and i1.disc_class == i2.disc_class
        and i1.hasse_minus == i2.hasse_minus
    )


# ---------------------------------------------------------------------------
# local classification


def _is_local_square(d: int, v) -> bool:
    """Whether the nonzero integer d is a square in the completion at v."""
    if v == REAL:
        return d > 0
    p = int(v)
    alpha, u = _split(d, p)
    if alpha % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return _legendre(u, p) == 1


def _local_isotropic(rank: int, disc: int, eps: int, v) -> bool:
    """Isotropy over the completion at a finite place from the classical
    rank-by-rank criteria."""
    if rank <= 1:
        return False
    if rank == 2:
        return _is_local_square(-disc, v)
    if rank == 3:
        return eps == hilbert_symbol(-1, -disc, v)
    if rank == 4:
        if not _is_local_square(disc, v):
            return True
        return eps == hilbert_symbol(-1, -1, v)
    return True


def _anisotropic_dimension(diag: Sequence[int], disc: int, v) -> int:
    """Anisotropic dimension at v of the diagonal form ``diag`` whose
    discriminant lies in the square class of the integer ``disc``."""
    if v == REAL:
        pos = sum(1 for d in diag if d > 0)
        return abs(pos - (len(diag) - pos))
    rank, eps = len(diag), hasse_invariant(diag, v)
    while rank > 0 and _local_isotropic(rank, disc, eps, v):
        # split off a hyperbolic plane: disc -> -disc, eps -> eps*(-1,-disc)
        eps *= hilbert_symbol(-1, -disc, v)
        disc = -disc
        rank -= 2
    return rank


def anisotropic_dimension(gram: Sequence[Sequence[int]], v) -> int:
    """Dimension of the anisotropic kernel over the completion at v."""
    return _anisotropic_dimension(*_form(gram), v)


def witt_index(gram: Sequence[Sequence[int]], v) -> int:
    """Number of hyperbolic planes split off at v, or the global minimum
    when v == GLOBAL.

    At a single place nothing is factored.  Globally it suffices to look at
    the real place, 2 and the primes of |det|, plus the generic value taken
    at every other prime (which depends only on rank and on whether
    (-1)^(rank/2) det is a square); |det| is factored once.
    """
    pivots, det = _form(gram)
    if v != GLOBAL:
        return (len(pivots) - _anisotropic_dimension(pivots, det, v)) // 2
    return _global_witt_index(pivots, det, relevant_places(det))


def _global_witt_index(pivots: Sequence[int], det: int, places: Sequence) -> int:
    """Global Witt index of the ``_form`` pair (pivots, det); ``places`` are
    the real place, 2 and the primes of |det|."""
    rank = len(pivots)
    best = min(
        (rank - _anisotropic_dimension(pivots, det, p)) // 2 for p in places
    )
    half = rank // 2
    signed = det * (-1) ** half
    split = rank % 2 or (signed > 0 and isqrt(signed) ** 2 == signed)
    return min(best, half if split else half - 1)


def has_k_planes(gram: Sequence[Sequence[int]], k: int, v) -> bool:
    """Whether the projective quadric of the form contains k-planes over the
    completion at v (or over Q for v == GLOBAL).  Points are 0-planes."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return witt_index(gram, v) >= k + 1


def ruling_disc(gram: Sequence[Sequence[int]]) -> int:
    """Square class whose square root generates the splitting field of the
    two rulings (families of middle-dimensional planes) of an even-rank
    quadric.

    For a form of rank 2k+2 this is the classical signed discriminant
    (-1)^(k+1) det; the rulings are rational exactly when it is 1.
    """
    n = exact.require_square(gram)
    if n % 2:
        raise ValueError("ruling discriminant requires even rank")
    d = exact.det(gram)
    if d == 0:
        raise ValueError("degenerate form")
    return squarefree_part(d * (-1) ** (n // 2))
