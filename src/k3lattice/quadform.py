"""Rational quadratic-form invariants and local-global decision procedures.

Places of Q are either a prime number or the real place, represented by the
string constant ``REAL``.  The Hasse invariant follows the product convention
eps_v = prod_{i<j} (d_i, d_j)_v over a diagonalization; decisions about
isotropy over completions use the standard classification of forms over
local fields by rank, discriminant class and Hasse invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from . import exact

# a place is either a prime number or the real place
REAL = "real"
GLOBAL = "global"


# ---------------------------------------------------------------------------
# integer factorization (trial division plus Pollard rho)


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 20):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"failed to factor {n}")


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
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return out


def squarefree_part(n: int) -> int:
    """Signed squarefree representative of n modulo nonzero squares."""
    if n == 0:
        raise ValueError("zero has no square class")
    sign = -1 if n < 0 else 1
    out = sign
    for p, e in factorize(n).items():
        if e % 2:
            out *= p
    return out


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


def diagonalize(gram: Sequence[Sequence[int]]) -> list[int]:
    """Squarefree diagonal representatives of a nondegenerate symmetric
    matrix under rational congruence.

    The entries are the squarefree parts of the ``exact.ldl`` pivots, so
    hyperbolic planes that appear with both diagonal entries zero are split
    off as (1, -1).
    """
    pivots, _ = exact.ldl(gram)
    if any(p == 0 for p in pivots):
        raise ValueError("degenerate form")
    return [squarefree_part(_rational_to_int_class(p)) for p in pivots]


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


def relevant_places(*dets: int) -> list:
    primes = {2}
    for d in dets:
        primes.update(factorize(d))
    return [REAL] + sorted(primes)


def invariants(gram: Sequence[Sequence[int]]) -> QuadFormInvariants:
    diag = diagonalize(gram)
    return invariants_of_diagonal(diag)


def invariants_of_diagonal(diag: Sequence) -> QuadFormInvariants:
    entries = [_rational_to_int_class(d) for d in diag]
    disc = 1
    for d in entries:
        disc *= d
    disc = squarefree_part(disc)
    pos = sum(1 for d in entries if d > 0)
    neg = len(entries) - pos
    prod = 1
    for d in entries:
        prod *= d
    minus = frozenset(
        v for v in relevant_places(prod) if hasse_invariant(entries, v) == -1
    )
    return QuadFormInvariants(len(entries), (pos, neg), disc, minus)


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
    d = squarefree_part(d)
    if d == 1:
        return True
    if v == REAL:
        return d > 0
    p = int(v)
    alpha, u = _split(d, p)
    if alpha % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return _legendre(u, p) == 1


def _square_class(diag: Sequence[int]) -> int:
    """Squarefree part of the product of the squarefree integers ``diag``,
    without factoring: for squarefree a, b with g = gcd(a, b), the product
    (a/g)(b/g) is squarefree and in the square class of ab."""
    out = 1
    for d in diag:
        g = gcd(out, d)
        out = (out // g) * (d // g)
    return out


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
    """Anisotropic dimension at v of a squarefree diagonal form whose
    discriminant has square class ``disc``."""
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
    diag = diagonalize(gram)
    return _anisotropic_dimension(diag, _square_class(diag), v)


def witt_index(gram: Sequence[Sequence[int]], v) -> int:
    """Number of hyperbolic planes split off at v, or the global minimum
    when v == GLOBAL.

    Globally it suffices to look at the real place, 2, the primes dividing
    a diagonal entry, and the generic value taken at all remaining primes
    (which depends only on rank and discriminant class).  The form is
    diagonalized once for all places.
    """
    if v != GLOBAL:
        return (len(gram) - anisotropic_dimension(gram, v)) // 2
    diag = diagonalize(gram)
    rank, disc = len(diag), _square_class(diag)
    best = min(
        (rank - _anisotropic_dimension(diag, disc, p)) // 2
        for p in relevant_places(*diag)
    )
    if rank % 2:
        generic = (rank - 1) // 2
    else:
        half = rank // 2
        signed = disc * (-1) ** half
        generic = half if signed == 1 else half - 1
    return min(best, generic)


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
