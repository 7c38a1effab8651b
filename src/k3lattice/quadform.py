"""Rational quadratic-form invariants and local-global decision procedures.

Places of Q are either a prime number or the real place, represented by the
string constant ``REAL``.  The Hasse invariant follows the product convention
eps_v = prod_{i<j} (d_i, d_j)_v over a diagonalization, evaluated as one
running product prod_j (d_1...d_{j-1}, d_j)_v per place; decisions about
isotropy over completions use the standard classification of forms over
local fields by rank, discriminant class and Hasse invariant.  A place is
checked once, by the public function that receives it; inside, symbols are
taken on integers, and each place's invariant is computed once per form.

Every decision reads the integer ``exact.ldl`` pivots and the determinant, and
only |det| is factored: at an odd p not dividing det an integral form is
Z_p-unimodular, with Hasse invariant +1 and isotropy fixed by rank and
discriminant, so the places to check are REAL, 2 and the primes of |det|
(Cassels, Rational Quadratic Forms, ch. 4 and 8; Serre, A Course in
Arithmetic, ch. IV).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Sequence

from . import exact
from .value import Value

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


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the twelve primes up to 37 as bases, which is
    deterministic below psi_12 = 318665857834031151167461, the least strong
    pseudoprime to all of them (Sorenson-Webster 2017); from psi_12 on, a
    strong Lucas test follows, which completes Baillie-PSW."""
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
    return n < 318665857834031151167461 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for an odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of the odd n > 1 with Selfridge's
    parameters (Baillie-Wagstaff 1980): D is the first of 5, -7, 9, -11, ...
    with (D/n) = -1, P = 1 and Q = (1 - D)/4; with n + 1 = d 2^s, n passes
    when U_d = 0 or V_(d 2^r) = 0 modulo n for some r < s."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            # D shares a factor with n, which is then prime only as |D|
            return abs(D) == n
        D = -D - 2 if D > 0 else -D + 2
    Q, half = (1 - D) // 4, (n + 1) // 2
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k modulo n, from k = 0 along the bits of d
    U, V, Qk = 0, 2, 1
    for bit in bin(d)[2:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            # k -> k + 1 with P = 1: U' = (U + V)/2, V' = (D U + V)/2
            U, V = (U + V) * half % n, (D * U + V) * half % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


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
        if is_probable_prime(m):
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
    """Integer in the same square class as the nonzero rational a, an
    ``int`` or a ``Fraction``."""
    if type(a) not in (int, Fraction):
        raise ValueError(f"a rational is an int or a Fraction, not {type(a).__name__}")
    if a == 0:
        raise ValueError("zero argument")
    return a.numerator * a.denominator


# ---------------------------------------------------------------------------
# Hilbert symbols


def legendre(a: int, p: int) -> int:
    """The Legendre symbol (a/p) for an odd prime p not dividing a: the
    Jacobi symbol, by reciprocity, once a is known to be a unit mod p."""
    if a % p == 0:
        raise ValueError("argument divisible by p")
    return _jacobi(a, p)


def _require_place(v) -> None:
    if v != REAL and not (isinstance(v, int) and is_probable_prime(v)):
        raise ValueError(f"a place is REAL or a prime, not {v!r}")


def hilbert_symbol(a, b, v) -> int:
    """Classical Hilbert symbol (a,b)_v for nonzero rationals a, b."""
    _require_place(v)
    return _hilbert(_rational_to_int_class(a), _rational_to_int_class(b), v)


def _hilbert(a: int, b: int, v) -> int:
    """(a,b)_v for nonzero integers a, b at a place v already checked."""
    if v == REAL:
        return -1 if (a < 0 and b < 0) else 1
    if v == 2:
        alpha, u = _split(a, 2)
        beta, w = _split(b, 2)
        eps = ((u - 1) // 2) * ((w - 1) // 2)
        omega = alpha * ((w * w - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if (eps + omega) % 2 else 1
    alpha, u = _split(a, v)
    beta, w = _split(b, v)
    sign = 1
    if (alpha * beta) % 2 and (v - 1) // 2 % 2:
        sign = -sign
    if beta % 2 and legendre(u, v) < 0:
        sign = -sign
    if alpha % 2 and legendre(w, v) < 0:
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
    """prod_{i<j} (d_i, d_j)_v over a diagonal representation of nonzero
    rationals."""
    _require_place(v)
    return _hasse([_rational_to_int_class(d) for d in diag], v)


def _hasse(entries: Sequence[int], v) -> int:
    """The Hasse invariant of the diagonal integer form ``entries`` at a
    place v already checked, taken by bimultiplicativity as
    prod_j (d_1...d_{j-1}, d_j)_v over a running integer product: n - 1
    symbols instead of n(n-1)/2."""
    sign, prefix = 1, entries[0] if entries else 1
    for d in entries[1:]:
        sign *= _hilbert(prefix, d, v)
        prefix *= d
    return sign


# ---------------------------------------------------------------------------
# diagonalization


def _form(gram: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """The integer ``exact.ldl`` pivots and the det of a nondegenerate form."""
    pivots, det = exact.ldl(gram)
    if det == 0:
        raise ValueError("degenerate form")
    return pivots, det


def diagonalize(gram: Sequence[Sequence[int]]) -> list[int]:
    """Squarefree diagonal representatives of a nondegenerate symmetric
    matrix under rational congruence.

    The entries are the squarefree parts of the integer ``exact.ldl``
    pivots, so hyperbolic planes that appear with both diagonal entries zero
    are split off as (1, -1).  Factoring every pivot is slow on large forms;
    the invariants below never call this.
    """
    return [squarefree_part(p) for p in _form(gram)[0]]


# ---------------------------------------------------------------------------
# invariants


class QuadFormInvariants(Value):
    """Q-equivalence certificate: rank, signature, discriminant square class
    and the places where the Hasse invariant is -1; every place outside
    ``hasse_minus`` has invariant +1."""

    rank: int
    signature: tuple[int, int]
    disc_class: int
    hasse_minus: frozenset


def place_sort_key(v) -> tuple[int, int]:
    return (0, 0) if v == REAL else (1, v)


def _invariants(pivots: Sequence[int], disc: int, places: Sequence) -> QuadFormInvariants:
    """Invariants of the diagonal form ``pivots`` with discriminant class
    ``disc``, whose Hasse invariant is +1 outside ``places``."""
    pos = sum(1 for d in pivots if d > 0)
    minus = frozenset(v for v in places if _hasse(pivots, v) == -1)
    return QuadFormInvariants(len(pivots), (pos, len(pivots) - pos), disc, minus)


def invariants(gram: Sequence[Sequence[int]]) -> QuadFormInvariants:
    pivots, det = _form(gram)
    return _invariants(pivots, *_class_and_places(det))


def invariants_and_witt_index(
    gram: Sequence[Sequence[int]],
) -> tuple[QuadFormInvariants, int]:
    """``invariants(gram)`` together with ``witt_index(gram, GLOBAL)``, from
    one elimination, one factorization of |det| and one Hasse invariant per
    place: the global Witt index is the least local one over those places
    and the generic value at every other prime, which depends only on rank
    and on whether (-1)^(rank/2) det is a square."""
    pivots, det = _form(gram)
    disc, places = _class_and_places(det)
    inv = _invariants(pivots, disc, places)
    rank, half = len(pivots), len(pivots) // 2
    best = min(
        (rank - _anisotropic_dimension(pivots, disc, -1 if v in inv.hasse_minus else 1, v)) // 2
        for v in places
    )
    split = rank % 2 or disc * (-1) ** half == 1
    return inv, min(best, half if split else half - 1)


def rationally_equivalent(g1: Sequence[Sequence[int]], g2: Sequence[Sequence[int]]) -> bool:
    """Equivalence over Q: equal rank, signature, discriminant class and
    Hasse invariants at every place."""
    return invariants(g1) == invariants(g2)


# ---------------------------------------------------------------------------
# local classification


def _is_local_square(d: int, v) -> bool:
    """Whether the nonzero integer d is a square in the completion at the
    finite place v."""
    alpha, u = _split(d, v)
    if alpha % 2:
        return False
    if v == 2:
        return u % 8 == 1
    return legendre(u, v) == 1


def _local_isotropic(rank: int, disc: int, eps: int, v) -> bool:
    """Isotropy over the completion at a finite place from the classical
    rank-by-rank criteria."""
    if rank <= 1:
        return False
    if rank == 2:
        return _is_local_square(-disc, v)
    if rank == 3:
        return eps == _hilbert(-1, -disc, v)
    if rank == 4:
        if not _is_local_square(disc, v):
            return True
        return eps == _hilbert(-1, -1, v)
    return True


def _anisotropic_dimension(diag: Sequence[int], disc: int, eps: int, v) -> int:
    """Anisotropic dimension at the checked place v of the diagonal form
    ``diag`` whose discriminant lies in the square class of the integer
    ``disc`` and whose Hasse invariant at v is ``eps``."""
    if v == REAL:
        pos = sum(1 for d in diag if d > 0)
        return abs(pos - (len(diag) - pos))
    rank = len(diag)
    while rank > 0 and _local_isotropic(rank, disc, eps, v):
        # split off a hyperbolic plane: disc -> -disc, eps -> eps*(-1,-disc)
        eps *= _hilbert(-1, -disc, v)
        disc = -disc
        rank -= 2
    return rank


def anisotropic_dimension(gram: Sequence[Sequence[int]], v) -> int:
    """Dimension of the anisotropic kernel over the completion at v."""
    pivots, det = _form(gram)
    return _anisotropic_dimension(pivots, det, hasse_invariant(pivots, v), v)


def witt_index(gram: Sequence[Sequence[int]], v) -> int:
    """Number of hyperbolic planes split off at v, or the global minimum
    when v == GLOBAL (by ``invariants_and_witt_index``, which factors |det|
    once); at a single place nothing is factored."""
    if v == GLOBAL:
        return invariants_and_witt_index(gram)[1]
    return (len(gram) - anisotropic_dimension(gram, v)) // 2


def has_k_planes(gram: Sequence[Sequence[int]], k: int, v) -> bool:
    """Whether the projective quadric of the form contains k-planes over the
    completion at v (or over Q for v == GLOBAL).  Points are 0-planes."""
    exact.require_integers([[k]], "has_k_planes")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return witt_index(gram, v) >= k + 1
