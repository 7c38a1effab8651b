"""Seeded inputs for the benchmark workloads.

Nothing here imports k3lattice: the program under test only ever sees the
values built in this module.  Every generator takes the run seed and the
index of the pass within the run, so the same seed gives the same inputs and
each pass of a run draws fresh ones.
"""

from __future__ import annotations

import random

# Rank-8 lattice file on which `k3lattice lattice info` did not finish within
# 30 s (ROADMAP item 1); every gram-* pass includes it.
ROADMAP_RANK8 = (
    (-2, -2, -3, 6, -4, 5, 6, -3),
    (-2, -10, 3, -2, 2, 1, -1, 5),
    (-3, 3, 2, -2, 3, -5, -5, 2),
    (6, -2, -2, 0, -4, 6, -1, -4),
    (-4, 2, 3, -4, 2, 0, -6, 4),
    (5, 1, -5, 6, 0, -10, 6, 2),
    (6, -1, -5, -1, -6, 6, 6, 6),
    (-3, 5, 2, -4, 4, 2, 6, -2),
)

# Six random matrices per rank.  Entries are small: off-diagonal in
# {-1, 0, 1}, diagonal in {-2, 0, 2}.
GRAM_RANKS = (8,) * 6 + (16,) * 6 + (22,) * 6

# Parameterised named lattices drawn per pass, as (family, count).  L_d costs
# about as much as the fixed rank-16 builds; the other families are cheap.
NAMED_DRAWS = (("L_d", 4), ("Lambda", 2), ("Lp", 2), ("Np", 2))


def pass_rng(stream: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{stream}:{seed}:{pass_index}")


def bareiss_det(m) -> int:
    """Fraction-free determinant with row pivoting."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def random_even_gram(rng: random.Random, n: int) -> list[list[int]]:
    """Symmetric, even, nondegenerate n x n matrix with small entries."""
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-1, 1)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-1, 1)
        if bareiss_det(g) != 0:
            return g


def gram_inputs(seed: int, pass_index: int) -> list[list[list[int]]]:
    """The matrices of one gram-info or gram-quadform pass."""
    rng = pass_rng("gram", seed, pass_index)
    mats = [random_even_gram(rng, n) for n in GRAM_RANKS]
    return mats + [[list(row) for row in ROADMAP_RANK8]]


def _primes_below(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(limit) if sieve[p]]


_PRIMES = _primes_below(2000)


def _draw_name(rng: random.Random, family: str) -> str:
    if family == "L_d":
        return f"L_d({4 * rng.randint(0, 49) + 3},{rng.choice(['subgroup', 'all'])})"
    if family == "Lambda":
        return f"Lambda({rng.randint(1, 500)})"
    if family == "Lp":
        return f"Lp({rng.choice([p for p in _PRIMES if p % 24 == 17])})"
    if family == "Np":
        p = rng.choice([p for p in _PRIMES if 3 <= p < 200])
        n = rng.choice([n for n in range(1, p) if pow(n, (p - 1) // 2, p) == p - 1])
        return f"Np({p},{n})"
    raise ValueError(f"unknown family {family!r}")


def named_inputs(fixed_names, seed: int, pass_index: int) -> list[str]:
    """Every fixed name, then the seeded draw of parameterised names."""
    rng = pass_rng("named", seed, pass_index)
    drawn = [_draw_name(rng, fam) for fam, count in NAMED_DRAWS for _ in range(count)]
    return sorted(fixed_names) + drawn
