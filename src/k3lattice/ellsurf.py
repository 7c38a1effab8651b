"""Combinatorics of elliptic surfaces over P^1 and their fiber data.

Covers the singular-fiber dictionary (Kodaira symbol vs root-lattice type),
Euler numbers, the rank formula rho - 2 - sum(components - 1) for the
Mordell-Weil rank, the canonical height of sections from fiber-component
incidence, the determinant relation between Neron-Severi, trivial lattice
and height pairing, and the family of intersection matrices for sections on
the unramified double-cover surfaces together with its closed-form
determinant.

Fibers are declared data; nothing here computes them from equations.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import exact
from .value import Value

_KODAIRA_RE = re.compile(r"^(I|II|III|IV)(\d+)?(\*)?$")


class KodairaType(Value):
    family: str  # "I", "I*", "II", "III", "IV", "II*", "III*", "IV*"
    n: int = 0

    def __post_init__(self) -> None:
        if self.family not in ("I", "I*", "II", "III", "IV", "II*", "III*", "IV*"):
            raise ValueError(f"unknown Kodaira family {self.family!r}")
        if self.family not in ("I", "I*") and self.n:
            raise ValueError("only I_n and I_n* carry an index")
        if self.n < 0:
            raise ValueError("fiber index must be nonnegative")

    def __str__(self) -> str:
        if self.family == "I":
            return f"I{self.n}"
        if self.family == "I*":
            return f"I{self.n}*"
        return self.family


def kodaira(symbol: str) -> KodairaType:
    """Parse a Kodaira symbol such as I2, I0*, III, IV*."""
    m = _KODAIRA_RE.match(symbol.strip())
    if not m:
        raise ValueError(f"cannot parse Kodaira symbol {symbol!r}")
    head, num, star = m.groups()
    if head == "I":
        if num is None:
            raise ValueError(f"cannot parse Kodaira symbol {symbol!r}")
        return KodairaType("I*" if star else "I", int(num))
    if num is not None:
        raise ValueError(f"cannot parse Kodaira symbol {symbol!r}")
    return KodairaType(head + "*" if star else head)


def kodaira_to_ade(t: KodairaType) -> tuple[str, int] | None:
    """Root-lattice type of the reducible-fiber contribution, or None for
    the irreducible types I0, I1, II."""
    if t.family == "I":
        return ("A", t.n - 1) if t.n >= 2 else None
    if t.family == "I*":
        return ("D", t.n + 4)
    return {
        "II": None,
        "III": ("A", 1),
        "IV": ("A", 2),
        "IV*": ("E", 6),
        "III*": ("E", 7),
        "II*": ("E", 8),
    }[t.family]


def component_count(t: KodairaType) -> int:
    """1 + the rank of the fiber's root lattice."""
    ade = kodaira_to_ade(t)
    return 1 + (ade[1] if ade else 0)


def euler_number(t: KodairaType) -> int:
    """n for I_n, one more than the number of components for an additive
    fiber (Kodaira)."""
    return t.n if t.family == "I" else component_count(t) + 1


class FiberConfig(Value):
    fibers: tuple[KodairaType, ...]

    @staticmethod
    def of(*symbols: str) -> "FiberConfig":
        out: list[KodairaType] = []
        for s in symbols:
            if "x" in s:
                count, sym = s.split("x")
                if int(count) < 1:
                    raise ValueError(f"fiber count in {s!r} is not a positive integer")
                out.extend([kodaira(sym)] * int(count))
            else:
                out.append(kodaira(s))
        return FiberConfig(tuple(out))


def total_euler(c: FiberConfig) -> int:
    return sum(euler_number(t) for t in c.fibers)


def h20_from_euler(chi: int) -> int:
    """h^{2,0} of a smooth elliptic surface over P^1 with section whose
    singular fibers have total Euler number chi."""
    if chi % 12:
        raise ValueError("Euler number of such a surface is a multiple of 12")
    return chi // 12 - 1


class SurfaceData(Value):
    chi_o: int  # holomorphic Euler characteristic chi(O_S)
    rho: int  # Picard number

    def __post_init__(self) -> None:
        if self.chi_o < 1:
            raise ValueError("chi(O) is at least 1")


def shioda_tate_rank(s: SurfaceData, c: FiberConfig) -> int:
    """Mordell-Weil rank rho - 2 - sum over fibers of (components - 1)."""
    vertical = sum(component_count(t) - 1 for t in c.fibers)
    rank = s.rho - 2 - vertical
    if rank < 0:
        raise ValueError(
            f"fiber components exceed rho - 2 (rho={s.rho}, vertical={vertical})"
        )
    return rank


_ROOT_DISC = {"A": lambda n: n + 1, "D": lambda n: 4, "E": lambda n: {6: 3, 7: 2, 8: 1}[n]}


def trivial_lattice_disc(c: FiberConfig) -> int:
    """|det| of U + (root lattices of the reducible fibers)."""
    out = 1
    for t in c.fibers:
        ade = kodaira_to_ade(t)
        if ade is not None:
            out *= _ROOT_DISC[ade[0]](ade[1])
    return out


# Component codes for section incidence: 0 is the identity component; I_n
# takes the cyclic distance 1..n-1, I_b* takes "near" or "far", and III, IV,
# IV*, III* take 1 for any nonidentity simple component.
NEAR = "near"
FAR = "far"


def _contribution(t: KodairaType, code) -> Fraction:
    if not isinstance(code, str):
        exact.require_integers([[code]], "a component code")
    if code == 0:
        return Fraction(0)
    if t.family == "I":
        if t.n < 2:
            raise ValueError(f"{t} has a single component; code must be 0")
        if isinstance(code, str) or not 0 < code < t.n:
            raise ValueError(f"component {code} out of range for {t}")
        return Fraction(code * (t.n - code), t.n)
    if t.family == "I*":
        if code == NEAR or (t.n == 0 and code == 1):
            return Fraction(1)
        if code == FAR:
            if t.n == 0:
                raise ValueError("I0* has no far component")
            return 1 + Fraction(t.n, 4)
        raise ValueError(f"component {code!r} invalid for {t}")
    table = {"III": Fraction(1, 2), "IV": Fraction(2, 3), "IV*": Fraction(4, 3), "III*": Fraction(3, 2)}
    if t.family in table and code == 1:
        return table[t.family]
    raise ValueError(f"no height contribution for fiber {t} component {code!r}")


class SectionIncidence(Value):
    """Intersection with the zero section plus, per reducible fiber, which
    component the section meets."""

    meets_zero_section: int
    components: tuple[tuple[KodairaType, object], ...]

    def __post_init__(self) -> None:
        if self.meets_zero_section < 0:
            raise ValueError("intersection with the zero section is >= 0")


def height_pairing(s: SurfaceData, inc: SectionIncidence) -> Fraction:
    """Canonical height 2*chi(O) + 2*(P.O) - sum of component corrections."""
    total = 2 * Fraction(s.chi_o) + 2 * inc.meets_zero_section
    for t, code in inc.components:
        total -= _contribution(t, code)
    return total


def mw_disc_sides(
    disc_ns: int, c: FiberConfig, torsion_order: int, height_det: Fraction
) -> tuple[Fraction, Fraction]:
    lhs = Fraction(abs(disc_ns)) * torsion_order**2
    rhs = Fraction(trivial_lattice_disc(c)) * Fraction(height_det)
    return lhs, rhs


def mw_disc_relation(
    disc_ns: int, c: FiberConfig, torsion_order: int, height_det: Fraction
) -> bool:
    """|disc NS| * torsion^2 = trivial-lattice disc * height determinant."""
    if disc_ns == 0 or torsion_order == 0 or height_det == 0:
        raise ValueError("nonzero inputs required")
    lhs, rhs = mw_disc_sides(disc_ns, c, torsion_order, height_det)
    return lhs == rhs


# ---------------------------------------------------------------------------
# the (5+6n)-square section/fiber intersection matrix and its determinant


def table1_matrix(n: int, a: int, b: int) -> list[list[int]]:
    """Intersection matrix of the divisors S, G, G', L, F, A_1..A_{6n} on
    the genus-one surface over an elliptic base: sections have
    self-intersection -n and pair to n with each other except for the two
    unknown pairings a = (G, L) and b = (G', L)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    k = 6 * n  # G, G', L meet every nonidentity component; S and F none
    rows = [
        [-n, n, n, n, 1] + [0] * k,
        [n, -n, n, a, 1] + [1] * k,
        [n, n, -n, b, 1] + [1] * k,
        [n, a, b, -n, 1] + [1] * k,
        [1, 1, 1, 1, 0] + [0] * k,
    ] + [[0, 1, 1, 1, 0] + [0] * k for _ in range(k)]
    for c in range(5, 5 + k):
        rows[c][c] = -2
    return rows


def table1_det_identity(n: int, a: int, b: int) -> bool:
    """det M_n = -n * 2^(6n) * (a+b)^2, checked exactly."""
    return exact.det(table1_matrix(n, a, b)) == -n * 2 ** (6 * n) * (a + b) ** 2


def table1_violations(n: int) -> list[tuple[int, int]]:
    """The (a, b) in [-3, 3]^2, a-major, where table1_det_identity fails.

    a sits only at (1, 3) and (3, 1) of table1_matrix and b only at (2, 3)
    and (3, 2), so every Leibniz term takes at most one of them from row 3
    and one from column 3: det M_n, like -n * 2^(6n) * (a+b)^2, has degree
    at most 2 in each of a and b.  Two such polynomials that agree on the
    grid {-1, 0, 1}^2 agree for all integers a and b, so nine determinants
    prove the identity.  Where a grid point fails, the 49 points are
    evaluated one by one.  That placement of a and b is checked first, off
    the grid; ArithmeticError if it no longer holds.
    """
    base = table1_matrix(n, 0, 0)
    for a, b in ((2, -3), (-3, 2)):
        moved = {(1, 3): a, (3, 1): a, (2, 3): b, (3, 2): b}
        m = table1_matrix(n, a, b)
        size = range(len(base))
        if any(m[i][j] - base[i][j] != moved.get((i, j), 0) for i in size for j in size):
            raise ArithmeticError(f"a and b of table1_matrix({n}, a, b) left their four entries")
    if all(table1_det_identity(n, a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)):
        return []
    return [(a, b) for a in range(-3, 4) for b in range(-3, 4) if not table1_det_identity(n, a, b)]
