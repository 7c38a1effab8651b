"""Overlattice (glue vector) constructions and the named-lattice registry.

An overlattice of L is generated by L together with rational vectors v/d
whose pairings with L (and with each other) are integral; even overlattices
of an even lattice correspond to isotropic subgroups H of its discriminant
form, and ``even_overlattice_forms`` reads index, det and form H^perp / H
off that form with no lattice built.  All constructions record the base
frame so that vectors written in base coordinates can be tested for
membership and divisibility afterwards.  Every named overlattice is one
``adjoin`` of ``GlueSpec``s, integer vectors over one denominator, stored
(``L_SAT_GLUE``, ``L2_TORSION``) or built from the character table of
(Z/2Z)^4; no glue is held as a ``Fraction``.
"""

from __future__ import annotations

import itertools
import re
from functools import partial
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator, Sequence

from . import exact
from .k3embed import build_V
from .lattice import (
    Embedding,
    FiniteQuadraticForm,
    Lattice,
    direct_sum,
    discriminant_group,
    divisibility,
    hyperbolic,
    rank_one,
    root_lattice,
)
from .quadform import is_probable_prime, legendre
from .value import Value


class GlueSpec(Value):
    """A rational glue vector ``vector / denominator`` in base coordinates."""

    vector: tuple[int, ...]
    denominator: int

    def __post_init__(self) -> None:
        exact.require_integers([self.vector, [self.denominator]], "GlueSpec")
        if self.denominator < 2:
            raise ValueError("glue denominator must be at least 2")


class GlueError(ValueError):
    pass


def adjoin(
    base: Lattice, glue: Sequence[GlueSpec], require_even: bool = True
) -> Lattice:
    """Enlarge ``base`` by the given glue vectors.

    Every glue vector must pair integrally with the base and with the other
    glue vectors; with ``require_even`` each glue vector must also have even
    self-intersection.  The result carries an embedding into ``base`` whose
    determinant is det(base) divided by the square of the index.  Its basis
    rows are the Hermite basis of s*Z^n + span(s*glue), s the lcm of the
    glue denominators less any factor it shares with every entry of s*glue,
    found modulo s by ``exact.hermite_basis_mod``.

    A lattice is integral, or even, exactly when the Gram matrix of one of
    its bases is, so both are checked once, on the result's Gram matrix;
    only when a check fails do the per-vector checks run, in the order
    ``_glue_fault`` gives, to name the fault.
    """
    n = base.rank
    for g in glue:
        if len(g.vector) != n:
            raise GlueError("glue vector has wrong length")
    scale = lcm(*(g.denominator for g in glue))
    rows = [g.vector if g.denominator == scale else [x * (scale // g.denominator) for x in g.vector]
            for g in glue]
    rows, scale = _lowest_terms(rows, scale)
    basis, scale = _lowest_terms(exact.hermite_basis_mod(rows, scale, n), scale)
    # B G B^T over s^2: a row s e_c pairs as s^2 G, so only the rows with a pivot
    # below s take a product with G, and only their pairings can be fractional
    glued = [c for c, row in enumerate(basis) if row[c] != scale]
    products = exact.matmul([basis[c] for c in glued], base.gram)
    block = exact.matmul(products, exact.transpose([basis[c] for c in glued]))
    pairs = {(i, j): divmod(x, scale) for i, row in zip(glued, products) for j, x in enumerate(row)}
    pairs.update({(i, j): divmod(x, scale**2)
                  for i, row in zip(glued, block) for j, x in zip(glued, row)})
    if any(r for _, r in pairs.values()):
        _glue_fault(base, glue, require_even)
        raise GlueError("glue vectors do not close up to an integral lattice")
    gram = [list(row) for row in base.gram]
    for (i, j), (x, _) in pairs.items():
        gram[i][j] = gram[j][i] = x
    result = Lattice._formed(gram, None, Embedding(base, tuple(map(tuple, basis)), scale))
    if require_even and not result.is_even():
        _glue_fault(base, glue, require_even)
        raise GlueError("resulting overlattice is not even")
    return result


def _lowest_terms(rows: Sequence[Sequence[int]], scale: int) -> tuple[Sequence[Sequence[int]], int]:
    """Integer rows over ``scale`` with the factor that scale shares with
    every entry cancelled."""
    common = gcd(scale, *itertools.chain.from_iterable(rows))
    if common == 1:
        return rows, scale
    return [[x // common for x in row] for row in rows], scale // common


def _glue_fault(base: Lattice, glue: Sequence[GlueSpec], require_even: bool) -> None:
    """Raise the GlueError that names the first glue vector, or pair, at
    fault: a pairing with the base, then with the glue, then an odd norm."""
    # v/d pairs integrally with the base iff d divides every entry of G v
    products = [exact.mat_vec(base.gram, g.vector) for g in glue]
    for g, gv in zip(glue, products):
        if any(x % g.denominator for x in gv):
            raise GlueError(f"glue vector {g.vector}/{g.denominator} does not pair integrally with the base")
    for (g, gv), (h, _) in itertools.combinations_with_replacement(zip(glue, products), 2):
        if exact.dot(h.vector, gv) % (g.denominator * h.denominator):
            raise GlueError("glue vectors do not pair integrally with each other")
    if require_even:
        for g, gv in zip(glue, products):
            norm = exact.dot(g.vector, gv) // g.denominator**2
            if norm % 2:
                raise GlueError(f"glue vector {g.vector}/{g.denominator} has odd norm {norm}")


def glue_index(overlattice: Lattice) -> int:
    """Index s^n / |det B| of the base frame in the adjoined lattice, whose
    basis rows are B over s (|det B| is its ``embedding_index``); a
    ``ValueError`` unless it is an overlattice."""
    if overlattice.ambient is None:
        raise ValueError("lattice has no recorded ambient frame")
    det, s = overlattice.embedding_index, overlattice.ambient.denominator
    if not det or s**overlattice.rank % det:
        raise ValueError("lattice is not an overlattice of its frame")
    return s**overlattice.rank // det


# ---------------------------------------------------------------------------
# even overlattices via isotropic subgroups


def _isotropic_subgroups(
    form: FiniteQuadraticForm, max_order: int
) -> list[tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]]:
    """All isotropic subgroups of order <= max_order, each built once, as
    (elements, path) pairs sorted by elements: a sorted tuple of element
    tuples, and the at most log2 |H| elements that built and so generate H.

    Elements compare as tuples, in ``elements()`` order.  A group G grows by
    an element e of its pool, the isotropic elements orthogonal to G, only
    when e is the least of the elements h + te it brings in.  So the path to
    H adds e_k = min(H \\ G_(k-1)) at step k: an x < e_k in H \\ G_(k-1)
    would be new at a later step j, hence x >= e_j >= e_k.  The pool is
    walked in order, so e_1 < e_2 < ... and the path is the only one.  The
    child pool keeps the later w with b(w, e) = 0, orthogonal by bilinearity
    to the larger group, that are least in their coset of it: if w + h < w,
    then w + h is new in every larger group without w, so w is never least.
    A multiple te can still be less than e, hence the test on every step."""
    factors = form.invariant_factors
    zero = tuple(0 for _ in factors)
    subgroups = []

    def add(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((a + b) % d for a, b, d in zip(x, y, factors))

    def grow(grp: frozenset, path: tuple, pool: list[tuple[int, ...]]) -> None:
        subgroups.append((tuple(sorted(grp)), path))
        for i, e in enumerate(pool):
            # e, 2e, ... before the first multiple in grp: k - 1 of them, k
            # the order of e modulo grp, so |grp + <e>| = k |grp|
            multiples = [e]
            while (t := add(multiples[-1], e)) not in grp:
                multiples.append(t)
            if len(grp) * (len(multiples) + 1) > max_order:
                continue
            # q(h + te) = q(h) + t^2 q(e) + 2t b(h, e) = 0 mod 2 for h in grp
            new = [add(h, m) for m in multiples for h in grp]
            if min(new) == e:
                # each w of the pool is least in its coset of grp already
                grow(grp.union(new), path + (e,), [w for w in pool[i + 1:] if not
                     form.b_numerator(w, e) and all(add(w, h) > w for h in new)])

    grow(frozenset([zero]), (), [e for e in form.elements() if any(e) and not form.q_numerator(e)])
    return sorted(subgroups)


def _subgroups_and_lift(l: Lattice, max_index: int | None) -> tuple:
    """l's discriminant form, its isotropic subgroups of order <= max_index,
    and the matrix lifting an element c to sum_i c_i (N / d_i) g_i over N."""
    if max_index is not None:
        exact.require_integers([[max_index]], "even_overlattices")
        if max_index < 0:
            raise ValueError("even_overlattices needs a nonnegative max_index")
    if not l.is_even():
        raise GlueError("even overlattices require an even lattice")
    form = discriminant_group(l)
    if form.order > 2**14:
        raise GlueError("discriminant group too large to enumerate")
    # the square of the index divides the group order
    bound = max_index if max_index is not None else isqrt(form.order)
    top = form.exponent
    lift = exact.transpose([[x * (top // d) for x in g]
                            for g, d in zip(form.generators, form.invariant_factors)])
    return form, _isotropic_subgroups(form, bound), lift


def even_overlattices(l: Lattice, max_index: int | None = None) -> list[Lattice]:
    """One even overlattice per isotropic subgroup of the discriminant form
    of order at most ``max_index`` (unbounded when None), in the subgroups'
    deterministic order, the input lattice itself first, for the trivial
    subgroup; with duplicates up to isometry whenever distinct subgroups
    yield isomorphic overlattices."""
    form, subgroups, lift = _subgroups_and_lift(l, max_index)
    found = []
    for grp, path in subgroups:
        # adjoin reads only the span, which the path generates
        m = l if not path else adjoin(
            l, [GlueSpec(tuple(exact.mat_vec(lift, el)), form.exponent) for el in path])
        if path and glue_index(m) != len(grp):
            raise ArithmeticError("overlattice index differs from the subgroup order")
        found.append(m)
    return found


def even_overlattice_forms(l: Lattice, max_index: int | None = None) -> Iterator[tuple]:
    """For each isotropic subgroup H of l's discriminant form A, in
    ``even_overlattices`` order and with no ``adjoin``: H's elements, the
    index |H| and det l / |H|^2 of the even overlattice M it defines, and a
    function building M's form H^perp / H from A (Nikulin 1979, 1.4)."""
    form, subgroups, lift = _subgroups_and_lift(l, max_index)
    for grp, path in subgroups:
        order = len(grp)
        yield grp, order, l.det() // order**2, partial(_quotient_form, form, path, lift, l.rank)


def _quotient_form(a: FiniteQuadraticForm, path: list, lift: list, n: int) -> FiniteQuadraticForm:
    """H^perp / H for the isotropic H that ``path`` generates in A = Z^k /
    diag(d).  H^perp lifts to P, the integer kernel of c -> N b(c, path) mod
    N, and H to the x in P with b(x, P) = 0 (b is nondegenerate), so the
    Smith form U C V = D of C = P (N b) P^T gives P / H its generators, the
    rows of U P, of orders N / gcd(N, D_ii); a p-part H misses is A's up to
    isomorphism.  A generator x of order o is stored as o x in the Hermite
    basis ``adjoin`` gives M, as ``discriminant_group(M)`` would store it,
    and q and b are A's on the rows of U P (``restrict``)."""
    if not path:
        return a
    top, bn = a.exponent, a.b_numerators
    rows = [exact.mat_vec(bn, h) + [top * (i == j) for j in range(len(path))]
            for i, h in enumerate(path)]
    p = [row[: len(bn)] for row in exact.kernel_basis(rows)]
    d, u, _ = exact.smith_normal_form(exact.congruence(p, bn))
    gens = [(o, c) for i, c in reversed([*enumerate(exact.matmul(u, p))])
            if (o := top // gcd(top, d[i][i])) > 1]
    # o x is o lift(c) / N; in M's basis B / s its coordinates are those of
    # s o x in the echelon rows B
    rows, s = _lowest_terms([exact.mat_vec(lift, h) for h in path], top)
    basis, s = _lowest_terms(exact.hermite_basis_mod(rows, s, n), s)
    vectors = [exact.echelon_coordinates(basis, [x * o * s for x in exact.mat_vec(lift, c)], top)
               for o, c in gens]
    if None in vectors:
        raise ArithmeticError("H^perp / H does not lift to the overlattice")
    return a.restrict([c for _, c in gens], [o for o, _ in gens], [tuple(v) for v in vectors])


def find_isotropic_glue(
    l: Lattice,
    target: Sequence[int],
    divisor: int,
    search_basis: Sequence[Sequence[int]] = (),
    bound: int = 0,
) -> list[int] | None:
    """Search target + sum(c_i * search_basis[i]) over |c_i| <= bound for a
    vector of norm 0 whose pairings with l have gcd ``divisor``.
    Vectors are in l's base frame when l was built by adjoin, else in l's own
    coordinates.  Returns the first vector found with the c_i in
    lexicographic order, or None.

    The norm is read off the small integer Gram matrix of target and the
    search vectors; only a vector of norm 0 there is built and checked by
    ``is_isotropic_glue``.  No claim runs the search: each checks a stored vector."""
    frame = l.ambient.ambient if l.ambient is not None else l
    rows = [target, *search_basis]
    exact.require_integers(rows, "find_isotropic_glue")
    small = exact.congruence(rows, frame.gram)
    # the target's coefficient is fixed to 1; the search coefficients vary
    for coeffs, _ in exact.box_vectors(small, bound, (0,), (1,)):
        v = list(target)
        for c, s in zip(coeffs, rows[1:]):
            if c:
                v = [x + c * y for x, y in zip(v, s)]
        if is_isotropic_glue(l, v, divisor):
            return v
    return None


def is_isotropic_glue(l: Lattice, v: Sequence[int], divisor: int) -> bool:
    """v, in l's frame (see ``divisibility``), is isotropic with pairings of gcd ``divisor``."""
    frame = l.ambient.ambient if l.ambient is not None else l
    return frame.norm(v) == 0 and divisibility(l, v) == divisor


# ---------------------------------------------------------------------------
# the named lattices
#
# Frames with A1-indexed generators use the nonzero elements of (Z/2Z)^4 in
# binary order: NONZERO16[i] is i + 1 in binary.  Character n is 1 on i + 1
# when n & (i + 1) has an odd number of digits 1, so its support is the
# complement of an index-2 subgroup.

NONZERO16 = [tuple((n >> k) & 1 for k in (3, 2, 1, 0)) for n in range(1, 16)]
INDEX_OF = {e: i for i, e in enumerate(NONZERO16)}
_SUPPORTS = tuple(
    tuple(i for i in range(15) if bin(n & (i + 1)).count("1") % 2) for n in range(1, 16)
)


def index2_subgroup_complements() -> tuple[tuple[int, ...], ...]:
    """Supports (index lists into NONZERO16) of the complements of the 15
    index-2 subgroups of (Z/2Z)^4, one per nonzero character, in that order."""
    return _SUPPORTS


def frame_vector(h: int, indices: Iterable[int], coeff: int = 1) -> list[int]:
    """Vector h*l + coeff * (sum of the indexed (-2)-classes) in the rank-16
    frame of a first class l followed by the fifteen classes indexed by
    NONZERO16: the degree frame of the 15-nodal lattices, or KummerK's frame
    with the class of 0000 in l's place."""
    v = [h] + [0] * 15
    for i in indices:
        v[i + 1] += coeff
    return v


def m16_lattice() -> Lattice:
    """Rank-15 lattice of fifteen (-2)-classes indexed by the nonzero
    elements of (Z/2Z)^4, glued by the half-sums over the supports, their
    frame vectors without the l coordinate; discriminant -128."""
    base = direct_sum(*[root_lattice("A", 1)] * 15)
    glue = [GlueSpec(tuple(frame_vector(0, s)[1:]), 2) for s in _SUPPORTS]
    return adjoin(base, glue).rename("M16")


def kummer_lattice() -> Lattice:
    """Rank-16 lattice of sixteen (-2)-classes indexed by (Z/2Z)^4, glued by
    half-sums over all cosets of index-2 subgroups, frame vectors with the
    class of 0000 in l's place; discriminant 64."""
    base = direct_sum(*[root_lattice("A", 1)] * 16)
    glue = []
    for s in _SUPPORTS:
        kernel = [i for i in range(15) if i not in s]
        glue += [GlueSpec(tuple(frame_vector(h, t)), 2) for h, t in ((0, s), (1, kernel))]
    return adjoin(base, glue).rename("KummerK")


def subgroup_order4(gens: Sequence[tuple[int, int, int, int]]) -> list[int]:
    """Indices into NONZERO16 of the nonzero elements of the subgroup
    generated by two elements of (Z/2Z)^4."""
    g1, g2 = gens
    els = {g1, g2, tuple((x + y) % 2 for x, y in zip(g1, g2))}
    return sorted(INDEX_OF[e] for e in els)


# subgroup of elements whose first two components vanish
N1_SUBGROUP = subgroup_order4([(0, 0, 0, 1), (0, 0, 1, 0)])


def ld_lattice(d: int, variant: str) -> Lattice:
    """Rank-16 lattice <2d> + M16 enlarged by one half-integral glue class:
    the glue is the frame vectors of the 15 supports plus frame_vector(1, S),
    over 2, with S the three classes of a fixed order-4 subgroup (variant
    "subgroup") or all fifteen ("all").  Both require d = 3 mod 4 for the
    result to be even."""
    if d <= 0 or d % 4 != 3:
        raise GlueError("d must be a positive integer congruent to 3 mod 4")
    if variant not in ("subgroup", "all"):
        raise GlueError("variant must be 'subgroup' or 'all'")
    base = direct_sum(rank_one(2 * d), *[root_lattice("A", 1)] * 15)
    glue = [GlueSpec(tuple(frame_vector(0, s)), 2) for s in _SUPPORTS]
    indices = N1_SUBGROUP if variant == "subgroup" else range(15)
    glue.append(GlueSpec(tuple(frame_vector(1, indices)), 2))
    return adjoin(base, glue).rename(f"L_d({d},{variant})")


def n1_lattice() -> Lattice:
    return ld_lattice(3, "subgroup").rename("N1")


def n2_lattice() -> Lattice:
    return ld_lattice(3, "all").rename("N2")


def lambda_lattice(n: int) -> Lattice:
    exact.require_integers([[n]], "lambda_lattice")
    if n < 1:
        raise GlueError("n must be positive")
    return direct_sum(
        rank_one(-2), rank_one(-2 * n), hyperbolic(), hyperbolic()
    ).rename(f"Lambda({n})")


def l0_lattice() -> Lattice:
    return direct_sum(
        hyperbolic(), root_lattice("D", 4), *[root_lattice("A", 1)] * 9
    ).rename("L0")


def _l2_frame() -> Lattice:
    """Rank-16 frame for L2: fiber F, zero section O, the four fiber
    components of the 5-component star fiber not meeting O (central node
    first), the nine nonidentity components of the 2-component fibers, and
    the free section s.

    Basis order: F, O, c, d1, d2, d3, a1..a9, s.
    """
    n = 16
    g = exact.zeros(n, n)
    F, O = 0, 1
    c, d1, d2, d3 = 2, 3, 4, 5
    a = list(range(6, 15))
    s = 15
    g[F][O] = g[O][F] = 1
    g[O][O] = -2
    for i in (c, d1, d2, d3):
        g[i][i] = -2
    for i in (d1, d2, d3):
        g[c][i] = g[i][c] = 1
    for i in a:
        g[i][i] = -2
    g[s][s] = -2
    g[s][F] = g[F][s] = 1
    g[s][O] = g[O][s] = 1
    for i in a:
        g[s][i] = g[i][s] = 1
    return Lattice(g, "L2-frame")


# L2's two 2-torsion sections, over 2 in ``_l2_frame`` coordinates (the
# solutions of their incidence systems, as ``exact.solve`` gives them): the
# norm -2 classes meeting F once, missing O, s and the central node, meeting
# d1 (then d2), and pairing 0 with a1..a3 (then a4..a6) and 1 with the six
# other a_i
L2_TORSION = (
    GlueSpec((4, 2, -2, -2, -1, -1, 0, 0, 0, -1, -1, -1, -1, -1, -1, 0), 2),
    GlueSpec((4, 2, -2, -1, -2, -1, -1, -1, -1, 0, 0, 0, -1, -1, -1, 0), 2),
)


def l2_lattice() -> Lattice:
    """The rank-16 hyperbolic-signature lattice generated by the frame of a
    star fiber plus nine 2-component fibers, a zero section, a free section,
    and the two 2-torsion section classes ``L2_TORSION``, each checked
    against its incidences and norm first (G is nonsingular, so they fix
    it); determinant -192."""
    frame = _l2_frame()
    for g, d, zero in zip(L2_TORSION, (1, 2), (range(0, 3), range(3, 6))):
        incidences = [1, 0, 0] + [1 if i == d else 0 for i in (1, 2, 3)]
        incidences += [0 if i in zero else 1 for i in range(9)] + [0]
        gv, den = exact.mat_vec(frame.gram, g.vector), g.denominator
        if gv != [den * x for x in incidences] or exact.dot(g.vector, gv) != -2 * den**2:
            raise GlueError(f"stored L2 torsion class {g.vector}/{den} fails its incidences")
    return adjoin(frame, L2_TORSION).rename("L2")


# the half classes of A5 (nodes 1, 3, 5) and of A1 in U + D8 + A5 + A1
L_SAT_GLUE = GlueSpec((0,) * 10 + (1, 0, 1, 0, 1, 1), 2)


def l_sat_lattice() -> Lattice:
    """U + D8 + A5 + A1 glued by ``L_SAT_GLUE``: the index-2 even overlattice
    first after the base in ``even_overlattices`` order; determinant -12."""
    base = direct_sum(
        hyperbolic(), root_lattice("D", 8), root_lattice("A", 5), root_lattice("A", 1)
    )
    l_sat = adjoin(base, [L_SAT_GLUE])
    if glue_index(l_sat) != 2:
        raise GlueError("L_sat glue does not have index 2")
    return l_sat.rename("L_sat")


def u_e8_e6_lattice() -> Lattice:
    return direct_sum(
        hyperbolic(), root_lattice("E", 8), root_lattice("E", 6)
    ).rename("U+E8+E6")


def np_lattice(p: int, n: int) -> Lattice:
    """Signature (2,2) lattice with norm form x^2 - n y^2 + p z^2 - np w^2;
    n must be a quadratic nonresidue mod the odd prime p."""
    if p < 3 or not is_probable_prime(p):
        raise GlueError("p must be an odd prime")
    if n % p == 0 or legendre(n % p, p) != -1:
        raise GlueError("n must be a quadratic nonresidue mod p")
    return direct_sum(
        rank_one(1, allow_odd=True),
        rank_one(-n, allow_odd=True),
        rank_one(p, allow_odd=True),
        rank_one(-n * p, allow_odd=True),
    ).rename(f"Np({p},{n})")


def lp_lattice(p: int) -> Lattice:
    if not is_probable_prime(p) or p % 24 != 17:
        raise GlueError("p must be a prime congruent to 17 mod 24")
    return direct_sum(
        rank_one(-2), rank_one(-6), hyperbolic(), rank_one(4 * p)
    ).rename(f"Lp({p})")


NAMED_BUILDERS = {
    "L0": l0_lattice,
    "L2": l2_lattice,
    "M16": m16_lattice,
    "N1": n1_lattice,
    "N2": n2_lattice,
    "KummerK": kummer_lattice,
    "U_E8_E6": u_e8_e6_lattice,
    "L_sat": l_sat_lattice,
    "V": build_V,
}

_PARAM_RE = re.compile(r"^(\w+)\(([^)]*)\)$")


def named_lattice_names() -> list[str]:
    return sorted(NAMED_BUILDERS) + ["Lambda(n)", "Lp(p)", "Np(p,n)", "L_d(d,variant)"]


def build_named(name: str) -> Lattice:
    """Construct a named lattice; parameterized names look like Lambda(3),
    Lp(17), Np(5,2), L_d(7,subgroup).  Surrounding whitespace is ignored."""
    name = name.strip()
    if name in NAMED_BUILDERS:
        return NAMED_BUILDERS[name]()
    m = _PARAM_RE.match(name)
    if not m:
        raise GlueError(f"unknown lattice name {name!r}")
    head, args = m.group(1), [a.strip() for a in m.group(2).split(",")]
    if head == "Lambda" and len(args) == 1:
        return lambda_lattice(_int_param(args[0], name))
    if head == "Lp" and len(args) == 1:
        return lp_lattice(_int_param(args[0], name))
    if head == "Np" and len(args) == 2:
        return np_lattice(_int_param(args[0], name), _int_param(args[1], name))
    if head == "L_d" and len(args) == 2:
        return ld_lattice(_int_param(args[0], name), args[1])
    raise GlueError(f"unknown lattice name {name!r}")


def _int_param(arg: str, name: str) -> int:
    """An integer parameter of a named lattice; any other text makes the
    name unknown."""
    try:
        return exact.parse_int(arg)
    except ValueError:
        raise GlueError(f"unknown lattice name {name!r}") from None
