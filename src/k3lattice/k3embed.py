"""Embeddings into the rank-22 even unimodular lattice of signature (3,19),
transcendental lattices, genus comparison via discriminant forms, and
isometry testing.

Genus comparison is the Nikulin-style test: equal signatures plus isomorphic
discriminant forms, the latter found by a backtracking generator-mapping
search and verified on every group element before being accepted.  Definite
isometry is decided by a complete short-vector backtracking search; an
additional bounded coordinate-box search provides isometry certificates for
small indefinite lattices.  Both searches share one pool-refined Gram
matching: each chosen vector filters the candidate pools of all later basis
vectors by their pairing with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from . import exact
from .lattice import (
    FiniteQuadraticForm,
    Lattice,
    direct_sum,
    discriminant_group,
    hyperbolic,
    lattice,
    make_embedding,
    orthogonal_complement,
    root_lattice,
    saturation_index,
)
from .quadform import (
    REAL,
    QuadFormInvariants,
    _class_and_places,
    _form,
    _invariants,
    _is_local_square,
    _is_probable_prime,
    hilbert_symbol,
    place_sort_key,
)


@dataclass(frozen=True)
class EmbeddedLattice:
    """Integer-basis sublattice of an ambient lattice; rows of ``basis`` are
    vectors in ambient coordinates."""

    ambient: Lattice
    basis: tuple[tuple[int, ...], ...]

    def lattice(self) -> Lattice:
        rows = [list(r) for r in self.basis]
        gram = exact.matmul(
            exact.matmul(rows, [list(r) for r in self.ambient.gram]),
            exact.transpose(rows),
        )
        return Lattice(
            tuple(tuple(int(x) for x in r) for r in gram),
            None,
            make_embedding(self.ambient, rows),
        )

    def is_primitive(self) -> bool:
        return saturation_index(self.ambient, [list(r) for r in self.basis]) == 1


def build_V() -> Lattice:
    """U^3 + E8^2: rank 22, signature (3,19), determinant -1."""
    return direct_sum(
        hyperbolic(), hyperbolic(), hyperbolic(),
        root_lattice("E", 8), root_lattice("E", 8),
    ).rename("V")


def _unit_rows(indices: Sequence[int], width: int) -> list[list[int]]:
    return [[1 if j == i else 0 for j in range(width)] for i in indices]


# Dynkin node index sets inside E8 (chain 1..7, node 8 on node 5), 0-based.
E8_A5_A1_NODES = [0, 1, 2, 3, 4, 6]
# A2 = first two chain nodes, A1^3 = the three neighbours of the branch node
E8_A2_A1C_NODES = [0, 1, 3, 5, 7]


def embed_standard(spec: str, k: int | None = None) -> EmbeddedLattice:
    """The documented standard embeddings.

    Specs: "A5+A1 in E8", "A2+A1^3 in E8", "U+E8+A5+A1 in V",
    "L2-isogeny-complement" (the rank-6 complement of the previous one),
    "vector_of_norm(k) in U".
    """
    if spec == "A5+A1 in E8":
        return EmbeddedLattice(
            root_lattice("E", 8), tuple(map(tuple, _unit_rows(E8_A5_A1_NODES, 8)))
        )
    if spec == "A2+A1^3 in E8":
        return EmbeddedLattice(
            root_lattice("E", 8), tuple(map(tuple, _unit_rows(E8_A2_A1C_NODES, 8)))
        )
    if spec == "U+E8+A5+A1 in V":
        v = build_V()
        rows = _unit_rows([0, 1], 22) + _unit_rows(range(6, 14), 22)
        rows += _unit_rows([14 + i for i in E8_A5_A1_NODES], 22)
        return EmbeddedLattice(v, tuple(map(tuple, rows)))
    if spec == "L2-isogeny-complement":
        sub = embed_standard("U+E8+A5+A1 in V")
        comp = orthogonal_complement(sub.ambient, [list(r) for r in sub.basis])
        return EmbeddedLattice(sub.ambient, comp.ambient.basis)
    if spec == "vector_of_norm(k) in U":
        if k is None or k % 2:
            raise ValueError("an even norm k is required")
        return EmbeddedLattice(hyperbolic(), ((1, k // 2),))
    raise ValueError(f"unknown embedding spec {spec!r}")


def transcendental_of(e: EmbeddedLattice) -> Lattice:
    """Orthogonal complement of the (saturated) sublattice in its ambient."""
    return orthogonal_complement(e.ambient, [list(r) for r in e.basis])


# ---------------------------------------------------------------------------
# discriminant form isomorphism and genus comparison


def find_disc_form_isomorphism(
    f1: FiniteQuadraticForm, f2: FiniteQuadraticForm
) -> list[tuple[int, ...]] | None:
    """Images in f2 of f1's generators under some isomorphism preserving q
    and b, or None.  Requires both forms to carry q-values."""
    if f1.invariant_factors != f2.invariant_factors:
        return None
    if f1.q_numerators is None or f2.q_numerators is None:
        raise ValueError("both lattices must be even")
    k = len(f1.invariant_factors)
    if k == 0:
        return []
    # equal invariant factors give both forms the same exponent N, so q and
    # b compare as integer numerators over N.  The multiset of (order, q)
    # over all elements is an isomorphism invariant; it prunes distinct
    # forms without any search
    profile1 = sorted((f1.element_order(e), f1.q_numerator(e)) for e in f1.elements())
    profile2: dict[tuple, list[tuple[int, ...]]] = {}
    for e in f2.elements():
        profile2.setdefault((f2.element_order(e), f2.q_numerator(e)), []).append(e)
    if profile1 != sorted(
        key for key, els in profile2.items() for _ in els
    ):
        return None
    images: list[tuple[int, ...]] = []

    def extend(i: int, grp: frozenset) -> bool:
        # grp = <images> has order d_0 * ... * d_{i-1}; an image that does not
        # grow it by its full order d_i can never complete an isomorphism
        if i == k:
            return True
        for cand in profile2.get((f1.invariant_factors[i], f1.q_numerators[i]), ()):
            if any(
                f2.b_numerator(cand, images[j]) != f1.b_numerators[i][j]
                for j in range(i)
            ):
                continue
            bigger = f2.span([cand], grp)
            if len(bigger) != len(grp) * f1.invariant_factors[i]:
                continue
            images.append(cand)
            if extend(i + 1, bigger):
                return True
            images.pop()
        return False

    if not extend(0, f2.span([])):
        return None

    # verify on every element: q determines b by polarization, so checking q
    # of each element under the induced map is a full check
    def push(el: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * k
        for c, img in zip(el, images):
            if c:
                out = [
                    (a + c * b) % d
                    for a, b, d in zip(out, img, f2.invariant_factors)
                ]
        return tuple(out)

    for el in f1.elements():
        if f1.q_numerator(el) != f2.q_numerator(push(el)):
            return None
    return images


def disc_forms_isomorphic(f1: FiniteQuadraticForm, f2: FiniteQuadraticForm) -> bool:
    if f1.order != f2.order:
        return False
    return find_disc_form_isomorphism(f1, f2) is not None


def genus_equal(l1: Lattice, l2: Lattice) -> bool:
    """Same signature and isomorphic discriminant forms (both lattices even
    and nondegenerate)."""
    if not (l1.is_even() and l2.is_even()):
        raise ValueError("genus comparison implemented for even lattices")
    if l1.signature() != l2.signature():
        return False
    if abs(l1.det()) != abs(l2.det()):
        return False
    return disc_forms_isomorphic(discriminant_group(l1), discriminant_group(l2))


def genus_uniqueness_applicable(l: Lattice) -> bool:
    """Sufficient conditions under which an even indefinite lattice is alone
    in its genus: rank >= 2 + minimal generator count of the discriminant
    group, or a 2-elementary discriminant group."""
    p, z, n = l.signature()
    if z or p == 0 or n == 0:
        return False
    form = discriminant_group(l)
    length = len(form.invariant_factors)
    if l.rank >= 2 + length:
        return True
    return all(d == 2 for d in form.invariant_factors)


def complement_genus_in_unimodular(
    l: Lattice, ambient_signature: tuple[int, int] = (3, 19)
) -> tuple[tuple[int, int], FiniteQuadraticForm]:
    """Signature and discriminant form that any primitive complement of l in
    an even unimodular lattice of the given signature must have."""
    p, n = l.signature_pair()
    ap, an = ambient_signature
    return (ap - p, an - n), discriminant_group(l).negate()


# ---------------------------------------------------------------------------
# short vectors and definite isometry


def short_vectors(gram: Sequence[Sequence[int]], max_norm: int) -> dict[int, list[tuple[int, ...]]]:
    """All vectors of a positive-definite lattice with 0 < q(v) <= max_norm,
    one representative per antipodal pair, grouped by norm."""
    n = len(gram)
    # q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2
    d, u, _ = exact.ldl(gram)
    if not all(p > 0 for p in d):
        raise ValueError("matrix is not positive definite")
    out: dict[int, list[tuple[int, ...]]] = {}
    x = [0] * n

    def rec(i: int, remaining: Fraction) -> None:
        if i < 0:
            norm = int(Fraction(max_norm) - remaining)
            if norm > 0:
                out.setdefault(norm, []).append(tuple(x))
            return
        center = -sum(u[i][j] * x[j] for j in range(i + 1, n))
        # d_i (x_i - center)^2 <= remaining
        bound = remaining / d[i]
        c0 = center.numerator // center.denominator  # floor
        t = c0
        while (t - center) ** 2 <= bound:
            t -= 1
        low = t + 1
        t = c0 + 1
        while (t - center) ** 2 <= bound:
            t += 1
        high = t - 1
        for xi in range(low, high + 1):
            x[i] = xi
            rec(i - 1, remaining - d[i] * (xi - center) ** 2)
        x[i] = 0

    rec(n - 1, Fraction(max_norm))
    # keep one vector of each +-pair, drop zero
    seen: dict[int, list[tuple[int, ...]]] = {}
    for norm, vecs in out.items():
        keep = []
        for v in vecs:
            if not any(v):
                continue
            neg = tuple(-c for c in v)
            if neg not in keep:
                keep.append(v)
        if keep:
            seen[norm] = keep
    return seen


def _greedy_reduce(gram: list[list[int]]) -> list[list[int]]:
    """Norm-minimizing sweep: replace b_i by b_i +- b_j while the norm of
    b_i strictly drops.  Returns the transformation rows."""
    n = len(gram)
    basis = exact.identity(n)

    def norm(v):
        return sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))

    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for sgn in (1, -1):
                    cand = [x + sgn * y for x, y in zip(basis[i], basis[j])]
                    if abs(norm(cand)) < abs(norm(basis[i])):
                        basis[i] = cand
                        changed = True
    return basis


def _match_gram(
    target: Sequence[Sequence[int]],
    cands: dict[int, list[tuple[int, ...]]],
    gram: Sequence[Sequence[int]],
) -> list[list[int]] | None:
    """Backtracking search for vectors v_0..v_{n-1}, v_i taken in order from
    ``cands[target[i][i]]``, whose pairings under ``gram`` reproduce
    ``target`` and which span a sublattice of index 1; the rows found, or
    None.

    Choosing v_i filters the pool of every later level down to the vectors
    that pair with v_i as ``target`` asks, keeping pool order, and a choice
    that empties a pool is dropped at once (Plesken-Souvignier 1997).  Each
    level therefore tries exactly the candidates that pair correctly with
    all earlier choices, in the order of ``cands``.
    """
    n = len(target)
    chosen: list[tuple[int, ...]] = []
    images: dict[tuple[int, ...], list[int]] = {}  # v -> G v, once per candidate

    def extend(i: int, pools: list[list[tuple[int, ...]]]) -> bool:
        # pools[l] holds the candidates still open for level i + l
        if i == n:
            return abs(exact.det([list(v) for v in chosen])) == 1
        for v in pools[0]:
            gv = images.get(v)
            if gv is None:
                gv = images[v] = exact.mat_vec(gram, v)
            rest = []
            for level, pool in enumerate(pools[1:], i + 1):
                want = target[level][i]
                pool = [w for w in pool if sum(map(mul, w, gv)) == want]
                if not pool:
                    break
                rest.append(pool)
            else:
                chosen.append(v)
                if extend(i + 1, rest):
                    return True
                chosen.pop()
        return False

    pools = [cands.get(target[i][i], []) for i in range(n)]
    return [list(v) for v in chosen] if extend(0, pools) else None


def definite_isomorphic(l1: Lattice, l2: Lattice) -> bool:
    """Exact isometry test for definite lattices of equal rank via complete
    backtracking over short vectors of matching norms and pairings."""
    for l in (l1, l2):
        p, z, n = l.signature()
        if z or (p and n):
            raise ValueError("definite_isomorphic requires definite lattices")
    if l1.rank != l2.rank or l1.det() != l2.det():
        return False
    if l1.signature() != l2.signature():
        return False
    neg = l1.signature()[2] > 0
    g1 = [[-x for x in row] for row in l1.gram] if neg else [list(r) for r in l1.gram]
    g2 = [[-x for x in row] for row in l2.gram] if neg else [list(r) for r in l2.gram]

    red = _greedy_reduce(g1)
    g1r = exact.matmul(exact.matmul(red, g1), exact.transpose(red))
    n = len(g1r)
    max_norm = max(g1r[i][i] for i in range(n))
    cands = {
        norm: [w for v in vecs for w in (v, tuple(-c for c in v))]
        for norm, vecs in short_vectors(g2, max_norm).items()
    }
    # a full match maps a finite-index sublattice isometrically; equal
    # determinants force the index to be 1, so the leaf check always passes
    return _match_gram(g1r, cands, g2) is not None


def isometry_search(l1: Lattice, l2: Lattice, bound: int = 5) -> list[list[int]] | None:
    """Bounded backtracking search for an isometry l1 -> l2: images are
    sought among vectors with coordinates in [-bound, bound].  A returned
    matrix (rows = images of l1's basis) is verified exactly; None only
    means no isometry with small coordinates was found."""
    if l1.rank != l2.rank or l1.det() != l2.det() or l1.signature() != l2.signature():
        return None
    n = l1.rank
    g2 = [list(r) for r in l2.gram]
    by_norm: dict[int, list[tuple[int, ...]]] = {}
    needed = {l1.gram[i][i] for i in range(n)}
    for v, norm in exact.box_norms(g2, bound):
        if norm in needed and any(v):
            by_norm.setdefault(norm, []).append(v)

    rows = _match_gram(l1.gram, by_norm, g2)
    if rows is None:
        return None
    check = exact.matmul(exact.matmul(rows, g2), exact.transpose(rows))
    if check != [list(r) for r in l1.gram]:
        raise ArithmeticError("isometry search returned a map that is not an isometry")
    return rows


# ---------------------------------------------------------------------------
# quadric certificates


def _minus_key(sig, minus) -> tuple:
    places = sorted(minus, key=place_sort_key)
    return (sig, len(places), [place_sort_key(v) for v in places])


def quadric_certificate(l: Lattice) -> QuadFormInvariants:
    """Q-isomorphism-class certificate of the projective quadric of l.

    Two quadrics are isomorphic over Q exactly when the forms are similar
    (equal up to a rational scale factor).  Odd rank: scaling by the
    discriminant class is the unique way to make the discriminant trivial,
    and that representative's invariants are the certificate.  Even rank:
    the discriminant class is itself invariant, scaling by c multiplies the
    Hasse invariant at v by (c, d)_v with d the signed discriminant, and
    every finite even-cardinality flip set inside the places where d is a
    local nonsquare is realized by some positive c; the certificate stores
    the minimal reachable signature/Hasse data.  Both cases are invariant
    under rescaling the lattice and under finite-index sublattices.
    """
    pivots, det = _form(l.gram)
    d, places = _class_and_places(det)
    n = len(pivots)
    if n % 2:
        return _invariants([d * x for x in pivots], 1, places)

    signed = d * (-1) ** (n // 2)
    base = _invariants(pivots, d, places)

    def flippable(v) -> bool:
        return v != REAL and not _is_local_square(signed, v)

    def smallest_external_flip(minus: frozenset) -> int:
        if signed == 1:
            raise ArithmeticError("no flip places for a split discriminant")
        p = 2
        while True:
            if p not in minus and flippable(p):
                return p
            p = _next_prime(p)

    candidates = []
    for negate in (False, True):
        sig = base.signature if not negate else base.signature[::-1]
        minus = set(base.hasse_minus)
        if negate:
            # scaling by a negative constant twists by (-1, signed)
            for v in places:
                if hilbert_symbol(-1, signed, v) == -1:
                    minus ^= {v}
        removable = {v for v in minus if flippable(v)}
        stuck = frozenset(minus - removable)
        if len(removable) % 2 == 0:
            candidates.append((sig, stuck))
        else:
            for kept in removable:
                candidates.append((sig, stuck | {kept}))
            candidates.append((sig, stuck | {smallest_external_flip(minus)}))
    sig, minus = min(candidates, key=lambda c: _minus_key(*c))
    return QuadFormInvariants(n, sig, d, frozenset(minus))


def _next_prime(p: int) -> int:
    q = p + 1
    while not _is_probable_prime(q):
        q += 1
    return q
