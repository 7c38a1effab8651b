"""Embeddings into the rank-22 even unimodular lattice of signature (3,19),
transcendental lattices, genus comparison via discriminant forms, and
isometry testing.

Genus comparison is the Nikulin-style test: equal signatures plus isomorphic
discriminant forms, the latter found by mapping each generator into the
elements of its order and q value and verified on every group element before
being accepted.  Definite isometry is decided by a complete short-vector
backtracking search; an additional bounded coordinate-box search provides
isometry certificates for small indefinite lattices.  All three searches run
on one pool-refined Gram matching: each chosen vector filters the candidate
pools of all later generators by their pairing with it, compared modulo the
exponent for discriminant forms.
"""

from __future__ import annotations

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
    orthogonal_complement,
    root_lattice,
    sublattice,
)


def build_V() -> Lattice:
    """U^3 + E8^2: rank 22, signature (3,19), determinant -1."""
    return direct_sum(
        hyperbolic(), hyperbolic(), hyperbolic(),
        root_lattice("E", 8), root_lattice("E", 8),
    ).rename("V")


def unit_rows(indices: Sequence[int], width: int) -> list[list[int]]:
    """The standard basis vectors e_i, i in ``indices``, of length width."""
    return [[1 if j == i else 0 for j in range(width)] for i in indices]


# Dynkin node index sets inside E8 (chain 1..7, node 8 on node 5), 0-based.
E8_A5_A1_NODES = [0, 1, 2, 3, 4, 6]
# A2 = first two chain nodes, A1^3 = the three neighbours of the branch node
E8_A2_A1C_NODES = [0, 1, 3, 5, 7]


def embed_standard(spec: str, k: int | None = None) -> Lattice:
    """The documented standard embeddings, as lattices embedded in their
    ambient.

    Specs: "A5+A1 in E8", "A2+A1^3 in E8", "U+E8+A5+A1 in V",
    "vector_of_norm(k) in U".
    """
    if spec == "A5+A1 in E8":
        return sublattice(root_lattice("E", 8), unit_rows(E8_A5_A1_NODES, 8))
    if spec == "A2+A1^3 in E8":
        return sublattice(root_lattice("E", 8), unit_rows(E8_A2_A1C_NODES, 8))
    if spec == "U+E8+A5+A1 in V":
        rows = unit_rows([0, 1], 22) + unit_rows(range(6, 14), 22)
        rows += unit_rows([14 + i for i in E8_A5_A1_NODES], 22)
        return sublattice(build_V(), rows)
    if spec == "vector_of_norm(k) in U":
        if k is None or k % 2:
            raise ValueError("an even norm k is required")
        return sublattice(hyperbolic(), [[1, k // 2]])
    raise ValueError(f"unknown embedding spec {spec!r}")


def transcendental_of(l: Lattice) -> Lattice:
    """Orthogonal complement of an embedded lattice in its ambient."""
    if l.ambient is None:
        raise ValueError("lattice has no recorded ambient frame")
    return orthogonal_complement(l.ambient.ambient, l.ambient.basis)


# ---------------------------------------------------------------------------
# discriminant form isomorphism and genus comparison


def find_disc_form_isomorphism(
    f1: FiniteQuadraticForm, f2: FiniteQuadraticForm
) -> list[tuple[int, ...]] | None:
    """Images in f2 of f1's generators under some isomorphism preserving q
    and b, or None.  Requires both forms to carry q-values, and f1 to be
    nondegenerate, as the discriminant form of a nondegenerate lattice is;
    a degenerate b raises ``ValueError``.

    Generator i is sent into the elements of f2 with its order and q value,
    and the images must pair as the generators do (``_match_gram`` modulo
    the exponent).  A map preserving b has its kernel in the radical of b,
    so on a nondegenerate form it is injective and, with equal orders, an
    isomorphism: the search needs no subgroup bookkeeping.
    """
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
    # forms without any search.  f1's q values are kept in element order and
    # f2's by element for the final pass
    q1 = [f1.q_numerator(e) for e in f1.elements()]
    profile1 = sorted(zip(map(f1.element_order, f1.elements()), q1))
    profile2: dict[tuple, list[tuple[int, ...]]] = {}
    q2: dict[tuple[int, ...], int] = {}
    for e in f2.elements():
        q2[e] = q = f2.q_numerator(e)
        profile2.setdefault((f2.element_order(e), q), []).append(e)
    if profile1 != sorted(
        key for key, els in profile2.items() for _ in els
    ):
        return None
    pools = [profile2.get(key, []) for key in zip(f1.invariant_factors, f1.q_numerators)]
    images = _match_gram(f1.b_numerators, pools, f2.b_numerators, f2.exponent)
    if images is None:
        return None

    # verify on every element: q determines b by polarization, so checking q
    # of each element under the induced map, and that no two elements share
    # an image, is a full check
    def push(el: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * k
        for c, img in zip(el, images):
            if c:
                out = [
                    (a + c * b) % d
                    for a, b, d in zip(out, img, f2.invariant_factors)
                ]
        return tuple(out)

    seen = set()
    for el, q in zip(f1.elements(), q1):
        img = push(el)
        if q != q2[img]:
            return None
        seen.add(img)
    if len(seen) != f1.order:
        raise ValueError("degenerate discriminant form: b has a nonzero radical")
    return [tuple(v) for v in images]


def disc_forms_isomorphic(f1: FiniteQuadraticForm, f2: FiniteQuadraticForm) -> bool:
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
    l: Lattice,
) -> tuple[tuple[int, int], FiniteQuadraticForm]:
    """Signature and discriminant form that any primitive complement of l in
    the even unimodular lattice of signature (3,19) must have."""
    p, n = l.signature_pair()
    return (3 - p, 19 - n), discriminant_group(l).negate()


# ---------------------------------------------------------------------------
# short vectors and definite isometry


def short_vectors(gram: Sequence[Sequence[int]], max_norm: int) -> dict[int, list[tuple[int, ...]]]:
    """All vectors of a positive-definite lattice with 0 < q(v) <= max_norm,
    one representative per antipodal pair, grouped by norm."""
    n = len(gram)
    # q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j / u_ii)^2
    d, u, _ = exact.ldl(gram)
    if not all(p > 0 for p in d):
        raise ValueError("matrix is not positive definite")
    out: dict[int, list[tuple[int, ...]]] = {}
    # depth first over x_{n-1}, ..., x_0, each coordinate ascending: a stack
    # of the coordinates x_i..x_{n-1} fixed so far and the norm they leave
    stack: list[tuple[tuple[int, ...], Fraction]] = [((), Fraction(max_norm))]
    while stack:
        tail, remaining = stack.pop()
        i = n - 1 - len(tail)
        if i < 0:
            norm = int(max_norm - remaining)
            if norm > 0:
                out.setdefault(norm, []).append(tail)
            continue
        center = Fraction(-sum(map(mul, u[i][i + 1 :], tail)), u[i][i])
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
        if not any(tail):
            # of x and -x the walk keeps the one whose last nonzero
            # coordinate is negative, so while every higher coordinate is
            # zero, this one stays <= 0
            t = min(t, 1)
        stack.extend(
            ((xi,) + tail, remaining - d[i] * (xi - center) ** 2)
            for xi in range(t - 1, low - 1, -1)
        )
    return out


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
    pools: Sequence[Sequence[tuple[int, ...]]],
    gram: Sequence[Sequence[int]],
    modulus: int = 0,
) -> list[list[int]] | None:
    """Backtracking search for vectors v_0..v_{n-1}, v_i taken in order from
    ``pools[i]``, whose pairings v_i G v_j (i > j) under ``gram`` reproduce
    ``target``, compared modulo ``modulus`` when it is nonzero; the rows
    found, or None.  Each pool holds only vectors of the right norm, so the
    diagonal of ``target`` is not compared.

    Choosing v_i filters the pool of every later level down to the vectors
    that pair with v_i as ``target`` asks, keeping pool order, and a choice
    that empties a pool is dropped at once (Plesken-Souvignier 1997).  Each
    level therefore tries exactly the candidates that pair correctly with
    all earlier choices, in pool order.  Whether the rows span the whole
    lattice is left to the caller: for Gram matrices of equal nonzero
    determinant, det(rows)^2 = 1 follows from the match.
    """
    n = len(target)
    chosen: list[tuple[int, ...]] = []
    images: dict[tuple[int, ...], list[int]] = {}  # v -> G v, once per candidate

    def extend(i: int, pools: Sequence[Sequence[tuple[int, ...]]]) -> bool:
        # pools[l] holds the candidates still open for level i + l
        if i == n:
            return True
        for v in pools[0]:
            gv = images.get(v)
            if gv is None:
                gv = images[v] = exact.mat_vec(gram, v)
            rest = []
            for level, pool in enumerate(pools[1:], i + 1):
                want = target[level][i]
                if modulus:
                    pool = [w for w in pool if sum(map(mul, w, gv)) % modulus == want]
                else:
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

    return [list(v) for v in chosen] if extend(0, pools) else None


def definite_isomorphic(l1: Lattice, l2: Lattice) -> bool:
    """Exact isometry test for definite lattices of equal rank via complete
    backtracking over short vectors of matching norms and pairings."""
    if not (l1.is_definite() and l2.is_definite()):
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
    max_norm = max((g1r[i][i] for i in range(n)), default=0)
    cands = {
        norm: [w for v in vecs for w in (v, tuple(-c for c in v))]
        for norm, vecs in short_vectors(g2, max_norm).items()
    }
    # a full match maps l1 onto a sublattice of index |det(rows)|, and equal
    # nonzero determinants force the index to be 1
    return _match_gram(g1r, [cands.get(g1r[i][i], []) for i in range(n)], g2) is not None


def _size(v: Sequence[int]) -> tuple[int, int]:
    return max(map(abs, v)), sum(map(abs, v))


def isometry_search(l1: Lattice, l2: Lattice, bound: int = 5) -> list[list[int]] | None:
    """Bounded backtracking search for an isometry l1 -> l2: images are
    sought among vectors with coordinates in [-bound, bound] and the norms
    of l1's basis, tried by largest and then summed |coordinate|, smallest
    first.  A returned matrix (rows = images of l1's basis) is verified
    exactly; None only means no isometry with small coordinates was
    found, and is returned for degenerate lattices."""
    if l1.rank != l2.rank or l1.det() != l2.det() or l1.signature() != l2.signature():
        return None
    # equal nonzero determinants make every match unimodular
    if l1.det() == 0:
        return None
    n = l1.rank
    g2 = [list(r) for r in l2.gram]
    by_norm: dict[int, list[tuple[int, ...]]] = {}
    needed = {l1.gram[i][i] for i in range(n)}
    for v, norm in exact.box_vectors(g2, bound, needed):
        if any(v):
            by_norm.setdefault(norm, []).append(v)
    # images of a basis are short, so small coordinates go first; the sort
    # is stable, so ties keep box order
    for pool in by_norm.values():
        pool.sort(key=_size)
    rows = _match_gram(l1.gram, [by_norm.get(l1.gram[i][i], []) for i in range(n)], g2)
    if rows is None:
        return None
    check = exact.matmul(exact.matmul(rows, g2), exact.transpose(rows))
    if check != [list(r) for r in l1.gram]:
        raise ArithmeticError("isometry search returned a map that is not an isometry")
    return rows
