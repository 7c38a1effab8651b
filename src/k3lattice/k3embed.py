"""Embeddings into the rank-22 even unimodular lattice of signature (3,19),
transcendental lattices, genus comparison via discriminant forms, and
isometry testing.

Genus comparison is the Nikulin-style test: equal signatures plus isomorphic
discriminant forms, part by p-primary part: at odd p one Legendre symbol per
Jordan scale; on a 2-part of exponent 2 Nikulin's invariants (rank, parity
and Gauss-sum signature mod 8, read off F_2 bitmasks); on any other 2-part a
search mapping each generator into the elements of its order and q value,
pairing as the generators do.  Definite isometry is decided by a complete
short-vector backtracking search.  A bounded coordinate-box search
(``isometry_search``) looks for isometries of small indefinite lattices.  The
claims check stored maps instead (``claims._maps_onto``); the search stays
because the perfbench tracer names it, and a function the tracer names is
deleted only with its row.  All three searches run on one pool-refined Gram
matching: each chosen vector filters the candidate pools of all later
generators by their pairing with it, compared modulo the exponent for
discriminant forms.
"""

from __future__ import annotations

from collections import Counter
from math import isqrt, lcm
from operator import mul
from typing import Sequence

from . import exact, quadform
from .lattice import (
    FiniteQuadraticForm,
    Lattice,
    direct_sum,
    discriminant_group,
    hyperbolic,
    invariant_factors,
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


def embed_standard(spec: str) -> Lattice:
    """The documented standard embeddings, as lattices embedded in their
    ambient.

    Specs: "A5+A1 in E8", "A2+A1^3 in E8", "U+E8+A5+A1 in V".
    """
    if spec == "A5+A1 in E8":
        return sublattice(root_lattice("E", 8), unit_rows(E8_A5_A1_NODES, 8))
    if spec == "A2+A1^3 in E8":
        return sublattice(root_lattice("E", 8), unit_rows(E8_A2_A1C_NODES, 8))
    if spec == "U+E8+A5+A1 in V":
        rows = unit_rows([0, 1], 22) + unit_rows(range(6, 14), 22)
        rows += unit_rows([14 + i for i in E8_A5_A1_NODES], 22)
        return sublattice(build_V(), rows)
    raise ValueError(f"unknown embedding spec {spec!r}")


def transcendental_of(l: Lattice) -> Lattice:
    """Orthogonal complement of an embedded lattice in its ambient."""
    if l.ambient is None:
        raise ValueError("lattice has no recorded ambient frame")
    return orthogonal_complement(l.ambient.ambient, l.ambient.basis)


# ---------------------------------------------------------------------------
# discriminant form isomorphism and genus comparison


def _jordan_symbols(form: FiniteQuadraticForm, p: int) -> list[int]:
    """Per scale p^k of the p-primary part A of ``form``, the Legendre symbol
    of det(p^k b) mod p on the generators of order p^k, a basis of A[p^k] /
    (A[p^(k-1)] + p A[p^(k+1)]), on which p^(k-1) b lives.  At odd p these and
    the ranks fix A (Conway-Sloane, SPLAG 15.7).  A radical element of order
    p in p^(k-1) A but not p^k A gives one of that quotient, and a
    nondegenerate A splits into Jordan constituents: at any p, det 0 mod p
    is a degenerate b.  Generators of order p^k pairing outside (1/p^k)Z
    make no discriminant form and raise ``ArithmeticError``."""
    form, symbols = form.primary_part(p), []
    factors = form.invariant_factors
    for scale in dict.fromkeys(factors):
        rows = [i for i, d in enumerate(factors) if d == scale]
        block = form.restrict(unit_rows(rows, len(factors)), [scale] * len(rows),
                              [form.generators[i] for i in rows])
        det = exact.det(block.b_numerators) % p
        if det == 0:
            raise ValueError("degenerate discriminant form: b has a nonzero radical")
        symbols.append(quadform.legendre(det, p) if p > 2 else 1)
    return symbols


def find_disc_form_isomorphism(
    f1: FiniteQuadraticForm, f2: FiniteQuadraticForm
) -> list[tuple[int, ...]] | None:
    """Images in f2 of f1's generators under some isomorphism preserving q
    and b, or None.  Requires both forms to carry q-values, and f1 to be
    nondegenerate, as the discriminant form of a nondegenerate lattice is;
    a degenerate b raises ``ValueError`` before either group is walked.

    Generator i is sent into the elements of f2 with its order and q value,
    and the images must pair as the generators do (``_match_gram`` modulo
    the exponent), which fixes q on every element:
    q(sum c_i g_i) = sum c_i^2 q(g_i) + 2 sum_{i<j} c_i c_j b(g_i, g_j).
    A map preserving b has its kernel in the radical of b, so on a
    nondegenerate form it is injective and, with equal orders, an
    isomorphism.
    """
    if f1.q_numerators is None or f2.q_numerators is None:
        raise ValueError("both lattices must be even")
    if f1.invariant_factors != f2.invariant_factors:
        return None
    n = f1.exponent
    for p in quadform.factorize(n):
        _jordan_symbols(f1, p)
    # q and b compare as integer numerators over the common exponent.  The
    # (order, q) counts over all elements are an isomorphism invariant; with
    # equal orders they agree iff none goes negative in f2's walk, which keeps
    # f2's elements only under the generators' keys, as the search's pools
    keys = list(zip(f1.invariant_factors, f1.q_numerators))
    pools: dict[tuple[int, int], list[tuple[int, ...]]] = {key: [] for key in keys}
    profile = Counter((f1.element_order(e), f1.q_numerator(e)) for e in f1.elements())
    for e in f2.elements():
        key = (f2.element_order(e), f2.q_numerator(e))
        profile[key] -= 1
        if profile[key] < 0:
            return None
        if key in pools:
            pools[key].append(e)
    images = _match_gram(f1.b_numerators, [pools[key] for key in keys], f2.b_numerators, n)
    return None if images is None else [tuple(v) for v in images]


def _nikulin_invariants(form: FiniteQuadraticForm) -> tuple[int, bool, int]:
    """(a, delta, sigma mod 8), which fix a nondegenerate form on (Z/2)^a
    (Nikulin 1979, 1.8 and 3.6): delta is False when every q numerator is
    even, and the Gauss-sum signature sigma adds +-1 for each <+-1/2>, 0 for
    u(2) and 4 for v(2) of a splitting over F_2, on elements (bitmask,
    bitmask of the pairings with the generators, q numerator mod 4)."""
    sigma, rows = 0, [(1 << i, sum((b & 1) << j for j, b in enumerate(row)), q)
                      for i, (row, q) in enumerate(zip(form.b_numerators, form.q_numerators))]

    def pair(x, y):
        return (x[1] & y[0]).bit_count() & 1

    def add(x, y):
        return x[0] ^ y[0], x[1] ^ y[1], (x[2] + y[2] + 2 * pair(x, y)) % 4

    while rows:
        odd = [x for x in rows if x[2] % 2]
        x = (odd or rows)[0]
        rows.remove(x)
        if odd:  # <q(x)> = <+-1/2>; w + b(w, x) x is orthogonal to x
            sigma += 2 - x[2]
            rows = [add(w, x) if pair(w, x) else w for w in rows]
            continue
        y = next((y for y in rows if pair(x, y)), None)
        if y is None:
            raise ValueError("degenerate discriminant form: b has a nonzero radical")
        rows.remove(y)  # the plane <x, y>: v(2) when q(x) = q(y) = 1, else u(2)
        sigma += 4 if x[2] == y[2] == 2 else 0
        for take, other in ((x, y), (y, x)):  # w + b(w, y) x + b(w, x) y
            rows = [add(w, take) if pair(w, other) else w for w in rows]
    return len(form.q_numerators), any(q % 2 for q in form.q_numerators), sigma % 8


def disc_forms_isomorphic(f1: FiniteQuadraticForm, f2: FiniteQuadraticForm) -> bool:
    """By p-primary parts: Jordan symbols at odd p; on 2-parts of exponent
    2 Nikulin's invariants, on other 2-parts the search."""
    if f1.q_numerators is None or f2.q_numerators is None:
        raise ValueError("both lattices must be even")
    if f1.invariant_factors != f2.invariant_factors:
        return False
    for p in quadform.factorize(f1.exponent):
        if p > 2 and _jordan_symbols(f1, p) != _jordan_symbols(f2, p):
            return False
    two1, two2 = f1.primary_part(2), f2.primary_part(2)
    if two1.exponent <= 2:
        return _nikulin_invariants(two1) == _nikulin_invariants(two2)
    return find_disc_form_isomorphism(two1, two2) is not None


def genus_equal(l1: Lattice, l2: Lattice) -> bool:
    """Same signature and isomorphic discriminant forms (both lattices even
    and nondegenerate)."""
    if not (l1.is_even() and l2.is_even()):
        raise ValueError("genus comparison implemented for even lattices")
    if l1.signature() != l2.signature():
        return False
    return disc_forms_isomorphic(discriminant_group(l1), discriminant_group(l2))


def genus_uniqueness_applicable(l: Lattice) -> bool:
    """Sufficient conditions under which an even indefinite lattice is alone
    in its genus: rank >= 2 + minimal generator count of the discriminant
    group, or a 2-elementary discriminant group (Nikulin 1.13.3)."""
    if not l.is_even():
        raise ValueError("genus uniqueness implemented for even lattices")
    p, z, n = l.signature()
    if z or p == 0 or n == 0:
        return False
    factors = invariant_factors(l)
    return l.rank >= 2 + len(factors) or all(d == 2 for d in factors)


def complement_genus_in_unimodular(
    l: Lattice,
) -> tuple[tuple[int, int], FiniteQuadraticForm]:
    """Signature and discriminant form that any primitive complement of l in
    the even unimodular lattice of signature (3,19) must have."""
    p, n = l.signature_pair()
    if not l.is_even() or p > 3 or n > 19:
        parity = "an even" if l.is_even() else "an odd"
        raise ValueError(f"{parity} lattice of signature ({p},{n}) does not embed in II_(3,19)")
    return (3 - p, 19 - n), discriminant_group(l).negate()


# ---------------------------------------------------------------------------
# short vectors and definite isometry


def short_vectors(gram: Sequence[Sequence[int]], max_norm: int) -> dict[int, list[tuple[int, ...]]]:
    """All vectors of a positive-definite lattice with 0 < q(v) <= max_norm,
    grouped by norm: of v and -v the one whose last nonzero coordinate is
    negative, each list ascending in (v_{n-1}, ..., v_0), the norms in the
    order of their first vectors.  Walked in the ``exact.lll`` basis."""
    exact.require_integers([[max_norm]], "short_vectors")
    n = len(gram)
    b, d, lam = exact.lll(gram)
    found: list[tuple[int, tuple[int, ...]]] = []
    # term i of q(x) is (d[i+1] x_i + s_i)^2 / (d[i] d[i+1]) with s_i the
    # sum of lam[k][i] x_k over k > i; the walk keeps the budget times
    # L = lcm(d[i] d[i+1]), where term i has the weight L / (d[i] d[i+1])
    scale = lcm(*map(mul, d, d[1:]))
    weights = [scale // (x * y) for x, y in zip(d, d[1:])]
    cols = exact.transpose(lam)
    # depth first over x_{n-1}, ..., x_0: a stack of the coordinates
    # x_i..x_{n-1} fixed so far and the budget they leave
    stack = [((), max_norm * scale)] if max_norm > 0 else []
    while stack:
        tail, remaining = stack.pop()
        i = n - 1 - len(tail)
        if i < 0:
            norm = max_norm - remaining // scale
            if norm > 0:
                found.append((norm, tail))
            continue
        m, s, w = d[i + 1], sum(map(mul, cols[i][i + 1 :], tail)), weights[i]
        # w (m x_i + s)^2 <= remaining iff |m x_i + s| <= r
        r = isqrt(remaining // w)
        high = (r - s) // m
        if not any(tail):
            # of x and -x the walk keeps the one whose last nonzero
            # coordinate is negative, so while every higher coordinate is
            # zero, this one stays <= 0
            high = min(high, 0)
        stack.extend(
            ((x,) + tail, remaining - w * (m * x + s) ** 2)
            for x in range(high, -((r + s) // m) - 1, -1)
        )
    vectors = [
        tuple(v) if next(c for c in reversed(v) if c) < 0 else tuple(-c for c in v)
        for v in exact.matmul([x for _, x in found], b)
    ]
    out: dict[int, list[tuple[int, ...]]] = {}
    for v, (norm, _) in sorted(zip(vectors, found), key=lambda p: p[0][::-1]):
        out.setdefault(norm, []).append(v)
    return out


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
    all earlier choices, in pool order; later levels that share one pool
    object and one wanted pairing are filtered once per choice.  Whether
    the rows span the whole lattice is left to the caller: for Gram
    matrices of equal nonzero determinant, det(rows)^2 = 1 follows from the
    match.  Negating every row keeps every pairing, so when all pools are
    closed under v -> -v, the first match's v_0 comes before -v_0, and a v_0
    whose negation failed fails too: ``pools[0]`` may hold only the earlier
    of each +-v pair, with the same result.
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
            rest, kept = [], {}
            for level, pool in enumerate(pools[1:], i + 1):
                want = target[level][i]
                key = (id(pool), want)  # the pools outlive this choice
                if key not in kept:
                    if modulus:
                        kept[key] = [w for w in pool if sum(map(mul, w, gv)) % modulus == want]
                    else:
                        kept[key] = [w for w in pool if sum(map(mul, w, gv)) == want]
                pool = kept[key]
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
    backtracking over short vectors of matching norms and pairings; the
    first level takes ``short_vectors`` without their negations (see
    ``_match_gram``)."""
    if not (l1.is_definite() and l2.is_definite()):
        raise ValueError("definite_isomorphic requires definite lattices")
    if l1.rank != l2.rank or l1.det() != l2.det() or l1.signature() != l2.signature():
        return False
    sign = -1 if l1.signature()[2] else 1
    g1, g2 = ([[sign * x for x in row] for row in l.gram] for l in (l1, l2))
    red, _, _ = exact.lll(g1)
    g1r = exact.congruence(red, g1)
    norms = [row[i] for i, row in enumerate(g1r)]
    halves = short_vectors(g2, max(norms, default=0))
    cands = {
        norm: [w for v in vecs for w in (v, tuple(-c for c in v))] for norm, vecs in halves.items()
    }
    pools = [(halves if i == 0 else cands).get(x, []) for i, x in enumerate(norms)]
    # a full match maps l1 onto a sublattice of index |det(rows)|, and equal
    # nonzero determinants force the index to be 1
    return _match_gram(g1r, pools, g2) is not None


def isometry_search(l1: Lattice, l2: Lattice, bound: int = 5) -> list[list[int]] | None:
    """Bounded backtracking search for an isometry l1 -> l2: images are
    sought among vectors with coordinates in [-bound, bound] and the norms
    of l1's basis, tried by largest and then summed |coordinate|, smallest
    first, ties in box order.  A returned matrix (rows = images of l1's
    basis) is verified exactly; None only means no isometry with small
    coordinates was found, and is returned for degenerate lattices.

    In box order each negative-leading vector comes before its negation, so
    the first level takes the negative-leading half (see ``_match_gram``)."""
    if l1.rank != l2.rank or l1.det() != l2.det() or l1.signature() != l2.signature():
        return None
    # equal nonzero determinants make every match unimodular
    if l1.det() == 0:
        return None
    n = l1.rank
    g2 = [list(r) for r in l2.gram]
    pools: dict[int, list[tuple]] = {}
    for v, norm in exact.box_vectors(g2, bound, {l1.gram[i][i] for i in range(n)}):
        if any(v):
            pools.setdefault(norm, []).append(v)
    # images of a basis are short, so small coordinates go first
    for pool in pools.values():
        pool.sort(key=lambda v: (max(map(abs, v)), sum(map(abs, v))))
    levels = [pools.get(l1.gram[i][i], []) for i in range(n)]
    if n:  # negative-leading: the earlier of each +-v pair
        levels[0] = [v for v in levels[0] if next(c for c in v if c) < 0]
    rows = _match_gram(l1.gram, levels, g2)
    if rows is None:
        return None
    check = exact.congruence(rows, g2)
    if check != [list(r) for r in l1.gram]:
        raise ArithmeticError("isometry search returned a map that is not an isometry")
    return rows
