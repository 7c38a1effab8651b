"""Integral lattices: constructors, duals, discriminant forms, complements.

A lattice is a free Z-module with an integer Gram matrix in a fixed basis.
Root lattices follow the negative-definite sign convention (diagonal -2,
adjacent simple roots pairing to +1).  Lattices are immutable; operations
return new values.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from operator import mul
from typing import Iterator, Sequence

from . import exact
from .value import Value


class Embedding(Value):
    """Reference to an ambient lattice, the frame: the embedded lattice's
    basis vectors are the integer rows of ``basis`` divided by
    ``denominator``, in the ambient basis.  When those rows B are square and
    nonsingular the lattice spans the frame's rational space, as an
    overlattice (``glue.adjoin``) or a full-rank sublattice does, and its
    det and signature are read off the frame: the signature is the frame's
    and det = det(frame) det(B)^2 / denominator^(2n) (Nikulin 1979, 1.4)."""

    ambient: "Lattice"
    basis: tuple[tuple[int, ...], ...]
    denominator: int = 1


class Lattice(Value):
    gram: tuple[tuple[int, ...], ...]
    name: str | None = None
    ambient: Embedding | None = None
    _compared = ("gram", "name")  # not the embedding

    def __post_init__(self) -> None:
        # rows given as lists are stored as tuples, so the gram hashes
        if type(self.gram) is not tuple or any(type(row) is not tuple for row in self.gram):
            object.__setattr__(self, "gram", tuple(map(tuple, self.gram)))
        exact.require_integers(self.gram, "Lattice")
        if not exact.is_symmetric(self.gram):
            raise ValueError("Gram matrix must be symmetric")
        if self.ambient is not None:
            e = self.ambient
            exact.require_integers(e.basis, "Lattice")
            if len(e.basis) != self.rank:
                raise ValueError(
                    f"ambient basis has {len(e.basis)} rows for a lattice of rank {self.rank}"
                )
            if e.denominator <= 0:
                raise ValueError("ambient basis denominator must be positive")
            induced = exact.congruence(e.basis, e.ambient.gram)
            scale = e.denominator**2
            if any(
                induced[i][j] != scale * self.gram[i][j]
                for i in range(self.rank)
                for j in range(self.rank)
            ):
                raise ValueError("ambient basis does not induce the stated Gram matrix")

    @classmethod
    def _formed(
        cls, gram: Sequence[Sequence[int]], name: str | None, ambient: Embedding | None
    ) -> "Lattice":
        """A lattice whose builder has just formed its Gram matrix from
        ``ambient`` (B G B^T over the squared denominator), or copied it,
        or its blocks (``direct_sum``), from lattices already built: the
        constructor's checks would only repeat.  Embeddings a caller
        supplies go through the constructor and are checked."""
        l = object.__new__(cls)
        object.__setattr__(l, "gram", tuple(map(tuple, gram)))
        object.__setattr__(l, "name", name)
        object.__setattr__(l, "ambient", ambient)
        return l

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def embedding_index(self) -> int:
        """|det B| for the embedding rows B when they are square: the index
        of their span in Z^n, 0 when they are singular.  0 when the rows are
        not square or there is no embedding."""
        e = self.ambient
        if e is None or len(e.basis) != e.ambient.rank:
            return 0
        return exact.index(e.basis)

    @cached_property
    def embedding_hermite(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The Hermite basis of the embedding rows, each row after its pivot
        column: what ``contains_ambient`` reduces against."""
        rows = exact.hermite_row_basis(self.ambient.basis)
        return tuple((next(i for i, x in enumerate(r) if x), tuple(r)) for r in rows)

    @cached_property
    def _discriminant_form(self) -> "FiniteQuadraticForm":
        """``discriminant_group(self)``, built on first use and kept."""
        head, tail = _hermite_tail(self.gram)
        d, _, v = exact.smith_normal_form(tail)
        factors: list[int] = []
        gens: list[tuple[int, ...]] = []
        for i in range(len(tail)):
            di = d[i][i]
            if di > 1:
                w = [row[i] for row in v]
                factors.append(di)
                gens.append(tuple([-x for x in exact.mat_vec(head, w)] + w))
        # x = g_i/d_i and y = g_j/d_j pair integrally with L, which holds d_i x
        # and d_j y, so d_i x.y and d_j x.y are integers, as is N x.y for the
        # exponent N that both divide
        top = max(factors, default=1)
        images = [exact.mat_vec(self.gram, g) for g in gens]
        nums = []
        for g, d in zip(gens, factors):
            row = []
            for gh, e in zip(images, factors):
                num, rem = divmod(top * exact.dot(g, gh), d * e)
                if rem:
                    raise ArithmeticError("discriminant pairing is not in (1/N)Z")
                row.append(num)
            nums.append(row)
        qn = tuple(row[i] % (2 * top) for i, row in enumerate(nums)) if self.is_even() else None
        bn = tuple(tuple(x % top for x in row) for row in nums)
        return FiniteQuadraticForm(tuple(factors), tuple(gens), qn, bn)

    def det(self) -> int:
        """From the frame when the embedding rows are square and nonsingular
        (see ``Embedding``), else by one elimination of the Gram matrix."""
        index = self.embedding_index
        if not index:
            return _det_cached(self.gram)
        e = self.ambient
        det, rem = divmod(e.ambient.det() * index**2, e.denominator ** (2 * self.rank))
        if rem:
            raise ArithmeticError("frame det times det(B)^2 is not divisible by denominator^2n")
        return det

    def signature(self) -> tuple[int, int, int]:
        """The frame's when the embedding rows are square and nonsingular,
        since the lattice then spans the frame's rational space."""
        if self.embedding_index:
            return self.ambient.ambient.signature()
        return _signature_cached(self.gram)

    def signature_pair(self) -> tuple[int, int]:
        p, z, n = self.signature()
        if z:
            raise ValueError("degenerate lattice has no signature pair")
        return p, n

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def is_definite(self) -> bool:
        p, z, n = self.signature()
        return z == 0 and (p == 0 or n == 0)

    def pairing(self, v: Sequence, w: Sequence) -> Fraction:
        """Bilinear form of two vectors given in this lattice's basis.  A
        rational vector is written once as integer numerators over one
        denominator, so the sums run in integers."""
        nv, dv = exact.numerators(v)
        nw, dw = (nv, dv) if w is v else exact.numerators(w)
        return Fraction(exact.dot(nv, exact.mat_vec(self.gram, nw)), dv * dw)

    def norm(self, v: Sequence) -> Fraction:
        return self.pairing(v, v)

    def rename(self, name: str) -> "Lattice":
        return Lattice._formed(self.gram, name, self.ambient)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or "lattice"
        return f"<{label}: rank {self.rank}, det {self.det()}>"


@lru_cache(maxsize=None)
def _det_cached(gram: tuple[tuple[int, ...], ...]) -> int:
    return exact.det(gram)


@lru_cache(maxsize=None)
def _signature_cached(gram: tuple[tuple[int, ...], ...]) -> tuple[int, int, int]:
    return exact.signature(gram)


def lattice(
    gram: Sequence[Sequence[int]],
    name: str | None = None,
    ambient: Embedding | None = None,
) -> Lattice:
    return Lattice(gram, name, ambient)


def make_embedding(
    ambient: Lattice, basis_rows: Sequence[Sequence[int]], denominator: int = 1
) -> Embedding:
    exact.require_integers([*basis_rows, [denominator]], "make_embedding")
    return Embedding(ambient, tuple(map(tuple, basis_rows)), denominator)


# ---------------------------------------------------------------------------
# constructors


def root_lattice(kind: str, n: int) -> Lattice:
    """Negative-definite root lattice A_n, D_n or E_n in the simple-root basis.

    Node numbering: a chain 1..n, except that D_n attaches node n to node
    n-2 and E_n attaches node n to node n-3 (so E8 is the chain 1-7 with
    node 8 on node 5).
    """
    kind = kind.upper()
    if kind == "A" and n >= 1:
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "D" and n >= 3:
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    elif kind == "E" and n in (6, 7, 8):
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 4, n - 1)]
    else:
        raise ValueError(f"invalid root lattice {kind}{n}")
    g = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i][j] = g[j][i] = 1
    return lattice(g, f"{kind}{n}")


def hyperbolic() -> Lattice:
    return lattice([[0, 1], [1, 0]], "U")


def rank_one(k: int, allow_odd: bool = False) -> Lattice:
    if k % 2 != 0 and not allow_odd:
        raise ValueError("odd norm requires allow_odd=True")
    return lattice([[k]], f"<{k}>")


def rescale(l: Lattice, n: int) -> Lattice:
    exact.require_integers([[n]], "rescale")
    if n == 0:
        raise ValueError("rescale by zero")
    g = [[n * x for x in row] for row in l.gram]
    name = f"{l.name}({n})" if l.name else None
    return lattice(g, name)


def direct_sum(*lattices: Lattice) -> Lattice:
    total, off, g = sum(l.rank for l in lattices), 0, []
    for l in lattices:
        g += [(0,) * off + row + (0,) * (total - off - l.rank) for row in l.gram]
        off += l.rank
    name = "+".join(l.name or "?" for l in lattices) if lattices else "0"
    return Lattice._formed(g, name, None)


# ---------------------------------------------------------------------------
# discriminant groups and forms


class FiniteQuadraticForm(Value):
    """Discriminant group L*/L with its torsion forms.

    ``generators[i]`` is an integer vector in L's basis; divided by
    ``invariant_factors[i]`` it generates a cyclic factor of that order.
    The forms take values in (1/N)Z, where N is the ``exponent`` of the
    group (its largest invariant factor, 1 for the trivial group), and are
    stored as integer numerators over N: ``q_numerators[i]`` is N q(g_i)
    in [0, 2N), None for odd lattices, and ``b_numerators[i][j]`` is
    N b(g_i, g_j) in [0, N).  ``q`` and ``b`` sum in integers and return a
    ``Fraction`` in [0, 2) and [0, 1); ``q_numerator`` and ``b_numerator``
    return the integer numerators, for comparisons between forms with equal
    invariant factors.
    """

    invariant_factors: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    q_numerators: tuple[int, ...] | None
    b_numerators: tuple[tuple[int, ...], ...]

    @cached_property
    def exponent(self) -> int:
        return max(self.invariant_factors, default=1)

    @cached_property
    def _primary_parts(self) -> dict[int, "FiniteQuadraticForm"]:
        return {}

    @property
    def q_values(self) -> tuple[Fraction, ...] | None:
        """q(g_i) in Q/2Z, representatives in [0, 2)."""
        if self.q_numerators is None:
            return None
        return tuple(Fraction(q, self.exponent) for q in self.q_numerators)

    @property
    def b_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """b(g_i, g_j) in Q/Z, representatives in [0, 1)."""
        n = self.exponent
        return tuple(tuple(Fraction(b, n) for b in row) for row in self.b_numerators)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    def elements(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(d) for d in self.invariant_factors))

    def element_order(self, el: Sequence[int]) -> int:
        return lcm(*[d // gcd(d, c) for c, d in zip(el, self.invariant_factors)])

    def b_numerator(self, x: Sequence[int], y: Sequence[int]) -> int:
        total = 0
        for ci, row in zip(x, self.b_numerators):
            if ci:
                total += ci * sum(map(mul, row, y))
        return total % self.exponent

    def b(self, x: Sequence[int], y: Sequence[int]) -> Fraction:
        return Fraction(self.b_numerator(x, y), self.exponent)

    def q_numerator(self, x: Sequence[int]) -> int:
        if self.q_numerators is None:
            raise ValueError("quadratic values only defined for even lattices")
        support = [(i, c) for i, c in enumerate(x) if c]
        diag = cross = 0
        for k, (i, ci) in enumerate(support):
            diag += ci * ci * self.q_numerators[i]
            row = self.b_numerators[i]
            for j, cj in support[k + 1 :]:
                cross += ci * cj * row[j]
        return (diag + 2 * cross) % (2 * self.exponent)

    def q(self, x: Sequence[int]) -> Fraction:
        return Fraction(self.q_numerator(x), self.exponent)

    def primary_part(self, p: int) -> "FiniteQuadraticForm":
        """The p-primary part: the generators with p | d_i, column g_i read
        over p^e, the p-part of d_i, for m_i g_i, m_i = d_i / p^e; over the new
        exponent N', N' x(m_i g_i, m_j g_j) = m_i m_j N x(g_i, g_j) / (N / N').
        Built once per form and p."""
        done = self._primary_parts
        if p in done:
            return done[p]
        parts = [(i, pe, d // pe) for i, d in enumerate(self.invariant_factors)
                 if (pe := gcd(d, p ** d.bit_length())) > 1]
        top = max((pe for _, pe, _ in parts), default=1)
        scale, q = self.exponent // top, self.q_numerators
        qn = None if q is None else [m * m * q[i] for i, _, m in parts]
        bn = [[m * c * self.b_numerators[i][j] for j, _, c in parts] for i, _, m in parts]
        if any(x % scale for x in itertools.chain(qn or (), *bn)):
            raise ArithmeticError("discriminant pairing is not in (1/N)Z")
        gens = tuple(self.generators[i] for i, _, _ in parts)
        qn = None if qn is None else tuple(x // scale % (2 * top) for x in qn)
        bn = tuple(tuple(x // scale % top for x in row) for row in bn)
        done[p] = FiniteQuadraticForm(tuple(pe for _, pe, _ in parts), gens, qn, bn)
        return done[p]

    def negate(self) -> "FiniteQuadraticForm":
        n = self.exponent
        qn = (
            tuple(-q % (2 * n) for q in self.q_numerators)
            if self.q_numerators is not None
            else None
        )
        bn = tuple(tuple(-b % n for b in row) for row in self.b_numerators)
        return FiniteQuadraticForm(self.invariant_factors, self.generators, qn, bn)


def _hermite_tail(gram: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """(H[:k, k:], H[k:, k:]) for the Hermite basis H of the Gram matrix G,
    built without a companion, and k its first column whose pivot is not 1.

    L*/L is Z^n modulo the rows of H, which number n exactly when det G is
    nonzero, so no determinant is taken.  Entries above a unit pivot are
    reduced to 0, so row r < k of H is e_r plus entries in columns k and
    later, and the rows from k on are zero left of column k: Z^n/<H> is
    Z^(n-k)/<T> for the tail T = H[k:, k:].  On all of H the Smith form's
    passes would clear the first k rows and columns against their unit
    pivots and then run on T exactly as on T alone.  Only the leading run
    of unit pivots is split off, since ``discriminant_group`` reads its
    generators off v: a unit pivot after a larger one takes part in the
    passes over the tail, and dropping it changes the generators, though
    not the invariant factors (``invariant_factors``).
    """
    n = len(gram)
    h = exact.hermite_row_basis(gram)
    if len(h) < n:
        raise ValueError("degenerate Gram matrix has no discriminant group")
    k = next((i for i in range(n) if h[i][i] != 1), n)
    return [row[k:] for row in h[:k]], [row[k:] for row in h[k:]]


def invariant_factors(l: Lattice) -> tuple[int, ...]:
    """The invariant factors of ``discriminant_group(l)``: the stored form's
    when it is built, else the Smith diagonal of the Hermite tail T
    (``_hermite_tail``) with every row and column of a unit pivot dropped,
    not only the leading run.  They do not change under G -> P G P^T, so G
    is first put in ``exact.det``'s sparsest-first symmetric order, which
    keeps the Hermite fill-in small.  T is upper triangular with the
    entries above a unit pivot reduced to 0, so that pivot's column is e_k,
    and column operations clear its row without touching any other entry."""
    if "_discriminant_form" in vars(l):
        return l._discriminant_form.invariant_factors
    g = l.gram
    order = sorted(range(len(g)), key=lambda i: len(g) - g[i].count(0))
    t = _hermite_tail([[g[i][j] for j in order] for i in order])[1]
    keep = [i for i, row in enumerate(t) if row[i] != 1]
    return tuple(d for d in exact.smith_diagonal([[t[i][j] for j in keep] for i in keep]) if d > 1)


def discriminant_group(l: Lattice) -> FiniteQuadraticForm:
    """The finite group L*/L with its discriminant (quadratic) form, from
    the Smith form of the Hermite tail T (``_hermite_tail``): a column w of
    its v lifts to the generator (-H[:k, k:] w, w).  Built once per lattice
    object, so every call on l returns the same form."""
    return l._discriminant_form


# ---------------------------------------------------------------------------
# sublattices, complements, saturation


def _sub_rows(sub: Sequence[Sequence[int]], rank: int) -> list[list[int]]:
    exact.require_integers(sub, "sublattice rows")
    rows = [list(row) for row in sub]
    if any(len(row) != rank for row in rows):
        raise ValueError("sublattice rows do not match the ambient rank")
    return rows


def sublattice(
    ambient: Lattice, rows: Sequence[Sequence[int]], name: str | None = None
) -> Lattice:
    """The lattice spanned by integer ``rows`` (vectors in ambient
    coordinates), with Gram matrix B G B^T and its embedding recorded."""
    rows = _sub_rows(rows, ambient.rank)
    gram = exact.congruence(rows, ambient.gram)
    return Lattice._formed(gram, name, make_embedding(ambient, rows))


def orthogonal_complement(ambient: Lattice, sub: Sequence[Sequence[int]]) -> Lattice:
    """Primitive orthogonal complement of the span of ``sub`` (rows are
    vectors in ambient coordinates), with its embedding recorded."""
    rows = _sub_rows(sub, ambient.rank)
    if len(exact.hermite_row_basis(rows)) < len(rows):
        raise ValueError("sublattice basis is rank-deficient")
    pair = exact.matmul(rows, [list(r) for r in ambient.gram])
    kern = exact.kernel_basis(pair) if rows else exact.identity(ambient.rank)
    return sublattice(ambient, kern)


def saturation(ambient: Lattice, sub: Sequence[Sequence[int]]) -> Lattice:
    """Minimal primitive sublattice of ``ambient`` containing the span of
    ``sub``: the integer points of its rational span, the integer kernel of
    the integer kernel of the rows.  No Gram matrix enters, so a degenerate
    ambient's radical stays out."""
    n = ambient.rank
    rows = _sub_rows(sub, n)
    if len(exact.hermite_row_basis(rows)) < len(rows):
        raise ValueError("sublattice basis is rank-deficient")
    kern = exact.kernel_basis(rows) if rows else exact.identity(n)
    return sublattice(ambient, exact.kernel_basis(kern) if kern else exact.identity(n))


def saturation_index(ambient: Lattice, sub: Sequence[Sequence[int]]) -> int:
    """Index of the span of ``sub`` inside its saturation, the integer
    vectors of its rational span: the gcd of the maximal minors of the k
    rows, which is the index in Z^k of the lattice their columns span,
    ``exact.index`` of the columns, 0 iff the rows are dependent, as more
    rows than the rank always are.  No determinant is taken, so degenerate
    forms work too."""
    rows = _sub_rows(sub, ambient.rank)
    index = exact.index(exact.transpose(rows)) if len(rows) <= ambient.rank else 0
    if not index:
        raise ValueError("sublattice basis is rank-deficient")
    return index


def is_primitive(l: Lattice) -> bool:
    """Whether l, embedded by integer rows, is saturated in its ambient."""
    if l.ambient is None or l.ambient.denominator != 1:
        raise ValueError("lattice is not embedded by integer rows")
    return saturation_index(l.ambient.ambient, l.ambient.basis) == 1


# ---------------------------------------------------------------------------
# membership and divisibility in embedded lattices


def contains_ambient(l: Lattice, w: Sequence) -> bool:
    """Whether the ambient-frame vector w lies in l.  With l's basis the
    rows B over the denominator D, that asks whether D w is an integer
    combination of B: D w is reduced, in integers, against the Hermite basis
    of B (a basis built by ``glue.adjoin`` is one already), formed once per
    lattice (``Lattice.embedding_hermite``)."""
    if l.ambient is None:
        raise ValueError("lattice has no recorded ambient frame")
    e = l.ambient
    if len(w) != e.ambient.rank:
        raise ValueError("vector length does not match the ambient rank")
    nums, den = exact.numerators(w)
    v = [x * e.denominator for x in nums]
    if any(x % den for x in v):
        return False
    v = [x // den for x in v]
    for c, row in l.embedding_hermite:
        q, r = divmod(v[c], row[c])
        if r:
            return False
        v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def divisibility(l: Lattice, w: Sequence) -> int:
    """gcd of the pairings of w with all of l.  w is in l's frame: ambient
    coordinates when l records an ambient, else l's own basis.  With w the
    integers over den and l's basis rows over the embedding's denominator D
    (1 without an ambient), every pairing is an integer over den * D."""
    nums, den = exact.numerators(w)
    e = l.ambient
    if e is None:
        pairings = exact.mat_vec(l.gram, nums)
    else:
        pairings = exact.mat_vec(e.basis, exact.mat_vec(e.ambient.gram, nums))
        den *= e.denominator
    if any(p % den for p in pairings):
        raise ValueError("vector does not pair integrally with the lattice")
    return gcd(*pairings) // den

