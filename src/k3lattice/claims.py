"""Verification registry: every numeric lattice claim as a named check.

Each claim recomputes one fact from scratch through the library API and
passes exactly when it equals the recorded value (``_equal``), except
``L.overlattice-unique``, whose expected ``proper_count`` is the text ">=1".
``run_all`` is deterministic and order-stable; the machine report contains
no timing data, so two runs produce byte-identical output.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import ellsurf as es
from . import exact
from . import glue
from . import k3embed as ke
from . import lattice as lat
from . import quadform as qf
from .value import Value

# ---------------------------------------------------------------------------
# fixed Gram matrices used by several claims

# rank-4 transcendental lattice of determinant 36 with no 2-adic or 3-adic
# isotropy
T_GRAM = (
    (-2, -1, 0, -1),
    (-1, 2, 1, -1),
    (0, 1, -2, 1),
    (-1, -1, 1, 2),
)

# The certificates the claims check instead of searching (no claim calls
# glue.find_isotropic_glue or k3embed.isometry_search).  The isometries behind
# T.glue-isom and rank17.trans, as rows of images in coordinates the claims'
# inputs fix: of diag(-2,-2,6,6)'s basis in those of <-2>^2+U+U, of the same
# frame in T's, and of A1+A2(2)+<2>+<2>'s basis in V's 22 (checked by
# ``_maps_onto``)
T_COMPLEMENT_MAP = (
    (0, -1, 0, 0, 0, 0),
    (-1, 0, 0, 0, 0, 0),
    (0, 0, -1, -2, -1, -1),
    (0, 0, 1, 1, -1, -2),
)
T_FRAME_MAP = ((0, 0, 1, 0), (-1, 0, 0, 0), (0, -1, 0, 1), (1, -1, -1, -1))
RANK17_MAP = (
    (0, 0, -1, -1, -2, -2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, -2, 0, 2, -1),
    (0, 0, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 4, 6, 6, 6, 4, 2, 3),
    (0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 6, 4, 2, 3),
    (0, 0, 0, 0, -2, -2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0),
    (0, 0, -2, -2, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -2, -4, -2, 0, -2),
)
# The isotropic glue of sqrel.8dminus5 (d' = 7, 11) and sqrel.discform-p2, as
# coefficients on 2C_h, h in glue.N1_SUBGROUP, and on -3C_i, i = 0..3
SQREL_COMPLETIONS = ((-1, -1, 0), (-2, -1, -1))
DISCFORM_P2_GLUE = ((-1, -1, 0, -1),)

# rank-4 example of determinant 2^2 * 17^2 with no isotropy over Q_17
RANK18_GRAM = (
    (6, 5, 3, -3),
    (5, 6, -2, 4),
    (3, -2, -6, -2),
    (-3, 4, -2, 6),
)

# orthogonal basis squaring to -1,-1,-2,-6,7,7: same rank, signature and
# discriminant class as Lambda(3) but different local invariants
COUNTEREXAMPLE_DIAG = (-1, -1, -2, -6, 7, 7)


def wedge_square_form(n: int) -> list[list[int]]:
    """Gram matrix of the rank-6 symmetric form induced on the invariant
    part of the wedge square of a rank-4 hermitian module over Q(sqrt(-n))."""
    return [
        [-2, 0, 0, 0, 0, 0],
        [0, -2 * n, 0, 0, 0, 0],
        [0, 0, 0, -2 * n, 0, 0],
        [0, 0, -2 * n, 0, 0, 0],
        [0, 0, 0, 0, 0, 2],
        [0, 0, 0, 0, 2, 0],
    ]


def _diag(entries) -> list[list[int]]:
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# shared builders (pure; the named lattices are cached, and the others
# rebuild in well under a millisecond)


@lru_cache(maxsize=None)
def _named(name: str) -> lat.Lattice:
    return glue.build_named(name)


def _u_d8_e6() -> lat.Lattice:
    return lat.direct_sum(
        lat.hyperbolic(), lat.root_lattice("D", 8), lat.root_lattice("E", 6)
    )


def _u23() -> lat.Lattice:
    u2 = lat.rescale(lat.hyperbolic(), 2)
    return lat.direct_sum(u2, u2, u2)


_G1 = glue.subgroup_order4([(0, 0, 0, 1), (0, 1, 0, 0)])
_G2 = glue.subgroup_order4([(0, 0, 1, 0), (0, 1, 0, 0)])


def _extend(l: lat.Lattice, *specs: glue.GlueSpec) -> lat.Lattice:
    """A glued lattice enlarged by more glue vectors in its base frame."""
    e = l.ambient
    own = [glue.GlueSpec(row, e.denominator) for row in e.basis]
    return glue.adjoin(e.ambient, own + list(specs))


def _half_fiber(group) -> glue.GlueSpec:
    return glue.GlueSpec(tuple(glue.frame_vector(1, group, -1)), 2)


def _n1_enlarged() -> lat.Lattice:
    """N1 enlarged by halves of the two isotropic fiber classes built from
    the order-4 subgroups G1, G2."""
    return _extend(_named("N1"), _half_fiber(_G1), _half_fiber(_G2))


def _rank17_embedding() -> lat.Lattice:
    """U + E8 + A2 + A1^5 inside the rank-22 unimodular lattice: U and E8
    matched with direct summands, A2+A1^3 as a subdiagram of the second E8,
    and two more (-2)-vectors inside the remaining hyperbolic planes."""
    rows = (
        ke.unit_rows([0, 1], 22)
        + ke.unit_rows(range(6, 14), 22)
        + ke.unit_rows([14 + i for i in ke.E8_A2_A1C_NODES], 22)
        + [
            [1 if j == 2 else (-1 if j == 3 else 0) for j in range(22)],
            [1 if j == 4 else (-1 if j == 5 else 0) for j in range(22)],
        ]
    )
    return lat.sublattice(ke.build_V(), rows)


def _a1_a2_2() -> lat.Lattice:
    """A1 + A2(2), the complement of A2+A1^3 in E8."""
    return lat.direct_sum(lat.root_lattice("A", 1), lat.rescale(lat.root_lattice("A", 2), 2))


def _rank17_target() -> lat.Lattice:
    """A1 + A2(2) + <2> + <2>, the expected transcendental lattice."""
    return lat.direct_sum(_a1_a2_2(), lat.rank_one(2), lat.rank_one(2))


_REGISTRY: dict[str, "Claim"] = {}


class Claim(Value):
    id: str
    statement: str
    tags: tuple[str, ...]
    check: Callable[[], tuple[bool, object, object]]


class ClaimResult(Value):
    id: str
    status: str  # "pass" or "fail"
    computed: object
    expected: object
    elapsed_ns: int


def claim(id: str, statement: str, *tags: str):
    def register(fn: Callable[[], tuple[bool, object, object]]) -> Callable:
        if id in _REGISTRY:
            raise ValueError(f"duplicate claim id {id}")
        _REGISTRY[id] = Claim(id, statement, tags, fn)
        return fn

    return register


def _equal(computed, expected) -> tuple[bool, object, object]:
    """The verdict of a claim that ``computed`` equals ``expected``."""
    return computed == expected, computed, expected


def _maps_onto(source: lat.Lattice, target: lat.Lattice, images) -> bool:
    """Whether ``images``, the images of source's basis written in target's
    frame (its ambient's when it has one), map source isometrically onto
    target: they are integral and lie in target, they pair as source's basis
    does, and the dets agree and are nonzero, so they span target with
    index 1."""
    if any(x.denominator != 1 for row in images for x in row):
        return False
    e = target.ambient
    if e is not None and not all(lat.contains_ambient(target, w) for w in images):
        return False
    gram = target.gram if e is None else e.ambient.gram
    return (
        exact.congruence(images, gram) == [list(r) for r in source.gram]
        and source.det() == target.det() != 0
    )


def claim_ids() -> list[str]:
    return sorted(_REGISTRY)


def get_claim(id: str) -> Claim:
    if id not in _REGISTRY:
        raise KeyError(f"unknown claim id {id!r}")
    return _REGISTRY[id]


def run_claim(id: str) -> ClaimResult:
    c = get_claim(id)
    start = time.perf_counter_ns()
    ok, computed, expected = c.check()
    elapsed = time.perf_counter_ns() - start
    return ClaimResult(id, "pass" if ok else "fail", computed, expected, elapsed)


def run_all(tag: str | None = None) -> list[ClaimResult]:
    out = []
    for id in claim_ids():
        if tag is not None and tag not in _REGISTRY[id].tags:
            continue
        out.append(run_claim(id))
    return out


def _stringify(value) -> object:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, dict):
        return {k: _stringify(v) for k, v in sorted(value.items())}
    if isinstance(value, frozenset):
        return sorted((_stringify(v) for v in value), key=str)
    return str(value)


def machine_report(results: list[ClaimResult]) -> dict:
    return {
        "claims": [
            {
                "id": r.id,
                "status": r.status,
                "computed": _stringify(r.computed),
                "expected": _stringify(r.expected),
            }
            for r in sorted(results, key=lambda r: r.id)
        ],
        "failed": sum(1 for r in results if r.status != "pass"),
        "total": len(results),
    }


def text_report(results: list[ClaimResult]) -> str:
    lines = []
    for r in sorted(results, key=lambda r: r.id):
        mark = "PASS" if r.status == "pass" else "FAIL"
        line = f"{mark}  {r.id}  ({r.elapsed_ns // 10**6} ms)"
        if r.status != "pass":
            line += f"\n      computed: {_stringify(r.computed)}"
            line += f"\n      expected: {_stringify(r.expected)}"
        lines.append(line)
    failed = sum(1 for r in results if r.status != "pass")
    lines.append(f"{len(results) - failed}/{len(results)} claims passed")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# L2 and its construction


@claim("L2.even", "L2 is an even lattice", "lattice", "l2")
def _l2_even():
    return _equal(_named("L2").is_even(), True)


@claim("L2.sig", "L2 has signature (1,15)", "lattice", "l2")
def _l2_sig():
    return _equal(_named("L2").signature_pair(), (1, 15))


@claim("L2.disc", "det L2 = -192", "lattice", "l2")
def _l2_disc():
    return _equal(_named("L2").det(), -192)


@claim(
    "L2.mw",
    "the 2-torsion classes of L2 have norm -2, double into the section "
    "frame, pair to 0 with the free section, and the rank formula gives "
    "Mordell-Weil rank 1",
    "glue",
    "l2",
)
def _l2_mw():
    l2 = _named("L2")
    frame = l2.ambient.ambient
    t1, t2 = ([Fraction(x, g.denominator) for x in g.vector] for g in glue.L2_TORSION)
    s = [0] * 15 + [1]
    computed = {
        "norms": [frame.norm(t1), frame.norm(t2)],
        "denominators": [
            max(x.denominator for x in t1),
            max(x.denominator for x in t2),
        ],
        "s_pairings": [frame.pairing(t1, s), frame.pairing(t2, s)],
        "in_L2": [lat.contains_ambient(l2, t1), lat.contains_ambient(l2, t2)],
        "rank": es.shioda_tate_rank(
            es.SurfaceData(2, 16), es.FiberConfig.of("1xI0*", "9xI2")
        ),
    }
    expected = {
        "norms": [Fraction(-2), Fraction(-2)],
        "denominators": [2, 2],
        "s_pairings": [Fraction(0), Fraction(0)],
        "in_L2": [True, True],
        "rank": 1,
    }
    return _equal(computed, expected)


# ---------------------------------------------------------------------------
# the 15-nodal lattices


@claim("N1N2.disc", "det N1 = det N2 = -192", "glue")
def _n1n2_disc():
    return _equal((_named("N1").det(), _named("N2").det()), (-192, -192))


@claim(
    "N1N2.distinct",
    "N1, N2 and L2 are pairwise non-isomorphic (distinct discriminant forms)",
    "k3embed",
)
def _n1n2_distinct():
    n1, n2, l2 = _named("N1"), _named("N2"), _named("L2")
    computed = [
        ke.genus_equal(n1, n2),
        ke.genus_equal(n1, l2),
        ke.genus_equal(n2, l2),
    ]
    return _equal(computed, [False, False, False])


@claim("M16.disc", "the 15-class node lattice has rank 15 and det -128", "glue")
def _m16_disc():
    m = _named("M16")
    return _equal((m.rank, m.det()), (15, -128))


# ---------------------------------------------------------------------------
# Kummer lattice


@claim("kummer.disc", "the Kummer lattice has rank 16 and |det| = 64", "glue")
def _kummer_disc():
    k = _named("KummerK")
    return _equal((k.rank, abs(k.det())), (16, 64))


@claim(
    "kummer.complement-genus",
    "a primitive complement of the Kummer lattice in the rank-22 unimodular "
    "lattice has the signature and discriminant form of U(2)^3, which is "
    "alone in its genus",
    "k3embed",
)
def _kummer_complement():
    k = _named("KummerK")
    sig, negform = ke.complement_genus_in_unimodular(k)
    u23 = _u23()
    computed = {
        "signature": sig,
        "form_match": ke.disc_forms_isomorphic(negform, lat.discriminant_group(u23)),
        "uniqueness_applicable": ke.genus_uniqueness_applicable(u23),
    }
    expected = {"signature": (3, 3), "form_match": True, "uniqueness_applicable": True}
    return _equal(computed, expected)


# ---------------------------------------------------------------------------
# complements inside E8


@claim(
    "e8.complements.a5a1",
    "the complement of the A5+A1 subdiagram in E8 is diag(-2,-6)",
    "k3embed",
)
def _e8_a5a1():
    comp = ke.transcendental_of(ke.embed_standard("A5+A1 in E8"))
    ok = ke.definite_isomorphic(comp, lat.Lattice(_diag([-2, -6])))
    return _equal({"det": comp.det(), "isomorphic": ok}, {"det": 12, "isomorphic": True})


@claim(
    "e8.complements.a2a1c",
    "the complement of the A2+A1^3 subdiagram in E8 is A1 + A2(2)",
    "k3embed",
)
def _e8_a2a1c():
    comp = ke.transcendental_of(ke.embed_standard("A2+A1^3 in E8"))
    ok = ke.definite_isomorphic(comp, _a1_a2_2())
    return _equal({"det": comp.det(), "isomorphic": ok}, {"det": -24, "isomorphic": True})


# ---------------------------------------------------------------------------
# Hasse invariant examples


@claim(
    "m3.hasse.finite",
    "the form of Lambda(3) has Hasse invariant +1 at every finite prime",
    "quadform",
)
def _m3_hasse():
    minus = qf.invariants(_named("Lambda(3)").gram).hasse_minus
    return _equal(sorted(v for v in minus if v != qf.REAL), [])


@claim(
    "counterexample.hasse.2",
    "diag(-1,-1,-2,-6,7,7) has Hasse invariant -1 exactly at 2 and 7",
    "quadform",
)
def _ce_hasse_2():
    minus = qf.invariants(_diag(COUNTEREXAMPLE_DIAG)).hasse_minus
    return _equal(sorted(minus, key=qf.place_sort_key), [2, 7])


@claim(
    "counterexample.hasse.7",
    "diag(-1,-1,-2,-6,7,7) is not Q-equivalent to the form of Lambda(3)",
    "quadform",
)
def _ce_hasse_7():
    at7 = qf.hasse_invariant(list(COUNTEREXAMPLE_DIAG), 7)
    equiv = qf.rationally_equivalent(
        _diag(COUNTEREXAMPLE_DIAG), _named("Lambda(3)").gram
    )
    computed = {"hasse_at_7": at7, "equivalent": equiv}
    return _equal(computed, {"hasse_at_7": -1, "equivalent": False})


# ---------------------------------------------------------------------------
# the determinant-36 rank-4 lattice


@claim("T.det", "det T = 36", "quadform", "t36")
def _t_det():
    return _equal(exact.det(T_GRAM), 36)


@claim("T.aniso2", "T is anisotropic over Q_2", "quadform", "t36")
def _t_aniso2():
    return _equal(qf.anisotropic_dimension(T_GRAM, 2), 4)


@claim("T.aniso3", "T is anisotropic over Q_3", "quadform", "t36")
def _t_aniso3():
    return _equal(qf.anisotropic_dimension(T_GRAM, 3), 4)


@claim(
    "T.glue-isom",
    "the complement of two orthogonal norm -6 vectors in <-2>^2+U+U is "
    "diag(-2,-2,6,6), and adjoining the half-sum of that basis yields a "
    "lattice isomorphic to T",
    "k3embed",
    "t36",
)
def _t_glue():
    m = _named("Lambda(1)")  # <-2>^2+U+U
    tp = lat.orthogonal_complement(m, [[0, 0, 1, -2, -1, 1], [0, 0, 1, -1, 1, -2]])
    dmodel = lat.Lattice(_diag([-2, -2, 6, 6]))
    step1 = _maps_onto(dmodel, tp, T_COMPLEMENT_MAP)
    glued = glue.adjoin(dmodel, [glue.GlueSpec((1, 1, 1, 1), 2)])
    e = glued.ambient  # glued's basis B/s goes to B/s times the frame's images
    images = [[Fraction(x, e.denominator) for x in r] for r in exact.matmul(e.basis, T_FRAME_MAP)]
    step2 = _maps_onto(glued, lat.Lattice(T_GRAM), images)
    computed = {"complement_diagonal": step1, "glued_det": glued.det(), "isomorphic_to_T": step2}
    expected = {"complement_diagonal": True, "glued_det": 36, "isomorphic_to_T": True}
    return _equal(computed, expected)


# ---------------------------------------------------------------------------
# the rank-17 double-cover family


@claim(
    "rank17.disc96",
    "|det(U + E8 + A2 + A1^5)| = 96",
    "lattice",
    "rank17",
)
def _rank17_disc():
    pic = _rank17_embedding()  # its Gram is that of the direct sum
    return _equal((pic.rank, abs(pic.det())), (17, 96))


@claim(
    "rank17.trans",
    "the complement of U+E8+A2+A1^5 in the rank-22 unimodular lattice is "
    "A1 + A2(2) + <2> + <2>",
    "k3embed",
    "rank17",
)
def _rank17_trans():
    emb = _rank17_embedding()
    tr = ke.transcendental_of(emb)
    found = _maps_onto(_rank17_target(), tr, RANK17_MAP)
    computed = {
        "primitive": lat.is_primitive(emb),
        "rank": tr.rank,
        "det": tr.det(),
        "isomorphic": found,
    }
    return _equal(computed, {"primitive": True, "rank": 5, "det": -96, "isomorphic": True})


@claim(
    "rank17.no-q2-lines",
    "the quadric of A1+A2(2)+<2>+<2> has points but no lines over Q_2 "
    "(Witt index 1)",
    "quadform",
    "rank17",
)
def _rank17_lines():
    target = _rank17_target()
    w = qf.witt_index(target.gram, 2)
    computed = {"witt_at_2": w, "lines": qf.has_k_planes(target.gram, 1, 2)}
    return _equal(computed, {"witt_at_2": 1, "lines": False})


# ---------------------------------------------------------------------------
# the <-2>+<-6>+U+<4p> family


@claim(
    "Lp.hasse-p",
    "for p = 17 and p = 41, the form of <-2>+<-6>+U+<4p> has Hasse "
    "invariant -1 at p",
    "quadform",
    "lp",
)
def _lp_hasse():
    computed = {
        p: qf.hasse_invariant(qf.diagonalize(_named(f"Lp({p})").gram), p)
        for p in (17, 41)
    }
    return _equal(computed, {17: -1, 41: -1})


@claim(
    "Lp.no-lines",
    "for p = 17 and p = 41, the quadric of <-2>+<-6>+U+<4p> has no lines "
    "over Q_p (Witt index 1 at p)",
    "quadform",
    "lp",
)
def _lp_lines():
    computed = {p: qf.witt_index(_named(f"Lp({p})").gram, p) for p in (17, 41)}
    return _equal(computed, {17: 1, 41: 1})


@claim(
    "Lp.embeds",
    "for p = 17 and p = 41, <-2>+<-6>+U+<4p> embeds primitively into "
    "<-2>+<-6>+U+U via a primitive norm-4p vector of the last plane",
    "k3embed",
    "lp",
)
def _lp_embeds():
    lam3 = _named("Lambda(3)")
    computed = {}
    for p in (17, 41):
        lp = _named(f"Lp({p})")
        rows = ke.unit_rows(range(4), 6) + [[0, 0, 0, 0, 1, 2 * p]]
        emb = lat.sublattice(lam3, rows)
        computed[p] = emb.gram == lp.gram and lat.is_primitive(emb)
    return _equal(computed, {17: True, 41: True})


# ---------------------------------------------------------------------------
# the rank-18 non-Kummer example


@claim("rank18ex.det1156", "the rank-18 example form has determinant 1156", "quadform")
def _r18_det():
    return _equal(exact.det(RANK18_GRAM), 1156)


@claim(
    "rank18ex.diag",
    "the rank-18 example form is Q-equivalent to <-2>+<-6>+<17>+<51>",
    "quadform",
)
def _r18_diag():
    return _equal(qf.rationally_equivalent(RANK18_GRAM, _diag([-2, -6, 17, 51])), True)


@claim(
    "rank18ex.not-solvable-17",
    "the rank-18 example form is anisotropic over Q_17 (Witt index 0)",
    "quadform",
)
def _r18_17():
    return _equal(qf.witt_index(RANK18_GRAM, 17), 0)


# ---------------------------------------------------------------------------
# the quaternionic norm forms


@claim(
    "Np.aniso-p.5",
    "x^2 - 2y^2 + 5z^2 - 10w^2 is anisotropic over Q_5",
    "quadform",
)
def _np5():
    return _equal(qf.anisotropic_dimension(_named("Np(5,2)").gram, 5), 4)


@claim(
    "Np.aniso-p.13",
    "x^2 - 2y^2 + 13z^2 - 26w^2 is anisotropic over Q_13",
    "quadform",
)
def _np13():
    return _equal(qf.anisotropic_dimension(_named("Np(13,2)").gram, 13), 4)


# ---------------------------------------------------------------------------
# the wedge-square form versus Lambda(n)


def _mh_claim(n: int):
    @claim(
        f"mh.equiv-lambda.n={n}",
        f"the rank-6 wedge-square form for n={n} is Q-equivalent to "
        f"<-2>+<-2n>+U+U",
        "quadform",
        "mh",
    )
    def _check():
        equiv = qf.rationally_equivalent(wedge_square_form(n), _named(f"Lambda({n})").gram)
        return _equal(equiv, True)


for _n in (1, 2, 3, 6):
    _mh_claim(_n)


# ---------------------------------------------------------------------------
# the section intersection matrices


def _table1_claim(n: int):
    @claim(
        f"table1.det.n{n}",
        f"det of the rank-{5 + 6 * n} section intersection matrix equals "
        f"-{n} * 2^{6 * n} * (a+b)^2 for all a, b in [-3, 3]",
        "ellsurf",
        "table1",
    )
    def _check():
        return _equal({"violations": es.table1_violations(n)}, {"violations": []})


for _n in (1, 2, 3, 4):
    _table1_claim(_n)


# ---------------------------------------------------------------------------
# Euler numbers


@claim(
    "euler.wtilde",
    "18 fibers of type I2 have total Euler number 36",
    "ellsurf",
    "euler",
)
def _euler_wtilde():
    return _equal(es.total_euler(es.FiberConfig.of("18xI2")), 36)


@claim(
    "euler.k3-quotient",
    "one I0* and nine I2 give Euler number 24, so h^{2,0} = 1",
    "ellsurf",
    "euler",
)
def _euler_k3():
    cfg = es.FiberConfig.of("1xI0*", "9xI2")
    chi = es.total_euler(cfg)
    return _equal((chi, es.h20_from_euler(chi)), (24, 1))


@claim(
    "euler.lambdanu",
    "three I0* and nine I2 give Euler number 36, so h^{2,0} = 2",
    "ellsurf",
    "euler",
)
def _euler_lambdanu():
    cfg = es.FiberConfig.of("3xI0*", "9xI2")
    chi = es.total_euler(cfg)
    return _equal((chi, es.h20_from_euler(chi)), (36, 2))


# ---------------------------------------------------------------------------
# rank formula


@claim(
    "st.l2-rank1",
    "rho = 16 with I0* + 9 I2 gives Mordell-Weil rank 1",
    "ellsurf",
    "shioda-tate",
)
def _st_l2():
    r = es.shioda_tate_rank(es.SurfaceData(2, 16), es.FiberConfig.of("1xI0*", "9xI2"))
    return _equal(r, 1)


@claim(
    "st.otherfib-rank0",
    "rho = 16 with I2* + I3 + 6 I2 gives Mordell-Weil rank 0",
    "ellsurf",
    "shioda-tate",
)
def _st_other():
    r = es.shioda_tate_rank(
        es.SurfaceData(2, 16), es.FiberConfig.of("1xI2*", "1xI3", "6xI2", "1xI1")
    )
    return _equal(r, 0)


@claim(
    "st.rational-rank1",
    "rho = 10 with I0* + 3 I2 gives Mordell-Weil rank 1",
    "ellsurf",
    "shioda-tate",
)
def _st_rational():
    r = es.shioda_tate_rank(es.SurfaceData(1, 10), es.FiberConfig.of("1xI0*", "3xI2"))
    return _equal(r, 1)


# ---------------------------------------------------------------------------
# heights


@claim(
    "height.l2-3/2",
    "a section meeting the zero section once, the identity component of the "
    "I0* and the nonidentity component of all nine I2 has height 3/2",
    "ellsurf",
    "height",
)
def _height_l2():
    inc = es.SectionIncidence(
        1, tuple([(es.kodaira("I0*"), 0)] + [(es.kodaira("I2"), 1)] * 9)
    )
    return _equal(es.height_pairing(es.SurfaceData(2, 16), inc), Fraction(3, 2))


@claim(
    "height.torsion-0",
    "a section missing the zero section, on a nonidentity reduced component "
    "of the I0* and the identity component of three of the nine I2, has "
    "height 0",
    "ellsurf",
    "height",
)
def _height_torsion():
    inc = es.SectionIncidence(
        0,
        tuple(
            [(es.kodaira("I0*"), es.NEAR)]
            + [(es.kodaira("I2"), 0)] * 3
            + [(es.kodaira("I2"), 1)] * 6
        ),
    )
    return _equal(es.height_pairing(es.SurfaceData(2, 16), inc), Fraction(0))


@claim(
    "height.rational-1/2-via-disc",
    "on the rational elliptic surface with I0* + 3 I2 and full 2-torsion, "
    "the determinant relation forces generator height 1/2",
    "ellsurf",
    "height",
)
def _height_rational():
    cfg = es.FiberConfig.of("1xI0*", "3xI2")
    triv = es.trivial_lattice_disc(cfg)
    height = Fraction(1 * 4**2, triv)
    computed = {
        "height": height,
        "relation": es.mw_disc_relation(1, cfg, 4, height),
    }
    return _equal(computed, {"height": Fraction(1, 2), "relation": True})


# ---------------------------------------------------------------------------
# determinant relation


@claim(
    "mwdisc.rational",
    "1 * 4^2 = 32 * (1/2) for the rational elliptic surface",
    "ellsurf",
    "mwdisc",
)
def _mwdisc_rational():
    cfg = es.FiberConfig.of("1xI0*", "3xI2")
    sides = es.mw_disc_sides(1, cfg, 4, Fraction(1, 2))
    return _equal(sides, (Fraction(16), Fraction(16)))


@claim(
    "mwdisc.l2",
    "192 * 4^2 = 2048 * (3/2) for the L2 fibration",
    "ellsurf",
    "mwdisc",
)
def _mwdisc_l2():
    cfg = es.FiberConfig.of("1xI0*", "9xI2")
    sides = es.mw_disc_sides(_named("L2").det(), cfg, 4, Fraction(3, 2))
    return _equal(sides, (Fraction(3072), Fraction(3072)))


@claim(
    "mwdisc.L",
    "12 * 2^2 = 48 * 1 for the I4* + I6 + I2 fibration",
    "ellsurf",
    "mwdisc",
)
def _mwdisc_L():
    cfg = es.FiberConfig.of("1xI4*", "1xI6", "1xI2", "6xI1")
    sides = es.mw_disc_sides(_named("L_sat").det(), cfg, 2, Fraction(1))
    return _equal(sides, (Fraction(48), Fraction(48)))


@claim(
    "otherfib.disc768",
    "the trivial lattice of I2* + I3 + 6 I2 has |det| = 768, and the "
    "reducible fibers contribute 23 to the Euler number, forcing one I1",
    "ellsurf",
)
def _otherfib():
    cfg = es.FiberConfig.of("1xI2*", "1xI3", "6xI2")
    computed = {
        "disc": es.trivial_lattice_disc(cfg),
        "reducible_euler": es.total_euler(cfg),
    }
    return _equal(computed, {"disc": 768, "reducible_euler": 23})


# ---------------------------------------------------------------------------
# overlattices of U + D8 + A5 + A1 and U + D8 + E6


@claim(
    "L.disc12",
    "an index-2 even overlattice of U+D8+A5+A1 has determinant -12",
    "glue",
    "overlattice",
)
def _l_disc12():
    l = _named("L_sat")
    return _equal((l.det(), l.is_even()), (-12, True))


@claim(
    "L.overlattice-unique",
    "every proper even overlattice of U+D8+E6 is genus-equal to U+E8+E6, "
    "which is alone in its genus",
    "glue",
    "overlattice",
)
def _l_unique():
    base, target = _u_d8_e6(), _named("U_E8_E6")
    # an overlattice has the base's signature, and H^perp / H for its form
    proper = [form() for _, order, _, form in glue.even_overlattice_forms(base) if order > 1]
    target_form = lat.discriminant_group(target)
    computed = {
        "proper_count": len(proper),
        "all_genus_equal": base.signature() == target.signature()
        and all(ke.disc_forms_isomorphic(f, target_form) for f in proper),
        "uniqueness_applicable": ke.genus_uniqueness_applicable(target),
    }
    ok = computed["proper_count"] >= 1 and computed["all_genus_equal"] and computed[
        "uniqueness_applicable"
    ]
    expected = {"proper_count": ">=1", "all_genus_equal": True, "uniqueness_applicable": True}
    return ok, computed, expected


@claim(
    "L.no-index4",
    "U+D8+A5+A1 is not contained with index 4 in any even lattice",
    "glue",
    "overlattice",
)
def _l_noindex4():
    base = _named("L_sat").ambient.ambient  # the base L_sat was glued to
    index4 = [det for _, order, det, _ in glue.even_overlattice_forms(base, 4) if order == 4]
    computed = {"index4_count": len(index4), "index4_dets": sorted(index4)}
    return _equal(computed, {"index4_count": 0, "index4_dets": []})


# ---------------------------------------------------------------------------
# class arithmetic in N1 and its enlargements

# F = h - (the three node classes of G1), in N1's degree frame
_F = tuple(glue.frame_vector(1, _G1, -1))


@claim(
    "nosec.F-isotropic",
    "F = h - (sum of the three node classes of an order-4 subgroup) has "
    "self-intersection 0",
    "glue",
    "nosec",
)
def _nosec_iso():
    frame = _named("N1").ambient.ambient
    return _equal(frame.norm(_F), Fraction(0))


@claim(
    "nosec.F-even",
    "F pairs evenly with every vector of N1 (divisibility 2)",
    "glue",
    "nosec",
)
def _nosec_even():
    n1 = _named("N1")
    return _equal(lat.divisibility(n1, _F), 2)


@claim("nosec.F-notdiv", "F lies in N1 but F/2 does not", "glue", "nosec")
def _nosec_notdiv():
    n1 = _named("N1")
    computed = {
        "F_in_N1": lat.contains_ambient(n1, _F),
        "half_in_N1": lat.contains_ambient(n1, [Fraction(x, 2) for x in _F]),
    }
    return _equal(computed, {"F_in_N1": True, "half_in_N1": False})


@claim(
    "cubics.CG-membership",
    "for each of the 15 order-8 subgroups G, (h - sum of the node classes "
    "in G)/2 has self-intersection -2 and lies in N1",
    "glue",
    "nosec",
)
def _cubics():
    n1 = _named("N1")
    frame = n1.ambient.ambient
    norm_ok = 0
    member_ok = 0
    for support in glue.index2_subgroup_complements():
        inside = [i for i in range(15) if i not in support]
        v = [Fraction(x, 2) for x in glue.frame_vector(1, inside, -1)]
        if frame.norm(v) == -2:
            norm_ok += 1
        if lat.contains_ambient(n1, v):
            member_ok += 1
    computed = {"norm_-2": norm_ok, "in_N1": member_ok}
    return _equal(computed, {"norm_-2": 15, "in_N1": 15})


@claim(
    "n1works.isotropic-class",
    "in N1 enlarged by the two half-fiber classes, the class "
    "2h - 2C_0111 - 2C_1011 - (C_1100 + C_1101 + C_1110 + C_1111) is "
    "isotropic, primitive, and pairs evenly with the whole lattice",
    "glue",
    "n1works",
)
def _n1works():
    enlarged = _n1_enlarged()
    frame = enlarged.ambient.ambient
    idx = glue.INDEX_OF
    twice = [idx[(0, 1, 1, 1)], idx[(1, 0, 1, 1)]]
    once = [idx[(1, 1, 0, 0)], idx[(1, 1, 0, 1)], idx[(1, 1, 1, 0)], idx[(1, 1, 1, 1)]]
    w = [a + b for a, b in zip(glue.frame_vector(2, twice, -2), glue.frame_vector(0, once, -1))]
    computed = {
        "enlarged_det": enlarged.det(),
        "norm": frame.norm(w),
        "divisibility": lat.divisibility(enlarged, w),
        "half_in": lat.contains_ambient(enlarged, [Fraction(x, 2) for x in w]),
        "found_by_search": glue.is_isotropic_glue(enlarged, w, 2),
    }
    expected = {
        "enlarged_det": -12,
        "norm": Fraction(0),
        "divisibility": 2,
        "half_in": False,
        "found_by_search": True,
    }
    return _equal(computed, expected)


@claim(
    "n2works.chain-48-12-3",
    "adjoining halves of the three fiber classes to N2 yields determinants "
    "-48, -12, -3, with the final lattice genus-equal to U+E8+E6",
    "glue",
    "n2works",
)
def _n2works():
    groups = [
        glue.subgroup_order4([(1, 0, 0, 0), (0, 0, 0, 1)]),
        glue.subgroup_order4([(0, 1, 0, 0), (0, 0, 0, 1)]),
        glue.subgroup_order4([(0, 0, 1, 0), (0, 0, 0, 1)]),
    ]
    cur = _named("N2")
    discs = []
    for g in groups:
        cur = _extend(cur, _half_fiber(g))
        discs.append(cur.det())
    computed = {
        "discs": discs,
        "final_genus_u_e8_e6": ke.genus_equal(cur, _named("U_E8_E6")),
    }
    return _equal(computed, {"discs": [-48, -12, -3], "final_genus_u_e8_e6": True})


# ---------------------------------------------------------------------------
# square-related degrees

# the twelve node classes outside the defining order-4 subgroup
_OUTSIDE_N1_SUBGROUP = tuple(i for i in range(15) if i not in glue.N1_SUBGROUP)


@claim(
    "sqrel.x-norm-24",
    "for d' = 7 and 11, x = sum of the twelve node classes outside the "
    "defining order-4 subgroup has norm -24",
    "glue",
    "sqrel",
)
def _sqrel_x():
    computed = {}
    for dp in (7, 11):
        frame = _named(f"L_d({dp},subgroup)").ambient.ambient
        computed[dp] = frame.norm(glue.frame_vector(0, _OUTSIDE_N1_SUBGROUP))
    return _equal(computed, {7: Fraction(-24), 11: Fraction(-24)})


@claim(
    "sqrel.8dminus5",
    "for d' = 7 and 11, the vector 2l - 2b_i - x (congruent to x mod 2) has "
    "norm 8(d'-5), and completing it by classes of the defining subgroup "
    "gives an isotropic divisibility-2 vector",
    "glue",
    "sqrel",
)
def _sqrel_8d():
    computed = {}
    expected = {}
    for dp, coeffs in zip((7, 11), SQREL_COMPLETIONS):
        ld = _named(f"L_d({dp},subgroup)")
        frame = ld.ambient.ambient
        x = glue.frame_vector(0, _OUTSIDE_N1_SUBGROUP)
        v0 = [a - b for a, b in zip(glue.frame_vector(2, [_OUTSIDE_N1_SUBGROUP[0]], -2), x)]
        twice = [glue.frame_vector(0, [h], 2) for h in glue.N1_SUBGROUP]
        (shift,) = exact.matmul([coeffs], twice)
        computed[dp] = {
            "norm": frame.norm(v0),
            "isotropic_completion": glue.is_isotropic_glue(ld, list(map(sum, zip(v0, shift))), 2),
        }
        expected[dp] = {"norm": Fraction(8 * (dp - 5)), "isotropic_completion": True}
    return _equal(computed, expected)


@claim(
    "sqrel.discform-p2",
    "dividing the degree vector of the d = 27 lattice by 3 (after making it "
    "isotropic) divides the determinant by 9 and lands in the genus of N1",
    "glue",
    "sqrel",
)
def _sqrel_p2():
    l27 = glue.ld_lattice(27, "subgroup")
    (shift,) = exact.matmul(DISCFORM_P2_GLUE, [glue.frame_vector(0, [i], -3) for i in range(4)])
    v = [a + b for a, b in zip(glue.frame_vector(1, []), shift)]
    if not glue.is_isotropic_glue(l27, v, 3):
        return _equal({"found": False}, {"found": True})
    enlarged = _extend(l27, glue.GlueSpec(tuple(v), 3))
    computed = {
        "base_det": l27.det(),
        "enlarged_det": enlarged.det(),
        "genus_equal_N1": ke.genus_equal(enlarged, _named("N1")),
    }
    return _equal(computed, {"base_det": -1728, "enlarged_det": -192, "genus_equal_N1": True})
