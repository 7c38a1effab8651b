"""Acceptance suite: the full set of numeric criteria, one test per
criterion, every comparison an exact integer or rational equality.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Two sub-criteria are expected to fail with explicit
counterexamples; the decisions log documents why the recorded statements are
unsatisfiable as written.
"""

import itertools
import random
from fractions import Fraction

import k3lattice.lattice as lat
from k3lattice import claims, ellsurf as es, exact, glue, k3embed as ke
from k3lattice import quadform as qf
from test_glue import element_glue, glue_test_bases, isotropic_elements
from test_k3embed import _rank17_inputs, _t_glue_inputs, naive_isomorphic, random_posdef
from test_quadform import hilbert_oracle, relevant_places


def _criterion(num: int, description: str, checks: dict) -> None:
    failed = {k: v for k, v in checks.items() if v is not True}
    status = "PASS" if not failed else "FAIL"
    print(f"criterion {num:2d} {status}: {description}")
    assert not failed, f"criterion {num}: failed sub-checks {failed}"


def test_criterion_01_l2():
    l2 = glue.build_named("L2")
    _criterion(
        1,
        "det(L2) = -192, L2 even, signature (1,15)",
        {
            "det": l2.det() == -192 or l2.det(),
            "even": l2.is_even(),
            "signature": l2.signature_pair() == (1, 15) or l2.signature_pair(),
        },
    )


def test_criterion_02_nodal_lattices():
    m16 = glue.build_named("M16")
    n1, n2, l2 = glue.build_named("N1"), glue.build_named("N2"), glue.build_named("L2")
    _criterion(
        2,
        "det M16 = -128; det N1 = det N2 = -192; N1, N2, L2 pairwise distinct",
        {
            "m16": m16.det() == -128 or m16.det(),
            "n1": n1.det() == -192 or n1.det(),
            "n2": n2.det() == -192 or n2.det(),
            "n1_vs_n2": not ke.genus_equal(n1, n2),
            "n1_vs_l2": not ke.genus_equal(n1, l2),
            "n2_vs_l2": not ke.genus_equal(n2, l2),
        },
    )


def test_criterion_03_kummer():
    k = glue.build_named("KummerK")
    sig, negform = ke.complement_genus_in_unimodular(k)
    u23 = lat.direct_sum(*[lat.rescale(lat.hyperbolic(), 2)] * 3)
    _criterion(
        3,
        "Kummer lattice: rank 16, |det| 64; complement genus is U(2)^3",
        {
            "rank": k.rank == 16 or k.rank,
            "det": abs(k.det()) == 64 or k.det(),
            "signature": sig == (3, 3) or sig,
            "disc_form": ke.disc_forms_isomorphic(
                negform, lat.discriminant_group(u23)
            ),
            "uniqueness_applicable": ke.genus_uniqueness_applicable(u23),
        },
    )


def test_criterion_04_e8_complements():
    comp1 = ke.transcendental_of(ke.embed_standard("A5+A1 in E8"))
    comp2 = ke.transcendental_of(ke.embed_standard("A2+A1^3 in E8"))
    target2 = lat.direct_sum(
        lat.root_lattice("A", 1), lat.rescale(lat.root_lattice("A", 2), 2)
    )
    _criterion(
        4,
        "complement of A5+A1 in E8 is diag(-2,-6); of A2+A1^3 is A1+A2(2)",
        {
            "a5a1": ke.definite_isomorphic(comp1, lat.Lattice(claims._diag([-2, -6]))),
            "a2a1c": ke.definite_isomorphic(comp2, target2),
        },
    )


def test_criterion_05_hasse_suite():
    lam3 = glue.build_named("Lambda(3)")
    ce = claims._diag(claims.COUNTEREXAMPLE_DIAG)
    minus_m3 = {
        v for v in qf.invariants(lam3.gram).hasse_minus if v != qf.REAL
    }
    minus_ce = qf.invariants(ce).hasse_minus
    _criterion(
        5,
        "Hasse: Lambda(3) trivial at finite places; counterexample -1 at "
        "exactly {2,7}; the forms inequivalent",
        {
            "m3_finite": minus_m3 == set() or sorted(minus_m3),
            "ce_places": minus_ce == frozenset({2, 7}) or sorted(minus_ce, key=str),
            "inequivalent": not qf.rationally_equivalent(lam3.gram, ce),
        },
    )


def test_criterion_06_t36():
    (dmodel, tp), (glued, t) = _t_glue_inputs()
    _criterion(
        6,
        "T: det 36, anisotropic over Q_2 and Q_3; glue construction "
        "isomorphic to T",
        {
            "det": t.det() == 36 or t.det(),
            "aniso2": qf.anisotropic_dimension(t.gram, 2) == 4,
            "aniso3": qf.anisotropic_dimension(t.gram, 3) == 4,
            "complement_shape": ke.isometry_search(dmodel, tp, bound=4) is not None,
            "glued_isomorphic_T": ke.isometry_search(glued, t, bound=4) is not None,
        },
    )


def test_criterion_07_rank17():
    pic = lat.direct_sum(
        lat.hyperbolic(),
        lat.root_lattice("E", 8),
        lat.root_lattice("A", 2),
        *[lat.root_lattice("A", 1)] * 5,
    )
    target, tr = _rank17_inputs()
    _criterion(
        7,
        "rank 17: Picard disc 96; transcendental A1+A2(2)+<2>+<2>; Witt "
        "index 1 at 2",
        {
            "disc": abs(pic.det()) == 96 or pic.det(),
            "transcendental": ke.isometry_search(target, tr, bound=4) is not None,
            "witt2": qf.witt_index(target.gram, 2) == 1,
        },
    )


def test_criterion_08_lp_family():
    checks = {}
    lam3 = glue.build_named("Lambda(3)")
    for p in (17, 41):
        lp = glue.build_named(f"Lp({p})")
        rows = [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 2 * p],
        ]
        emb = lat.sublattice(lam3, rows)
        checks[f"hasse_{p}"] = qf.hasse_invariant(qf.diagonalize(lp.gram), p) == -1
        checks[f"witt_{p}"] = qf.witt_index(lp.gram, p) == 1
        checks[f"embeds_{p}"] = emb.gram == lp.gram and lat.is_primitive(emb)
    _criterion(
        8,
        "for p = 17, 41: Hasse -1 at p, Witt index 1 at p, primitive "
        "embedding into <-2>+<-6>+U+U exhibited",
        checks,
    )


def test_criterion_09_rank18():
    g = claims.RANK18_GRAM
    _criterion(
        9,
        "rank-18 example: det 1156; Q-equivalent to <-2,-6,17,51>; "
        "anisotropic over Q_17",
        {
            "det": exact.det(g) == 1156 or exact.det(g),
            "diag": qf.rationally_equivalent(g, claims._diag([-2, -6, 17, 51])),
            "witt17": qf.witt_index(g, 17) == 0,
        },
    )


def test_criterion_10_wedge_square_forms():
    checks = {}
    for n in (1, 2, 3, 6):
        checks[f"n={n}"] = qf.rationally_equivalent(
            claims.wedge_square_form(n), glue.build_named(f"Lambda({n})").gram
        )
    _criterion(10, "wedge-square form equivalent to <-2>+<-2n>+U+U over Q", checks)


def test_criterion_11_table1():
    bad = [
        (n, a, b)
        for n in range(1, 5)
        for a in range(-3, 4)
        for b in range(-3, 4)
        if not es.table1_det_identity(n, a, b)
    ]
    _criterion(
        11,
        "det M_n(a,b) = -n 2^{6n} (a+b)^2 for n in 1..4, a,b in [-3,3]",
        {"violations": bad == [] or bad},
    )


def test_criterion_12_fibration_combinatorics():
    cfg_l2 = es.FiberConfig.of("1xI0*", "9xI2")
    cfg_other = es.FiberConfig.of("1xI2*", "1xI3", "6xI2")
    cfg_rat = es.FiberConfig.of("1xI0*", "3xI2")
    cfg_l = es.FiberConfig.of("1xI4*", "1xI6", "1xI2")
    inc_gen = es.SectionIncidence(
        1, tuple([(es.kodaira("I0*"), 0)] + [(es.kodaira("I2"), 1)] * 9)
    )
    inc_tor = es.SectionIncidence(
        0,
        tuple(
            [(es.kodaira("I0*"), es.NEAR)]
            + [(es.kodaira("I2"), 0)] * 3
            + [(es.kodaira("I2"), 1)] * 6
        ),
    )
    cfg_other_full = es.FiberConfig.of("1xI2*", "1xI3", "6xI2", "1xI1")
    _criterion(
        12,
        "ranks (1,0,1); trivial discs 2048, 768, 48; heights 3/2, 0, 1/2; "
        "determinant relation exact for all three surfaces",
        {
            "rank_l2": es.shioda_tate_rank(es.SurfaceData(2, 16), cfg_l2) == 1,
            "rank_other": es.shioda_tate_rank(es.SurfaceData(2, 16), cfg_other_full)
            == 0,
            "rank_rational": es.shioda_tate_rank(es.SurfaceData(1, 10), cfg_rat)
            == 1,
            "disc_l2": es.trivial_lattice_disc(cfg_l2) == 2048,
            "disc_other": es.trivial_lattice_disc(cfg_other) == 768,
            "disc_l": es.trivial_lattice_disc(cfg_l) == 48,
            "height_gen": es.height_pairing(es.SurfaceData(2, 16), inc_gen)
            == Fraction(3, 2),
            "height_torsion": es.height_pairing(es.SurfaceData(2, 16), inc_tor)
            == 0,
            "relation_rational": es.mw_disc_relation(1, cfg_rat, 4, Fraction(1, 2)),
            "relation_l2": es.mw_disc_relation(-192, cfg_l2, 4, Fraction(3, 2)),
            "relation_l": es.mw_disc_relation(-12, cfg_l, 2, Fraction(1)),
        },
    )


def test_criterion_13_overlattice_suite():
    # 13a: recorded as "no even overlattice of U+D8+A5+A1 of index 4".
    # Index-4 even overlattices do exist (U+E8+E6 contains the sum with
    # index 4 via D8 < E8 and A5+A1 < E6), so this clause fails with an
    # explicit witness; see the decisions log.
    base = lat.direct_sum(
        lat.hyperbolic(),
        lat.root_lattice("D", 8),
        lat.root_lattice("A", 5),
        lat.root_lattice("A", 1),
    )
    index4 = [
        m
        for m in glue.even_overlattices(base, 4)
        if m.ambient is not None and glue.glue_index(m) == 4
    ]
    base2 = lat.direct_sum(
        lat.hyperbolic(), lat.root_lattice("D", 8), lat.root_lattice("E", 6)
    )
    target = glue.build_named("U_E8_E6")
    proper = [m for m in glue.even_overlattices(base2) if m.det() != base2.det()]
    n2 = glue.build_named("N2")
    groups = [
        glue.subgroup_order4([(1, 0, 0, 0), (0, 0, 0, 1)]),
        glue.subgroup_order4([(0, 1, 0, 0), (0, 0, 0, 1)]),
        glue.subgroup_order4([(0, 0, 1, 0), (0, 0, 0, 1)]),
    ]
    cur = n2
    chain = []
    for g in groups:
        specs = [glue.GlueSpec(row, cur.ambient.denominator) for row in cur.ambient.basis]
        specs.append(glue.GlueSpec(tuple(glue.frame_vector(1, g, -1)), 2))
        cur = glue.adjoin(cur.ambient.ambient, specs)
        chain.append(cur.det())
    _criterion(
        13,
        "overlattices: no index-4 extension of U+D8+A5+A1; unique proper "
        "extension of U+D8+E6 in the genus of U+E8+E6; chain -48, -12, -3",
        {
            "no_index4": index4 == []
            or f"found {len(index4)} index-4 even overlattices with dets "
            f"{[m.det() for m in index4]}",
            "unique_proper": len(proper) >= 1
            and all(ke.genus_equal(m, target) for m in proper),
            "uniqueness_applicable": ke.genus_uniqueness_applicable(target),
            "chain": chain == [-48, -12, -3] or chain,
            "final_genus": ke.genus_equal(cur, target),
        },
    )


def test_criterion_14_class_arithmetic():
    n1 = glue.build_named("N1")
    frame = n1.ambient.ambient
    f = glue.frame_vector(1, claims._G1, -1)

    # the 15 half-classes of order-8 subgroups: norm -2 always holds, but
    # membership in N1 fails for all of them (each lies in N2 instead); the
    # decisions log has the weight argument
    norm_ok = 0
    member_ok = 0
    for support in glue.index2_subgroup_complements():
        inside = [i for i in range(15) if i not in support]
        v = [Fraction(x, 2) for x in glue.frame_vector(1, inside, -1)]
        if frame.norm(v) == -2:
            norm_ok += 1
        if lat.contains_ambient(n1, v):
            member_ok += 1

    enlarged = claims._n1_enlarged()
    idx = glue.INDEX_OF
    w = glue.frame_vector(2, [], 0)
    for i, c in (
        (idx[(0, 1, 1, 1)], -2),
        (idx[(1, 0, 1, 1)], -2),
        (idx[(1, 1, 0, 0)], -1),
        (idx[(1, 1, 0, 1)], -1),
        (idx[(1, 1, 1, 0)], -1),
        (idx[(1, 1, 1, 1)], -1),
    ):
        w[i + 1] += c

    sq_checks = {}
    for dp in (7, 11):
        ld = glue.ld_lattice(dp, "subgroup")
        fr = ld.ambient.ambient
        outside = [i for i in range(15) if i not in glue.N1_SUBGROUP]
        x = glue.frame_vector(0, outside)
        v0 = [a - b for a, b in zip(glue.frame_vector(2, [outside[0]], -2), x)]
        sq_checks[f"x_norm_{dp}"] = fr.norm(x) == -24
        sq_checks[f"norm_8d_{dp}"] = fr.norm(v0) == 8 * (dp - 5)

    _criterion(
        14,
        "F isotropic, even, primitive; 15 order-8 half-classes of norm -2 "
        "inside N1; isotropic class in the enlarged N1; x norm -24; "
        "8(d'-5) norms",
        {
            "F_isotropic": frame.norm(f) == 0,
            "F_even": lat.divisibility(n1, f) == 2,
            "F_primitive": not lat.contains_ambient(
                n1, [Fraction(x, 2) for x in f]
            ),
            "order8_norms": norm_ok == 15 or norm_ok,
            "order8_membership": member_ok == 15
            or f"only {member_ok}/15 classes lie in N1",
            "n1works_vector": frame.norm(w) == 0
            and lat.divisibility(enlarged, w) == 2
            and not lat.contains_ambient(enlarged, [Fraction(x, 2) for x in w]),
            **sq_checks,
        },
    )


def test_criterion_15_property_suites():
    rng = random.Random(15)

    # Hilbert reciprocity on 200 random pairs
    reciprocity = True
    for _ in range(200):
        a = rng.randrange(-60, 61) or 1
        b = rng.randrange(-60, 61) or 1
        prod = 1
        for v in relevant_places(a * b):
            prod *= qf.hilbert_symbol(a, b, v)
        reciprocity = reciprocity and prod == 1

    # symbol versus the equation oracle (sampled; full version in the
    # quadform tests)
    oracle_ok = True
    for p in (2, 3, 5, 7, 11, 13):
        for a, b in ((-1, -1), (p, p), (2, -3), (p, 6), (-2 * p, 5)):
            oracle_ok = oracle_ok and qf.hilbert_symbol(a, b, p) == hilbert_oracle(
                a, b, p
            )

    # disc * index^2 on random glue
    glue_ok = True
    bases = glue_test_bases()
    for _ in range(8):
        base = rng.choice(bases)
        form = lat.discriminant_group(base)
        iso = isotropic_elements(form)
        assert iso, base.gram
        bigger = glue.adjoin(base, [element_glue(form, rng.choice(iso))])
        glue_ok = glue_ok and base.det() == glue.glue_index(bigger) ** 2 * bigger.det()

    # SNF reconstruction on random matrices
    snf_ok = True
    for _ in range(20):
        m = [
            [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 4))]
        ]
        m = [
            [rng.randrange(-9, 10) for _ in range(len(m[0]))]
            for _ in range(rng.randrange(1, 4))
        ]
        d, u, v = exact.smith_normal_form(m)
        snf_ok = snf_ok and exact.matmul(exact.matmul(u, m), v) == d

    # discriminant-form axioms on the named lattices
    axioms_ok = True
    for name in ("L2", "N1", "N2", "M16", "KummerK", "L_sat", "Lambda(3)"):
        form = lat.discriminant_group(glue.build_named(name))
        els = list(itertools.islice(form.elements(), 25))
        for x in els:
            for y in els:
                s = tuple(
                    (a + b) % d for a, b, d in zip(x, y, form.invariant_factors)
                )
                axioms_ok = (
                    axioms_ok
                    and (form.q(s) - form.q(x) - form.q(y) - 2 * form.b(x, y)) % 2
                    == 0
                )

    # definite isometry against exhaustion
    definite_ok = True
    done = 0
    while done < 5:
        g1 = random_posdef(rng, 3)
        g2 = random_posdef(rng, 3)
        l1, l2 = lat.Lattice(g1), lat.Lattice(g2)
        if (l1.det(), l1.signature()) != (l2.det(), l2.signature()):
            continue
        definite_ok = definite_ok and ke.definite_isomorphic(l1, l2) == naive_isomorphic(
            g1, g2
        )
        done += 1

    _criterion(
        15,
        "property suites: reciprocity, symbol oracle, glue determinant law, "
        "SNF reconstruction, form axioms, definite isometry oracle",
        {
            "reciprocity": reciprocity,
            "symbol_oracle": oracle_ok,
            "glue_determinants": glue_ok,
            "snf": snf_ok,
            "form_axioms": axioms_ok,
            "definite_oracle": definite_ok,
        },
    )
