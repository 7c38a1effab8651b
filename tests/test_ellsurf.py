"""Tests for fiber dictionaries, Euler numbers, ranks, heights and the
section intersection matrices."""

from fractions import Fraction

import pytest

from k3lattice import claims
from k3lattice import ellsurf as es
from k3lattice import exact

K = es.kodaira


# ---------------------------------------------------------------------------
# parsing and the two notations


def test_parse_symbols():
    assert str(K("I0")) == "I0"
    assert str(K("I12")) == "I12"
    assert str(K("I0*")) == "I0*"
    assert str(K("IV*")) == "IV*"
    for bad in ("I", "V", "IV2", "I2**", "X"):
        with pytest.raises(ValueError):
            K(bad)


@pytest.mark.parametrize(
    "symbol,ade",
    [
        ("I2", ("A", 1)),
        ("III", ("A", 1)),
        ("I3", ("A", 2)),
        ("IV", ("A", 2)),
        ("I5", ("A", 4)),
        ("I0*", ("D", 4)),
        ("I4*", ("D", 8)),
        ("IV*", ("E", 6)),
        ("III*", ("E", 7)),
        ("II*", ("E", 8)),
        ("I0", None),
        ("I1", None),
        ("II", None),
    ],
)
def test_kodaira_to_ade(symbol, ade):
    assert es.kodaira_to_ade(K(symbol)) == ade


@pytest.mark.parametrize(
    "symbol,e",
    [
        ("I1", 1),
        ("I2", 2),
        ("I0*", 6),
        ("I2*", 8),
        ("II", 2),
        ("III", 3),
        ("IV", 4),
        ("IV*", 8),
        ("III*", 9),
        ("II*", 10),
    ],
)
def test_euler_numbers(symbol, e):
    assert es.euler_number(K(symbol)) == e


def test_component_counts():
    assert es.component_count(K("I1")) == 1
    assert es.component_count(K("I6")) == 6
    assert es.component_count(K("I0*")) == 5
    assert es.component_count(K("I2*")) == 7
    assert es.component_count(K("IV*")) == 7


# the lookup tables the counts were read from before they were derived from
# the root type, frozen here as the oracle
FROZEN_EULER = {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}
FROZEN_COMPONENTS = {"II": 1, "III": 2, "IV": 3, "IV*": 7, "III*": 8, "II*": 9}


def frozen_euler(t):
    if t.family == "I":
        return t.n
    if t.family == "I*":
        return t.n + 6
    return FROZEN_EULER[t.family]


def frozen_components(t):
    if t.family == "I":
        return max(t.n, 1)
    if t.family == "I*":
        return t.n + 5
    return FROZEN_COMPONENTS[t.family]


def test_counts_from_the_root_type_match_the_frozen_tables():
    types = [K(f"I{n}") for n in range(13)] + [K(f"I{n}*") for n in range(13)]
    types += [K(s) for s in FROZEN_EULER]
    for t in types:
        assert es.component_count(t) == frozen_components(t), t
        assert es.euler_number(t) == frozen_euler(t), t


def test_fiber_counts_are_positive_integers():
    # "-3xI2" once gave no fibers, so -3xI2 + I0* had Euler number 6
    for bad in ("-1xI2", "0xI2", "-3xI2", "xI2", "twoxI2"):
        with pytest.raises(ValueError):
            es.FiberConfig.of(bad)
    with pytest.raises(ValueError):
        es.FiberConfig.of("-3xI2", "1xI0*")
    assert es.FiberConfig.of("3xI2").fibers == (K("I2"),) * 3


# ---------------------------------------------------------------------------
# Euler totals and h^{2,0}


def test_total_euler_examples():
    assert es.total_euler(es.FiberConfig.of("18xI2")) == 36
    assert es.total_euler(es.FiberConfig.of("1xI0*", "9xI2")) == 24
    assert es.total_euler(es.FiberConfig.of("3xI0*", "9xI2")) == 36


def test_h20():
    assert es.h20_from_euler(24) == 1
    assert es.h20_from_euler(36) == 2
    with pytest.raises(ValueError):
        es.h20_from_euler(23)


def test_k3_configs_sum_to_24():
    for cfg in (
        es.FiberConfig.of("1xI0*", "9xI2"),
        es.FiberConfig.of("1xI2*", "1xI3", "6xI2", "1xI1"),
        es.FiberConfig.of("1xI4*", "1xI6", "1xI2", "6xI1"),
    ):
        assert es.total_euler(cfg) == 24


# ---------------------------------------------------------------------------
# rank formula and trivial lattice


def test_shioda_tate_examples():
    assert (
        es.shioda_tate_rank(
            es.SurfaceData(2, 16), es.FiberConfig.of("1xI0*", "9xI2")
        )
        == 1
    )
    assert (
        es.shioda_tate_rank(
            es.SurfaceData(2, 16),
            es.FiberConfig.of("1xI2*", "1xI3", "6xI2", "1xI1"),
        )
        == 0
    )
    assert (
        es.shioda_tate_rank(
            es.SurfaceData(1, 10), es.FiberConfig.of("1xI0*", "3xI2")
        )
        == 1
    )


def test_shioda_tate_rejects_overfull_config():
    with pytest.raises(ValueError):
        es.shioda_tate_rank(es.SurfaceData(2, 10), es.FiberConfig.of("2xI2*"))


def test_shioda_tate_round_trip():
    for rho, cfg in (
        (16, es.FiberConfig.of("1xI0*", "9xI2")),
        (16, es.FiberConfig.of("1xI2*", "1xI3", "6xI2", "1xI1")),
        (10, es.FiberConfig.of("1xI0*", "3xI2")),
    ):
        rank = es.shioda_tate_rank(es.SurfaceData(2, rho), cfg)
        vertical = sum(es.component_count(t) - 1 for t in cfg.fibers)
        assert rank + 2 + vertical == rho


def test_trivial_lattice_discs():
    assert es.trivial_lattice_disc(es.FiberConfig.of("1xI2*", "1xI3", "6xI2")) == 768
    assert es.trivial_lattice_disc(es.FiberConfig.of("1xI4*", "1xI6", "1xI2")) == 48
    assert es.trivial_lattice_disc(es.FiberConfig.of("1xI0*", "9xI2")) == 2048


# ---------------------------------------------------------------------------
# heights


def test_height_l2_generator():
    inc = es.SectionIncidence(1, tuple([(K("I0*"), 0)] + [(K("I2"), 1)] * 9))
    assert es.height_pairing(es.SurfaceData(2, 16), inc) == Fraction(3, 2)


def test_height_torsion_zero():
    inc = es.SectionIncidence(
        0,
        tuple(
            [(K("I0*"), es.NEAR)]
            + [(K("I2"), 0)] * 3
            + [(K("I2"), 1)] * 6
        ),
    )
    assert es.height_pairing(es.SurfaceData(2, 16), inc) == 0


def test_height_zero_section_convention():
    # the incidence model cannot express the zero section itself (its
    # intersection with itself is negative); height 0 for the identity is a
    # convention on top of the formula, whose correction-free value is
    # 2 chi(O)
    inc = es.SectionIncidence(0, ())
    assert es.height_pairing(es.SurfaceData(2, 16), inc) == 4


def test_height_contribution_table():
    s = es.SurfaceData(1, 10)
    cases = [
        ((K("I4"), 1), Fraction(3, 4)),
        ((K("I4"), 2), Fraction(1)),
        ((K("III"), 1), Fraction(1, 2)),
        ((K("IV"), 1), Fraction(2, 3)),
        ((K("I2*"), es.NEAR), Fraction(1)),
        ((K("I2*"), es.FAR), Fraction(3, 2)),
        ((K("IV*"), 1), Fraction(4, 3)),
        ((K("III*"), 1), Fraction(3, 2)),
    ]
    for fiber, contr in cases:
        inc = es.SectionIncidence(0, (fiber,))
        assert es.height_pairing(s, inc) == 2 - contr


def test_height_unsupported_component_errors():
    s = es.SurfaceData(2, 16)
    with pytest.raises(ValueError):
        es.height_pairing(s, es.SectionIncidence(0, ((K("II*"), 1),)))
    with pytest.raises(ValueError):
        es.height_pairing(s, es.SectionIncidence(0, ((K("I2"), 2),)))
    with pytest.raises(ValueError):
        es.height_pairing(s, es.SectionIncidence(0, ((K("I0*"), es.FAR),)))


def test_torsion_consistent_incidences_have_height_zero():
    # contributions must sum to 2 chi(O) + 2 (P.O); enumerate a couple
    s = es.SurfaceData(2, 16)
    inc = es.SectionIncidence(
        0, tuple([(K("I2*"), es.FAR)] + [(K("I2"), 1)] * 4 + [(K("I2"), 0)] * 2)
    )
    # 3/2 + 4 * 1/2 = 7/2, not 4: height 1/2, a unit test of exact arithmetic
    assert es.height_pairing(s, inc) == Fraction(1, 2)
    inc0 = es.SectionIncidence(
        0, tuple([(K("I2*"), es.FAR)] + [(K("I2"), 1)] * 5)
    )
    assert es.height_pairing(s, inc0) == 0


# ---------------------------------------------------------------------------
# determinant relation


def test_mw_disc_relations():
    assert es.mw_disc_relation(
        1, es.FiberConfig.of("1xI0*", "3xI2"), 4, Fraction(1, 2)
    )
    assert es.mw_disc_relation(
        -192, es.FiberConfig.of("1xI0*", "9xI2"), 4, Fraction(3, 2)
    )
    assert es.mw_disc_relation(
        -12, es.FiberConfig.of("1xI4*", "1xI6", "1xI2"), 2, Fraction(1)
    )
    assert not es.mw_disc_relation(
        -192, es.FiberConfig.of("1xI0*", "9xI2"), 4, Fraction(1, 2)
    )
    with pytest.raises(ValueError):
        es.mw_disc_relation(0, es.FiberConfig.of("1xI2"), 1, Fraction(1))


# ---------------------------------------------------------------------------
# the section intersection matrix family


def test_table1_matrix_shape_and_symmetry():
    m = es.table1_matrix(2, 1, -1)
    assert len(m) == 17
    assert all(m[i][j] == m[j][i] for i in range(17) for j in range(17))
    # the zero-section row pairs 0 with every fiber component
    assert all(m[0][5 + k] == 0 for k in range(12))
    assert all(m[1][5 + k] == 1 for k in range(12))


def test_table1_det_values():
    assert exact.det(es.table1_matrix(1, 0, 0)) == 0
    assert exact.det(es.table1_matrix(3, 1, 1)) == -3 * 2**18 * 4
    assert exact.det(es.table1_matrix(2, 0, 1)) == -2 * 2**12


def test_table1_identity_exhaustive():
    for n in range(1, 5):
        for a in range(-3, 4):
            for b in range(-3, 4):
                assert es.table1_det_identity(n, a, b), (n, a, b)


def test_table1_closed_form_beyond_the_claims():
    # the claims stop at n = 4; ranks 35 to 77 take det's block step further:
    # the 6n fiber components are one diagonal block, eliminated at once
    for n in (5, 6, 8, 12):
        for a, b in ((0, 0), (1, 2), (-3, 1), (2, -2), (3, 3)):
            assert exact.det(es.table1_matrix(n, a, b)) == -n * 2 ** (6 * n) * (a + b) ** 2


def table1_loop(n):
    # the identity tested at every point of [-3, 3]^2, a-major
    return [
        (a, b)
        for a in range(-3, 4)
        for b in range(-3, 4)
        if not es.table1_det_identity(n, a, b)
    ]


def test_table1_violations_equal_the_49_point_loop():
    for n in range(1, 5):
        assert es.table1_violations(n) == table1_loop(n) == []


def test_table1_violations_fall_back_to_the_loop_on_an_altered_matrix(monkeypatch):
    # a constant at (0, 0) leaves a and b where they are, so the guard
    # passes, and breaks the identity, so the loop's list comes back
    table1_matrix = es.table1_matrix

    def altered(n, a, b):
        rows = table1_matrix(n, a, b)
        rows[0][0] += 1
        return rows

    monkeypatch.setattr(es, "table1_matrix", altered)
    for n in range(1, 5):
        want = table1_loop(n)
        assert want
        assert es.table1_violations(n) == want


def test_table1_violations_refuse_a_moved_onto_the_diagonal(monkeypatch):
    table1_matrix = es.table1_matrix

    def moved(n, a, b):
        rows = table1_matrix(n, 0, b)
        rows[1][1] += a
        return rows

    monkeypatch.setattr(es, "table1_matrix", moved)
    for n in range(1, 5):
        with pytest.raises(ArithmeticError):
            es.table1_violations(n)


def test_table1_claims_take_nine_determinants_per_n(monkeypatch):
    det = exact.det
    calls = []
    monkeypatch.setattr(exact, "det", lambda m: calls.append(len(m)) or det(m))
    for n in range(1, 5):
        assert claims.run_claim(f"table1.det.n{n}").status == "pass"
    assert sorted(calls) == [5 + 6 * n for n in range(1, 5) for _ in range(9)]
