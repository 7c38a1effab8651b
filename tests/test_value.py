"""Value semantics of the package's immutable record classes: construction,
validation, immutability, equality and hashing."""

import pytest

import k3lattice.lattice as lat
from k3lattice import claims, ellsurf as es, glue, quadform as qf

U = lat.hyperbolic()
I2 = es.KodairaType("I", 2)


def _check() -> tuple[bool, object, object]:
    return True, 1, 1


# per class: its fields in order with one value each, the defaults of the
# trailing fields, and a second value per field
VALUES = {
    lat.Embedding: (
        {"ambient": U, "basis": ((1, 0), (0, 1)), "denominator": 2},
        {"denominator": 1},
        {"ambient": lat.rank_one(2), "basis": ((1, 1), (0, 1)), "denominator": 3},
    ),
    lat.Lattice: (
        {"gram": U.gram, "name": "U", "ambient": lat.Embedding(U, ((1, 0), (0, 1)))},
        {"name": None, "ambient": None},
        {"gram": ((2, 1), (1, 2)), "name": "A2", "ambient": None},
    ),
    lat.FiniteQuadraticForm: (
        {"invariant_factors": (2,), "generators": ((1,),), "q_numerators": (3,),
         "b_numerators": ((1,),)},
        {},
        {"invariant_factors": (4,), "generators": ((1, 1),), "q_numerators": None,
         "b_numerators": ((3,),)},
    ),
    glue.GlueSpec: ({"vector": (1, 0), "denominator": 2}, {}, {"vector": (0, 1), "denominator": 3}),
    qf.QuadFormInvariants: (
        {"rank": 2, "signature": (1, 1), "disc_class": -1, "hasse_minus": frozenset()},
        {},
        {"rank": 3, "signature": (2, 1), "disc_class": 1, "hasse_minus": frozenset({2, 3})},
    ),
    es.KodairaType: ({"family": "I", "n": 2}, {"n": 0}, {"family": "I*", "n": 1}),
    es.FiberConfig: ({"fibers": (I2, I2)}, {}, {"fibers": (I2,)}),
    es.SurfaceData: (
        {"chi_o": 2, "rho": 20, "torsion_order": 2},
        {"torsion_order": 1},
        {"chi_o": 1, "rho": 10, "torsion_order": 3},
    ),
    es.SectionIncidence: (
        {"meets_zero_section": 0, "components": ((I2, 1),)},
        {},
        {"meets_zero_section": 1, "components": ()},
    ),
    claims.Claim: (
        {"id": "x", "statement": "s", "tags": ("t",), "check": _check},
        {},
        {"id": "y", "statement": "t", "tags": (), "check": lambda: (False, 0, 1)},
    ),
    claims.ClaimResult: (
        {"id": "x", "status": "pass", "computed": 1, "expected": 1, "elapsed_ns": 5},
        {},
        {"id": "y", "status": "fail", "computed": 2, "expected": 3, "elapsed_ns": 6},
    ),
}
CLASSES = pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)


@CLASSES
def test_positional_keyword_and_default_construction(cls):
    values, defaults, _ = VALUES[cls]
    by_position = cls(*values.values())
    by_keyword = cls(**dict(reversed(values.items())))
    for obj in (by_position, by_keyword):
        for name, value in values.items():
            assert getattr(obj, name) is value
    assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
    required = [v for name, v in values.items() if name not in defaults]
    bare = cls(*required)
    for name, value in defaults.items():
        assert getattr(bare, name) == value
    assert bare == cls(*required, **defaults)
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    with pytest.raises(TypeError):
        cls(*required, unknown=1)


@CLASSES
def test_instances_are_frozen(cls):
    values, _, others = VALUES[cls]
    obj = cls(*values.values())
    for name in values:
        with pytest.raises(AttributeError):
            setattr(obj, name, others[name])
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is values[name]
    with pytest.raises(AttributeError):
        obj.extra = 1


@CLASSES
def test_equality_and_hash_read_every_field(cls):
    values, _, others = VALUES[cls]
    obj = cls(*values.values())
    twin = cls(*values.values())
    assert obj == twin and not obj != twin and hash(obj) == hash(twin)
    assert obj != tuple(values.values()) and obj != object()
    if cls is lat.Lattice:
        return  # its fields depend on each other; see the test below
    for name in values:
        assert obj != cls(**{**values, name: others[name]}), name


def test_lattice_equality_and_hash_ignore_the_embedding():
    a2 = ((2, 1), (1, 2))
    plain = lat.Lattice(U.gram, "U")
    embedded = lat.Lattice(U.gram, "U", lat.Embedding(U, ((1, 0), (0, 1))))
    assert plain == embedded and hash(plain) == hash(embedded)
    assert plain != lat.Lattice(U.gram, "V")
    assert plain != lat.Lattice(U.gram)
    assert lat.Lattice(a2) != lat.Lattice(((2, -1), (-1, 2)))
    assert lat.Lattice._formed(a2, "A2", None) == lat.Lattice(a2, "A2")
    assert len({plain, embedded, lat.Lattice(U.gram, "V")}) == 2


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: es.KodairaType("J"), "unknown Kodaira family"),
        (lambda: es.KodairaType("II", 1), r"only I_n and I_n\* carry an index"),
        (lambda: es.KodairaType("I", -1), "fiber index must be nonnegative"),
        (lambda: es.SurfaceData(0, 10), r"chi\(O\) is at least 1"),
        (lambda: es.SectionIncidence(-1, ()), "intersection with the zero section"),
        (lambda: glue.GlueSpec((1, 0), 1), "glue denominator must be at least 2"),
        (lambda: lat.Lattice(((2, 1), (0, 2))), "Gram matrix must be symmetric"),
        (
            lambda: lat.Lattice(((2, 0), (0, 2)), None, lat.Embedding(U, ((1, 0), (0, 1)))),
            "ambient basis does not induce the stated Gram matrix",
        ),
        (
            lambda: lat.Lattice(((0,),), ambient=lat.Embedding(U, ((1, 0), (0, 1)))),
            "ambient basis has 2 rows for a lattice of rank 1",
        ),
        (
            lambda: lat.Lattice(U.gram, ambient=lat.Embedding(U, ((1, 0), (0, 1)), 0)),
            "ambient basis denominator must be positive",
        ),
    ],
)
def test_validation_errors(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_formed_lattice_skips_validation():
    asymmetric = lat.Lattice._formed(((2, 1), (0, 2)), "bad", None)
    assert asymmetric.gram == ((2, 1), (0, 2)) and asymmetric.name == "bad"
    with pytest.raises(AttributeError):
        asymmetric.name = "good"


def test_exponent_is_cached_on_the_instance():
    form = lat.FiniteQuadraticForm((2, 4), ((1, 0), (0, 1)), (1, 3), ((1, 0), (0, 3)))
    assert "exponent" not in vars(form)
    assert form.exponent == 4
    assert vars(form)["exponent"] == 4
    sentinel = 12
    vars(form)["exponent"] = sentinel
    assert form.exponent is sentinel
