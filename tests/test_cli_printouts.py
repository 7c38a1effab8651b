"""The CLI printouts of every shipped lattice file, pinned byte for byte.

``lattice info`` and ``lattice op disc-form`` turn the integer q and b
numerators of a discriminant form back into printed fractions; these
literals were recorded before the numerators replaced stored ``Fraction``
values, so any change in that round trip shows here.
"""

from pathlib import Path

import pytest

from k3lattice import cli, lattice_io

DATA = Path(lattice_io.__file__).parent / "data"

PRINTOUTS = {
    "KummerK.lattice": (
        "name:       KummerK\n"
        "rank:       16\n"
        "det:        64\n"
        "even:       True\n"
        "signature:  (0, 0, 16) (pos, zero, neg)\n"
        "disc group: [2, 2, 2, 2, 2, 2]\n",
        "invariant factors: [2, 2, 2, 2, 2, 2]\n"
        "group order:       64\n"
        "q(g1) = 0 (mod 2)\n"
        "q(g2) = 0 (mod 2)\n"
        "q(g3) = 0 (mod 2)\n"
        "q(g4) = 0 (mod 2)\n"
        "q(g5) = 1 (mod 2)\n"
        "q(g6) = 0 (mod 2)\n"
        "b(g1, .) = 0  0  0  1/2  1/2  0\n"
        "b(g2, .) = 0  0  1/2  0  1/2  0\n"
        "b(g3, .) = 0  1/2  0  0  1/2  0\n"
        "b(g4, .) = 1/2  0  0  0  1/2  0\n"
        "b(g5, .) = 1/2  1/2  1/2  1/2  0  1/2\n"
        "b(g6, .) = 0  0  0  0  1/2  0\n",
    ),
    "L0.lattice": (
        "name:       L0\n"
        "rank:       15\n"
        "det:        2048\n"
        "even:       True\n"
        "signature:  (1, 0, 14) (pos, zero, neg)\n"
        "disc group: [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]\n",
        "invariant factors: [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]\n"
        "group order:       2048\n"
        "q(g1) = 1 (mod 2)\n"
        "q(g2) = 1 (mod 2)\n"
        "q(g3) = 3/2 (mod 2)\n"
        "q(g4) = 3/2 (mod 2)\n"
        "q(g5) = 3/2 (mod 2)\n"
        "q(g6) = 3/2 (mod 2)\n"
        "q(g7) = 3/2 (mod 2)\n"
        "q(g8) = 3/2 (mod 2)\n"
        "q(g9) = 3/2 (mod 2)\n"
        "q(g10) = 3/2 (mod 2)\n"
        "q(g11) = 3/2 (mod 2)\n"
        "b(g1, .) = 0  1/2  0  0  0  0  0  0  0  0  0\n"
        "b(g2, .) = 1/2  0  0  0  0  0  0  0  0  0  0\n"
        "b(g3, .) = 0  0  1/2  0  0  0  0  0  0  0  0\n"
        "b(g4, .) = 0  0  0  1/2  0  0  0  0  0  0  0\n"
        "b(g5, .) = 0  0  0  0  1/2  0  0  0  0  0  0\n"
        "b(g6, .) = 0  0  0  0  0  1/2  0  0  0  0  0\n"
        "b(g7, .) = 0  0  0  0  0  0  1/2  0  0  0  0\n"
        "b(g8, .) = 0  0  0  0  0  0  0  1/2  0  0  0\n"
        "b(g9, .) = 0  0  0  0  0  0  0  0  1/2  0  0\n"
        "b(g10, .) = 0  0  0  0  0  0  0  0  0  1/2  0\n"
        "b(g11, .) = 0  0  0  0  0  0  0  0  0  0  1/2\n",
    ),
    "L2.lattice": (
        "name:       L2\n"
        "rank:       16\n"
        "det:        -192\n"
        "even:       True\n"
        "signature:  (1, 0, 15) (pos, zero, neg)\n"
        "disc group: [2, 2, 2, 2, 2, 6]\n",
        "invariant factors: [2, 2, 2, 2, 2, 6]\n"
        "group order:       192\n"
        "q(g1) = 1 (mod 2)\n"
        "q(g2) = 1 (mod 2)\n"
        "q(g3) = 1 (mod 2)\n"
        "q(g4) = 1 (mod 2)\n"
        "q(g5) = 1 (mod 2)\n"
        "q(g6) = 1/3 (mod 2)\n"
        "b(g1, .) = 0  1/2  0  0  0  0\n"
        "b(g2, .) = 1/2  0  0  0  0  0\n"
        "b(g3, .) = 0  0  0  0  0  1/2\n"
        "b(g4, .) = 0  0  0  0  1/2  0\n"
        "b(g5, .) = 0  0  0  1/2  0  0\n"
        "b(g6, .) = 0  0  1/2  0  0  1/3\n",
    ),
    "L_sat.lattice": (
        "name:       L_sat\n"
        "rank:       16\n"
        "det:        -12\n"
        "even:       True\n"
        "signature:  (1, 0, 15) (pos, zero, neg)\n"
        "disc group: [2, 6]\n",
        "invariant factors: [2, 6]\n"
        "group order:       12\n"
        "q(g1) = 0 (mod 2)\n"
        "q(g2) = 2/3 (mod 2)\n"
        "b(g1, .) = 0  1/2\n"
        "b(g2, .) = 1/2  2/3\n",
    ),
    "Lambda3.lattice": (
        "name:       Lambda(3)\n"
        "rank:       6\n"
        "det:        12\n"
        "even:       True\n"
        "signature:  (2, 0, 4) (pos, zero, neg)\n"
        "disc group: [2, 6]\n",
        "invariant factors: [2, 6]\n"
        "group order:       12\n"
        "q(g1) = 3/2 (mod 2)\n"
        "q(g2) = 11/6 (mod 2)\n"
        "b(g1, .) = 1/2  0\n"
        "b(g2, .) = 0  5/6\n",
    ),
    "Lp17.lattice": (
        "name:       Lp(17)\n"
        "rank:       5\n"
        "det:        -816\n"
        "even:       True\n"
        "signature:  (2, 0, 3) (pos, zero, neg)\n"
        "disc group: [2, 2, 204]\n",
        "invariant factors: [2, 2, 204]\n"
        "group order:       816\n"
        "q(g1) = 3/2 (mod 2)\n"
        "q(g2) = 3/2 (mod 2)\n"
        "q(g3) = 329/204 (mod 2)\n"
        "b(g1, .) = 1/2  0  0\n"
        "b(g2, .) = 0  1/2  0\n"
        "b(g3, .) = 0  0  125/204\n",
    ),
    "M16.lattice": (
        "name:       M16\n"
        "rank:       15\n"
        "det:        -128\n"
        "even:       True\n"
        "signature:  (0, 0, 15) (pos, zero, neg)\n"
        "disc group: [2, 2, 2, 2, 2, 2, 2]\n",
        "invariant factors: [2, 2, 2, 2, 2, 2, 2]\n"
        "group order:       128\n"
        "q(g1) = 1/2 (mod 2)\n"
        "q(g2) = 1/2 (mod 2)\n"
        "q(g3) = 0 (mod 2)\n"
        "q(g4) = 1/2 (mod 2)\n"
        "q(g5) = 0 (mod 2)\n"
        "q(g6) = 1/2 (mod 2)\n"
        "q(g7) = 0 (mod 2)\n"
        "b(g1, .) = 1/2  1/2  1/2  1/2  1/2  0  0\n"
        "b(g2, .) = 1/2  1/2  1/2  1/2  0  1/2  0\n"
        "b(g3, .) = 1/2  1/2  0  0  0  0  0\n"
        "b(g4, .) = 1/2  1/2  0  1/2  1/2  1/2  0\n"
        "b(g5, .) = 1/2  0  0  1/2  0  0  0\n"
        "b(g6, .) = 0  1/2  0  1/2  0  1/2  1/2\n"
        "b(g7, .) = 0  0  0  0  0  1/2  0\n",
    ),
    "N1.lattice": (
        "name:       N1\n"
        "rank:       16\n"
        "det:        -192\n"
        "even:       True\n"
        "signature:  (1, 0, 15) (pos, zero, neg)\n"
        "disc group: [2, 2, 2, 2, 2, 6]\n",
        "invariant factors: [2, 2, 2, 2, 2, 6]\n"
        "group order:       192\n"
        "q(g1) = 0 (mod 2)\n"
        "q(g2) = 0 (mod 2)\n"
        "q(g3) = 1/2 (mod 2)\n"
        "q(g4) = 3/2 (mod 2)\n"
        "q(g5) = 1/2 (mod 2)\n"
        "q(g6) = 1/6 (mod 2)\n"
        "b(g1, .) = 0  0  0  1/2  1/2  0\n"
        "b(g2, .) = 0  0  0  1/2  0  0\n"
        "b(g3, .) = 0  0  1/2  0  1/2  0\n"
        "b(g4, .) = 1/2  1/2  0  1/2  0  0\n"
        "b(g5, .) = 1/2  0  1/2  0  1/2  1/2\n"
        "b(g6, .) = 0  0  0  0  1/2  1/6\n",
    ),
    "N2.lattice": (
        "name:       N2\n"
        "rank:       16\n"
        "det:        -192\n"
        "even:       True\n"
        "signature:  (1, 0, 15) (pos, zero, neg)\n"
        "disc group: [2, 2, 2, 2, 2, 6]\n",
        "invariant factors: [2, 2, 2, 2, 2, 6]\n"
        "group order:       192\n"
        "q(g1) = 0 (mod 2)\n"
        "q(g2) = 0 (mod 2)\n"
        "q(g3) = 0 (mod 2)\n"
        "q(g4) = 0 (mod 2)\n"
        "q(g5) = 0 (mod 2)\n"
        "q(g6) = 5/3 (mod 2)\n"
        "b(g1, .) = 0  0  0  1/2  1/2  1/2\n"
        "b(g2, .) = 0  0  1/2  0  0  0\n"
        "b(g3, .) = 0  1/2  0  0  1/2  1/2\n"
        "b(g4, .) = 1/2  0  0  0  0  0\n"
        "b(g5, .) = 1/2  0  1/2  0  0  1/2\n"
        "b(g6, .) = 1/2  0  1/2  0  1/2  2/3\n",
    ),
    "T.lattice": (
        "name:       T\n"
        "rank:       4\n"
        "det:        36\n"
        "even:       True\n"
        "signature:  (2, 0, 2) (pos, zero, neg)\n"
        "disc group: [6, 6]\n",
        "invariant factors: [6, 6]\n"
        "group order:       36\n"
        "q(g1) = 1/3 (mod 2)\n"
        "q(g2) = 5/3 (mod 2)\n"
        "b(g1, .) = 1/3  5/6\n"
        "b(g2, .) = 5/6  2/3\n",
    ),
    "U_E8_E6.lattice": (
        "name:       U+E8+E6\n"
        "rank:       16\n"
        "det:        -3\n"
        "even:       True\n"
        "signature:  (1, 0, 15) (pos, zero, neg)\n"
        "disc group: [3]\n",
        "invariant factors: [3]\n"
        "group order:       3\n"
        "q(g1) = 2/3 (mod 2)\n"
        "b(g1, .) = 2/3\n",
    ),
    "V.lattice": (
        "name:       V\n"
        "rank:       22\n"
        "det:        -1\n"
        "even:       True\n"
        "signature:  (3, 0, 19) (pos, zero, neg)\n"
        "disc group: trivial\n",
        "invariant factors: trivial\n"
        "group order:       1\n",
    ),
    "rank18-example.lattice": (
        "name:       rank18-example\n"
        "rank:       4\n"
        "det:        1156\n"
        "even:       True\n"
        "signature:  (2, 0, 2) (pos, zero, neg)\n"
        "disc group: [34, 34]\n",
        "invariant factors: [34, 34]\n"
        "group order:       1156\n"
        "q(g1) = 9/17 (mod 2)\n"
        "q(g2) = 9/17 (mod 2)\n"
        "b(g1, .) = 9/17  19/34\n"
        "b(g2, .) = 19/34  9/17\n",
    ),
}


def test_every_shipped_file_is_pinned():
    assert sorted(p.name for p in DATA.glob("*.lattice")) == sorted(PRINTOUTS)


@pytest.mark.parametrize("name", sorted(PRINTOUTS))
def test_info_and_disc_form_printouts(name, capsys):
    info, disc_form = PRINTOUTS[name]
    assert cli.main(["lattice", "info", str(DATA / name)]) == 0
    assert capsys.readouterr().out == info
    assert cli.main(["lattice", "op", "disc-form", str(DATA / name)]) == 0
    assert capsys.readouterr().out == disc_form


def test_disc_form_of_an_odd_lattice_prints_b(tmp_path, capsys):
    # an odd lattice has no q values, but b is defined on every lattice
    path = tmp_path / "odd.lattice"
    path.write_text('{"name": "odd", "gram": [[1, 0], [0, 3]]}\n')
    assert cli.main(["lattice", "op", "disc-form", str(path)]) == 0
    assert capsys.readouterr().out == (
        "invariant factors: [3]\n"
        "group order:       3\n"
        "b(g1, .) = 1/3\n"
    )
