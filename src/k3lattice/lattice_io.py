"""Reading and writing lattice files.

A lattice file is a JSON document with fields ``name`` (string), ``gram``
(array of arrays of integers), and optionally ``ambient`` (name of the
ambient lattice) and ``basis`` (array of arrays of integers, rows being the
basis vectors in ambient coordinates).  Integers that do not fit in 64 bits
are serialized as decimal strings; the loader accepts both forms.  The
``ambient`` is a string, and a ``basis`` needs one and has one row per rank.
When ``ambient`` names a lattice of ``glue.NAMED_BUILDERS``, that lattice is
rebuilt and the loaded lattice records it as its ambient, after the
``Lattice`` constructor has checked that the basis induces the Gram matrix.
Other ambient names are read but not attached.

A corpus of named lattice files ships in the package ``data`` directory.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import glue
from .lattice import Embedding, Lattice

_I64_MAX = 2**63 - 1


class LatticeFileError(ValueError):
    """Malformed lattice file; carries position information when available."""


def _decode_int(x, path: str) -> int:
    """An entry that is not a plain ``int``: a decimal string, or an error
    naming what it is."""
    if isinstance(x, bool):
        raise LatticeFileError(f"{path}: boolean is not a matrix entry")
    if isinstance(x, str):
        try:
            return int(x, 10)
        except ValueError as e:
            raise LatticeFileError(f"{path}: bad integer string {x!r}") from e
    raise LatticeFileError(f"{path}: matrix entries must be integers, got {type(x).__name__}")


def decode_matrix(rows, path: str, what: str) -> tuple[tuple[int, ...], ...]:
    """A JSON array of arrays of integers (or decimal strings) as an integer
    matrix of tuples, in one pass over the entries; ``what`` names it in the
    LatticeFileError."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise LatticeFileError(f"{path}: {what} must be an array of arrays")
    return tuple(
        [tuple([x if type(x) is int else _decode_int(x, path) for x in row]) for row in rows]
    )


def _encode_int(x: int):
    return x if abs(x) <= _I64_MAX else str(x)


def loads(text: str, path: str = "<string>") -> Lattice:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise LatticeFileError(
            f"{path}: line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(doc, dict) or "gram" not in doc:
        raise LatticeFileError(f"{path}: document must be an object with a 'gram' field")
    gram = decode_matrix(doc["gram"], path, "gram")
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise LatticeFileError(f"{path}: gram matrix must be square (rank mismatch)")
    # the decoded entries are already ints in tuples, so the constructor's
    # symmetry check is the only other pass over them
    name = doc.get("name")
    try:
        l = Lattice(gram, name)
    except ValueError as e:
        raise LatticeFileError(f"{path}: gram matrix is not symmetric") from e
    if name is not None and not isinstance(name, str):
        raise LatticeFileError(f"{path}: 'name' must be a string")
    ambient = doc.get("ambient")
    if ambient is not None and not isinstance(ambient, str):
        raise LatticeFileError(f"{path}: 'ambient' must be a string")
    if "basis" not in doc:
        return l
    if ambient is None:
        raise LatticeFileError(f"{path}: 'basis' needs an 'ambient' field")
    basis = decode_matrix(doc["basis"], path, "basis")
    if len(basis) != n:
        raise LatticeFileError(f"{path}: basis must have one row per rank")
    if ambient not in glue.NAMED_BUILDERS:
        return l
    frame = glue.NAMED_BUILDERS[ambient]()
    if any(len(row) != frame.rank for row in basis):
        raise LatticeFileError(f"{path}: basis rows must match the rank of {ambient}")
    try:
        return Lattice(gram, name, Embedding(frame, basis))
    except ValueError as e:
        raise LatticeFileError(f"{path}: basis does not induce the gram matrix") from e


def load_lattice(path: str | Path) -> Lattice:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise LatticeFileError(f"{p}: {e}") from e
    return loads(text, str(p))


def dumps(l: Lattice) -> str:
    doc: dict = {
        "name": l.name,
        "gram": [[_encode_int(x) for x in row] for row in l.gram],
    }
    if l.ambient is not None:
        name = l.ambient.ambient.name
        if name and l.ambient.denominator == 1:
            doc["ambient"] = name
            doc["basis"] = [[_encode_int(x) for x in row] for row in l.ambient.basis]
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def save_lattice(l: Lattice, path: str | Path) -> None:
    Path(path).write_text(dumps(l))
