"""Reading and writing lattice files.

A lattice file is a JSON document with fields ``name`` (string), ``gram``
(array of arrays of integers), and optionally ``ambient`` (name of the
ambient lattice) and ``basis`` (array of arrays of integers, rows being the
basis vectors in ambient coordinates).  Integers that do not fit in 64 bits
are serialized as decimal strings; the loader accepts both forms.  The
``ambient`` is a string, and a ``basis`` needs one and has one row per rank.
When ``glue.build_named`` builds the lattice that ``ambient`` names (``V``,
``L2``, ``Lambda(3)``, ``Lp(17)``, ...), the loaded lattice records it as its
ambient, after the ``Lattice`` constructor has checked that the basis
induces the Gram matrix.  Names it rejects are read but not attached.
``dumps`` writes ``ambient`` and ``basis`` only when that name rebuilds the
very frame of the embedding, so a file the CLI writes reads back.

A rows file (the CLI's ``--sub``) is a JSON array of arrays of integers.
Both kinds of file go through one JSON parse; a malformed one raises
``LatticeFileError`` naming the file, with the line and column of a syntax
error, or "nested too deeply" for a document that exhausts the parser's
recursion (``[[[...]]]`` some 100,000 levels down).

A corpus of named lattice files ships in the package ``data`` directory.
"""

from __future__ import annotations

from pathlib import Path

from . import exact, glue
from .lattice import Embedding, Lattice

_I64_MAX = 2**63 - 1


class LatticeFileError(ValueError):
    """Malformed lattice file; carries position information when available."""


def _decode_int(x, path: str) -> int:
    """An entry that is not a plain ``int``: an ASCII decimal string
    -?[0-9]+, or an error naming what it is."""
    if isinstance(x, bool):
        raise LatticeFileError(f"{path}: boolean is not a matrix entry")
    if isinstance(x, str):
        try:
            return exact.parse_int(x)
        except ValueError:
            raise LatticeFileError(f"{path}: bad integer string {x!r}") from None
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


def _parse(text: str, path) -> object:
    import json
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise LatticeFileError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise LatticeFileError(f"{path}: nested too deeply") from e


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise LatticeFileError(f"{path}: {e}") from e


def loads(text: str, path: str = "<string>") -> Lattice:
    doc = _parse(text, path)
    if not isinstance(doc, dict) or "gram" not in doc:
        raise LatticeFileError(f"{path}: document must be an object with a 'gram' field")
    gram = decode_matrix(doc["gram"], path, "gram")
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise LatticeFileError(f"{path}: gram matrix must be square (rank mismatch)")
    # the decoded entries are already ints in tuples, so the constructor's
    # integer and symmetry checks are the only other passes over them
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
    frame = _named_frame(ambient)
    if frame is None:
        return l
    if any(len(row) != frame.rank for row in basis):
        raise LatticeFileError(f"{path}: basis rows must match the rank of {ambient}")
    try:
        return Lattice(gram, name, Embedding(frame, basis))
    except ValueError as e:
        raise LatticeFileError(f"{path}: basis does not induce the gram matrix") from e


def load_lattice(path: str | Path) -> Lattice:
    p = Path(path)
    return loads(_read(p), str(p))


def load_rows(path: str | Path) -> tuple[tuple[int, ...], ...]:
    """The integer matrix of a rows file."""
    return decode_matrix(_parse(_read(path), path), path, "sublattice rows")


def dumps(l: Lattice) -> str:
    """The lattice file of ``l``.  Its ``ambient`` and ``basis`` are written
    only for an integral embedding whose ambient ``glue.build_named``
    rebuilds from its name with the same Gram matrix, so that ``loads``
    attaches the frame that was written and no other."""
    import json
    doc: dict = {
        "name": l.name,
        "gram": [[_encode_int(x) for x in row] for row in l.gram],
    }
    e = l.ambient
    frame = None if e is None or e.denominator != 1 else _named_frame(e.ambient.name)
    if frame is not None and frame.gram == e.ambient.gram:
        doc["ambient"] = e.ambient.name
        doc["basis"] = [[_encode_int(x) for x in row] for row in e.basis]
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _named_frame(name: str | None) -> Lattice | None:
    """The lattice ``glue.build_named`` gives for ``name``, or None for no
    name or one it rejects."""
    try:
        return glue.build_named(name) if name else None
    except glue.GlueError:
        return None


def save_lattice(l: Lattice, path: str | Path) -> None:
    Path(path).write_text(dumps(l))
