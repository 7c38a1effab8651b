"""Checks on the program's outputs that do not trust the code under test.

Each check takes what the worker captured for one operation and returns
None when the output is right, or a one-line reason when it is not.
Determinants come from closed forms, documented values or the benchmark's
own Bareiss elimination; the Smith form is checked through |det| = product
of invariant factors and, when sympy is installed, against sympy; Hasse
invariants through Hilbert reciprocity.
"""

from __future__ import annotations

import ast
import json
import re
from math import isqrt
from pathlib import Path

from inputs import bareiss_det

GOLDEN_REPORT = Path(__file__).resolve().parent / "verify_report.json"

# Claims that fail by design: explicit witnesses contradict their statements.
FAILING_BY_DESIGN = {"L.no-index4", "cubics.CG-membership"}

# (rank, det, even, signature or None) of the fixed names, as documented in
# the package tests.
DOCUMENTED = {
    "L0": (15, 2048, True, None),
    "L2": (16, -192, True, (1, 0, 15)),
    "M16": (15, -128, True, None),
    "N1": (16, -192, True, None),
    "N2": (16, -192, True, None),
    "KummerK": (16, 64, True, (0, 0, 16)),
    "U_E8_E6": (16, -3, True, None),
    "L_sat": (16, -12, True, None),
    "V": (22, -1, True, (3, 0, 19)),
}

_PARAM = re.compile(r"^(\w+)\((\d+)(?:,(\w+))?\)$")


def load_golden() -> tuple[dict, str]:
    """The recorded `k3lattice verify --all --json` report: entries by claim
    id, and its exact text."""
    text = GOLDEN_REPORT.read_text()
    entries = {e["id"]: e for e in json.loads(text)["claims"]}
    failing = {cid for cid, e in entries.items() if e["status"] != "pass"}
    if failing != FAILING_BY_DESIGN:
        raise ValueError(f"recorded report fails {sorted(failing)}")
    return entries, text


def check_claim(entry, golden: dict) -> str | None:
    expected = golden.get(entry["id"])
    if expected is None:
        return f"claim {entry['id']} is not in the recorded report"
    if entry != expected:
        return f"claim {entry['id']}: {entry['status']} {entry['computed']!r}"
    return None


def _fields(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _factors(value: str) -> list[int]:
    return [] if value == "trivial" else [int(x) for x in ast.literal_eval(value)]


def _summary_problems(f: dict, rank: int, det: int) -> str | None:
    """Checks shared by `named` and `lattice info` output."""
    if int(f["rank"]) != rank:
        return f"rank {f['rank']} != {rank}"
    if int(f["det"]) != det:
        return f"det {f['det']} != {det}"
    pos, zero, neg = ast.literal_eval(f["signature"].split(" (")[0])
    if (pos + zero + neg, zero) != (rank, 0) or (-1) ** neg != (1 if det > 0 else -1):
        return f"signature {f['signature']} does not fit det {det}"
    factors = _factors(f["disc group"])
    return _factor_problems(factors, det)


def _factor_problems(factors: list[int], det: int) -> str | None:
    prod = 1
    for d in factors:
        prod *= d
    if prod != abs(det):
        return f"invariant factors {factors} do not multiply to |det| = {abs(det)}"
    if any(d < 2 for d in factors) or any(b % a for a, b in zip(factors, factors[1:])):
        return f"invariant factors {factors} are not a divisor chain"
    return None


def _named_expectation(name: str) -> tuple[int, int, bool, tuple | None]:
    if name in DOCUMENTED:
        return DOCUMENTED[name]
    m = _PARAM.match(name)
    if not m:
        raise ValueError(f"no closed form for {name}")
    head, a, b = m.group(1), int(m.group(2)), m.group(3)
    if head == "L_d":
        return 16, -64 * a, True, (1, 0, 15)
    if head == "Lambda":
        return 6, 4 * a, True, (2, 0, 4)
    if head == "Lp":
        return 5, -48 * a, True, (2, 0, 3)
    if head == "Np":
        return 4, int(b) ** 2 * a**2, False, (2, 0, 2)
    raise ValueError(f"no closed form for {name}")


def check_named(name: str, out: dict) -> str | None:
    if out["code"] != 0:
        return f"exit code {out['code']}: {out['stderr'].strip()}"
    f = _fields(out["stdout"])
    rank, det, even, sig = _named_expectation(name)
    problem = _summary_problems(f, rank, det)
    if problem:
        return problem
    if f["even"] != str(even):
        return f"even {f['even']} != {even}"
    if sig is not None and ast.literal_eval(f["signature"].split(" (")[0]) != sig:
        return f"signature {f['signature']} != {sig}"
    return None


def sympy_invariant_factors(gram) -> list[int] | None:
    """Invariant factors > 1 from sympy, or None when sympy is absent."""
    try:
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import smith_normal_form
    except ImportError:
        return None
    d = smith_normal_form(Matrix(gram), domain=ZZ)
    return sorted(abs(int(d[i, i])) for i in range(len(gram)) if abs(int(d[i, i])) > 1)


def check_gram_info(gram, outs: list[dict]) -> str | None:
    info, disc = outs
    for out in outs:
        if out["code"] != 0:
            return f"exit code {out['code']}: {out['stderr'].strip()}"
    det = bareiss_det(gram)
    f = _fields(info["stdout"])
    problem = _summary_problems(f, len(gram), det)
    if problem:
        return problem
    if f["even"] != "True":
        return "even lattice reported odd"
    d = _fields(disc["stdout"])
    factors = _factors(d["invariant factors"])
    if factors != _factors(f["disc group"]) or int(d["group order"]) != abs(det):
        return f"disc-form {factors} / order {d['group order']} disagrees with info"
    ref = sympy_invariant_factors(gram)
    if ref is not None and sorted(factors) != ref:
        return f"invariant factors {factors} != sympy {ref}"
    return None


def check_gram_quadform(gram, out: dict, exact_signature) -> str | None:
    if out["code"] != 0:
        return f"exit code {out['code']}: {out['stderr'].strip()}"
    f = _fields(out["stdout"])
    det = bareiss_det(gram)
    if int(f["rank"]) != len(gram):
        return f"rank {f['rank']} != {len(gram)}"
    pos, neg = ast.literal_eval(f["signature"])
    if [pos, 0, neg] != list(exact_signature):
        return f"quadform signature {(pos, neg)} != exact.signature {exact_signature}"
    disc = int(f["disc class"])
    if disc * det <= 0 or isqrt(disc * det) ** 2 != disc * det:
        return f"disc class {disc} is not the square class of det {det}"
    minus = f["hasse -1 places"]
    places = [] if minus == "none" else ast.literal_eval(minus)
    if len(places) % 2:
        return f"Hasse -1 set {places} has odd size (Hilbert reciprocity)"
    witt = int(f["witt index (Q)"])
    if not 0 <= witt <= min(pos, neg):
        return f"witt index {witt} exceeds the real bound {min(pos, neg)}"
    return None
