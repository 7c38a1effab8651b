"""Command line interface: claim verification, lattice inspection and the
basic lattice operations on files.

``lattice info`` and ``named`` print one summary of a lattice, whose det
comes from its signature and discriminant group, not from a determinant:
|det G| is the order of L*/L and the sign of det G is (-1)^neg.

Exit codes: 0 when everything requested passed, 1 when any claim failed,
2 on usage, parse or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import claims, glue, lattice as lat, lattice_io, quadform as qf


def _lattice_summary(l: lat.Lattice) -> str:
    """Name, rank, det, parity, signature and discriminant group.  The det
    is read off the signature and the group, with no elimination of its
    own: |det G| = |L*/L| and det G has the sign (-1)^neg; a degenerate
    lattice has det 0 and no group."""
    sig = l.signature()
    form = None if sig[1] else lat.discriminant_group(l)
    lines = [
        f"name:       {l.name or '(unnamed)'}",
        f"rank:       {l.rank}",
        f"det:        {0 if form is None else (-1) ** sig[2] * form.order}",
        f"even:       {l.is_even()}",
        f"signature:  {sig} (pos, zero, neg)",
    ]
    if form is not None:
        lines.append(f"disc group: {list(form.invariant_factors) or 'trivial'}")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    if args.all:
        results = claims.run_all(args.tag)
        if not results:
            print(f"no claims match tag {args.tag!r}", file=sys.stderr)
            return 2
    else:
        if not args.id:
            print("verify: give a claim id or --all", file=sys.stderr)
            return 2
        try:
            results = [claims.run_claim(args.id)]
        except KeyError as e:
            print(f"verify: {e.args[0]}", file=sys.stderr)
            return 2
    print(claims.text_report(results))
    if args.json:
        report = claims.machine_report(results)
        Path(args.json).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if all(r.status == "pass" for r in results) else 1


def _cmd_list(args) -> int:
    for id in claims.claim_ids():
        c = claims.get_claim(id)
        print(f"{id}  [{', '.join(c.tags)}]")
        if args.verbose:
            print(f"    {c.statement}")
    return 0


def _cmd_lattice_info(args) -> int:
    l = lattice_io.load_lattice(args.file)
    print(_lattice_summary(l))
    return 0


def _write_or_print(l: lat.Lattice, out: str | None) -> None:
    text = lattice_io.dumps(l)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_rows(path: str) -> tuple[tuple[int, ...], ...]:
    try:
        rows = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise lattice_io.LatticeFileError(f"{path}: {e}") from e
    return lattice_io.decode_matrix(rows, path, "sublattice rows")


def _cmd_lattice_op(args) -> int:
    if args.op == "complement":
        ambient = lattice_io.load_lattice(args.file)
        sub = _read_rows(args.sub)
        comp = lat.orthogonal_complement(ambient, sub)
        _write_or_print(comp.rename(args.name or "complement"), args.out)
        return 0
    if args.op == "adjoin":
        base = lattice_io.load_lattice(args.file)
        specs = []
        for text in args.glue or []:
            try:
                coords, den = text.rsplit("/", 1)
                vec = tuple(int(x) for x in coords.split(","))
                specs.append(glue.GlueSpec(vec, int(den)))
            except ValueError as e:
                raise lattice_io.LatticeFileError(
                    f"bad glue spec {text!r} (want v1,...,vn/d)"
                ) from e
        bigger = glue.adjoin(base, specs, require_even=not args.odd_ok)
        _write_or_print(bigger.rename(args.name or "overlattice"), args.out)
        return 0
    if args.op == "disc-form":
        l = lattice_io.load_lattice(args.file)
        form = lat.discriminant_group(l)
        print(f"invariant factors: {list(form.invariant_factors) or 'trivial'}")
        print(f"group order:       {form.order}")
        if form.q_values is not None:
            for i, q in enumerate(form.q_values):
                print(f"q(g{i + 1}) = {q} (mod 2)")
        for i, row in enumerate(form.b_matrix):
            print(f"b(g{i + 1}, .) = {'  '.join(map(str, row))}")
        return 0
    if args.op == "saturation":
        ambient = lattice_io.load_lattice(args.file)
        sub = _read_rows(args.sub)
        _write_or_print(
            lat.saturation(ambient, sub).rename(args.name or "saturation"), args.out
        )
        return 0
    print(f"unknown lattice op {args.op!r}", file=sys.stderr)
    return 2


def _cmd_quadform(args) -> int:
    l = lattice_io.load_lattice(args.file)
    inv, witt = qf.invariants_and_witt_index(l.gram)
    minus = sorted(inv.hasse_minus, key=qf.place_sort_key)
    print(f"rank:            {inv.rank}")
    print(f"signature:       {inv.signature}")
    print(f"disc class:      {inv.disc_class}")
    print(f"hasse -1 places: {minus if minus else 'none'}")
    print(f"witt index (Q):  {witt}")
    return 0


def _cmd_named(args) -> int:
    if args.list:
        for name in glue.named_lattice_names():
            print(name)
        return 0
    if not args.name:
        print("named: give a lattice name or --list", file=sys.stderr)
        return 2
    l = glue.build_named(args.name)
    print(_lattice_summary(l))
    if args.save:
        lattice_io.save_lattice(l, args.save)
        print(f"saved to {args.save}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.  Reusing it is
    safe: ``parse_args`` returns a fresh namespace on every call, and help
    and usage errors look up ``sys.stdout`` and ``sys.stderr`` when they
    print."""
    p = argparse.ArgumentParser(
        prog="k3lattice",
        description="Exact verification of lattice, quadratic-form and "
        "elliptic-fibration facts.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run one claim or the whole registry")
    v.add_argument("id", nargs="?", help="claim id (see 'list')")
    v.add_argument("--all", action="store_true", help="run every claim")
    v.add_argument("--tag", help="with --all: only claims carrying this tag")
    v.add_argument("--json", metavar="PATH", help="write a machine-readable report")
    v.set_defaults(fn=_cmd_verify)

    ls = sub.add_parser("list", help="list registered claim ids")
    ls.add_argument("-v", "--verbose", action="store_true")
    ls.set_defaults(fn=_cmd_list)

    l = sub.add_parser("lattice", help="inspect or transform lattice files")
    lsub = l.add_subparsers(dest="lattice_command", required=True)
    info = lsub.add_parser("info", help="print rank, determinant, signature")
    info.add_argument("file")
    info.set_defaults(fn=_cmd_lattice_info)
    op = lsub.add_parser("op", help="complement | adjoin | disc-form | saturation")
    op.add_argument("op", choices=["complement", "adjoin", "disc-form", "saturation"])
    op.add_argument("file", help="lattice file")
    op.add_argument("--sub", help="JSON file with basis rows (complement, saturation)")
    op.add_argument(
        "--glue",
        action="append",
        metavar="V/D",
        help="glue vector 'v1,...,vn/d' (adjoin; repeatable)",
    )
    op.add_argument("--odd-ok", action="store_true", help="allow odd overlattices")
    op.add_argument("--out", help="write the resulting lattice file here")
    op.add_argument("--name", help="name for the resulting lattice")
    op.set_defaults(fn=_cmd_lattice_op)

    q = sub.add_parser("quadform", help="rational quadratic form invariants")
    qsub = q.add_subparsers(dest="quadform_command", required=True)
    qi = qsub.add_parser("invariants", help="rank, signature, disc class, Hasse set")
    qi.add_argument("file")
    qi.set_defaults(fn=_cmd_quadform)

    n = sub.add_parser("named", help="build one of the named lattices")
    n.add_argument("name", nargs="?", help="e.g. L2, N1, Lambda(3), Lp(17)")
    n.add_argument("--save", metavar="PATH", help="write the lattice file")
    n.add_argument("--list", action="store_true", help="list available names")
    n.set_defaults(fn=_cmd_named)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (lattice_io.LatticeFileError, glue.GlueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
