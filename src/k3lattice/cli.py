"""Command line interface: claim verification, lattice inspection and the
basic lattice operations on files.

``lattice info`` and ``named`` print one summary of a lattice, whose det
comes from its signature and the invariant factors of L*/L, not from a
determinant: |det G| is their product and the sign of det G is (-1)^neg.

Exit codes: 0 when everything requested passed, 1 when any claim failed,
2 on usage, parse or input errors and on a file that cannot be written,
141 (128 + SIGPIPE) with nothing on stderr when stdout's reader has gone.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from math import prod
from pathlib import Path

from . import claims, exact, glue, lattice as lat, lattice_io, quadform as qf


def _lattice_summary(l: lat.Lattice) -> str:
    """Name, rank, det, parity, signature and discriminant group.  The det
    is read off the signature and the invariant factors, with no form and no
    elimination of its own: |det G| = |L*/L| and det G has the sign
    (-1)^neg; a degenerate lattice has det 0 and no group."""
    sig = l.signature()
    factors = None if sig[1] else lat.invariant_factors(l)
    lines = [
        f"name:       {l.name or '(unnamed)'}",
        f"rank:       {l.rank}",
        f"det:        {0 if factors is None else (-1) ** sig[2] * prod(factors)}",
        f"even:       {l.is_even()}",
        f"signature:  {sig} (pos, zero, neg)",
    ]
    if factors is not None:
        lines.append(f"disc group: {list(factors) or 'trivial'}")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    if args.tag and not args.all:
        args.error("--tag needs --all")
    if args.all:
        results = claims.run_all(args.tag)
        if not results:
            print(f"no claims match tag {args.tag!r}", file=sys.stderr)
            return 2
    else:
        try:
            results = [claims.run_claim(args.id)]
        except KeyError as e:
            print(f"verify: {e.args[0]}", file=sys.stderr)
            return 2
    if args.json != "-":
        print(claims.text_report(results))
    if args.json:
        import json
        report = claims.machine_report(results)
        text = json.dumps(report, indent=1, sort_keys=True) + "\n"
        if args.json == "-":  # in place of the text report
            sys.stdout.write(text)
        else:
            Path(args.json).write_text(text)
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


def _glue_spec(text: str) -> glue.GlueSpec:
    """A ``--glue`` argument v1,...,vn/d."""
    try:
        coords, den = text.rsplit("/", 1)
        return glue.GlueSpec(tuple(map(exact.parse_int, coords.split(","))), exact.parse_int(den))
    except ValueError as e:
        raise lattice_io.LatticeFileError(f"bad glue spec {text!r} (want v1,...,vn/d)") from e


def _cmd_lattice_op(args) -> int:
    if args.op == "adjoin":
        base = lattice_io.load_lattice(args.file)
        specs = [_glue_spec(text) for text in args.glue or []]
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
    # complement and saturation: a lattice built from the ambient and --sub rows
    build = lat.orthogonal_complement if args.op == "complement" else lat.saturation
    ambient = lattice_io.load_lattice(args.file)
    sub = lattice_io.load_rows(args.sub)
    _write_or_print(build(ambient, sub).rename(args.name or args.op), args.out)
    return 0


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
        if args.save:
            args.error("--save needs a lattice name, not --list")
        for name in glue.named_lattice_names():
            print(name)
        return 0
    l = glue.build_named(args.name)
    print(_lattice_summary(l))
    if args.save:
        lattice_io.save_lattice(l, args.save)
        print(f"saved to {args.save}")
    return 0


def _add_verify(sub) -> None:
    v = sub.add_parser("verify", help="run one claim or the whole registry")
    which = v.add_mutually_exclusive_group(required=True)
    which.add_argument("id", nargs="?", help="claim id (see 'list')")
    which.add_argument("--all", action="store_true", help="run every claim")
    v.add_argument("--tag", help="with --all: only claims carrying this tag")
    v.add_argument("--json", metavar="PATH", help="write a machine-readable report ('-': stdout)")
    v.set_defaults(fn=_cmd_verify, error=v.error)


def _add_list(sub) -> None:
    ls = sub.add_parser("list", help="list registered claim ids")
    ls.add_argument("-v", "--verbose", action="store_true")
    ls.set_defaults(fn=_cmd_list)


def _add_lattice(sub) -> None:
    l = sub.add_parser("lattice", help="inspect or transform lattice files")
    lsub = l.add_subparsers(dest="lattice_command", required=True)
    info = lsub.add_parser("info", help="print rank, determinant, signature")
    info.add_argument("file")
    info.set_defaults(fn=_cmd_lattice_info)
    op = lsub.add_parser("op", help="complement | adjoin | disc-form | saturation")
    # each op declares only the options it reads, so argparse rejects the rest
    ops = op.add_subparsers(dest="op", required=True)
    for name in ("complement", "adjoin", "disc-form", "saturation"):
        o = ops.add_parser(name)
        o.add_argument("file", help="lattice file")
        o.set_defaults(fn=_cmd_lattice_op)
        if name in ("complement", "saturation"):
            o.add_argument("--sub", required=True, help="JSON file with basis rows")
        if name == "adjoin":
            o.add_argument(
                "--glue", action="append", metavar="V/D",
                help="glue vector 'v1,...,vn/d' (repeatable)",
            )
            o.add_argument("--odd-ok", action="store_true", help="allow odd overlattices")
        if name != "disc-form":
            o.add_argument("--out", help="write the resulting lattice file here")
            o.add_argument("--name", help="name for the resulting lattice")


def _add_quadform(sub) -> None:
    q = sub.add_parser("quadform", help="rational quadratic form invariants")
    qsub = q.add_subparsers(dest="quadform_command", required=True)
    qi = qsub.add_parser("invariants", help="rank, signature, disc class, Hasse set")
    qi.add_argument("file")
    qi.set_defaults(fn=_cmd_quadform)


def _add_named(sub) -> None:
    n = sub.add_parser("named", help="build one of the named lattices")
    which = n.add_mutually_exclusive_group(required=True)
    which.add_argument("name", nargs="?", help="e.g. L2, N1, Lambda(3), Lp(17)")
    which.add_argument("--list", action="store_true", help="list available names")
    n.add_argument("--save", metavar="PATH", help="write the lattice file")
    n.set_defaults(fn=_cmd_named, error=n.error)


# the commands, in the order of the usage line and of --help
_COMMANDS = {
    "verify": _add_verify,
    "list": _add_list,
    "lattice": _add_lattice,
    "quadform": _add_quadform,
    "named": _add_named,
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for ``command``, built once per process on first use: the
    top level with only that command's subtree, or with every command's when
    ``command`` is None (help, and an argv that names no command).  The
    command argument's choices always name every command, so argparse
    formats the full tree's usage line and errors; only an argv that names
    no command, which gets the full tree, can fail on the choice.  Reusing a
    parser is safe: ``parse_args`` returns a fresh namespace on every call,
    and help and usage errors look up ``sys.stdout`` and ``sys.stderr`` when
    they print."""
    p = argparse.ArgumentParser(
        prog="k3lattice",
        description="Exact verification of lattice, quadratic-form and "
        "elliptic-fibration facts.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, add in _COMMANDS.items():
        if command in (None, name):
            add(sub)
    sub.choices = tuple(_COMMANDS)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        # argparse, and a command through args.error, report usage errors
        # by raising SystemExit
        argv = sys.argv[1:] if argv is None else argv
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        args = build_parser(command).parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    except BrokenPipeError:
        # as after `| head`: exit as if killed by SIGPIPE, flushing to nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError) as e:
        # file and glue errors are ValueErrors; an OSError is a failed write
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
