"""Tests for the claim registry, the lattice file format and the CLI."""

import io
import json
import os
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import k3lattice.lattice as lat
from k3lattice import claims, cli, exact, glue, k3embed as ke, lattice_io
from test_exact import any_symmetric


# ---------------------------------------------------------------------------
# registry mechanics


EXPECTED_IDS = {
    "L2.even", "L2.sig", "L2.disc", "L2.mw",
    "N1N2.disc", "N1N2.distinct",
    "M16.disc",
    "kummer.disc", "kummer.complement-genus",
    "e8.complements.a5a1", "e8.complements.a2a1c",
    "m3.hasse.finite",
    "counterexample.hasse.2", "counterexample.hasse.7",
    "T.det", "T.aniso2", "T.aniso3", "T.glue-isom",
    "rank17.disc96", "rank17.trans", "rank17.no-q2-lines",
    "Lp.hasse-p", "Lp.no-lines", "Lp.embeds",
    "rank18ex.det1156", "rank18ex.diag", "rank18ex.not-solvable-17",
    "Np.aniso-p.5", "Np.aniso-p.13",
    "mh.equiv-lambda.n=1", "mh.equiv-lambda.n=2", "mh.equiv-lambda.n=3",
    "mh.equiv-lambda.n=6",
    "table1.det.n1", "table1.det.n2", "table1.det.n3", "table1.det.n4",
    "euler.wtilde", "euler.k3-quotient", "euler.lambdanu",
    "st.l2-rank1", "st.otherfib-rank0", "st.rational-rank1",
    "height.l2-3/2", "height.torsion-0", "height.rational-1/2-via-disc",
    "mwdisc.rational", "mwdisc.l2", "mwdisc.L",
    "otherfib.disc768",
    "L.disc12", "L.overlattice-unique", "L.no-index4",
    "nosec.F-even", "nosec.F-notdiv", "nosec.F-isotropic",
    "cubics.CG-membership",
    "n1works.isotropic-class",
    "n2works.chain-48-12-3",
    "sqrel.x-norm-24", "sqrel.8dminus5", "sqrel.discform-p2",
}

# claims whose source assertions are contradicted by explicit witnesses; see
# the decisions log
KNOWN_FAILING = {"L.no-index4", "cubics.CG-membership"}


def test_registry_is_complete():
    assert set(claims.claim_ids()) == EXPECTED_IDS


def test_claim_statements_nonempty_and_unique():
    seen = set()
    for id in claims.claim_ids():
        c = claims.get_claim(id)
        assert c.statement.strip()
        assert c.statement not in seen
        seen.add(c.statement)
        assert c.tags


def test_run_claim_examples():
    assert claims.run_claim("L2.disc").status == "pass"
    assert claims.run_claim("m3.hasse.finite").status == "pass"
    assert claims.run_claim("table1.det.n3").status == "pass"


def test_unknown_claim_raises():
    with pytest.raises(KeyError):
        claims.run_claim("no.such.claim")


def test_run_all_statuses():
    results = claims.run_all()
    assert len(results) == len(EXPECTED_IDS)
    failing = {r.id for r in results if r.status != "pass"}
    assert failing == KNOWN_FAILING
    # a pass means computed == expected, except where the expected value is
    # the text ">=1"
    for r in results:
        if r.id != "L.overlattice-unique":
            assert (r.status == "pass") == (r.computed == r.expected), r.id


@pytest.mark.parametrize("id", [
    "mwdisc.rational", "mwdisc.l2", "mwdisc.L", "e8.complements.a5a1", "e8.complements.a2a1c",
])
def test_a_claim_fails_when_computed_differs_from_expected(id, monkeypatch):
    # sides that agree with each other but not with the recorded ones, and a
    # complement of the wrong det that the isometry test calls isomorphic
    monkeypatch.setattr(claims.es, "mw_disc_sides", lambda *args: (Fraction(96), Fraction(96)))
    monkeypatch.setattr(claims.ke, "transcendental_of", lambda e: lat.Lattice(claims._diag([-2, -4])))
    monkeypatch.setattr(claims.ke, "definite_isomorphic", lambda l1, l2: True)
    r = claims.run_claim(id)
    assert r.status == "fail" and r.computed != r.expected


def test_failure_carries_both_sides():
    r = claims.run_claim("L.no-index4")
    assert r.status == "fail"
    assert r.computed is not None and r.expected is not None
    assert r.computed != r.expected


# a cold run of every claim, with each discriminant form it builds recorded
_FORM_BUILDS = r"""
import json
from functools import cached_property
from k3lattice import claims, lattice as lat

built = []
form = lat.Lattice.__dict__["_discriminant_form"].func


def counted(l):
    built.append(l.gram)
    return form(l)


lat.Lattice._discriminant_form = cached_property(counted)
lat.Lattice._discriminant_form.__set_name__(lat.Lattice, "_discriminant_form")
claims.run_all()
base = lat.direct_sum(
    lat.hyperbolic(), lat.root_lattice("D", 8), lat.root_lattice("A", 5), lat.root_lattice("A", 1)
)
print(json.dumps({"builds": len(built), "base": built.count(base.gram)}))
"""


def test_a_cold_run_builds_the_form_of_u_d8_a5_a1_once():
    # L.disc12 and L.no-index4 read one base, the one L_sat was glued to
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _FORM_BUILDS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts["base"] == 1, counts


def test_machine_report_is_deterministic():
    a = json.dumps(claims.machine_report(claims.run_all("quadform")), sort_keys=True)
    b = json.dumps(claims.machine_report(claims.run_all("quadform")), sort_keys=True)
    assert a == b


def test_report_matches_the_committed_report():
    # the --json report of verify --all is pinned byte for byte
    committed = Path(__file__).resolve().parents[1] / "perfbench" / "verify_report.json"
    report = json.dumps(claims.machine_report(claims.run_all()), indent=1, sort_keys=True)
    assert report + "\n" == committed.read_text()


def test_optimized_cli_report_matches_the_committed_report():
    # python -O strips assert statements; a fresh optimized process prints
    # the committed report byte for byte and exits 1 for the two claims
    # that fail by design
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "k3lattice", "verify", "--all", "--json", "-"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == (root / "perfbench" / "verify_report.json").read_text()


def test_shared_claim_inputs_have_the_grams_they_stand_for():
    # rank17.disc96 reads the det of the embedded U+E8+A2+A1^5, and
    # T.glue-isom takes <-2>^2+U+U as Lambda(1)
    a1, u = lat.root_lattice("A", 1), lat.hyperbolic()
    pic = lat.direct_sum(u, lat.root_lattice("E", 8), lat.root_lattice("A", 2), *[a1] * 5)
    assert claims._rank17_embedding().gram == pic.gram
    m = lat.direct_sum(lat.rank_one(-2), lat.rank_one(-2), u, u)
    assert claims._named("Lambda(1)").gram == m.gram


def test_tag_filter():
    results = claims.run_all("mwdisc")
    assert {r.id for r in results} == {"mwdisc.rational", "mwdisc.l2", "mwdisc.L"}


# ---------------------------------------------------------------------------
# lattice files


def test_save_load_round_trip_on_named_set(tmp_path):
    names = ["L0", "L2", "M16", "N1", "N2", "KummerK", "U_E8_E6", "L_sat", "V",
             "Lambda(3)", "Lp(17)", "Np(5,2)", "L_d(7,subgroup)"]
    for name in names:
        l = glue.build_named(name)
        path = tmp_path / "x.lattice"
        lattice_io.save_lattice(l, path)
        back = lattice_io.load_lattice(path)
        assert back.gram == l.gram
        assert back.name == l.name


def test_load_shipped_t():
    # the shipped corpus file of T, read through the ordinary loader
    t = lattice_io.load_lattice(Path(lattice_io.__file__).parent / "data" / "T.lattice")
    assert t.det() == 36
    assert t.name == "T"


def test_malformed_file_errors(tmp_path):
    cases = {
        "not-json.lattice": "{oops",
        "non-symmetric.lattice": '{"name": "x", "gram": [[0, 1], [2, 0]]}',
        "ragged.lattice": '{"name": "x", "gram": [[0, 1], [2]]}',
        "no-gram.lattice": '{"name": "x"}',
        "bad-entry.lattice": '{"gram": [["a"]]}',
    }
    for fname, text in cases.items():
        p = tmp_path / fname
        p.write_text(text)
        with pytest.raises(lattice_io.LatticeFileError):
            lattice_io.load_lattice(p)


def test_malformed_file_messages(tmp_path):
    # the one-pass loader keeps every check and every message word for word
    cases = {
        '{"name": "x", "gram": [[true]]}': "boolean is not a matrix entry",
        '{"name": "x", "gram": [[0, "1x"], ["1x", 0]]}': "bad integer string '1x'",
        '{"name": "x", "gram": [["1_0"]]}': "bad integer string '1_0'",
        '{"name": "x", "gram": [[" 12 "]]}': "bad integer string ' 12 '",
        '{"name": "x", "gram": [["+4"]]}': "bad integer string '+4'",
        # ARABIC-INDIC DIGIT THREE, which int() reads as 3
        '{"name": "x", "gram": [["\\u0663"]]}': "bad integer string '\u0663'",
        '{"name": "x", "gram": [[1.0]]}': "matrix entries must be integers, got float",
        '{"name": "x", "gram": [[0, null], [null, 0]]}':
            "matrix entries must be integers, got NoneType",
        '{"name": "x", "gram": [[0, 1], [2]]}': "gram matrix must be square (rank mismatch)",
        '{"name": "x", "gram": [[0, 1], [1, 0], [0, 0]]}':
            "gram matrix must be square (rank mismatch)",
        '{"name": "x", "gram": [[0, 1], [2, 0]]}': "gram matrix is not symmetric",
        '{"name": "x", "gram": [[0, "1"], [2, 0]]}': "gram matrix is not symmetric",
        '{"name": 3, "gram": [[0, 1], [1, 0]]}': "'name' must be a string",
        '{"name": 3, "gram": [[0, 1], [2, 0]]}': "gram matrix is not symmetric",
        '{"name": "x", "gram": [0, 1]}': "gram must be an array of arrays",
        '{"name": "x"}': "document must be an object with a 'gram' field",
        # json.loads ran out of stack with a RecursionError
        '{"gram": ' + "[" * 100_000 + "]" * 100_000 + "}": "nested too deeply",
    }
    path = tmp_path / "bad.lattice"
    for text, message in cases.items():
        with pytest.raises(lattice_io.LatticeFileError) as err:
            lattice_io.loads(text, "f.lattice")
        assert str(err.value) == f"f.lattice: {message}", text
        path.write_text(text)
        with pytest.raises(lattice_io.LatticeFileError) as err:
            lattice_io.load_lattice(path)
        assert str(err.value) == f"{path}: {message}", text


def _assert_loads_as_lattice(text: str) -> None:
    doc = json.loads(text)
    got = lattice_io.loads(text)
    want = lat.Lattice([[int(x) for x in row] for row in doc["gram"]], doc.get("name"))
    assert isinstance(got, lat.Lattice) and got == want
    assert type(got.gram) is tuple
    assert all(type(row) is tuple and all(type(x) is int for x in row) for row in got.gram)


def test_loads_equals_the_lattice_constructor():
    data = sorted((Path(lattice_io.__file__).parent / "data").glob("*.lattice"))
    assert len(data) >= 13
    for path in data:
        _assert_loads_as_lattice(path.read_text())
    big = 3**50
    _assert_loads_as_lattice(json.dumps({
        "name": "big",
        "gram": [[str(2 * big), -1, 0], [-1, 2, str(-big)], [0, str(-big), "-4"]],
    }))


def test_saved_embedding_reloads_with_its_ambient():
    emb = ke.embed_standard("U+E8+A5+A1 in V")
    back = lattice_io.loads(lattice_io.dumps(emb))
    assert back == emb
    assert back.ambient.ambient.name == "V"
    assert back.ambient.basis == emb.ambient.basis
    got, want = ke.transcendental_of(back), ke.transcendental_of(emb)
    assert got == want and got.ambient.basis == want.ambient.basis
    # an ambient that is not a named builder is read but not attached
    e8 = lattice_io.loads(lattice_io.dumps(ke.embed_standard("A5+A1 in E8")))
    assert e8.ambient is None


def test_saved_embedding_in_a_parameterized_ambient_reloads_with_it():
    # the primitive copy of Lp(17) in Lambda(3) that claim Lp.embeds checks
    rows = [[1 if j == i else 0 for j in range(6)] for i in range(4)]
    rows.append([0, 0, 0, 0, 1, 34])
    emb = lat.sublattice(glue.build_named("Lambda(3)"), rows)
    back = lattice_io.loads(lattice_io.dumps(emb))
    assert back == emb and back.gram == glue.build_named("Lp(17)").gram
    assert back.ambient.ambient == emb.ambient.ambient
    assert back.ambient.ambient.name == "Lambda(3)"
    assert back.ambient.basis == emb.ambient.basis
    assert lat.is_primitive(back)
    got, want = ke.transcendental_of(back), ke.transcendental_of(emb)
    assert got == want and got.ambient.basis == want.ambient.basis
    # a parameter build_named cannot read leaves the ambient unattached
    for name in ("Lambda(x)", "Lambda(0)"):
        text = lattice_io.dumps(emb).replace('"Lambda(3)"', f'"{name}"')
        assert lattice_io.loads(text).ambient is None, name


def test_malformed_embedding_messages():
    gram = [[0, 1], [1, 0]]
    v_rows = [[1, 0] + [0] * 20, [0, 1] + [0] * 20]
    cases = {
        json.dumps({"gram": gram, "basis": v_rows}): "'basis' needs an 'ambient' field",
        json.dumps({"gram": gram, "ambient": 3, "basis": v_rows}):
            "'ambient' must be a string",
        json.dumps({"gram": gram, "ambient": ["V"]}): "'ambient' must be a string",
        json.dumps({"gram": gram, "ambient": "V", "basis": [[1, 0]]}):
            "basis must have one row per rank",
        json.dumps({"gram": gram, "ambient": "E8", "basis": [0, 1]}):
            "basis must be an array of arrays",
        json.dumps({"gram": gram, "ambient": "V", "basis": [[True, 0], [0, 1]]}):
            "boolean is not a matrix entry",
        json.dumps({"gram": gram, "ambient": "V", "basis": [[1, 0], [0, 1]]}):
            "basis rows must match the rank of V",
        json.dumps({"gram": [[0, 2], [2, 0]], "ambient": "V", "basis": v_rows}):
            "basis does not induce the gram matrix",
    }
    for text, message in cases.items():
        with pytest.raises(lattice_io.LatticeFileError) as err:
            lattice_io.loads(text, "f.lattice")
        assert str(err.value) == f"f.lattice: {message}", text


def test_json_position_in_parse_error(tmp_path):
    p = tmp_path / "broken.lattice"
    p.write_text('{"gram": [[0, 1],\n [1, oops]]}')
    with pytest.raises(lattice_io.LatticeFileError) as err:
        lattice_io.load_lattice(p)
    assert "line 2" in str(err.value)


def test_big_integers_as_strings(tmp_path):
    big = 10**30
    l = lat.Lattice([[2 * big]], "big")
    path = tmp_path / "big.lattice"
    lattice_io.save_lattice(l, path)
    raw = json.loads(path.read_text())
    assert raw["gram"][0][0] == str(2 * big)
    assert lattice_io.load_lattice(path).gram == ((2 * big,),)


# ---------------------------------------------------------------------------
# CLI


def test_cli_verify_single(capsys):
    assert cli.main(["verify", "L2.disc"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "L2.disc" in out


def test_cli_verify_unknown_claim(capsys):
    assert cli.main(["verify", "nope"]) == 2


def test_cli_verify_all_tag_and_json(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = cli.main(["verify", "--all", "--tag", "mwdisc", "--json", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["total"] == 3 and doc["failed"] == 0
    # byte-identical on a second run
    report2 = tmp_path / "report2.json"
    cli.main(["verify", "--all", "--tag", "mwdisc", "--json", str(report2)])
    assert report.read_bytes() == report2.read_bytes()


def test_cli_verify_json_dash_prints_the_report(tmp_path, monkeypatch, capsys):
    # "-" is stdout: the JSON report replaces the text report, the exit code
    # is unchanged and no file named "-" is written
    monkeypatch.chdir(tmp_path)
    report = tmp_path / "report.json"
    assert cli.main(["verify", "--all", "--tag", "mwdisc", "--json", str(report)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--all", "--tag", "mwdisc", "--json", "-"]) == 0
    assert capsys.readouterr().out == report.read_text()
    assert cli.main(["verify", "L.no-index4", "--json", "-"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["total"] == 1 and doc["failed"] == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


def test_cli_verify_exit_code_on_failure(capsys):
    assert cli.main(["verify", "L.no-index4"]) == 1


def test_cli_named_and_info(tmp_path, capsys):
    out_file = tmp_path / "lam3.lattice"
    assert cli.main(["named", "Lambda(3)", "--save", str(out_file)]) == 0
    capsys.readouterr()
    assert cli.main(["lattice", "info", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "rank:       6" in out and "det:        12" in out


def test_cli_unwritable_output_exits_2(tmp_path, capsys):
    # a write into a directory that does not exist is an input error, not a
    # failed claim (exit 1) or a traceback
    base = tmp_path / "d4.lattice"
    lattice_io.save_lattice(lat.root_lattice("D", 4).rename("D4"), base)
    missing = tmp_path / "missing"
    for argv in (
        ["verify", "T.det", "--json", str(missing / "report.json")],
        ["lattice", "op", "adjoin", str(base), "--out", str(missing / "out.lattice")],
        ["named", "Lambda(3)", "--save", str(missing / "lam3.lattice")],
    ):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err, argv
    assert not missing.exists()


def test_cli_sub_rows_are_required(tmp_path, capsys):
    base = tmp_path / "d4.lattice"
    lattice_io.save_lattice(lat.root_lattice("D", 4).rename("D4"), base)
    for op in ("complement", "saturation"):
        assert cli.main(["lattice", "op", op, str(base)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: k3lattice lattice op {op}") and "--sub" in err


# each of these once exited 0, dropping the option it did not read: an op
# wrote no --out file, ignored another op's options, verify ran one claim
# under --tag or --all, and named --list saved nothing
REFUSED = [
    ["lattice", "op", "disc-form", "{base}", "--out", "{out}"],
    ["lattice", "op", "disc-form", "{base}", "--name", "x"],
    ["lattice", "op", "disc-form", "{base}", "--sub", "{rows}"],
    ["lattice", "op", "disc-form", "{base}", "--glue", "1,0,0,0/2"],
    ["lattice", "op", "disc-form", "{base}", "--odd-ok"],
    ["lattice", "op", "complement", "{base}", "--sub", "{rows}", "--glue", "1,0,0,0/2"],
    ["lattice", "op", "complement", "{base}", "--sub", "{rows}", "--odd-ok"],
    ["lattice", "op", "saturation", "{base}", "--sub", "{rows}", "--glue", "1,0,0,0/2"],
    ["lattice", "op", "saturation", "{base}", "--sub", "{rows}", "--odd-ok"],
    ["lattice", "op", "adjoin", "{base}", "--sub", "{rows}", "--out", "{out}"],
    ["verify", "T.det", "--tag", "quadform"],
    ["verify", "T.det", "--all"],
    ["named", "L2", "--list"],
    ["named", "--list", "--save", "{out}"],
    ["named", "L2", "--list", "--save", "{out}"],
]


@pytest.mark.parametrize("argv", REFUSED, ids=[" ".join(a[2:] if a[0] == "lattice" else a) for a in REFUSED])
def test_cli_refuses_options_a_command_does_not_read(argv, tmp_path, capsys):
    base = tmp_path / "d4.lattice"
    lattice_io.save_lattice(lat.root_lattice("D", 4).rename("D4"), base)
    rows = tmp_path / "rows.json"
    rows.write_text("[[1, 0, 0, 0]]")
    out = tmp_path / "out.lattice"
    argv = [a.format(base=base, rows=rows, out=out) for a in argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: k3lattice") and captured.out == ""
    assert not out.exists()


def _summary_field(summary: str, key: str) -> str:
    line = next(x for x in summary.splitlines() if x.startswith(key + ":"))
    return line.split(":", 1)[1].strip()


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.just([]), any_symmetric(1, 8)))
def test_summary_det_and_signature_match_exact(m):
    # the summary reads det off the signature and the discriminant group;
    # odd, zero-diagonal and degenerate Grams of rank 0 to 8
    summary = cli._lattice_summary(lat.Lattice(m))
    assert _summary_field(summary, "det") == str(exact.det(m))
    assert _summary_field(summary, "signature") == f"{exact.signature(m)} (pos, zero, neg)"
    assert ("disc group:" in summary) == (exact.det(m) != 0)


def test_summaries_take_no_determinant(tmp_path, capsys, monkeypatch):
    files = {
        "lam3": glue.build_named("Lambda(3)"),
        "odd": lat.Lattice([[1, 2, 0], [2, -3, 1], [0, 1, 5]]),
        "degenerate": lat.Lattice([[2, 2], [2, 2]]),
    }
    names = ["L2", "N1", "M16", "V", "Lambda(3)", "Lp(17)", "Np(5,2)"]
    want = {key: l.det() for key, l in files.items()}
    want.update((name, glue.build_named(name).det()) for name in names)
    for key, l in files.items():
        lattice_io.save_lattice(l, tmp_path / f"{key}.lattice")

    def no_det(m):
        raise AssertionError("the summary took a determinant")

    monkeypatch.setattr(exact, "det", no_det)
    monkeypatch.setattr(lat, "_det_cached", no_det)
    for key in files:
        assert cli.main(["lattice", "info", str(tmp_path / f"{key}.lattice")]) == 0
        assert _summary_field(capsys.readouterr().out, "det") == str(want[key])
    for name in names:
        assert cli.main(["named", name]) == 0
        assert _summary_field(capsys.readouterr().out, "det") == str(want[name])


def test_cli_named_unknown(capsys):
    assert cli.main(["named", "Zorp(3)"]) == 2


def test_cli_lattice_ops(tmp_path, capsys):
    uu = lat.direct_sum(lat.hyperbolic(), lat.hyperbolic()).rename("UU")
    base = tmp_path / "uu.lattice"
    lattice_io.save_lattice(uu, base)
    sub = tmp_path / "sub.json"
    sub.write_text("[[1, 0, 0, 0], [0, 1, 0, 0]]")
    out = tmp_path / "comp.lattice"
    assert cli.main(
        ["lattice", "op", "complement", str(base), "--sub", str(sub), "--out", str(out)]
    ) == 0
    comp = lattice_io.load_lattice(out)
    assert comp.gram == ((0, 1), (1, 0))
    # non-integer rows are parse errors, never truncated to other vectors
    for bad, message in (
        ("[[1.7, 0, 0, 0]]", "matrix entries must be integers, got float"),
        ("[[true, 0, 0, 0]]", "boolean is not a matrix entry"),
    ):
        sub.write_text(bad)
        capsys.readouterr()
        assert cli.main(["lattice", "op", "complement", str(base), "--sub", str(sub)]) == 2
        assert message in capsys.readouterr().err
    # rows of the wrong width are rejected, never truncated by zip
    sub.write_text("[[1, 0, 0, 0], [0, 1]]")
    for op in ("complement", "saturation"):
        capsys.readouterr()
        assert cli.main(["lattice", "op", op, str(base), "--sub", str(sub)]) == 2
        assert "sublattice rows do not match the ambient rank" in capsys.readouterr().err

    # an input whose name build_named does not rebuild (UU, or Lambda(3)
    # over the matrix of U + U) is no frame for the output file: it is
    # written without one and reads back
    for name in ("UU", "Lambda(3)"):
        lattice_io.save_lattice(uu.rename(name), base)
        sub.write_text("[[1, 0, 0, 0], [0, 1, 0, 0]]")
        for op in ("complement", "saturation"):
            assert cli.main(
                ["lattice", "op", op, str(base), "--sub", str(sub), "--out", str(out)]
            ) == 0
            assert "ambient" not in json.loads(out.read_text()), (name, op)
            capsys.readouterr()
            assert cli.main(["lattice", "info", str(out)]) == 0, (name, op)
            assert "rank:       2" in capsys.readouterr().out
    # an embedding into a lattice that build_named rebuilds keeps its frame
    lam3 = glue.build_named("Lambda(3)")
    lattice_io.save_lattice(lam3, base)
    sub.write_text("[[1, 0, 0, 0, 0, 0]]")
    assert cli.main(
        ["lattice", "op", "complement", str(base), "--sub", str(sub), "--out", str(out)]
    ) == 0
    back = lattice_io.load_lattice(out)
    assert back.ambient.ambient == lam3 and json.loads(out.read_text())["ambient"] == "Lambda(3)"

    d4 =tmp_path / "d4.lattice"
    lattice_io.save_lattice(lat.root_lattice("D", 4).rename("D4"), d4)
    capsys.readouterr()
    assert cli.main(["lattice", "op", "disc-form", str(d4)]) == 0
    assert "invariant factors: [2, 2]" in capsys.readouterr().out


@pytest.mark.parametrize("op", ["complement", "saturation"])
def test_cli_op_names_its_output(op, tmp_path, capsys):
    # the written lattice is named after the op unless --name names it
    base = tmp_path / "lam3.lattice"
    lattice_io.save_lattice(glue.build_named("Lambda(3)"), base)
    sub = tmp_path / "sub.json"
    sub.write_text("[[1, 0, 0, 0, 0, 0]]")
    for extra, name in (([], op), (["--name", "T'"], "T'")):
        assert cli.main(["lattice", "op", op, str(base), "--sub", str(sub), *extra]) == 0
        assert json.loads(capsys.readouterr().out)["name"] == name


def test_cli_adjoin(tmp_path, capsys):
    a1s = lat.direct_sum(*[lat.root_lattice("A", 1)] * 4).rename("A1^4")
    base = tmp_path / "a14.lattice"
    lattice_io.save_lattice(a1s, base)
    out = tmp_path / "glued.lattice"
    code = cli.main(
        ["lattice", "op", "adjoin", str(base), "--glue", "1,1,1,1/2", "--out", str(out)]
    )
    assert code == 0
    glued = lattice_io.load_lattice(out)
    assert glued.det() == 4  # 16 / 2^2
    # odd glue rejected with exit code 2
    assert cli.main(["lattice", "op", "adjoin", str(base), "--glue", "1,1,0,0/2"]) == 2
    # a glue entry is ASCII -?[0-9]+, as in a lattice file
    for spec in ("+1,1,1,1/2", "1,1,1,1/+2"):
        capsys.readouterr()
        assert cli.main(["lattice", "op", "adjoin", str(base), "--glue", spec]) == 2
        assert "bad glue spec" in capsys.readouterr().err


def test_cli_quadform(tmp_path, capsys):
    lam3 = tmp_path / "lam3.lattice"
    lattice_io.save_lattice(glue.build_named("Lambda(3)"), lam3)
    assert cli.main(["quadform", "invariants", str(lam3)]) == 0
    out = capsys.readouterr().out
    assert "rank:            6" in out
    assert "disc class:      3" in out
    assert "hasse -1 places: none" in out


def test_cli_info_on_unstructured_rank8_finishes(tmp_path, capsys):
    # entries up to 10 made the Smith form's coefficients explode (no result in 30 s)
    path = tmp_path / "rank8.lattice"
    path.write_text(json.dumps({"gram": [
        [-2, -2, -3, 6, -4, 5, 6, -3], [-2, -10, 3, -2, 2, 1, -1, 5],
        [-3, 3, 2, -2, 3, -5, -5, 2], [6, -2, -2, 0, -4, 6, -1, -4],
        [-4, 2, 3, -4, 2, 0, -6, 4], [5, 1, -5, 6, 0, -10, 6, 2],
        [6, -1, -5, -1, -6, 6, 6, 6], [-3, 5, 2, -4, 4, 2, 6, -2],
    ]}))

    def timeout(signum, frame):
        raise TimeoutError("lattice info took more than 5 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        code = cli.main(["lattice", "info", str(path)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    out = capsys.readouterr().out
    assert code == 0
    assert "det:        -526992" in out
    assert "signature:  (3, 0, 5)" in out
    assert "disc group: [2, 263496]" in out


def test_cli_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.lattice"
    bad.write_text("{nope")
    assert cli.main(["lattice", "info", str(bad)]) == 2
    # a file nested too deeply for json is an input error, not a traceback
    # with the exit code of a failed claim
    deep = tmp_path / "deep.lattice"
    deep.write_text('{"gram": ' + "[" * 100_000 + "]" * 100_000 + "}")
    rows = tmp_path / "rows.json"
    rows.write_text("[" * 100_000 + "]" * 100_000)
    uu = tmp_path / "uu.lattice"
    lattice_io.save_lattice(lat.direct_sum(lat.hyperbolic(), lat.hyperbolic()), uu)
    capsys.readouterr()
    for argv, path in (
        (["lattice", "info", str(deep)], deep),
        (["lattice", "op", "disc-form", str(deep)], deep),
        (["quadform", "invariants", str(deep)], deep),
        (["lattice", "op", "complement", str(uu), "--sub", str(rows)], rows),
    ):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == f"error: {path}: nested too deeply\n", argv


def test_cli_entry_point_subprocess():
    # the child imports k3lattice from this checkout's src, as pytest does
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "k3lattice.cli", "verify", "T.det"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_cli_closed_stdout_pipe_exits_141_quietly():
    # the read end is closed before the child starts, so its first write to
    # stdout, at the latest the flush before main returns, meets no reader
    src = str(Path(cli.__file__).resolve().parents[1])
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "k3lattice", "list"],
            stdout=w,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        os.close(w)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_cli_builds_one_parser_per_process():
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser("named") is cli.build_parser("named")


PARITY_ARGV = [
    ["--help"], ["-h"], [], ["nope"], ["--bogus"],
    *([command, "--help"] for command in ("verify", "list", "lattice", "quadform", "named")),
    ["lattice", "op", "adjoin", "--help"], ["lattice", "info"], ["lattice", "op", "flip", "x"],
    ["verify"], ["named"], ["named", "X", "--bogus"], ["named", "N1", "--list"],
    ["named", "N1", "extra"], ["named", "N1"], ["list", "-v", "--bogus"],
]


def test_cli_prints_what_the_full_parser_prints(monkeypatch, capsys):
    # main builds only the subtree of the command argv names; help, usage
    # and error texts, exit codes and output are those of the full tree
    def run(argv):
        code = cli.main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err

    ours = [run(argv) for argv in PARITY_ARGV]
    full = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full)
    assert [run(argv) for argv in PARITY_ARGV] == ours
    assert {code for code, _, _ in ours} == {0, 2}


def test_cli_usage_error_leaves_the_parser_usable(tmp_path, capsys):
    path = tmp_path / "d4.lattice"
    lattice_io.save_lattice(lat.root_lattice("D", 4).rename("D4"), path)
    assert cli.main(["lattice", "info", str(path)]) == 0
    first = capsys.readouterr().out
    for bad in (["lattice", "info"], ["lattice", "op", "flip", str(path)], ["nope"]):
        assert cli.main(bad) == 2
        assert "usage: k3lattice" in capsys.readouterr().err
        assert cli.main(["lattice", "info", str(path)]) == 0
        assert capsys.readouterr().out == first


def test_cli_adjoin_glue_lists_are_not_shared(tmp_path, capsys):
    a18 = lat.direct_sum(*[lat.root_lattice("A", 1)] * 8).rename("A1^8")
    base = tmp_path / "a18.lattice"
    lattice_io.save_lattice(a18, base)
    one = ["--glue", "1,1,1,1,0,0,0,0/2"]
    two = one + ["--glue", "0,0,0,0,1,1,1,1/2"]
    parser = cli.build_parser()
    ns1 = parser.parse_args(["lattice", "op", "adjoin", str(base), *one])
    ns2 = parser.parse_args(["lattice", "op", "adjoin", str(base), *two])
    ns3 = parser.parse_args(["lattice", "op", "adjoin", str(base)])
    assert ns1.glue == ["1,1,1,1,0,0,0,0/2"]
    assert ns2.glue == ["1,1,1,1,0,0,0,0/2", "0,0,0,0,1,1,1,1/2"]
    assert ns3.glue is None
    # det 2^8 over 2^2 per glue vector
    for glue_args, det in ((one, 64), (two, 16), (one, 64), ([], 256)):
        out = tmp_path / "glued.lattice"
        argv = ["lattice", "op", "adjoin", str(base), *glue_args, "--out", str(out)]
        assert cli.main(argv) == 0
        assert lattice_io.load_lattice(out).det() == det


def test_cli_help_prints_to_the_redirected_stream():
    for argv in (["--help"], ["lattice", "op", "--help"], ["--help"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert cli.main(argv) == 0
        assert out.getvalue().startswith("usage: k3lattice")
        assert err.getvalue() == ""


def test_cli_output_is_the_same_on_reuse_and_in_a_fresh_process(tmp_path):
    path = tmp_path / "lam3.lattice"
    lattice_io.save_lattice(glue.build_named("Lambda(3)"), path)
    commands = [
        ["lattice", "info", str(path)],
        ["lattice", "op", "disc-form", str(path)],
        ["named", "Lambda(3)"],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    for argv in commands:
        outputs = []
        for _ in range(3):
            out = io.StringIO()
            with redirect_stdout(out):
                assert cli.main(argv) == 0
            outputs.append(out.getvalue())
        proc = subprocess.run(
            [sys.executable, "-m", "k3lattice", *argv],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert outputs[0] and outputs.count(outputs[0]) == 3
        assert proc.stdout == outputs[0].encode()


def test_package_runs_as_a_module_from_a_checkout():
    # python -m k3lattice needs k3lattice/__main__.py; PYTHONPATH=src stands
    # for a checkout that was never installed
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "k3lattice", "list"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert "T.det" in proc.stdout
