"""Tests for the claim registry, the lattice file format and the CLI."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import k3lattice.lattice as lat
from k3lattice import claims, cli, glue, lattice_io


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


def test_failure_carries_both_sides():
    r = claims.run_claim("L.no-index4")
    assert r.status == "fail"
    assert r.computed is not None and r.expected is not None
    assert r.computed != r.expected


def test_machine_report_is_deterministic():
    a = json.dumps(claims.machine_report(claims.run_all("quadform")), sort_keys=True)
    b = json.dumps(claims.machine_report(claims.run_all("quadform")), sort_keys=True)
    assert a == b


def test_report_matches_the_committed_report():
    # the --json report of verify --all is pinned byte for byte
    committed = Path(__file__).resolve().parents[1] / "perfbench" / "verify_report.json"
    report = json.dumps(claims.machine_report(claims.run_all()), indent=1, sort_keys=True)
    assert report + "\n" == committed.read_text()


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


def test_json_position_in_parse_error(tmp_path):
    p = tmp_path / "broken.lattice"
    p.write_text('{"gram": [[0, 1],\n [1, oops]]}')
    with pytest.raises(lattice_io.LatticeFileError) as err:
        lattice_io.load_lattice(p)
    assert "line 2" in str(err.value)


def test_big_integers_as_strings(tmp_path):
    big = 10**30
    l = lat.lattice([[2 * big]], "big")
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


def test_cli_verify_exit_code_on_failure(capsys):
    assert cli.main(["verify", "L.no-index4"]) == 1


def test_cli_named_and_info(tmp_path, capsys):
    out_file = tmp_path / "lam3.lattice"
    assert cli.main(["named", "Lambda(3)", "--save", str(out_file)]) == 0
    capsys.readouterr()
    assert cli.main(["lattice", "info", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "rank:       6" in out and "det:        12" in out


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

    d4 =tmp_path / "d4.lattice"
    lattice_io.save_lattice(lat.root_lattice("D", 4).rename("D4"), d4)
    capsys.readouterr()
    assert cli.main(["lattice", "op", "disc-form", str(d4)]) == 0
    assert "invariant factors: [2, 2]" in capsys.readouterr().out


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
