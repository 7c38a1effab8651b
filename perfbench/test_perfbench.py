"""Tests for the benchmark's own arithmetic, inputs and oracles.

They need neither k3lattice nor a benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402

# ---------------------------------------------------------------------------
# percentiles and censoring


def test_percentile_interpolates_between_ranks():
    xs = [4, 1, 3, 2]
    assert stats.percentile(xs, 0) == 1
    assert stats.percentile(xs, 100) == 4
    assert stats.percentile(xs, 50) == 2.5
    assert stats.percentile(xs, 25) == 1.75
    assert stats.median([7]) == 7


@pytest.mark.parametrize(
    "n,p",
    [(5, 25.0), (19, 25.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (133, 90.0), (134, 92.5), (186, 92.5), (200, 95.0), (399, 95.0), (400, 97.5),
     (1000, 99.0), (2000, 99.5), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert stats.tail_percentile(n) == p
    if n >= 20:
        assert round(n * (100 - p) / 100, 9) >= stats.MIN_BEYOND


def test_censored_latency_is_at_the_limit():
    assert stats.censored_latency(2.0003, True, 2.0) == 2.0003
    assert stats.censored_latency(0.5, True, 2.0) == 2.0
    assert stats.censored_latency(0.5, False, 2.0) == 0.5
    assert stats.censored_latency(2.0001, False, 2.0) == 2.0


# ---------------------------------------------------------------------------
# spans


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0, 0]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, 0, 100),
        span(1, 10, 40, 0),
        span(2, 15, 35, 1),  # grandchild: already inside span 1
        span(1, 50, 60, 0),
    ]
    assert tracer.self_times(spans) == [60, 10, 20, 10]


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [span(0, 0, 100), span(1, 10, 50, 0), span(2, 40, 70, 0), span(3, 90, 120, 0)]
    # children cover [10, 70) and [90, 100) of the parent
    assert tracer.self_times(spans)[0] == 100 - 60 - 10


def test_inclusive_time_counts_recursion_once():
    spans = [span(0, 0, 100), span(0, 10, 60, 0), span(1, 20, 30, 1), span(0, 200, 210)]
    assert tracer.inclusive_time(spans, 0) == 110
    assert tracer.inclusive_time(spans, 1) == 10
    assert sum(tracer.self_times(spans)[i] for i in (0, 1, 3)) == 110 - 10


def test_pass_past_the_deadline_is_left_out_not_failed():
    r = run.Run("named", 1)
    r.start -= run.DEADLINE_S
    assert r.run_pass(0) is None
    assert (r.skipped, r.attempted, r.failed, r.correct) == ([0], 0, 0, True)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"wall_s", "op_p50_ms", "op_tail_ms", "decided_share", "setup_s", "peak_rss_mb"}
    assert len(spec["per_layer"]) <= 128


# ---------------------------------------------------------------------------
# inputs


def test_bareiss_det():
    assert inputs.bareiss_det([]) == 1
    assert inputs.bareiss_det([[5]]) == 5
    assert inputs.bareiss_det([[0, 1], [1, 0]]) == -1
    assert inputs.bareiss_det([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 4
    assert inputs.bareiss_det([[1, 2], [2, 4]]) == 0
    assert inputs.bareiss_det(inputs.ROADMAP_RANK8) != 0


def test_gram_inputs_are_seeded_even_symmetric_nondegenerate():
    a = inputs.gram_inputs(7, 0)
    assert a == inputs.gram_inputs(7, 0)
    assert a != inputs.gram_inputs(7, 1) and a != inputs.gram_inputs(8, 0)
    assert [len(g) for g in a] == list(inputs.GRAM_RANKS) + [8]
    for g in a:
        n = len(g)
        assert all(g[i][j] == g[j][i] for i in range(n) for j in range(n))
        assert all(g[i][i] % 2 == 0 for i in range(n))
        assert inputs.bareiss_det(g) != 0


def test_named_inputs_have_valid_parameters():
    for seed in range(20):
        names = inputs.named_inputs(["V", "L2"], seed, 0)
        assert names[:2] == ["L2", "V"]
        assert len(names) == 2 + sum(c for _, c in inputs.NAMED_DRAWS)
        for name in names[2:]:
            rank, det, even, sig = oracles._named_expectation(name)
            head, args = name.rstrip(")").split("(")
            args = args.split(",")
            if head == "L_d":
                assert int(args[0]) % 4 == 3 and args[1] in ("subgroup", "all")
            if head == "Lp":
                assert int(args[0]) % 24 == 17
            if head == "Np":
                p, n = int(args[0]), int(args[1])
                assert pow(n, (p - 1) // 2, p) == p - 1


# ---------------------------------------------------------------------------
# oracles


def cli_out(text, code=0):
    return {"code": code, "stdout": text, "stderr": ""}


LAMBDA5 = """name:       Lambda(5)
rank:       6
det:        20
even:       True
signature:  (2, 0, 4) (pos, zero, neg)
disc group: [2, 10]
"""


def test_check_named_uses_closed_forms():
    assert oracles.check_named("Lambda(5)", cli_out(LAMBDA5)) is None
    assert "det" in oracles.check_named("Lambda(6)", cli_out(LAMBDA5))
    wrong = LAMBDA5.replace("[2, 10]", "[20]")
    assert oracles.check_named("Lambda(5)", cli_out(wrong)) is None  # 20 = |det|
    wrong = LAMBDA5.replace("[2, 10]", "[2, 5]")
    assert "multiply" in oracles.check_named("Lambda(5)", cli_out(wrong))
    wrong = LAMBDA5.replace("[2, 10]", "[4, 5]")
    assert "divisor chain" in oracles.check_named("Lambda(5)", cli_out(wrong))
    assert "exit code" in oracles.check_named("Lambda(5)", cli_out("", 2))


def test_check_gram_quadform_applies_reciprocity():
    gram = [[2, 1], [1, -2]]  # det -5
    text = """rank:            2
signature:       (1, 1)
disc class:      -5
hasse -1 places: none
witt index (Q):  0
"""
    assert oracles.check_gram_quadform(gram, cli_out(text), [1, 0, 1]) is None
    odd = text.replace("none", "['real']")
    assert "reciprocity" in oracles.check_gram_quadform(gram, cli_out(odd), [1, 0, 1])
    assert "disc class" in oracles.check_gram_quadform(
        gram, cli_out(text.replace("-5", "5")), [1, 0, 1]
    )
    assert "exact.signature" in oracles.check_gram_quadform(gram, cli_out(text), [2, 0, 0])


def test_golden_report_fails_exactly_the_designed_claims():
    entries, text = oracles.load_golden()
    assert len(entries) == 62
    assert {c for c, e in entries.items() if e["status"] == "fail"} == oracles.FAILING_BY_DESIGN
    assert oracles.check_claim(entries["L2.even"], entries) is None
    changed = dict(entries["L.no-index4"], status="pass")
    assert oracles.check_claim(changed, entries) is not None
