"""k3lattice benchmark: time to a verdict, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 50 --trace 0

Workloads (inputs come from --seed; the program sees only generated inputs):

  verify         every registered claim, one per operation, in claim_ids()
                 order: a cold `k3lattice verify --all --json`.  The only
                 workload that runs the k3embed searches and the isotropic
                 glue search; named lattices repeat, so the caches hit.
  named          `k3lattice named X` for every fixed name plus a seeded draw
                 of L_d, Lambda, Lp and Np.  Construction only: glue.adjoin,
                 Lattice construction, Fraction pairings; the Smith form only
                 sees entries in {0, +-1, +-2}.
  gram-info      random even Gram matrices at ranks 8, 16 and 22 plus the
                 rank-8 file from ROADMAP item 1, each loaded from a lattice
                 file through `lattice info` and `lattice op disc-form`:
                 the Smith form on unstructured input.  Operations that hit
                 the 1 s limit count as failed.
  gram-quadform  the same matrices through `quadform invariants`; never
                 calls the Smith form, so it is the control for gram-info.

A run is a fixed number of passes, each in a fresh interpreter (every
k3lattice command starts cold).  The number of passes is --seconds divided
by the workload's nominal pass time on the reference machine (2 vCPUs,
Python 3.11), so both sides of a comparison do the same work.  One client
runs the operations back to back (closed loop, one thread).

Times are taken with the wall clock and then scaled to the reference
machine's speed (see CAL_REF_S): wall_s is the pass's scaled operation time,
and setup_s runs from interpreter start to the first operation.  Raw times
stay in the result file.

With --trace 0 the last line of output holds the end-to-end metrics; with
--trace 1 each pass runs twice on the same inputs, untraced then traced,
and the last line holds the per-layer metrics and the tracing overhead.
The full result, with the environment, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import stats  # noqa: E402
from tracer import metric_names  # noqa: E402

# name: (nominal pass seconds, per-operation limit in seconds).  On the
# gram-info matrices the Smith form either returns within 0.1 s or runs past
# 3 s, so its 1 s limit decides the same operations as a longer one would.
# BENCHMARK.json leaves gram-quadform out: one of its rank-22 matrices can
# cost ten times another, so the four passes that fit a 30 s run move its
# figures by 12-21% from seed to seed, although repeats of the same inputs
# agree within 5%.  It stays runnable.
WORKLOADS = {
    "verify": (15.0, 30.0),
    "named": (5.5, 30.0),
    "gram-info": (13.5, 1.0),
    "gram-quadform": (6.5, 30.0),
}
# A run must end within 180 s.  No pass starts unless it can end by this
# deadline at 1.5 times its nominal time; passes left out are not attempted.
DEADLINE_S = 170.0
# Time of the worker's calibration kernel on the reference machine (2-vCPU
# Xeon VM, Python 3.11.7).  End-to-end times are reported in seconds of that
# machine: each raw time is multiplied by CAL_REF_S over the kernel time
# measured beside it, which cancels the host's drift in speed.
CAL_REF_S = 0.003

UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "decided_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    if name.endswith(".max_bits"):
        return "bits"
    if name.endswith(".per_op"):
        return "calls/op"
    return "count"


class Run:
    """Spawns the worker passes of one benchmark run and checks them."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.pass_s, self.limit = WORKLOADS[workload]
        self.start = time.monotonic()
        self.scratch = HERE / "out" / f"{workload}-seed{seed}-{os.getpid()}"
        self.golden = oracles.load_golden() if workload == "verify" else None
        self.attempted = self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.latencies: list[float] = []
        self.skipped: list[int] = []
        self.tail: float | None = None
        self.samples: dict[str, list[float]] = {}

    def run_pass(self, pass_index: int, trace: bool = False):
        """Run, check and record one pass in a fresh worker; None when the
        pass could not end by the deadline and was left out."""
        if time.monotonic() - self.start + self.pass_s * 1.5 > DEADLINE_S:
            self.skipped.append(pass_index)
            return None
        spec = {
            "workload": self.workload,
            "seed": self.seed,
            "pass": pass_index,
            "trace": trace,
            "limit": self.limit,
            "scratch": str(self.scratch),
        }
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                capture_output=True, text=True, cwd=ROOT,
                timeout=DEADLINE_S - (t0 - self.start),
            )
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"pass {pass_index} did not end by the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed:\n{proc.stderr.strip()}")
        result = json.loads(proc.stdout)
        result["setup_s"] = (result["setup_end"] - t0) * CAL_REF_S / result["setup_cal_s"]
        self.check(result)
        return result

    def check(self, result: dict) -> None:
        """Checks every operation and sets the pass's scaled wall_s."""
        result["wall_s"] = result["raw_wall_s"] = 0.0
        for op in result["ops"]:
            self.attempted += 1
            timed_out = op["status"] == "timeout"
            latency = stats.censored_latency(op["latency_s"], timed_out, self.limit)
            result["raw_wall_s"] += latency
            if not timed_out:  # the limit is a wall-clock policy, not a measurement
                latency *= CAL_REF_S / op["cal_s"]
            self.latencies.append(latency)
            result["wall_s"] += latency
            if timed_out:
                problem = "undecided"
            elif op["status"] == "error":
                problem = op["output"] if "output" in op else "error"
                self.correct = False
            else:
                try:
                    problem = self.check_op(op)
                except (KeyError, ValueError, SyntaxError) as e:
                    problem = f"unreadable output: {type(e).__name__}: {e}"
                if problem:
                    self.correct = False
            if problem:
                self.failed += 1
                self.problems.append(f"{op['label']}: {problem}")
        all_decided = all(op["status"] == "ok" for op in result["ops"])
        if self.workload == "verify" and all_decided and result["report"] != self.golden[1]:
            self.correct = False
            self.failed += 1
            self.problems.append("--json report differs from perfbench/verify_report.json")

    def check_op(self, op: dict) -> str | None:
        if self.workload == "verify":
            return oracles.check_claim(op["entry"], self.golden[0])
        if self.workload == "named":
            return oracles.check_named(op["label"], op["output"])
        if self.workload == "gram-info":
            return oracles.check_gram_info(op["gram"], op["output"])
        return oracles.check_gram_quadform(op["gram"], op["output"], op["exact_signature"])


def passes(workload: str, seconds: float) -> int:
    return max(1, int(seconds // WORKLOADS[workload][0]))


def end_to_end(run: Run, n_passes: int) -> dict[str, float]:
    walls, raw_walls, setups, rss = [], [], [], []
    for k in range(n_passes):
        result = run.run_pass(k)
        if result is None:
            break
        walls.append(result["wall_s"])
        raw_walls.append(result["raw_wall_s"])
        setups.append(result["setup_s"])
        rss.append(result["rss_mb"])
    if not walls:
        raise RuntimeError("no pass finished")
    run.tail = stats.tail_percentile(len(run.latencies))
    run.samples = {"pass_wall_s": walls, "raw_pass_wall_s": raw_walls, "setup_s": setups}
    decided = run.attempted - run.failed
    return {
        "wall_s": stats.median(walls),
        "op_p50_ms": 1000 * stats.median(run.latencies),
        "op_tail_ms": 1000 * stats.percentile(run.latencies, run.tail),
        "decided_share": max(decided, 0) / run.attempted,
        "setup_s": stats.median(setups),
        "peak_rss_mb": stats.median(rss),
    }


def per_layer(run: Run, n_passes: int) -> dict[str, float]:
    plain, traced = [], []
    for k in range(max(1, n_passes // 2)):
        first = run.run_pass(k)
        second = run.run_pass(k, trace=True) if first else None
        if second is None:
            break
        plain.append(first["wall_s"])
        traced.append(second)
    if not traced:
        raise RuntimeError("no traced pass finished")
    for t in traced:
        t["layers"]["trace.wall_s"] = t["wall_s"]
    run.samples = {"plain_wall_s": plain, "traced_wall_s": [t["wall_s"] for t in traced]}
    names = [n for n in metric_names() if n != "trace.overhead_s"]
    out = {name: stats.median([t["layers"][name] for t in traced]) for name in names}
    out["trace.overhead_s"] = out["trace.wall_s"] - stats.median(plain)
    return out


def git_commit() -> str:
    """HEAD of the checkout when it is a git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "k3lattice" / "__init__.py").is_file():
        print(f"error: no k3lattice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    n_passes = passes(args.workload, args.seconds)
    if args.trace:
        metrics = per_layer(run, n_passes)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(run, n_passes)
        units = UNITS
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "commit": git_commit(),
        "workload": args.workload,
        "passes": n_passes,
        "limit_s": run.limit,
    }
    if not args.trace:
        env["op_tail_percentile"] = run.tail
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out = HERE / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"env": env, "samples": run.samples, "problems": run.problems,
                           "skipped_passes": run.skipped, **result}, indent=1) + "\n")

    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    if run.skipped:
        print(f"# passes {run.skipped} left out: they could not end by the {DEADLINE_S:.0f} s deadline")
    for p in run.problems[:20]:
        print(f"# failed: {p}")
    for k, v in metrics.items():
        note = ""
        if k == "op_tail_ms":
            note = f"  (p{run.tail:g} of {len(run.latencies)} operations)"
        print(f"{k:48s} {v:14.6g} {units[k]}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
