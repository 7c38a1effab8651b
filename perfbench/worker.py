"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the workload, seed, pass index, per-operation time limit and
whether to trace.  The worker imports k3lattice from the checkout's ``src``,
builds the pass's inputs, runs the operations back to back (one client,
closed loop) and prints one JSON object with the raw outputs, the latencies
and the time at which the first operation started.  Checking the outputs is
left to the parent process.
"""

from __future__ import annotations

import gc
import io
import json
import resource
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from k3lattice import claims, cli, exact, glue  # noqa: E402

import inputs  # noqa: E402


class OpTimeout(BaseException):
    """Raised by SIGALRM inside a call that passed the time limit.  It derives
    from BaseException so that no ``except Exception`` in the package can
    swallow it."""


def _alarm(signum, frame):
    raise OpTimeout


CAL_EVERY_S = 0.1
_CAL_MATRIX = [[(i * 7 + j * 13) % 11 - 5 + 3 * (i == j) for j in range(18)] for i in range(18)]


def _kernel() -> None:
    inputs.bareiss_det(_CAL_MATRIX)
    a = [[Fraction(x, 1 + (i + j) % 3) for j, x in enumerate(row[:10])]
         for i, row in enumerate(_CAL_MATRIX[:10])]
    for k in range(10):
        for i in range(k + 1, 10):
            f = a[i][k] / a[k][k]
            for j in range(k, 10):
                a[i][j] -= f * a[k][j]


def calibrate() -> float:
    """Median of three timings of a fixed kernel of the library's kind of
    work (integer Bareiss, Fraction elimination).  On a shared host the speed
    can move by a factor of two within seconds (seen on a 2-vCPU VM); the
    parent scales each operation's latency by the kernel time measured beside
    it.  The collector is off so that the program's heap does not change the
    kernel's time."""
    gc.disable()
    try:
        ts = []
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel()
            ts.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return sorted(ts)[1]


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def build_ops(spec: dict, scratch: Path):
    """(label, callable) per operation, plus the inputs the checks need."""
    workload, seed, pass_index = spec["workload"], spec["seed"], spec["pass"]
    if workload == "verify":
        ops = [(cid, lambda cid=cid: claims.run_claim(cid)) for cid in claims.claim_ids()]
        return ops, None
    if workload == "named":
        names = inputs.named_inputs(glue.NAMED_BUILDERS, seed, pass_index)
        return [(n, lambda n=n: run_cli(["named", n])) for n in names], None
    grams = inputs.gram_inputs(seed, pass_index)
    files = {}
    for i, g in enumerate(grams):
        label = f"gram{i}-rank{len(g)}"
        path = scratch / f"{label}.lattice"
        path.write_text(json.dumps({"name": label, "gram": g}) + "\n")
        files[label] = str(path)
    if workload == "gram-info":
        ops = [
            (label, lambda p=p: [run_cli(["lattice", "info", p]),
                                 run_cli(["lattice", "op", "disc-form", p])])
            for label, p in files.items()
        ]
    elif workload == "gram-quadform":
        ops = [(label, lambda p=p: run_cli(["quadform", "invariants", p]))
               for label, p in files.items()]
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return ops, grams


def main(spec: dict) -> dict:
    scratch = Path(spec["scratch"])
    scratch.mkdir(parents=True, exist_ok=True)
    ops, grams = build_ops(spec, scratch)
    result: dict = {"setup_end": time.monotonic(), "setup_cal_s": calibrate()}
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    limit = spec["limit"]
    signal.signal(signal.SIGALRM, _alarm)
    records, outputs, pending = [], [], []
    cal, cal_time = result["setup_cal_s"], time.perf_counter()
    for i, (label, op) in enumerate(ops):
        if tracer:
            tracer.op = i
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            try:
                out = op()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            status = "ok"
        except OpTimeout:
            out, status = None, "timeout"
        except Exception as e:  # reported as a failed operation
            out, status = f"{type(e).__name__}: {e}", "error"
        records.append({"label": label, "status": status, "latency_s": time.perf_counter() - t0})
        outputs.append(out)
        # Short operations run back to back between two calibrations; each
        # gets the mean of the kernel times measured before and after it.
        pending.append(records[-1])
        if time.perf_counter() - cal_time >= CAL_EVERY_S or i == len(ops) - 1:
            cal_after = calibrate()
            for rec in pending:
                rec["cal_s"] = (cal + cal_after) / 2
            cal, cal_time, pending = cal_after, time.perf_counter(), []
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer:
        result["layers"] = tracer.summarize(len(ops))
        spans_dir = scratch / "spans"
        spans_dir.mkdir(exist_ok=True)
        tracer.write_spans(spans_dir / f"{spec['workload']}-seed{spec['seed']}-pass{spec['pass']}.tsv.gz")

    if spec["workload"] == "verify":
        done = [r for r in outputs if r is not None and not isinstance(r, str)]
        for rec, r in zip(records, outputs):
            if rec["status"] == "ok":
                rec["entry"] = claims.machine_report([r])["claims"][0]
            else:
                rec["output"] = r
        result["report"] = json.dumps(claims.machine_report(done), indent=1, sort_keys=True) + "\n"
    else:
        for rec, out in zip(records, outputs):
            rec["output"] = out
    if spec["workload"] == "gram-quadform":
        for rec, g in zip(records, grams):
            rec["exact_signature"] = list(exact.signature(g))
    if grams is not None:
        for rec, g in zip(records, grams):
            rec["gram"] = g
    result["ops"] = records
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
