"""Order statistics used by the benchmark report."""

from __future__ import annotations

# Percentiles op_tail_ms may report, lowest first.  The steps are fine
# enough that the chosen one sits close to the highest percentile the sample
# count supports.
LADDER = (25.0, 50.0, 75.0, 90.0, 92.5, 95.0, 97.5, 99.0, 99.5, 99.9)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)


def tail_percentile(n: int) -> float:
    """The highest percentile on the ladder with at least MIN_BEYOND of n
    samples above it; the lowest rung when even that has too few."""
    best = LADDER[0]
    for p in LADDER:
        # in tenths of a percent, so that 99.9 is exact
        if n * (1000 - round(10 * p)) >= 1000 * MIN_BEYOND:
            best = p
    return best


def censored_latency(latency_s: float, timed_out: bool, limit_s: float) -> float:
    """An operation stopped at the time limit counts as taking the time it
    ran until the interrupt, which is never below the limit; a completed
    operation never counts as more than the limit."""
    return max(latency_s, limit_s) if timed_out else min(latency_s, limit_s)
