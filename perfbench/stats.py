"""Arithmetic the benchmark reports: self time, percentiles, shares, spread.

Kept apart from the workloads so that it can be unit-tested without
running paczero.
"""

from __future__ import annotations

import math
import statistics

# Percentiles considered above the median, lowest first.
TAIL_PERCENTILES = (90.0, 99.0, 99.9)
MIN_SAMPLES_BEYOND = 10


def self_time(start: int, end: int, children: list[tuple[int, int]]) -> int:
    """Duration of the span [start, end] minus the part of it that the union
    of its child intervals covers (children are clipped to the span and may
    overlap one another)."""
    covered = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(children):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (end - start) - covered


def _rank(n: int, p: float) -> int:
    # rounded first, so that 99.9 percent of 10000 is rank 9990, not 9991
    return max(1, math.ceil(round(p * n / 100.0, 6)))


def nearest_rank(samples: list[float], p: float) -> float:
    """The p-th percentile by the nearest-rank rule."""
    return sorted(samples)[_rank(len(samples), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples rank above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def percentile_report(samples: list[float]) -> dict[str, float]:
    """The median, plus the highest tail percentile that has at least ten
    samples beyond it (none when the sample is too small)."""
    if not samples:
        raise ValueError("no samples")
    report = {"p50": statistics.median(samples)}
    qualifying = [p for p in TAIL_PERCENTILES if samples_beyond(len(samples), p) >= MIN_SAMPLES_BEYOND]
    if qualifying:
        p = qualifying[-1]
        report[f"p{p:g}"] = nearest_rank(samples, p)
    return report


def failed_share(attempted: int, failed: int) -> float:
    """Failed ops as a share of attempted ops."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside 0..{attempted}")
    return failed / attempted


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)`` gives
    them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
