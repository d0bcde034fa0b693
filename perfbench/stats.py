"""Summary statistics shared by the benchmark runner and its self-tests.

Two rules live here and nowhere else:

* censoring: an answered query counts as its latency capped at the
  workload's limit; a failed or wrong one counts as the limit plus the time
  it took, so it always reads worse than any answer within the limit and a
  correctness fix can never read as a slowdown;
* the tail: the highest percentile that still has at least ten samples
  beyond it, reported together with its rank so a short run cannot pass a
  low percentile off as a tail.
"""
from __future__ import annotations

import statistics

TAIL_SAMPLES_BEYOND = 10


def charge(latency_s: float, answered: bool, limit_s: float) -> float:
    """Censored latency of one query under the workload's latency limit."""
    if answered:
        return min(latency_s, limit_s)
    return limit_s + latency_s


def tail(values) -> tuple[float, int, int]:
    """Tail value, its 1-based rank in ascending order, and the sample count.

    The rank is the highest one with at least ``TAIL_SAMPLES_BEYOND``
    samples above it.  With fewer than eleven samples no rank qualifies and
    the smallest sample is returned; its rank says so.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("tail of an empty sample")
    index = max(0, len(ordered) - TAIL_SAMPLES_BEYOND - 1)
    return ordered[index], index + 1, len(ordered)


def median(values) -> float:
    return float(statistics.median(values))

