"""Order statistics used by the benchmark's end-to-end metrics."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10   # samples that must lie beyond the reported tail


def median(values):
    return statistics.median(values)


def tail(values):
    """(percentile, value) of the highest percentile with ``TAIL_BEYOND``
    samples beyond it: the (TAIL_BEYOND + 1)-th largest sample."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    k = n - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / n, ordered[k]


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
