"""Summary statistics shared by the benchmark runner and the spread tool.

Stdlib only: the benchmark must run from a bare checkout.
"""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10
TAIL_WIDTH = 5
CENTRAL_SHARE = 0.2


def central(samples, share: float = CENTRAL_SHARE) -> float:
    """The median, smoothed: the mean of the middle ``share`` of the samples.

    One run has a few dozen ops of unlike cost, so the middle order
    statistic is one op and jumps with that op's noise; averaging the
    samples between the 40th and 60th percentiles keeps the centre of the
    distribution and damps the jump.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("centre of an empty sample")
    k = max(1, round(n * share))
    lo = (n - k) // 2
    return statistics.fmean(ordered[lo:lo + k])


def tail(samples, passes: int = 1, beyond: int = TAIL_BEYOND, width: int = TAIL_WIDTH) -> tuple:
    """The nearest-rank percentile with ``beyond`` samples above it in one pass.

    Returns (value, percentile, samples_beyond).  ``samples`` are ``passes``
    whole passes of one deck of m ops.  The percentile is fixed by the deck,
    p = 100 (m - beyond) / m, the highest with ``beyond`` samples of a pass
    above it, so it stays put when a faster program fits more passes into a
    run.  Over n = k m samples p sits at index ceil(p n / 100) - 1 =
    n - k beyond - 1, with k beyond samples above it.  The value is the mean
    of the k ``width`` order statistics ending at that index, each of which
    has at least k beyond samples above it, for the reason ``central``
    gives.  With a deck of ``beyond`` ops or fewer no percentile qualifies;
    the maximum is returned with the number beyond it (zero), so a reader
    sees that the tail is not backed by ten samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    per_pass, rest = divmod(n, passes)
    if rest:
        raise ValueError(f"{n} samples are not {passes} whole passes")
    if per_pass <= beyond:
        return ordered[-1], 100.0, 0
    above = beyond * passes
    top = n - above - 1
    window = ordered[max(0, top - width * passes + 1): top + 1]
    return statistics.fmean(window), 100.0 * (per_pass - beyond) / per_pass, above


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median (inf for a zero median)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def self_times(spans) -> dict:
    """Per-name self time and count from (name, start, end, parent) spans.

    ``parent`` is the index of the enclosing span in ``spans`` or -1.  A
    span's self time is its duration minus the durations of its direct
    children; spans come from one thread, so children never overlap.
    Returns {name: [count, self_seconds]}.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for idx, (name, start, end, _parent) in enumerate(spans):
        rec = out.setdefault(name, [0, 0.0])
        rec[0] += 1
        rec[1] += (end - start) - child[idx]
    return out

