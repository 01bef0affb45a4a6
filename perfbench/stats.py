"""The benchmark's own statistics, kept in one place so test_stats.py can pin them.

Percentiles are nearest-rank: the p-th percentile of N samples is the
ceil(p/100 * N)-th smallest. A percentile is reported only when at least
MIN_BEYOND samples lie beyond it. Spreads are the distance between the first
and third quartile from statistics.quantiles(values, n=4), as a share of the
median. A ratio always travels with its base.
"""

import math
import statistics

MIN_BEYOND = 10


def nearest_rank(values, pct):
    """The pct-th nearest-rank percentile of values (0 < pct <= 100)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count, pct):
    """How many of count samples lie above the pct-th nearest-rank percentile."""
    return count - max(1, math.ceil(pct / 100 * count))


def tail_supported(count, pct):
    """True when the pct-th percentile has at least MIN_BEYOND samples beyond it."""
    return samples_beyond(count, pct) >= MIN_BEYOND


def quartile_spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(values, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def ratio_with_base(numerator, base):
    """(numerator / base, base); a zero base gives a ratio of 0.0."""
    return (numerator / base if base else 0.0), base


def self_times(spans):
    """Per span name: (self_ns, calls, spans).

    spans are [name, id, parent, begin_ns, end_ns, calls] in open order; a
    span's self time is its duration minus the durations of its children,
    which nest inside it on the one recording thread.
    """
    child_ns = [0] * len(spans)
    for name, _, parent, begin, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - begin
    out = {}
    for index, (name, _, _, begin, end, calls) in enumerate(spans):
        self_ns, total_calls, count = out.get(name, (0, 0, 0))
        out[name] = (self_ns + (end - begin) - child_ns[index],
                     total_calls + calls, count + 1)
    return out
