"""Summary of timing samples: median, a high percentile that has support, max."""

from __future__ import annotations

import statistics

# Candidate high percentiles, in tenths of a percent, highest first.
PERCENTILES_X10 = (999, 995, 990, 980, 950, 900, 750, 500)
# A percentile is reported only if at least this many samples lie beyond it.
MIN_BEYOND = 10


def summarize(values) -> dict:
    """Median, highest supported percentile, max and sample count.

    ``p_hi`` is the nearest-rank value of the highest percentile in
    ``PERCENTILES_X10`` with at least ``MIN_BEYOND`` samples beyond it, and
    ``p_hi_pct`` names that percentile.  With too few samples for any of
    them, ``p_hi`` is the max and ``p_hi_pct`` is 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    out = {"n": n, "p50": statistics.median(xs), "p_hi": xs[-1], "p_hi_pct": 100.0, "max": xs[-1]}
    for q in PERCENTILES_X10:
        rank = -(-q * n // 1000)  # ceil(q/1000 * n) in integers, 1-based
        if n - rank >= MIN_BEYOND:
            out["p_hi"] = xs[rank - 1]
            out["p_hi_pct"] = q / 10
            break
    return out
