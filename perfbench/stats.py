"""Small statistics helpers shared by the workloads and their tests."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered) / 100.0))
    return float(ordered[rank - 1])


def tail_percentile(count: int, min_beyond: int = TAIL_MIN_BEYOND) -> Optional[float]:
    """The highest whole percentile with at least ``min_beyond`` of ``count`` samples beyond it.

    A percentile ``p`` leaves ``count - ceil(p/100 * count)`` samples above
    its nearest-rank value.  ``None`` when even the median leaves fewer
    than ``min_beyond`` samples beyond it (too few samples for any tail).
    """
    best = None
    for pct in range(50, 100):
        if count - max(1, math.ceil(pct * count / 100.0)) >= min_beyond:
            best = float(pct)
    return best


def latency_summary(latencies_ms: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median, tail value, tail percentile and sample count of a latency set."""
    pct = tail_percentile(len(latencies_ms))
    return {
        "p50_ms": median(latencies_ms),
        "tail_ms": None if pct is None else percentile(latencies_ms, pct),
        "tail_pct": pct,
        "samples": len(latencies_ms),
    }


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered
