"""The per-point Pareto loop, kept as the oracle of the broadcast test.

:func:`repro.hwmodel.metrics.pareto_front` tests every pair of points in
one broadcast comparison per block of rows; this is the loop it replaced,
which tests one point against the whole array at a time.  Survivors and
their order must agree exactly (``tests/test_hwmodel_cost.py``).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, TypeVar

import numpy as np

from repro.hwmodel.metrics import HardwareMetrics

_T = TypeVar("_T")


def pareto_front_reference(
    points: Sequence[Tuple[_T, HardwareMetrics]],
) -> List[Tuple[_T, HardwareMetrics]]:
    """The (latency, energy, area)-Pareto-optimal subset, one point at a time."""
    if not points:
        return []
    values = np.array(
        [(m.latency_ms, m.energy_mj, m.area_mm2) for _, m in points], dtype=np.float64
    )
    keep: List[Tuple[_T, HardwareMetrics]] = []
    for index, (payload, metrics) in enumerate(points):
        no_worse = (values <= values[index]).all(axis=1)
        strictly_better = (values < values[index]).any(axis=1)
        if not (no_worse & strictly_better).any():
            keep.append((payload, metrics))
    return keep
