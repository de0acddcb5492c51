"""Hardware cost metric containers and derived figures of merit.

The public cost-model API (which tier computes these metrics, and when to
call which) is documented in ``docs/cost_model.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple, TypeVar

import numpy as np


@dataclass(frozen=True)
class HardwareMetrics:
    """The three cost metrics the evaluator predicts, plus derived products.

    Attributes
    ----------
    latency_ms:
        End-to-end execution latency of the workload, in milliseconds.
    energy_mj:
        Energy consumed executing the workload, in millijoules.
    area_mm2:
        Accelerator die area, in square millimetres.
    """

    latency_ms: float
    energy_mj: float
    area_mm2: float

    def __post_init__(self) -> None:
        if self.latency_ms < 0 or self.energy_mj < 0 or self.area_mm2 < 0:
            raise ValueError("hardware metrics must be non-negative")

    @property
    def edap(self) -> float:
        """Energy-delay-area product in the paper's units (J * sec * m^2 * 1e-12).

        With energy in mJ (1e-3 J), latency in ms (1e-3 s) and area in mm^2
        (1e-6 m^2), the plain product of the three numbers is already in
        units of 1e-12 J*s*m^2, which is exactly how Table 2 reports EDAP.
        """
        return self.latency_ms * self.energy_mj * self.area_mm2

    @property
    def edp(self) -> float:
        """Energy-delay product (mJ * ms)."""
        return self.latency_ms * self.energy_mj

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict form including the derived EDAP."""
        return {
            "latency_ms": self.latency_ms,
            "energy_mj": self.energy_mj,
            "area_mm2": self.area_mm2,
            "edap": self.edap,
        }

    def as_vector(self) -> tuple:
        """(latency, energy, area) tuple, the regression target ordering."""
        return (self.latency_ms, self.energy_mj, self.area_mm2)

    def __add__(self, other: "HardwareMetrics") -> "HardwareMetrics":
        """Aggregate per-layer metrics: latency and energy add, area is shared."""
        return HardwareMetrics(
            latency_ms=self.latency_ms + other.latency_ms,
            energy_mj=self.energy_mj + other.energy_mj,
            area_mm2=max(self.area_mm2, other.area_mm2),
        )


def aggregate_metrics(per_layer: Iterable[HardwareMetrics]) -> HardwareMetrics:
    """Sum latency / energy over layers; area is the (shared) accelerator area."""
    per_layer = list(per_layer)
    if not per_layer:
        raise ValueError("cannot aggregate an empty list of metrics")
    total = per_layer[0]
    for metrics in per_layer[1:]:
        total = total + metrics
    return total


def linear_cost(
    metrics: HardwareMetrics,
    lambda_latency: float = 1.0,
    lambda_energy: float = 1.0,
    lambda_area: float = 1.0,
) -> float:
    """Linear combination of the metrics — Eq. 3 of the paper."""
    return (
        lambda_latency * metrics.latency_ms
        + lambda_energy * metrics.energy_mj
        + lambda_area * metrics.area_mm2
    )


def edap_cost(metrics: HardwareMetrics) -> float:
    """Energy-delay-area product — Eq. 4 of the paper."""
    return metrics.edap


_T = TypeVar("_T")


#: Pairwise comparisons :func:`pareto_front` holds at once, per comparison
#: array: it tests a block of rows against every point, so memory stays
#: bounded however many points there are.
PARETO_BLOCK_ELEMENTS = 1 << 20


def pareto_front(points: Sequence[Tuple[_T, HardwareMetrics]]) -> List[Tuple[_T, HardwareMetrics]]:
    """The (latency, energy, area)-Pareto-optimal subset of ``points``.

    Each point is a ``(payload, metrics)`` pair (the payload is typically an
    :class:`~repro.hwmodel.accelerator.AcceleratorConfig`); a point survives
    unless some other point is no worse on all three metrics and strictly
    better on at least one.  Survivors keep their input order; duplicates
    all survive (neither is strictly better), and a NaN coordinate makes
    every comparison on it false, so such a point neither dominates nor is
    dominated.  Every pair is tested at once, one broadcast ``(rows, n)``
    comparison per metric for each block of rows (a reduction over a
    length-3 last axis would cost numpy more than the comparisons).
    """
    if not points:
        return []
    values = np.array(
        [(m.latency_ms, m.energy_mj, m.area_mm2) for _, m in points], dtype=np.float64
    )
    count = len(values)
    rows = max(1, PARETO_BLOCK_ELEMENTS // count)
    dominated = np.empty(count, dtype=bool)
    for start in range(0, count, rows):
        block = values[start : start + rows]
        # [i, j]: point j is no worse than point i on every metric ...
        no_worse = np.ones((len(block), count), dtype=bool)
        # ... and better on at least one.
        better = np.zeros((len(block), count), dtype=bool)
        for metric in range(3):
            theirs, ours = values[:, metric], block[:, metric, None]
            no_worse &= theirs <= ours
            better |= theirs < ours
        dominated[start : start + rows] = (no_worse & better).any(axis=1)
    return [(payload, metrics) for (payload, metrics), lost in zip(points, dominated) if not lost]
