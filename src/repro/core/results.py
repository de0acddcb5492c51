"""Result containers and table formatting for the search experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.hwmodel.backends.registry import get_backend
from repro.hwmodel.metrics import HardwareMetrics


@dataclass
class SearchResult:
    """Outcome of one search run (DANCE, a baseline, or the RL comparator).

    Attributes
    ----------
    method:
        Human-readable method name (e.g. ``"DANCE (w/ FF)"``).
    op_indices:
        The derived discrete architecture.
    accuracy:
        Validation accuracy of the derived architecture after final training;
        ``None`` when the run skipped it (``retrain_final=false``).
    hardware:
        The accelerator configuration chosen for the architecture (from the
        one-time exact hardware generation after the search).  Any backend's
        configuration type; its ``backend_name`` attribute identifies the
        design space it belongs to and is persisted alongside the fields.
    metrics:
        Oracle latency / energy / area of the architecture on ``hardware``.
    search_seconds:
        Wall-clock search time.
    candidates_trained:
        Number of candidate networks that had to be trained during search
        (1 for differentiable search, hundreds for RL).
    history:
        Optional per-epoch logging (loss terms, entropy, accuracy).
    """

    method: str
    op_indices: np.ndarray
    accuracy: Optional[float]
    hardware: object
    metrics: HardwareMetrics
    search_seconds: float
    candidates_trained: int = 1
    history: List[Dict[str, float]] = field(default_factory=list)

    @property
    def backend_name(self) -> str:
        """Registry name of the hardware backend of the chosen design."""
        return getattr(self.hardware, "backend_name", "eyeriss")

    @property
    def edap(self) -> float:
        """EDAP of the final design (paper units)."""
        return self.metrics.edap

    @property
    def error(self) -> Optional[float]:
        """Classification error (1 - accuracy), the y-axis of Figure 5."""
        return None if self.accuracy is None else 1.0 - self.accuracy

    def row(self) -> Dict[str, Any]:
        """Flat record used by the table formatters and benchmarks."""
        return {
            "method": self.method,
            "accuracy_pct": None if self.accuracy is None else 100.0 * self.accuracy,
            "latency_ms": self.metrics.latency_ms,
            "energy_mj": self.metrics.energy_mj,
            "area_mm2": self.metrics.area_mm2,
            "edap": self.metrics.edap,
            "search_seconds": self.search_seconds,
            "candidates_trained": self.candidates_trained,
            "hardware": str(self.hardware.as_dict()),
        }

    def to_dict(self) -> Dict:
        """Lossless plain-dict form (floats survive JSON round-trips bit-exactly).

        A missing accuracy is stored as NaN, the ``result.json`` token the
        golden runs pin; :meth:`from_dict` reads it back as ``None``, and
        :func:`repro.utils.serialization.dumps_strict` nulls it on every
        strict-JSON surface.
        """
        return {
            "method": self.method,
            "op_indices": [int(index) for index in self.op_indices],
            "accuracy": math.nan if self.accuracy is None else self.accuracy,
            "backend": self.backend_name,
            "hardware": self.hardware.as_dict(),
            "metrics": {
                "latency_ms": self.metrics.latency_ms,
                "energy_mj": self.metrics.energy_mj,
                "area_mm2": self.metrics.area_mm2,
            },
            "search_seconds": self.search_seconds,
            "candidates_trained": self.candidates_trained,
            "history": self.history,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SearchResult":
        """Inverse of :meth:`to_dict` (results saved before the backend era
        carry no ``backend`` key and default to ``eyeriss``)."""
        backend = get_backend(data.get("backend", "eyeriss"))
        return cls(
            method=data["method"],
            op_indices=np.asarray(data["op_indices"], dtype=np.int64),
            accuracy=stored_accuracy(data["accuracy"]),
            hardware=backend.config_from_dict(data["hardware"]),
            metrics=HardwareMetrics(
                latency_ms=data["metrics"]["latency_ms"],
                energy_mj=data["metrics"]["energy_mj"],
                area_mm2=data["metrics"]["area_mm2"],
            ),
            search_seconds=float(data["search_seconds"]),
            candidates_trained=int(data["candidates_trained"]),
            history=list(data["history"]),
        )


def stored_accuracy(value: Any) -> Optional[float]:
    """A ``result.json`` accuracy as a float, or ``None`` when it is missing.

    Runs that skipped the final retraining store NaN (or, once strict-JSON
    encoded, ``null``); both read back as ``None``.  Anything else that is
    not a number raises, as ``float`` does.
    """
    if value is None:
        return None
    accuracy = float(value)
    return accuracy if math.isfinite(accuracy) else None


def _accuracy_cell(result: SearchResult) -> str:
    """The 9-wide ``Acc.(%)`` column: a percentage, or "—" when there is none."""
    if result.accuracy is None:
        return f"{'—':>9}"
    return f"{100.0 * result.accuracy:>9.1f}"


def _method_label(result: SearchResult) -> str:
    """Method name, tagged with the backend when it is not the default.

    Cross-backend sweeps put several rows of the same method in one table;
    the tag is what keeps them tellable apart (run directories and the JSON
    report carry the same identity).
    """
    if result.backend_name == "eyeriss":
        return result.method
    return f"{result.method} [{result.backend_name}]"


def format_results_table(results: Sequence[SearchResult], title: Optional[str] = None) -> str:
    """Render search results as a fixed-width text table (Table 2 / 4 style)."""
    header = f"{'Method':<32}{'Acc.(%)':>9}{'Lat.(ms)':>10}{'En.(mJ)':>9}{'EDAP':>10}{'#Cand.':>8}"
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(header)
    lines.append("-" * len(header))
    for result in results:
        lines.append(
            f"{_method_label(result):<32}"
            f"{_accuracy_cell(result)}"
            f"{result.metrics.latency_ms:>10.2f}"
            f"{result.metrics.energy_mj:>9.2f}"
            f"{result.metrics.edap:>10.1f}"
            f"{result.candidates_trained:>8d}"
        )
    return "\n".join(lines)


def format_comparison_table(results: Sequence[SearchResult], title: Optional[str] = None) -> str:
    """Render the Table-3 style comparison (accuracy / search cost / #candidates)."""
    header = f"{'Method':<32}{'Acc.(%)':>9}{'Search(s)':>11}{'#Candidates':>13}{'Type':>10}"
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(header)
    lines.append("-" * len(header))
    for result in results:
        search_type = "gradient" if result.candidates_trained <= 1 else "RL"
        lines.append(
            f"{_method_label(result):<32}"
            f"{_accuracy_cell(result)}"
            f"{result.search_seconds:>11.1f}"
            f"{result.candidates_trained:>13d}"
            f"{search_type:>10}"
        )
    return "\n".join(lines)
