"""One normalised, cacheable record per run directory.

A :class:`RunSummary` is the browser's unit of truth: everything the text
report, the Pareto view, the sweep-progress summary and the status table
need to know about one run, extracted once from the run's artefacts
(``config.json`` / ``result.json`` / ``checkpoint.json`` / ``FAILED.txt``)
and keyed by a *source signature* — the ``(mtime_ns, size)`` stat of every
artefact — so the scanner re-parses a run only when an artefact actually
changed.  Deliberately **not** part of the record:

* the queue ``LOCK`` file — its mtime is the heartbeat and its
  running-vs-stale meaning depends on the ``lock_ttl`` the *reader* cares
  about, so lock state is always computed live at query time via
  :meth:`RunSummary.state` (one ``stat`` of each lock the scan listed);
* heavyweight result payloads (``history``, ``op_indices``, the hardware
  field dict) — the summary keeps only the lean fields the tables and
  fronts render, so a thousand-run cache stays a few hundred kilobytes;
  ``report --format json`` re-reads the full ``result.json`` files.

Summaries are tolerant of partial, corrupt and legacy artefacts: a
truncated or garbage ``result.json`` marks the run ``corrupt`` (with the
reason) instead of raising, a pre-backend result defaults to ``eyeriss``,
and artefacts deleted mid-scan are treated as absent.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Container, Dict, List, Optional, Tuple

import numpy as np

from repro.core.results import SearchResult, stored_accuracy
from repro.hwmodel.metrics import HardwareMetrics

#: Artefact file names whose stat signature keys the cache.  ``LOCK`` is
#: intentionally excluded (see module docstring).
RESULT_ARTIFACT = "result.json"
CONFIG_ARTIFACT = "config.json"
CHECKPOINT_ARTIFACT = "checkpoint.json"
FAILED_ARTIFACT = "FAILED.txt"
RETIRED_ARTIFACT = "RETIRED.txt"
LOCK_ARTIFACT = "LOCK"
ARTIFACTS = (
    RESULT_ARTIFACT,
    CONFIG_ARTIFACT,
    CHECKPOINT_ARTIFACT,
    FAILED_ARTIFACT,
    RETIRED_ARTIFACT,
)
#: Set form for the scanner's per-directory-entry membership test.
ARTIFACT_SET = frozenset(ARTIFACTS)

#: Keys a ``result.json`` must carry to be usable by every report surface
#: (the lean tables *and* the full ``--format json`` dump).  A payload
#: missing any of them is recorded as corrupt rather than crashing half the
#: report paths.  ``backend`` is optional: pre-backend-era results default
#: to ``eyeriss``, exactly as :meth:`SearchResult.from_dict` does.
_REQUIRED_RESULT_KEYS = (
    "method",
    "op_indices",
    "accuracy",
    "hardware",
    "metrics",
    "search_seconds",
    "candidates_trained",
    "history",
)
_REQUIRED_METRIC_KEYS = ("latency_ms", "energy_mj", "area_mm2")

_STEP_PATTERN = re.compile(r'"steps_completed":\s*(\d+)')
#: The optional scheduler score a checkpoint head carries right after the
#: step count (see ``Runner._checkpoint``); a JSON number literal.
_SCORE_PATTERN = re.compile(r'"score":\s*(-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][+-]?\d+)?)')


class _SummaryHardware:
    """Minimal stand-in for a backend config on table-facade results.

    The table and Pareto formatters only read ``backend_name`` (via
    ``SearchResult.backend_name``); anything needing real hardware fields
    must load the full ``result.json``.
    """

    __slots__ = ("backend_name",)

    def __init__(self, backend_name: str) -> None:
        self.backend_name = backend_name

    def as_dict(self) -> Dict[str, Any]:
        return {}


@dataclass
class RunSummary:
    """Lean, JSON-round-trippable description of one run directory."""

    #: Root-relative run-directory path (``"."`` when the scan root itself
    #: is a run directory).
    name: str
    #: ``{artifact_name: [mtime_ns, size]}`` of every present artefact —
    #: the cache-invalidation key (lists, so a JSON round-trip compares
    #: equal to a freshly statted signature).
    signature: Dict[str, List[int]] = field(default_factory=dict)
    corrupt: bool = False
    corrupt_reason: Optional[str] = None

    # -- config.json -----------------------------------------------------
    config_digest: Optional[str] = None
    method: Optional[str] = None
    task: Optional[str] = None
    backend: Optional[str] = None
    seed: Optional[int] = None

    # -- checkpoint.json -------------------------------------------------
    checkpoint_step: Optional[int] = None
    #: Lower-is-better scheduler score from the checkpoint head (the latest
    #: history record's training signal); ``None`` when absent.
    checkpoint_score: Optional[float] = None

    # -- result.json (lean fields only) ----------------------------------
    result_method: Optional[str] = None
    result_backend: Optional[str] = None
    accuracy: Optional[float] = None
    latency_ms: Optional[float] = None
    energy_mj: Optional[float] = None
    area_mm2: Optional[float] = None
    search_seconds: Optional[float] = None
    candidates_trained: Optional[int] = None
    #: Lower-is-better scheduler score of the finished run (its final
    #: history record); ``None`` when the history carries no known signal.
    result_score: Optional[float] = None

    # -- artefact presence ------------------------------------------------
    @property
    def has_result(self) -> bool:
        return RESULT_ARTIFACT in self.signature

    @property
    def has_config(self) -> bool:
        return CONFIG_ARTIFACT in self.signature

    @property
    def has_checkpoint(self) -> bool:
        return CHECKPOINT_ARTIFACT in self.signature

    @property
    def has_failed(self) -> bool:
        return FAILED_ARTIFACT in self.signature

    @property
    def has_retired(self) -> bool:
        return RETIRED_ARTIFACT in self.signature

    @property
    def backend_label(self) -> Optional[str]:
        """Backend of the run: the config's, else the saved result's."""
        return self.backend if self.backend is not None else self.result_backend

    # -- queue state -------------------------------------------------------
    def state(
        self, root: Path, lock_ttl: float, locked: Optional[Container[str]] = None
    ) -> str:
        """Live queue state of this run (at most one ``stat``, of the lock file).

        Everything except the lock comes from the cached summary, so the
        warm path classifies a run — including its checkpoint step — with a
        single filesystem access.  ``locked`` is the set of relpaths whose
        directory listing held a ``LOCK`` (``ScanOutcome.locked`` of
        the scan this summary came from): a run outside it had no lock when
        its directory was listed, so it is classified without a ``stat``.
        ``None`` stats the lock regardless.  The lock path is a plain
        string: a report classifies every run, and two ``pathlib`` joins
        per run cost more than the ``stat``.
        """
        from repro.experiments.sweep import classify_state

        lock_age: Optional[float] = None
        if locked is None or self.name in locked:
            try:
                lock_age = time.time() - os.stat(f"{root}/{self.name}/{LOCK_ARTIFACT}").st_mtime
            except OSError:
                pass
        return classify_state(
            has_result=self.has_result,
            corrupt=self.corrupt,
            lock_age=lock_age,
            lock_ttl=lock_ttl,
            has_failed=self.has_failed,
            has_checkpoint=self.has_checkpoint,
            has_retired=self.has_retired,
        )

    # -- facade result -----------------------------------------------------
    def to_result(self) -> SearchResult:
        """A table-ready :class:`SearchResult` facade from the lean fields.

        Field for field this mirrors what ``SearchResult.from_dict`` builds
        from the run's ``result.json``, so every formatter renders the
        facade byte-identically to the fully-loaded result.  ``op_indices``
        and ``history`` are empty (no formatter reads them); use
        ``load_json(<run>/result.json)`` for the full payload.
        """
        if not self.has_result or self.corrupt:
            raise ValueError(f"run {self.name!r} has no usable result")
        return SearchResult(
            method=self.result_method,
            op_indices=np.zeros(0, dtype=np.int64),
            accuracy=self.accuracy,
            hardware=_SummaryHardware(self.result_backend),
            metrics=HardwareMetrics(
                latency_ms=self.latency_ms,
                energy_mj=self.energy_mj,
                area_mm2=self.area_mm2,
            ),
            search_seconds=self.search_seconds,
            candidates_trained=self.candidates_trained,
            history=[],
        )

    # -- cache round-trip ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in _SUMMARY_FIELDS}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSummary":
        """Rebuild a summary from its cache record (raises on malformed data,
        which the cache loader turns into a per-entry skip)."""
        try:
            # Happy path: a record written by to_dict has exactly the known
            # keys, so skip the filtering copy (it shows up on a
            # thousand-entry warm cache load).
            summary = cls(**data)
        except TypeError:
            payload = {key: value for key, value in data.items() if key in _SUMMARY_FIELDS}
            summary = cls(**payload)
        if not isinstance(summary.name, str) or not isinstance(summary.signature, dict):
            raise ValueError(f"malformed cache entry: {data!r}")
        return summary


#: Hoisted once: ``dataclasses.fields()`` per cache entry is measurable on a
#: thousand-run warm load.
_SUMMARY_FIELDS = frozenset(f.name for f in fields(RunSummary))


# ----------------------------------------------------------------------
# Parsing one run directory into a summary
# ----------------------------------------------------------------------
def _read_bytes(path: Path) -> Optional[bytes]:
    """File contents, or ``None`` if it vanished mid-scan."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def summarize_run_dir(
    root: Path, name: str, signature: Dict[str, List[int]]
) -> Optional[RunSummary]:
    """Parse one run directory's artefacts into a :class:`RunSummary`.

    ``signature`` is the stat snapshot taken *before* parsing: if a file is
    rewritten between the stat and the read, the stored (older) signature
    mismatches the file's new one and the next scan re-parses the run — the
    race degrades to one extra parse, never to a stale cache entry.
    Artefacts that disappear mid-parse are dropped from the signature; a
    run whose directory vanished entirely yields ``None``.
    """
    workdir = root / name
    summary = RunSummary(name=name, signature=dict(signature))

    if summary.has_result:
        payload = _read_bytes(workdir / RESULT_ARTIFACT)
        if payload is None:
            summary.signature.pop(RESULT_ARTIFACT, None)
        else:
            try:
                _extract_result(summary, payload)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
                summary.corrupt = True
                summary.corrupt_reason = f"{RESULT_ARTIFACT}: {error}"

    if summary.has_config:
        payload = _read_bytes(workdir / CONFIG_ARTIFACT)
        if payload is None:
            summary.signature.pop(CONFIG_ARTIFACT, None)
        else:
            summary.config_digest = hashlib.sha256(payload).hexdigest()[:16]
            try:
                _extract_config(summary, payload)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                # A broken config only loses the method/task/backend/seed
                # labels; the run's result and state still report fine.
                pass

    if summary.has_checkpoint:
        summary.checkpoint_step, summary.checkpoint_score = checkpoint_head(
            workdir / CHECKPOINT_ARTIFACT
        )
        if summary.checkpoint_step is None and not (workdir / CHECKPOINT_ARTIFACT).exists():
            summary.signature.pop(CHECKPOINT_ARTIFACT, None)

    if not summary.signature:
        return None
    return summary


def _extract_result(summary: RunSummary, payload: bytes) -> None:
    """Fill the lean result fields, validating the full-report key set."""
    data = json.loads(payload)
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    missing = [key for key in _REQUIRED_RESULT_KEYS if key not in data]
    if missing:
        raise KeyError(f"missing keys {missing}")
    metrics = data["metrics"]
    if not isinstance(metrics, dict):
        raise ValueError("metrics must be a JSON object")
    missing = [key for key in _REQUIRED_METRIC_KEYS if key not in metrics]
    if missing:
        raise KeyError(f"metrics missing keys {missing}")
    if not isinstance(data["method"], str):
        raise ValueError("method must be a string")
    # Casts mirror SearchResult.from_dict exactly; metrics stay raw JSON
    # numbers, as from_dict passes them to HardwareMetrics unconverted.
    summary.result_method = data["method"]
    summary.result_backend = data.get("backend", "eyeriss")
    summary.accuracy = stored_accuracy(data["accuracy"])
    summary.latency_ms = metrics["latency_ms"]
    summary.energy_mj = metrics["energy_mj"]
    summary.area_mm2 = metrics["area_mm2"]
    summary.search_seconds = float(data["search_seconds"])
    summary.candidates_trained = int(data["candidates_trained"])
    history = data["history"]
    if isinstance(history, list) and history:
        # rung_score tolerates any record shape and returns None for
        # unusable ones, so legacy histories cannot corrupt the summary.
        from repro.experiments.schedulers.base import rung_score

        summary.result_score = rung_score(history[-1])
    # HardwareMetrics rejects negative values at facade-construction time;
    # surface that as corruption here instead of at render time.
    HardwareMetrics(
        latency_ms=summary.latency_ms,
        energy_mj=summary.energy_mj,
        area_mm2=summary.area_mm2,
    )


def _extract_config(summary: RunSummary, payload: bytes) -> None:
    data = json.loads(payload)
    if not isinstance(data, dict):
        raise ValueError("config.json is not a JSON object")
    method = data.get("method")
    task = data.get("task")
    backend = data.get("backend")
    seed = data.get("seed")
    summary.method = method if isinstance(method, str) else None
    summary.task = task if isinstance(task, str) else None
    summary.backend = backend if isinstance(backend, str) else None
    summary.seed = int(seed) if isinstance(seed, (int, float)) and not isinstance(seed, bool) else None


def checkpoint_head(path: Path) -> Tuple[Optional[int], Optional[float]]:
    """``(steps_completed, score)`` from the head of a checkpoint file.

    Checkpoints are megabytes of JSON (network weights); ``steps_completed``
    and the optional scheduler ``score`` are written first (dict insertion
    order, see ``Runner._checkpoint``), so 256 bytes suffice without
    parsing the payload.  Any read problem — missing file, permission,
    garbage head — yields ``(None, None)``.  The scheduled sweep drain
    reads rung progress through this same function.
    """
    try:
        with path.open("r", encoding="utf-8", errors="replace") as handle:
            head = handle.read(256)
    except OSError:
        return None, None
    step_match = _STEP_PATTERN.search(head)
    if not step_match:
        return None, None
    score: Optional[float] = None
    score_match = _SCORE_PATTERN.search(head)
    if score_match:
        try:
            score = float(score_match.group(1))
        except ValueError:  # pragma: no cover - the pattern is a number
            score = None
    return int(step_match.group(1)), score
