"""``repro.api`` — the one versioned facade over every report/serve surface.

Before this module, each machine-readable surface (``report --format json``,
``--summary``, the Pareto records) was an ad-hoc dict assembled inside
:class:`~repro.experiments.runner.Runner`, and a third-party consumer had no
stability contract.  This facade defines the contract:

* every response is a frozen *document* dataclass carrying
  ``schema_version`` (:data:`SCHEMA_VERSION`) as its first key;
* every document renders through the one strict-RFC-8259 encoder
  (:func:`repro.utils.serialization.dumps_strict`), so the CLI
  (``print(document.render())``) and the :mod:`repro.serve` HTTP server
  (``document.render() + "\\n"``) emit byte-identical JSON for the same
  runs directory — asserted end-to-end by ``tests/test_serve.py`` and the
  CI serve smoke job.  A document holds its values as built, non-finite
  floats included: ``render()`` nulls them as it encodes, and
  ``to_dict()`` returns a nulled copy;
* builder functions (:func:`report_document`, :func:`pareto_document`,
  :func:`summary_document`, :func:`run_document`, :func:`cost_document`,
  :func:`submit_job`) are the single implementation both the CLI and the
  server call (``Runner`` keeps only the text renderers).
  :func:`report_document` is :func:`report_scan` followed by
  :meth:`ReportScan.document`.  The CLI and the server render the report
  body through :meth:`ReportScan.render` instead, from one
  :class:`ResultFragment` per run; the server renders it in two parts
  (:meth:`ReportScan.render_prefix` and :meth:`ReportScan.render_tail`)
  and keeps the fragments, so that a changed tree re-reads only the
  results that changed and a queue-state change re-renders only the tail.
  The report-family builders take the :class:`TreeWalk` of a browse the
  caller already made (``walk=``), so the server builds from the one walk
  it checked its resident answers against.  :func:`run_document` reads
  the one run directory it names
  (:func:`repro.experiments.browser.scan_run`).

Schema policy: additive changes (new keys) keep the version; renaming or
removing a key, or changing a value's meaning, bumps :data:`SCHEMA_VERSION`
for *all* documents (one version, one contract — see ``docs/serve.md``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.utils.serialization import dumps_strict, json_safe, load_json
from repro.utils.text import did_you_mean as _did_you_mean

#: Version stamped into every document this facade emits.  Bumped only on a
#: breaking change to any document shape; additive keys keep it.
SCHEMA_VERSION = 1


class UnknownRunError(LookupError):
    """A run/job name that does not exist under the runs directory."""


class JobConflictError(RuntimeError):
    """A job submission naming a run directory that already exists."""


# ----------------------------------------------------------------------
# Documents
# ----------------------------------------------------------------------
class _Document:
    """Shared rendering of the versioned response dataclasses."""

    def _members(self) -> Dict[str, Any]:
        """The document's keys and values as built (non-finite floats kept)."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """The document as plain JSON values: a copy, non-finite floats nulled."""
        return json_safe(self._members())

    def render(self) -> str:
        """The canonical JSON text of this document (no trailing newline).

        The CLI prints it (stdout gains the newline from ``print``); the
        server sends ``render() + "\\n"`` — so the two byte streams agree.
        ``dumps_strict`` nulls non-finite floats as it renders, so the text
        is ``json.dumps(self.to_dict(), indent=2, allow_nan=False)``
        without the copy.
        """
        return dumps_strict(self._members())


@dataclass(frozen=True)
class ReportDocument(_Document):
    """``report --format json`` / ``GET /v1/report``: results + queue status."""

    root: str
    results: List[Dict[str, Any]]
    pareto: List[Dict[str, Any]]
    runs: Dict[str, Dict[str, Any]]
    summary: Dict[str, Any]

    def _members(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "root": self.root,
            "results": self.results,
            "pareto": self.pareto,
            "runs": self.runs,
            "summary": self.summary,
        }


@dataclass(frozen=True)
class ParetoDocument(_Document):
    """``report --pareto --format json`` / ``GET /v1/pareto``."""

    root: str
    records: List[Dict[str, Any]]

    def _members(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "root": self.root,
            "records": self.records,
        }


@dataclass(frozen=True)
class SummaryDocument(_Document):
    """``report --summary --format json`` / ``GET /v1/summary``.

    ``scheduler`` is the per-rung tally block of an adaptive sweep
    (``.scheduler_state.json`` present under the root, see
    ``docs/schedulers.md``), or ``None`` for plain grid sweeps — an
    additive key, so the schema version is unchanged.
    """

    root: str
    runs: int
    states: Dict[str, int]
    slices: List[Dict[str, Any]]
    scheduler: Optional[Dict[str, Any]] = None

    def _members(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "root": self.root,
            "runs": self.runs,
            "states": self.states,
            "slices": self.slices,
            "scheduler": self.scheduler,
        }


@dataclass(frozen=True)
class ScheduleDocument(_Document):
    """``GET /v1/sweep/schedule``: the adaptive-sweep promotion ladder.

    ``scheduler`` is the same per-rung tally block as
    :class:`SummaryDocument`; ``candidates`` lists every candidate with its
    current rung, queue state, sticky decision and per-rung scores.  Both
    are empty (``None`` / ``[]``) when the runs directory holds no
    ``.scheduler_state.json``.
    """

    root: str
    scheduler: Optional[Dict[str, Any]]
    candidates: List[Dict[str, Any]]

    def _members(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "root": self.root,
            "scheduler": self.scheduler,
            "candidates": self.candidates,
        }


@dataclass(frozen=True)
class RunDocument(_Document):
    """One run (or queued job) with its live queue state.

    ``result`` is the run's full ``result.json`` payload when finished and
    parseable, else ``None`` — the lean states (pending / running / ...)
    need no artefact reads on a warm cache.
    """

    root: str
    name: str
    state: str
    step: Optional[int]
    method: Optional[str]
    task: Optional[str]
    backend: Optional[str]
    seed: Optional[int]
    result: Optional[Dict[str, Any]]

    def _members(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "root": self.root,
            "name": self.name,
            "state": self.state,
            "step": self.step,
            "method": self.method,
            "task": self.task,
            "backend": self.backend,
            "seed": self.seed,
            "result": self.result,
        }


@dataclass(frozen=True)
class CostDocument(_Document):
    """``GET /v1/cost``: per-layer cost breakdown from a resident cost table."""

    backend: str
    task: str
    hw_space: str
    arch: List[int]
    config: Dict[str, Any]
    configs_matched: int
    layers: List[Dict[str, Any]]
    totals: Dict[str, float]

    def _members(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "backend": self.backend,
            "task": self.task,
            "hw_space": self.hw_space,
            "arch": self.arch,
            "config": self.config,
            "configs_matched": self.configs_matched,
            "layers": self.layers,
            "totals": self.totals,
        }


# ----------------------------------------------------------------------
# Shared browse plumbing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TreeWalk:
    """One browse of a runs directory: every run it found, unfiltered.

    ``summaries`` maps relpaths to the browser's shared, read-only
    :class:`~repro.experiments.browser.RunSummary` objects — a warm browse
    returns the very objects the previous one did — and ``locked`` holds
    the relpaths whose directory listed a ``LOCK``, the only runs whose
    state needs a ``stat``.  ``ttl`` is the lock ttl states are classified
    with.
    """

    root: Path
    summaries: Dict[str, Any]
    locked: Set[str]
    ttl: float

    def filtered(self, filters: Optional[Mapping[str, str]]) -> Dict[str, Any]:
        """The summaries surviving a ``--filter`` slice (all of them without one)."""
        from repro.experiments.browser import filter_summaries

        return filter_summaries(self.summaries, filters, self.root, self.ttl, self.locked)

    def listed(self, filters: Optional[Mapping[str, str]]) -> List[Tuple[str, Any]]:
        """``(name, summary)`` of every filtered run with a usable result, report-ordered."""
        from repro.experiments.browser import results_view

        return results_view(self.filtered(filters), self.root)


def walk_tree(
    root: Union[str, Path],
    lock_ttl: Optional[float] = None,
    use_cache: bool = True,
    refresh: bool = False,
) -> TreeWalk:
    """One incremental-browser scan of ``root`` (see :func:`repro.experiments.browser.browse`)."""
    from repro.experiments.browser import browse

    root = Path(root)
    outcome = browse(root, use_cache=use_cache, refresh=refresh)
    return TreeWalk(root, outcome.summaries, outcome.locked, _ttl(lock_ttl))


def _ttl(lock_ttl: Optional[float]) -> float:
    from repro.experiments.sweep import DEFAULT_LOCK_TTL

    return DEFAULT_LOCK_TTL if lock_ttl is None else lock_ttl


def run_states(
    root: Union[str, Path],
    lock_ttl: Optional[float] = None,
    use_cache: bool = True,
    refresh: bool = False,
    filters: Optional[Mapping[str, str]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Queue state of every direct-child run directory (``config.json`` marker).

    The facade home of what ``sweep_status`` computes: artefact flags and
    checkpoint steps come from the mtime-cached summaries, only the
    ``LOCK`` files the scan listed are statted live.
    """
    from repro.experiments.browser import status_view

    walk = walk_tree(root, lock_ttl, use_cache, refresh)
    return status_view(walk.filtered(filters), walk.root, walk.ttl, walk.locked)


# ----------------------------------------------------------------------
# Builders: report / pareto / summary
# ----------------------------------------------------------------------
def pareto_records(named_results: Sequence[Tuple[str, Any]]) -> List[Dict[str, Any]]:
    """Error-vs-EDAP records of finished runs, flagging the Pareto front.

    Dominance is computed with :func:`repro.hwmodel.metrics.pareto_front`
    over ``(error, EDAP)``; runs without an accuracy
    (``retrain_final=false``) have no error coordinate and are excluded.
    Records are sorted by EDAP, so the surviving points read as the
    Figure-5 front left to right.  Each result needs only ``method``,
    ``backend_name``, ``accuracy``, ``error`` and ``edap``: a
    :class:`~repro.core.results.SearchResult` or a :class:`ResultFragment`.
    """
    from repro.hwmodel.metrics import HardwareMetrics, pareto_front

    named = [
        (name, result) for name, result in named_results if result.accuracy is not None
    ]
    # Index payloads keep front membership per *run*, immune to any name
    # collision between results passed in by a caller.
    points = [
        (index, HardwareMetrics(result.error, result.edap, 0.0))
        for index, (_, result) in enumerate(named)
    ]
    front = {index for index, _ in pareto_front(points)}
    records = [
        {
            "run": name,
            "method": result.method,
            "backend": result.backend_name,
            "accuracy": result.accuracy,
            "error": result.error,
            "edap": result.edap,
            "on_front": index in front,
        }
        for index, (name, result) in enumerate(named)
    ]
    return sorted(records, key=lambda record: (record["edap"], record["error"]))


def pareto_document(
    root: Union[str, Path],
    lock_ttl: Optional[float] = None,
    use_cache: bool = True,
    refresh: bool = False,
    filters: Optional[Mapping[str, str]] = None,
    walk: Optional[TreeWalk] = None,
) -> ParetoDocument:
    """Pareto records of every finished run under ``root`` (browser-served).

    ``walk`` is a browse of ``root`` already made for this answer; without
    one, ``root`` is browsed with the given options.
    """
    if walk is None:
        walk = walk_tree(root, lock_ttl, use_cache, refresh)
    named = [(name, summary.to_result()) for name, summary in walk.listed(filters)]
    return ParetoDocument(root=str(walk.root), records=pareto_records(named))


def _nested(text: str, depth: int) -> str:
    """Re-indent JSON text rendered at the top level to sit ``depth`` levels deep.

    ``json.dumps(indent=2)`` starts every line but the first with two spaces
    per nesting level, and escapes every newline inside a string, so adding
    ``2 * depth`` spaces after each newline gives the bytes the nested
    rendering would.
    """
    return text.replace("\n", "\n" + "  " * depth)


def _read_result(path: Path):
    """The :class:`~repro.core.results.SearchResult` saved at ``path``, or ``None``.

    A run whose file vanishes or is corrupted between the browser scan and
    this read is skipped rather than crashing the report.
    """
    from repro.core.results import SearchResult

    try:
        return SearchResult.from_dict(load_json(path))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
        return None


@dataclass(frozen=True)
class ResultFragment:
    """One run's entry of a report's ``results`` array, rendered once.

    ``entry`` is the entry exactly as it appears in the rendered report,
    encoded as UTF-8: ``dumps_strict(result.to_dict())`` re-indented to
    depth 2.  The other
    fields are the ones :func:`pareto_records` reads, so a report renders
    from fragments alone.  ``signature`` is the ``(mtime_ns, size)`` of the
    ``result.json`` the fragment was read from; a fragment is reused only
    while the scan still sees that signature.
    """

    signature: Tuple[int, int]
    entry: bytes
    method: str
    backend_name: str
    accuracy: Optional[float]
    error: Optional[float]
    edap: float


@dataclass(frozen=True)
class ReportScan:
    """The report view of one browse: the runs it lists and their queue states.

    :meth:`render` is the one report renderer: ``report --format json``
    writes ``scan.render(scan.fragments())`` to stdout, and the server passes the
    fragments of its previous render to :meth:`fragments`, so that only
    new or rewritten results are read.  The body splits in two at the
    ``runs`` member: :meth:`render_prefix` (head, ``results``, ``pareto``)
    depends only on the listed results, :meth:`render_tail` (``runs``,
    ``summary``) on queue state too, so a server whose listed results kept
    their ``result.json`` signatures re-renders the tail alone.
    :meth:`document` builds the same report as plain dicts.
    """

    root: Path
    listed: List[Tuple[str, Any]]
    status: Dict[str, Dict[str, Any]]

    def _path(self, summary) -> Path:
        from repro.experiments.runner import RESULT_FILE

        return self.root / summary.name / RESULT_FILE

    def _summary(self, results: int) -> Dict[str, Any]:
        states: Dict[str, int] = {}
        for entry in self.status.values():
            states[entry["state"]] = states.get(entry["state"], 0) + 1
        return {"results": results, "run_dirs": len(self.status), "states": states}

    def document(self) -> ReportDocument:
        """Read each listed ``result.json`` and build the report document.

        The browser scan decided *which* runs appear (and served the state
        table from its cache), but the ``results`` array needs the full
        payloads — ``history``, ``op_indices``, the hardware dict — so each
        listed ``result.json`` is re-read here.
        """
        named = [(name, _read_result(self._path(summary))) for name, summary in self.listed]
        named = [(name, result) for name, result in named if result is not None]
        return ReportDocument(
            root=str(self.root),
            results=[result.to_dict() for _, result in named],
            pareto=pareto_records(named),
            runs=self.status,
            summary=self._summary(len(named)),
        )

    def fragments(
        self, reuse: Optional[Mapping[str, ResultFragment]] = None
    ) -> Dict[str, ResultFragment]:
        """The :class:`ResultFragment` of every listed run, keyed by relpath.

        A fragment in ``reuse`` whose signature matches the scan's is kept;
        every other listed ``result.json`` is read and rendered.  The
        returned dict is new (``reuse`` is never mutated) and holds exactly
        the listed runs with a readable result, so its length is the
        report's result count.
        """
        from repro.experiments.browser.run_summary import RESULT_ARTIFACT

        reuse = reuse or {}
        fragments: Dict[str, ResultFragment] = {}
        for _, summary in self.listed:
            signature = tuple(summary.signature[RESULT_ARTIFACT])
            fragment = reuse.get(summary.name)
            if fragment is None or fragment.signature != signature:
                result = _read_result(self._path(summary))
                if result is None:
                    continue
                fragment = ResultFragment(
                    signature=signature,
                    entry=_nested(dumps_strict(result.to_dict()), 2).encode("utf-8"),
                    method=result.method,
                    backend_name=result.backend_name,
                    accuracy=result.accuracy,
                    error=result.error,
                    edap=result.edap,
                )
            fragments[summary.name] = fragment
        return fragments

    def _prefix_parts(self, fragments: Mapping[str, ResultFragment]) -> Tuple[List[bytes], int]:
        """The prefix's byte parts and the number of results they hold."""
        named = [
            (name, fragments[summary.name])
            for name, summary in self.listed
            if summary.name in fragments
        ]
        head = (
            f'{{\n  "schema_version": {SCHEMA_VERSION},\n'
            f'  "root": {json.dumps(str(self.root))},\n  "results": '
        )
        parts = [head.encode("utf-8")]
        separator = b"[\n    "
        for _, fragment in named:
            parts += (separator, fragment.entry)
            separator = b",\n    "
        parts.append(b"\n  ]" if named else b"[]")
        pareto = _nested(dumps_strict(pareto_records(named)), 1)
        parts.append(f',\n  "pareto": {pareto}'.encode("utf-8"))
        return parts, len(named)

    def render_prefix(self, fragments: Mapping[str, ResultFragment]) -> bytes:
        """The body up to the end of the ``pareto`` member, in UTF-8.

        The head, the listed runs' fragments in listing order (a listed run
        without a fragment had no readable result) and the Pareto records,
        in one ``bytes`` join.
        """
        parts, _ = self._prefix_parts(fragments)
        return b"".join(parts)

    def render_tail(self, results: int) -> bytes:
        """The body after :meth:`render_prefix`, for a prefix holding ``results`` results.

        The ``runs`` and ``summary`` members at depth 1, the closing brace
        and the trailing newline.
        """
        runs = _nested(dumps_strict(self.status), 1)
        summary = _nested(dumps_strict(self._summary(results)), 1)
        return f',\n  "runs": {runs},\n  "summary": {summary}\n}}\n'.encode("utf-8")

    def render(self, fragments: Mapping[str, ResultFragment]) -> bytes:
        """The report's response body: ``self.document().render() + "\\n"`` in UTF-8.

        :meth:`render_prefix` followed by :meth:`render_tail`, joined once,
        so a megabyte body is built once, not as text first.  The CLI
        writes these bytes to stdout; the server sends the two parts.
        """
        parts, results = self._prefix_parts(fragments)
        parts.append(self.render_tail(results))
        return b"".join(parts)


def report_scan(
    root: Union[str, Path],
    lock_ttl: Optional[float] = None,
    use_cache: bool = True,
    refresh: bool = False,
    filters: Optional[Mapping[str, str]] = None,
    walk: Optional[TreeWalk] = None,
) -> ReportScan:
    """The report view of one browse of ``root``: its listed runs and states.

    ``walk`` is a browse of ``root`` already made for this answer; without
    one, ``root`` is browsed with the given options.
    """
    from repro.experiments.browser import results_view, status_view

    if walk is None:
        walk = walk_tree(root, lock_ttl, use_cache, refresh)
    summaries = walk.filtered(filters)
    return ReportScan(
        root=walk.root,
        listed=results_view(summaries, walk.root),
        status=status_view(summaries, walk.root, walk.ttl, walk.locked),
    )


def report_document(
    root: Union[str, Path],
    lock_ttl: Optional[float] = None,
    use_cache: bool = True,
    refresh: bool = False,
    filters: Optional[Mapping[str, str]] = None,
) -> ReportDocument:
    """The machine-readable report: saved results plus sweep/queue status."""
    return report_scan(root, lock_ttl, use_cache, refresh, filters).document()


def summary_document(
    root: Union[str, Path],
    lock_ttl: Optional[float] = None,
    use_cache: bool = True,
    refresh: bool = False,
    filters: Optional[Mapping[str, str]] = None,
    walk: Optional[TreeWalk] = None,
) -> SummaryDocument:
    """One-shot sweep-progress aggregation over every scanned run.

    Unlike :func:`report_document`'s ``runs`` table (direct children with a
    ``config.json``, mirroring the work queue), this counts *every* run
    directory the browser discovered at any depth: overall state totals,
    plus a finished/total breakdown per ``(backend, task)`` slice.
    ``walk`` is a browse of ``root`` already made for this answer; without
    one, ``root`` is browsed with the given options.
    """
    if walk is None:
        walk = walk_tree(root, lock_ttl, use_cache, refresh)
    root, locked, ttl = walk.root, walk.locked, walk.ttl
    summaries = walk.filtered(filters)
    states: Dict[str, int] = {}
    live: Dict[str, str] = {}
    slices: Dict[Tuple[str, str], Dict[str, int]] = {}
    for relpath in sorted(summaries):
        summary = summaries[relpath]
        state = summary.state(root, ttl, locked)
        states[state] = states.get(state, 0) + 1
        live[relpath] = state
        key = (summary.backend_label or "?", summary.task or "?")
        bucket = slices.setdefault(key, {"finished": 0, "total": 0})
        bucket["total"] += 1
        if state == "finished":
            bucket["finished"] += 1
    return SummaryDocument(
        root=str(root),
        runs=len(summaries),
        states=dict(sorted(states.items())),
        slices=[
            {
                "backend": backend,
                "task": task,
                "finished": bucket["finished"],
                "total": bucket["total"],
            }
            for (backend, task), bucket in sorted(slices.items())
        ],
        scheduler=_schedule_overview(root, live),
    )


def _schedule_overview(
    root: Path, live_states: Optional[Mapping[str, str]]
) -> Optional[Dict[str, Any]]:
    """Per-rung tallies of the schedule under ``root``, or ``None``.

    A present-but-unreadable state file yields ``None`` too: the progress
    surfaces must keep reporting a sweep whose schedule got corrupted (the
    sweep workers themselves fail loudly on it).
    """
    from repro.experiments.schedulers import load_state, schedule_overview

    try:
        state = load_state(root)
    except ValueError:
        return None
    if state is None:
        return None
    return schedule_overview(state, live_states)


def schedule_document(
    root: Union[str, Path],
    lock_ttl: Optional[float] = None,
    use_cache: bool = True,
    refresh: bool = False,
) -> ScheduleDocument:
    """The adaptive-sweep schedule under ``root`` (``GET /v1/sweep/schedule``)."""
    from repro.experiments.schedulers import load_state, candidate_rows, schedule_overview

    walk = walk_tree(root, lock_ttl, use_cache, refresh)
    root, summaries, locked, ttl = walk.root, walk.summaries, walk.locked, walk.ttl
    try:
        state = load_state(root)
    except ValueError:
        state = None
    if state is None:
        return ScheduleDocument(root=str(root), scheduler=None, candidates=[])
    live = {
        relpath: summaries[relpath].state(root, ttl, locked)
        for relpath in state.candidates
        if relpath in summaries
    }
    return ScheduleDocument(
        root=str(root),
        scheduler=schedule_overview(state, live),
        candidates=candidate_rows(state, live),
    )


# ----------------------------------------------------------------------
# Builders: single runs and queued jobs
# ----------------------------------------------------------------------
def run_document(
    root: Union[str, Path],
    name: str,
    lock_ttl: Optional[float] = None,
    use_cache: bool = True,
    refresh: bool = False,
) -> RunDocument:
    """One run's live state plus (when finished) its full result payload.

    Reads ``<root>/<name>`` alone (:func:`~repro.experiments.browser.scan_run`):
    its artefacts are statted against the cached summary, which is re-parsed
    only when they changed (``refresh``/``use_cache=False``: always), and
    the browser cache file is not written.  A name a full scan would not
    list — ``..``, an absolute path, an empty component, a symlinked
    directory — resolves to nothing.  Only then is the whole tree browsed,
    for the closest-match hint of the :class:`UnknownRunError` it raises.
    """
    from repro.experiments.browser import BrowserCache, scan_run
    from repro.experiments.runner import RESULT_FILE

    root, ttl = Path(root), _ttl(lock_ttl)
    cached = BrowserCache(root).load() if use_cache and not refresh else None
    outcome = scan_run(root, name, cached)
    if outcome is not None:
        summaries, locked = outcome.summaries, outcome.locked
    else:
        walk = walk_tree(root, lock_ttl, use_cache, refresh)
        summaries, locked = walk.summaries, walk.locked
    summary = summaries.get(name)
    if summary is None:
        raise UnknownRunError(
            f"unknown run {name!r} under {root}{_did_you_mean(name, summaries)}"
        )
    state = summary.state(root, ttl, locked)
    result: Optional[Dict[str, Any]] = None
    if summary.has_result and not summary.corrupt:
        try:
            result = load_json(root / summary.name / RESULT_FILE)
        except (OSError, json.JSONDecodeError):
            result = None
    return RunDocument(
        root=str(root),
        name=name,
        state=state,
        step=summary.checkpoint_step,
        method=summary.method or summary.result_method,
        task=summary.task,
        backend=summary.backend_label,
        seed=summary.seed,
        result=result,
    )


def submit_job(root: Union[str, Path], data: Mapping[str, Any]):
    """Queue one ``ExperimentConfig`` JSON payload as a pending on-disk run.

    Writes ``<root>/<config.name>/config.json`` — exactly the marker an
    ordinary ``sweep --queue`` worker claims through the crash-safe
    :class:`~repro.experiments.sweep.WorkQueue` — and returns the validated
    config.  Raises ``ValueError`` (with did-you-mean hints, via
    ``ExperimentConfig.from_dict``) on a malformed payload and
    :class:`JobConflictError` when the run directory already holds a
    config or result.

    The payload may carry three extra, non-config keys — ``scheduler``
    (registry name), ``eta`` and ``min_steps`` — to register the run as a
    candidate of the adaptive schedule under ``root``
    (``docs/schedulers.md``).  Registration validates parameter agreement
    with any existing schedule and rejects new candidates once promotion
    decisions were made; ``scheduler: "grid"`` (and omitting the key)
    queues a plain run.
    """
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import CONFIG_FILE, RESULT_FILE

    if not isinstance(data, Mapping):
        raise ValueError(f"job payload must be a JSON object, got {type(data).__name__}")
    payload = dict(data)
    scheduler_name = payload.pop("scheduler", None)
    eta = payload.pop("eta", None)
    min_steps = payload.pop("min_steps", None)
    scheduler = None
    if scheduler_name is not None:
        from repro.experiments.schedulers import build_scheduler

        scheduler = build_scheduler(
            str(scheduler_name),
            eta=3 if eta is None else int(eta),
            min_steps=1 if min_steps is None else int(min_steps),
        )
    elif eta is not None or min_steps is not None:
        raise ValueError(
            "job payload sets eta/min_steps without a scheduler; "
            "add \"scheduler\": \"halving\" or \"asha\""
        )
    config = ExperimentConfig.from_dict(payload)
    workdir = Path(root) / config.name
    if (workdir / CONFIG_FILE).exists() or (workdir / RESULT_FILE).exists():
        raise JobConflictError(
            f"run {config.name!r} already exists under {root}; "
            f"query it via /v1/jobs/{config.name} or choose a different seed/method"
        )
    if scheduler is not None and scheduler.name != "grid":
        # Validate the registration (parameter agreement, no decisions yet)
        # BEFORE the config lands: a rejected candidate must not linger as
        # a pending run the schedule will never admit.
        from repro.experiments.schedulers import register_candidates
        from repro.experiments.sweep import DEFAULT_LOCK_TTL

        register_candidates(root, scheduler, [config.name], DEFAULT_LOCK_TTL)
    config.save(workdir / CONFIG_FILE)
    return config


def job_document(
    root: Union[str, Path],
    name: str,
    lock_ttl: Optional[float] = None,
) -> RunDocument:
    """Status of a submitted job — the same shape as :func:`run_document`.

    Jobs *are* runs (a queued job is a run directory with only a
    ``config.json``), so one document serves both.  A just-submitted job is
    visible without a refresh: a directory the cache does not hold is
    parsed.
    """
    return run_document(root, name, lock_ttl=lock_ttl)


# ----------------------------------------------------------------------
# Builder: cost queries from resident tables
# ----------------------------------------------------------------------
#: Module-level residency for callers without their own (the server keeps
#: its own instance so tests can assert build counts in isolation).
_RESIDENT_TABLES = None


def _default_tables():
    from repro.hwmodel.cost_model import ResidentCostTables

    global _RESIDENT_TABLES
    if _RESIDENT_TABLES is None:
        _RESIDENT_TABLES = ResidentCostTables()
    return _RESIDENT_TABLES


def _coerce_field_value(name: str, choices: Sequence[Any], raw: str) -> Any:
    """Coerce a query-string constraint to the field's value type."""
    for choice in choices:
        # Direct equality first: str-valued enums (e.g. Dataflow) compare
        # equal to their value while str() would give the member name.
        if choice == raw or str(choice) == raw:
            return choice
    try:
        numeric = int(raw)
    except ValueError:
        pass
    else:
        if any(choice == numeric for choice in choices):
            return numeric
    raise ValueError(
        f"value {raw!r} is not a candidate of field {name!r}; "
        f"choices: {list(choices)}"
    )


def cost_document(
    backend: str = "eyeriss",
    task: str = "cifar",
    hw_space: str = "tiny",
    arch: Optional[Sequence[int]] = None,
    constraints: Optional[Mapping[str, str]] = None,
    tables=None,
) -> CostDocument:
    """Per-layer/EDAP cost answer from a lazily-built resident cost table.

    ``backend``/``task``/``hw_space`` are validated through
    ``ExperimentConfig`` (so unknown names raise the canonical did-you-mean
    ``ValueError``); the :class:`~repro.hwmodel.cost_model.CostTable` for
    the ``(backend, task, hw_space)`` key is built once and then resident
    (µs-scale lookups thereafter).  ``arch`` defaults to the all-zeros
    architecture; ``constraints`` restricts the configuration search to
    matching field values (e.g. ``{"pe_rows": "8"}``), and the minimum-EDAP
    configuration among the matches is reported with its per-layer
    breakdown.
    """
    from repro.experiments.config import ExperimentConfig
    from repro.hwmodel.metrics import HardwareMetrics

    # Validates all three names (plus nothing else: remaining fields are
    # defaults) and raises the canonical did-you-mean errors on typos.
    config = ExperimentConfig(task=task, backend=backend, hw_space=hw_space)
    key: Hashable = (config.backend, config.task, config.hw_space)
    resident = tables if tables is not None else _default_tables()
    table = resident.get(key, lambda: _build_table(config))

    nas_space = table.nas_space
    if arch is None:
        arch = [0] * nas_space.num_searchable
    indices = nas_space.validate_indices(list(arch))

    space = table.hw_space
    field_names = list(space.field_names)
    matched = list(range(len(table.configs)))
    if constraints:
        for name, raw in constraints.items():
            if name not in field_names:
                raise ValueError(
                    f"unknown field {name!r} for backend {config.backend!r}; "
                    f"expected one of {field_names}{_did_you_mean(name, field_names)}"
                )
            wanted = _coerce_field_value(name, space.field_choices(name), str(raw))
            matched = [
                index
                for index in matched
                if table.backend.config_to_dict(table.configs[index]).get(name) == wanted
            ]
    if not matched:
        raise ValueError(
            f"no configuration of backend {config.backend!r} ({config.hw_space} space) "
            f"matches the constraints {dict(constraints or {})}"
        )

    latency, energy, area = table.metrics_per_config(indices)
    best = min(
        matched, key=lambda index: HardwareMetrics(latency[index], energy[index], area[index]).edap
    )
    best_config = table.configs[best]
    metrics = HardwareMetrics(
        latency_ms=float(latency[best]),
        energy_mj=float(energy[best]),
        area_mm2=float(area[best]),
    )
    workload = nas_space.build_workload(indices)
    layers = [
        {
            "layer": report.layer_name,
            "latency_ms": report.latency_ms,
            "energy_mj": report.energy_mj,
            "utilization": report.spatial_utilization,
        }
        for report in table.cost_model.evaluate_detailed(workload, best_config)
    ]
    return CostDocument(
        backend=config.backend,
        task=config.task,
        hw_space=config.hw_space,
        arch=[int(index) for index in indices],
        config=table.backend.config_to_dict(best_config),
        configs_matched=len(matched),
        layers=layers,
        totals={
            "latency_ms": metrics.latency_ms,
            "energy_mj": metrics.energy_mj,
            "area_mm2": metrics.area_mm2,
            "edap": metrics.edap,
        },
    )


def _build_table(config):
    """Build the (nas_space, hw_space) cost table of one validated config."""
    from repro.experiments.factory import build_hw_space, build_search_space
    from repro.hwmodel.cost_model import CostTable

    return CostTable(build_search_space(config), build_hw_space(config))


__all__ = [
    "SCHEMA_VERSION",
    "CostDocument",
    "JobConflictError",
    "ParetoDocument",
    "ReportDocument",
    "ReportScan",
    "ResultFragment",
    "RunDocument",
    "ScheduleDocument",
    "SummaryDocument",
    "TreeWalk",
    "UnknownRunError",
    "cost_document",
    "job_document",
    "pareto_document",
    "pareto_records",
    "report_document",
    "report_scan",
    "run_document",
    "run_states",
    "schedule_document",
    "submit_job",
    "summary_document",
    "walk_tree",
]
