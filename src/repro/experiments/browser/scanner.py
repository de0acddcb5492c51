"""Incremental run-directory scanning: stat first, parse only what changed.

:func:`scan_runs` walks the runs root once, discovers every directory that
holds a run artefact (``config.json`` / ``result.json`` / ``checkpoint.json``
/ ``FAILED.txt``), and stats those artefacts into a *source signature*
(``(mtime_ns, size)`` per file).  A run whose signature matches its cached
:class:`~repro.experiments.browser.run_summary.RunSummary` is reused without
opening a single file; only changed, new or uncached runs are re-parsed.
Queue ``LOCK`` files never enter the signature — their mtime is the
heartbeat, so a cache keyed on it would invalidate on every step; lock
state is classified live per query instead (one ``stat``, see
``RunSummary.state``).

The two report views derive from one scan:

* :func:`results_view` — every run with a usable ``result.json``, at any
  depth, ordered exactly as the pre-browser ``sorted(root.rglob(...))``
  walk (so reports are byte-identical);
* :func:`status_view` — the work-queue state of every direct-child run
  directory with a ``config.json``, ordered as the pre-browser
  ``sorted(root.glob("*/config.json"))``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.experiments.browser.run_summary import (
    ARTIFACT_SET,
    RESULT_ARTIFACT,
    RunSummary,
    summarize_run_dir,
)
from repro.utils.text import did_you_mean as _did_you_mean


@dataclass
class ScanOutcome:
    """What one :func:`scan_runs` pass produced."""

    root: Path
    summaries: Dict[str, RunSummary] = field(default_factory=dict)
    #: Runs re-parsed because they were new, changed, or uncached.
    parsed: int = 0
    #: Runs served from the cache without touching their artefacts.
    reused: int = 0


def _discover(root: Path) -> Iterator[Tuple[str, Dict[str, List[int]]]]:
    """Yield ``(relpath, signature)`` for every run directory under ``root``.

    One recursive ``scandir`` walk (hand-rolled: at thousand-run scale the
    walk *is* the warm path, and ``os.walk`` + per-artefact path joins +
    ``os.path.relpath`` cost more than the stats themselves).  Artefact
    stats come straight from the directory entries; files that vanish
    between the listing and the ``stat`` (mid-scan deletion, or a dangling
    symlink) are treated as absent.  Directory symlinks are not followed,
    matching ``os.walk``'s default.
    """
    top = str(root)
    prefix_length = len(top if top.endswith(os.sep) else top + os.sep)
    stack = [top]
    while stack:
        dirpath = stack.pop()
        subdirs: List[str] = []
        found: List[Tuple[str, os.DirEntry]] = []
        try:
            with os.scandir(dirpath) as entries:
                for entry in entries:
                    try:
                        if entry.is_dir(follow_symlinks=False):
                            subdirs.append(entry.path)
                            continue
                    except OSError:  # pragma: no cover - raced directory
                        continue
                    if entry.name in ARTIFACT_SET:
                        found.append((entry.name, entry))
        except OSError:
            continue  # directory vanished mid-scan
        # Reverse-sorted so the stack pops subdirectories in name order.
        stack.extend(sorted(subdirs, reverse=True))
        if not found:
            continue
        # Signature key order follows directory order; dict equality (the
        # cache-invalidation check) is order-independent, so no sort needed.
        signature: Dict[str, List[int]] = {}
        for name, entry in found:
            try:
                stat = entry.stat()
            except OSError:
                continue
            signature[name] = [stat.st_mtime_ns, stat.st_size]
        if not signature:
            continue
        yield ("." if dirpath == top else dirpath[prefix_length:]), signature


def scan_runs(
    root: Path,
    cached: Optional[Mapping[str, RunSummary]] = None,
) -> ScanOutcome:
    """Single-pass incremental scan of every run directory under ``root``.

    ``cached`` maps relpaths to previously-built summaries (typically from
    :class:`~repro.experiments.browser.cache.BrowserCache`); a run is
    re-parsed only when its signature differs.  Runs present in the cache
    but gone from disk simply drop out of the outcome.
    """
    root = Path(root)
    outcome = ScanOutcome(root=root)
    cached = cached or {}
    for relpath, signature in _discover(root):
        prior = cached.get(relpath)
        if prior is not None and prior.signature == signature:
            outcome.summaries[relpath] = prior
            outcome.reused += 1
            continue
        summary = summarize_run_dir(root, relpath, signature)
        if summary is not None:
            outcome.summaries[relpath] = summary
            outcome.parsed += 1
    return outcome


# ----------------------------------------------------------------------
# Report views over one scan
# ----------------------------------------------------------------------
def run_name(root: Path, relpath: str) -> str:
    """Display name of a run: its relpath, or the resolved directory name
    when the scan root itself is the run directory."""
    if relpath == ".":
        return Path(root).resolve().name
    return relpath


def results_view(
    summaries: Mapping[str, RunSummary], root: Path
) -> List[Tuple[str, RunSummary]]:
    """``(name, summary)`` of every run with a usable result, report-ordered.

    The sort key is the path of the run's ``result.json`` relative to the
    root, compared *component-wise* — ``pathlib.Path`` ordering, so this is
    the exact order ``sorted(root.rglob("result.json"))`` produced before
    the browser existed and tables list runs identically (flat-string
    comparison would differ: ``"a-run" < "a-run-b"`` as path parts, but
    ``"a-run-b/..." < "a-run/..."`` as strings, since ``"-" < "/"``).
    """

    def sort_key(relpath: str) -> Tuple[str, ...]:
        if relpath == ".":
            return (RESULT_ARTIFACT,)
        return (*relpath.split("/"), RESULT_ARTIFACT)

    usable = [
        relpath
        for relpath, summary in summaries.items()
        if summary.has_result and not summary.corrupt
    ]
    return [(run_name(root, relpath), summaries[relpath]) for relpath in sorted(usable, key=sort_key)]


def status_view(
    summaries: Mapping[str, RunSummary], root: Path, lock_ttl: float
) -> Dict[str, Dict[str, object]]:
    """Queue state of every direct-child run directory with a ``config.json``.

    Shape and ordering match the pre-browser ``sweep_status``: entries are
    keyed by directory name in ``sorted(glob("*/config.json"))`` order
    (``pathlib`` compares component-wise, so for direct children that is
    plain name order), and in-flight states carry the checkpoint step
    (from the cached summary — the only filesystem access here is one
    ``stat`` of each lock file).
    """
    candidates = [
        relpath
        for relpath, summary in summaries.items()
        if summary.has_config and relpath != "." and "/" not in relpath
    ]
    status: Dict[str, Dict[str, object]] = {}
    for relpath in sorted(candidates):
        summary = summaries[relpath]
        state = summary.state(root, lock_ttl)
        entry: Dict[str, object] = {"state": state}
        if state in ("checkpointed", "running", "stale", "retired", "failed", "corrupt"):
            entry["step"] = summary.checkpoint_step
        status[relpath] = entry
    return status


# ----------------------------------------------------------------------
# Slicing: --filter backend=...,task=...
# ----------------------------------------------------------------------
#: Keys accepted by ``report --filter`` (values compare as strings).
FILTER_KEYS = ("backend", "task", "method", "seed", "state")


def parse_filters(specs) -> Dict[str, str]:
    """Parse repeatable ``key=value[,key=value]`` filter specs into a dict."""
    filters: Dict[str, str] = {}
    for spec in specs or ():
        for pair in str(spec).split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, separator, value = pair.partition("=")
            key = key.strip()
            if not separator or not value:
                raise ValueError(f"--filter expects KEY=VALUE, got {pair!r}")
            if key not in FILTER_KEYS:
                hint = _did_you_mean(key, FILTER_KEYS)
                raise ValueError(
                    f"unknown filter key {key!r}; expected one of {list(FILTER_KEYS)}{hint}"
                )
            filters[key] = value.strip()
    return filters


def matches_filters(
    summary: RunSummary, filters: Mapping[str, str], root: Path, lock_ttl: float
) -> bool:
    """Whether a summary survives a ``--filter`` slice.

    ``backend`` matches the run's config backend (falling back to the saved
    result's); ``method`` matches either the config's CLI key (``dance``)
    or the result's display name; ``state`` classifies live.
    """
    for key, wanted in filters.items():
        if key == "backend":
            actual = summary.backend_label
        elif key == "task":
            actual = summary.task
        elif key == "seed":
            actual = None if summary.seed is None else str(summary.seed)
        elif key == "state":
            actual = summary.state(root, lock_ttl)
        else:  # method: accept the config key or the display name
            if wanted in (summary.method, summary.result_method):
                continue
            return False
        if actual != wanted:
            return False
    return True


def filter_summaries(
    summaries: Mapping[str, RunSummary],
    filters: Optional[Mapping[str, str]],
    root: Path,
    lock_ttl: float,
) -> Dict[str, RunSummary]:
    """The sub-dict of ``summaries`` surviving ``filters`` (no-op when empty)."""
    if not filters:
        return dict(summaries)
    return {
        relpath: summary
        for relpath, summary in summaries.items()
        if matches_filters(summary, filters, root, lock_ttl)
    }
