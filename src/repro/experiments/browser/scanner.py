"""Incremental run-directory scanning: stat first, parse only what changed.

:func:`scan_runs` walks the runs root once, discovers every directory that
holds a run artefact (``config.json`` / ``result.json`` / ``checkpoint.json``
/ ``FAILED.txt``), and stats those artefacts into a *source signature*
(``(mtime_ns, size)`` per file).  A run whose signature matches its cached
:class:`~repro.experiments.browser.run_summary.RunSummary` is reused without
opening a single file; only changed, new or uncached runs are re-parsed.
Queue ``LOCK`` files never enter the signature — their mtime is the
heartbeat, so a cache keyed on it would invalidate on every step; lock
state is classified live per query instead.  The walk notes which
directories listed a ``LOCK`` (:attr:`ScanOutcome.locked`), and only those
locks are statted (one ``stat`` each, see ``RunSummary.state``).
:func:`scan_run` builds one run's summary the way the walk would, from
that run's directory alone.

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
from stat import S_ISDIR
from typing import Container, Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.experiments.browser.run_summary import (
    ARTIFACT_SET,
    LOCK_ARTIFACT,
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
    #: Relpaths of the runs whose directory listing held a ``LOCK``: the
    #: only runs whose lock :meth:`RunSummary.state` needs to stat.
    locked: Set[str] = field(default_factory=set)


def _listing(dirpath: str) -> Optional[Tuple[List[str], Dict[str, List[int]], bool]]:
    """One directory's subdirectories, artefact signature and ``LOCK`` presence.

    ``None`` when the directory cannot be listed.  Artefact stats come
    straight from the directory entries; files that vanish between the
    listing and the ``stat`` (mid-scan deletion, or a dangling symlink) are
    treated as absent.  Directory symlinks are not followed, matching
    ``os.walk``'s default.
    """
    subdirs: List[str] = []
    found: List[Tuple[str, os.DirEntry]] = []
    locked = False
    try:
        with os.scandir(dirpath) as entries:
            for entry in entries:
                # Whatever the entry is: ``RunSummary.state`` stats the path.
                locked = locked or entry.name == LOCK_ARTIFACT
                try:
                    if entry.is_dir(follow_symlinks=False):
                        subdirs.append(entry.path)
                        continue
                except OSError:  # pragma: no cover - raced directory
                    continue
                if entry.name in ARTIFACT_SET:
                    found.append((entry.name, entry))
    except OSError:
        return None  # directory vanished mid-scan
    # Signature key order follows directory order; dict equality (the
    # cache-invalidation check) is order-independent, so no sort needed.
    signature: Dict[str, List[int]] = {}
    for name, entry in found:
        try:
            stat = entry.stat()
        except OSError:
            continue
        signature[name] = [stat.st_mtime_ns, stat.st_size]
    return subdirs, signature, locked


def _discover(root: Path) -> Iterator[Tuple[str, Dict[str, List[int]], bool]]:
    """Yield ``(relpath, signature, locked)`` for every run directory under ``root``.

    One recursive ``scandir`` walk (hand-rolled: at thousand-run scale the
    walk *is* the warm path, and ``os.walk`` + per-artefact path joins +
    ``os.path.relpath`` cost more than the stats themselves), one
    :func:`_listing` per directory.
    """
    top = str(root)
    prefix_length = len(top if top.endswith(os.sep) else top + os.sep)
    stack = [top]
    while stack:
        dirpath = stack.pop()
        listing = _listing(dirpath)
        if listing is None:
            continue
        subdirs, signature, locked = listing
        # Reverse-sorted so the stack pops subdirectories in name order.
        stack.extend(sorted(subdirs, reverse=True))
        if signature:
            yield ("." if dirpath == top else dirpath[prefix_length:]), signature, locked


def _summary(
    root: Path,
    relpath: str,
    signature: Dict[str, List[int]],
    locked: bool,
    cached: Mapping[str, RunSummary],
    outcome: ScanOutcome,
) -> None:
    """File one listed run into ``outcome``: reused when its signature matches."""
    prior = cached.get(relpath)
    if prior is not None and prior.signature == signature:
        outcome.summaries[relpath] = prior
        outcome.reused += 1
    else:
        summary = summarize_run_dir(root, relpath, signature)
        if summary is None:
            return
        outcome.summaries[relpath] = summary
        outcome.parsed += 1
    if locked:
        outcome.locked.add(relpath)


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
    for relpath, signature, locked in _discover(root):
        _summary(root, relpath, signature, locked, cached, outcome)
    return outcome


def scan_run(
    root: Path,
    relpath: str,
    cached: Optional[Mapping[str, RunSummary]] = None,
) -> Optional[ScanOutcome]:
    """:func:`scan_runs` restricted to the one directory ``<root>/<relpath>``.

    The outcome holds that run alone, built exactly as a full scan would
    build it, or is ``None`` when a full scan would not list ``relpath``.
    Only ``"."`` and paths of real directories below ``root`` are listed:
    each component is checked with ``lstat``, and an empty, ``.`` or
    ``..`` component, a symlinked one, or a parent that cannot be listed
    resolves to ``None``.  No other directory is read.
    """
    root = Path(root)
    dirpath = str(root)
    if relpath != ".":
        for part in relpath.split("/"):
            if part in ("", ".", "..") or not os.access(dirpath, os.R_OK):
                return None
            dirpath = os.path.join(dirpath, part)
            try:
                if not S_ISDIR(os.lstat(dirpath).st_mode):
                    return None
            except (OSError, ValueError):  # missing, or no valid file name
                return None
    listing = _listing(dirpath)
    if listing is None:
        return None
    _, signature, locked = listing
    outcome = ScanOutcome(root=root)
    if signature:
        _summary(root, relpath, signature, locked, cached or {}, outcome)
    return outcome if outcome.summaries else None


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
    summaries: Mapping[str, RunSummary],
    root: Path,
    lock_ttl: float,
    locked: Optional[Container[str]] = None,
) -> Dict[str, Dict[str, object]]:
    """Queue state of every direct-child run directory with a ``config.json``.

    Shape and ordering match the pre-browser ``sweep_status``: entries are
    keyed by directory name in ``sorted(glob("*/config.json"))`` order
    (``pathlib`` compares component-wise, so for direct children that is
    plain name order), and in-flight states carry the checkpoint step
    (from the cached summary — the only filesystem access here is one
    ``stat`` of each lock file the scan listed, see
    :meth:`RunSummary.state` for ``locked``).
    """
    candidates = [
        relpath
        for relpath, summary in summaries.items()
        if summary.has_config and relpath != "." and "/" not in relpath
    ]
    status: Dict[str, Dict[str, object]] = {}
    for relpath in sorted(candidates):
        summary = summaries[relpath]
        state = summary.state(root, lock_ttl, locked)
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
    summary: RunSummary,
    filters: Mapping[str, str],
    root: Path,
    lock_ttl: float,
    locked: Optional[Container[str]] = None,
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
            actual = summary.state(root, lock_ttl, locked)
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
    locked: Optional[Container[str]] = None,
) -> Dict[str, RunSummary]:
    """The sub-dict of ``summaries`` surviving ``filters`` (no-op when empty)."""
    if not filters:
        return dict(summaries)
    return {
        relpath: summary
        for relpath, summary in summaries.items()
        if matches_filters(summary, filters, root, lock_ttl, locked)
    }
