"""Versioned on-disk summary cache under ``<runs>/.browser_cache.json``.

The cache is one JSON document::

    {
      "schema_version": 1,
      "entries": { "<relpath>": { ...RunSummary.to_dict()... }, ... }
    }

Invalidation happens at two levels:

* **Schema version** — a cache written by an older (or newer) browser whose
  ``schema_version`` differs is ignored wholesale: the next scan is cold
  and atomically rewrites the file in the current schema.  Bump
  :data:`CACHE_VERSION` whenever :class:`RunSummary`'s fields or semantics
  change.
* **Source signature** — each entry carries the ``(mtime_ns, size)`` stat
  of the run artefacts it was parsed from; the scanner compares it against
  a fresh stat and re-parses on any mismatch (see ``scanner.scan_runs``).

Robustness rules (asserted by ``tests/test_browser.py``):

* a missing, truncated, garbage or wrong-version cache file degrades to a
  cold scan — never an exception;
* individually malformed entries are skipped, the rest are kept;
* writes go through :func:`repro.utils.serialization.save_json` (atomic
  temp-file + rename), so concurrent scanners — or a scanner racing a
  sweep worker — can never observe a partially-written cache;
* a read-only runs directory silently skips the write: caching is an
  optimisation, not a requirement.

A process parses each version of the file once (:meth:`BrowserCache.load`
keeps what it parsed) and never parses a version it wrote itself
(:meth:`BrowserCache.save` seeds what it wrote), so the warm requests of a
long-lived ``serve`` process cost the stat walk, not a re-parse of the
cache.  Nor does it encode a summary twice: a save keeps each summary's
compact JSON entry, and the next save reuses the entry of every summary
it is handed again, encoding only the new ones.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Mapping, Tuple, Union

from repro.experiments.browser.run_summary import RunSummary
from repro.utils.logging import get_logger
from repro.utils.serialization import write_atomic

logger = get_logger("experiments.browser.cache")

#: Bump on any change to the summary record layout or meaning.
CACHE_VERSION = 3
CACHE_FILE = ".browser_cache.json"

#: Per cache path, the summaries last parsed from it or saved to it, the
#: ``(st_ino, st_mtime_ns, st_size)`` of the file version they belong to,
#: and — after a save — each summary's compact JSON entry
#: (``"<relpath>":{...}``) by relpath (``{}`` after a parse).  Records are
#: replaced whole, never mutated: two ``serve`` handler threads that parse
#: the same version at once store equal summaries.
_PARSED: Dict[
    str, Tuple[Tuple[int, int, int], Dict[str, RunSummary], Dict[str, bytes]]
] = {}


class BrowserCache:
    """Load/save the per-runs-directory summary cache."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.path = self.root / CACHE_FILE

    def load(self) -> Dict[str, RunSummary]:
        """Cached summaries, or ``{}`` when the cache is unusable.

        Unusable means: file missing, unreadable, not valid JSON, not the
        current schema version, or entries that are not a mapping.  Any of
        those yields a cold scan; the file is repaired by the next save.

        The file is parsed once per version: the summaries parsed from it
        (or written to it by this process's :meth:`save`) are kept in
        process, keyed on the file's ``(st_ino, st_mtime_ns,
        st_size)``, and a load that finds the same key returns them without
        reading the file.  Every rewrite renames a new file into place (see
        :meth:`save`), so it changes the inode.  The returned dict is new;
        the summaries in it are shared with every other load of the same
        version and are read-only.
        """
        key = str(self.path)
        try:
            with open(key, "rb") as handle:
                stat = os.fstat(handle.fileno())
                version = (stat.st_ino, stat.st_mtime_ns, stat.st_size)
                held = _PARSED.get(key)
                if held is not None and held[0] == version:
                    return dict(held[1])
                data = handle.read()
        except OSError:
            return {}
        summaries = self._parse(data)
        _PARSED[key] = (version, summaries, {})
        return dict(summaries)

    def _parse(self, data: bytes) -> Dict[str, RunSummary]:
        """The summaries of a cache file's bytes (``{}`` when unusable)."""
        try:
            payload = json.loads(data.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return {}
        if not isinstance(payload, dict) or payload.get("schema_version") != CACHE_VERSION:
            return {}
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            return {}
        summaries: Dict[str, RunSummary] = {}
        for relpath, record in entries.items():
            try:
                # The entry key is authoritative for the name; records
                # written by save() already agree, so the copy is rare.
                if record.get("name") != relpath:
                    record = dict(record, name=relpath)
                summaries[relpath] = RunSummary.from_dict(record)
            except (TypeError, ValueError, AttributeError):
                # One poisoned entry must not take down the cache: skip it
                # (its run is simply re-parsed) and keep the rest.
                logger.warning("skipping malformed cache entry %r in %s", relpath, self.path)
        return summaries

    def save(self, summaries: Mapping[str, RunSummary]) -> bool:
        """Atomically persist ``summaries``; ``False`` if the write failed.

        Failures (read-only directory, disk full) are logged and swallowed:
        the report that triggered the save still ran from a correct scan.

        A successful save seeds the parse memo with ``summaries``, keyed on
        the ``fstat`` :func:`write_atomic` took of the written file before
        its rename, so this process never parses its own write.  A stat of
        the path after the rename could see another writer's file; the
        pre-rename key cannot, so that file still gets parsed.  The saved
        summaries become shared and read-only, like parsed ones.

        The file is ``json.dumps(payload, separators=(",", ":"))`` of
        ``{"schema_version": ..., "entries": {relpath: to_dict()}}`` —
        compact, since it is machine-only and parse speed and size matter
        more than diffability — written as a join of one encoded entry per
        summary.  An entry is encoded once per summary object: the memo
        record keeps the entries a save wrote, and the next save reuses one
        while it is handed the very same (read-only) summary under the same
        relpath.
        """
        key = str(self.path)
        _, held, held_entries = _PARSED.get(key, (None, {}, {}))
        entries: Dict[str, bytes] = {}
        for relpath, summary in summaries.items():
            entry = held_entries.get(relpath)
            if entry is None or held[relpath] is not summary:
                record = json.dumps(summary.to_dict(), separators=(",", ":"))
                entry = f"{json.dumps(relpath)}:{record}".encode("utf-8")
            entries[relpath] = entry
        data = [
            b'{"schema_version":%d,"entries":{' % CACHE_VERSION,
            b",".join(entries.values()),
            b"}}",
        ]
        try:
            written = write_atomic(self.path, data)
        except OSError as error:
            logger.warning("could not write browser cache %s: %s", self.path, error)
            return False
        version = (written.st_ino, written.st_mtime_ns, written.st_size)
        _PARSED[key] = (version, dict(summaries), entries)
        return True
