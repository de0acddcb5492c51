"""The HTTP layer of ``python -m repro serve``.

Design rules:

* **Thin.**  Every response body is a :mod:`repro.api` document rendered by
  the shared strict encoder plus one trailing newline — the handler does
  routing, query parsing and status codes, nothing else.  ``GET
  /v1/report`` is therefore byte-identical to ``python -m repro report
  --format json`` on the same runs directory (``print`` adds the same
  newline).
* **Threaded, not stateful.**  ``ThreadingHTTPServer`` gives one thread per
  request; all shared mutable state lives in battle-tested layers below
  (the browser cache writes atomically with per-thread temp names, the
  work queue claims via ``O_EXCL`` locks, resident cost tables build under
  a per-key lock).  What the server itself holds — one resident answer
  per report-family endpoint, the result fragments the report was
  rendered from and the rendered ``/v1/cost`` bodies — is swapped whole
  by an assignment, never mutated in place (the cost bodies under a lock).
* **Errors are documents too.**  Every non-2xx body is
  ``{"schema_version": ..., "error": ...}`` through the same encoder, and
  unknown names answer with the repository's canonical did-you-mean hints.
* **Revalidation is free.**  The report-family endpoints (``/v1/report``,
  ``/v1/pareto``, ``/v1/summary``) tag every 200 with a strong ``ETag``
  (the SHA-256 of the exact body); a request whose ``If-None-Match``
  matches is answered ``304 Not Modified`` with no body.
* **A warm answer is free too.**  Each report-family request browses the
  tree once (:func:`repro.api.walk_tree`).  The server keeps one resident
  answer per endpoint — the body bytes, their ETag and what they were
  built from — and sends it as stored while the walk returns the very
  summary objects the answer holds, every run whose directory listed a
  ``LOCK`` keeps its live state, and (``/v1/summary``) the schedule file
  keeps its version.  Nothing is viewed, rendered or hashed.  A miss
  whose listed results kept their signatures re-renders only what queue
  state feeds: the report's ``runs``/``summary`` tail, the whole
  (small) summary, nothing of the Pareto records.  Otherwise the report
  re-reads and re-renders only the runs whose ``result.json`` signature
  no resident :class:`repro.api.ResultFragment` carries.
  ``refresh=1`` and ``cache=0`` always rebuild from nothing.  Rendered
  ``/v1/cost`` bodies, a pure function of the query, are kept in a
  bounded LRU (:data:`COST_BODIES`).
* **A run is one directory.**  ``/v1/runs/{name}`` and ``/v1/jobs/{name}``
  read ``<runs>/<name>`` alone (:func:`repro.api.run_document`); only an
  unknown name browses the tree, for its did-you-mean hint.
* **No Nagle stall.**  ``BaseHTTPRequestHandler`` writes the headers and the
  body as two ``send()`` calls; with Nagle's algorithm on, the body would
  wait for the client's delayed ACK of the headers (~40 ms on Linux), so
  every accepted socket gets ``TCP_NODELAY``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, Mapping, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro import api
from repro.experiments.browser.run_summary import RESULT_ARTIFACT
from repro.utils.logging import get_logger
from repro.utils.serialization import dumps_strict
from repro.utils.text import did_you_mean as _did_you_mean

logger = get_logger("serve")

#: Query keys accepted by the report-family endpoints: the ``--filter``
#: slice keys plus the cache controls (mirroring ``--refresh``/``--no-cache``).
_REPORT_PARAMS = ("backend", "task", "method", "seed", "state", "refresh", "cache")
_COST_FIXED_PARAMS = ("backend", "task", "hw_space", "arch")

#: Rendered ``/v1/cost`` 200 bodies the server keeps, least recently used
#: dropped first (a body is a few kilobytes).
COST_BODIES = 64

_ENDPOINTS = (
    "GET /v1/report",
    "GET /v1/pareto",
    "GET /v1/summary",
    "GET /v1/sweep/schedule",
    "GET /v1/runs/{name}",
    "GET /v1/cost",
    "POST /v1/jobs",
    "GET /v1/jobs/{name}",
)


class _RequestError(Exception):
    """A client error carrying its HTTP status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _truthy(raw: str) -> bool:
    return raw.lower() not in ("0", "false", "no", "off", "")


def _body(rendered: str) -> bytes:
    """The response bytes of a rendered document: the text plus one newline."""
    return (rendered + "\n").encode("utf-8")


def _etag(body: bytes) -> str:
    """The strong ``ETag`` of a response body: the SHA-256 of its bytes."""
    return _quoted(hashlib.sha256(body))


def _quoted(digest: Any) -> str:
    return '"' + digest.hexdigest() + '"'


def _file_version(path: Path) -> Optional[Tuple[int, int, int]]:
    """``(st_ino, st_mtime_ns, st_size)`` of ``path``, or ``None`` when absent."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return (stat.st_ino, stat.st_mtime_ns, stat.st_size)


def _filter_key(filters: Optional[Mapping[str, str]]) -> Tuple[Tuple[str, str], ...]:
    """A filter query, normalised: its sorted ``(key, value)`` pairs."""
    return tuple(sorted((filters or {}).items()))


def _result_signatures(listed: Sequence[Tuple[str, Any]]) -> Tuple[Any, ...]:
    """``(name, result.json (mtime_ns, size))`` of every run of a results listing.

    Everything a report's ``results``/``pareto`` members and a Pareto
    document render depends on, under the same trust in stat signatures
    the browser cache places (``docs/browser.md``).
    """
    return tuple((name, tuple(summary.signature[RESULT_ARTIFACT])) for name, summary in listed)


@dataclass(frozen=True)
class _Body:
    """A report-family response body and the listed results its bytes were built from."""

    #: :func:`_result_signatures` of the listed results (``()`` for the
    #: summary, which queue state feeds whole).
    results: Tuple[Any, ...]
    #: The body's bytes in sending order.
    parts: Tuple[bytes, ...]
    #: The SHA-256 of ``b"".join(parts)``.
    etag: str


@dataclass(frozen=True)
class _ReportBody(_Body):
    """A report body, prefix and tail apart, with what a tail-only rebuild needs."""

    #: The SHA-256 state over the prefix, ``parts[0]``.
    prefix_digest: Any
    #: The number of results the prefix holds.
    result_count: int


@dataclass(frozen=True)
class _Basis:
    """What a walk feeds a report-family body besides the listed results."""

    #: The normalised filter query (:func:`_filter_key`).
    filters: Tuple[Tuple[str, str], ...]
    #: The walk's summaries, unfiltered: shared objects, compared by identity.
    summaries: Mapping[str, Any]
    #: Live state of each run whose listing held a ``LOCK``.
    lock_states: Mapping[str, str]
    #: Version of ``.scheduler_state.json`` (``/v1/summary`` only).
    scheduler: Optional[Tuple[int, int, int]]

    def holds(self, walk: "_Basis") -> bool:
        """Whether ``walk`` would build the very body this basis built."""
        held = self.summaries
        return (
            walk.filters == self.filters
            and walk.lock_states == self.lock_states
            and walk.scheduler == self.scheduler
            and len(walk.summaries) == len(held)
            and all(held.get(relpath) is summary for relpath, summary in walk.summaries.items())
        )


@dataclass(frozen=True)
class _Answer:
    """One report-family endpoint's resident body and the basis it was built from."""

    basis: _Basis
    body: _Body


class ReproServer(ThreadingHTTPServer):
    """One thread per request; shared state is the runs dir, the resident cost
    tables and cost bodies, and one resident answer per report-family endpoint."""

    daemon_threads = True

    def __init__(
        self,
        server_address: Tuple[str, int],
        runs_dir: Union[str, Path],
        lock_ttl: Optional[float] = None,
    ) -> None:
        super().__init__(server_address, _Handler)
        from repro.experiments.sweep import DEFAULT_LOCK_TTL
        from repro.hwmodel.cost_model import ResidentCostTables

        self.runs_dir = Path(runs_dir)
        self.lock_ttl = DEFAULT_LOCK_TTL if lock_ttl is None else float(lock_ttl)
        self.cost_tables = ResidentCostTables()
        #: The resident answer of each report-family endpoint, by endpoint.
        self._answers: Dict[str, _Answer] = {}
        #: The result fragments of the last rendered report, by run relpath.
        self._fragments: Dict[str, api.ResultFragment] = {}
        self.cost_bodies: "OrderedDict[Hashable, bytes]" = OrderedDict()
        self._cost_lock = threading.Lock()

    def answer(self, endpoint: str, options: Mapping[str, Any]) -> _Body:
        """The body of ``/v1/<endpoint>`` (report, summary, pareto) for one request.

        Every request walks the tree once.  The live state of each run
        whose listing held a ``LOCK`` (and, for the summary, the schedule
        file's version) is taken *before* anything is built, so a lock that
        ages while a body renders makes the next request rebuild rather
        than keep a stale body.  While the resident answer's basis
        :meth:`_Basis.holds` for this walk, its body is the answer, and
        nothing is viewed, rendered or hashed.  Otherwise the endpoint's
        builder makes a new body, which replaces it.  ``refresh``/``cache=0``
        requests always rebuild from nothing, like the ``--refresh`` /
        ``--no-cache`` CLI flags they mirror.
        """
        walk = api.walk_tree(
            self.runs_dir, options["lock_ttl"], options["use_cache"], options["refresh"]
        )
        scheduler = None
        if endpoint == "summary":
            from repro.experiments.schedulers.state import state_path

            scheduler = _file_version(state_path(walk.root))
        filters = options["filters"]
        basis = _Basis(
            filters=_filter_key(filters),
            summaries=walk.summaries,
            lock_states={
                relpath: walk.summaries[relpath].state(walk.root, walk.ttl, walk.locked)
                for relpath in walk.locked
            },
            scheduler=scheduler,
        )
        reusable = options["use_cache"] and not options["refresh"]
        resident = self._answers.get(endpoint)
        if reusable and resident is not None and resident.basis.holds(basis):
            return resident.body
        # A ``cache=0`` walk's summaries are its own objects, which no later
        # walk returns: should it build the resident bytes again, the
        # resident basis, which the next plain walk can match, is kept.
        kept = None
        if not options["use_cache"] and resident is not None:
            if resident.basis.filters == basis.filters:
                kept = (resident.body.etag, resident.basis)
        resident = None  # a report build may drop the resident body first
        if endpoint == "report":
            body = self._build_report(walk, filters, reusable)
        elif endpoint == "pareto":
            body = self._build_pareto(walk, filters, reusable)
        else:
            body = self._build_summary(walk, filters)
        if kept is not None and kept[0] == body.etag:
            basis = kept[1]
        self._answers[endpoint] = _Answer(basis, body)
        return body

    def _held_body(self, endpoint: str, filters, results, reusable: bool) -> Optional[_Body]:
        """The resident body if it lists the same results under the same filters."""
        held = self._answers.get(endpoint) if reusable else None
        if held is None or held.basis.filters != _filter_key(filters):
            return None
        return held.body if held.body.results == results else None

    def _build_report(self, walk, filters, reusable: bool) -> _ReportBody:
        """The report in two parts; the prefix is kept while the listed results are.

        A miss whose listed results kept their signatures renders only the
        tail and finishes the ETag from a copy of the stored prefix's hash
        state.  Otherwise the resident body is dropped *before* the new
        prefix is rendered — so the process never holds two bodies — and
        the prefix is rendered from the resident fragments, reading only
        the results whose signature changed.  The new fragments replace the
        old ones; a thread that read the old fragments still holds a
        complete store, since neither is ever mutated.
        """
        scan = api.report_scan(walk.root, filters=filters, walk=walk)
        results = _result_signatures(scan.listed)
        held = self._held_body("report", filters, results, reusable)
        if held is not None:
            prefix, digest, count = held.parts[0], held.prefix_digest, held.result_count
            held = None
        else:
            self._answers.pop("report", None)
            fragments = scan.fragments(self._fragments if reusable else None)
            prefix, count = scan.render_prefix(fragments), len(fragments)
            digest = hashlib.sha256(prefix)
            self._fragments = fragments
        tail = scan.render_tail(count)
        full = digest.copy()
        full.update(tail)
        return _ReportBody(results, (prefix, tail), _quoted(full), digest, count)

    def _build_pareto(self, walk, filters, reusable: bool) -> _Body:
        """The Pareto body, kept while the listed results are."""
        results = _result_signatures(walk.listed(filters))
        held = self._held_body("pareto", filters, results, reusable)
        if held is not None:
            return held
        body = _body(api.pareto_document(walk.root, filters=filters, walk=walk).render())
        return _Body(results, (body,), _etag(body))

    def _build_summary(self, walk, filters) -> _Body:
        """The summary body: queue state feeds all of it, so it is rebuilt."""
        body = _body(api.summary_document(walk.root, filters=filters, walk=walk).render())
        return _Body((), (body,), _etag(body))

    def cost_body(self, key: Hashable, build: Callable[[], api.CostDocument]) -> bytes:
        """The ``/v1/cost`` 200 body of a normalised query ``key``, rendered once.

        ``build`` makes the document on a miss; an error it raises (a 4xx)
        propagates and nothing is stored.
        """
        with self._cost_lock:
            body = self.cost_bodies.get(key)
            if body is not None:
                self.cost_bodies.move_to_end(key)
                return body
        body = _body(build().render())
        with self._cost_lock:
            self.cost_bodies[key] = body
            self.cost_bodies.move_to_end(key)
            while len(self.cost_bodies) > COST_BODIES:
                self.cost_bodies.popitem(last=False)
        return body

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def create_server(
    runs_dir: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 8000,
    lock_ttl: Optional[float] = None,
) -> ReproServer:
    """Bind a :class:`ReproServer` (``port=0`` picks a free port for tests)."""
    return ReproServer((host, port), runs_dir, lock_ttl=lock_ttl)


class _Handler(BaseHTTPRequestHandler):
    server: ReproServer  # narrowed from BaseHTTPRequestHandler's annotation

    protocol_version = "HTTP/1.1"
    # Headers and body go out as two send()s; see "No Nagle stall" above.
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002 - stdlib signature
        logger.info("%s %s", self.address_string(), format % args)

    def _send_document(self, document: api._Document, status: int = 200) -> None:
        self._send_json(document.render(), status)

    def _send_json(self, rendered: str, status: int) -> None:
        self._send_body(_body(rendered), status)

    def _send_body(self, body: bytes, status: int = 200) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_revalidated(self, body: _Body) -> None:
        """Send a body with its strong ``ETag``, honouring ``If-None-Match``.

        The tag is the SHA-256 of the exact response body (rendered
        document + newline, see :func:`_etag`), so two byte-identical
        bodies — and only those — share a tag, regardless of which worker
        or process rendered them.  On a match the reply is a bodyless
        ``304`` carrying the same ``ETag`` (RFC 9110: a 304 has no body,
        which ``http.client``-family consumers already expect).
        """
        if self._if_none_match_hits(body.etag):
            self.send_response(304)
            self.send_header("ETag", body.etag)
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(sum(len(part) for part in body.parts)))
        self.send_header("ETag", body.etag)
        self.end_headers()
        # The parts go out as they are held: joining them would copy the body.
        for part in body.parts:
            self.wfile.write(part)

    def _if_none_match_hits(self, etag: str) -> bool:
        """Whether the request's ``If-None-Match`` matches ``etag``.

        Implements the RFC 9110 grammar the header allows: ``*`` (any
        representation), a comma-separated tag list, and weak ``W/``
        prefixes — weak comparison suffices for 304 revalidation, so
        ``W/"x"`` matches ``"x"``.
        """
        raw = self.headers.get("If-None-Match")
        if raw is None:
            return False
        if raw.strip() == "*":
            return True
        for candidate in raw.split(","):
            candidate = candidate.strip()
            if candidate.startswith("W/"):
                candidate = candidate[2:].strip()
            if candidate == etag:
                return True
        return False

    def _send_error_document(self, status: int, message: str) -> None:
        self._send_json(
            dumps_strict({"schema_version": api.SCHEMA_VERSION, "error": message}), status
        )

    def _query(self) -> Dict[str, str]:
        """The query string as a flat dict (last value of a repeated key wins)."""
        parsed = parse_qs(urlsplit(self.path).query, keep_blank_values=True)
        return {key: values[-1] for key, values in parsed.items()}

    def _report_options(self) -> Dict[str, Any]:
        """Translate report-family query params into :mod:`repro.api` kwargs."""
        filters: Dict[str, str] = {}
        use_cache, refresh = True, False
        for key, value in self._query().items():
            if key == "refresh":
                refresh = _truthy(value)
            elif key == "cache":
                use_cache = _truthy(value)
            elif key in _REPORT_PARAMS:
                filters[key] = value
            else:
                raise _RequestError(
                    400,
                    f"unknown query parameter {key!r}; expected one of "
                    f"{list(_REPORT_PARAMS)}{_did_you_mean(key, _REPORT_PARAMS)}",
                )
        return {
            "lock_ttl": self.server.lock_ttl,
            "use_cache": use_cache,
            "refresh": refresh,
            "filters": filters or None,
        }

    # -- routing --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        try:
            self._route_get()
        except _RequestError as error:
            self._send_error_document(error.status, str(error))
        except api.UnknownRunError as error:
            self._send_error_document(404, str(error))
        except ValueError as error:
            self._send_error_document(400, str(error))
        except Exception as error:  # the server must outlive any one request
            logger.exception("GET %s failed", self.path)
            self._send_error_document(500, f"internal error: {error}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            self._route_post()
        except _RequestError as error:
            self._send_error_document(error.status, str(error))
        except api.JobConflictError as error:
            self._send_error_document(409, str(error))
        except ValueError as error:
            self._send_error_document(400, str(error))
        except Exception as error:
            logger.exception("POST %s failed", self.path)
            self._send_error_document(500, f"internal error: {error}")

    def _route_get(self) -> None:
        path = urlsplit(self.path).path.rstrip("/") or "/"
        runs = self.server.runs_dir
        if path == "/":
            self._send_json(
                dumps_strict(
                    {"schema_version": api.SCHEMA_VERSION, "endpoints": list(_ENDPOINTS)}
                ),
                200,
            )
        elif path in ("/v1/report", "/v1/pareto", "/v1/summary"):
            endpoint = path[len("/v1/") :]
            self._send_revalidated(self.server.answer(endpoint, self._report_options()))
        elif path == "/v1/sweep/schedule":
            self._send_document(
                api.schedule_document(runs, lock_ttl=self.server.lock_ttl)
            )
        elif path.startswith("/v1/runs/"):
            name = path[len("/v1/runs/") :]
            self._send_document(
                api.run_document(runs, name, lock_ttl=self.server.lock_ttl)
            )
        elif path.startswith("/v1/jobs/"):
            name = path[len("/v1/jobs/") :]
            self._send_document(
                api.job_document(runs, name, lock_ttl=self.server.lock_ttl)
            )
        elif path == "/v1/cost":
            self._send_body(self._cost_body())
        else:
            raise _RequestError(
                404,
                f"unknown endpoint {path!r}; available: {list(_ENDPOINTS)}"
                f"{_did_you_mean(path, [e.split(' ', 1)[1] for e in _ENDPOINTS])}",
            )

    def _cost_body(self) -> bytes:
        """The ``/v1/cost`` body of the request's query, rendered once per query."""
        query = self._query()
        backend = query.pop("backend", "eyeriss")
        task = query.pop("task", "cifar")
        hw_space = query.pop("hw_space", "tiny")
        arch = None
        raw_arch = query.pop("arch", None)
        if raw_arch is not None:
            try:
                arch = [int(token) for token in raw_arch.split(",") if token.strip()]
            except ValueError:
                raise _RequestError(
                    400, f"arch expects comma-separated integers, got {raw_arch!r}"
                ) from None
        # Whatever remains constrains backend design fields; api.cost_document
        # validates the names against the backend's space (with hints), and
        # filters by every constraint, so their order does not matter.
        arch_key = None if arch is None else tuple(arch)
        key = (backend, task, hw_space, arch_key, tuple(sorted(query.items())))
        return self.server.cost_body(
            key,
            lambda: api.cost_document(
                backend=backend,
                task=task,
                hw_space=hw_space,
                arch=arch,
                constraints=query or None,
                tables=self.server.cost_tables,
            ),
        )

    def _route_post(self) -> None:
        path = urlsplit(self.path).path.rstrip("/")
        if path != "/v1/jobs":
            raise _RequestError(404, f"unknown POST endpoint {path!r}; available: POST /v1/jobs")
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise _RequestError(400, "invalid Content-Length header") from None
        raw = self.rfile.read(length) if length > 0 else b""
        if not raw:
            raise _RequestError(400, "empty body; POST an ExperimentConfig JSON object")
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _RequestError(400, f"body is not valid JSON: {error}") from None
        config = api.submit_job(self.server.runs_dir, payload)
        self._send_document(
            api.job_document(self.server.runs_dir, config.name, lock_ttl=self.server.lock_ttl),
            status=201,
        )
