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
  a per-key lock).  The one piece the server itself holds is the resident
  ``/v1/report`` body and the result fragments it was rendered from, each
  swapped whole by an attribute assignment, never mutated.
* **Errors are documents too.**  Every non-2xx body is
  ``{"schema_version": ..., "error": ...}`` through the same encoder, and
  unknown names answer with the repository's canonical did-you-mean hints.
* **Revalidation is free.**  The report-family endpoints (``/v1/report``,
  ``/v1/pareto``, ``/v1/summary``) tag every 200 with a strong ``ETag``
  (the SHA-256 of the exact body); a request whose ``If-None-Match``
  matches is answered ``304 Not Modified`` with no body.
* **A warm report is free too.**  ``/v1/report`` bodies run to megabytes
  over a sweep-sized tree, and re-reading and rendering one costs far more
  than the browse that decides whether anything changed.  The server keeps
  the last rendered body and its ETag resident, keyed on the request's
  :class:`repro.api.ReportScan` key; a request whose browse yields the same
  key is answered from those bytes without reading, rendering or hashing
  anything.  A request whose key differs re-reads and re-renders only the
  runs whose ``result.json`` signature no resident
  :class:`repro.api.ResultFragment` carries, then joins the fragments'
  bytes into the body in one pass and hashes it once.
  ``refresh=1`` and ``cache=0`` always rebuild from nothing.
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
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Hashable, Mapping, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro import api
from repro.utils.logging import get_logger
from repro.utils.serialization import dumps_strict
from repro.utils.text import did_you_mean as _did_you_mean

logger = get_logger("serve")

#: Query keys accepted by the report-family endpoints: the ``--filter``
#: slice keys plus the cache controls (mirroring ``--refresh``/``--no-cache``).
_REPORT_PARAMS = ("backend", "task", "method", "seed", "state", "refresh", "cache")
_COST_FIXED_PARAMS = ("backend", "task", "hw_space", "arch")

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
    return '"' + hashlib.sha256(body).hexdigest() + '"'


class ReproServer(ThreadingHTTPServer):
    """One thread per request; shared state is the runs dir, the resident cost
    tables and the resident report body with its result fragments."""

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
        #: The resident ``/v1/report`` body: ``(scan key, body, etag)``.
        self._report_body: Optional[Tuple[Hashable, bytes, str]] = None
        #: The result fragments of the last rendered report, by run relpath.
        self._fragments: Dict[str, api.ResultFragment] = {}

    def report_body(self, options: Mapping[str, Any]) -> Tuple[bytes, str]:
        """The ``/v1/report`` body and ETag for one request's query options.

        Every request browses once (:func:`repro.api.report_scan`).  When the
        scan's key equals the resident one, the stored bytes and tag are the
        answer.  Otherwise the resident body is dropped *before* the new one
        is rendered — so the process never holds two — and the body is
        rendered from the resident fragments, reading only the results whose
        signature changed.  The new fragments and body then replace the old
        ones; a thread that read the old fragments still holds a complete
        store, since neither is ever mutated.  The body is the ``bytes``
        :meth:`repro.api.ReportScan.render` joined, hashed as it is.
        ``refresh``/``cache=0`` requests always rebuild from nothing, like
        the ``--refresh``/``--no-cache`` CLI flags they mirror.
        """
        scan = api.report_scan(self.runs_dir, **options)
        resident = self._report_body
        reusable = options["use_cache"] and not options["refresh"]
        if reusable and resident is not None and resident[0] == scan.key:
            return resident[1], resident[2]
        # Drop the local reference too, or the old body outlives the render.
        resident = self._report_body = None
        fragments = scan.fragments(self._fragments if reusable else None)
        body = scan.render(fragments)
        etag = _etag(body)
        self._report_body, self._fragments = (scan.key, body, etag), fragments
        return body, etag

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
        body = _body(rendered)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_revalidated(self, body: bytes, etag: str) -> None:
        """Send a body with its strong ``ETag``, honouring ``If-None-Match``.

        The tag is the SHA-256 of the exact response body (rendered
        document + newline, see :func:`_etag`), so two byte-identical
        bodies — and only those — share a tag, regardless of which worker
        or process rendered them.  On a match the reply is a bodyless
        ``304`` carrying the same ``ETag`` (RFC 9110: a 304 has no body,
        which ``http.client``-family consumers already expect).
        """
        if self._if_none_match_hits(etag):
            self.send_response(304)
            self.send_header("ETag", etag)
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("ETag", etag)
        self.end_headers()
        self.wfile.write(body)

    def _send_revalidated_document(self, document: api._Document) -> None:
        body = _body(document.render())
        self._send_revalidated(body, _etag(body))

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
        elif path == "/v1/report":
            self._send_revalidated(*self.server.report_body(self._report_options()))
        elif path == "/v1/pareto":
            self._send_revalidated_document(
                api.pareto_document(runs, **self._report_options())
            )
        elif path == "/v1/summary":
            self._send_revalidated_document(
                api.summary_document(runs, **self._report_options())
            )
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
            self._send_document(self._cost_document())
        else:
            raise _RequestError(
                404,
                f"unknown endpoint {path!r}; available: {list(_ENDPOINTS)}"
                f"{_did_you_mean(path, [e.split(' ', 1)[1] for e in _ENDPOINTS])}",
            )

    def _cost_document(self) -> api.CostDocument:
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
        # validates the names against the backend's space (with hints).
        return api.cost_document(
            backend=backend,
            task=task,
            hw_space=hw_space,
            arch=arch,
            constraints=query or None,
            tables=self.server.cost_tables,
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
