"""End-to-end coverage of the serve API (`repro.serve`) and the `repro.api`
facade behind it: endpoint round-trips against a threaded live server,
CLI-vs-HTTP byte parity on cold and warm caches, resident cost-table reuse,
job submission drained by an ordinary ``sweep --queue`` worker, malformed
requests answered with did-you-mean bodies, concurrent GETs while a
writer mutates the runs directory, the resident ``/v1/report`` body and
``TCP_NODELAY`` on accepted sockets.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import api
from repro.__main__ import main
from repro.experiments.browser import CACHE_FILE
from repro.experiments.runner import CONFIG_FILE, RESULT_FILE
from repro.experiments.sweep import LOCK_FILE, SweepPlan
from repro.serve import create_server
from repro.utils.serialization import dumps_strict, json_safe, save_json
from repro.utils.text import did_you_mean

from test_browser import config_payload, make_run, result_payload
from test_parallel_sweep import TINY_SWEEP, age_file


# ----------------------------------------------------------------------
# Live-server fixture and HTTP helpers
# ----------------------------------------------------------------------
@pytest.fixture
def runs_root(tmp_path: Path) -> Path:
    root = tmp_path / "runs"
    make_run(root, "a-run", result=result_payload(accuracy=0.42), config=config_payload())
    make_run(
        root,
        "b-run",
        result=result_payload(method="baseline", accuracy=0.6),
        config=config_payload(method="baseline", seed=1),
    )
    make_run(root, "pending-run", config=config_payload(seed=4))
    return root


@pytest.fixture
def live_server(runs_root: Path):
    """A ThreadingHTTPServer on a free port, torn down after the test."""
    server = create_server(runs_root, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def http_get(server, path: str):
    """``(status, body_text)`` of a GET against the live server."""
    try:
        with urllib.request.urlopen(server.url + path) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


def http_get_raw(server, path: str, headers=None):
    """``(status, body_bytes, headers)`` without urllib's error mapping —
    needed for 304 responses, which urllib treats as errors."""
    import http.client

    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", path, headers=headers or {})
        response = connection.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        connection.close()


def http_post(server, path: str, payload) -> tuple:
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        server.url + path,
        data=body,
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


def cli_stdout(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


# ----------------------------------------------------------------------
# Endpoint round-trips
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_index_lists_endpoints(self, live_server):
        status, body = http_get(live_server, "/")
        data = json.loads(body)
        assert status == 200
        assert data["schema_version"] == api.SCHEMA_VERSION
        assert "GET /v1/report" in data["endpoints"]

    def test_report_round_trip(self, live_server):
        status, body = http_get(live_server, "/v1/report")
        data = json.loads(body)
        assert status == 200
        assert data["schema_version"] == api.SCHEMA_VERSION
        assert {result["method"] for result in data["results"]} == {
            "DANCE (w/ FF)",
            "baseline",
        }
        assert data["summary"]["states"] == {"finished": 2, "pending": 1}
        assert [record["run"] for record in data["pareto"]]

    def test_summary_round_trip(self, live_server):
        status, body = http_get(live_server, "/v1/summary")
        data = json.loads(body)
        assert status == 200
        assert data["runs"] == 3
        assert data["states"] == {"finished": 2, "pending": 1}
        assert data["slices"] == [
            {"backend": "eyeriss", "task": "cifar", "finished": 2, "total": 3}
        ]

    def test_run_document_round_trip(self, live_server):
        status, body = http_get(live_server, "/v1/runs/a-run")
        data = json.loads(body)
        assert status == 200
        assert data["state"] == "finished"
        assert data["result"]["accuracy"] == 0.42
        status, body = http_get(live_server, "/v1/runs/pending-run")
        data = json.loads(body)
        assert (data["state"], data["result"]) == ("pending", None)

    def test_filters_slice_like_the_cli(self, live_server, runs_root):
        status, body = http_get(live_server, "/v1/report?method=baseline")
        data = json.loads(body)
        assert status == 200
        assert [result["method"] for result in data["results"]] == ["baseline"]
        assert data["summary"]["run_dirs"] == 1

    def test_unknown_run_is_404_with_hint(self, live_server):
        status, body = http_get(live_server, "/v1/runs/a-runn")
        assert status == 404
        assert "did you mean 'a-run'" in json.loads(body)["error"]

    def test_unknown_endpoint_is_404(self, live_server):
        status, body = http_get(live_server, "/v1/reprot")
        assert status == 404
        assert "/v1/report" in json.loads(body)["error"]

    def test_unknown_query_param_is_400_with_hint(self, live_server):
        status, body = http_get(live_server, "/v1/report?bakend=eyeriss")
        assert status == 400
        assert "did you mean 'backend'" in json.loads(body)["error"]


# ----------------------------------------------------------------------
# CLI-vs-HTTP byte parity
# ----------------------------------------------------------------------
class TestByteParity:
    def test_report_parity_cold_then_warm(self, live_server, runs_root, capsys):
        assert not (runs_root / CACHE_FILE).exists()  # cold: server scan seeds it
        _, cold_body = http_get(live_server, "/v1/report")
        assert (runs_root / CACHE_FILE).exists()
        cli = cli_stdout(capsys, ["--runs-dir", str(runs_root), "report", "--format", "json"])
        assert cold_body == cli
        _, warm_body = http_get(live_server, "/v1/report")  # warm: cache hit
        assert warm_body == cold_body

    def test_summary_and_pareto_parity(self, live_server, runs_root, capsys):
        for path, flag in (("/v1/summary", "--summary"), ("/v1/pareto", "--pareto")):
            _, body = http_get(live_server, path)
            cli = cli_stdout(
                capsys, ["--runs-dir", str(runs_root), "report", flag, "--format", "json"]
            )
            assert body == cli, f"{path} body differs from report {flag} --format json"

    def test_cache_control_params_match_cli_flags(self, live_server, runs_root, capsys):
        _, refreshed = http_get(live_server, "/v1/report?refresh=1")
        cli = cli_stdout(
            capsys, ["--runs-dir", str(runs_root), "report", "--format", "json", "--refresh"]
        )
        assert refreshed == cli
        _, uncached = http_get(live_server, "/v1/report?cache=0")
        cli = cli_stdout(
            capsys, ["--runs-dir", str(runs_root), "report", "--format", "json", "--no-cache"]
        )
        assert uncached == cli

    def test_filtered_parity(self, live_server, runs_root, capsys):
        _, body = http_get(live_server, "/v1/report?backend=eyeriss&task=cifar")
        cli = cli_stdout(
            capsys,
            [
                "--runs-dir",
                str(runs_root),
                "report",
                "--format",
                "json",
                "--filter",
                "backend=eyeriss,task=cifar",
            ],
        )
        assert body == cli


# ----------------------------------------------------------------------
# ETag revalidation on the report family
# ----------------------------------------------------------------------
class TestRevalidation:
    def test_etag_round_trip_and_invalidation(self, live_server, runs_root):
        status, body, headers = http_get_raw(live_server, "/v1/report")
        etag = headers["ETag"]
        assert status == 200
        assert etag.startswith('"') and etag.endswith('"')
        status, cached_body, cached_headers = http_get_raw(
            live_server, "/v1/report", headers={"If-None-Match": etag}
        )
        assert (status, cached_body) == (304, b"")  # bodyless, transfer saved
        assert cached_headers["ETag"] == etag
        # The tree changes -> the body changes -> the old tag stops matching.
        make_run(runs_root, "c-run", result=result_payload(accuracy=0.7))
        status, new_body, new_headers = http_get_raw(
            live_server, "/v1/report", headers={"If-None-Match": etag}
        )
        assert status == 200
        assert new_headers["ETag"] != etag
        assert new_body != body

    def test_if_none_match_grammar(self, live_server):
        _, _, headers = http_get_raw(live_server, "/v1/summary")
        etag = headers["ETag"]
        for value in ("*", f'"nope", {etag}', f"W/{etag}"):
            status, _, _ = http_get_raw(
                live_server, "/v1/summary", headers={"If-None-Match": value}
            )
            assert status == 304, f"If-None-Match: {value} should revalidate"
        status, _, _ = http_get_raw(
            live_server, "/v1/summary", headers={"If-None-Match": '"stale"'}
        )
        assert status == 200

    def test_all_report_family_endpoints_carry_etags(self, live_server):
        for path in ("/v1/report", "/v1/pareto", "/v1/summary"):
            _, _, headers = http_get_raw(live_server, path)
            assert "ETag" in headers, f"{path} is missing its ETag"


# ----------------------------------------------------------------------
# The resident /v1/report body
# ----------------------------------------------------------------------
def _spy(monkeypatch, owner, name, calls, tag):
    """Record ``tag`` in ``calls`` on every call of ``owner.name`` (server threads included)."""
    original = getattr(owner, name)

    def spying(*args, **kwargs):
        calls.append(tag)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spying)


@pytest.fixture
def renders(monkeypatch):
    """Count the report bodies built: each renders its tail once, through
    ``ReportScan.render_tail``, whether or not it re-renders its prefix."""
    calls = []
    _spy(monkeypatch, api.ReportScan, "render_tail", calls, "tail")
    return calls


@pytest.fixture
def prefix_renders(monkeypatch):
    """Count ``ReportScan.render_prefix`` calls (server threads included)."""
    calls = []
    _spy(monkeypatch, api.ReportScan, "render_prefix", calls, "prefix")
    return calls


def expected_report(root: Path, **options) -> bytes:
    return (api.report_document(root, **options).render() + "\n").encode("utf-8")


class TestReportBodyCache:
    def test_repeat_request_renders_nothing(self, live_server, renders):
        status, body, headers = http_get_raw(live_server, "/v1/report")
        assert (status, len(renders)) == (200, 1)
        for _ in range(3):
            again_status, again, again_headers = http_get_raw(live_server, "/v1/report")
            assert (again_status, again) == (200, body)
            assert again_headers["ETag"] == headers["ETag"]
        assert len(renders) == 1

    def test_if_none_match_is_answered_from_the_resident_tag(self, live_server, renders):
        _, _, headers = http_get_raw(live_server, "/v1/report")
        status, body, revalidated = http_get_raw(
            live_server, "/v1/report", headers={"If-None-Match": headers["ETag"]}
        )
        assert (status, body, revalidated["ETag"]) == (304, b"", headers["ETag"])
        assert len(renders) == 1

    def assert_fresh(self, server, root: Path, renders, path="/v1/report", **options):
        """One GET renders once, and equals an in-process report of the tree."""
        before = len(renders)
        status, body, _ = http_get_raw(server, path)
        assert (status, len(renders)) == (200, before + 1)
        assert body == expected_report(root, **options)
        return body

    def test_result_rewrite_renders_a_fresh_body(self, live_server, runs_root, renders):
        old = self.assert_fresh(live_server, runs_root, renders)
        # A different size too, so the rewrite shows on any mtime granularity.
        history = [{"epoch": 0.0, "train_ce": 2.5}, {"epoch": 1.0, "train_ce": 2.25}]
        save_json(
            result_payload(accuracy=0.77, history=history), runs_root / "a-run" / RESULT_FILE
        )
        assert self.assert_fresh(live_server, runs_root, renders) != old

    def test_deleted_result_renders_a_fresh_body(self, live_server, runs_root, renders):
        old = self.assert_fresh(live_server, runs_root, renders)
        (runs_root / "b-run" / RESULT_FILE).unlink()
        assert self.assert_fresh(live_server, runs_root, renders) != old

    def test_job_submission_renders_a_fresh_body(self, live_server, runs_root, renders):
        old = self.assert_fresh(live_server, runs_root, renders)
        assert http_post(live_server, "/v1/jobs", tiny_job_payload(seed=9))[0] == 201
        assert self.assert_fresh(live_server, runs_root, renders) != old

    def test_lock_appearing_and_going_stale_renders_fresh_bodies(
        self, live_server, runs_root, renders
    ):
        pending = self.assert_fresh(live_server, runs_root, renders)
        lock = runs_root / "pending-run" / LOCK_FILE
        lock.write_text('{"token": "worker"}', encoding="utf-8")
        running = self.assert_fresh(live_server, runs_root, renders)
        assert json.loads(running)["runs"]["pending-run"]["state"] == "running"
        age_file(lock, live_server.lock_ttl + 60)
        stale = self.assert_fresh(live_server, runs_root, renders)
        assert json.loads(stale)["runs"]["pending-run"]["state"] == "stale"
        assert len({pending, running, stale}) == 3

    def test_filter_query_renders_a_fresh_body(self, live_server, runs_root, renders):
        self.assert_fresh(live_server, runs_root, renders)
        self.assert_fresh(
            live_server,
            runs_root,
            renders,
            path="/v1/report?method=baseline",
            filters={"method": "baseline"},
        )
        self.assert_fresh(live_server, runs_root, renders)  # at most one body stays resident

    def test_refresh_and_no_cache_always_render(
        self, live_server, runs_root, renders, prefix_renders
    ):
        http_get_raw(live_server, "/v1/report")
        for path in ("/v1/report?refresh=1", "/v1/report?cache=0") * 2:
            before = (len(renders), len(prefix_renders))
            status, body, _ = http_get_raw(live_server, path)
            assert (status, len(renders), len(prefix_renders)) == (
                200,
                before[0] + 1,
                before[1] + 1,
            )
            assert body == expected_report(runs_root)
        # The bypass stored its fresh body: a plain request is a hit again.
        before = len(renders)
        http_get_raw(live_server, "/v1/report")
        assert len(renders) == before


# ----------------------------------------------------------------------
# The report renderer and the server's result fragments
# ----------------------------------------------------------------------
def _edge_tree(root: Path, kind: str) -> dict:
    """Build one edge-case tree under ``root``; return its report options."""
    root.mkdir(parents=True)
    if kind == "pending-only":
        make_run(root, "job-a", config=config_payload(seed=1))
        make_run(root, "job-b", config=config_payload(seed=2))
    elif kind == "one-result":
        make_run(root, "only-run", result=result_payload(), config=config_payload())
    elif kind == "nan-accuracy":
        make_run(root, "a-run", result=result_payload(accuracy=0.4), config=config_payload())
        make_run(root, "nan-run", result=result_payload(accuracy=float("nan")))
    elif kind == "non-ascii":
        make_run(
            root,
            'r\u00e9sum\u00e9 "run"',
            result=result_payload(method='DANCE \u201cw/ FF\u201d "\u00fc"'),
            config=config_payload(),
        )
        make_run(root, "plain-run", result=result_payload(accuracy=0.3))
    elif kind == "nested":
        make_run(root, "a-run", result=result_payload(accuracy=0.42), config=config_payload())
        make_run(root, "a-run-b", result=result_payload(accuracy=0.5))
        make_run(root, "nested/deep-run", result=result_payload(accuracy=0.9))
        make_run(root, "nested/deeper/run", result=result_payload(accuracy=0.7))
    elif kind == "root-is-a-run":
        make_run(root, ".", result=result_payload(), config=config_payload())
    elif kind == "filtered":
        make_run(root, "a-run", result=result_payload(accuracy=0.42), config=config_payload())
        make_run(
            root,
            "b-run",
            result=result_payload(method="baseline", accuracy=0.6),
            config=config_payload(method="baseline", seed=1),
        )
        make_run(root, "pending-run", config=config_payload(method="baseline", seed=4))
        return {"filters": {"method": "baseline"}}
    return {}


EDGE_TREES = (
    "empty",
    "pending-only",
    "one-result",
    "nan-accuracy",
    "non-ascii",
    "nested",
    "root-is-a-run",
    "filtered",
)


class TestReportRenderer:
    @pytest.mark.parametrize("kind", EDGE_TREES)
    def test_every_surface_equals_the_document(self, tmp_path, capsys, kind):
        root = tmp_path / "runs"
        options = _edge_tree(root, kind)
        filters = options.get("filters", {})
        document = api.report_document(root, **options).to_dict()
        expected = json.dumps(json_safe(document), indent=2, allow_nan=False) + "\n"

        scan = api.report_scan(root, **options)
        assert scan.render(scan.fragments()) == expected.encode("utf-8")

        argv = ["--runs-dir", str(root), "report", "--format", "json"]
        argv += [arg for key, value in filters.items() for arg in ("--filter", f"{key}={value}")]
        assert cli_stdout(capsys, argv) == expected

        server = create_server(root, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            query = "&".join(f"{key}={value}" for key, value in filters.items())
            status, body, _ = http_get_raw(server, "/v1/report" + ("?" + query if query else ""))
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert (status, body) == (200, expected.encode("utf-8"))

    def test_nan_accuracy_renders_null(self, tmp_path):
        root = tmp_path / "runs"
        _edge_tree(root, "nan-accuracy")
        scan = api.report_scan(root)
        data = json.loads(scan.render(scan.fragments()))
        accuracies = {result["accuracy"] for result in data["results"]}
        assert accuracies == {0.4, None}
        assert [record["run"] for record in data["pareto"]] == ["a-run"]

    def test_fragments_never_mutate_what_they_reuse(self, runs_root):
        first = api.report_scan(runs_root).fragments()
        snapshot = dict(first)
        (runs_root / "b-run" / RESULT_FILE).unlink()
        second = api.report_scan(runs_root).fragments(first)
        assert first == snapshot
        assert set(second) == {"a-run"}
        assert second["a-run"] is first["a-run"]


class TestMissBody:
    """A report miss sends the one ``bytes`` body ``ReportScan.render`` built."""

    def assert_body(self, server, root: Path) -> bytes:
        status, body, headers = http_get_raw(server, "/v1/report")
        expected = (dumps_strict(api.report_document(root).to_dict()) + "\n").encode("utf-8")
        assert (status, body) == (200, expected)
        assert headers["ETag"] == '"' + hashlib.sha256(expected).hexdigest() + '"'
        return body

    def test_bodies_and_etags_after_a_post_an_rmtree_and_a_rewrite(
        self, live_server, runs_root, capsys, renders
    ):
        first = self.assert_body(live_server, runs_root)
        status, created = http_post(live_server, "/v1/jobs", tiny_job_payload(seed=9))
        assert status == 201
        posted = self.assert_body(live_server, runs_root)
        shutil.rmtree(runs_root / json.loads(created)["name"])
        assert self.assert_body(live_server, runs_root) == first
        history = [{"epoch": 0.0, "train_ce": 2.5}, {"epoch": 1.0, "train_ce": 2.0}]
        save_json(result_payload(accuracy=0.81, history=history), runs_root / "a-run" / RESULT_FILE)
        rewritten = self.assert_body(live_server, runs_root)
        assert len({first, posted, rewritten}) == 3 and len(renders) == 4
        cli = cli_stdout(capsys, ["--runs-dir", str(runs_root), "report", "--format", "json"])
        assert cli.encode("utf-8") == rewritten


@pytest.fixture
def result_reads(monkeypatch):
    """The ``result.json`` paths ``repro.api`` reads (server threads included)."""
    paths = []
    original = api.load_json

    def counting(path):
        if Path(path).name == RESULT_FILE:
            paths.append(Path(path))
        return original(path)

    monkeypatch.setattr(api, "load_json", counting)
    return paths


class TestResultFragments:
    def get_report(self, server, root: Path, reads, path="/v1/report"):
        """``(body, result.json paths the server read)`` of one fresh report."""
        del reads[:]
        status, body, _ = http_get_raw(server, path)
        served = list(reads)
        assert (status, body) == (200, expected_report(root))
        return body, served

    def test_miss_after_a_post_reads_no_result(self, live_server, runs_root, result_reads):
        old, served = self.get_report(live_server, runs_root, result_reads)
        assert len(served) == 2
        assert http_post(live_server, "/v1/jobs", tiny_job_payload(seed=9))[0] == 201
        body, served = self.get_report(live_server, runs_root, result_reads)
        assert (served, body != old) == ([], True)

    def test_miss_after_a_new_lock_reads_no_result(self, live_server, runs_root, result_reads):
        self.get_report(live_server, runs_root, result_reads)
        (runs_root / "pending-run" / LOCK_FILE).write_text('{"token": "w"}', encoding="utf-8")
        body, served = self.get_report(live_server, runs_root, result_reads)
        assert served == []
        assert json.loads(body)["runs"]["pending-run"]["state"] == "running"

    def test_miss_after_one_rewrite_reads_one_result(self, live_server, runs_root, result_reads):
        self.get_report(live_server, runs_root, result_reads)
        history = [{"epoch": 0.0, "train_ce": 2.5}, {"epoch": 1.0, "train_ce": 2.0}]
        rewritten = runs_root / "a-run" / RESULT_FILE
        save_json(result_payload(accuracy=0.81, history=history), rewritten)
        body, served = self.get_report(live_server, runs_root, result_reads)
        assert served == [rewritten]
        assert json.loads(body)["results"][0]["accuracy"] == 0.81

    def test_deleted_run_leaves_the_store(self, live_server, runs_root, result_reads):
        import shutil

        self.get_report(live_server, runs_root, result_reads)
        assert set(live_server._fragments) == {"a-run", "b-run"}
        shutil.rmtree(runs_root / "b-run")
        _, served = self.get_report(live_server, runs_root, result_reads)
        assert (served, set(live_server._fragments)) == ([], {"a-run"})

    def test_refresh_and_no_cache_read_every_result(self, live_server, runs_root, result_reads):
        self.get_report(live_server, runs_root, result_reads)
        for path in ("/v1/report?refresh=1", "/v1/report?cache=0"):
            _, served = self.get_report(live_server, runs_root, result_reads, path)
            assert len(served) == 2


# ----------------------------------------------------------------------
# Resident report-family answers
# ----------------------------------------------------------------------
_FAMILY_BUILDERS = {
    "report": api.report_document,
    "summary": api.summary_document,
    "pareto": api.pareto_document,
}


def family_oracle(root: Path, endpoint: str, filters) -> bytes:
    """The body a report-family endpoint must send: a cold in-process build."""
    document = _FAMILY_BUILDERS[endpoint](root, use_cache=False, filters=filters)
    return (dumps_strict(document.to_dict()) + "\n").encode("utf-8")


@pytest.fixture
def derivations(monkeypatch):
    """Views, records and renders computed while answering (server threads included)."""
    from repro.experiments import browser

    calls = []
    _spy(monkeypatch, browser, "results_view", calls, "results_view")
    _spy(monkeypatch, browser, "status_view", calls, "status_view")
    _spy(monkeypatch, api, "pareto_records", calls, "pareto_records")
    for name in ("render_prefix", "render_tail", "render"):
        _spy(monkeypatch, api.ReportScan, name, calls, name)
    _spy(monkeypatch, api._Document, "render", calls, "document")
    return calls


@pytest.fixture(
    params=[
        (endpoint, query)
        for endpoint in ("report", "summary", "pareto")
        for query in ("", "method=dance")
    ],
    ids=lambda param: "-".join(filter(None, param)),
)
def followed(request):
    """One report-family answer the tests follow: ``(endpoint, query)``."""
    return request.param


class TestResidentAnswers:
    """Each answer equals a cold build of the tree after every kind of change,
    and derives only what the change feeds.  ``method=dance`` keeps ``a-run``
    and ``pending-run``, which every change below touches."""

    def get(self, server, root: Path, followed, calls, extra: str = ""):
        """``(body, derivations)`` of one GET, asserted against the oracle."""
        endpoint, query = followed
        filters = dict(pair.split("=") for pair in query.split("&") if pair) or None
        expected = family_oracle(root, endpoint, filters)
        del calls[:]
        query = "&".join(filter(None, (query, extra)))
        status, body, headers = http_get_raw(server, f"/v1/{endpoint}?{query}")
        assert (status, body) == (200, expected)
        assert headers["ETag"] == '"' + hashlib.sha256(expected).hexdigest() + '"'
        return body, list(calls)

    def test_nothing_changed_derives_nothing(self, live_server, runs_root, followed, derivations):
        first, _ = self.get(live_server, runs_root, followed, derivations)
        for _ in range(3):
            assert self.get(live_server, runs_root, followed, derivations) == (first, [])

    def test_a_new_pending_run_keeps_what_results_feed(
        self, live_server, runs_root, followed, derivations
    ):
        old, _ = self.get(live_server, runs_root, followed, derivations)
        held = live_server._answers[followed[0]].body
        make_run(runs_root, "new-run", config=config_payload(seed=7))
        body, calls = self.get(live_server, runs_root, followed, derivations)
        assert (body == old) == (followed[0] == "pareto")  # the front lists results only
        assert "render_prefix" not in calls and "pareto_records" not in calls
        if followed[0] == "report":  # the same prefix object, a new tail
            parts = live_server._answers["report"].body.parts
            assert parts[0] is held.parts[0] and b"".join(parts) == body
        assert self.get(live_server, runs_root, followed, derivations) == (body, [])

    def test_a_rewritten_result(self, live_server, runs_root, followed, derivations):
        old, _ = self.get(live_server, runs_root, followed, derivations)
        history = [{"epoch": 0.0, "train_ce": 2.5}, {"epoch": 1.0, "train_ce": 2.0}]
        save_json(
            result_payload(accuracy=0.81, history=history), runs_root / "a-run" / RESULT_FILE
        )
        body, calls = self.get(live_server, runs_root, followed, derivations)
        assert body != old or followed[0] == "summary"
        if followed[0] == "report":
            assert "render_prefix" in calls

    def test_a_deleted_run(self, live_server, runs_root, followed, derivations):
        old, _ = self.get(live_server, runs_root, followed, derivations)
        shutil.rmtree(runs_root / "a-run")
        body, _ = self.get(live_server, runs_root, followed, derivations)
        assert body != old

    def test_a_lock_appearing_then_ageing_past_the_ttl(
        self, live_server, runs_root, followed, derivations
    ):
        pending, _ = self.get(live_server, runs_root, followed, derivations)
        lock = runs_root / "pending-run" / LOCK_FILE
        lock.write_text('{"token": "worker"}', encoding="utf-8")
        running, calls = self.get(live_server, runs_root, followed, derivations)
        assert "render_prefix" not in calls and "pareto_records" not in calls
        assert self.get(live_server, runs_root, followed, derivations) == (running, [])
        age_file(lock, live_server.lock_ttl + 60)
        stale, _ = self.get(live_server, runs_root, followed, derivations)
        if followed[0] != "pareto":  # the front holds no queue state
            assert len({pending, running, stale}) == 3

    def test_a_scheduler_state_write(self, live_server, runs_root, followed, derivations):
        from repro.experiments.schedulers import ASHA, register_candidates

        old, _ = self.get(live_server, runs_root, followed, derivations)
        register_candidates(runs_root, ASHA(eta=2), ["a-run", "pending-run"], lock_ttl=60)
        body, calls = self.get(live_server, runs_root, followed, derivations)
        if followed[0] == "summary":
            assert json.loads(body)["scheduler"]["candidates"] == 2
        else:  # the schedule feeds only the summary
            assert (body, calls) == (old, [])

    def test_another_writers_cache_rewrite(self, live_server, runs_root, followed, derivations):
        old, _ = self.get(live_server, runs_root, followed, derivations)
        held = dict(live_server._answers[followed[0]].basis.summaries)
        cache_path = runs_root / CACHE_FILE
        save_json(json.loads(cache_path.read_text()), cache_path)  # a new inode
        body, calls = self.get(live_server, runs_root, followed, derivations)
        assert body == old
        assert "render_prefix" not in calls and "pareto_records" not in calls
        summaries = live_server._answers[followed[0]].basis.summaries
        assert all(summaries[relpath] is not held[relpath] for relpath in held)

    def test_refresh_and_no_cache_rebuild_from_nothing(
        self, live_server, runs_root, followed, derivations
    ):
        self.get(live_server, runs_root, followed, derivations)
        rebuilt = {"report": "render_prefix", "pareto": "pareto_records", "summary": "document"}
        for extra in ("refresh=1", "cache=0"):
            body, calls = self.get(live_server, runs_root, followed, derivations, extra)
            assert rebuilt[followed[0]] in calls
            assert self.get(live_server, runs_root, followed, derivations) == (body, [])


# ----------------------------------------------------------------------
# /v1/runs/{name}: one run directory, not the whole tree
# ----------------------------------------------------------------------
def browsed_run_body(root: Path, name: str) -> str:
    """The run document (or 404 text) built from a full scan, the oracle."""
    from repro.experiments.browser.scanner import scan_runs
    from repro.experiments.sweep import DEFAULT_LOCK_TTL

    summaries = scan_runs(root).summaries
    summary = summaries.get(name)
    if summary is None:
        return f"unknown run {name!r} under {root}{did_you_mean(name, summaries)}"
    result = None
    if summary.has_result and not summary.corrupt:
        result = json.loads((root / summary.name / RESULT_FILE).read_text())
    document = {
        "schema_version": api.SCHEMA_VERSION,
        "root": str(root),
        "name": name,
        "state": summary.state(root, DEFAULT_LOCK_TTL),
        "step": summary.checkpoint_step,
        "method": summary.method or summary.result_method,
        "task": summary.task,
        "backend": summary.backend_label,
        "seed": summary.seed,
        "result": result,
    }
    return json.dumps(json_safe(document), indent=2, allow_nan=False)


@pytest.fixture
def run_tree(tmp_path: Path) -> Path:
    """Flat, nested, pending, locked, checkpointed, corrupt and NaN-accuracy runs."""
    from test_browser import mixed_tree

    root = mixed_tree(tmp_path / "runs")
    make_run(root, "nan-run", result=result_payload(accuracy=float("nan")))
    make_run(root, "locked-run", config=config_payload(seed=8))
    (root / "locked-run" / LOCK_FILE).write_text('{"token": "w"}', encoding="utf-8")
    os.symlink(root / "a-run", root / "link-run", target_is_directory=True)
    return root


RUN_NAMES = (
    "a-run",
    "a-run-b",
    "chk-run",
    "fail-run",
    "pending-run",
    "corrupt-run",
    "nested/deep-run",
    "nan-run",
    "locked-run",
)
UNLISTED_NAMES = (
    "..",
    "../runs",
    "nested/../a-run",
    "./a-run",
    "",
    "a-run/",
    "nested//deep-run",
    "/a-run",
    "link-run",
    "nested",
    "no-such-run",
    "a-run\x00",
)


class TestRunDocument:
    @pytest.fixture
    def listings(self, monkeypatch):
        """Directories listed, and a browse that must not happen."""
        from repro.experiments import browser

        listed = []
        original = os.scandir

        def recording(path="."):
            listed.append(str(path))
            return original(path)

        def no_browse(*args, **kwargs):
            raise AssertionError("a single run browsed the whole tree")

        monkeypatch.setattr(os, "scandir", recording)
        monkeypatch.setattr(browser, "browse", no_browse)
        return listed

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_reads_one_directory_and_equals_the_browse(self, run_tree, use_cache, listings):
        from repro.experiments.browser import BrowserCache, scan_runs

        expected = {name: browsed_run_body(run_tree, name) for name in RUN_NAMES}
        BrowserCache(run_tree).save(scan_runs(run_tree).summaries)  # a warm cache
        for name in RUN_NAMES:
            del listings[:]
            body = api.run_document(run_tree, name, use_cache=use_cache).render()
            assert body == expected[name], name
            assert listings == [str(run_tree / name)], name

    def test_root_is_a_run(self, tmp_path, listings):
        root = tmp_path / "runs"
        make_run(root, ".", result=result_payload(), config=config_payload())
        expected = browsed_run_body(root, ".")
        del listings[:]
        assert api.run_document(root, ".").render() == expected
        assert listings == [str(root)]

    @pytest.mark.parametrize("name", UNLISTED_NAMES)
    def test_unlisted_names_give_the_browse_404(self, run_tree, name):
        with pytest.raises(api.UnknownRunError) as raised:
            api.run_document(run_tree, name)
        assert str(raised.value) == browsed_run_body(run_tree, name)

    def test_http_404_for_path_escapes(self, run_tree):
        server = create_server(run_tree, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            for name in ("../runs", "..", "nested/../a-run", "link-run"):
                status, body, _ = http_get_raw(server, f"/v1/runs/{name}")
                assert status == 404, name
                assert json.loads(body)["error"] == browsed_run_body(run_tree, name)
            status, body, _ = http_get_raw(server, "/v1/runs/nested/deep-run")
            assert (status, body) == (200, (browsed_run_body(run_tree, "nested/deep-run") + "\n").encode())
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


def test_job_submission_parses_only_the_new_run(live_server, runs_root, monkeypatch):
    from repro.experiments.browser import scanner

    assert http_get(live_server, "/v1/report")[0] == 200  # warms the browser cache
    parsed = []
    original = scanner.summarize_run_dir

    def counting(root, relpath, signature):
        parsed.append(relpath)
        return original(root, relpath, signature)

    monkeypatch.setattr(scanner, "summarize_run_dir", counting)
    status, body = http_post(live_server, "/v1/jobs", tiny_job_payload(seed=11))
    assert status == 201
    assert parsed == ["baseline-cifar-seed11"]
    assert json.loads(body)["state"] == "pending"


def test_warm_summaries_parse_the_browser_cache_at_most_once(live_server, monkeypatch):
    from repro.experiments.browser.run_summary import RunSummary

    assert http_get(live_server, "/v1/summary")[0] == 200  # writes the browser cache
    entries = len(json.loads((live_server.runs_dir / CACHE_FILE).read_text())["entries"])
    calls = []
    original = RunSummary.from_dict

    def counting(data):
        calls.append(data["name"])
        return original(data)

    monkeypatch.setattr(RunSummary, "from_dict", staticmethod(counting))
    bodies = {http_get(live_server, "/v1/summary")[1] for _ in range(10)}
    assert len(bodies) == 1
    assert len(calls) <= entries  # at most one parse of the cache file
    calls.clear()
    for _ in range(5):
        assert http_get(live_server, "/v1/summary")[0] == 200
    assert calls == []


def test_accepted_sockets_disable_nagle(runs_root):
    """Headers and body are two ``send()`` calls: without ``TCP_NODELAY`` the
    body waits for the client's delayed ACK, ~40 ms on every request."""
    import socket

    from repro.serve.app import _Handler

    seen = []

    class Probe(_Handler):
        def setup(self):
            super().setup()
            seen.append(self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

    server = create_server(runs_root, port=0)
    server.RequestHandlerClass = Probe
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        assert http_get(server, "/v1/summary")[0] == 200
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert seen and all(seen)


# ----------------------------------------------------------------------
# The schedule endpoint and scheduler-aware job submission
# ----------------------------------------------------------------------
class TestScheduleEndpoint:
    def test_empty_without_a_schedule(self, live_server):
        status, body = http_get(live_server, "/v1/sweep/schedule")
        data = json.loads(body)
        assert status == 200
        assert (data["scheduler"], data["candidates"]) == (None, [])

    def test_schedule_round_trip(self, live_server, runs_root):
        from repro.experiments.schedulers import ASHA, register_candidates

        register_candidates(runs_root, ASHA(eta=2), ["a-run", "b-run"], lock_ttl=60)
        status, body = http_get(live_server, "/v1/sweep/schedule")
        data = json.loads(body)
        assert status == 200
        schedule = data["scheduler"]
        assert (schedule["name"], schedule["eta"], schedule["candidates"]) == ("asha", 2, 2)
        assert [row["name"] for row in data["candidates"]] == ["a-run", "b-run"]
        assert all(row["decision"] is None for row in data["candidates"])

    def test_summary_carries_the_same_overview(self, live_server, runs_root):
        from repro.experiments.schedulers import ASHA, register_candidates

        register_candidates(runs_root, ASHA(eta=2), ["a-run", "b-run"], lock_ttl=60)
        _, summary_body = http_get(live_server, "/v1/summary?refresh=1")
        _, schedule_body = http_get(live_server, "/v1/sweep/schedule")
        assert (
            json.loads(summary_body)["scheduler"] == json.loads(schedule_body)["scheduler"]
        )

    def test_job_submission_with_scheduler_fields(self, live_server, runs_root):
        from repro.experiments.schedulers import load_state

        payload = tiny_job_payload(seed=21, scheduler="asha", eta=2, min_steps=1)
        status, body = http_post(live_server, "/v1/jobs", payload)
        assert status == 201
        state = load_state(runs_root)
        assert state.scheduler == "asha"
        assert "baseline-cifar-seed21" in state.candidates
        # A second submission disagreeing on the parameters is rejected —
        # and must not leave a pending run directory behind.
        status, body = http_post(
            live_server, "/v1/jobs", tiny_job_payload(seed=22, scheduler="asha", eta=3)
        )
        assert status == 400
        assert "relaunch with the same parameters" in json.loads(body)["error"]
        assert not (runs_root / "baseline-cifar-seed22").exists()

    def test_eta_without_scheduler_is_400(self, live_server):
        status, body = http_post(live_server, "/v1/jobs", tiny_job_payload(seed=23, eta=2))
        assert status == 400
        assert "without a scheduler" in json.loads(body)["error"]


# ----------------------------------------------------------------------
# Cost queries from resident tables
# ----------------------------------------------------------------------
class TestCostEndpoint:
    def test_cost_defaults_and_residency(self, live_server):
        status, body = http_get(live_server, "/v1/cost")
        data = json.loads(body)
        assert status == 200
        assert (data["backend"], data["task"], data["hw_space"]) == (
            "eyeriss",
            "cifar",
            "tiny",
        )
        assert data["layers"] and all(
            set(layer) == {"layer", "latency_ms", "energy_mj", "utilization"}
            for layer in data["layers"]
        )
        totals = data["totals"]
        assert totals["edap"] == pytest.approx(
            totals["latency_ms"] * totals["energy_mj"] * totals["area_mm2"]
        )
        assert live_server.cost_tables.stats()["builds"] == 1
        status, again = http_get(live_server, "/v1/cost?arch=1,0,2,0,1,0,0,0,3")
        assert status == 200
        stats = live_server.cost_tables.stats()
        assert (stats["builds"], stats["hits"]) == (1, 1)  # same key: no rebuild

    def test_cost_field_constraints(self, live_server):
        _, body = http_get(live_server, "/v1/cost")
        unconstrained = json.loads(body)
        field, value = next(iter(unconstrained["config"].items()))
        status, body = http_get(live_server, f"/v1/cost?{field}={value}")
        data = json.loads(body)
        assert status == 200
        assert data["config"][field] == value
        assert 0 < data["configs_matched"] < unconstrained["configs_matched"]

    def test_cost_unknown_field_is_400_with_hint(self, live_server):
        status, body = http_get(live_server, "/v1/cost?pe_xx=8")
        assert status == 400
        assert "did you mean 'pe_x'" in json.loads(body)["error"]

    def test_cost_unknown_backend_is_400_with_hint(self, live_server):
        status, body = http_get(live_server, "/v1/cost?backend=eyerriss")
        assert status == 400
        assert "did you mean 'eyeriss'" in json.loads(body)["error"]

    def test_cost_bad_arch_is_400(self, live_server):
        status, body = http_get(live_server, "/v1/cost?arch=1,banana")
        assert status == 400
        assert "comma-separated integers" in json.loads(body)["error"]
        status, body = http_get(live_server, "/v1/cost?arch=1,2")
        assert status == 400  # wrong position count


class TestCostBodies:
    """``/v1/cost`` 200 bodies are rendered once per normalised query."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        _spy(monkeypatch, api, "cost_document", calls, "cost")
        return calls

    def test_a_repeated_query_renders_once(self, live_server, builds):
        paths = [
            "/v1/cost",
            "/v1/cost?arch=1,0,2,0,1,0,0,0,3",
            "/v1/cost?backend=systolic&arch=0,1,2,3,4,5,6,0,1",
        ]
        first = [http_get_raw(live_server, path) for path in paths]
        again = [http_get_raw(live_server, path) for path in paths]
        assert [(status, body) for status, body, _ in again] == [
            (status, body) for status, body, _ in first
        ]
        assert len(builds) == len(paths)
        expected = api.cost_document(arch=[1, 0, 2, 0, 1, 0, 0, 0, 3]).render() + "\n"
        assert first[1][1] == expected.encode("utf-8")

    def test_equivalent_queries_share_one_body(self, live_server, builds):
        _, body = http_get(live_server, "/v1/cost")
        field, value = next(iter(json.loads(body)["config"].items()))
        assert http_get(live_server, f"/v1/cost?{field}={value}&arch=1,0,2,0,1,0,0,0,3")[0] == 200
        assert http_get(live_server, f"/v1/cost?arch=1,0,2,0,1,0,0,0,3&{field}={value}")[0] == 200
        assert len(builds) == 2

    def test_errors_are_never_stored(self, live_server, builds):
        for _ in range(2):
            assert http_get(live_server, "/v1/cost?backend=eyerriss")[0] == 400
            assert http_get(live_server, "/v1/cost?pe_xx=8")[0] == 400
        assert len(builds) == 4 and len(live_server.cost_bodies) == 0

    def test_the_store_is_bounded_least_recently_used_first(
        self, live_server, builds, monkeypatch
    ):
        from repro.serve import app

        monkeypatch.setattr(app, "COST_BODIES", 2)
        paths = [f"/v1/cost?arch={index},0,0,0,0,0,0,0,0" for index in range(3)]
        for path in paths[:2]:
            http_get(live_server, path)
        http_get(live_server, paths[0])  # most recent now: paths[1] goes next
        http_get(live_server, paths[2])
        assert len(live_server.cost_bodies) == 2
        del builds[:]
        http_get(live_server, paths[0])
        assert builds == []
        http_get(live_server, paths[1])
        assert builds == ["cost"]


# ----------------------------------------------------------------------
# Job submission and queue drain
# ----------------------------------------------------------------------
def tiny_job_payload(**overrides) -> dict:
    return {"method": "baseline", "seed": 7, **TINY_SWEEP, **overrides}


class TestJobs:
    def test_submit_then_drain_with_sweep_queue(self, live_server, runs_root, capsys):
        status, body = http_post(live_server, "/v1/jobs", tiny_job_payload())
        data = json.loads(body)
        assert status == 201
        assert (data["name"], data["state"]) == ("baseline-cifar-seed7", "pending")
        assert (runs_root / "baseline-cifar-seed7" / CONFIG_FILE).exists()

        status, body = http_get(live_server, "/v1/jobs/baseline-cifar-seed7")
        assert (status, json.loads(body)["state"]) == (200, "pending")

        # An ordinary queue worker drains the submitted job to a result.
        assert main(["--runs-dir", str(runs_root), "sweep", "--queue", "--jobs", "1"]) == 0
        capsys.readouterr()
        assert (runs_root / "baseline-cifar-seed7" / RESULT_FILE).exists()

        status, body = http_get(live_server, "/v1/jobs/baseline-cifar-seed7")
        data = json.loads(body)
        assert (status, data["state"]) == (200, "finished")
        assert data["result"]["method"] == "Baseline (No penalty) + HW"

    def test_resubmission_conflicts(self, live_server):
        assert http_post(live_server, "/v1/jobs", tiny_job_payload(seed=8))[0] == 201
        status, body = http_post(live_server, "/v1/jobs", tiny_job_payload(seed=8))
        assert status == 409
        assert "already exists" in json.loads(body)["error"]

    def test_malformed_payloads_are_400_with_hint(self, live_server):
        status, body = http_post(live_server, "/v1/jobs", {"methd": "baseline"})
        assert status == 400
        assert "did you mean 'method'" in json.loads(body)["error"]
        status, body = http_post(live_server, "/v1/jobs", b"{not json")
        assert status == 400
        assert "not valid JSON" in json.loads(body)["error"]
        status, body = http_post(live_server, "/v1/jobs", [1, 2, 3])
        assert status == 400
        assert "JSON object" in json.loads(body)["error"]
        status, body = http_post(live_server, "/v1/jobs", {"method": "evolution"})
        assert status == 400
        assert "unknown method" in json.loads(body)["error"]

    def test_post_to_get_endpoint_is_404(self, live_server):
        status, body = http_post(live_server, "/v1/report", {})
        assert status == 404

    def test_queue_mode_with_empty_directory(self, tmp_path, capsys):
        assert main(["--runs-dir", str(tmp_path / "empty"), "sweep", "--queue"]) == 0
        assert "nothing to do" in capsys.readouterr().out

    def test_from_directory_skips_finished_and_renamed(self, runs_root, tmp_path):
        # runs_root: a-run and b-run finished, pending-run has a non-canonical
        # directory name (its config names it dance-cifar-seed4) — none plannable.
        assert len(SweepPlan.from_directory(runs_root)) == 0
        workdir = tmp_path / "queued" / "baseline-cifar-seed7"
        workdir.mkdir(parents=True)
        (workdir / CONFIG_FILE).write_text(json.dumps(tiny_job_payload()), encoding="utf-8")
        plan = SweepPlan.from_directory(tmp_path / "queued")
        assert [item.name for item in plan] == ["baseline-cifar-seed7"]


# ----------------------------------------------------------------------
# Concurrency: readers racing a writer
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_concurrent_gets_during_writer_mutation(self, live_server, runs_root):
        """Every response stays parseable strict JSON while the tree churns."""
        stop = threading.Event()
        writer_errors = []

        def writer():
            try:
                for round_number in range(40):
                    if stop.is_set():
                        return
                    name = f"churn-{round_number % 3}"
                    # A history growing every round gives every rewrite a new
                    # size, so no (mtime_ns, size) signature ever recurs.
                    history = [{"epoch": float(epoch)} for epoch in range(round_number + 1)]
                    make_run(
                        runs_root,
                        name,
                        result=result_payload(
                            accuracy=0.1 + round_number / 100.0, history=history
                        ),
                        config=config_payload(seed=10 + round_number % 3),
                    )
                    if round_number % 5 == 4:
                        (runs_root / name / RESULT_FILE).unlink(missing_ok=True)
            except Exception as error:  # pragma: no cover - diagnostic only
                writer_errors.append(error)

        responses = []
        errors = []

        def reader(path):
            try:
                for _ in range(12):
                    responses.append(http_get(live_server, path))
            except Exception as error:  # pragma: no cover - diagnostic only
                errors.append(error)

        writer_thread = threading.Thread(target=writer)
        reader_threads = [
            threading.Thread(target=reader, args=(path,))
            for path in ("/v1/report", "/v1/summary", "/v1/pareto", "/v1/report?refresh=1")
        ]
        writer_thread.start()
        for thread in reader_threads:
            thread.start()
        for thread in reader_threads:
            thread.join(timeout=60)
        stop.set()
        writer_thread.join(timeout=60)

        assert not errors and not writer_errors
        assert len(responses) == 48
        for status, body in responses:
            assert status == 200
            assert json.loads(body)["schema_version"] == api.SCHEMA_VERSION
        # Whichever racing request stored the resident body last, the next
        # report reflects the settled tree.
        _, settled = http_get(live_server, "/v1/report")
        assert settled == api.report_document(runs_root).render() + "\n"
