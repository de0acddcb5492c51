"""Unit tests of the benchmark's own arithmetic: percentiles, self time,
metric names and the seeded serve inputs."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import serveload  # noqa: E402
import spans  # noqa: E402
from stats import latency_summary, percentile, tail_percentile  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Metric and workload names: a letter or digit, then up to 63 of [A-Za-z0-9_.-].
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# -- percentile rule ---------------------------------------------------
def test_tail_percentile_keeps_ten_samples_beyond():
    # 150 samples: p93 leaves 150 - 140 = 10 beyond, p94 only 9.
    assert tail_percentile(150) == 93.0
    # 100 samples: p90 leaves exactly 10.
    assert tail_percentile(100) == 90.0
    # 20 samples: only the median leaves 10 beyond.
    assert tail_percentile(20) == 50.0


def test_tail_percentile_needs_enough_samples():
    assert tail_percentile(19) is None
    assert tail_percentile(0) is None


def test_tail_value_has_ten_samples_above_it():
    values = [float(value) for value in range(1, 151)]
    summary = latency_summary(values)
    assert summary["tail_pct"] == 93.0
    assert summary["tail_ms"] == 140.0
    assert sum(value > summary["tail_ms"] for value in values) == 10
    assert summary["p50_ms"] == 75.5
    assert summary["samples"] == 150


def test_nearest_rank_percentile():
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert percentile([5.0, 1.0, 3.0], 100) == 5.0
    assert percentile([5.0, 1.0, 3.0], 1) == 1.0


# -- self-time arithmetic ----------------------------------------------
def _span(span_id, name, start, end, parent=None):
    return {
        "id": span_id,
        "name": name,
        "parent": parent,
        "pid": 1,
        "start": start,
        "end": end,
        "attrs": {},
    }


def test_self_time_subtracts_nested_children():
    metrics = spans.layer_metrics(
        [
            _span("1:1", "experiments.run", 0.0, 10.0),
            _span("1:2", "core.search_step", 1.0, 5.0, parent="1:1"),
            _span("1:3", "autograd.backward", 2.0, 4.0, parent="1:2"),
        ]
    )
    assert metrics["experiments.run.busy_s"] == pytest.approx(10.0)
    assert metrics["experiments.run.self_s"] == pytest.approx(6.0)
    assert metrics["core.search_step.self_s"] == pytest.approx(2.0)
    assert metrics["autograd.backward.self_s"] == pytest.approx(2.0)


def test_self_time_counts_overlapping_siblings_once():
    # Two threads' children overlap inside one parent: the union counts.
    metrics = spans.layer_metrics(
        [
            _span("1:1", "api.report", 0.0, 10.0),
            _span("1:2", "experiments.browser.scan", 1.0, 4.0, parent="1:1"),
            _span("1:3", "experiments.browser.scan", 3.0, 6.0, parent="1:1"),
            _span("1:4", "experiments.browser.scan", 8.0, 9.0, parent="1:1"),
        ]
    )
    assert metrics["api.report.self_s"] == pytest.approx(10.0 - 6.0)
    assert metrics["experiments.browser.scan.calls"] == 3
    assert metrics["experiments.browser.scan.busy_s"] == pytest.approx(7.0)


def test_every_layer_reports_even_when_unreached():
    metrics = spans.layer_metrics([])
    for name in spans.SPAN_NAMES:
        assert metrics[f"{name}.calls"] == 0
    for counter in spans.COUNTERS:
        assert metrics[counter] == 0


def test_tracer_records_parents_and_counters(tmp_path):
    tracer = spans.Tracer(tmp_path)

    def inner():
        return "done"

    traced_inner = tracer.wrap(inner, "core.search_step")
    traced_outer = tracer.wrap(
        lambda: traced_inner(),
        "experiments.run",
        counters=lambda state, args, result: {"experiments.browser.parsed": 2},
    )
    assert traced_outer() == "done"
    recorded = {span["name"]: span for span in spans.read_spans(tmp_path)}
    assert recorded["core.search_step"]["parent"] == recorded["experiments.run"]["id"]
    assert recorded["experiments.run"]["parent"] is None
    assert spans.layer_metrics(list(recorded.values()))["experiments.browser.parsed"] == 2


def test_tracer_install_restores_originals(tmp_path):
    from repro.experiments import runner

    original = runner.save_checkpoint
    tracer = spans.Tracer(tmp_path).install()
    try:
        assert runner.save_checkpoint is not original
    finally:
        tracer.uninstall()
    assert runner.save_checkpoint is original


# -- metric names --------------------------------------------------------
def test_metric_name_charset():
    assert METRIC_NAME.match("experiments.checkpoint_write.busy_s")
    assert METRIC_NAME.match("serve.submit_job.p50_ms")
    assert not METRIC_NAME.match("serve report")
    assert not METRIC_NAME.match("api/report")
    assert not METRIC_NAME.match(".hidden")
    assert not METRIC_NAME.match("x" * 65)


def test_benchmark_spec_names_are_valid_and_unique():
    names = [metric["name"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [workload["name"] for workload in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.match(name), name


def test_benchmark_spec_covers_every_span():
    per_layer = {metric["name"] for metric in SPEC["per_layer"]}
    for name in spans.SPAN_NAMES:
        assert {f"{name}.calls", f"{name}.busy_s", f"{name}.self_s"} <= per_layer
    assert set(spans.COUNTERS) <= per_layer


# -- seeded serve inputs -------------------------------------------------
NAMES = [f"dance-cifar-seed{index}" for index in range(8)]


def test_request_schedule_is_deterministic():
    first = serveload.request_schedule(7, 200, NAMES)
    assert first == serveload.request_schedule(7, 200, NAMES)
    assert first != serveload.request_schedule(8, 200, NAMES)


def test_request_schedule_follows_the_mix():
    requests = serveload.request_schedule(3, 200, NAMES)
    for kind, weight in serveload.MIX:
        assert sum(request.kind == kind for request in requests) == 2 * weight
    posts = [request for request in requests if request.method == "POST"]
    assert all(request.expected_status == 201 for request in posts)
    names = serveload.job_names(requests)
    assert len(names) == len(set(names)) == len(posts)


def test_generated_tree_is_deterministic(tmp_path):
    first = serveload.generate_tree(tmp_path / "a", 5, 10)
    second = serveload.generate_tree(tmp_path / "b", 5, 10)
    assert first == second
    for name in first:
        for artefact in ("config.json", "result.json", "checkpoint.json"):
            path_a = tmp_path / "a" / name / artefact
            path_b = tmp_path / "b" / name / artefact
            assert path_a.exists() == path_b.exists()
            if path_a.exists():
                assert path_a.read_bytes() == path_b.read_bytes()
