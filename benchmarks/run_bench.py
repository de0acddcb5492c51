#!/usr/bin/env python
"""Standalone cost-model performance harness.

Measures the legacy (per-pair Python loop) cost pipeline against the
vectorised/table-driven pipeline and dumps the measurements to
``BENCH_costmodel.json`` in the repository root, so future PRs can track the
trajectory of these numbers.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--samples N] [--tiny] [--output PATH]

``--tiny`` switches to the 81-configuration test space (fast smoke run); the
default is the paper's full 1215-configuration hardware space.  With
``REPRO_BENCH_SCALE=small`` (the CI setting, see ``bench_utils.bench_scale``)
the default sample count drops so the whole run stays CI-cheap while the
space — and therefore comparability with the committed baseline — is
unchanged; ``tools/check_bench.py`` gates CI on the measured speedups.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
# tests/conv_reference.py, the legacy conv lowering, is the conv keys' "before" side.
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "tests"))

import numpy as np

from bench_utils import bench_scale, legacy_build_cost_table, legacy_generate_evaluator_dataset

from repro.evaluator import generate_evaluator_dataset
from repro.hwmodel import (
    AcceleratorCostModel,
    CostTable,
    HardwareSearchSpace,
    get_backend,
    tiny_search_space,
)
from repro.nas import build_cifar_search_space


def _time(fn, repeats: int = 1) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    default_samples = 120 if bench_scale() == "small" else 300
    parser.add_argument(
        "--samples",
        type=int,
        default=default_samples,
        help=f"dataset samples to label (default: {default_samples}, via REPRO_BENCH_SCALE)",
    )
    parser.add_argument("--tiny", action="store_true", help="use the 81-config test space")
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_costmodel.json"),
        help="where to write the JSON trajectory file",
    )
    args = parser.parse_args()
    if args.samples <= 0:
        parser.error("--samples must be positive")

    nas_space = build_cifar_search_space()
    hw_space = tiny_search_space() if args.tiny else HardwareSearchSpace()
    cost_model = AcceleratorCostModel()
    results = {}

    # ------------------------------------------------------------------
    # 1. Cost-table construction
    # ------------------------------------------------------------------
    before = _time(lambda: legacy_build_cost_table(nas_space, hw_space, cost_model))
    after = _time(lambda: CostTable(nas_space, hw_space, cost_model=cost_model), repeats=3)
    results["cost_table_build"] = {"before_s": before, "after_s": after, "speedup": before / after}
    print(f"cost_table_build:     {before:8.3f} s -> {after:8.4f} s  ({before/after:7.1f}x)")

    # ------------------------------------------------------------------
    # 2. Batched layer evaluation (every candidate layer x every config)
    # ------------------------------------------------------------------
    table = CostTable(nas_space, hw_space, cost_model=cost_model)
    layers = list(nas_space.fixed_workload_layers())
    for position in range(nas_space.num_searchable):
        for op_idx in range(nas_space.num_ops):
            layers.extend(nas_space.op_layers(position, op_idx))
    configs = hw_space.config_list()
    pair_budget = min(len(layers) * len(configs), 4000)
    per_layer = max(1, pair_budget // len(configs))

    def scalar_pairs():
        for layer in layers[:per_layer]:
            for config in configs:
                cost_model.latency_model.layer_latency_ms_reference(layer, config)
                cost_model.energy_model.layer_energy_mj_reference(layer, config)

    before = _time(scalar_pairs) * (len(layers) / per_layer)
    after = _time(lambda: cost_model.evaluate_layer_batch(layers, hw_space.config_batch()), repeats=3)
    results["batched_layer_eval"] = {
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
        "pairs": len(layers) * len(configs),
    }
    print(f"batched_layer_eval:   {before:8.3f} s -> {after:8.4f} s  ({before/after:7.1f}x)")

    # ------------------------------------------------------------------
    # 3. Evaluator dataset generation (labelling only, shared table)
    # ------------------------------------------------------------------
    samples = args.samples
    before = _time(
        lambda: legacy_generate_evaluator_dataset(nas_space, hw_space, samples, table, rng=0)
    )
    after = _time(
        lambda: generate_evaluator_dataset(
            nas_space, hw_space, num_samples=samples, cost_table=table, rng=0
        ),
        repeats=3,
    )
    results["dataset_labeling"] = {
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
        "samples": samples,
    }
    print(f"dataset_labeling:     {before:8.3f} s -> {after:8.4f} s  ({before/after:7.1f}x)")

    # ------------------------------------------------------------------
    # 4. End-to-end dataset generation (table build + labelling)
    # ------------------------------------------------------------------
    end_to_end_before = (
        results["cost_table_build"]["before_s"] + results["dataset_labeling"]["before_s"]
    )
    end_to_end_after = _time(
        lambda: generate_evaluator_dataset(nas_space, hw_space, num_samples=samples, rng=0),
        repeats=2,
    )
    results["dataset_generation_end_to_end"] = {
        "before_s": end_to_end_before,
        "after_s": end_to_end_after,
        "speedup": end_to_end_before / end_to_end_after,
        "samples": samples,
    }
    print(
        f"dataset_end_to_end:   {end_to_end_before:8.3f} s -> {end_to_end_after:8.4f} s"
        f"  ({end_to_end_before/end_to_end_after:7.1f}x)"
    )

    # ------------------------------------------------------------------
    # 5. Non-default backends: batched SoA kernels vs per-pair scalar
    #    reference (new keys are listed but not gated by check_bench.py
    #    until the committed baseline includes them)
    # ------------------------------------------------------------------
    for backend_name in ("systolic", "simd"):
        backend = get_backend(backend_name)
        space = backend.search_space("tiny" if args.tiny else "full")
        model = AcceleratorCostModel(backend=backend)
        backend_configs = space.config_list()
        pair_budget = min(len(layers) * len(backend_configs), 4000)
        per_layer_backend = max(1, pair_budget // len(backend_configs))

        def scalar_backend_pairs(backend=backend, limit=per_layer_backend, configs=backend_configs):
            for layer in layers[:limit]:
                for config in configs:
                    backend.reference_latency_ms(layer, config, model.technology)
                    backend.reference_energy_mj(layer, config, model.technology)

        before = _time(scalar_backend_pairs) * (len(layers) / per_layer_backend)
        after = _time(
            lambda: model.evaluate_layer_batch(layers, space.config_batch()), repeats=3
        )
        key = f"{backend_name}_layer_eval"
        results[key] = {
            "before_s": before,
            "after_s": after,
            "speedup": before / after,
            "pairs": len(layers) * len(backend_configs),
        }
        print(f"{key + ':':<22}{before:8.3f} s -> {after:8.4f} s  ({before/after:7.1f}x)")

    # ------------------------------------------------------------------
    # 6. Autograd convolution kernels: cached index plans (gather im2col,
    #    bincount-scatter col2im, fused depthwise fold) vs the legacy
    #    stride-trick/loop lowering kept as the test oracle
    #    (tests/conv_reference.py).  Geometry: a depthwise MBConv-7 layer at
    #    the search resolution — the col2im-dominated shape class that
    #    motivates the plan cache.
    # ------------------------------------------------------------------
    import conv_reference

    from repro.autograd import plans as conv_plans
    from repro.autograd.conv import conv2d
    from repro.autograd.tensor import Tensor

    conv_batch = 8 if bench_scale() == "small" else 16
    conv_channels = 96 if bench_scale() == "small" else 144
    conv_kernel = 7
    conv_pad = conv_kernel // 2
    conv_shape = (conv_batch, conv_channels, 8, 8)
    conv_rng = np.random.default_rng(1)
    conv_x = conv_rng.normal(size=conv_shape)
    conv_w = conv_rng.normal(size=(conv_channels, 1, conv_kernel, conv_kernel))
    conv_meta = {
        "shape": list(conv_shape),
        "kernel": conv_kernel,
        "groups": conv_channels,
    }

    def _warm_time(fn, repeats: int = 3) -> float:
        fn()  # warm the path (and the plan cache) before timing
        return _time(fn, repeats=repeats)

    plan = conv_plans.get_plan(
        conv_shape, (conv_kernel, conv_kernel), (1, 1), (conv_pad, conv_pad)
    )
    positions = plan.out_hw[0] * plan.out_hw[1]
    grad_cols = conv_rng.normal(
        size=(conv_batch, conv_channels * conv_kernel * conv_kernel, positions)
    )
    before = _time(
        lambda: conv_reference.col2im(
            grad_cols,
            conv_shape,
            (conv_kernel, conv_kernel),
            (1, 1),
            (conv_pad, conv_pad),
            plan.out_hw,
        ),
        repeats=3,
    )
    after = _time(lambda: plan.col2im(grad_cols), repeats=3)
    results["col2im"] = {"before_s": before, "after_s": after, "speedup": before / after, **conv_meta}
    print(f"col2im:               {before:8.3f} s -> {after:8.4f} s  ({before/after:7.1f}x)")

    def conv_forward(conv) -> None:
        conv(Tensor(conv_x), Tensor(conv_w), stride=1, padding=conv_pad, groups=conv_channels)

    before = _warm_time(lambda: conv_forward(conv_reference.conv2d))
    after = _warm_time(lambda: conv_forward(conv2d))
    results["conv_fwd"] = {"before_s": before, "after_s": after, "speedup": before / after, **conv_meta}
    print(f"conv_fwd:             {before:8.3f} s -> {after:8.4f} s  ({before/after:7.1f}x)")

    def conv_backward(conv) -> float:
        # Input-gradient backward with frozen weights — the relay regime of
        # co-exploration (the frozen network only passes gradients through
        # to the architecture parameters).  Backward releases the graph it
        # walks: every call gets its own, built before the clock starts so
        # only the backward is timed.
        x = Tensor(conv_x, requires_grad=True)
        graphs = [
            conv(x, Tensor(conv_w), stride=1, padding=conv_pad, groups=conv_channels)
            for _ in range(4)  # one warm-up call + three timed repeats
        ]
        seed = np.ones_like(graphs[0].data)

        def backward_once() -> None:
            x.grad = None
            graphs.pop().backward(seed)

        return _warm_time(backward_once)

    before = conv_backward(conv_reference.conv2d)
    after = conv_backward(conv2d)
    results["conv_bwd"] = {"before_s": before, "after_s": after, "speedup": before / after, **conv_meta}
    print(f"conv_bwd:             {before:8.3f} s -> {after:8.4f} s  ({before/after:7.1f}x)")

    # Weight-gradient contraction: the legacy einsum vs the plan tier's
    # float32 contraction (``plans.grad_weight_fast``, which
    # ``ConvPlan.grad_weight`` runs over the gathered columns) on the same
    # depthwise geometry and columns — the regime where the plan tier
    # switches to the per-sample batched matmul fast form.  (At float64 the
    # plan tier makes the matmul einsum itself makes: the accumulation order
    # is the bit-identity contract.)
    cols32 = plan.im2col(conv_x.astype(np.float32)).reshape(
        conv_batch, conv_channels, conv_kernel * conv_kernel, positions
    )
    grad32 = (
        conv_rng.normal(size=(conv_batch, conv_channels, positions))
        .astype(np.float32)
        .reshape(conv_batch, conv_channels, 1, positions)
    )

    def legacy_grad_weight() -> None:
        np.einsum("ngol,ngkl->gok", grad32, cols32, optimize=True)

    def plan_grad_weight() -> None:
        conv_plans.grad_weight_fast(grad32, cols32)

    legacy_grad_weight()  # warm the einsum path cache
    plan_grad_weight()
    before = _time(legacy_grad_weight, repeats=5)
    after = _time(plan_grad_weight, repeats=5)
    results["conv_bwd_weight"] = {
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
        "dtype": "float32",
        **conv_meta,
    }
    print(f"conv_bwd_weight:      {before:8.3f} s -> {after:8.4f} s  ({before/after:7.1f}x)")

    # ------------------------------------------------------------------
    # 7. One soft-gate supernet train step (every candidate active) at
    #    float32 (the opt-in train_dtype policy) against the same step at
    #    the float64 default
    # ------------------------------------------------------------------
    from repro.autograd.functional import softmax
    from repro.autograd.precision import use_dtype
    from repro.nas import ArchitectureParameters, SuperNet

    bench_space = build_cifar_search_space(
        trainable_base_channels=8 if bench_scale() == "small" else 16
    )
    step_batch = 16 if bench_scale() == "small" else 32
    images = np.random.default_rng(0).normal(size=(step_batch, 3, 8, 8))

    def supernet_step(dtype: str):
        with use_dtype(dtype):
            supernet = SuperNet(bench_space, rng=0)
            arch_params = ArchitectureParameters(bench_space, rng=1)

        def step() -> None:
            with use_dtype(dtype):
                supernet.zero_grad()
                arch_params.zero_grad()
                logits = supernet(Tensor(images), softmax(arch_params.alpha, axis=-1))
                (logits * logits).mean().backward()

        return step

    before = _warm_time(supernet_step("float64"))
    after = _warm_time(supernet_step("float32"))
    results["supernet_step_float32"] = {
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
        "batch": step_batch,
        "positions": bench_space.num_searchable,
    }
    print(f"supernet_step_float32:{before:8.3f} s -> {after:8.4f} s  ({before/after:7.1f}x)")

    # ------------------------------------------------------------------
    # 8. Incremental report scanning (the results browser): the legacy
    #    full-parse report scan over a sweep-sized run tree (every
    #    result.json through SearchResult.from_dict, per-directory status
    #    probes) against a warm incremental scan that serves unchanged
    #    runs from the summary cache (cache load + walk + stats only).
    # ------------------------------------------------------------------
    import shutil
    import tempfile
    from pathlib import Path

    from bench_utils import legacy_report_scan

    from repro.experiments.browser import BrowserCache, scan_runs
    from repro.utils.serialization import save_json

    scan_runs_count = 320 if bench_scale() == "small" else 500
    # Realistic result payloads: the per-epoch history is what makes a
    # paper-scale result.json expensive to parse (search_epochs=120 in the
    # paper's schedule, one logged row per epoch).
    history = [
        {
            "epoch": float(epoch),
            "lambda_2": 0.05,
            "train_ce": 2.5 - 0.01 * epoch,
            "hw_cost": 0.97,
            "entropy": 1.9,
        }
        for epoch in range(120)
    ]
    run_payload = {
        "method": "DANCE (w/ FF)",
        "op_indices": [6, 6, 2, 3, 6, 2, 6, 4, 6],
        "accuracy": 0.5,
        "backend": "eyeriss",
        "hardware": {"pe_x": 8, "pe_y": 16, "rf_size": 64, "dataflow": "RS"},
        "metrics": {"latency_ms": 0.44, "energy_mj": 0.45, "area_mm2": 6.9952},
        "search_seconds": 5.8,
        "candidates_trained": 1,
        "history": history,
    }
    scan_root = Path(tempfile.mkdtemp(prefix="bench_report_scan_"))
    try:
        for index in range(scan_runs_count):
            workdir = scan_root / f"dance-cifar-seed{index}"
            save_json(dict(run_payload, accuracy=0.4 + index * 1e-4), workdir / "result.json")
            save_json(
                {"method": "dance", "task": "cifar", "backend": "eyeriss", "seed": index},
                workdir / "config.json",
            )
            # Finished runs keep their (multi-megabyte, head-read-only)
            # checkpoint; a small stand-in keeps the tree realistic.
            (workdir / "checkpoint.json").write_text(
                '{"steps_completed": 120, "state": "' + "x" * 2048 + '"}', encoding="utf-8"
            )

        legacy_report_scan(scan_root)  # warm the page cache for both sides
        before = _time(lambda: legacy_report_scan(scan_root), repeats=3)
        cache = BrowserCache(scan_root)
        cache.save(scan_runs(scan_root, cached={}).summaries)

        def warm_scan() -> None:
            outcome = scan_runs(scan_root, cached=cache.load())
            assert outcome.parsed == 0, "warm scan unexpectedly re-parsed"

        after = _time(warm_scan, repeats=3)
    finally:
        shutil.rmtree(scan_root, ignore_errors=True)
    results["report_scan"] = {
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
        "runs": scan_runs_count,
        "history_epochs": len(history),
    }
    print(f"report_scan:          {before:8.3f} s -> {after:8.4f} s  ({before/after:7.1f}x)")

    # ------------------------------------------------------------------
    # 9. The serve API (repro.serve over repro.api): a cold HTTP report
    #     (?refresh=1 re-parses every run, rewrites the browser cache and
    #     re-renders the body) against a warm request answered from the
    #     server's resident report body; a report miss that only a new
    #     pending job caused (the full read + render of every result
    #     against a render from the server's resident result fragments);
    #     and a cold /v1/cost query (clears the residency so the CostTable
    #     is rebuilt) against a warm resident-table lookup, both sides
    #     clearing the server's rendered cost bodies so each renders one;
    #     and the strict JSON renderer on the tree's full report document
    #     (json_safe + json.dumps(indent=2) against dumps_strict).
    # ------------------------------------------------------------------
    import http.client
    import threading

    from repro import api
    from repro.serve import create_server
    from repro.utils.serialization import dumps_strict, json_safe

    serve_runs_count = 96 if bench_scale() == "small" else 200
    serve_root = Path(tempfile.mkdtemp(prefix="bench_serve_"))
    server = None
    try:
        for index in range(serve_runs_count):
            workdir = serve_root / f"dance-cifar-seed{index}"
            save_json(dict(run_payload, accuracy=0.4 + index * 1e-4), workdir / "result.json")
            save_json(
                {"method": "dance", "task": "cifar", "backend": "eyeriss", "seed": index},
                workdir / "config.json",
            )
        server = create_server(serve_root, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()

        def fetch(path: str) -> None:
            conn = http.client.HTTPConnection(*server.server_address)
            try:
                conn.request("GET", path)
                response = conn.getresponse()
                body = response.read()
                assert response.status == 200, body[:200]
            finally:
                conn.close()

        fetch("/v1/report")  # prime the browser cache, page cache and resident body
        before = _time(lambda: fetch("/v1/report?refresh=1"), repeats=3)
        after = _time(lambda: fetch("/v1/report"), repeats=3)
        results["serve_report"] = {
            "before_s": before,
            "after_s": after,
            "speedup": before / after,
            "runs": serve_runs_count,
        }
        print(f"serve_report:         {before:8.3f} s -> {after:8.4f} s  ({before/after:7.1f}x)")

        before = _time(lambda: api.report_document(serve_root).render(), repeats=3)
        new_jobs = iter(range(serve_runs_count, serve_runs_count + 3))

        def report_miss() -> float:
            """One GET right after a new pending job appears (the GET alone is timed)."""
            index = next(new_jobs)
            save_json(
                {"method": "dance", "task": "cifar", "backend": "eyeriss", "seed": index},
                serve_root / f"dance-cifar-seed{index}" / "config.json",
            )
            start = time.perf_counter()
            fetch("/v1/report")
            return time.perf_counter() - start

        after = min(report_miss() for _ in range(3))
        results["serve_report_miss"] = {
            "before_s": before,
            "after_s": after,
            "speedup": before / after,
            "runs": serve_runs_count,
        }
        print(f"serve_report_miss:    {before:8.3f} s -> {after:8.4f} s  ({before/after:7.1f}x)")

        def cold_cost_query() -> None:
            server.cost_tables.clear()
            server.cost_bodies.clear()
            fetch("/v1/cost")

        before = _time(cold_cost_query, repeats=3)
        after = _time(lambda: (server.cost_bodies.clear(), fetch("/v1/cost")), repeats=3)
        results["serve_cost_query"] = {
            "before_s": before,
            "after_s": after,
            "speedup": before / after,
        }
        print(f"serve_cost_query:     {before:8.3f} s -> {after:8.4f} s  ({before/after:7.1f}x)")

        # The strict JSON renderer on the tree's full report document: the
        # nulling copy plus the stdlib's pure-Python indenting encoder
        # against the one-pass ``dumps_strict`` (byte-identical output).
        document = api.report_document(serve_root).to_dict()

        def stdlib_render() -> str:
            return json.dumps(json_safe(document), indent=2, allow_nan=False)

        assert dumps_strict(document) == stdlib_render()
        before = _time(stdlib_render, repeats=5)
        after = _time(lambda: dumps_strict(document), repeats=5)
        results["json_render"] = {
            "before_s": before,
            "after_s": after,
            "speedup": before / after,
            "runs": serve_runs_count,
            "bytes": len(stdlib_render()),
        }
        print(f"json_render:          {before:8.3f} s -> {after:8.4f} s  ({before/after:7.1f}x)")
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()
        shutil.rmtree(serve_root, ignore_errors=True)

    # ------------------------------------------------------------------
    # 10. Scheduler promotion decisions (ASHA over the checkpointed work
    #     queue): a cold coordinator sync on a sweep-sized rung-0 tree —
    #     browser scan, score harvest, full cut, state write, retirement
    #     markers — against a warm re-sync on the settled schedule
    #     (cache-served scan, sticky decisions, no writes).
    # ------------------------------------------------------------------
    from repro.experiments.browser import CACHE_FILE
    from repro.experiments.schedulers import STATE_FILE, ASHA, ScheduleCoordinator

    sched_runs_count = 320 if bench_scale() == "small" else 500
    sched_root = Path(tempfile.mkdtemp(prefix="bench_scheduler_"))
    try:
        sched_names = [f"baseline-cifar-seed{index}" for index in range(sched_runs_count)]
        for index, name in enumerate(sched_names):
            workdir = sched_root / name
            save_json(
                {"method": "baseline", "task": "cifar", "backend": "eyeriss", "seed": index},
                workdir / "config.json",
            )
            # A paused rung-0 candidate: checkpoint head carries the step
            # count and the lower-is-better score the harvest reads.
            (workdir / "checkpoint.json").write_text(
                '{"steps_completed": 1, "score": %.6f, "state": "%s"}'
                % (2.0 + (index * 37 % sched_runs_count) * 1e-3, "x" * 2048),
                encoding="utf-8",
            )
        sched = ASHA(eta=3, min_steps=1)

        def cold_sync() -> None:
            (sched_root / CACHE_FILE).unlink(missing_ok=True)
            (sched_root / STATE_FILE).unlink(missing_ok=True)
            ScheduleCoordinator(sched_root, sched, sched_names, 60.0).sync()

        cold_sync()  # warm the page cache (retirement markers persist)
        before = _time(cold_sync, repeats=3)
        coordinator = ScheduleCoordinator(sched_root, sched, sched_names, 60.0)
        coordinator.sync()
        after = _time(coordinator.sync, repeats=3)
    finally:
        shutil.rmtree(sched_root, ignore_errors=True)
    results["scheduler_decide"] = {
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
        "runs": sched_runs_count,
    }
    print(f"scheduler_decide:     {before:8.3f} s -> {after:8.4f} s  ({before/after:7.1f}x)")

    payload = {
        "benchmark": "costmodel",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "space": "tiny" if args.tiny else "full",
        "num_configs": len(hw_space),
        "numpy": np.__version__,
        "results": results,
    }
    output = os.path.abspath(args.output)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
