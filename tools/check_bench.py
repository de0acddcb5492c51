#!/usr/bin/env python3
"""Benchmark-regression gate: compare a fresh ``run_bench.py`` measurement
against the committed ``BENCH_costmodel.json`` baseline.

Wall-clock seconds are machine-dependent (a CI runner is not the laptop that
produced the baseline), but each benchmark's *speedup* — the before/after
ratio measured on the same machine in the same process — is comparable across
machines.  The gate therefore requires, for every benchmark key present in
both files::

    fresh.speedup >= max(min_speedup, min_ratio * baseline.speedup)

``min_ratio`` absorbs runner noise (the vectorised "after" timings are tens
of milliseconds); ``min_speedup`` is the hard floor that catches the real
failure mode — losing the vectorised path entirely, which collapses the
speedup to ~1.  Benchmarks named in :data:`TRACKED_KEYS` (e.g.
``supernet_step_float32``, a modest float32-vs-float64 win that is BLAS-bound
rather than a vectorised-vs-scalar chasm) are *tracked*: they are compared
and printed, but gated only on ``max(KEY_FLOORS, min_ratio * baseline)`` — a hard 2x
floor on a ~1x optimisation would turn runner noise into CI flakes, so a
tracked key has an absolute floor only if :data:`KEY_FLOORS` names one.
Every other key keeps the hard floor, whatever its committed baseline says,
so a silently regressed baseline cannot un-gate a vectorised path.  Exit
code 0 when every key passes, 1 otherwise.

Usage::

    python tools/check_bench.py BENCH_fresh.json [--baseline BENCH_costmodel.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Benchmarks exempt from the absolute ``min_speedup`` floor (see module
#: docstring); everything else is gated at ``max(floor, ratio * baseline)``.
#: ``supernet_step_float32`` (float32 vs float64 soft-gate step) is a modest
#: BLAS-bound win; ``conv_fwd`` measures the gather-vs-stride-trick im2col
#: (the legacy side is the test oracle ``tests/conv_reference.py``), a
#: reordering with no arithmetic to vectorise away.  ``col2im`` and
#: ``conv_bwd`` keep the hard 2x floor — losing the scatter-add fold is the
#: regression they exist to catch.
#: ``serve_report`` (``?refresh=1`` re-parse and re-render vs a warm hit on
#: the server's resident report body) is ratio-gated like every tracked key
#: and also carries the absolute :data:`KEY_FLOORS` entry below: the warm
#: side is one browse plus a socket round-trip, so losing the resident body
#: collapses the ratio to ~1.  ``serve_report_miss`` (the full read + render
#: of every result vs a ``/v1/report`` miss that only a new pending job
#: caused) is tracked the same way, with its own floor: losing the server's
#: resident result fragments collapses it to ~1.  ``serve_cost_query``
#: (resident vs rebuilt cost table over HTTP) includes per-request socket
#: round-trips on both sides, so a hard multiple would gate on loopback
#: noise; it gates on relative regressions only.  ``scheduler_decide`` (cold ASHA coordinator
#: sync vs warm re-sync on a settled schedule) is cold-vs-warm like the serve
#: keys — dominated by the browser scan it shares with ``report_scan`` — and
#: is ratio-gated against its committed baseline.  ``conv_bwd_weight``
#: (legacy einsum vs the plan-tier float32 weight-gradient contraction) is
#: tracked for the ratio but also carries an absolute :data:`KEY_FLOORS`
#: entry — losing the matmul fast form is the regression it exists to catch.
#: ``json_render`` (the stdlib's nulling copy + pure-Python indenting encoder
#: vs the one-pass ``dumps_strict`` on a full report document) is tracked
#: with an absolute :data:`KEY_FLOORS` entry: both sides are pure Python
#: whose floor is ``float.__repr__``, so the win is ~2x, not a chasm.
TRACKED_KEYS = frozenset(
    {
        "supernet_step_float32",
        "conv_fwd",
        "conv_bwd_weight",
        "serve_report",
        "serve_report_miss",
        "serve_cost_query",
        "scheduler_decide",
        "json_render",
    }
)

#: Per-benchmark absolute floors that *override* the default ``min_speedup``
#: for keys whose acceptance criterion is stronger than the generic 2x (or,
#: for tracked keys, that add an absolute floor on top of the ratio gate).
#: ``report_scan`` is the results browser's warm-vs-cold scan: a warm report
#: over a sweep-sized tree must stay at least 10x faster than a full
#: re-parse, or the incremental cache has effectively stopped working.
#: ``conv_bwd_weight`` must hold the 1.5x acceptance criterion of the
#: plan-tier weight gradient whatever the baseline drifts to.
#: ``serve_report`` must keep a warm ``/v1/report`` at least 10x faster than
#: a refresh, or the resident report body has stopped being reused.
#: ``serve_report_miss`` must keep a status-only report miss at least 5x
#: cheaper than a full read + render, or the fragments stopped being reused.
#: ``json_render`` must keep ``dumps_strict`` at least 1.5x faster than the
#: stdlib path it replaced, or the one-pass renderer has lost its point.
KEY_FLOORS = {
    "report_scan": 10.0,
    "conv_bwd_weight": 1.5,
    "serve_report": 10.0,
    "serve_report_miss": 5.0,
    "json_render": 1.5,
}


def compare(fresh: dict, baseline: dict, min_ratio: float, min_speedup: float) -> list:
    """Per-benchmark ``(key, fresh_speedup, required, passed)`` records.

    Every baseline key must be present in the fresh run — a benchmark that
    silently disappears from ``run_bench.py`` is itself a regression, so a
    missing key is reported as a failing row (speedup 0).
    """
    rows = []
    fresh_results = fresh.get("results", {})
    for key in sorted(baseline.get("results", {})):
        baseline_speedup = float(baseline["results"][key]["speedup"])
        if key in TRACKED_KEYS:
            # Tracked benchmark: the relative-regression gate applies, plus
            # an absolute floor only if KEY_FLOORS names one explicitly.
            required = max(KEY_FLOORS.get(key, 0.0), min_ratio * baseline_speedup)
        else:
            required = max(KEY_FLOORS.get(key, min_speedup), min_ratio * baseline_speedup)
        if key not in fresh_results:
            rows.append((key, 0.0, required, False))
            continue
        fresh_speedup = float(fresh_results[key]["speedup"])
        rows.append((key, fresh_speedup, required, fresh_speedup >= required))
    return rows


def new_keys(fresh: dict, baseline: dict) -> list:
    """Fresh benchmark keys absent from the committed baseline.

    These are *listed but not gated*: a PR that adds a benchmark (e.g. a new
    hardware backend's kernels) must not fail the regression gate merely
    because the baseline predates the key.  Committing an updated baseline
    later brings them under the gate.
    """
    baseline_results = baseline.get("results", {})
    return sorted(key for key in fresh.get("results", {}) if key not in baseline_results)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="JSON written by a fresh benchmarks/run_bench.py run")
    parser.add_argument(
        "--baseline",
        default=str(REPO_ROOT / "BENCH_costmodel.json"),
        help="committed baseline to compare against",
    )
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.10,
        help="fresh speedup must reach this fraction of the baseline speedup (default: 0.10)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="absolute speedup floor for every benchmark (default: 2.0)",
    )
    args = parser.parse_args()

    fresh = json.loads(Path(args.fresh).read_text(encoding="utf-8"))
    baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
    if fresh.get("space") != baseline.get("space"):
        print(
            f"warning: comparing a {fresh.get('space')!r}-space run against a "
            f"{baseline.get('space')!r}-space baseline; only the absolute floor applies"
        )
        args.min_ratio = 0.0

    rows = compare(fresh, baseline, args.min_ratio, args.min_speedup)
    if not rows:
        print("baseline contains no benchmark results")
        return 1

    failed = [row for row in rows if not row[3]]
    extra = new_keys(fresh, baseline)
    width = max(len(key) for key in [k for k, *_ in rows] + extra)
    for key, fresh_speedup, required, passed in rows:
        verdict = "ok  " if passed else "FAIL"
        detail = (
            "MISSING from fresh run"
            if fresh_speedup == 0.0 and key not in fresh.get("results", {})
            else f"speedup {fresh_speedup:8.1f}x  (required >= {required:.1f}x)"
        )
        print(f"{verdict}  {key:<{width}}  {detail}")
    for key in extra:
        speedup = float(fresh["results"][key].get("speedup", float("nan")))
        print(f"new   {key:<{width}}  speedup {speedup:8.1f}x  (not in baseline; not gated)")
    if failed:
        print(f"\nBenchmark regression gate FAILED for {len(failed)}/{len(rows)} benchmark(s).")
        return 1
    tail = f" + {len(extra)} new ungated" if extra else ""
    print(f"\nBenchmark regression gate passed ({len(rows)} benchmark(s){tail}).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
