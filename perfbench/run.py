"""End-to-end benchmark of the co-exploration system.

Usage (from the repository root)::

    python3 perfbench/run.py --workload run_dance --seed 0 --seconds 10 --trace 0

Workloads: ``run_dance``, ``run_rl``, ``sweep_asha``, ``serve_mixed`` (see
``perfbench/README.md``).  Human-readable lines come first: the
environment record, every figure with its unit, and any failed check.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics (from a
traced run) with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("run_dance", "run_rl", "sweep_asha", "serve_mixed")

#: Units of the human-readable figures that are not in ``BENCHMARK.json``.
DETAIL_UNITS = {
    "design_edap": "mJ*ms*mm2",
    "design_acc": "fraction",
    "failed_frac": "fraction",
    "req_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "tail_pct": "percentile",
    "samples": "count",
    "operations": "count",
    "cpu_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny configs for the benchmark's own tests (skips the pinned-reference checks)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"no repro package under {ROOT / 'src'} (or no BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    import env
    import workloads

    record = env.environment(ROOT)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.perf_counter()
    try:
        if args.workload == "serve_mixed":
            outcome = workloads.run_serve(
                args.seed, args.seconds, bool(args.trace), work, args.smoke
            )
        else:
            outcome = workloads.run_compute(
                args.workload, args.seconds, bool(args.trace), work, args.smoke
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["loadavg_end"] = list(os.getloadavg())
    record["elapsed_s"] = time.perf_counter() - started

    outcome.details["failed_frac"] = outcome.failed / max(outcome.attempted, 1)
    values = outcome.layers if args.trace else outcome.metrics
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(record, sort_keys=True))
    for name, value in outcome.metrics.items():
        print(f"  {name:<16} {value:.6g} {_unit(spec['end_to_end'], name)}")
    for name, value in outcome.details.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<16} {shown} {DETAIL_UNITS.get(name, '')}")
    print("  wall samples: " + " ".join(f"{wall:.4f}" for wall in outcome.wall_samples))
    for problem in outcome.problems:
        print(f"  FAILED CHECK: {problem}")

    missing = [metric["name"] for metric in wanted if metric["name"] not in values]
    if missing:
        print(f"metrics missing from this workload: {missing}", file=sys.stderr)
        return 3
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in wanted
        },
    }
    print(json.dumps(result))
    return 0


def _unit(metrics, name: str) -> str:
    return next((metric["unit"] for metric in metrics if metric["name"] == name), "")


if __name__ == "__main__":
    sys.exit(main())
