"""One measured operation in a fresh process: ``python3 child.py '<json spec>'``.

Spec kinds:

* ``probe`` — import the package and build the config, then stop (a
  set-up-only sample);
* ``run`` — one ``Runner.run`` of ``spec["config"]`` in ``spec["workdir"]``;
* ``sweep`` — one ``run_sweep`` of ``spec["config"]`` over ``spec["seeds"]``
  with ASHA (``eta``/``min_steps``) and ``jobs`` workers.

With ``spec["trace_dir"]`` set, the public callables are wrapped by
:class:`spans.Tracer` for the operation.  The last stdout line is a JSON
object: ``ready`` (the ``perf_counter`` reading when the operation began,
comparable with the parent's clock), ``wall_s``, ``cpu_s``, ``rss_mb`` and
the outcome.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _rss_mb() -> float:
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    return max(resource.getrusage(each).ru_maxrss for each in who) / 1024.0


def result_record(result) -> dict:
    """A run's outcome without its one nondeterministic field (the timing)."""
    record = result.to_dict()
    record.pop("search_seconds")
    record["edap"] = result.edap
    return record


def main(spec: dict) -> dict:
    from repro.experiments import ExperimentConfig

    config = ExperimentConfig.from_dict(spec["config"])
    if spec["kind"] == "probe":
        from env import blas_info

        return {"ready": time.perf_counter(), "blas_threads": blas_info()[1]}
    tracer = None
    if spec.get("trace_dir"):
        from spans import Tracer

        tracer = Tracer(Path(spec["trace_dir"])).install()
    workdir = Path(spec["workdir"])
    cpu_before = _cpu_s()
    ready = time.perf_counter()
    started = time.time()  # file modification times are on this clock
    if spec["kind"] == "run":
        from repro.experiments import Runner

        result = Runner(workdir.parent).run(config, workdir=workdir)
        wall = time.perf_counter() - ready
        outcome = result_record(result)
    else:
        from repro.experiments import SweepPlan, run_sweep
        from repro.experiments.schedulers import build_scheduler

        plan = SweepPlan.from_grid(config, methods=[config.method], seeds=spec["seeds"])
        sweep = run_sweep(
            plan,
            base_dir=workdir,
            jobs=spec["jobs"],
            scheduler=build_scheduler("asha", eta=spec["eta"], min_steps=spec["min_steps"]),
        )
        outcome = {
            "retired": sorted(sweep.retired),
            "unfinished": sorted(sweep.unfinished),
            "results": [result_record(result) for result in sweep.results],
        }
        # Until the survivor's result is on disk: run_sweep returns only
        # after an idle worker's next queue poll, up to 5 s later.
        written = [path.stat().st_mtime for path in workdir.glob("*/result.json")]
        wall = max(written) - started if written else time.perf_counter() - ready
    if tracer is not None:
        tracer.uninstall()
    return {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": _cpu_s() - cpu_before,
        "rss_mb": _rss_mb(),
        "outcome": outcome,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
