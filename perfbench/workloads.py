"""The four workloads: what each runs, how it is timed and how it is checked.

Compute workloads (``run_dance``, ``run_rl``, ``sweep_asha``) run each
operation in a fresh process (``child.py``), so set-up, peak RSS and CPU
belong to that operation alone.  ``serve_mixed`` runs a server and its
clients in this process.  Every workload returns a :class:`Outcome`.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List

import serveload
import spans
from env import blas_info
from stats import latency_summary, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

#: Set-up-only child processes per compute run (each operation adds one more sample).
SETUP_PROBES = 3
#: Seconds a child process may take before it and its workers are killed.
CHILD_TIMEOUT = 170

#: Config seeds the compute workloads time.  The config seed picks the
#: derived architecture and so the retraining cost (``run_rl`` spans 4.2-8.7 s
#: over config seeds 0-2), which no bound could absorb: every timed run uses
#: the pinned seeds, and each run is checked against ``reference.json``.
RUN_CONFIGS = {
    "run_dance": {"method": "dance", "seed": 0},
    "run_rl": {"method": "rl", "seed": 0},
}
SWEEP = {
    "config": {"method": "dance", "search_epochs": 4},
    "seeds": [0, 1, 2, 3],
    "jobs": 2,
    "eta": 2,
    "min_steps": 1,
}
#: BLAS threads per sweep worker: the cores split between the workers.  At
#: OpenBLAS's default (one thread per core in every worker) the threads spin
#: against each other and the sweep swung 40-58 s over five runs, an
#: interquartile spread of 25% of the median that no allowed bound covers.
SWEEP_BLAS_THREADS = max(1, (os.cpu_count() or 1) // SWEEP["jobs"])
#: BLAS threads of a single run.  A shared host slows one vCPU or the other
#: for minutes at a time, and a GEMM split over both waits on the slower:
#: over ten runs at the default two threads, ``run_dance`` slowed by 32% in
#: such periods while the one-thread-per-process sweep and serve runs beside
#: it slowed by about 20%.  One thread costs about 3% of wall time.
RUN_BLAS_THREADS = 1
#: Reduced budget for the benchmark's own smoke tests (no reference check).
SMOKE_CONFIG = {
    "num_searchable": 3,
    "trainable_base_channels": 4,
    "image_samples": 64,
    "evaluator_samples": 80,
    "evaluator_hw_epochs": 2,
    "evaluator_cost_epochs": 2,
    "final_epochs": 1,
    "rl_candidates": 2,
}

SERVE_RUNS = 96
#: One closed-loop client.  With two, the server's handler threads contend
#: for the interpreter lock and the per-run pass medians spread 19% over five
#: seeds (3.5-4.6 s); with one they stayed within 4% (4.43-4.60 s).
SERVE_CLIENTS = 1
SERVE_PASS_REQUESTS = 40
SERVE_SETUPS = 3
#: A median over at least three passes sets one slow pass or RSS peak aside.
SERVE_MIN_PASSES = 3
SMOKE_SERVE_RUNS = 12
SMOKE_PASS_REQUESTS = 24
#: Client-side serve figures, also reported per layer as ``serve.<name>``.
SERVE_DETAILS = ("req_per_s", "p50_ms", "tail_ms", "tail_pct", "samples")
SERVE_LAYERS = tuple(f"serve.{key}" for key in SERVE_DETAILS) + tuple(
    f"serve.{kind}.p50_ms" for kind in serveload.ENDPOINTS
)

#: Spans that should account for the whole traced run on the run workloads.
TOP_SPANS = (
    "experiments.build_components",
    "core.search_step",
    "experiments.checkpoint_write",
    "core.finish",
)


@dataclass
class Outcome:
    """What one benchmark run measured and whether its outputs were right."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: End-to-end metrics (the ``--trace 0`` result).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Human-readable extras: design quality, latency tails, failure share.
    details: Dict[str, Any] = field(default_factory=dict)
    #: Per-layer metrics (the ``--trace 1`` result).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Wall time of every operation (or pass), in order.
    wall_samples: List[float] = field(default_factory=list)

    def record(self, problems: List[str]) -> None:
        """Count one attempted operation, failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


class ChildError(RuntimeError):
    """A measured child process failed or timed out."""


def spawn(spec: Dict[str, Any], work: Path, blas_threads: int) -> Dict[str, Any]:
    """Run ``child.py`` on ``spec``; add ``setup_s`` (spawn to operation start)."""
    env = dict(os.environ, TMPDIR=str(work), OPENBLAS_NUM_THREADS=str(blas_threads))
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT)
    except BaseException:
        # Kill the whole session: a sweep child has forked workers of its own.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    if process.returncode != 0:
        tail = "\n".join(stderr.strip().splitlines()[-5:])
        raise ChildError(f"{spec['kind']} child exited with {process.returncode}: {tail}")
    data = json.loads(stdout.strip().splitlines()[-1])
    data["setup_s"] = data["ready"] - started
    return data


def _config(overrides: Dict[str, Any], smoke: bool) -> Dict[str, Any]:
    from repro.experiments import ExperimentConfig

    config = ExperimentConfig(**overrides)
    if smoke:
        config = config.replace(**SMOKE_CONFIG)
    return config.to_dict()


def _design_problems(name: str, record: Dict[str, Any]) -> List[str]:
    """Differences between a derived design and the pinned reference."""
    expected = REFERENCE[name]
    problems = []
    for key in ("op_indices", "hardware"):
        if record[key] != expected[key]:
            problems.append(f"{name}: {key} {record[key]} != reference {expected[key]}")
    for key in ("edap", "accuracy"):
        if not math.isclose(record[key], expected[key], rel_tol=1e-9):
            problems.append(f"{name}: {key} {record[key]!r} != reference {expected[key]!r}")
    return problems


def _operation_loop(
    seconds: float, trace: bool, minimum: int, operate: Callable[[bool], float]
) -> List[float]:
    """Call ``operate(traced)`` while the next call should end within ``seconds``.

    At least ``minimum`` calls are made; past that, a call starts only if
    one more call as long as the last would still end by the deadline, so
    a run overshoots ``seconds`` only to reach ``minimum``.  Traced runs
    make one untraced call (the overhead baseline) and then one traced
    call.  Returns the traced call's wall time last.
    """
    if trace:
        return [operate(False), operate(True)]
    walls: List[float] = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while len(walls) < minimum or time.perf_counter() + last <= deadline:
        begun = time.perf_counter()
        walls.append(operate(False))
        last = time.perf_counter() - begun
    return walls


def _compute_layers(outcome: Outcome, trace_dir: Path, walls: List[float], jobs: int) -> None:
    layers = spans.layer_metrics(spans.read_spans(trace_dir))
    traced_wall, untraced_wall = walls[-1], walls[0]
    layers["experiments.queue_wait_s"] = jobs * traced_wall - layers["experiments.run.busy_s"]
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    layers["trace.top_coverage"] = sum(
        layers[f"{name}.busy_s"] for name in TOP_SPANS
    ) / (jobs * traced_wall)
    outcome.layers.update(layers)


def run_compute(name: str, seconds: float, trace: bool, work: Path, smoke: bool) -> Outcome:
    """``run_dance`` / ``run_rl`` / ``sweep_asha``: fresh-process operations."""
    outcome = Outcome()
    sweep = name == "sweep_asha"
    config = _config(SWEEP["config"] if sweep else RUN_CONFIGS[name], smoke)
    blas_threads = SWEEP_BLAS_THREADS if sweep else RUN_BLAS_THREADS
    setups: List[float] = []
    for _ in range(SETUP_PROBES):
        probe = spawn({"kind": "probe", "config": config}, work, blas_threads)
        setups.append(probe["setup_s"])

    trace_dir = work / "trace"
    samples: Dict[str, List[float]] = {"cpu_s": [], "rss_mb": []}
    designs: List[Dict[str, Any]] = []

    def operate(traced: bool) -> float:
        index = len(samples["cpu_s"])
        workdir = work / f"op{index}"
        spec: Dict[str, Any] = {"kind": "run", "config": config, "workdir": str(workdir / "run")}
        if sweep:
            spec = dict(SWEEP, kind="sweep", config=config, workdir=str(workdir))
        if traced:
            spec["trace_dir"] = str(trace_dir)
        data = spawn(spec, work, blas_threads)
        setups.append(data["setup_s"])
        samples["cpu_s"].append(data["cpu_s"])
        samples["rss_mb"].append(data["rss_mb"])
        if sweep:
            problems, design = _sweep_problems(workdir, data["outcome"], smoke)
        else:
            design = data["outcome"]
            problems = [] if smoke else _design_problems(name, design)
        if designs and design != designs[0]:
            problems.append(f"{name}: operation {index} differs from operation 0")
        designs.append(design)
        outcome.record(problems)
        outcome.details.update(design_edap=design["edap"], design_acc=design["accuracy"])
        shutil.rmtree(workdir, ignore_errors=True)
        return data["wall_s"]

    walls = _operation_loop(seconds, trace, 1 if sweep else 2, operate)
    outcome.metrics = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "peak_rss_mb": median(samples["rss_mb"]),
    }
    outcome.details["cpu_s"] = median(samples["cpu_s"])
    outcome.details["operations"] = len(walls)
    outcome.wall_samples = walls
    if trace:
        _compute_layers(outcome, trace_dir, walls, SWEEP["jobs"] if sweep else 1)
        outcome.layers["process.cpu_s"] = samples["cpu_s"][-1]
        outcome.layers["process.blas_threads"] = probe["blas_threads"] or 0
        # No HTTP on this workload: the client-side serve figures read zero.
        outcome.layers.update(dict.fromkeys(SERVE_LAYERS, 0.0))
    return outcome


def _sweep_problems(workdir: Path, result: Dict[str, Any], smoke: bool):
    """ASHA's expected shape: 3 retired, 1 finished survivor (the pinned one)."""
    retired = sorted(path.parent.name for path in workdir.glob("*/RETIRED.txt"))
    finished = sorted(path.parent.name for path in workdir.glob("*/result.json"))
    problems = []
    if len(retired) != 3 or len(finished) != 1 or result["unfinished"]:
        problems.append(f"sweep_asha: retired {retired}, finished {finished}")
    if len(result["results"]) != 1:
        problems.append("sweep_asha: expected exactly one result")
        return problems, {"edap": math.nan, "accuracy": math.nan}
    design = dict(result["results"][0], survivor=finished[0] if finished else None)
    if not smoke:
        expected = REFERENCE["sweep_asha"]
        if design["survivor"] != expected["survivor"] or retired != expected["retired"]:
            problems.append(f"sweep_asha: survivor {design['survivor']} != {expected['survivor']}")
        problems += _design_problems("sweep_asha", design)
    return problems, design


def _process_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _reset_peak_rss() -> None:
    """Restart this process's ``ru_maxrss`` high-water mark from its current RSS.

    Lets one long-lived process report a peak per pass, as each compute
    operation does from its own fresh process.  Where ``clear_refs`` is
    unavailable the peak simply accumulates over the run.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Server:
    """A ``repro.serve`` server on a free port, serving in a background thread."""

    def __init__(self, root: Path) -> None:
        from repro.serve import create_server

        self.server = create_server(root, port=0)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)


def _prime(port: int, requests: List[serveload.Request]) -> List[str]:
    """One request of every GET kind (and each cost backend), untimed."""
    seen = set()
    priming = []
    for request in requests:
        key = request.path.split("&")[0] if request.kind == "cost" else request.kind
        if request.method == "GET" and key not in seen:
            seen.add(key)
            priming.append(request)
    replies, _ = serveload.drive(port, priming, clients=1)
    return [f"priming {reply.kind} failed" for reply in replies if not reply.ok]


def run_serve(seed: int, seconds: float, trace: bool, work: Path, smoke: bool) -> Outcome:
    """``serve_mixed``: closed-loop clients against ``create_server`` over a seeded tree."""
    from repro import api

    outcome = Outcome()
    runs = SMOKE_SERVE_RUNS if smoke else SERVE_RUNS
    count = SMOKE_PASS_REQUESTS if smoke else SERVE_PASS_REQUESTS
    setups: List[float] = []
    for attempt in range(SERVE_SETUPS):
        start = time.perf_counter()
        root = work / f"tree{attempt}"
        names = serveload.generate_tree(root, seed, runs)
        requests = serveload.request_schedule(seed, count, names)
        server = _Server(root)
        problems = _prime(server.port, requests)
        setups.append(time.perf_counter() - start)
        outcome.record(problems)
        if attempt < SERVE_SETUPS - 1:
            server.close()  # only the last set-up serves the load
    jobs = serveload.job_names(requests)

    replies: Dict[bool, List[serveload.Reply]] = {False: [], True: []}
    cpu: List[float] = []
    rss: List[float] = []

    def operate(traced: bool) -> float:
        tracer = spans.Tracer(work / "trace").install() if traced else None
        _reset_peak_rss()
        cpu_before = _process_cpu_s()
        try:
            batch, wall = serveload.drive_apart(server.port, requests, SERVE_CLIENTS)
        finally:
            if tracer is not None:
                tracer.uninstall()
        cpu.append(_process_cpu_s() - cpu_before)
        rss.append(_peak_rss_mb())
        for reply in batch:
            outcome.record([] if reply.ok else [f"serve {reply.kind} failed"])
        replies[traced].extend(batch)
        for job in jobs:  # back to the generated tree for the next pass
            shutil.rmtree(root / job, ignore_errors=True)
        return wall

    try:
        walls = _operation_loop(seconds, trace, SERVE_MIN_PASSES, operate)
        # After the load, the served report must equal the in-process document.
        report = serveload.Request("report", "GET", "/v1/report")
        status, body = serveload.fetch_once(server.port, report)
        expected = (api.report_document(root).render() + "\n").encode("utf-8")
        same = status == 200 and body == expected
        outcome.record([] if same else ["serve: /v1/report differs from report_document"])
    finally:
        server.close()

    outcome.wall_samples = walls
    measured = replies[trace]
    latencies = [reply.latency_s * 1000.0 for reply in measured]
    summary = latency_summary(latencies)
    outcome.metrics = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "peak_rss_mb": median(rss),
    }
    outcome.details.update(
        cpu_s=median(cpu),
        req_per_s=len(measured) / (walls[-1] if trace else sum(walls)),
        p50_ms=summary["p50_ms"],
        tail_ms=summary["tail_ms"],
        tail_pct=summary["tail_pct"],
        samples=summary["samples"],
        operations=len(walls),
    )
    if trace:
        layers = spans.layer_metrics(spans.read_spans(work / "trace"))
        layers["trace.overhead_s"] = walls[-1] - walls[0]
        # No Runner.run here: nothing queues and the run-path spans are absent.
        layers["experiments.queue_wait_s"] = 0.0
        layers["trace.top_coverage"] = 0.0
        layers["process.cpu_s"] = cpu[-1]
        layers["process.blas_threads"] = blas_info()[1] or 0
        for kind in serveload.ENDPOINTS:
            kind_ms = [reply.latency_s * 1000.0 for reply in measured if reply.kind == kind]
            layers[f"serve.{kind}.p50_ms"] = median(kind_ms) if kind_ms else 0.0
        layers.update({f"serve.{key}": outcome.details[key] or 0.0 for key in SERVE_DETAILS})
        outcome.layers.update(layers)
    return outcome
