"""The ``serve_mixed`` inputs and client: a seeded run tree, a seeded request
schedule, and a closed loop of keep-alive HTTP clients (run as a script, the
client process of :func:`drive_apart`).

Everything the server sees is generated here from the workload seed; the
server itself only receives the tree on disk and the requests.
"""

from __future__ import annotations

import http.client
import json
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

#: Request mix (kind, weight in percent).  ``submit_job`` is the write.
MIX: Tuple[Tuple[str, int], ...] = (
    ("report", 30),
    ("summary", 20),
    ("pareto", 15),
    ("run", 15),
    ("cost", 15),
    ("submit_job", 5),
)
ENDPOINTS = tuple(kind for kind, _ in MIX)

TASKS = ("cifar", "imagenet", "seq1d", "detection")
BACKENDS = ("eyeriss", "simd", "systolic")
HISTORY_EPOCHS = 120
#: Submitted jobs use seeds far above the tree's, so names never collide.
JOB_SEED_BASE = 1_000_000
#: Seed of the request-kind order, which is the same for every workload seed.
KIND_ORDER_SEED = 0


@dataclass(frozen=True)
class Request:
    kind: str
    method: str
    path: str
    body: Optional[bytes] = None

    @property
    def expected_status(self) -> int:
        return 201 if self.method == "POST" else 200


def _history(rng: random.Random) -> List[dict]:
    return [
        {
            "epoch": epoch,
            "ce": rng.uniform(0.5, 2.5),
            "hw": rng.uniform(0.1, 2.0),
            "lambda2": rng.uniform(0.0, 1.0),
            "entropy": rng.uniform(1.0, 2.0),
            "accuracy": rng.uniform(0.05, 0.6),
        }
        for epoch in range(HISTORY_EPOCHS)
    ]


def generate_tree(root: Path, seed: int, runs: int) -> List[str]:
    """Write a ``runs``-directory tree under ``root``; return the run names.

    A tenth of the runs are pending (``config.json`` only), a tenth
    checkpointed, and the rest finished (``config.json`` + a
    ``SearchResult.to_dict``-shaped ``result.json`` with a 120-epoch
    history), over mixed methods, backends and tasks.
    """
    from repro.experiments import METHODS, ExperimentConfig
    from repro.hwmodel.backends import get_backend
    from repro.utils.serialization import save_json

    rng = random.Random(seed)
    designs = {name: get_backend(name).search_space("tiny").config_list() for name in BACKENDS}
    # Exact state, method, task and backend shares, so every seed's tree
    # costs the same to scan; the seed only deals them out.
    pending = checkpointed = runs // 10
    states = ["pending"] * pending + ["checkpointed"] * checkpointed
    states += ["finished"] * (runs - pending - checkpointed)
    rng.shuffle(states)
    methods = sorted(METHODS)
    columns = [
        [values[index % len(values)] for index in range(runs)]
        for values in (methods, TASKS, BACKENDS)
    ]
    for column in columns:
        rng.shuffle(column)
    names = []
    for index, (state, method, task, backend) in enumerate(zip(states, *columns)):
        config = ExperimentConfig(method=method, seed=index, task=task, backend=backend)
        workdir = root / config.name
        config.save(workdir / "config.json")
        names.append(config.name)
        if state == "pending":
            continue  # a queued config only
        if state == "checkpointed":
            checkpoint = {"steps_completed": rng.randint(1, 3), "state": {}}
            save_json(checkpoint, workdir / "checkpoint.json")
            continue
        result = {
            "method": METHODS[method],
            "op_indices": [rng.randrange(7) for _ in range(config.num_searchable)],
            "accuracy": rng.uniform(0.05, 0.6),
            "backend": config.backend,
            "hardware": rng.choice(designs[config.backend]).as_dict(),
            "metrics": {
                "latency_ms": rng.uniform(0.1, 5.0),
                "energy_mj": rng.uniform(0.1, 5.0),
                "area_mm2": rng.uniform(0.5, 10.0),
            },
            "search_seconds": rng.uniform(5.0, 60.0),
            "candidates_trained": 4 if method == "rl" else 1,
            "history": _history(rng),
        }
        save_json(result, workdir / "result.json")
    return names


def request_schedule(seed: int, count: int, run_names: Sequence[str]) -> List[Request]:
    """The seeded request mix of one pass (a pure function of its arguments).

    Each kind gets exactly its :data:`MIX` share of ``count`` (rounding
    down; the remainder goes to ``report``) and the cost queries cycle
    through the backends.  The order of kinds is the same for every seed,
    so every seed's pass does the same work with the same overlap between
    the clients; the seed picks the run names, cost queries and job configs.
    """
    from repro.experiments import METHODS, ExperimentConfig

    rng = random.Random(seed)
    kinds = [kind for kind, weight in MIX for _ in range(count * weight // 100)]
    kinds += [MIX[0][0]] * (count - len(kinds))
    random.Random(KIND_ORDER_SEED).shuffle(kinds)
    methods = sorted(METHODS)
    requests = []
    costs = 0
    for index, kind in enumerate(kinds):
        if kind == "run":
            requests.append(Request(kind, "GET", f"/v1/runs/{rng.choice(run_names)}"))
        elif kind == "cost":
            arch = ",".join(str(rng.randrange(7)) for _ in range(9))
            backend = BACKENDS[costs % len(BACKENDS)]
            costs += 1
            requests.append(Request(kind, "GET", f"/v1/cost?backend={backend}&arch={arch}"))
        elif kind == "submit_job":
            config = ExperimentConfig(method=rng.choice(methods), seed=JOB_SEED_BASE + index)
            body = json.dumps(config.to_dict()).encode("utf-8")
            requests.append(Request(kind, "POST", "/v1/jobs", body))
        else:
            requests.append(Request(kind, "GET", f"/v1/{kind}"))
    return requests


def job_names(requests: Sequence[Request]) -> List[str]:
    """Run directories the schedule's ``submit_job`` requests create."""
    from repro.experiments import ExperimentConfig

    return [
        ExperimentConfig.from_dict(json.loads(request.body)).name
        for request in requests
        if request.kind == "submit_job"
    ]


def fetch(connection: http.client.HTTPConnection, request: Request) -> Tuple[int, bytes]:
    headers = {"Content-Type": "application/json"} if request.body is not None else {}
    connection.request(request.method, request.path, body=request.body, headers=headers)
    response = connection.getresponse()
    return response.status, response.read()


def fetch_once(port: int, request: Request) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        return fetch(connection, request)
    finally:
        connection.close()


@dataclass(frozen=True)
class Reply:
    kind: str
    ok: bool
    latency_s: float


def drive(port: int, requests: Sequence[Request], clients: int) -> Tuple[List[Reply], float]:
    """Send ``requests`` from ``clients`` closed-loop threads; return replies and wall time.

    Client ``c`` sends requests ``c, c + clients, ...`` in order over one
    keep-alive connection, each only after the previous reply arrived.  A
    wrong status or a connection error is a failed reply (its latency still
    counts); the client then reconnects.
    """
    replies: List[List[Reply]] = [[] for _ in range(clients)]

    def client(slot: int) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            for request in requests[slot::clients]:
                start = time.perf_counter()
                try:
                    status, _ = fetch(connection, request)
                    ok = status == request.expected_status
                except (OSError, http.client.HTTPException):
                    ok = False
                    connection.close()
                    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
                replies[slot].append(Reply(request.kind, ok, time.perf_counter() - start))
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(slot,)) for slot in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    wall = time.perf_counter() - start
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a serve client did not finish within 120 s")
    return [reply for per_client in replies for reply in per_client], wall


def drive_apart(port: int, requests: Sequence[Request], clients: int) -> Tuple[List[Reply], float]:
    """:func:`drive` from a separate client process.

    The server's handler threads then never share an interpreter lock with
    the clients, whose timestamps would otherwise wait on it.
    """
    spec = {
        "port": port,
        "clients": clients,
        "requests": [
            [request.kind, request.method, request.path, request.body and request.body.decode()]
            for request in requests
        ],
    }
    completed = subprocess.run(
        [sys.executable, __file__, json.dumps(spec)],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    data = json.loads(completed.stdout)
    return [Reply(*reply) for reply in data["replies"]], data["wall"]


def _client_process(spec: dict) -> dict:
    requests = [
        Request(kind, method, path, body and body.encode())
        for kind, method, path, body in spec["requests"]
    ]
    replies, wall = drive(spec["port"], requests, spec["clients"])
    return {"wall": wall, "replies": [[r.kind, r.ok, r.latency_s] for r in replies]}


if __name__ == "__main__":
    print(json.dumps(_client_process(json.loads(sys.argv[1]))))
