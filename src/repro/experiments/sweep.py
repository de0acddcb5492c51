"""Parallel sharded sweep execution over a crash-safe file-lock work queue.

A sweep is a grid of (method, seed) runs, each fully described by an
:class:`~repro.experiments.config.ExperimentConfig` and therefore
independently executable, checkpointable and resumable — exactly the
properties an embarrassingly parallel work queue needs.  Three pieces live
here:

* :class:`SweepPlan` — expands a base config into per-run :class:`WorkItem`
  entries keyed by run directory, and can :meth:`~SweepPlan.shard` itself
  into disjoint slices for CI fan-out;
* :class:`WorkQueue` — a cooperative file-lock queue over run directories.
  Any number of workers (processes of one ``--jobs N`` invocation, or
  independent CI shards pointed at a shared directory) claim items by
  atomically creating a ``LOCK`` file, heartbeat it while working, and
  delete it on completion.  A worker that dies leaves its lock behind; once
  the lock's mtime is older than ``lock_ttl`` seconds any other worker
  breaks it and re-claims the item, resuming from the last checkpoint;
* :func:`run_sweep` / :class:`ParallelRunner` — drive workers over a plan.
  Every run is rebuilt deterministically from its config (fixed per-stage
  seed offsets, see :mod:`repro.experiments.factory`), so the results are
  bit-identical to the serial path no matter how many workers execute the
  queue or how often they crash (asserted by ``tests/test_parallel_sweep.py``).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import socket
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.results import SearchResult
from repro.experiments.config import METHODS, ExperimentConfig
from repro.experiments.runner import CHECKPOINT_FILE, CONFIG_FILE, RESULT_FILE, Runner
from repro.experiments.schedulers.base import SweepScheduler
from repro.experiments.schedulers.coordinator import Assignment, ScheduleCoordinator
from repro.experiments.schedulers.state import RETIRED_FILE
from repro.utils.logging import get_logger
from repro.utils.serialization import load_json

logger = get_logger("experiments.sweep")

LOCK_FILE = "LOCK"
FAILED_FILE = "FAILED.txt"

#: Default seconds of heartbeat silence after which a lock counts as dead.
#: Heartbeats fire after every search step and around the setup/finish
#: phases, so the ttl must comfortably exceed the slowest *inter-heartbeat
#: interval* — which is not a search step but the longest unhooked phase:
#: evaluator training during component build, or the final from-scratch
#: retraining inside ``finish``.  Even if a too-small ttl lets a live
#: worker's claim be taken over, runs are deterministic and results are
#: written atomically, so duplicated execution wastes work but cannot
#: corrupt or change any result.
DEFAULT_LOCK_TTL = 3600.0


# ----------------------------------------------------------------------
# Plan: grid expansion and sharding
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkItem:
    """One run of a sweep: a config plus the run-directory name keying it."""

    config: ExperimentConfig

    @property
    def name(self) -> str:
        return self.config.name


@dataclass(frozen=True)
class SweepPlan:
    """An ordered collection of sweep work items (method-major, seed-minor)."""

    items: Tuple[WorkItem, ...]

    @classmethod
    def from_grid(
        cls,
        base_config: ExperimentConfig,
        methods: Optional[Sequence[str]] = None,
        seeds: Optional[Sequence[int]] = None,
        backends: Optional[Sequence[str]] = None,
        tasks: Optional[Sequence[str]] = None,
    ) -> "SweepPlan":
        """Expand ``base_config`` into the (backend, task, method, seed) grid.

        Expansion is backend-major, then task-major, then method-major,
        matching the serial ``Runner.sweep`` loop, so reports list runs
        identically regardless of execution strategy.  ``backends`` and
        ``tasks`` default to the base config's single backend/task; passing
        several crosses the whole grid over them (task names are validated
        against the task registry when each per-run config is built).
        """
        methods = list(methods) if methods is not None else [base_config.method]
        seeds = list(seeds) if seeds is not None else [base_config.seed]
        backends = list(backends) if backends is not None else [base_config.backend]
        tasks = list(tasks) if tasks is not None else [base_config.task]
        for method in methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}; expected one of {sorted(METHODS)}")
        items = tuple(
            WorkItem(base_config.replace(backend=backend, task=task, method=method, seed=seed))
            for backend in backends
            for task in tasks
            for method in methods
            for seed in seeds
        )
        names = [item.name for item in items]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValueError(f"sweep grid maps several runs to the same directory: {sorted(duplicates)}")
        return cls(items)

    @classmethod
    def from_directory(cls, base_dir: Union[str, Path]) -> "SweepPlan":
        """Plan over the pending on-disk runs already queued under ``base_dir``.

        A pending run is a direct child holding a ``config.json`` but no
        ``result.json`` — exactly what ``POST /v1/jobs`` (:mod:`repro.serve`)
        writes — so ``sweep --queue`` workers drain submitted jobs through
        the same claim / heartbeat / complete cycle as grid sweeps.
        Directories whose name disagrees with their config's canonical name
        are skipped (a renamed directory would otherwise execute under a
        name no status query can find), as are unparseable configs (they
        stay visible as ``corrupt``/``pending`` in reports rather than
        crashing the worker).
        """
        base_dir = Path(base_dir)
        items: List[WorkItem] = []
        for config_path in sorted(base_dir.glob(f"*/{CONFIG_FILE}")):
            workdir = config_path.parent
            if (workdir / RESULT_FILE).exists():
                continue
            if (workdir / RETIRED_FILE).exists():
                # A retirement is terminal: draining the run as pending would
                # resurrect a candidate the scheduler already cut.
                logger.info("skipping %s: retired by scheduler", workdir)
                continue
            try:
                config = ExperimentConfig.load(config_path)
            except (OSError, json.JSONDecodeError, TypeError, ValueError):
                logger.warning("skipping %s: unreadable or invalid config", config_path)
                continue
            if config.name != workdir.name:
                logger.warning(
                    "skipping %s: directory name disagrees with config name %r",
                    workdir,
                    config.name,
                )
                continue
            items.append(WorkItem(config))
        return cls(tuple(items))

    def shard(self, index: int, count: int) -> "SweepPlan":
        """The ``index``-th (1-based) of ``count`` disjoint round-robin slices.

        Round-robin (rather than contiguous blocks) keeps shards balanced
        when the grid interleaves cheap and expensive methods.
        """
        if count < 1:
            raise ValueError(f"shard count must be >= 1, got {count}")
        if not 1 <= index <= count:
            raise ValueError(f"shard index must be in 1..{count}, got {index}")
        return SweepPlan(self.items[index - 1 :: count])

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[WorkItem]:
        return iter(self.items)


def parse_shard(spec: str) -> Tuple[int, int]:
    """Parse an ``i/of`` CLI shard spec (1-based) into ``(index, count)``."""
    match = re.fullmatch(r"(\d+)/(\d+)", spec.strip())
    if not match:
        raise ValueError(f"--shard expects I/OF (e.g. 2/3), got {spec!r}")
    index, count = int(match.group(1)), int(match.group(2))
    if count < 1 or not 1 <= index <= count:
        raise ValueError(f"--shard index must be in 1..count, got {spec!r}")
    return index, count


# ----------------------------------------------------------------------
# The crash-safe file-lock work queue
# ----------------------------------------------------------------------
class WorkQueue:
    """Cooperative file-lock work queue over run directories.

    Claiming creates ``<base_dir>/<name>/LOCK`` with ``O_CREAT | O_EXCL``
    (atomic on every POSIX filesystem), so exactly one worker wins each
    item.  The lock records its owner (host, pid, random token) and is
    refreshed (mtime) by :meth:`heartbeat` after every search step; a lock
    whose mtime is older than ``lock_ttl`` seconds is considered abandoned
    by a crashed worker and is broken via an atomic rename — only one
    contender wins the rename, so a reclaimed item still has exactly one
    owner.  :meth:`release`/:meth:`complete` verify the owner token before
    unlinking, so a worker that stalled past the ttl cannot delete the lock
    of the worker that legitimately took over.
    """

    def __init__(
        self,
        base_dir: Union[str, Path],
        names: Sequence[str],
        lock_ttl: float = DEFAULT_LOCK_TTL,
    ) -> None:
        self.base_dir = Path(base_dir)
        self.names = list(names)
        self.lock_ttl = float(lock_ttl)
        self._tokens: Dict[str, str] = {}

    # -- paths ----------------------------------------------------------
    def workdir(self, name: str) -> Path:
        return self.base_dir / name

    def lock_path(self, name: str) -> Path:
        return self.workdir(name) / LOCK_FILE

    def is_done(self, name: str) -> bool:
        return (self.workdir(name) / RESULT_FILE).exists()

    # -- claiming -------------------------------------------------------
    def claim(self, skip: Sequence[str] = ()) -> Optional[str]:
        """The next claimable item name, or ``None`` when nothing is left."""
        for name in self.names:
            if name not in skip and self.try_claim(name):
                return name
        return None

    def try_claim(self, name: str) -> bool:
        """Attempt to claim one item; ``True`` if this worker now owns it."""
        if self.is_done(name):
            return False
        lock = self.lock_path(name)
        lock.parent.mkdir(parents=True, exist_ok=True)
        if lock.exists() and not self._break_if_stale(lock):
            return False
        token = f"{socket.gethostname()}-{os.getpid()}-{os.urandom(8).hex()}"
        try:
            descriptor = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "host": socket.gethostname(),
                    "pid": os.getpid(),
                    "token": token,
                    "claimed_at": time.time(),
                },
                handle,
            )
        self._tokens[name] = token
        return True

    def _break_if_stale(self, lock: Path) -> bool:
        """``True`` if ``lock`` is gone (possibly because we just broke it)."""
        try:
            age = time.time() - lock.stat().st_mtime
        except FileNotFoundError:
            return True
        if age < self.lock_ttl:
            return False
        # Atomic rename: of all workers seeing the stale lock, exactly one
        # wins.  (A lock re-created in the stat->rename window could in
        # principle be swept up too; the window is microseconds wide and the
        # re-creator only got there by breaking the same expired lock, so
        # the queue still ends with at most one owner per item.)
        corpse = lock.with_name(f"{LOCK_FILE}.broken-{os.getpid()}-{time.monotonic_ns()}")
        try:
            os.rename(lock, corpse)
        except FileNotFoundError:
            return True
        corpse.unlink(missing_ok=True)
        logger.warning("broke stale lock %s (no heartbeat for %.0fs > ttl %.0fs)", lock, age, self.lock_ttl)
        return True

    # -- ownership lifecycle -------------------------------------------
    def heartbeat(self, name: str) -> None:
        """Refresh the claim so other workers keep treating it as alive.

        The owner token is re-checked first: a worker that stalled past the
        ttl and lost its claim must not refresh the lock of the worker that
        took over.
        """
        token = self._tokens.get(name)
        if token is None:
            return
        lock = self.lock_path(name)
        try:
            owner = json.loads(lock.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            return
        if owner.get("token") == token:
            try:
                os.utime(lock)
            except FileNotFoundError:
                pass

    def release(self, name: str) -> None:
        """Give up a claim (crash/error path): the item becomes claimable again."""
        self._unlink_owned(name)

    def complete(self, name: str) -> None:
        """Finish a claim after ``result.json`` was written."""
        self._unlink_owned(name)

    def _unlink_owned(self, name: str) -> None:
        token = self._tokens.pop(name, None)
        if token is None:
            return
        lock = self.lock_path(name)
        try:
            owner = json.loads(lock.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            return
        if owner.get("token") == token:
            lock.unlink(missing_ok=True)

    # -- inspection -----------------------------------------------------
    def status(self) -> Dict[str, str]:
        """Per-item state: finished / running / stale / retired / failed / checkpointed / pending."""
        return {name: item_state(self.workdir(name), self.lock_ttl) for name in self.names}


def classify_state(
    *,
    has_result: bool,
    corrupt: bool = False,
    lock_age: Optional[float] = None,
    lock_ttl: float = DEFAULT_LOCK_TTL,
    has_failed: bool = False,
    has_checkpoint: bool = False,
    has_retired: bool = False,
) -> str:
    """The one place a run's queue state is decided.

    Both classification paths feed it: :func:`item_state` stats the run
    directory live, while the results browser
    (:mod:`repro.experiments.browser`) supplies cached artefact flags plus
    a live lock age — keeping the two views agreeing by construction.
    ``corrupt`` marks a run whose ``result.json`` exists but is unusable
    (truncated / garbage / missing keys, see ``docs/browser.md``).
    ``retired`` marks a run a sweep scheduler deliberately cut
    (``RETIRED.txt``, see ``docs/schedulers.md``) — a scheduling outcome,
    distinct from ``failed`` which records a crash.
    """
    if has_result:
        return "corrupt" if corrupt else "finished"
    if lock_age is not None:
        return "running" if lock_age < lock_ttl else "stale"
    if has_retired:
        return "retired"
    if has_failed:
        return "failed"
    if has_checkpoint:
        return "checkpointed"
    return "pending"


def item_state(workdir: Path, lock_ttl: float = DEFAULT_LOCK_TTL) -> str:
    """Classify one run directory for status reporting (live stats)."""
    workdir = Path(workdir)
    lock_age: Optional[float] = None
    try:
        lock_age = time.time() - (workdir / LOCK_FILE).stat().st_mtime
    except OSError:
        pass
    return classify_state(
        has_result=(workdir / RESULT_FILE).exists(),
        lock_age=lock_age,
        lock_ttl=lock_ttl,
        has_failed=(workdir / FAILED_FILE).exists(),
        has_checkpoint=(workdir / CHECKPOINT_FILE).exists(),
        has_retired=(workdir / RETIRED_FILE).exists(),
    )


def sweep_status(
    base_dir: Union[str, Path],
    lock_ttl: float = DEFAULT_LOCK_TTL,
    use_cache: bool = True,
    refresh: bool = False,
) -> Dict[str, Dict[str, Any]]:
    """State of every run directory (``config.json`` marker) under ``base_dir``.

    Served by the incremental results browser via the :mod:`repro.api`
    facade (:func:`repro.api.run_states`): artefact flags and the
    checkpoint step come from the mtime-cached summaries, only each run's
    ``LOCK`` file is statted live (its heartbeat mtime must never be
    cached).  ``use_cache=False`` forces a cold, cache-less scan;
    ``refresh=True`` re-parses everything and rewrites the cache.
    """
    from repro import api

    return api.run_states(
        Path(base_dir), lock_ttl=lock_ttl, use_cache=use_cache, refresh=refresh
    )


def format_sweep_status(status: Mapping[str, Mapping[str, Any]]) -> str:
    """Render :func:`sweep_status` output as a small text table."""
    if not status:
        return "Sweep status: no runs found."
    unfinished = {name: entry for name, entry in status.items() if entry["state"] != "finished"}
    lines = [
        f"Sweep status: {len(status) - len(unfinished)}/{len(status)} runs finished"
        + ("" if unfinished else " — all done")
    ]
    for name, entry in unfinished.items():
        step = entry.get("step")
        progress = f" (checkpointed at step {step})" if step is not None else ""
        lines.append(f"  {name:<32} {entry['state']}{progress}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Workers and sweep execution
# ----------------------------------------------------------------------
def _poll_interval(lock_ttl: float) -> float:
    """How often a waiting worker re-checks the queue."""
    return max(0.1, min(5.0, lock_ttl / 4))


def _drain_claims(
    queue: WorkQueue, names: Sequence[str], run_one: Callable[[str, Path], None]
) -> None:
    """The worker loop shared by sweeps and queued benchmark execution.

    Claim → clear stale ``*.tmp`` debris of killed writers → ``run_one(name,
    workdir)``, until every item is finished or was attempted by this worker.
    When the remaining items are locked by another worker, wait rather than
    exit: a live owner will finish them, a dead owner's lock expires after
    ``lock_ttl`` and this worker takes the item over.  ``run_one`` owns the
    lock lifecycle of its item (it must end in ``complete`` or ``release``).
    """
    attempted: List[str] = []
    poll_interval = _poll_interval(queue.lock_ttl)
    while True:
        name = queue.claim(skip=attempted)
        if name is None:
            if all(queue.is_done(other) or other in attempted for other in names):
                return
            time.sleep(poll_interval)
            continue
        attempted.append(name)
        workdir = queue.workdir(name)
        for stale_tmp in workdir.glob("*.tmp"):
            stale_tmp.unlink(missing_ok=True)
        run_one(name, workdir)


def _drain_queue(base_dir: str, items: Sequence[WorkItem], lock_ttl: float) -> None:
    """One sweep worker: claim and execute runs until the plan is drained.

    Failures are recorded (``FAILED.txt`` with the traceback) and the item's
    lock is released, so other workers — or a later re-launch — can retry;
    this worker does not retry its own failures (a deterministic error would
    loop forever).  Via :func:`_drain_claims`, the worker waits out items
    locked by other (possibly dead) workers, so a sweep invocation returns
    only once its whole plan is finished or failed.
    """
    runner = Runner(base_dir=base_dir)
    queue = WorkQueue(base_dir, [item.name for item in items], lock_ttl=lock_ttl)
    configs = {item.name: item.config for item in items}

    def run_one(name: str, workdir: Path) -> None:
        failed_marker = workdir / FAILED_FILE
        try:
            logger.info("worker %d: claimed %s", os.getpid(), name)
            result = runner.run(
                configs[name],
                workdir=workdir,
                resume=True,
                on_step=lambda step, _name=name: queue.heartbeat(_name),
            )
            assert result is not None  # run() only pauses when max_steps is set
            failed_marker.unlink(missing_ok=True)
            queue.complete(name)
        except Exception as error:  # queue must survive any run failure
            failed_marker.write_text(traceback.format_exc(), encoding="utf-8")
            queue.release(name)
            logger.error("worker %d: %s failed: %s", os.getpid(), name, error)

    _drain_claims(queue, [item.name for item in items], run_one)


def _sweep_worker(base_dir: str, config_dicts: List[Dict[str, Any]], lock_ttl: float) -> None:
    """Multiprocessing entry point (arguments must be picklable)."""
    items = [WorkItem(ExperimentConfig.from_dict(data)) for data in config_dicts]
    _drain_queue(base_dir, items, lock_ttl)


def _drain_scheduled(
    base_dir: str,
    items: Sequence[WorkItem],
    lock_ttl: float,
    scheduler: SweepScheduler,
) -> None:
    """One worker of a scheduled (halving/ASHA) sweep.

    Unlike the grid drain, work arrives in rung-sized slices: each sync of
    the :class:`~repro.experiments.schedulers.coordinator.ScheduleCoordinator`
    yields the currently runnable assignments (candidate + cumulative step
    budget), and the worker claims them through the very same per-run LOCK
    queue as grid sweeps.  A claimed candidate is resumed from its
    checkpoint and paused again once it reaches the rung budget
    (``max_steps``); at the final rung the budget is ``None`` and the run
    finishes normally.  The worker exits once every candidate is terminal
    (finished / corrupt / retired) — or when the schedule is stalled: no
    assignment this worker has not already attempted and no live lock from
    any other worker, which happens only when failed runs block a rung
    quota that can then never fill.  Stalled candidates surface as
    ``unfinished``/``failed`` in the outcome instead of hanging the sweep.
    """
    from repro.experiments.browser.run_summary import checkpoint_head

    runner = Runner(base_dir=base_dir)
    names = [item.name for item in items]
    queue = WorkQueue(base_dir, names, lock_ttl=lock_ttl)
    configs = {item.name: item.config for item in items}
    coordinator = ScheduleCoordinator(base_dir, scheduler, names, lock_ttl)
    poll_interval = _poll_interval(lock_ttl)
    attempted: set = set()  # (name, rung) pairs this worker will not retry

    def run_one(assignment: Assignment, workdir: Path) -> None:
        failed_marker = workdir / FAILED_FILE
        max_steps = None
        if assignment.budget is not None:
            steps, _ = checkpoint_head(workdir / CHECKPOINT_FILE)
            max_steps = max(assignment.budget - (steps or 0), 0)
        try:
            logger.info(
                "worker %d: claimed %s (rung %d, budget %s)",
                os.getpid(),
                assignment.name,
                assignment.rung,
                assignment.budget,
            )
            result = runner.run(
                configs[assignment.name],
                workdir=workdir,
                resume=True,
                max_steps=max_steps,
                on_step=lambda step, _name=assignment.name: queue.heartbeat(_name),
            )
            if result is None:
                queue.release(assignment.name)  # paused at the rung budget
            else:
                failed_marker.unlink(missing_ok=True)
                queue.complete(assignment.name)
        except Exception as error:  # the schedule must survive any run failure
            failed_marker.write_text(traceback.format_exc(), encoding="utf-8")
            queue.release(assignment.name)
            logger.error("worker %d: %s failed: %s", os.getpid(), assignment.name, error)

    while True:
        plan = coordinator.sync()
        if plan.all_terminal:
            return
        progressable = [
            assignment
            for assignment in plan.assignments
            if (assignment.name, assignment.rung) not in attempted
            and assignment.name in configs
        ]
        claimed: Optional[Assignment] = None
        for assignment in progressable:
            if queue.try_claim(assignment.name):
                claimed = assignment
                break
        if claimed is None:
            if not progressable and not any(
                queue.lock_path(assignment.name).exists()
                for assignment in plan.assignments
            ):
                logger.warning(
                    "schedule stalled under %s: %d undecidable candidates left",
                    base_dir,
                    len(plan.assignments) + len(plan.waiting),
                )
                return
            time.sleep(poll_interval)
            continue
        attempted.add((claimed.name, claimed.rung))
        workdir = queue.workdir(claimed.name)
        for stale_tmp in workdir.glob("*.tmp"):
            stale_tmp.unlink(missing_ok=True)
        run_one(claimed, workdir)


def _scheduled_sweep_worker(
    base_dir: str,
    config_dicts: List[Dict[str, Any]],
    lock_ttl: float,
    scheduler: SweepScheduler,
) -> None:
    """Multiprocessing entry point (schedulers are picklable frozen dataclasses)."""
    items = [WorkItem(ExperimentConfig.from_dict(data)) for data in config_dicts]
    _drain_scheduled(base_dir, items, lock_ttl, scheduler)


@dataclass
class SweepOutcome:
    """What a sweep invocation achieved, finished or not."""

    results: List[SearchResult]
    unfinished: List[str]
    report_path: Path
    #: Runs a sweep scheduler deliberately cut (terminal, not unfinished).
    retired: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.unfinished


def run_sweep(
    plan: SweepPlan,
    base_dir: Union[str, Path],
    jobs: int = 1,
    lock_ttl: float = DEFAULT_LOCK_TTL,
    title: Optional[str] = None,
    scheduler: Optional[SweepScheduler] = None,
) -> SweepOutcome:
    """Execute a sweep plan with ``jobs`` workers and write the combined report.

    ``jobs=1`` drains the queue in-process (still through the same claim /
    heartbeat / complete cycle, so concurrent CI shards sharing ``base_dir``
    compose with it); ``jobs>1`` forks worker processes.  Finished runs are
    skipped via their saved results, so re-launching an interrupted sweep —
    or launching complementary ``--shard`` slices — simply fills in what is
    missing.

    ``scheduler`` selects the promotion policy (``docs/schedulers.md``).
    ``None`` and the grid scheduler take the plain run-everything path —
    deliberately the very same code, so ``--scheduler grid`` output is
    byte-identical to an unscheduled sweep; halving/ASHA schedulers route
    through the rung-budgeted drain and may retire runs early.
    """
    base_dir = Path(base_dir)
    scheduled = scheduler is not None and scheduler.name != "grid" and bool(plan.items)
    workers = max(1, min(int(jobs), len(plan.items)))
    if workers <= 1:
        if scheduled:
            _drain_scheduled(str(base_dir), list(plan.items), lock_ttl, scheduler)
        else:
            _drain_queue(str(base_dir), list(plan.items), lock_ttl)
    else:
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        config_dicts = [item.config.to_dict() for item in plan.items]
        if scheduled:
            worker_args: Tuple[Any, ...] = (str(base_dir), config_dicts, lock_ttl, scheduler)
            target: Callable[..., None] = _scheduled_sweep_worker
        else:
            worker_args = (str(base_dir), config_dicts, lock_ttl)
            target = _sweep_worker
        processes = [context.Process(target=target, args=worker_args) for _ in range(workers)]
        for process in processes:
            process.start()
        for process in processes:
            process.join()

    results: List[SearchResult] = []
    unfinished: List[str] = []
    retired: List[str] = []
    for item in plan.items:
        result_path = base_dir / item.name / RESULT_FILE
        if result_path.exists():
            results.append(SearchResult.from_dict(load_json(result_path)))
        elif (base_dir / item.name / RETIRED_FILE).exists():
            retired.append(item.name)
        else:
            unfinished.append(item.name)

    runner = Runner(base_dir=base_dir)
    report = runner.format_report(results, title=title or "Sweep results")
    if retired:
        report += f"\n\nRetired by scheduler ({len(retired)}): " + ", ".join(retired)
    if unfinished:
        report += "\n\n" + format_sweep_status(sweep_status(base_dir, lock_ttl))
    report_path = base_dir / "REPORT.txt"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    # Atomic, per-pid temp: concurrent shard invocations sharing the runs
    # directory each rename a complete report into place (last one wins).
    temporary = report_path.with_name(f"{report_path.name}.{os.getpid()}.tmp")
    temporary.write_text(report + "\n", encoding="utf-8")
    temporary.replace(report_path)
    return SweepOutcome(
        results=results, unfinished=unfinished, report_path=report_path, retired=retired
    )


class ParallelRunner(Runner):
    """A :class:`Runner` whose sweeps fan out over the work queue by default."""

    def __init__(
        self,
        base_dir: Union[str, Path] = "runs",
        jobs: int = 1,
        lock_ttl: float = DEFAULT_LOCK_TTL,
    ) -> None:
        super().__init__(base_dir=base_dir)
        self.jobs = jobs
        self.lock_ttl = lock_ttl

    def sweep(
        self,
        base_config: ExperimentConfig,
        methods: Optional[Sequence[str]] = None,
        seeds: Optional[Sequence[int]] = None,
        title: Optional[str] = None,
        jobs: Optional[int] = None,
        shard: Optional[Tuple[int, int]] = None,
        lock_ttl: Optional[float] = None,
    ) -> List[SearchResult]:
        return super().sweep(
            base_config,
            methods=methods,
            seeds=seeds,
            title=title,
            jobs=self.jobs if jobs is None else jobs,
            shard=shard,
            lock_ttl=self.lock_ttl if lock_ttl is None else lock_ttl,
        )


# ----------------------------------------------------------------------
# Queue execution of prebuilt searches (benchmark harnesses)
# ----------------------------------------------------------------------
def execute_queued(
    tasks: Mapping[str, Callable[[Path], Optional[SearchResult]]],
    base_dir: Union[str, Path],
    lock_ttl: float = DEFAULT_LOCK_TTL,
) -> Dict[str, SearchResult]:
    """Run prebuilt search thunks through the claim → execute → complete cycle.

    ``tasks`` maps run-directory names to callables that receive the claimed
    working directory and return the finished :class:`SearchResult` (writing
    ``result.json`` there, as ``Runner.execute`` does when given a workdir).
    This is the in-process flavour of the work queue used by the Table 2/3/4
    benchmark harnesses, whose searchers are prebuilt from shared
    session-scoped fixtures (trained evaluators) and therefore cannot cross
    process boundaries; config-driven grids use :func:`run_sweep` with
    ``jobs > 1`` instead.  Already-finished items are loaded from their
    saved results rather than re-executed.
    """
    queue = WorkQueue(base_dir, list(tasks), lock_ttl=lock_ttl)
    results: Dict[str, SearchResult] = {}

    def run_one(name: str, workdir: Path) -> None:
        try:
            result = tasks[name](workdir)
        except BaseException:
            queue.release(name)
            raise
        if result is None:
            queue.release(name)
            raise RuntimeError(f"queued task {name!r} did not produce a result")
        queue.complete(name)
        results[name] = result

    _drain_claims(queue, list(tasks), run_one)
    for name in tasks:
        if name not in results:
            results[name] = SearchResult.from_dict(
                load_json(queue.workdir(name) / RESULT_FILE)
            )
    return results
