"""The ``Runner`` — launch, checkpoint, resume and sweep any search method.

A run lives in one working directory::

    <workdir>/
      config.json      # the ExperimentConfig (written at launch)
      checkpoint.json  # periodic lossless snapshot of the searcher state
      result.json      # the final SearchResult (written once finished)

``Runner.run`` drives any :class:`~repro.experiments.base.Searcher` through
its steps, checkpointing every ``config.checkpoint_every`` steps through
:mod:`repro.utils.serialization`.  A killed run is continued with
``Runner.resume`` (CLI: ``python -m repro resume``): the components are
rebuilt deterministically from the saved config, the checkpoint restores
every mutable piece — parameters, optimiser slots, the exact RNG stream —
and the finished result is bit-identical to an uninterrupted run (asserted
by ``tests/test_experiments.py``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.autograd.precision import use_dtype
from repro.core.results import SearchResult, format_comparison_table, format_results_table
from repro.data.synthetic import ImageClassificationDataset
from repro.experiments.config import ExperimentConfig
from repro.experiments.factory import build_components
from repro.utils.logging import get_logger
from repro.utils.serialization import load_checkpoint, load_json, save_checkpoint, save_json

logger = get_logger("experiments.runner")

CONFIG_FILE = "config.json"
CHECKPOINT_FILE = "checkpoint.json"
RESULT_FILE = "result.json"


class Runner:
    """Executes experiments described by :class:`ExperimentConfig` objects."""

    def __init__(self, base_dir: Union[str, Path] = "runs") -> None:
        self.base_dir = Path(base_dir)

    # ------------------------------------------------------------------
    # Low-level step loop (also used directly by the benchmark harnesses)
    # ------------------------------------------------------------------
    def execute(
        self,
        searcher: Any,
        train_set: ImageClassificationDataset,
        val_set: ImageClassificationDataset,
        method_name: Optional[str] = None,
        retrain_final: bool = True,
        workdir: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 0,
        max_steps: Optional[int] = None,
        state: Optional[Dict[str, Any]] = None,
        on_step: Optional[Callable[[int], None]] = None,
    ) -> Optional[SearchResult]:
        """Drive a searcher through setup / steps / finish, checkpointing as asked.

        ``max_steps`` bounds the number of steps executed by *this call* (the
        run is checkpointed and ``None`` is returned when the bound stops it
        early — the programmatic equivalent of killing the process).
        ``state`` is a checkpointed searcher snapshot to resume from.
        ``on_step`` is called with ``steps_completed`` after every step (and
        its checkpoint, if any), as well as once after setup/state-restore
        and once right before ``finish`` — the work-queue workers use it to
        heartbeat their claim locks, so it fires at every phase boundary.
        """
        if method_name is not None:
            searcher.method_name = method_name
        workdir = Path(workdir) if workdir is not None else None
        searcher.setup(train_set, val_set)
        if state is not None:
            searcher.load_state_dict(state)
            if method_name is not None:
                # An explicit override beats the label stored in the checkpoint.
                searcher.method_name = method_name
            logger.info(
                "resumed %s at step %d/%d",
                searcher.method_name,
                searcher.steps_completed,
                searcher.num_steps,
            )
        if on_step is not None:
            on_step(searcher.steps_completed)
        executed = 0
        # Step of the last checkpoint this call wrote: a pause right after a
        # checkpointed step must not write the identical state again.
        checkpointed_at: Optional[int] = None
        while searcher.steps_completed < searcher.num_steps:
            if max_steps is not None and executed >= max_steps:
                if workdir is not None and checkpointed_at != searcher.steps_completed:
                    self._checkpoint(searcher, workdir)
                logger.info(
                    "paused %s at step %d/%d",
                    searcher.method_name,
                    searcher.steps_completed,
                    searcher.num_steps,
                )
                return None
            searcher.step()
            executed += 1
            if (
                workdir is not None
                and checkpoint_every > 0
                and searcher.steps_completed % checkpoint_every == 0
            ):
                self._checkpoint(searcher, workdir)
                checkpointed_at = searcher.steps_completed
            if on_step is not None:
                on_step(searcher.steps_completed)
        if on_step is not None:
            # Last refresh before the (long, unhooked) final retraining.
            on_step(searcher.steps_completed)
        result = searcher.finish(retrain_final=retrain_final)
        if workdir is not None:
            save_json(result.to_dict(), workdir / RESULT_FILE)
        return result

    def _checkpoint(self, searcher: Any, workdir: Path) -> None:
        from repro.experiments.schedulers import rung_score

        state = searcher.state_dict()
        payload: Dict[str, Any] = {"steps_completed": searcher.steps_completed}
        # The candidate's lower-is-better score rides in the checkpoint head
        # (right after the step, so the browser's 256-byte head read finds
        # both): sweep schedulers cut rungs on it without parsing the
        # megabytes of weights behind it.
        history = state.get("history") if isinstance(state, dict) else None
        score = rung_score(history[-1]) if history else None
        if score is not None:
            payload["score"] = score
        payload["state"] = state
        path = save_checkpoint(payload, workdir / CHECKPOINT_FILE)
        logger.info(
            "checkpointed %s at step %d/%d -> %s",
            searcher.method_name,
            searcher.steps_completed,
            searcher.num_steps,
            path,
        )

    # ------------------------------------------------------------------
    # Config-driven runs
    # ------------------------------------------------------------------
    def workdir_for(self, config: ExperimentConfig) -> Path:
        """Default working directory of a config's run."""
        return self.base_dir / config.name

    def run(
        self,
        config: ExperimentConfig,
        workdir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        max_steps: Optional[int] = None,
        method_name: Optional[str] = None,
        on_step: Optional[Callable[[int], None]] = None,
    ) -> Optional[SearchResult]:
        """Execute (or, with ``resume=True``, continue) one configured run.

        ``method_name`` overrides the method label recorded in the result
        (useful when several runs of the same method differ only by a
        hyper-parameter).  Returns the final :class:`SearchResult`, or
        ``None`` when ``max_steps`` paused the run early (a checkpoint is
        left behind).
        """
        workdir = Path(workdir) if workdir is not None else self.workdir_for(config)
        config_path = workdir / CONFIG_FILE
        if resume and config_path.exists():
            saved = ExperimentConfig.load(config_path)
            if saved != config:
                raise ValueError(
                    f"cannot resume {workdir}: its saved config differs from the requested "
                    f"one — resume with the saved config, or use a fresh workdir"
                )
        result_path = workdir / RESULT_FILE
        if resume and result_path.exists():
            logger.info("run %s already finished; loading %s", config.name, result_path)
            return SearchResult.from_dict(load_json(result_path))

        state: Optional[Dict[str, Any]] = None
        checkpoint_path = workdir / CHECKPOINT_FILE
        if resume:
            if checkpoint_path.exists():
                state = load_checkpoint(checkpoint_path)["state"]
        else:
            # A fresh run must not leave artefacts of a previous occupant of
            # this workdir behind: a later `resume` would silently serve them.
            checkpoint_path.unlink(missing_ok=True)
            result_path.unlink(missing_ok=True)
        config.save(config_path)

        # On resume the checkpoint restores the evaluator's trained weights,
        # so skip the (expensive) evaluator training during rebuild.
        train_evaluator_net = not (state is not None and "evaluator" in state)
        components = build_components(config, train_evaluator_net=train_evaluator_net)
        # The step loop runs under the same precision policy the components
        # were built with, so every tensor created during search/retraining
        # matches the parameters' dtype.
        with use_dtype(config.train_dtype):
            return self.execute(
                components.searcher,
                components.train_set,
                components.val_set,
                method_name=method_name,
                retrain_final=config.retrain_final,
                workdir=workdir,
                checkpoint_every=config.checkpoint_every,
                max_steps=max_steps,
                state=state,
                on_step=on_step,
            )

    def resume(
        self,
        workdir: Optional[Union[str, Path]] = None,
        max_steps: Optional[int] = None,
    ) -> Optional[SearchResult]:
        """Continue the run in ``workdir`` (default: latest unfinished run)."""
        if workdir is None:
            workdir = self.find_latest_incomplete()
            if workdir is None:
                raise FileNotFoundError(
                    f"no unfinished run (checkpoint without result) found under {self.base_dir}"
                )
        workdir = Path(workdir)
        config_path = workdir / CONFIG_FILE
        if not config_path.exists():
            raise FileNotFoundError(f"{config_path} not found — is {workdir} a run directory?")
        config = ExperimentConfig.load(config_path)
        return self.run(config, workdir=workdir, resume=True, max_steps=max_steps)

    def find_latest_incomplete(self) -> Optional[Path]:
        """Most recently checkpointed run directory that has no result yet."""
        candidates = [
            path.parent
            for path in self.base_dir.glob(f"*/{CHECKPOINT_FILE}")
            if not (path.parent / RESULT_FILE).exists()
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda run: (run / CHECKPOINT_FILE).stat().st_mtime)

    # ------------------------------------------------------------------
    # Sweeps and reporting
    # ------------------------------------------------------------------
    def sweep(
        self,
        base_config: ExperimentConfig,
        methods: Optional[Sequence[str]] = None,
        seeds: Optional[Sequence[int]] = None,
        title: Optional[str] = None,
        jobs: int = 1,
        shard: Optional[Tuple[int, int]] = None,
        lock_ttl: Optional[float] = None,
        backends: Optional[Sequence[str]] = None,
        tasks: Optional[Sequence[str]] = None,
        scheduler: Optional[Any] = None,
    ) -> List[SearchResult]:
        """Run every (backend, task, method, seed) combination and write a report.

        All sweeps — serial and parallel — go through the crash-safe work
        queue of :mod:`repro.experiments.sweep`: ``jobs`` workers claim runs
        via per-directory file locks, ``shard=(i, of)`` restricts this
        invocation to the i-th of ``of`` disjoint grid slices (CI fan-out),
        ``backends`` crosses the grid over several hardware backends and
        ``tasks`` over several task workloads.  Finished sub-runs are
        skipped (their saved results are reused), so an interrupted sweep is
        simply re-launched.  Raises ``RuntimeError`` if any run of this
        invocation's slice did not finish; partial progress is kept on disk
        and reported by :meth:`report`.
        """
        from repro.experiments.sweep import DEFAULT_LOCK_TTL, SweepPlan, run_sweep

        plan = SweepPlan.from_grid(
            base_config, methods=methods, seeds=seeds, backends=backends, tasks=tasks
        )
        if shard is not None:
            plan = plan.shard(*shard)
        outcome = run_sweep(
            plan,
            base_dir=self.base_dir,
            jobs=jobs,
            lock_ttl=DEFAULT_LOCK_TTL if lock_ttl is None else lock_ttl,
            title=title,
            scheduler=scheduler,
        )
        if outcome.unfinished:
            raise RuntimeError(
                f"sweep left {len(outcome.unfinished)} run(s) unfinished: "
                f"{outcome.unfinished} — see FAILED.txt in the run directories, "
                f"or re-launch the sweep to retry"
            )
        return outcome.results

    def collect_results(self, root: Optional[Union[str, Path]] = None) -> List[SearchResult]:
        """Load every saved ``result.json`` under ``root`` (default: base dir)."""
        return [result for _, result in self.collect_named_results(root)]

    def collect_named_results(
        self, root: Optional[Union[str, Path]] = None
    ) -> List[Tuple[str, SearchResult]]:
        """Every saved result paired with its root-relative run directory.

        For the usual flat layout the name is the run-directory name
        (``method-task-seedN[-backend]``); nested sweep roots keep their
        subpath so two same-named runs in different subtrees stay distinct.
        The Pareto view reuses the name, so a point is traceable back to its
        run directory.
        """
        root = Path(root) if root is not None else self.base_dir
        results = []
        for path in sorted(root.rglob(RESULT_FILE)):
            name = str(path.parent.relative_to(root))
            if name == ".":
                # The root itself is a run directory: keep its real name.
                name = path.parent.resolve().name
            results.append((name, SearchResult.from_dict(load_json(path))))
        return results

    # ------------------------------------------------------------------
    # The incremental results browser behind all reporting
    # ------------------------------------------------------------------
    def browse(
        self,
        root: Optional[Union[str, Path]] = None,
        use_cache: bool = True,
        refresh: bool = False,
        filters: Optional[Dict[str, str]] = None,
        lock_ttl: Optional[float] = None,
    ):
        """Scan ``root`` through the summary cache and apply ``--filter`` slices.

        Returns ``(root, summaries, locked)`` — the resolved root path, the
        (possibly filtered) relpath-to-:class:`RunSummary` mapping every
        report surface below is built from, and the relpaths whose
        directory listed a ``LOCK``.  One call performs at most one
        directory walk; unchanged runs are served from
        ``<root>/.browser_cache.json`` without opening their artefacts
        (see ``docs/browser.md``).
        """
        from repro.experiments.browser import browse, filter_summaries
        from repro.experiments.sweep import DEFAULT_LOCK_TTL

        root = Path(root) if root is not None else self.base_dir
        outcome = browse(root, use_cache=use_cache, refresh=refresh)
        summaries = filter_summaries(
            outcome.summaries,
            filters,
            root,
            DEFAULT_LOCK_TTL if lock_ttl is None else lock_ttl,
            outcome.locked,
        )
        return root, summaries, outcome.locked

    # ------------------------------------------------------------------
    # Pareto view (error vs EDAP, Figure-5 style)
    # ------------------------------------------------------------------
    def format_pareto(self, records: Sequence[Dict[str, Any]]) -> str:
        """Render the Pareto records as a Figure-5 style text table."""
        title = "Error-vs-EDAP Pareto front (Figure 5 style)"
        if not records:
            return f"{title}\n(no finished runs with an accuracy)"
        width = max(len("Run"), *(len(record["run"]) for record in records)) + 2
        header = f"{'Run':<{width}}{'Err.(%)':>9}{'EDAP':>12}{'Front':>7}"
        lines = [title, header, "-" * len(header)]
        for record in records:
            lines.append(
                f"{record['run']:<{width}}"
                f"{100.0 * record['error']:>9.1f}"
                f"{record['edap']:>12.2f}"
                f"{'*' if record['on_front'] else '':>7}"
            )
        return "\n".join(lines)

    def format_report(self, results: Sequence[SearchResult], title: str = "Results") -> str:
        """Render results as the Table-2 style and Table-3 style text tables."""
        if not results:
            return f"{title}\n(no results found)"
        parts = [
            format_results_table(results, title=title),
            "",
            format_comparison_table(results, title="Search-cost comparison (Table 3 style)"),
        ]
        return "\n".join(parts)

    def report(
        self,
        root: Optional[Union[str, Path]] = None,
        include_status: bool = True,
        lock_ttl: Optional[float] = None,
        include_pareto: bool = False,
        use_cache: bool = True,
        refresh: bool = False,
        filters: Optional[Dict[str, str]] = None,
    ) -> str:
        """Render the combined report from one incremental browser scan.

        With ``include_status`` (the default) the report also aggregates
        partial or in-flight sweeps: any run directory under ``root`` that
        has no result yet is listed with its work-queue state (running /
        checkpointed / failed / pending), so ``python -m repro report`` is
        useful while a parallel sweep is still executing.  Pass the sweep's
        ``lock_ttl`` so running-vs-stale classification matches the ttl the
        workers actually used.  ``filters`` slices every section of the
        report to the matching runs (``--filter backend=...,task=...``);
        ``use_cache``/``refresh`` control the summary cache (see
        :meth:`browse`).  On a cold cache the output is byte-identical to
        the pre-browser full rescan.
        """
        from repro import api
        from repro.experiments.browser import results_view, status_view
        from repro.experiments.sweep import DEFAULT_LOCK_TTL, format_sweep_status

        ttl = DEFAULT_LOCK_TTL if lock_ttl is None else lock_ttl
        root, summaries, locked = self.browse(
            root, use_cache=use_cache, refresh=refresh, filters=filters, lock_ttl=ttl
        )
        named = [
            (name, summary.to_result()) for name, summary in results_view(summaries, root)
        ]
        report = self.format_report(
            [result for _, result in named], title=f"Results under {root}"
        )
        if include_pareto:
            report += "\n\n" + self.format_pareto(api.pareto_records(named))
        if include_status:
            status = status_view(summaries, root, ttl, locked)
            if any(entry["state"] != "finished" for entry in status.values()):
                report += "\n\n" + format_sweep_status(status)
        return report

    # ------------------------------------------------------------------
    # Sweep-progress summary (report --summary)
    # ------------------------------------------------------------------
    def format_progress(self, progress: Dict[str, Any]) -> str:
        """Render a :func:`repro.api.summary_document` dict as the ``report --summary`` table."""
        lines = [f"Sweep progress under {progress['root']}"]
        if not progress["runs"]:
            lines.append("(no runs found)")
            return "\n".join(lines)
        counts = "  ".join(
            f"{state}: {count}" for state, count in progress["states"].items()
        )
        lines.append(f"runs: {progress['runs']}  {counts}")
        slices = progress["slices"]
        if slices:
            backend_width = max(len("Backend"), *(len(s["backend"]) for s in slices)) + 2
            task_width = max(len("Task"), *(len(s["task"]) for s in slices)) + 2
            header = f"{'Backend':<{backend_width}}{'Task':<{task_width}}{'Finished':>10}"
            lines += ["", header, "-" * len(header)]
            for entry in slices:
                done = f"{entry['finished']}/{entry['total']}"
                lines.append(
                    f"{entry['backend']:<{backend_width}}{entry['task']:<{task_width}}{done:>10}"
                )
        schedule = progress.get("scheduler")
        if schedule:
            lines += [
                "",
                f"Scheduler: {schedule['name']}  eta: {schedule['eta']}  "
                f"min-steps: {schedule['min_steps']}  candidates: {schedule['candidates']}",
            ]
            header = (
                f"{'Rung':<6}{'Budget':>8}{'Pop.':>7}{'Quota':>7}"
                f"{'Scored':>8}{'Running':>9}{'Promoted':>10}{'Retired':>9}"
            )
            lines += [header, "-" * len(header)]
            for rung in schedule["rungs"]:
                budget = "full" if rung["budget"] is None else str(rung["budget"])
                lines.append(
                    f"{rung['rung']:<6}{budget:>8}{rung['population']:>7}{rung['quota']:>7}"
                    f"{rung['scored']:>8}{rung['running']:>9}{rung['promoted']:>10}"
                    f"{rung['retired']:>9}"
                )
        return "\n".join(lines)
