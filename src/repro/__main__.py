"""``python -m repro`` — the experiment-orchestration command line.

Subcommands (full reference with examples in ``docs/cli.md``):

* ``run``    — launch one configured search (periodically checkpointed);
* ``resume`` — continue a killed/paused run bit-identically from its
  checkpoint (defaults to the most recent unfinished run);
* ``sweep``  — run a (backends x tasks x) methods x seeds grid (``--jobs N``
  parallel workers, ``--shard I/OF`` for CI fan-out, ``--backends`` /
  ``--tasks`` to cross hardware backends and task workloads) and write a
  combined report;
* ``report`` — render all saved results as the paper-style tables, plus the
  state of any partial or in-flight sweep (``--pareto`` adds the
  error-vs-EDAP Pareto front, ``--format json`` the machine-readable
  aggregate, which always includes the Pareto records).  Scanning is
  incremental: unchanged runs are served from ``.browser_cache.json``
  (``--no-cache`` / ``--refresh`` opt out, see ``docs/browser.md``);
  ``--filter backend=...,task=...`` slices every section and ``--summary``
  prints a one-shot sweep-progress table instead.  With ``--format json``
  every payload is a versioned :mod:`repro.api` document, byte-identical
  to the matching ``serve`` endpoint;
* ``serve``  — long-lived HTTP/JSON API over a runs directory: the report
  documents, per-run status, ``/v1/cost`` queries from resident cost
  tables and ``POST /v1/jobs`` job submission (see ``docs/serve.md``).
  Submitted jobs are drained by ``sweep --queue`` workers.

Examples::

    python -m repro run --method dance --seed 0
    python -m repro run --set backend=systolic --seed 1
    python -m repro run --set task=detection --seed 0
    python -m repro resume
    python -m repro sweep --methods baseline baseline_flops dance --seeds 0 1 --jobs 4
    python -m repro sweep --methods dance rl --seeds 0 1 2 --shard 1/3
    python -m repro sweep --backends eyeriss systolic simd --methods dance --seeds 0
    python -m repro sweep --tasks cifar,detection --methods dance --seeds 0
    python -m repro sweep --methods baseline --seeds 0 1 2 3 --scheduler asha --eta 2
    python -m repro report
    python -m repro report --pareto
    python -m repro report --format json
    python -m repro report --summary
    python -m repro report --filter backend=eyeriss,task=cifar10 --pareto
    python -m repro serve --runs runs --port 8000
    python -m repro sweep --queue --jobs 2
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.results import format_results_table
from repro.experiments import METHODS, ExperimentConfig, Runner, SweepPlan, parse_shard, run_sweep
from repro.experiments.sweep import DEFAULT_LOCK_TTL


def _positive_int(raw: str) -> int:
    """argparse type for flags that must be >= 1 (e.g. ``--jobs``)."""
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _available_schedulers() -> List[str]:
    from repro.experiments.schedulers import available_schedulers

    return available_schedulers()


def _name_list(tokens: Optional[List[str]], flag: str) -> Optional[List[str]]:
    """Normalise a grid-axis flag's tokens (space- and/or comma-separated)."""
    if not tokens:
        return None
    names = [name for token in tokens for name in token.split(",") if name]
    if not names:
        raise SystemExit(f"{flag} expects at least one name")
    return names


def _add_common_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", help="JSON file with a full ExperimentConfig (CLI flags override it)"
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any ExperimentConfig field, e.g. --set search_epochs=4",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Launch, resume and sweep co-exploration experiments.",
    )
    parser.add_argument(
        "--runs-dir",
        default="runs",
        help="base directory holding run working directories (default: runs)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="launch one configured search run")
    run.add_argument("--method", choices=sorted(METHODS), help="search method (default: dance)")
    run.add_argument("--seed", type=int, help="seed of the whole experiment (default: 0)")
    run.add_argument("--epochs", type=int, help="shorthand for --set search_epochs=N")
    run.add_argument("--workdir", help="run directory (default: <runs-dir>/<config name>)")
    run.add_argument(
        "--max-steps",
        type=int,
        help="pause (checkpoint and exit) after this many steps — resume continues",
    )
    run.add_argument(
        "--no-retrain",
        action="store_true",
        help="skip the final from-scratch retraining (no accuracy is reported)",
    )
    _add_common_run_options(run)

    resume = subparsers.add_parser("resume", help="continue a checkpointed run")
    resume.add_argument(
        "--workdir", help="run directory (default: most recent unfinished run under --runs-dir)"
    )
    resume.add_argument("--max-steps", type=int, help="pause again after this many steps")

    sweep = subparsers.add_parser("sweep", help="run a methods x seeds grid")
    sweep.add_argument(
        "--methods", nargs="+", choices=sorted(METHODS), default=["dance"], help="methods to run"
    )
    sweep.add_argument("--seeds", nargs="+", type=int, default=[0], help="seeds to run")
    sweep.add_argument(
        "--backends",
        nargs="+",
        metavar="BACKEND",
        help="hardware backends to cross the grid over, space- or comma-separated "
        "(default: the config's backend)",
    )
    sweep.add_argument(
        "--tasks",
        nargs="+",
        metavar="TASK",
        help="task workloads to cross the grid over, space- or comma-separated "
        "(default: the config's task)",
    )
    sweep.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes claiming runs from the work queue (default: 1)",
    )
    sweep.add_argument(
        "--shard",
        metavar="I/OF",
        help="run only the I-th of OF disjoint grid slices (1-based), e.g. 2/3 for CI fan-out",
    )
    sweep.add_argument(
        "--lock-ttl",
        type=float,
        default=DEFAULT_LOCK_TTL,
        metavar="SECONDS",
        help="heartbeat silence after which a crashed worker's claim is re-claimable "
        f"(default: {DEFAULT_LOCK_TTL:.0f})",
    )
    sweep.add_argument(
        "--queue",
        action="store_true",
        help="ignore the grid flags and drain the pending on-disk runs under "
        "--runs-dir instead (config.json without result.json — e.g. jobs "
        "submitted via the serve API)",
    )
    sweep.add_argument(
        "--scheduler",
        choices=_available_schedulers(),
        default="grid",
        help="promotion policy over the grid: grid runs everything (default), "
        "halving/asha run successive-halving rungs and retire weak candidates "
        "early (see docs/schedulers.md)",
    )
    sweep.add_argument(
        "--eta",
        type=int,
        default=3,
        help="halving/asha reduction factor: promote the best 1/eta per rung (default: 3)",
    )
    sweep.add_argument(
        "--min-steps",
        type=_positive_int,
        default=1,
        metavar="STEPS",
        help="halving/asha first-rung step budget; rung r runs to min-steps * eta^r "
        "(default: 1)",
    )
    _add_common_run_options(sweep)

    report = subparsers.add_parser("report", help="render all saved results as tables")
    report.add_argument("--workdir", help="directory to scan (default: --runs-dir)")
    report.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="text tables (default) or the machine-readable JSON aggregate "
        "(which always includes the Pareto records)",
    )
    report.add_argument(
        "--pareto",
        action="store_true",
        help="append the error-vs-EDAP Pareto front (Figure 5 style) to the text report",
    )
    report.add_argument(
        "--lock-ttl",
        type=float,
        default=DEFAULT_LOCK_TTL,
        metavar="SECONDS",
        help="ttl used to classify in-flight runs as running vs stale — pass the "
        "value the sweep ran with",
    )
    report.add_argument(
        "--summary",
        action="store_true",
        help="print a one-shot sweep-progress table (state counts plus "
        "finished/total per backend-task slice) instead of the result tables",
    )
    report.add_argument(
        "--filter",
        action="append",
        default=[],
        metavar="KEY=VALUE[,KEY=VALUE]",
        help="slice the report to matching runs (repeatable); keys: "
        "backend, task, method, seed, state",
    )
    report.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the summary cache (.browser_cache.json): "
        "a pure full rescan",
    )
    report.add_argument(
        "--refresh",
        action="store_true",
        help="ignore every cached summary, re-parse the whole tree, and rewrite "
        "the cache (repair path for a cache suspected stale)",
    )

    serve = subparsers.add_parser(
        "serve", help="serve reports, cost queries and job submission over HTTP"
    )
    serve.add_argument(
        "--runs", help="runs directory to serve (default: --runs-dir)"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="address to bind (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8000, help="port to bind; 0 picks a free port (default: 8000)"
    )
    serve.add_argument(
        "--lock-ttl",
        type=float,
        default=DEFAULT_LOCK_TTL,
        metavar="SECONDS",
        help="ttl used to classify in-flight runs as running vs stale "
        f"(default: {DEFAULT_LOCK_TTL:.0f})",
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
    if getattr(args, "method", None):
        config = config.replace(method=args.method)
    if getattr(args, "seed", None) is not None:
        config = config.replace(seed=args.seed)
    if getattr(args, "epochs", None) is not None:
        config = config.replace(search_epochs=args.epochs)
    if getattr(args, "no_retrain", False):
        config = config.replace(retrain_final=False)
    for override in args.overrides:
        key, separator, raw_value = override.partition("=")
        if not separator:
            raise SystemExit(f"--set expects KEY=VALUE, got {override!r}")
        config = config.apply_override(key, raw_value)
    return config


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    runner = Runner(base_dir=args.runs_dir)

    if args.command == "run":
        config = _config_from_args(args)
        result = runner.run(config, workdir=args.workdir, max_steps=args.max_steps)
        workdir = args.workdir or runner.workdir_for(config)
        if result is None:
            print(f"Paused after --max-steps; resume with: python -m repro resume --workdir {workdir}")
            return 0
        print(format_results_table([result], title=f"Run {config.name}"))
        print(f"Result saved to {workdir}")
        return 0

    if args.command == "resume":
        result = runner.resume(workdir=args.workdir, max_steps=args.max_steps)
        if result is None:
            print("Paused again after --max-steps; rerun: python -m repro resume")
            return 0
        print(format_results_table([result], title="Resumed run"))
        return 0

    if args.command == "sweep":
        try:
            if args.queue:
                plan = SweepPlan.from_directory(runner.base_dir)
                if not len(plan):
                    print(f"No pending runs under {runner.base_dir}; nothing to do.")
                    return 0
                title = f"Queued runs ({len(plan)})"
            else:
                plan = SweepPlan.from_grid(
                    _config_from_args(args),
                    methods=args.methods,
                    seeds=args.seeds,
                    backends=_name_list(args.backends, "--backends"),
                    tasks=_name_list(args.tasks, "--tasks"),
                )
                title = f"Sweep ({len(plan)} runs)"
            if args.shard:
                plan = plan.shard(*parse_shard(args.shard))
            from repro.experiments.schedulers import build_scheduler

            scheduler = build_scheduler(
                args.scheduler, eta=args.eta, min_steps=args.min_steps
            )
        except ValueError as error:
            raise SystemExit(str(error))
        outcome = run_sweep(
            plan,
            base_dir=runner.base_dir,
            jobs=args.jobs,
            lock_ttl=args.lock_ttl,
            title=title,
            scheduler=scheduler,
        )
        print(outcome.report_path.read_text(encoding="utf-8").rstrip())
        print(f"Report saved to {outcome.report_path}")
        if outcome.retired:
            print(
                f"{len(outcome.retired)} run(s) retired by the {args.scheduler} "
                f"scheduler: {', '.join(outcome.retired)}"
            )
        if outcome.unfinished:
            print(
                f"{len(outcome.unfinished)} run(s) unfinished: {', '.join(outcome.unfinished)}"
                " — see FAILED.txt in the run directories, or re-launch the sweep to retry"
            )
            return 1
        return 0

    if args.command == "report":
        from repro import api
        from repro.experiments.browser import parse_filters

        try:
            filters = parse_filters(args.filter)
        except ValueError as error:
            raise SystemExit(str(error))
        options = dict(
            root=args.workdir or runner.base_dir,
            lock_ttl=args.lock_ttl,
            use_cache=not args.no_cache,
            refresh=args.refresh,
            filters=filters,
        )
        if args.format == "json":
            # One repro.api document per surface, rendered through the
            # shared strict encoder — byte-identical to the corresponding
            # `serve` endpoint body on the same runs directory.
            if args.summary:
                print(api.summary_document(**options).render())
            elif args.pareto:
                print(api.pareto_document(**options).render())
            else:
                # The report body is bytes with its trailing newline, the
                # same bytes `GET /v1/report` sends.
                scan = api.report_scan(**options)
                sys.stdout.flush()
                sys.stdout.buffer.write(scan.render(scan.fragments()))
                sys.stdout.buffer.flush()
        elif args.summary:
            print(runner.format_progress(api.summary_document(**options).to_dict()))
        else:
            print(runner.report(include_pareto=args.pareto, **options))
        return 0

    if args.command == "serve":
        from repro.serve import create_server

        server = create_server(
            args.runs or args.runs_dir,
            host=args.host,
            port=args.port,
            lock_ttl=args.lock_ttl,
        )
        print(f"Serving {server.runs_dir} on {server.url} (Ctrl-C to stop)")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
        return 0

    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
