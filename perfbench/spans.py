"""Span tracing by wrapping the program's public callables from outside.

Nothing in ``src/`` knows about tracing: :class:`Tracer` replaces each
traced callable *where its caller looks it up* (a module attribute, or a
method on its class) with a wrapper that records one span — name, start,
end, parent span, pid, plus optional counters — and restores the originals
on :meth:`Tracer.uninstall`.

Spans are appended to ``<out_dir>/spans-<pid>.jsonl`` and flushed as each
span closes: forked sweep workers leave through ``os._exit`` (no
``atexit``, no buffer flush), so nothing may wait for process end.  Span
ids carry the pid, and a parent opened in another process is dropped, so a
forked worker's spans form their own trees.

:func:`layer_metrics` folds the files into per-layer ``calls`` /
``busy_s`` / ``self_s`` (self = busy minus the union of child spans).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from stats import union_length

#: Counter metrics the span hooks below attach to spans (summed per run).
COUNTERS = (
    "autograd.plan_cache.hits",
    "autograd.plan_cache.misses",
    "experiments.checkpoint_write.bytes",
    "experiments.checkpoint_read.bytes",
    "experiments.browser.parsed",
    "experiments.browser.reused",
)


def _file_bytes(metric: str, path: Any) -> Dict[str, int]:
    return {metric: os.path.getsize(path)}


def _plan_cache() -> Dict[str, int]:
    from repro.autograd.plans import plan_cache_info

    return plan_cache_info()


def _plan_delta(before: Dict[str, int], args, result) -> Dict[str, int]:
    after = _plan_cache()
    return {
        "autograd.plan_cache.hits": after["hits"] - before["hits"],
        "autograd.plan_cache.misses": after["misses"] - before["misses"],
    }


#: (span name, "module[:Class]", attribute, before-hook, counter hook).
#: Module attributes are patched in the module the caller reads them from
#: (``runner`` imports ``save_checkpoint`` by name, ``factory`` imports
#: ``train_evaluator``, ...); methods are patched on their class.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("hwmodel.cost_table", "repro.hwmodel.cost_model:CostTable", "__init__", None, None),
    ("hwmodel.optimal_config", "repro.hwmodel.cost_model:CostTable", "optimal_config", None, None),
    ("hwmodel.metrics_for", "repro.hwmodel.cost_model:CostTable", "metrics_for", None, None),
    ("evaluator.dataset", "repro.experiments.factory", "generate_evaluator_dataset", None, None),
    ("evaluator.train", "repro.experiments.factory", "train_evaluator", None, None),
    ("evaluator.forward", "repro.evaluator.evaluator:Evaluator", "forward", None, None),
    ("core.search_step", "repro.core.co_explore:DanceSearcher", "step", None, None),
    ("core.search_step", "repro.core.rl_coexplore:RLCoExplorationSearcher", "step", None, None),
    ("core.search_step", "repro.core.baselines:BaselineSearcher", "step", None, None),
    ("core.finish", "repro.core.co_explore:DanceSearcher", "finish", None, None),
    ("core.finish", "repro.core.rl_coexplore:RLCoExplorationSearcher", "finish", None, None),
    ("core.finish", "repro.core.baselines:BaselineSearcher", "finish", None, None),
    ("core.train_classifier", "repro.core.co_explore", "train_classifier", None, None),
    ("core.train_classifier", "repro.core.rl_coexplore", "train_classifier", None, None),
    ("core.train_classifier", "repro.core.baselines", "train_classifier", None, None),
    ("nas.supernet_forward", "repro.nas.supernet:SuperNet", "forward", None, None),
    ("autograd.backward", "repro.autograd.tensor:Tensor", "backward", None, None),
    ("autograd.optimizer", "repro.autograd.optim:SGD", "step", None, None),
    ("autograd.optimizer", "repro.autograd.optim:Adam", "step", None, None),
    ("experiments.run", "repro.experiments.runner:Runner", "run", _plan_cache, _plan_delta),
    ("experiments.build_components", "repro.experiments.runner", "build_components", None, None),
    (
        "experiments.checkpoint_write",
        "repro.experiments.runner",
        "save_checkpoint",
        None,
        lambda _, args, result: _file_bytes("experiments.checkpoint_write.bytes", result),
    ),
    (
        "experiments.checkpoint_read",
        "repro.experiments.runner",
        "load_checkpoint",
        None,
        lambda _, args, result: _file_bytes("experiments.checkpoint_read.bytes", args[0]),
    ),
    (
        "experiments.scheduler_sync",
        "repro.experiments.schedulers.coordinator:ScheduleCoordinator",
        "sync",
        None,
        None,
    ),
    (
        "experiments.browser.scan",
        "repro.experiments.browser",
        "browse",
        None,
        lambda _, args, result: {
            "experiments.browser.parsed": result.parsed,
            "experiments.browser.reused": result.reused,
        },
    ),
    ("api.report", "repro.api", "report_document", None, None),
    ("api.summary", "repro.api", "summary_document", None, None),
    ("api.pareto", "repro.api", "pareto_document", None, None),
    ("api.run", "repro.api", "run_document", None, None),
    ("api.cost", "repro.api", "cost_document", None, None),
    ("api.submit_job", "repro.api", "submit_job", None, None),
)

#: Every span name, in report order.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(target[0] for target in TARGETS))


def _resolve(spec: str) -> Any:
    module_name, _, class_name = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Installs span-recording wrappers and writes closed spans per pid."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._patches: List[Tuple[Any, str, Optional[Callable]]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._file = None
        self._file_pid: Optional[int] = None
        self._counter = 0

    # -- installation ---------------------------------------------------
    def install(self) -> "Tracer":
        for name, spec, attribute, before, counters in TARGETS:
            owner = _resolve(spec)
            original = getattr(owner, attribute)
            # An inherited method is shadowed, then un-shadowed on uninstall.
            own = not isinstance(owner, type) or attribute in vars(owner)
            self._patches.append((owner, attribute, original if own else None))
            setattr(owner, attribute, self.wrap(original, name, before, counters))
        return self

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches.clear()
        with self._lock:
            if self._file is not None and self._file_pid == os.getpid():
                self._file.close()
            self._file = None
            self._file_pid = None

    def wrap(
        self,
        func: Callable,
        name: str,
        before: Optional[Callable[[], Any]] = None,
        counters: Optional[Callable[[Any, tuple, Any], Dict[str, int]]] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            state = before() if before is not None else None
            with tracer.span(name) as attrs:
                result = func(*args, **kwargs)
                if counters is not None:
                    attrs.update(counters(state, args, result))
                return result

        return traced

    # -- spans ----------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        pid = os.getpid()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._counter += 1
            span_id = f"{pid}:{self._counter}"
        # A parent opened before a fork belongs to the other process.
        parent = stack[-1] if stack and stack[-1].startswith(f"{pid}:") else None
        stack.append(span_id)
        attrs: Dict[str, Any] = {}
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self._emit(
                {
                    "name": name,
                    "id": span_id,
                    "parent": parent,
                    "pid": pid,
                    "start": start,
                    "end": end,
                    "attrs": attrs,
                }
            )

    def _emit(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record) + "\n"
        with self._lock:
            pid = os.getpid()
            if self._file_pid != pid:
                self._file = open(self.out_dir / f"spans-{pid}.jsonl", "a", encoding="utf-8")
                self._file_pid = pid
            self._file.write(line)
            self._file.flush()


def read_spans(out_dir: Path) -> List[Dict[str, Any]]:
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with path.open(encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def layer_metrics(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-span-name ``calls``, ``busy_s`` and ``self_s``, plus the summed :data:`COUNTERS`.

    Every name in :data:`SPAN_NAMES` and :data:`COUNTERS` is present (zero
    when the workload never reached that layer), so each workload reports
    the same metric set.
    """
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    metrics: Dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics.update({f"{name}.calls": 0, f"{name}.busy_s": 0.0, f"{name}.self_s": 0.0})
    metrics.update(dict.fromkeys(COUNTERS, 0))
    for span in spans:
        name = span["name"]
        busy = span["end"] - span["start"]
        clipped = [
            (max(start, span["start"]), min(end, span["end"]))
            for start, end in children.get(span["id"], ())
        ]
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.busy_s"] += busy
        metrics[f"{name}.self_s"] += busy - union_length(clipped)
        for counter, value in span["attrs"].items():
            metrics[counter] += value
    return metrics
