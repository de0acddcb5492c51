"""Tests for the pluggable TaskWorkload layer.

Covers the task registry (lookup, hints, third-party registration), the
bit-identity of the classification tasks against golden pre-refactor results
(RNG streams, searcher trajectories and final metrics), end-to-end smoke
runs of the detection and seq1d workloads, cross-task resume bit-identity,
the soft-gate mixed-op forward, and the task-crossing sweep / Pareto
reporting CLI.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.autograd import Tensor, no_grad
from repro.autograd.functional import softmax
from repro.data import DataLoader, make_detection_dataset, make_sequence_dataset
from repro.data.detection import DetectionTargets
from repro.experiments import ExperimentConfig, Runner
from repro.hwmodel import tiny_search_space
from repro.hwmodel.cost_model import CostTable
from repro.nas import ArchitectureParameters, SuperNet, build_cifar_search_space
from repro.tasks import (
    DetectionHead,
    TaskWorkload,
    available_tasks,
    get_task,
    register_task,
)
from repro.tasks.detection import build_detection_search_space
from repro.tasks.seq1d import SEQ1D_CHANNELS, build_seq1d_search_space

GOLDEN = json.loads((Path(__file__).parent / "golden_task_runs.json").read_text())

#: The pre-refactor tiny-run configuration the golden results were captured with.
GOLDEN_CONFIG = dict(
    hw_space="tiny",
    num_searchable=3,
    trainable_base_channels=4,
    image_samples=64,
    evaluator_samples=60,
    evaluator_hw_epochs=2,
    evaluator_cost_epochs=3,
    search_epochs=1,
    final_epochs=1,
    rl_candidates=2,
    checkpoint_every=0,
)

TINY_TASK_RUN = dict(GOLDEN_CONFIG)

#: The default-width golden: the stock ``ExperimentConfig`` (full search
#: space, default widths and batch sizes) for two search epochs.  Unlike the
#: tiny goldens it is sensitive to the memory layout the conv lowering hands
#: downstream reductions, so a layout change that rounds differently fails it.
DEFAULT_GOLDEN_CONFIG = dict(seed=0, search_epochs=2, retrain_final=False, checkpoint_every=0)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestTaskRegistry:
    def test_builtins_available(self):
        names = available_tasks()
        assert set(names) >= {"cifar", "imagenet", "detection", "seq1d"}

    def test_get_task_returns_registered_instance(self):
        assert get_task("cifar").name == "cifar"
        assert get_task("detection").default_num_classes == 5

    def test_unknown_task_gets_hint(self):
        with pytest.raises(ValueError, match="did you mean 'detection'"):
            get_task("detectoin")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_task(get_task("cifar"))

    def test_builtin_import_respects_explicit_registrations(self):
        # A third party may replace a built-in name *before* the lazy built-in
        # module import runs; that import registers several tasks per module
        # and must neither clobber the explicit registration nor raise.
        import importlib

        from repro.tasks import classification

        original = get_task("imagenet")

        class MyImagenet(TaskWorkload):
            name = "imagenet"
            default_num_classes = 99

            def build_search_space(self, config):  # pragma: no cover - unused
                raise NotImplementedError

            def build_dataset(self, config, rng=None):  # pragma: no cover - unused
                raise NotImplementedError

        try:
            register_task(MyImagenet(), replace=True)
            importlib.reload(classification)  # built-in (re)import must not conflict
            assert get_task("imagenet").default_num_classes == 99
            assert get_task("cifar").name == "cifar"
        finally:
            register_task(original, replace=True)

    def test_third_party_task_registers_and_replaces(self):
        class MyTask(TaskWorkload):
            name = "cifar"
            default_num_classes = 3

            def build_search_space(self, config):  # pragma: no cover - unused
                raise NotImplementedError

            def build_dataset(self, config, rng=None):  # pragma: no cover - unused
                raise NotImplementedError

        original = get_task("cifar")
        try:
            registered = register_task(MyTask(), replace=True)
            assert get_task("cifar") is registered
        finally:
            register_task(original, replace=True)


# ----------------------------------------------------------------------
# Config integration
# ----------------------------------------------------------------------
class TestConfigTaskIntegration:
    def test_all_builtin_tasks_validate(self):
        for task in available_tasks():
            assert ExperimentConfig(task=task).task == task

    def test_unknown_task_rejected_with_hint(self):
        with pytest.raises(ValueError, match="did you mean 'seq1d'"):
            ExperimentConfig(task="seq2d")

    def test_num_classes_defaults_come_from_registry(self):
        assert ExperimentConfig(task="detection").effective_num_classes == 5
        assert ExperimentConfig(task="seq1d").effective_num_classes == 6
        assert ExperimentConfig(task="seq1d", num_classes=9).effective_num_classes == 9

    def test_task_names_run_directories(self):
        assert ExperimentConfig(task="detection").name == "dance-detection-seed0"
        assert (
            ExperimentConfig(task="seq1d", backend="simd").name == "dance-seq1d-seed0-simd"
        )


# ----------------------------------------------------------------------
# Bit-identity of the classification tasks (the refactor's oracle)
# ----------------------------------------------------------------------
class TestClassificationBitIdentity:
    """cifar/imagenet runs through the task registry reproduce golden
    pre-refactor results bit-for-bit: same RNG streams, same searcher
    trajectories (history floats), same derived design and oracle metrics."""

    @pytest.mark.parametrize(
        "key, overrides",
        [
            ("dance-cifar", dict(GOLDEN_CONFIG, method="dance", task="cifar")),
            ("baseline-cifar", dict(GOLDEN_CONFIG, method="baseline", task="cifar")),
            ("rl-cifar", dict(GOLDEN_CONFIG, method="rl", task="cifar")),
            ("baseline-imagenet", dict(GOLDEN_CONFIG, method="baseline", task="imagenet")),
            ("dance-cifar-default", dict(DEFAULT_GOLDEN_CONFIG, method="dance", task="cifar")),
        ],
    )
    def test_matches_golden(self, tmp_path, key, overrides):
        result = Runner(base_dir=tmp_path).run(ExperimentConfig(**overrides))
        produced = result.to_dict()
        produced.pop("search_seconds")
        # Compared as canonical JSON so a NaN accuracy (``retrain_final=False``)
        # equals itself; every float still has to match to its last bit.
        assert json.dumps(produced, sort_keys=True) == json.dumps(GOLDEN[key], sort_keys=True)


# ----------------------------------------------------------------------
# Detection / seq1d spaces and datasets
# ----------------------------------------------------------------------
class TestDetectionWorkload:
    def test_space_declares_branches_and_head(self):
        space = build_detection_search_space(num_searchable=3)
        assert isinstance(space.task_head, DetectionHead)
        assert [cfg.name for cfg in space.branch_layers] == ["cls_branch", "box_branch"]
        fixed = space.fixed_workload_layers()
        assert [layer.name.split(".")[-1] for layer in fixed] == [
            "stem",
            "head",
            "cls_branch",
            "box_branch",
        ]
        # Branch convolutions enter the architecture workload.
        workload = space.build_workload([0, 0, 0])
        assert workload.layers[-1].name.endswith("box_branch")

    def test_cost_table_includes_branches(self):
        plain = build_cifar_search_space(num_searchable=3, num_classes=5)
        detection = build_detection_search_space(num_searchable=3)
        hw_space = tiny_search_space()
        plain_table = CostTable(plain, hw_space)
        detection_table = CostTable(detection, hw_space)
        assert np.all(detection_table.fixed_latency > plain_table.fixed_latency)

    def test_dataset_targets_and_split(self):
        dataset = make_detection_dataset(num_samples=40, num_classes=5, resolution=8, rng=0)
        assert dataset.boxes.shape == (40, 4)
        assert np.all(dataset.boxes > 0.0) and np.all(dataset.boxes <= 1.0)
        train, val = dataset.split(0.75, rng=1)
        assert len(train) == 30 and val.boxes.shape == (10, 4)
        images, targets = next(iter(DataLoader(dataset, batch_size=8, shuffle=False)))
        assert isinstance(targets, DetectionTargets)
        assert targets.boxes.shape == (8, 4)
        assert np.array_equal(targets.labels, dataset.labels[:8])

    def test_head_loss_and_accuracy(self):
        head = DetectionHead(num_classes=5)
        outputs = Tensor(np.random.default_rng(0).normal(size=(6, 9)), requires_grad=True)
        targets = DetectionTargets(
            labels=np.arange(6) % 5,
            boxes=np.full((6, 4), 0.5),
        )
        loss = head.loss(outputs, targets, label_smoothing=0.1)
        loss.backward()
        assert outputs.grad is not None and np.any(outputs.grad != 0.0)
        assert head.predictions(outputs).shape == (6,)
        assert 0 <= head.correct_count(outputs, targets) <= 6
        boxes = head.predicted_boxes(outputs)
        assert np.all((boxes > 0.0) & (boxes < 1.0))


class TestSeq1DWorkload:
    def test_space_is_one_dimensional(self):
        space = build_seq1d_search_space(num_searchable=3)
        assert space.geometry == "1d"
        stem, head = space.fixed_workload_layers()
        assert stem.h == 1 and stem.r == 1 and stem.s == 3 and stem.w == 64
        assert head.h == 1
        layers = space.op_layers(0, 4)  # conv1d7_e3
        assert [layer.h for layer in layers] == [1, 1, 1]
        depthwise = layers[1]
        assert depthwise.r == 1 and depthwise.s == 7 and depthwise.groups == depthwise.c

    def test_non_square_layers_cost_finite(self):
        space = build_seq1d_search_space(num_searchable=3)
        table = CostTable(space, tiny_search_space())
        latency, energy, area = table.metrics_per_config(np.array([0, 3, 5]))
        assert np.all(np.isfinite(latency)) and np.all(latency > 0)
        assert np.all(np.isfinite(energy)) and np.all(area > 0)

    def test_dataset_shape_and_signal(self):
        dataset = make_sequence_dataset(num_samples=60, num_classes=6, length=8, rng=0)
        assert dataset.images.shape == (60, SEQ1D_CHANNELS, 1, 8)
        assert set(np.unique(dataset.labels)) == set(range(6))

    def test_supernet_runs_on_sequences(self):
        space = build_seq1d_search_space(num_searchable=3, trainable_base_channels=4)
        net = SuperNet(space, rng=0)
        x = Tensor(np.random.default_rng(0).normal(size=(2, SEQ1D_CHANNELS, 1, 8)))
        logits = net.forward_discrete(x, [0, 3, 6])
        assert logits.shape == (2, space.num_classes)
        assert np.all(np.isfinite(logits.data))


# ----------------------------------------------------------------------
# End-to-end runs, resume bit-identity
# ----------------------------------------------------------------------
def _strip_clock(result) -> dict:
    data = result.to_dict()
    data.pop("search_seconds")
    return data


class TestNewTaskRuns:
    @pytest.mark.parametrize("task", ["detection", "seq1d"])
    def test_end_to_end_run(self, tmp_path, task):
        config = ExperimentConfig(task=task, method="dance", **TINY_TASK_RUN)
        result = Runner(base_dir=tmp_path).run(config)
        assert math.isfinite(result.metrics.edap) and result.metrics.edap > 0
        assert math.isfinite(result.accuracy)
        assert (tmp_path / config.name / "result.json").exists()

    @pytest.mark.parametrize("task, method", [("detection", "baseline"), ("seq1d", "rl")])
    def test_resume_bit_identical(self, tmp_path, task, method):
        config = ExperimentConfig(
            task=task,
            method=method,
            **{**TINY_TASK_RUN, "checkpoint_every": 1, "search_epochs": 2},
        )
        runner = Runner(base_dir=tmp_path)
        uninterrupted = runner.run(config, workdir=tmp_path / "full")
        paused = runner.run(config, workdir=tmp_path / "paused", max_steps=1)
        assert paused is None
        resumed = runner.run(config, workdir=tmp_path / "paused", resume=True)
        assert _strip_clock(uninterrupted) == _strip_clock(resumed)


# ----------------------------------------------------------------------
# Soft-gate mixed-op forward
# ----------------------------------------------------------------------
class TestSoftGates:
    @pytest.mark.parametrize("flavour", ["cifar", "seq1d"])
    def test_soft_gates_mix_every_candidate(self, flavour):
        """With ``softmax(alpha)`` gates every position outputs the gated sum
        of all its candidates plus the skip path, and the logits get a
        finite, non-zero gradient through every position."""
        if flavour == "cifar":
            space = build_cifar_search_space(num_searchable=3, trainable_base_channels=4)
            shape = (4, 3, 8, 8)
        else:
            space = build_seq1d_search_space(num_searchable=3, trainable_base_channels=4)
            shape = (4, SEQ1D_CHANNELS, 1, 8)
        net = SuperNet(space, rng=0)
        params = ArchitectureParameters(space, rng=1)
        gates = softmax(params.alpha, axis=-1)
        out = net.stem(Tensor(np.random.default_rng(2).normal(size=shape)))
        for position, mixed in enumerate(net.mixed_ops):
            position_gates = gates[position]
            with no_grad():
                expected = None
                for index, candidate in enumerate(mixed.candidates):
                    term = candidate(out).data * position_gates.data[index]
                    expected = term if expected is None else expected + term
                expected = expected + mixed.skip(out).data
            out = mixed(out, position_gates)
            assert np.array_equal(out.data, expected), position
        logits = net.output_module(net.head(out))
        (logits * logits).mean().backward()
        grad = params.alpha.grad
        assert np.all(np.isfinite(grad))
        assert np.all(np.abs(grad).sum(axis=1) > 0)


class TestFlopsModelGeneric:
    def test_normalized_penalty_invariant_to_cost_batch(self):
        # Fixed layers and candidates are both scaled by batch_size_for_cost,
        # so the FLOPs-penalty baseline's normalised objective is unchanged.
        from repro.nas import FlopsModel

        space_a = build_cifar_search_space(num_searchable=3)
        space_b = build_cifar_search_space(num_searchable=3)
        space_b.batch_size_for_cost = 16
        probabilities = Tensor(
            np.full((3, space_a.num_ops), 1.0 / space_a.num_ops)
        )
        penalty_a = FlopsModel(space_a).normalized_expected_flops(probabilities).item()
        penalty_b = FlopsModel(space_b).normalized_expected_flops(probabilities).item()
        assert penalty_a == pytest.approx(penalty_b, rel=1e-12)

    def test_seq1d_table_matches_workload_layers(self):
        from repro.nas import FlopsModel

        space = build_seq1d_search_space(num_searchable=3)
        model = FlopsModel(space)
        expected = sum(layer.flops for layer in space.op_layers(1, 2))
        assert model.table[1, 2] == expected


# ----------------------------------------------------------------------
# CLI: run --set task=..., sweep --tasks crossing, report --pareto
# ----------------------------------------------------------------------
class TestTaskCLI:
    CLI_SETTINGS = [
        "--set", "num_searchable=3",
        "--set", "trainable_base_channels=4",
        "--set", "image_samples=64",
        "--set", "search_epochs=1",
        "--set", "final_epochs=1",
        "--set", "hw_space=tiny",
        "--set", "evaluator_samples=40",
        "--set", "evaluator_hw_epochs=1",
        "--set", "evaluator_cost_epochs=1",
    ]

    def test_run_task_override_and_sweep_tasks_crossing(self, tmp_path, capsys):
        from repro.__main__ import main

        runs = str(tmp_path / "runs")
        assert (
            main(
                ["--runs-dir", runs, "run", "--method", "baseline",
                 "--set", "task=seq1d", *self.CLI_SETTINGS]
            )
            == 0
        )
        assert (tmp_path / "runs" / "baseline-seq1d-seed0" / "result.json").exists()

        assert (
            main(
                ["--runs-dir", runs, "sweep", "--methods", "baseline",
                 "--seeds", "0", "--tasks", "cifar,detection", *self.CLI_SETTINGS]
            )
            == 0
        )
        assert (tmp_path / "runs" / "baseline-cifar-seed0" / "result.json").exists()
        assert (tmp_path / "runs" / "baseline-detection-seed0" / "result.json").exists()

        capsys.readouterr()
        assert main(["--runs-dir", runs, "report", "--pareto"]) == 0
        text = capsys.readouterr().out
        assert "Pareto front" in text and "baseline-seq1d-seed0" in text

        assert main(["--runs-dir", runs, "report", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["results"]) == 3
        pareto = data["pareto"]
        assert {record["run"] for record in pareto} == {
            "baseline-seq1d-seed0",
            "baseline-cifar-seed0",
            "baseline-detection-seed0",
        }
        assert any(record["on_front"] for record in pareto)
        edaps = [record["edap"] for record in pareto]
        assert edaps == sorted(edaps)

    def test_unknown_sweep_task_fails_loudly(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="did you mean"):
            main(
                ["--runs-dir", str(tmp_path), "sweep", "--methods", "baseline",
                 "--tasks", "detectoin"]
            )


# ----------------------------------------------------------------------
# Pareto analytics on synthetic results
# ----------------------------------------------------------------------
class TestParetoData:
    def _write_result(self, directory, accuracy, edap_parts):
        from repro.core.results import SearchResult
        from repro.hwmodel import AcceleratorConfig
        from repro.hwmodel.metrics import HardwareMetrics

        latency, energy, area = edap_parts
        result = SearchResult(
            method="DANCE (w/ FF)",
            op_indices=np.array([0, 1, 2]),
            accuracy=accuracy,
            hardware=AcceleratorConfig(pe_x=8, pe_y=8, rf_size=16, dataflow="WS"),
            metrics=HardwareMetrics(latency, energy, area),
            search_seconds=1.0,
        )
        directory.mkdir(parents=True)
        (directory / "result.json").write_text(json.dumps(result.to_dict()))

    def test_nested_sweep_roots_with_same_run_name_stay_distinct(self, tmp_path):
        # Two sweep roots each holding a "dance-cifar-seed0"; the dominated
        # copy must not inherit the other's front flag (root-relative names
        # + index-keyed dominance).
        self._write_result(
            tmp_path / "a" / "dance-cifar-seed0", accuracy=0.5, edap_parts=(1.0, 1.0, 1.0)
        )
        self._write_result(
            tmp_path / "b" / "dance-cifar-seed0", accuracy=0.5, edap_parts=(9.0, 9.0, 9.0)
        )
        records = api.pareto_document(tmp_path).records
        flags = {record["run"]: record["on_front"] for record in records}
        assert flags == {"a/dance-cifar-seed0": True, "b/dance-cifar-seed0": False}

    def test_front_flags_non_dominated_runs(self, tmp_path):
        # a: low error, high edap; b: high error, low edap; c: dominated by b.
        self._write_result(tmp_path / "a", accuracy=0.9, edap_parts=(2.0, 2.0, 2.0))
        self._write_result(tmp_path / "b", accuracy=0.5, edap_parts=(1.0, 1.0, 1.0))
        self._write_result(tmp_path / "c", accuracy=0.4, edap_parts=(1.5, 1.0, 1.0))
        self._write_result(tmp_path / "nan", accuracy=float("nan"), edap_parts=(1, 1, 1))
        records = api.pareto_document(tmp_path).records
        by_run = {record["run"]: record for record in records}
        assert set(by_run) == {"a", "b", "c"}  # NaN accuracy excluded
        assert by_run["a"]["on_front"] and by_run["b"]["on_front"]
        assert not by_run["c"]["on_front"]
        rendered = Runner(base_dir=tmp_path).format_pareto(records)
        assert "Pareto front" in rendered and "*" in rendered
