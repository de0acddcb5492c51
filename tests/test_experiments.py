"""Tests for the experiment-orchestration layer (config, runner, CLI) and the
lossless checkpoint/resume machinery it is built on."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.autograd.module import Parameter
from repro.autograd.optim import Adam, SGD
from repro.core import (
    BaselineConfig,
    BaselineSearcher,
    ClassifierTrainingConfig,
    DanceConfig,
    DanceSearcher,
    RLCoExplorationConfig,
    RLCoExplorationSearcher,
    SearchResult,
)
from repro.data import make_cifar_like, train_val_split
from repro.evaluator import Evaluator, generate_evaluator_dataset, train_evaluator
from repro.experiments import ExperimentConfig, Runner, Searcher, build_components
from repro.hwmodel import AcceleratorConfig, CostTable, HardwareMetrics, tiny_search_space
from repro.nas import build_cifar_search_space
from repro.utils.serialization import (
    decode_state,
    encode_state,
    load_checkpoint,
    restore_rng,
    rng_state,
    save_checkpoint,
)


# ----------------------------------------------------------------------
# Lossless state round-trips
# ----------------------------------------------------------------------
class TestStateSerialization:
    def test_ndarray_roundtrip_preserves_dtype_shape_and_bits(self, tmp_path):
        grid = np.arange(24.0).reshape(4, 6)
        arrays = {
            "f64": np.random.default_rng(0).normal(size=(3, 4)),
            "f32": np.random.default_rng(1).normal(size=(2, 5)).astype(np.float32),
            "i64": np.arange(-3, 4, dtype=np.int64),
            "bool": np.array([[True, False], [False, True]]),
            "scalar_shape": np.array(3.25),
            "empty": np.zeros((0, 2)),
            "non_contiguous": grid[::2, 1::2],
            "fortran": np.asfortranarray(grid),
        }
        loaded = load_checkpoint(save_checkpoint(arrays, tmp_path / "arrays.json"))
        for key, original in arrays.items():
            assert loaded[key].dtype == original.dtype, key
            assert loaded[key].shape == original.shape, key
            assert loaded[key].tobytes() == original.tobytes(), key

    def test_loaded_arrays_are_writable(self, tmp_path):
        loaded = load_checkpoint(save_checkpoint({"w": np.ones((2, 3))}, tmp_path / "w.json"))
        loaded["w"] += 1.0  # optimiser steps update restored parameters in place
        assert np.array_equal(loaded["w"], np.full((2, 3), 2.0))

    def test_object_arrays_rejected_at_encode_time(self):
        with pytest.raises(TypeError, match="object"):
            encode_state({"bad": np.array([{"a": 1}, None], dtype=object)})

    def test_streamed_checkpoint_is_byte_identical_to_one_dumps(self, tmp_path):
        """The streamed writer emits exactly ``json.dumps(encode_state(state))``."""
        grid = np.arange(24.0).reshape(4, 6)
        rng = np.random.default_rng(4)
        state = {
            "steps_completed": 3,
            "score": float("nan"),
            "text": 'quote " and \\"__ndarray_b64__\\": "x" — unicode',
            "empty": {},
            "nested": [
                {"w": grid[::2, 1::2], "b": np.array(3.25)},
                [np.zeros((0, 2)), (1, 2.5, None, True)],
                [],
            ],
            "f32": np.float32(0.5),
            "fortran": np.asfortranarray(grid).astype(np.float32),
            "rng": rng,
        }
        path = save_checkpoint(state, tmp_path / "state.json")
        assert path.read_bytes() == json.dumps(encode_state(state)).encode("ascii")
        assert save_checkpoint({}, tmp_path / "e.json").read_bytes() == b"{}"

    def test_array_record_key_is_reserved(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_checkpoint({"__ndarray_b64__": "x", "w": np.ones(2)}, tmp_path / "bad.json")

    def test_checkpoint_size_stays_binary(self, tmp_path):
        """100k float64 values (800 KB raw) stay within base64's 4/3 overhead.

        Decimal lists took ~2.7x the raw bytes; this fences a regression
        back to them without timing anything.
        """
        values = np.random.default_rng(0).normal(size=100_000)
        path = save_checkpoint({"steps_completed": 1, "w": values}, tmp_path / "big.json")
        assert path.stat().st_size < 1.4 * 800_000

    def test_rng_roundtrip_continues_identically(self, tmp_path):
        rng = np.random.default_rng(123)
        rng.normal(size=100)  # advance the stream
        state = load_checkpoint(save_checkpoint({"rng": rng}, tmp_path / "rng.json"))
        resumed = state["rng"]
        assert np.array_equal(rng.normal(size=50), resumed.normal(size=50))
        assert rng.integers(0, 1000) == resumed.integers(0, 1000)

    def test_restore_rng_in_place(self):
        source = np.random.default_rng(5)
        source.normal(size=13)
        snapshot = rng_state(source)
        target = np.random.default_rng(99)
        restore_rng(snapshot, into=target)
        assert np.array_equal(source.normal(size=8), target.normal(size=8))

    def test_nested_structures_roundtrip(self):
        state = {"list": [1, 2.5, None, "x"], "nested": {"arr": np.ones(3), "flag": True}}
        decoded = decode_state(json.loads(json.dumps(encode_state(state))))
        assert decoded["list"] == state["list"]
        assert np.array_equal(decoded["nested"]["arr"], state["nested"]["arr"])

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            encode_state({1: "x"})

    def test_unencodable_values_rejected_at_encode_time(self):
        with pytest.raises(TypeError, match="HardwareMetrics"):
            encode_state({"metrics": HardwareMetrics(1.0, 1.0, 1.0)})

    def test_module_state_dict_roundtrip_through_json(self, small_nas_space):
        from repro.nas.supernet import SuperNet

        net = SuperNet(small_nas_space, rng=0)
        state = decode_state(json.loads(json.dumps(encode_state(net.state_dict()))))
        clone = SuperNet(small_nas_space, rng=1)
        clone.load_state_dict(state)
        for (name_a, param_a), (name_b, param_b) in zip(
            net.named_parameters(), clone.named_parameters()
        ):
            assert name_a == name_b
            assert np.array_equal(param_a.data, param_b.data)


class TestOptimizerState:
    def test_sgd_velocity_roundtrip(self):
        p = Parameter(np.ones(4))
        optimizer = SGD([p], lr=0.1, momentum=0.9, nesterov=True)
        p.grad = np.full(4, 0.5)
        optimizer.step()
        state = decode_state(json.loads(json.dumps(encode_state(optimizer.state_dict()))))

        q = Parameter(p.data.copy())
        fresh = SGD([q], lr=0.7, momentum=0.9, nesterov=True)
        fresh.load_state_dict(state)
        assert fresh.lr == optimizer.lr
        p.grad = np.full(4, 0.25)
        q.grad = np.full(4, 0.25)
        optimizer.step()
        fresh.step()
        assert np.array_equal(p.data, q.data)

    def test_adam_moments_roundtrip(self):
        p = Parameter(np.linspace(0, 1, 5))
        optimizer = Adam([p], lr=0.01)
        for _ in range(3):
            p.grad = np.ones(5)
            optimizer.step()
        state = decode_state(json.loads(json.dumps(encode_state(optimizer.state_dict()))))

        q = Parameter(p.data.copy())
        fresh = Adam([q], lr=0.5)
        fresh.load_state_dict(state)
        p.grad = np.full(5, 0.1)
        q.grad = np.full(5, 0.1)
        optimizer.step()
        fresh.step()
        assert np.array_equal(p.data, q.data)


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------
class TestExperimentConfig:
    def test_roundtrip_through_file(self, tmp_path):
        config = ExperimentConfig(method="rl", seed=3, task="imagenet", lambda_2=2.5)
        config.save(tmp_path / "config.json")
        assert ExperimentConfig.load(tmp_path / "config.json") == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"metod": "dance"})

    def test_unknown_keys_get_did_you_mean_hint(self):
        with pytest.raises(ValueError, match="did you mean 'method'"):
            ExperimentConfig.from_dict({"metod": "dance"})
        with pytest.raises(ValueError, match="did you mean 'search_epochs'"):
            ExperimentConfig().apply_override("serch_epochs", "4")

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(method="evolution")
        with pytest.raises(ValueError):
            ExperimentConfig(task="mnist")
        with pytest.raises(ValueError):
            ExperimentConfig(cost="quadratic")

    def test_backend_validated_with_hint(self):
        assert ExperimentConfig(backend="systolic").backend == "systolic"
        with pytest.raises(ValueError, match="did you mean 'systolic'"):
            ExperimentConfig(backend="systolik")
        with pytest.raises(ValueError, match="did you mean 'simd'"):
            ExperimentConfig().apply_override("backend", "simdd")

    def test_backend_names_run_directories(self):
        assert ExperimentConfig().name == "dance-cifar-seed0"  # historical form
        assert ExperimentConfig(backend="simd").name == "dance-cifar-seed0-simd"

    def test_apply_override_coerces_types(self):
        config = ExperimentConfig()
        assert config.apply_override("search_epochs", "7").search_epochs == 7
        assert config.apply_override("lambda_2", "0.25").lambda_2 == 0.25
        assert config.apply_override("retrain_final", "false").retrain_final is False
        assert config.apply_override("retrain_final", "on").retrain_final is True
        assert config.apply_override("backend", "systolic").backend == "systolic"
        with pytest.raises(ValueError, match="unknown config key"):
            config.apply_override("no_such_field", "1")

    def test_apply_override_rejects_bad_booleans(self):
        with pytest.raises(ValueError, match="expects a boolean"):
            ExperimentConfig().apply_override("retrain_final", "enabled")

    def test_task_defaults(self):
        assert ExperimentConfig(task="cifar").effective_num_classes == 10
        assert ExperimentConfig(task="imagenet").effective_num_classes == 20
        assert ExperimentConfig(num_classes=7).effective_num_classes == 7


# ----------------------------------------------------------------------
# Searcher protocol conformance
# ----------------------------------------------------------------------
class TestSearcherProtocol:
    @pytest.fixture(scope="class")
    def spaces(self):
        nas_space = build_cifar_search_space(
            num_searchable=3, trainable_resolution=8, trainable_base_channels=4
        )
        hw_space = tiny_search_space()
        return nas_space, hw_space, CostTable(nas_space, hw_space)

    def test_all_search_loops_implement_protocol(self, spaces):
        nas_space, hw_space, cost_table = spaces
        evaluator = Evaluator(nas_space, hw_space, rng=0)
        searchers = [
            DanceSearcher(nas_space, evaluator, cost_table, rng=0),
            BaselineSearcher(nas_space, cost_table, rng=0),
            RLCoExplorationSearcher(nas_space, hw_space, cost_table, rng=0),
        ]
        for searcher in searchers:
            assert isinstance(searcher, Searcher)
            assert searcher.steps_completed == 0

    def test_num_steps_tracks_config(self, spaces):
        nas_space, hw_space, cost_table = spaces
        assert (
            BaselineSearcher(
                nas_space, cost_table, config=BaselineConfig(search_epochs=5), rng=0
            ).num_steps
            == 5
        )
        assert (
            RLCoExplorationSearcher(
                nas_space,
                hw_space,
                cost_table,
                config=RLCoExplorationConfig(num_candidates=7),
                rng=0,
            ).num_steps
            == 7
        )


# ----------------------------------------------------------------------
# SearchResult round-trip
# ----------------------------------------------------------------------
class TestSearchResultSerialization:
    def test_to_from_dict_roundtrip(self):
        result = SearchResult(
            method="DANCE (test)",
            op_indices=np.array([1, 0, 3], dtype=np.int64),
            accuracy=0.8125,
            hardware=AcceleratorConfig(16, 16, 32, "RS"),
            metrics=HardwareMetrics(latency_ms=1.25, energy_mj=0.5, area_mm2=3.0),
            search_seconds=12.5,
            candidates_trained=1,
            history=[{"epoch": 0.0, "train_ce": 2.25}],
        )
        restored = SearchResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored.method == result.method
        assert np.array_equal(restored.op_indices, result.op_indices)
        assert restored.accuracy == result.accuracy
        assert restored.hardware == result.hardware
        assert restored.metrics == result.metrics
        assert restored.history == result.history

    def test_nan_accuracy_survives(self):
        # A run without final retraining has no accuracy: ``None`` in memory,
        # the NaN token in result.json (the format the goldens pin), and
        # ``None`` again once loaded, from NaN or from a strict-JSON null.
        result = SearchResult(
            method="x",
            op_indices=np.array([0], dtype=np.int64),
            accuracy=None,
            hardware=AcceleratorConfig(8, 8, 16, "WS"),
            metrics=HardwareMetrics(1.0, 1.0, 1.0),
            search_seconds=0.0,
        )
        stored = json.loads(json.dumps(result.to_dict()))
        assert math.isnan(stored["accuracy"])
        assert SearchResult.from_dict(stored).accuracy is None
        assert SearchResult.from_dict(dict(stored, accuracy=None)).accuracy is None

    def test_non_default_backend_hardware_roundtrip(self):
        from repro.hwmodel.backends.systolic import SystolicConfig

        result = SearchResult(
            method="x",
            op_indices=np.array([0], dtype=np.int64),
            accuracy=0.5,
            hardware=SystolicConfig(rows=64, cols=32, acc_depth=512),
            metrics=HardwareMetrics(1.0, 1.0, 1.0),
            search_seconds=0.0,
        )
        payload = result.to_dict()
        assert payload["backend"] == "systolic"
        restored = SearchResult.from_dict(json.loads(json.dumps(payload)))
        assert restored.hardware == result.hardware
        assert restored.backend_name == "systolic"

    def test_text_tables_tag_non_default_backends(self):
        from repro.core.results import format_results_table
        from repro.hwmodel.backends.simd import SimdConfig

        rows = [
            SearchResult(
                method="DANCE (w/ FF)",
                op_indices=np.array([0], dtype=np.int64),
                accuracy=0.5,
                hardware=hardware,
                metrics=HardwareMetrics(1.0, 1.0, 1.0),
                search_seconds=0.0,
            )
            for hardware in (
                AcceleratorConfig(8, 8, 16, "WS"),
                SimdConfig(lanes=8, vector_rf=16, issue=1),
            )
        ]
        table = format_results_table(rows)
        assert "DANCE (w/ FF) [simd]" in table
        assert "DANCE (w/ FF) [eyeriss]" not in table  # default stays untagged

    def test_pre_backend_results_default_to_eyeriss(self):
        """Result files written before the backend era load unchanged."""
        payload = {
            "method": "legacy",
            "op_indices": [0],
            "accuracy": 0.25,
            "hardware": {"pe_x": 8, "pe_y": 8, "rf_size": 16, "dataflow": "WS"},
            "metrics": {"latency_ms": 1.0, "energy_mj": 1.0, "area_mm2": 1.0},
            "search_seconds": 0.0,
            "candidates_trained": 1,
            "history": [],
        }
        restored = SearchResult.from_dict(payload)
        assert restored.hardware == AcceleratorConfig(8, 8, 16, "WS")
        assert restored.backend_name == "eyeriss"


# ----------------------------------------------------------------------
# Checkpoint / resume bit-identity (the core acceptance criterion)
# ----------------------------------------------------------------------
def _assert_results_bit_identical(first: SearchResult, second: SearchResult) -> None:
    """Everything except wall-clock time must match exactly (no tolerance)."""
    assert first.method == second.method
    assert np.array_equal(first.op_indices, second.op_indices)
    assert first.accuracy == second.accuracy or (
        math.isnan(first.accuracy) and math.isnan(second.accuracy)
    )
    assert first.hardware == second.hardware
    assert first.metrics.latency_ms == second.metrics.latency_ms
    assert first.metrics.energy_mj == second.metrics.energy_mj
    assert first.metrics.area_mm2 == second.metrics.area_mm2
    assert first.candidates_trained == second.candidates_trained
    assert first.history == second.history


TINY_RUN = dict(
    num_searchable=3,
    trainable_base_channels=4,
    image_samples=96,
    evaluator_samples=150,
    evaluator_hw_epochs=4,
    evaluator_cost_epochs=6,
    search_epochs=3,
    final_epochs=1,
)


class TestCheckpointResume:
    @pytest.fixture(scope="class")
    def search_env(self):
        nas_space = build_cifar_search_space(
            num_searchable=3, trainable_resolution=8, trainable_base_channels=4
        )
        hw_space = tiny_search_space()
        cost_table = CostTable(nas_space, hw_space)
        images = make_cifar_like(num_samples=96, resolution=8, rng=0)
        train_set, val_set = train_val_split(images, val_fraction=0.25, rng=1)
        return nas_space, hw_space, cost_table, train_set, val_set

    def _trained_evaluator(self, nas_space, hw_space, cost_table):
        dataset = generate_evaluator_dataset(
            nas_space, hw_space, num_samples=150, cost_table=cost_table, rng=0
        )
        train_data, val_data = dataset.split(0.85, rng=1)
        evaluator = Evaluator(nas_space, hw_space, feature_forwarding=True, rng=2)
        train_evaluator(evaluator, train_data, val_data, hw_epochs=4, cost_epochs=6, rng=3)
        return evaluator

    def test_dance_resume_bit_identical(self, search_env, tmp_path):
        """Interrupt a DANCE run mid-search; the resumed result is bit-identical.

        The resume side gets a *fresh, untrained* evaluator: the checkpoint
        must restore the evaluator parameters (not just the supernet's) for
        the architecture gradients to match.
        """
        nas_space, hw_space, cost_table, train_set, val_set = search_env
        config = DanceConfig(
            search_epochs=3,
            warmup_epochs=1,
            final_training=ClassifierTrainingConfig(epochs=1),
        )
        runner = Runner(base_dir=tmp_path)

        uninterrupted = runner.execute(
            DanceSearcher(
                nas_space,
                self._trained_evaluator(nas_space, hw_space, cost_table),
                cost_table,
                config=config,
                rng=0,
            ),
            train_set,
            val_set,
            method_name="DANCE",
        )

        workdir = tmp_path / "dance-run"
        paused = runner.execute(
            DanceSearcher(
                nas_space,
                self._trained_evaluator(nas_space, hw_space, cost_table),
                cost_table,
                config=config,
                rng=0,
            ),
            train_set,
            val_set,
            method_name="DANCE",
            workdir=workdir,
            checkpoint_every=1,
            max_steps=1,
        )
        assert paused is None
        assert (workdir / "checkpoint.json").exists()

        untrained_evaluator = Evaluator(nas_space, hw_space, feature_forwarding=True, rng=42)
        resumed = runner.execute(
            DanceSearcher(nas_space, untrained_evaluator, cost_table, config=config, rng=0),
            train_set,
            val_set,
            state=load_checkpoint(workdir / "checkpoint.json")["state"],
        )
        _assert_results_bit_identical(uninterrupted, resumed)

    def test_baseline_resume_bit_identical(self, search_env, tmp_path):
        nas_space, _, cost_table, train_set, val_set = search_env
        config = BaselineConfig(
            search_epochs=3, flops_penalty=2.0, final_training=ClassifierTrainingConfig(epochs=1)
        )
        runner = Runner(base_dir=tmp_path)
        uninterrupted = runner.execute(
            BaselineSearcher(nas_space, cost_table, config=config, rng=1),
            train_set,
            val_set,
        )
        workdir = tmp_path / "baseline-run"
        assert (
            runner.execute(
                BaselineSearcher(nas_space, cost_table, config=config, rng=1),
                train_set,
                val_set,
                workdir=workdir,
                checkpoint_every=1,
                max_steps=2,
            )
            is None
        )
        resumed = runner.execute(
            BaselineSearcher(nas_space, cost_table, config=config, rng=1),
            train_set,
            val_set,
            state=load_checkpoint(workdir / "checkpoint.json")["state"],
        )
        _assert_results_bit_identical(uninterrupted, resumed)

    def test_rl_resume_bit_identical(self, search_env, tmp_path):
        nas_space, hw_space, cost_table, train_set, val_set = search_env
        config = RLCoExplorationConfig(
            num_candidates=3,
            candidate_training=ClassifierTrainingConfig(epochs=1),
            final_training=ClassifierTrainingConfig(epochs=1),
        )
        runner = Runner(base_dir=tmp_path)
        uninterrupted = runner.execute(
            RLCoExplorationSearcher(nas_space, hw_space, cost_table, config=config, rng=2),
            train_set,
            val_set,
        )
        workdir = tmp_path / "rl-run"
        assert (
            runner.execute(
                RLCoExplorationSearcher(nas_space, hw_space, cost_table, config=config, rng=2),
                train_set,
                val_set,
                workdir=workdir,
                checkpoint_every=1,
                max_steps=1,
            )
            is None
        )
        resumed = runner.execute(
            RLCoExplorationSearcher(nas_space, hw_space, cost_table, config=config, rng=2),
            train_set,
            val_set,
            state=load_checkpoint(workdir / "checkpoint.json")["state"],
        )
        _assert_results_bit_identical(uninterrupted, resumed)


# ----------------------------------------------------------------------
# Config-driven Runner flows (factory + run/resume/sweep/report)
# ----------------------------------------------------------------------
class TestRunnerFlows:
    def test_run_then_kill_then_resume_matches_uninterrupted(self, tmp_path):
        """The ISSUE acceptance flow: run --method dance, kill, resume."""
        config = ExperimentConfig(method="dance", seed=0, **TINY_RUN)
        uninterrupted = Runner(base_dir=tmp_path / "a").run(config)

        runner = Runner(base_dir=tmp_path / "b")
        assert runner.run(config, max_steps=1) is None  # "killed" after 1 epoch
        resumed = runner.resume()  # locates the unfinished run itself
        _assert_results_bit_identical(uninterrupted, resumed)
        assert (runner.workdir_for(config) / "result.json").exists()

    def test_resume_of_finished_run_returns_saved_result(self, tmp_path):
        config = ExperimentConfig(method="baseline", seed=0, **TINY_RUN)
        runner = Runner(base_dir=tmp_path)
        first = runner.run(config)
        again = runner.resume(workdir=runner.workdir_for(config))
        _assert_results_bit_identical(first, again)

    def test_resume_with_mismatched_config_is_rejected(self, tmp_path):
        """A workdir must never silently serve results of a different config."""
        config = ExperimentConfig(method="baseline", seed=0, **TINY_RUN)
        runner = Runner(base_dir=tmp_path)
        runner.run(config)
        changed = config.replace(search_epochs=config.search_epochs + 5)
        with pytest.raises(ValueError, match="saved config differs"):
            runner.run(changed, workdir=runner.workdir_for(config), resume=True)

    def test_run_method_name_override_is_persisted(self, tmp_path):
        config = ExperimentConfig(method="baseline", seed=0, retrain_final=False, **TINY_RUN)
        runner = Runner(base_dir=tmp_path)
        result = runner.run(config, method_name="Baseline (variant X)")
        assert result.method == "Baseline (variant X)"
        saved = runner.collect_results()
        assert [r.method for r in saved] == ["Baseline (variant X)"]

    def test_method_name_override_survives_resume(self, tmp_path):
        config = ExperimentConfig(method="baseline", seed=0, retrain_final=False, **TINY_RUN)
        runner = Runner(base_dir=tmp_path)
        assert runner.run(config, max_steps=1, method_name="Baseline (variant Y)") is None
        resumed = runner.run(config, resume=True, method_name="Baseline (variant Y)")
        assert resumed.method == "Baseline (variant Y)"

    def test_fresh_run_clears_stale_artifacts(self, tmp_path):
        """Re-running a workdir without resume must not leave old results around."""
        config = ExperimentConfig(method="baseline", seed=0, retrain_final=False, **TINY_RUN)
        runner = Runner(base_dir=tmp_path)
        runner.run(config)  # leaves result.json (+ checkpoint.json)
        workdir = runner.workdir_for(config)
        assert (workdir / "result.json").exists()
        # Fresh launch paused before finishing: the old result must be gone,
        # so resume continues the new run instead of serving the stale result.
        assert runner.run(config, max_steps=1) is None
        assert not (workdir / "result.json").exists()

    def test_rl_partial_finish_reports_actual_candidates(self, tmp_path):
        from repro.hwmodel import tiny_search_space as tiny_hw

        nas_space = build_cifar_search_space(
            num_searchable=3, trainable_resolution=8, trainable_base_channels=4
        )
        hw_space = tiny_hw()
        cost_table = CostTable(nas_space, hw_space)
        images = make_cifar_like(num_samples=64, resolution=8, rng=0)
        train_set, val_set = train_val_split(images, val_fraction=0.25, rng=1)
        searcher = RLCoExplorationSearcher(
            nas_space,
            hw_space,
            cost_table,
            config=RLCoExplorationConfig(
                num_candidates=5, candidate_training=ClassifierTrainingConfig(epochs=1)
            ),
            rng=0,
        )
        searcher.setup(train_set, val_set)
        searcher.step()
        searcher.step()
        result = searcher.finish(retrain_final=False)
        assert result.candidates_trained == 2
        assert len(result.history) == 2

    def test_factory_builds_all_methods(self):
        for method in ("dance", "baseline", "baseline_flops", "rl"):
            config = ExperimentConfig(
                method=method, evaluator_samples=100, evaluator_hw_epochs=1, evaluator_cost_epochs=1
            )
            components = build_components(config, train_evaluator_net=(method == "dance"))
            assert isinstance(components.searcher, Searcher)
            assert components.searcher.method_name == config.method_name
            assert (components.evaluator is not None) == (method == "dance")

    def test_factory_builds_backend_spaces(self):
        for backend in ("eyeriss", "systolic", "simd"):
            config = ExperimentConfig(method="baseline", backend=backend)
            components = build_components(config)
            assert components.hw_space.backend_name == backend
            assert components.cost_table.backend_name == backend

    def test_cross_backend_resume_bit_identical(self, tmp_path):
        """Checkpoint/resume bit-identity holds on non-default backends.

        ``baseline`` on ``systolic`` covers the generic cost-table path;
        ``rl`` on ``simd`` additionally exercises the generic hardware
        sampling / decoding inside the searcher itself.
        """
        cases = [
            dict(method="baseline", backend="systolic", seed=0),
            dict(method="rl", backend="simd", seed=1, rl_candidates=2, rl_candidate_epochs=1),
        ]
        for index, case in enumerate(cases):
            config = ExperimentConfig(
                retrain_final=False, **case, **{**TINY_RUN, "search_epochs": 2}
            )
            uninterrupted = Runner(base_dir=tmp_path / f"a{index}").run(config)
            runner = Runner(base_dir=tmp_path / f"b{index}")
            assert runner.run(config, max_steps=1) is None  # "killed" mid-search
            resumed = runner.resume()
            _assert_results_bit_identical(uninterrupted, resumed)
            assert resumed.backend_name == case["backend"]

    def test_sweep_grid_crosses_backends(self, tmp_path):
        from repro.experiments import SweepPlan

        config = ExperimentConfig(
            method="baseline", seed=0, retrain_final=False, **{**TINY_RUN, "search_epochs": 1}
        )
        plan = SweepPlan.from_grid(
            config, methods=["baseline"], seeds=[0], backends=["eyeriss", "systolic"]
        )
        assert [item.name for item in plan] == [
            "baseline-cifar-seed0",
            "baseline-cifar-seed0-systolic",
        ]
        runner = Runner(base_dir=tmp_path)
        results = runner.sweep(
            config, methods=["baseline"], seeds=[0], backends=["eyeriss", "systolic"]
        )
        assert sorted(result.backend_name for result in results) == ["eyeriss", "systolic"]

    def test_sweep_and_report(self, tmp_path):
        config = ExperimentConfig(
            seed=0, retrain_final=False, **{**TINY_RUN, "search_epochs": 1}
        )
        runner = Runner(base_dir=tmp_path)
        results = runner.sweep(config, methods=["baseline", "rl"], seeds=[0], title="test sweep")
        assert len(results) == 2
        assert (tmp_path / "REPORT.txt").exists()
        report = runner.report()
        assert "Baseline (No penalty) + HW" in report
        assert "RL co-exploration" in report


# ----------------------------------------------------------------------
# Checkpoint files on disk (format, legacy loading, head, write count)
# ----------------------------------------------------------------------
def _legacy_records(obj):
    """Rewrite binary array records as the decimal-list records of older checkpoints."""
    if isinstance(obj, dict):
        if "__ndarray_b64__" in obj:
            array = decode_state(obj)
            shape = list(array.shape)
            return {"__ndarray__": array.tolist(), "dtype": str(array.dtype), "shape": shape}
        return {key: _legacy_records(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_legacy_records(item) for item in obj]
    return obj


class TestCheckpointFiles:
    def test_legacy_decimal_checkpoint_resumes_bit_identically(self, tmp_path):
        config = ExperimentConfig(method="dance", seed=0, **TINY_RUN)
        uninterrupted = Runner(base_dir=tmp_path / "a").run(config)

        runner = Runner(base_dir=tmp_path / "b")
        assert runner.run(config, max_steps=1) is None
        checkpoint = runner.workdir_for(config) / "checkpoint.json"
        legacy = _legacy_records(json.loads(checkpoint.read_text(encoding="utf-8")))
        checkpoint.write_text(json.dumps(legacy), encoding="utf-8")
        assert "__ndarray_b64__" not in checkpoint.read_text(encoding="utf-8")

        resumed = runner.resume()
        _assert_results_bit_identical(uninterrupted, resumed)

    def test_checkpoint_head_parses_from_first_256_bytes(self, tmp_path):
        from repro.experiments.browser.run_summary import checkpoint_head
        from repro.experiments.schedulers import rung_score

        config = ExperimentConfig(method="dance", seed=0, **TINY_RUN)
        runner = Runner(base_dir=tmp_path)
        assert runner.run(config, max_steps=2) is None
        checkpoint = runner.workdir_for(config) / "checkpoint.json"
        head = tmp_path / "head.json"
        head.write_bytes(checkpoint.read_bytes()[:256])

        steps, score = checkpoint_head(head)
        saved = load_checkpoint(checkpoint)
        assert steps == saved["steps_completed"] == 2
        assert score is not None
        assert score == saved["score"] == rung_score(saved["state"]["history"][-1])

    def test_pause_after_checkpointed_step_writes_once(self, tmp_path, monkeypatch):
        from repro.experiments import runner as runner_module

        writes = []
        original = runner_module.save_checkpoint

        def counting(state, path):
            writes.append(state["steps_completed"])
            return original(state, path)

        monkeypatch.setattr(runner_module, "save_checkpoint", counting)
        config = ExperimentConfig(method="baseline", seed=0, retrain_final=False, **TINY_RUN)
        runner = Runner(base_dir=tmp_path)
        assert runner.run(config, max_steps=1) is None
        assert writes == [1]  # the step's checkpoint; the pause adds none

        # A pause with no step checkpointed in this call still writes one.
        assert runner.run(config.replace(checkpoint_every=0), max_steps=1) is None
        assert writes == [1, 1]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def _tiny_args(self):
        return [
            f"--set={key}={value}"
            for key, value in {**TINY_RUN, "search_epochs": 2, "final_epochs": 1}.items()
        ]

    def test_run_resume_report_smoke(self, tmp_path, capsys):
        from repro.__main__ import main

        runs = str(tmp_path / "runs")
        base = ["--runs-dir", runs]
        assert main(base + ["run", "--method", "baseline", "--seed", "0", "--max-steps", "1",
                            *self._tiny_args()]) == 0
        assert "Paused" in capsys.readouterr().out
        assert main(base + ["resume"]) == 0
        assert "Baseline (No penalty) + HW" in capsys.readouterr().out
        assert main(base + ["report"]) == 0
        assert "Search-cost comparison" in capsys.readouterr().out

    def test_cli_override_validation(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["--runs-dir", str(tmp_path), "run", "--set", "not-a-pair"])

    def test_cli_backend_run_resume_and_json_report(self, tmp_path, capsys):
        """`run --set backend=...` completes end to end, resumes, and the
        aggregated status is available machine-readably."""
        from repro.__main__ import main

        runs = str(tmp_path / "runs")
        base = ["--runs-dir", runs]
        assert main(base + ["run", "--method", "baseline", "--seed", "0", "--max-steps", "1",
                            "--set", "backend=systolic", "--set", "retrain_final=false",
                            *self._tiny_args()]) == 0
        assert "Paused" in capsys.readouterr().out
        assert main(base + ["resume"]) == 0
        assert "Baseline (No penalty) + HW" in capsys.readouterr().out
        assert main(base + ["report", "--format", "json"]) == 0
        raw = capsys.readouterr().out
        # retrain_final=false -> NaN accuracy, which must surface as null so
        # the document stays strict RFC-8259 JSON (no bare NaN tokens).
        assert "NaN" not in raw
        payload = json.loads(raw)
        assert payload["summary"]["results"] == 1
        assert payload["results"][0]["backend"] == "systolic"
        assert payload["results"][0]["accuracy"] is None
        (name, entry), = payload["runs"].items()
        assert name == "baseline-cifar-seed0-systolic"
        assert entry["state"] == "finished"
