"""Integration tests: full search pipelines at miniature scale.

These tests run the complete pipelines (evaluator training, DANCE search,
baseline search, RL comparator) on tiny datasets and a reduced search space
so they finish in a few tens of seconds while still exercising every code
path an experiment uses.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BaselineConfig,
    BaselineSearcher,
    ClassifierTrainingConfig,
    DanceConfig,
    DanceSearcher,
    EDAPCostFunction,
    LinearCostFunction,
    RLCoExplorationConfig,
    RLCoExplorationSearcher,
    SearchResult,
)
from repro.autograd import NonFiniteLossError
from repro.data import make_cifar_like, train_val_split
from repro.evaluator import Evaluator, generate_evaluator_dataset, train_evaluator
from repro.hwmodel import CostTable, tiny_search_space
from repro.nas import ArchitectureParameters, build_cifar_search_space


@pytest.fixture(scope="module")
def small_space():
    return build_cifar_search_space(num_searchable=3, trainable_resolution=8, trainable_base_channels=4)


@pytest.fixture(scope="module")
def small_hw_space():
    return tiny_search_space()


@pytest.fixture(scope="module")
def small_cost_table(small_space, small_hw_space):
    return CostTable(small_space, small_hw_space)


@pytest.fixture(scope="module")
def trained_evaluator(small_space, small_hw_space, small_cost_table):
    dataset = generate_evaluator_dataset(
        small_space, small_hw_space, num_samples=400, cost_table=small_cost_table, rng=0
    )
    train, val = dataset.split(0.85, rng=1)
    evaluator = Evaluator(small_space, small_hw_space, feature_forwarding=True, rng=2)
    train_evaluator(evaluator, train, val, hw_epochs=15, cost_epochs=30, rng=3)
    return evaluator


@pytest.fixture(scope="module")
def tiny_images():
    dataset = make_cifar_like(num_samples=160, resolution=8, rng=0)
    return train_val_split(dataset, val_fraction=0.25, rng=1)


FAST_SEARCH = DanceConfig(
    search_epochs=2,
    batch_size=32,
    lambda_2=1.0,
    warmup_epochs=1,
    final_training=ClassifierTrainingConfig(epochs=1, batch_size=32),
)


class TestDanceSearch:
    def test_search_returns_valid_result(self, small_space, small_hw_space, small_cost_table, trained_evaluator, tiny_images):
        train_set, val_set = tiny_images
        searcher = DanceSearcher(
            small_space, trained_evaluator, small_cost_table, config=FAST_SEARCH, rng=0
        )
        result = searcher.search(train_set, val_set, method_name="DANCE (test)")
        assert isinstance(result, SearchResult)
        assert result.op_indices.shape == (small_space.num_searchable,)
        assert small_hw_space.contains(result.hardware)
        assert result.metrics.latency_ms > 0
        assert 0.0 <= result.accuracy <= 1.0
        assert result.candidates_trained == 1
        assert len(result.history) == FAST_SEARCH.search_epochs

    def test_strong_cost_pressure_prunes_architecture(self, small_space, small_hw_space, small_cost_table, trained_evaluator, tiny_images):
        """With an overwhelming lambda_2 the search must shrink the network (Section 3.4)."""
        train_set, val_set = tiny_images
        heavy_cost = DanceConfig(
            search_epochs=3,
            batch_size=32,
            lambda_2=200.0,
            warmup_epochs=0,
            arch_lr=0.05,
            final_training=ClassifierTrainingConfig(epochs=1),
        )
        searcher = DanceSearcher(
            small_space, trained_evaluator, small_cost_table, config=heavy_cost, rng=1
        )
        result = searcher.search(train_set, val_set, method_name="DANCE (heavy cost)", retrain_final=False)
        light_result_flops = small_space.architecture_flops(result.op_indices)

        no_cost = DanceConfig(
            search_epochs=3,
            batch_size=32,
            lambda_2=0.0,
            warmup_epochs=0,
            final_training=ClassifierTrainingConfig(epochs=1),
        )
        baseline_searcher = DanceSearcher(
            small_space, trained_evaluator, small_cost_table, config=no_cost, rng=1
        )
        heavy_result = baseline_searcher.search(
            train_set, val_set, method_name="DANCE (no cost)", retrain_final=False
        )
        heavy_result_flops = small_space.architecture_flops(heavy_result.op_indices)
        assert light_result_flops <= heavy_result_flops

    def test_finalize_uses_oracle_hardware(self, small_space, small_cost_table, trained_evaluator, tiny_images):
        train_set, val_set = tiny_images
        searcher = DanceSearcher(small_space, trained_evaluator, small_cost_table, config=FAST_SEARCH, rng=3)
        params = ArchitectureParameters(small_space, rng=4)
        target = small_space.random_architecture(rng=5)
        params.set_architecture(target)
        result = searcher.finalize(
            params, train_set, val_set, method_name="manual", search_seconds=0.0, retrain_final=False
        )
        expected_config, expected_metrics = small_cost_table.optimal_config(
            target, cost_function=EDAPCostFunction().scalar
        )
        assert result.hardware == expected_config
        assert result.metrics.edap == pytest.approx(expected_metrics.edap)

    def test_linear_cost_function_supported(self, small_space, small_cost_table, trained_evaluator, tiny_images):
        train_set, val_set = tiny_images
        searcher = DanceSearcher(
            small_space,
            trained_evaluator,
            small_cost_table,
            cost_function=LinearCostFunction(4.1, 4.8, 1.0),
            config=FAST_SEARCH,
            rng=5,
        )
        result = searcher.search(train_set, val_set, retrain_final=False)
        assert result.metrics.latency_ms > 0


class TestBaselineSearch:
    def test_baseline_without_penalty(self, small_space, small_hw_space, small_cost_table, tiny_images):
        train_set, val_set = tiny_images
        config = BaselineConfig(
            search_epochs=2, batch_size=32, final_training=ClassifierTrainingConfig(epochs=1)
        )
        searcher = BaselineSearcher(small_space, small_cost_table, config=config, rng=0)
        result = searcher.search(train_set, val_set, retrain_final=False)
        assert "No penalty" in result.method
        assert small_hw_space.contains(result.hardware)

    def test_flops_penalty_shrinks_architecture(self, small_space, small_cost_table, tiny_images):
        train_set, val_set = tiny_images
        no_penalty = BaselineSearcher(
            small_space,
            small_cost_table,
            config=BaselineConfig(search_epochs=3, batch_size=32, flops_penalty=0.0),
            rng=1,
        ).search(train_set, val_set, retrain_final=False)
        with_penalty = BaselineSearcher(
            small_space,
            small_cost_table,
            config=BaselineConfig(search_epochs=3, batch_size=32, flops_penalty=50.0, arch_lr=0.05),
            rng=1,
        ).search(train_set, val_set, retrain_final=False)
        assert "Flops penalty" in with_penalty.method
        assert small_space.architecture_flops(with_penalty.op_indices) <= small_space.architecture_flops(
            no_penalty.op_indices
        )


def _dance(small_space, small_cost_table, trained_evaluator, tiny_images):
    searcher = DanceSearcher(
        small_space, trained_evaluator, small_cost_table, config=FAST_SEARCH, rng=0
    )
    searcher.setup(*tiny_images)
    return searcher


def _baseline(small_space, small_cost_table, tiny_images, flops_penalty=0.0):
    config = BaselineConfig(search_epochs=2, batch_size=32, flops_penalty=flops_penalty)
    searcher = BaselineSearcher(small_space, small_cost_table, config=config, rng=0)
    searcher.setup(*tiny_images)
    return searcher


class TestSearchStepGradients:
    """Weight steps never build an alpha gradient; arch steps only build alpha's."""

    @staticmethod
    def _spy_on_optimizers(monkeypatch, searcher):
        """Record, at every optimiser step, which gradients the step can read."""
        seen = []
        alpha = searcher._arch_params.alpha
        weights = searcher._supernet.parameters()
        weight_step = searcher._weight_optimizer.step
        arch_step = searcher._arch_optimizer.step

        def spy_weight_step():
            seen.append(("weight", alpha.grad is None))
            weight_step()

        def spy_arch_step():
            seen.append(("arch", all(param.grad is None for param in weights)))
            arch_step()
            alpha.grad = None  # so the next weight step must not build one

        monkeypatch.setattr(searcher._weight_optimizer, "step", spy_weight_step)
        monkeypatch.setattr(searcher._arch_optimizer, "step", spy_arch_step)
        return seen

    def test_dance_step(self, monkeypatch, small_space, small_cost_table, trained_evaluator, tiny_images):
        searcher = _dance(small_space, small_cost_table, trained_evaluator, tiny_images)
        seen = self._spy_on_optimizers(monkeypatch, searcher)
        searcher.step()
        assert [stage for stage, _ in seen] == ["weight", "arch"] * (len(seen) // 2)
        assert seen and all(clean for _, clean in seen)
        assert all(param.requires_grad for param in searcher._supernet.parameters())
        assert not any(param.requires_grad for param in trained_evaluator.parameters())
        assert searcher._arch_params.alpha.requires_grad

    @pytest.mark.parametrize("flops_penalty", [0.0, 5.0])
    def test_baseline_step(self, monkeypatch, small_space, small_cost_table, tiny_images, flops_penalty):
        searcher = _baseline(small_space, small_cost_table, tiny_images, flops_penalty)
        seen = self._spy_on_optimizers(monkeypatch, searcher)
        searcher.step()
        assert [stage for stage, _ in seen] == ["weight", "arch"] * (len(seen) // 2)
        assert seen and all(clean for _, clean in seen)
        assert all(param.requires_grad for param in searcher._supernet.parameters())


class TestNonFiniteLoss:
    """A NaN loss stops the search, naming it, before any optimiser step."""

    @staticmethod
    def _nan_from_call(monkeypatch, head, first_nan_call):
        loss = head.loss
        calls = []

        def patched(*args, **kwargs):
            calls.append(None)
            value = loss(*args, **kwargs)
            return value * float("nan") if len(calls) >= first_nan_call else value

        monkeypatch.setattr(head, "loss", patched)

    @staticmethod
    def _forbid_steps(monkeypatch, searcher, *optimizers):
        for name in optimizers:
            optimizer = getattr(searcher, name)
            monkeypatch.setattr(optimizer, "step", lambda name=name: pytest.fail(f"{name} stepped"))

    @pytest.mark.parametrize("stage, first_nan_call", [("weight", 1), ("arch", 2)])
    def test_dance(self, monkeypatch, small_space, small_cost_table, trained_evaluator, tiny_images, stage, first_nan_call):
        searcher = _dance(small_space, small_cost_table, trained_evaluator, tiny_images)
        before = [param.data.copy() for param in searcher._supernet.parameters()]
        self._nan_from_call(monkeypatch, searcher.task_head, first_nan_call)
        forbidden = ["_arch_optimizer"] + (["_weight_optimizer"] if stage == "weight" else [])
        self._forbid_steps(monkeypatch, searcher, *forbidden)
        with pytest.raises(NonFiniteLossError) as caught:
            searcher.step()
        error = caught.value
        assert (error.method, error.stage, error.epoch, error.batch) == ("DANCE", stage, 0, 0)
        assert np.isnan(error.value)
        assert f"non-finite {stage} loss" in str(error) and "epoch 0, batch 0" in str(error)
        assert all(param.requires_grad for param in searcher._supernet.parameters())
        if stage == "weight":
            after = [param.data for param in searcher._supernet.parameters()]
            assert all(np.array_equal(a, b) for a, b in zip(before, after))

    @pytest.mark.parametrize("stage, first_nan_call", [("weight", 1), ("arch", 2)])
    def test_baseline(self, monkeypatch, small_space, small_cost_table, tiny_images, stage, first_nan_call):
        searcher = _baseline(small_space, small_cost_table, tiny_images)
        self._nan_from_call(monkeypatch, searcher.task_head, first_nan_call)
        forbidden = ["_arch_optimizer"] + (["_weight_optimizer"] if stage == "weight" else [])
        self._forbid_steps(monkeypatch, searcher, *forbidden)
        with pytest.raises(NonFiniteLossError) as caught:
            searcher.step()
        assert caught.value.method == "Baseline (No penalty) + HW"
        assert (caught.value.stage, caught.value.epoch, caught.value.batch) == (stage, 0, 0)


class TestRLCoExploration:
    def test_rl_search_trains_many_candidates(self, small_space, small_hw_space, small_cost_table, tiny_images):
        train_set, val_set = tiny_images
        config = RLCoExplorationConfig(
            num_candidates=4,
            candidate_training=ClassifierTrainingConfig(epochs=1, batch_size=32),
            final_training=ClassifierTrainingConfig(epochs=1, batch_size=32),
        )
        searcher = RLCoExplorationSearcher(
            small_space, small_hw_space, small_cost_table, config=config, rng=0
        )
        result = searcher.search(train_set, val_set, retrain_final=False)
        assert result.candidates_trained == 4
        assert len(result.history) == 4
        assert small_hw_space.contains(result.hardware)

    def test_rl_controller_improves_reward_signal(self):
        from repro.core.rl_coexplore import _SoftmaxController

        rng = np.random.default_rng(0)
        controller = _SoftmaxController([3], lr=0.5, rng=rng)
        # Reward decision 0 only; its probability should rise.
        for _ in range(50):
            decision = controller.sample()
            reward = 1.0 if decision[0] == 0 else -1.0
            controller.update(decision, reward)
        probabilities = np.exp(controller.logits[0]) / np.exp(controller.logits[0]).sum()
        assert probabilities[0] > 0.8


class TestQuickstartPipeline:
    def test_quick_coexploration_runs(self):
        from repro import quick_coexploration

        result = quick_coexploration(seed=0, search_epochs=1, num_eval_samples=150)
        assert isinstance(result, SearchResult)
        assert result.metrics.edap > 0
