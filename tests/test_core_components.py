"""Tests for cost functions, warm-up scheduling, the combined loss and results."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor
from repro.core import (
    CoExplorationLoss,
    EDAPCostFunction,
    LambdaWarmup,
    LinearCostFunction,
    SearchResult,
    format_comparison_table,
    format_results_table,
    get_cost_function,
)
from repro.hwmodel import AcceleratorConfig, HardwareMetrics


class TestCostFunctions:
    def test_linear_cost_weights(self):
        cost = LinearCostFunction(lambda_latency=2.0, lambda_energy=3.0, lambda_area=1.0)
        metrics = HardwareMetrics(1.0, 2.0, 3.0)
        assert cost.scalar(metrics) == pytest.approx(2.0 + 6.0 + 3.0)

    def test_edap_cost_is_product(self):
        metrics = HardwareMetrics(2.0, 3.0, 4.0)
        assert EDAPCostFunction().scalar(metrics) == pytest.approx(24.0)

    def test_tensor_input_gives_differentiable_output(self):
        metrics = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
        cost = EDAPCostFunction()(metrics)
        cost.backward()
        assert metrics.grad is not None
        assert np.allclose(metrics.grad, [[6.0, 3.0, 2.0]])

    def test_linear_cost_batch_mean(self):
        metrics = Tensor(np.array([[1.0, 1.0, 1.0], [3.0, 3.0, 3.0]]))
        cost = LinearCostFunction(1.0, 1.0, 1.0)(metrics)
        assert cost.item() == pytest.approx(6.0)

    def test_factory(self):
        assert isinstance(get_cost_function("edap"), EDAPCostFunction)
        assert isinstance(get_cost_function("linear", lambda_latency=1.0), LinearCostFunction)
        with pytest.raises(ValueError):
            get_cost_function("unknown")

    def test_bad_metric_shape_rejected(self):
        with pytest.raises(ValueError):
            EDAPCostFunction()(Tensor(np.zeros((1, 4))))

    @settings(max_examples=25, deadline=None)
    @given(
        latency=st.floats(0.1, 50.0),
        energy=st.floats(0.1, 50.0),
        area=st.floats(0.1, 50.0),
    )
    def test_property_costs_positive_and_monotone(self, latency, energy, area):
        metrics = HardwareMetrics(latency, energy, area)
        bigger = HardwareMetrics(latency * 2, energy, area)
        for cost in (EDAPCostFunction(), LinearCostFunction(1.0, 1.0, 1.0)):
            assert cost.scalar(metrics) > 0
            assert cost.scalar(bigger) > cost.scalar(metrics)


class TestLambdaWarmup:
    def test_linear_ramp(self):
        warmup = LambdaWarmup(target=1.0, warmup_epochs=4, start_fraction=0.0, mode="linear")
        assert warmup.value(0) == pytest.approx(0.0)
        assert warmup.value(2) == pytest.approx(0.5)
        assert warmup.value(4) == pytest.approx(1.0)
        assert warmup.value(100) == pytest.approx(1.0)

    def test_step_mode(self):
        warmup = LambdaWarmup(target=2.0, warmup_epochs=3, start_fraction=0.1, mode="step")
        assert warmup.value(0) == pytest.approx(0.2)
        assert warmup.value(2) == pytest.approx(0.2)
        assert warmup.value(3) == pytest.approx(2.0)

    def test_zero_warmup_always_target(self):
        warmup = LambdaWarmup(target=5.0, warmup_epochs=0)
        assert warmup.value(0) == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LambdaWarmup(target=-1.0)
        with pytest.raises(ValueError):
            LambdaWarmup(target=1.0, start_fraction=2.0)
        with pytest.raises(ValueError):
            LambdaWarmup(target=1.0, mode="exp")
        with pytest.raises(ValueError):
            LambdaWarmup(target=1.0).value(-1)

    @settings(max_examples=20, deadline=None)
    @given(target=st.floats(0.0, 10.0), warmup_epochs=st.integers(1, 20))
    def test_property_monotone_nondecreasing(self, target, warmup_epochs):
        warmup = LambdaWarmup(target=target, warmup_epochs=warmup_epochs)
        values = [warmup.value(epoch) for epoch in range(warmup_epochs + 5)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestCoExplorationLoss:
    def _setup(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(4, 10)), requires_grad=True)
        targets = np.array([0, 1, 2, 3])
        metrics = Tensor(np.array([[2.0, 3.0, 4.0]]), requires_grad=True)
        return logits, targets, metrics

    def test_lambda2_zero_equals_plain_cross_entropy(self):
        logits, targets, metrics = self._setup()
        loss_fn = CoExplorationLoss(EDAPCostFunction(), label_smoothing=0.0)
        combined = loss_fn(logits, targets, metrics, lambda_2=0.0)
        from repro.autograd.functional import cross_entropy

        assert combined.item() == pytest.approx(cross_entropy(logits, targets).item())

    def test_higher_lambda2_raises_loss(self):
        logits, targets, metrics = self._setup()
        loss_fn = CoExplorationLoss(EDAPCostFunction(), label_smoothing=0.0)
        low = loss_fn(logits, targets, metrics, lambda_2=0.1).item()
        high = loss_fn(logits, targets, metrics, lambda_2=1.0).item()
        assert high > low

    def test_gradient_flows_to_both_inputs(self):
        logits, targets, metrics = self._setup()
        loss_fn = CoExplorationLoss(EDAPCostFunction())
        loss_fn(logits, targets, metrics, lambda_2=0.5).backward()
        assert logits.grad is not None and metrics.grad is not None

    def test_cost_normalizer_scales_hw_term(self):
        logits, targets, metrics = self._setup()
        plain = CoExplorationLoss(EDAPCostFunction(), label_smoothing=0.0)
        normalised = CoExplorationLoss(EDAPCostFunction(), label_smoothing=0.0, cost_normalizer=24.0)
        breakdown_plain = plain.breakdown(logits, targets, metrics, lambda_2=1.0)
        breakdown_norm = normalised.breakdown(logits, targets, metrics, lambda_2=1.0)
        assert breakdown_plain.hardware_cost == pytest.approx(24.0)
        assert breakdown_norm.hardware_cost == pytest.approx(1.0)

    def test_weight_decay_term(self):
        logits, targets, metrics = self._setup()
        weights = [Tensor(np.ones(4), requires_grad=True)]
        loss_fn = CoExplorationLoss(EDAPCostFunction(), lambda_1=0.5, label_smoothing=0.0)
        breakdown = loss_fn.breakdown(logits, targets, metrics, lambda_2=0.0, weight_parameters=weights)
        assert breakdown.weight_decay == pytest.approx(2.0)
        assert breakdown.total == pytest.approx(breakdown.cross_entropy + 2.0)

    def test_invalid_normalizer_rejected(self):
        with pytest.raises(ValueError):
            CoExplorationLoss(EDAPCostFunction(), cost_normalizer=0.0)


class TestResults:
    def _result(self, method="DANCE", accuracy=0.9, edap_scale=1.0):
        return SearchResult(
            method=method,
            op_indices=np.zeros(9, dtype=np.int64),
            accuracy=accuracy,
            hardware=AcceleratorConfig(16, 16, 16, "RS"),
            metrics=HardwareMetrics(2.0 * edap_scale, 3.0, 4.0),
            search_seconds=12.0,
            candidates_trained=1,
        )

    def test_row_and_properties(self):
        result = self._result()
        assert result.error == pytest.approx(0.1)
        assert result.edap == pytest.approx(24.0)
        row = result.row()
        assert row["accuracy_pct"] == pytest.approx(90.0)
        assert row["edap"] == pytest.approx(24.0)

    def test_results_table_contains_all_methods(self):
        table = format_results_table([self._result("A"), self._result("B")], title="Table 2")
        assert "Table 2" in table and "A" in table and "B" in table

    def test_comparison_table_marks_rl_vs_gradient(self):
        gradient_result = self._result("DANCE")
        rl_result = self._result("RL")
        rl_result.candidates_trained = 50
        table = format_comparison_table([gradient_result, rl_result])
        assert "gradient" in table and "RL" in table

    def test_missing_accuracy_prints_a_dash(self):
        # retrain_final=false: no accuracy, no error coordinate, "—" in tables.
        skipped = self._result("Skipped", accuracy=None)
        assert skipped.error is None and skipped.row()["accuracy_pct"] is None
        for formatter in (format_results_table, format_comparison_table):
            lines = formatter([self._result("Trained"), skipped]).splitlines()
            trained_row, skipped_row = lines[-2], lines[-1]
            assert "nan" not in skipped_row.lower()
            assert trained_row[32:41] == "     90.0"
            assert skipped_row[32:41] == "        —"
            assert len(skipped_row) == len(trained_row)
