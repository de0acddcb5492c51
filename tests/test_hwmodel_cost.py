"""Tests for the analytical latency / energy / area oracle and the HW generator.

These tests pin down the *qualitative* behaviours the paper relies on: more
PEs reduce latency but raise area, bigger register files trade energy/area
for fewer memory stalls, dataflow choice interacts with the layer shape, and
the exhaustive generator returns the true optimum of the discretised space.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pareto_reference import pareto_front_reference

from repro.hwmodel import (
    AcceleratorConfig,
    AcceleratorCostModel,
    ConvLayerShape,
    Dataflow,
    ExhaustiveHardwareGenerator,
    HardwareMetrics,
    NetworkWorkload,
    aggregate_metrics,
    analyze_mapping,
    conv_layer,
    edap_cost,
    linear_cost,
    make_linear_cost,
    pareto_front,
    utilization_by_dataflow,
)
from repro.hwmodel import metrics as metrics_module


@pytest.fixture(scope="module")
def reference_layer():
    return conv_layer("ref", in_channels=32, out_channels=64, feature_size=32, kernel_size=3)


@pytest.fixture(scope="module")
def reference_workload(reference_layer):
    return NetworkWorkload("ref_net", [reference_layer, conv_layer("second", 64, 64, 16, 3)])


class TestHardwareMetrics:
    def test_edap_units(self):
        metrics = HardwareMetrics(latency_ms=2.0, energy_mj=3.0, area_mm2=4.0)
        assert metrics.edap == pytest.approx(24.0)
        assert metrics.edp == pytest.approx(6.0)

    def test_addition_sums_latency_energy_keeps_area(self):
        a = HardwareMetrics(1.0, 2.0, 5.0)
        b = HardwareMetrics(3.0, 4.0, 5.0)
        total = a + b
        assert total.latency_ms == 4.0
        assert total.energy_mj == 6.0
        assert total.area_mm2 == 5.0

    def test_aggregate_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate_metrics([])

    def test_negative_metrics_rejected(self):
        with pytest.raises(ValueError):
            HardwareMetrics(-1.0, 1.0, 1.0)

    def test_linear_and_edap_cost_helpers(self):
        metrics = HardwareMetrics(1.0, 2.0, 3.0)
        assert linear_cost(metrics, 1.0, 1.0, 1.0) == pytest.approx(6.0)
        assert edap_cost(metrics) == pytest.approx(6.0)


#: Coordinates that tie, repeat, and compare false (NaN) or past every value (inf).
_COORDINATE = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.0, float("inf"), float("nan")]),
    st.floats(min_value=0.0, max_value=10.0),
)
_POINTS = st.lists(st.tuples(_COORDINATE, _COORDINATE, _COORDINATE), max_size=40)


class TestParetoFront:
    """The broadcast dominance test against the per-point loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(coordinates=_POINTS, block=st.sampled_from([1, 3, 7, 64, 1 << 20]))
    def test_matches_the_per_point_loop(self, coordinates, block):
        points = [(index, HardwareMetrics(*xyz)) for index, xyz in enumerate(coordinates)]
        with mock.patch.object(metrics_module, "PARETO_BLOCK_ELEMENTS", block):
            front = pareto_front(points)
        expected = pareto_front_reference(points)
        assert [index for index, _ in front] == [index for index, _ in expected]
        assert all(a is c and b is d for (a, b), (c, d) in zip(front, expected))

    def test_ties_duplicates_and_nan(self):
        nan = float("nan")
        coordinates = [(1, 1, 1), (1, 1, 1), (1, 1, 2), (0, 2, 1), (nan, 0, 0), (2, 2, 2)]
        points = [(index, HardwareMetrics(*xyz)) for index, xyz in enumerate(coordinates)]
        assert [index for index, _ in pareto_front(points)] == [0, 1, 3, 4]
        assert pareto_front([]) == []


class TestMappingAnalysis:
    def test_more_pes_never_slower(self, reference_layer):
        small = AcceleratorConfig(8, 8, 16, "RS")
        large = AcceleratorConfig(24, 24, 16, "RS")
        assert (
            analyze_mapping(reference_layer, large).compute_cycles
            < analyze_mapping(reference_layer, small).compute_cycles
        )

    def test_larger_rf_reduces_buffer_traffic(self, reference_layer):
        small_rf = AcceleratorConfig(16, 16, 4, "WS")
        large_rf = AcceleratorConfig(16, 16, 64, "WS")
        assert (
            analyze_mapping(reference_layer, large_rf).buffer_traffic_words
            <= analyze_mapping(reference_layer, small_rf).buffer_traffic_words
        )

    def test_utilization_bounded(self, reference_layer):
        for dataflow in Dataflow:
            config = AcceleratorConfig(16, 16, 16, dataflow)
            mapping = analyze_mapping(reference_layer, config)
            assert 0.0 < mapping.spatial_utilization <= 1.0

    def test_depthwise_utilization_poor_on_weight_stationary(self):
        # The TPU/separable-convolution interaction from the paper's intro:
        # a depthwise layer has one input channel per group, so a weight
        # stationary array that parallelises over input channels starves.
        depthwise = ConvLayerShape("dw", n=1, c=64, h=32, w=32, k=64, r=3, s=3, groups=64)
        config = AcceleratorConfig(16, 16, 16, "WS")
        utilizations = utilization_by_dataflow(depthwise, config)
        assert utilizations[Dataflow.WEIGHT_STATIONARY] < utilizations[Dataflow.OUTPUT_STATIONARY]
        assert utilizations[Dataflow.WEIGHT_STATIONARY] < utilizations[Dataflow.ROW_STATIONARY]

    def test_channel_heavy_layer_prefers_ws_over_os_utilization(self):
        late_layer = ConvLayerShape("late", n=1, c=96, h=4, w=4, k=96, r=3, s=3)
        config = AcceleratorConfig(16, 16, 16, "WS")
        utilizations = utilization_by_dataflow(late_layer, config)
        assert utilizations[Dataflow.WEIGHT_STATIONARY] > utilizations[Dataflow.OUTPUT_STATIONARY]


class TestCostModel:
    def test_more_pes_lower_latency_higher_area(self, cost_model, reference_workload):
        small = AcceleratorConfig(8, 8, 16, "RS")
        large = AcceleratorConfig(24, 24, 16, "RS")
        metrics_small = cost_model.evaluate(reference_workload, small)
        metrics_large = cost_model.evaluate(reference_workload, large)
        assert metrics_large.latency_ms < metrics_small.latency_ms
        assert metrics_large.area_mm2 > metrics_small.area_mm2

    def test_bigger_rf_larger_area(self, cost_model, reference_workload):
        small = AcceleratorConfig(16, 16, 4, "RS")
        large = AcceleratorConfig(16, 16, 64, "RS")
        assert (
            cost_model.evaluate(reference_workload, large).area_mm2
            > cost_model.evaluate(reference_workload, small).area_mm2
        )

    def test_metrics_positive_for_all_configs(self, cost_model, reference_workload, hw_space):
        for config in hw_space.enumerate():
            metrics = cost_model.evaluate(reference_workload, config)
            assert metrics.latency_ms > 0
            assert metrics.energy_mj > 0
            assert metrics.area_mm2 > 0

    def test_network_latency_is_sum_of_layers(self, cost_model, reference_workload):
        config = AcceleratorConfig(16, 16, 16, "RS")
        per_layer = [cost_model.evaluate_layer(layer, config) for layer in reference_workload]
        total = cost_model.evaluate(reference_workload, config)
        assert total.latency_ms == pytest.approx(sum(m.latency_ms for m in per_layer))
        assert total.energy_mj == pytest.approx(sum(m.energy_mj for m in per_layer))
        assert total.area_mm2 == pytest.approx(per_layer[0].area_mm2)

    def test_empty_workload_rejected(self, cost_model):
        with pytest.raises(ValueError):
            cost_model.evaluate([], AcceleratorConfig(8, 8, 4, "WS"))

    def test_detailed_report_covers_every_layer(self, cost_model, reference_workload):
        reports = cost_model.evaluate_detailed(reference_workload, AcceleratorConfig(8, 8, 4, "WS"))
        assert len(reports) == len(reference_workload)
        assert all(report.latency_ms > 0 for report in reports)

    def test_bigger_network_costs_more(self, cost_model):
        config = AcceleratorConfig(16, 16, 16, "RS")
        small_net = NetworkWorkload("s", [conv_layer("a", 16, 16, 16, 3)])
        big_net = NetworkWorkload("b", [conv_layer("a", 16, 16, 16, 3), conv_layer("b", 16, 32, 16, 3)])
        assert (
            cost_model.evaluate(big_net, config).latency_ms
            > cost_model.evaluate(small_net, config).latency_ms
        )

    @settings(max_examples=20, deadline=None)
    @given(
        pe_x=st.sampled_from([8, 16, 24]),
        pe_y=st.sampled_from([8, 16, 24]),
        rf=st.sampled_from([4, 16, 64]),
        dataflow=st.sampled_from(list(Dataflow)),
    )
    def test_property_metrics_finite_positive(self, pe_x, pe_y, rf, dataflow):
        cost_model = AcceleratorCostModel()
        layer = conv_layer("prop", 24, 48, 16, 3)
        metrics = cost_model.evaluate_layer(layer, AcceleratorConfig(pe_x, pe_y, rf, dataflow))
        for value in metrics.as_vector():
            assert np.isfinite(value) and value > 0


class TestExhaustiveGenerator:
    def test_generate_finds_true_minimum(self, cost_model, reference_workload, hw_space):
        generator = ExhaustiveHardwareGenerator(hw_space, cost_model, cost_function=edap_cost)
        result = generator.generate(reference_workload)
        brute_force = min(
            edap_cost(cost_model.evaluate(reference_workload, config)) for config in hw_space.enumerate()
        )
        assert result.cost == pytest.approx(brute_force)
        assert result.evaluations == len(hw_space)

    def test_generate_rejects_empty_workload(self, hw_space):
        with pytest.raises(ValueError):
            ExhaustiveHardwareGenerator(hw_space).generate([])

    def test_top_k_sorted(self, cost_model, reference_workload, hw_space):
        generator = ExhaustiveHardwareGenerator(hw_space, cost_model)
        top = generator.top_k(reference_workload, k=5)
        costs = [entry.cost for entry in top]
        assert costs == sorted(costs)
        assert len(top) == 5

    def test_linear_cost_function_changes_optimum_weighting(self, cost_model, reference_workload, hw_space):
        latency_focused = ExhaustiveHardwareGenerator(
            hw_space, cost_model, cost_function=make_linear_cost(100.0, 0.0, 0.0)
        ).generate(reference_workload)
        area_focused = ExhaustiveHardwareGenerator(
            hw_space, cost_model, cost_function=make_linear_cost(0.0, 0.0, 100.0)
        ).generate(reference_workload)
        # Optimising purely for latency should not yield more area-efficient
        # hardware than optimising purely for area.
        assert latency_focused.metrics.latency_ms <= area_focused.metrics.latency_ms
        assert area_focused.metrics.area_mm2 <= latency_focused.metrics.area_mm2
