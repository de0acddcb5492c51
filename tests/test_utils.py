"""Tests for the shared utility helpers (seeding, logging, serialisation)."""

from __future__ import annotations

import dataclasses
import enum
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import get_logger, global_rng, load_json, save_json, seed_everything
from repro.utils.seeding import as_rng
from repro.utils.serialization import dumps_strict, json_safe


class TestSeeding:
    def test_seed_everything_is_deterministic(self):
        seed_everything(42)
        first = global_rng().normal(size=5)
        seed_everything(42)
        second = global_rng().normal(size=5)
        assert np.allclose(first, second)

    def test_as_rng_accepts_none_int_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)
        assert isinstance(as_rng(3), np.random.Generator)
        generator = np.random.default_rng(0)
        assert as_rng(generator) is generator

    def test_as_rng_int_is_deterministic(self):
        assert np.allclose(as_rng(5).normal(size=3), as_rng(5).normal(size=3))


class TestLogging:
    def test_logger_namespacing(self):
        logger = get_logger("core.test")
        assert logger.name == "repro.core.test"
        already_prefixed = get_logger("repro.foo")
        assert already_prefixed.name == "repro.foo"

    def test_logger_is_singleton_per_name(self):
        assert get_logger("same") is get_logger("same")

    def test_root_has_single_handler(self):
        get_logger("a")
        get_logger("b")
        root = logging.getLogger("repro")
        assert len(root.handlers) == 1


class TestSerialization:
    def test_roundtrip_plain_types(self, tmp_path):
        payload = {"a": 1, "b": [1.5, 2.5], "c": "text"}
        path = save_json(payload, tmp_path / "plain.json")
        assert load_json(path) == payload

    def test_numpy_values_serialised(self, tmp_path):
        payload = {
            "scalar": np.float64(2.5),
            "integer": np.int64(7),
            "flag": np.bool_(True),
            "array": np.arange(3),
        }
        loaded = load_json(save_json(payload, tmp_path / "numpy.json"))
        assert loaded == {"scalar": 2.5, "integer": 7, "flag": True, "array": [0, 1, 2]}

    def test_dataclass_serialised(self, tmp_path):
        @dataclasses.dataclass
        class Record:
            name: str
            value: float

        loaded = load_json(save_json({"record": Record("x", 1.0)}, tmp_path / "dc.json"))
        assert loaded == {"record": {"name": "x", "value": 1.0}}

    def test_nested_directory_created(self, tmp_path):
        path = save_json({"k": 1}, tmp_path / "nested" / "deep" / "file.json")
        assert path.exists()


# ----------------------------------------------------------------------
# dumps_strict against its oracle, json.dumps(json_safe(v), indent=2, allow_nan=False)
# ----------------------------------------------------------------------
def oracle(value) -> str:
    return json.dumps(json_safe(value), indent=2, allow_nan=False)


def assert_renders_like_oracle(value) -> None:
    try:
        expected = oracle(value)
    except (TypeError, ValueError) as error:
        with pytest.raises(type(error)):
            dumps_strict(value)
    else:
        assert dumps_strict(value) == expected


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    pass


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and both infinities included
    | st.text()
    | st.integers(min_value=-3, max_value=3).map(np.float64)
    | st.sampled_from(list(Level))
    | st.text(max_size=4).map(Label)
)
KEYS = st.text(max_size=6) | st.integers() | st.floats() | st.booleans() | st.none()
VALUES = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(KEYS, children, max_size=4)
    ),
    max_leaves=20,
)


class TestDumpsStrict:
    @settings(max_examples=300, deadline=None)
    @given(VALUES)
    def test_matches_the_oracle(self, value):
        assert_renders_like_oracle(value)

    @pytest.mark.parametrize(
        "value",
        [
            math.nan,
            math.inf,
            -math.inf,
            {"a": math.nan, "b": math.inf, "c": -math.inf, "d": 1.0},
            [math.nan, 1, math.inf, "x", -math.inf],
            (math.nan, (math.inf, -math.inf), [math.nan]),
            np.float64("nan"),
            {"accuracy": np.float64("inf")},
        ],
    )
    def test_non_finite_floats_render_null(self, value):
        assert "NaN" not in dumps_strict(value) and "Infinity" not in dumps_strict(value)
        assert_renders_like_oracle(value)

    @pytest.mark.parametrize("value", [-0.0, 1e300, 5e-324, 0.1, 1e16, -2.5e-7, [-0.0, 5e-324]])
    def test_float_reprs(self, value):
        assert_renders_like_oracle(value)

    @pytest.mark.parametrize(
        "value",
        [
            [True, 1, False, 0, None],
            {"flag": True, "count": 1},
            np.float64(0.1),
            [np.float64(2.5), np.float64(-0.0)],
            Level.HIGH,
            {"level": Level.LOW, "levels": list(Level)},
            Label("sub"),
            {Label("key"): Label("value")},
            2**70,
        ],
    )
    def test_bools_ints_and_subclasses(self, value):
        assert_renders_like_oracle(value)

    @pytest.mark.parametrize(
        "value", [{}, [], (), {"a": {}}, [[]], [(), {}], {"a": [], "b": {"c": []}}, [[[]]]]
    )
    def test_empty_and_nested_empty_containers(self, value):
        assert_renders_like_oracle(value)

    @pytest.mark.parametrize(
        "value",
        [
            "naïve ✓ 雪 🎉",
            "tab\tnew\nline\rcarriage\x00nul\x1fus\x7f",
            'quote " and backslash \\ and slash /',
            {"ключ": "значение", "\n": "\u2028"},
            ["\ud800", "\U0001f600"],
        ],
    )
    def test_strings_are_escaped_like_the_stdlib(self, value):
        assert_renders_like_oracle(value)

    @pytest.mark.parametrize(
        "value",
        [
            {1: "int", 2.5: "float", True: "true", False: "false", None: "null"},
            {-0.0: 0, 1e300: 1, Level.HIGH: 2, np.float64(0.5): 3},
            {"1": "str", 1: "int"},
        ],
    )
    def test_non_string_keys(self, value):
        assert_renders_like_oracle(value)

    @pytest.mark.parametrize(
        "value, error",
        [
            ({1, 2}, TypeError),
            ([{1, 2}], TypeError),
            ({(1, 2): "tuple key"}, TypeError),
            ({object(): 1}, TypeError),
            (np.int64(3), TypeError),
            ({"count": np.int64(3)}, TypeError),
            (np.bool_(True), TypeError),
            ({math.nan: 1}, ValueError),
            ({math.inf: 1}, ValueError),
        ],
    )
    def test_unsupported_values_raise_the_oracles_error(self, value, error):
        with pytest.raises(error):
            oracle(value)
        with pytest.raises(error):
            dumps_strict(value)

    def test_a_cycle_raises_value_error(self):
        cyclic_list = [1]
        cyclic_list.append(cyclic_list)
        cyclic_dict = {"a": [1]}
        cyclic_dict["a"].append(cyclic_dict)
        for value in (cyclic_list, cyclic_dict):
            # json_safe would recurse without end; json.dumps alone names the cycle.
            with pytest.raises(ValueError):
                json.dumps(value, indent=2, allow_nan=False)
            with pytest.raises(ValueError, match="Circular reference"):
                dumps_strict(value)

    def test_a_shared_container_is_not_a_cycle(self):
        shared = [1.5, {"x": None}]
        value = {"first": shared, "second": [shared, shared]}
        assert_renders_like_oracle(value)
