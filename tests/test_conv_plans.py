"""Parity and cache tests for the cached convolution plans.

The plan tier (gather im2col, bincount-scatter col2im, fused depthwise
fold) must be *bit-identical* to the legacy stride-trick/loop/einsum
lowering at float64 — that invariant is what lets the fast path ship without
touching a single golden result.  The legacy lowering lives on only as the
oracle in ``tests/conv_reference.py``.  These tests sweep the geometry grid
the search space actually uses (kernel x stride x padding x groups,
including the height-1 sequence-task shapes) and assert exact equality of
activations and every gradient; float32 runs the same graphs and is checked
to tolerance.  A conv node keeps its input, not its columns: the weight
gradient gathers them again (``TestWeightColumns``).  The
contractions gather and contract a block of groups at a time, at float64
and at float32; forcing tiny blocks must not change a bit
(``TestBlockedLowering``).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import conv_reference
from repro.autograd import plans, use_dtype
from repro.autograd.conv import AvgPool2d, conv2d
from repro.autograd.plans import clear_plan_cache, get_plan, plan_cache_info
from repro.autograd.tensor import Tensor


@pytest.fixture(autouse=True)
def _fresh_plan_cache():
    """Each test starts and ends with an empty cache."""
    clear_plan_cache()
    yield
    clear_plan_cache()


# Geometry grid: (input NCHW, kernel, stride, padding, groups).  Covers the
# dense stem, grouped/pointwise and depthwise MBConv layers, strided
# downsampling, asymmetric padding and the height-1 seq1d task geometry.
PARITY_GRID = [
    ((2, 3, 8, 8), (3, 3), (1, 1), (1, 1), 1),
    ((2, 4, 8, 8), (1, 1), (1, 1), (0, 0), 1),
    ((3, 6, 9, 9), (3, 3), (2, 2), (1, 1), 3),
    ((2, 8, 8, 8), (5, 5), (1, 1), (2, 2), 8),
    ((2, 8, 8, 8), (7, 7), (1, 1), (3, 3), 8),
    ((2, 6, 10, 7), (3, 3), (2, 1), (0, 1), 2),
    ((2, 4, 1, 16), (1, 3), (1, 1), (0, 1), 1),
    ((2, 4, 1, 16), (1, 3), (1, 2), (0, 1), 4),
]


# Edge geometries of the float64 parity test, as (input NCHW, kernel, stride,
# padding, groups, out channels, bias).  Where a size-1 axis leaves einsum
# nothing to fuse, it hands matmul strided views instead of copies, so these
# pin the layout rule of ``ConvPlan._contract``.
EDGE_GRID = [
    ((1, 6, 8, 8), (3, 3), (1, 1), (1, 1), 6, 6, False),  # batch 1, depthwise
    ((1, 3, 8, 8), (3, 3), (1, 1), (1, 1), 1, 4, False),  # batch 1, dense
    ((3, 4, 2, 2), (3, 3), (2, 2), (1, 1), 4, 4, False),  # 1x1 output, depthwise
    ((2, 1, 8, 8), (3, 3), (1, 1), (1, 1), 1, 4, False),  # one input channel
    ((2, 6, 8, 8), (3, 3), (1, 1), (1, 1), 1, 1, False),  # one output channel
    ((2, 4, 2, 2), (7, 7), (1, 1), (3, 3), 4, 4, False),  # 7x7 kernel on 2x2
    ((2, 12, 4, 4), (1, 1), (1, 1), (0, 0), 2, 8, False),  # grouped pointwise, g > 1, o > 1
    ((2, 12, 4, 4), (1, 1), (1, 1), (0, 0), 2, 8, True),  # the same with a bias
    ((2, 1, 4, 4), (1, 1), (1, 1), (0, 0), 1, 3, False),  # k = 1: einsum multiplies
    ((2, 4, 6, 6), (1, 1), (2, 2), (0, 0), 4, 4, True),  # k = 1 with a gather
]


def _parity_params():
    """Every float64 parity geometry, with the grid's historical test ids."""
    grid = [entry + (None, True) for entry in PARITY_GRID] + EDGE_GRID
    return [
        pytest.param(*entry, id=f"shape{i}-kernel{i}-stride{i}-padding{i}-{entry[4]}")
        for i, entry in enumerate(grid)
    ]


def _run_conv(conv, x_data, w_data, stride, padding, groups, with_bias=True):
    """Forward + backward of ``conv``: the output and every gradient."""
    x = Tensor(x_data, requires_grad=True)
    weight = Tensor(w_data, requires_grad=True)
    bias_data = np.linspace(-1.0, 1.0, w_data.shape[0])
    bias = Tensor(bias_data, requires_grad=True) if with_bias else None
    out = conv(x, weight, bias=bias, stride=stride, padding=padding, groups=groups)
    (out * out).sum().backward()
    grads = (x.grad, weight.grad) + ((bias.grad,) if with_bias else ())
    return (out.data,) + grads


@pytest.mark.parametrize("shape,kernel,stride,padding,groups,cout,bias", _parity_params())
def test_plan_path_bit_identical_to_legacy_float64(
    shape, kernel, stride, padding, groups, cout, bias
):
    """Values *and strides*: downstream reductions round by memory order."""
    rng = np.random.default_rng(7)
    cin = shape[1]
    if cout is None:
        cout = cin if groups == cin else 2 * groups
    x_data = rng.normal(size=shape)
    w_data = rng.normal(size=(cout, cin // groups, kernel[0], kernel[1]))
    fast = _run_conv(conv2d, x_data, w_data, stride, padding, groups, with_bias=bias)
    legacy = _run_conv(conv_reference.conv2d, x_data, w_data, stride, padding, groups, with_bias=bias)
    assert len(fast) == len(legacy) == (4 if bias else 3)
    for fast_arr, legacy_arr in zip(fast, legacy):
        assert np.array_equal(fast_arr, legacy_arr)
        assert fast_arr.strides == legacy_arr.strides


@pytest.mark.parametrize("shape,kernel,stride,padding,groups", PARITY_GRID)
def test_plan_path_matches_legacy_float32_to_tolerance(shape, kernel, stride, padding, groups):
    rng = np.random.default_rng(11)
    cin = shape[1]
    cout = cin if groups == cin else 2 * groups
    x_data = rng.normal(size=shape)
    w_data = rng.normal(size=(cout, cin // groups, kernel[0], kernel[1]))
    with use_dtype("float32"):
        fast = _run_conv(conv2d, x_data, w_data, stride, padding, groups)
        legacy = _run_conv(conv_reference.conv2d, x_data, w_data, stride, padding, groups)
    for fast_arr, legacy_arr in zip(fast, legacy):
        assert fast_arr.dtype == np.float32
        np.testing.assert_allclose(fast_arr, legacy_arr, rtol=1e-4, atol=1e-4)


def test_im2col_gather_bit_identical_to_stride_trick():
    rng = np.random.default_rng(3)
    for shape, kernel, stride, padding, _ in PARITY_GRID:
        x = rng.normal(size=shape)
        plan = get_plan(shape, kernel, stride, padding)
        cols_ref, out_hw = conv_reference.im2col(x, kernel, stride, padding)
        assert plan.out_hw == out_hw
        assert np.array_equal(plan.im2col(x), cols_ref)


def test_col2im_scatter_bit_identical_to_loop():
    rng = np.random.default_rng(4)
    for shape, kernel, stride, padding, _ in PARITY_GRID:
        plan = get_plan(shape, kernel, stride, padding)
        length = plan.out_hw[0] * plan.out_hw[1]
        cols = rng.normal(size=(shape[0], shape[1] * kernel[0] * kernel[1], length))
        expected = conv_reference.col2im(cols, shape, kernel, stride, padding, plan.out_hw)
        assert np.array_equal(plan.col2im(cols), expected)


def test_scatter_index_is_built_on_first_col2im():
    """A depthwise forward + backward folds with col2im_outer and builds no
    channel-expanded scatter map; the first col2im builds it."""
    rng = np.random.default_rng(12)
    shape, kernel, padding = (2, 6, 8, 8), (5, 5), (2, 2)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    weight = Tensor(rng.normal(size=(6, 1) + kernel), requires_grad=True)
    conv2d(x, weight, padding=padding, groups=6).sum().backward()
    plan = get_plan(shape, kernel, (1, 1), padding, 6)
    length = plan.out_hw[0] * plan.out_hw[1]
    assert plan.scatter_index is None
    assert plan.scatter_taps.shape == (kernel[0] * kernel[1] * length,)
    cols = rng.normal(size=(shape[0], shape[1] * kernel[0] * kernel[1], length))
    expected = conv_reference.col2im(cols, shape, kernel, (1, 1), padding, plan.out_hw)
    assert np.array_equal(plan.col2im(cols), expected)
    assert plan.scatter_index.shape == (shape[1] * kernel[0] * kernel[1] * length,)


def test_col2im_outer_matches_materialised_fold():
    """The fused depthwise fold equals col2im of the explicit outer product,
    including taps that land partly or only in the padding."""
    rng = np.random.default_rng(5)
    for shape, kernel, stride, padding in [
        ((3, 6, 8, 8), (5, 5), (1, 1), (2, 2)),
        ((2, 4, 2, 2), (7, 7), (1, 1), (3, 3)),
        ((2, 4, 2, 2), (7, 7), (2, 2), (3, 3)),
        ((2, 4, 4, 4), (5, 5), (2, 2), (2, 2)),
    ]:
        plan = get_plan(shape, kernel, stride, padding)
        taps = kernel[0] * kernel[1]
        length = plan.out_hw[0] * plan.out_hw[1]
        weight = rng.normal(size=(shape[1], taps))
        grad = rng.normal(size=(shape[0], shape[1], length))
        explicit = (weight[None, :, :, None] * grad[:, :, None, :]).reshape(
            shape[0], shape[1] * taps, length
        )
        assert np.array_equal(plan.col2im_outer(weight, grad), plan.col2im(explicit))


def _legacy_columns(x, plan):
    """The legacy im2col columns of ``x`` as logical ``(n, g, k, l)``."""
    cols, _ = conv_reference.im2col(x, plan.kernel, plan.stride, plan.padding)
    return cols.reshape(x.shape[0], plan.groups, -1, plan.out_hw[0] * plan.out_hw[1])


def test_grad_weight_float64_bit_identical_to_einsum():
    """The plan-tier weight gradient rounds exactly as the legacy einsum at float64."""
    rng = np.random.default_rng(12)
    for shape, kernel, stride, padding, groups in PARITY_GRID:
        n, cin = shape[0], shape[1]
        cout = cin if groups == cin else 2 * groups
        plan = get_plan(shape, kernel, stride, padding, groups)
        length = plan.out_hw[0] * plan.out_hw[1]
        x = rng.normal(size=shape)
        grad = rng.normal(size=(n, groups, cout // groups, length))
        reference = np.einsum("ngol,ngkl->gok", grad, _legacy_columns(x, plan), optimize=True)
        assert np.array_equal(plan.grad_weight(grad, x), reference)


def _layouts(array):
    """``array`` as C-contiguous, permuted, gapped and broadcast operands."""
    rng = np.random.default_rng(array.size)
    perm = rng.permutation(array.ndim)
    permuted = np.ascontiguousarray(array.transpose(perm)).transpose(np.argsort(perm))
    gapped = np.zeros(array.shape[:-1] + (2 * array.shape[-1],))
    gapped[..., ::2] = array
    broadcast = np.broadcast_to(array[..., :1], array.shape)
    return [array, permuted, gapped[..., ::2], broadcast]


@pytest.mark.parametrize(
    "legacy, lowered",
    [
        ("gok,ngkl->ngol", "ngkl,gok->ngol"),
        ("ngol,ngkl->gok", "ngkl,ngol->gok"),
        ("gok,ngol->ngkl", "ngol,gok->ngkl"),
    ],
)
def test_bmm_replays_einsum_on_every_layout(legacy, lowered):
    """``plans._bmm`` is einsum's matmul: same values and strides for any
    operand layout, size-1 axis or missing contraction axis."""
    rng = np.random.default_rng(21)
    left, right = legacy.split("->")[0].split(",")
    for n, g, o, k, l in [(3, 2, 4, 9, 16), (1, 3, 1, 9, 16), (3, 3, 2, 1, 1), (2, 1, 5, 1, 7)]:
        sizes = dict(n=n, g=g, o=o, k=k, l=l)
        first = rng.normal(size=[sizes[ix] for ix in left])
        second = rng.normal(size=[sizes[ix] for ix in right])
        for a in _layouts(first):
            for b in _layouts(second):
                reference = np.einsum(legacy, a, b, optimize=True)
                replayed = plans._bmm(lowered, b, a)
                assert np.array_equal(replayed, reference)
                assert replayed.strides == reference.strides


def test_grad_weight_float32_fast_form_matches_to_tolerance():
    rng = np.random.default_rng(13)
    shape, kernel, stride, padding, groups = (2, 8, 8, 8), (7, 7), (1, 1), (3, 3), 8
    plan = get_plan(shape, kernel, stride, padding, groups)
    length = plan.out_hw[0] * plan.out_hw[1]
    x = rng.normal(size=shape).astype(np.float32)
    grad = rng.normal(size=(2, groups, 1, length)).astype(np.float32)
    fast = plan.grad_weight(grad, x)
    reference = np.einsum("ngol,ngkl->gok", grad, _legacy_columns(x, plan), optimize=True)
    assert fast.dtype == np.float32
    np.testing.assert_allclose(fast, reference, rtol=1e-4, atol=1e-5)


class TestTrivialPlans:
    def test_trivial_flag_only_for_pointwise_identity_geometry(self):
        assert get_plan((2, 4, 8, 8), (1, 1), (1, 1), (0, 0)).trivial
        assert not get_plan((2, 4, 8, 8), (1, 1), (2, 2), (0, 0)).trivial
        assert not get_plan((2, 4, 8, 8), (1, 1), (1, 1), (1, 1)).trivial
        assert not get_plan((2, 4, 8, 8), (3, 3), (1, 1), (1, 1)).trivial

    def test_trivial_im2col_is_a_zero_copy_view(self):
        x = np.random.default_rng(14).normal(size=(2, 4, 8, 8))
        plan = get_plan(x.shape, (1, 1), (1, 1), (0, 0))
        cols = plan.im2col(x)
        assert cols.base is x  # contiguous input: a reshape view, no copy
        cols_ref, _ = conv_reference.im2col(x, (1, 1), (1, 1), (0, 0))
        assert np.array_equal(cols, cols_ref)

    def test_trivial_im2col_handles_non_contiguous_input(self):
        base = np.random.default_rng(15).normal(size=(2, 8, 8, 4))
        x = base.transpose(0, 3, 1, 2)  # non-contiguous NCHW view
        plan = get_plan(x.shape, (1, 1), (1, 1), (0, 0))
        cols_ref, _ = conv_reference.im2col(x, (1, 1), (1, 1), (0, 0))
        assert np.array_equal(plan.im2col(x), cols_ref)

    def test_trivial_col2im_is_the_inverse_reshape(self):
        rng = np.random.default_rng(16)
        plan = get_plan((3, 5, 6, 7), (1, 1), (1, 1), (0, 0))
        cols = rng.normal(size=(3, 5, 42))
        expected = conv_reference.col2im(cols, (3, 5, 6, 7), (1, 1), (1, 1), (0, 0), (6, 7))
        assert np.array_equal(plan.col2im(cols), expected)


def test_avgpool_plan_parity():
    rng = np.random.default_rng(6)
    x_data = rng.normal(size=(2, 3, 8, 8))
    outputs = []
    for pool in (AvgPool2d(2), lambda x: conv_reference.avg_pool2d(x, 2)):
        x = Tensor(x_data, requires_grad=True)
        out = pool(x)
        out.sum().backward()
        outputs.append((out.data, x.grad))
    for fast_arr, legacy_arr in zip(*outputs):
        assert np.array_equal(fast_arr, legacy_arr)
        assert fast_arr.strides == legacy_arr.strides


class TestPlanCache:
    def test_plans_are_reused_across_calls_and_batch_sizes(self):
        get_plan((4, 3, 8, 8), (3, 3), (1, 1), (1, 1))
        get_plan((4, 3, 8, 8), (3, 3), (1, 1), (1, 1))
        # The batch size is not part of the key: a final odd-sized batch
        # reuses its full-batch geometry's plan.
        get_plan((1, 3, 8, 8), (3, 3), (1, 1), (1, 1))
        info = plan_cache_info()
        assert info == {"size": 1, "hits": 2, "misses": 1}

    def test_conv2d_reuses_cached_plans_across_steps(self):
        x_data = np.random.default_rng(20).normal(size=(2, 4, 8, 8))
        w_data = np.random.default_rng(21).normal(size=(4, 1, 3, 3))
        for _ in range(2):
            _run_conv(conv2d, x_data, w_data, 1, 1, 4)
        # One miss builds the plan; the second step's forward is a hit.
        assert plan_cache_info() == {"size": 1, "hits": 1, "misses": 1}

    def test_distinct_geometries_get_distinct_plans(self):
        first = get_plan((2, 3, 8, 8), (3, 3), (1, 1), (1, 1))
        second = get_plan((2, 3, 8, 8), (3, 3), (2, 2), (1, 1))
        assert first is not second
        assert plan_cache_info()["size"] == 2

    def test_cache_is_bounded(self):
        for width in range(plans.MAX_PLANS + 10):
            get_plan((1, 1, 1, 8 + width), (1, 1), (1, 1), (0, 0))
        assert plan_cache_info()["size"] == plans.MAX_PLANS

    def test_empty_output_geometry_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            get_plan((1, 1, 2, 2), (5, 5), (1, 1), (0, 0))


# Weight-gradient column geometries, as (input NCHW, kernel, stride, padding,
# groups): depthwise 3/5/7, grouped, strided, padded, pointwise, batch 1.
WEIGHT_COLUMN_GRID = [
    ((4, 6, 8, 8), (3, 3), (1, 1), (1, 1), 6),
    ((4, 6, 8, 8), (5, 5), (1, 1), (2, 2), 6),
    ((4, 6, 8, 8), (7, 7), (1, 1), (3, 3), 6),
    ((3, 6, 9, 9), (3, 3), (2, 2), (1, 1), 3),
    ((2, 3, 8, 8), (3, 3), (1, 1), (1, 1), 1),
    ((2, 6, 10, 7), (3, 3), (2, 1), (0, 1), 2),
    ((2, 4, 1, 16), (1, 3), (1, 2), (0, 1), 4),
    ((2, 8, 6, 6), (1, 1), (1, 1), (0, 0), 2),
    ((2, 4, 6, 6), (1, 1), (2, 2), (0, 0), 4),
    ((1, 6, 8, 8), (3, 3), (1, 1), (1, 1), 6),
]


def _nhwc(array):
    """``array`` (NCHW) over channels-last memory, the layout conv outputs have."""
    return np.ascontiguousarray(array.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


class TestWeightColumns:
    """The backward re-gathers the weight gradient's columns from ``x``."""

    @pytest.mark.parametrize("shape,kernel,stride,padding,groups", WEIGHT_COLUMN_GRID)
    def test_operand_is_contiguous_gkl_with_the_columns_values(
        self, monkeypatch, shape, kernel, stride, padding, groups
    ):
        rng = np.random.default_rng(30)
        plan = get_plan(shape, kernel, stride, padding, groups)
        n = shape[0]
        length = plan.out_hw[0] * plan.out_hw[1]
        taps = (shape[1] // groups) * kernel[0] * kernel[1]
        cout = 2 * groups
        # A full batch, then an odd-sized last batch through the same plan;
        # one group per block, then the default block.
        for batch in sorted({n, max(1, n - 1)}, reverse=True):
            x = rng.normal(size=(batch,) + shape[1:])
            grad = rng.normal(size=(batch, groups, cout // groups, length))
            legacy = _legacy_columns(x, plan)
            reference = np.einsum("ngol,ngkl->gok", grad, legacy, optimize=True)
            for block_bytes in (1, plans.BLOCK_BYTES):
                monkeypatch.setattr(plans, "BLOCK_BYTES", block_bytes)
                for layout in (x, _nhwc(x)):
                    seen = 0
                    for g0, g1, block in plan.column_blocks(layout, transposed=True):
                        assert g0 == seen and g1 > g0
                        seen = g1
                        assert block.shape == (g1 - g0, taps, batch * length)
                        assert block.flags.c_contiguous
                        expected = legacy[:, g0:g1].transpose(1, 2, 0, 3)
                        assert np.array_equal(block, expected.reshape(block.shape))
                    assert seen == groups
                    assert np.array_equal(plan.grad_weight(grad, layout), reference)

    def test_conv_node_holds_no_array_larger_than_its_input(self):
        rng = np.random.default_rng(31)
        for shape, kernel, padding, groups, cout in [
            ((4, 48, 8, 8), (7, 7), (3, 3), 48, 48),
            ((4, 6, 8, 8), (3, 3), (1, 1), 1, 6),
            ((4, 6, 8, 8), (1, 1), (0, 0), 1, 12),
        ]:
            x = Tensor(rng.normal(size=shape), requires_grad=True)
            weight = Tensor(
                rng.normal(size=(cout, shape[1] // groups) + kernel), requires_grad=True
            )
            out = conv2d(x, weight, padding=padding, groups=groups)
            held = [cell.cell_contents for cell in out._backward.__closure__]
            assert all(
                value.nbytes <= x.data.nbytes
                for value in held
                if isinstance(value, np.ndarray)
            )

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_frozen_weight_backward_gathers_nothing(self, monkeypatch, dtype):
        calls = []
        for name in ("im2col", "column_blocks", "group_columns"):
            method = getattr(plans.ConvPlan, name)

            def spy(plan, *args, _name=name, _method=method, **kwargs):
                calls.append(_name)
                return _method(plan, *args, **kwargs)

            monkeypatch.setattr(plans.ConvPlan, name, spy)
        rng = np.random.default_rng(32)
        with use_dtype(dtype):
            for trainable in (False, True):
                x = Tensor(rng.normal(size=(4, 6, 8, 8)), requires_grad=True)
                weight = Tensor(rng.normal(size=(6, 1, 5, 5)), requires_grad=trainable)
                out = conv2d(x, weight, padding=2, groups=6)
                calls.clear()
                (out * out).sum().backward()
                if trainable:
                    # float64 gathers the fused operand block by block;
                    # float32 the legacy columns, block by block.
                    assert calls == ["column_blocks" if dtype == "float64" else "group_columns"]
                else:
                    assert calls == []
                assert x.grad is not None


# Blocked-lowering geometries, as (input NCHW, kernel, stride, padding,
# groups, out channels): depthwise 3/5/7, strided, (1, k) seq1d kernels, a
# grouped conv with two outputs per group, the g = 1 stem, a grouped
# pointwise (trivial) plan and batch 1.
BLOCKED_GRID = [
    ((4, 6, 8, 8), (3, 3), (1, 1), (1, 1), 6, 6),
    ((4, 6, 8, 8), (5, 5), (1, 1), (2, 2), 6, 6),
    ((4, 6, 8, 8), (7, 7), (1, 1), (3, 3), 6, 6),
    ((4, 6, 9, 9), (3, 3), (2, 2), (1, 1), 6, 6),
    ((4, 6, 1, 16), (1, 3), (1, 1), (0, 1), 6, 6),
    ((4, 6, 1, 16), (1, 5), (1, 2), (0, 2), 6, 6),
    ((4, 6, 8, 8), (3, 3), (1, 1), (1, 1), 3, 12),
    ((4, 3, 8, 8), (3, 3), (1, 1), (1, 1), 1, 8),
    ((4, 12, 4, 4), (1, 1), (1, 1), (0, 0), 6, 12),
    ((1, 6, 8, 8), (7, 7), (1, 1), (3, 3), 6, 6),
]


class TestBlockedLowering:
    """The contractions gather and contract a block of groups at a time."""

    @pytest.mark.parametrize(
        "groups_per_block", [1, 4, None], ids=["one-group", "uneven", "single-block"]
    )
    @pytest.mark.parametrize("shape,kernel,stride,padding,groups,cout", BLOCKED_GRID)
    def test_bit_identical_to_legacy_for_any_block_size(
        self, monkeypatch, shape, kernel, stride, padding, groups, cout, groups_per_block
    ):
        rng = np.random.default_rng(40)
        w_data = rng.normal(size=(cout, shape[1] // groups) + kernel)
        # A full batch, then an odd-sized last batch through the same plan.
        for batch in sorted({shape[0], max(1, shape[0] - 1)}, reverse=True):
            x_data = rng.normal(size=(batch,) + shape[1:])
            plan = get_plan(x_data.shape, kernel, stride, padding, groups)
            length = plan.out_hw[0] * plan.out_hw[1]
            taps = (shape[1] // groups) * kernel[0] * kernel[1]
            step = groups if groups_per_block is None else groups_per_block
            group_bytes = batch * length * taps * x_data.itemsize
            monkeypatch.setattr(plans, "BLOCK_BYTES", step * group_bytes)
            legacy_cols = _legacy_columns(x_data, plan)
            for layout in (x_data, _nhwc(x_data)):
                bounds = []
                for g0, g1, block in plan.column_blocks(layout, transposed=False):
                    bounds.append((g0, g1))
                    expected = legacy_cols[:, g0:g1].transpose(1, 0, 3, 2)
                    assert np.array_equal(block, expected.reshape(block.shape))
                starts = range(0, groups, step)
                assert bounds == [(g0, min(g0 + step, groups)) for g0 in starts]
                fast = _run_conv(conv2d, layout, w_data, stride, padding, groups)
                legacy = _run_conv(conv_reference.conv2d, layout, w_data, stride, padding, groups)
                for fast_arr, legacy_arr in zip(fast, legacy):
                    assert np.array_equal(fast_arr, legacy_arr)
                    assert fast_arr.strides == legacy_arr.strides

    @pytest.mark.parametrize(
        "groups_per_block", [1, 4, None], ids=["one-group", "uneven", "single-block"]
    )
    @pytest.mark.parametrize("shape,kernel,stride,padding,groups,cout", BLOCKED_GRID)
    def test_float32_blocks_make_the_whole_array_matmuls(
        self, monkeypatch, shape, kernel, stride, padding, groups, cout, groups_per_block
    ):
        """The float32 forward and weight gradient, a block of groups at a
        time, equal the whole-column batched matmuls bit for bit."""
        rng = np.random.default_rng(42)
        x_data = rng.normal(size=shape).astype(np.float32)
        plan = get_plan(shape, kernel, stride, padding, groups)
        length = plan.out_hw[0] * plan.out_hw[1]
        taps = (shape[1] // groups) * kernel[0] * kernel[1]
        step = groups if groups_per_block is None else groups_per_block
        monkeypatch.setattr(plans, "BLOCK_BYTES", step * shape[0] * length * taps * 4)
        weight = rng.normal(size=(groups, cout // groups, taps)).astype(np.float32)
        grad = rng.normal(size=(shape[0], groups, cout // groups, length)).astype(np.float32)
        cols = _legacy_columns(x_data, plan)
        for layout in (x_data, _nhwc(x_data)):
            bounds = [(g0, g1) for g0, g1, _ in plan.group_columns(layout)]
            if plan.trivial:  # the columns are a view of x: one block
                assert bounds == [(0, groups)]
            else:
                assert bounds == [(g0, min(g0 + step, groups)) for g0 in range(0, groups, step)]
            forward = plan.forward(layout, weight)
            assert forward.dtype == np.float32
            assert np.array_equal(forward, np.matmul(weight[None], cols))
            grad_weight = plan.grad_weight(grad, layout)
            assert grad_weight.dtype == np.float32
            assert np.array_equal(grad_weight, plans.grad_weight_fast(grad, cols))

    def test_depthwise_7x7_transient_is_a_block_not_the_columns(self):
        """A 7x7 depthwise conv over 48 channels at batch 32 gathered 36.8 MiB
        of columns at once; blocked, its forward + backward peak is a few
        input-sized arrays."""
        rng = np.random.default_rng(41)
        x_data = rng.normal(size=(32, 48, 8, 8))
        w_data = rng.normal(size=(48, 1, 7, 7))

        def step():
            x = Tensor(x_data, requires_grad=True)
            weight = Tensor(w_data, requires_grad=True)
            out = conv2d(x, weight, padding=3, groups=48)
            out.backward(np.ones_like(out.data))
            return x.grad, weight.grad

        step()  # build the plan outside the measurement
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_float32_depthwise_7x7_transient_is_a_block_not_the_columns(self):
        """At float32 the same conv's whole columns are 18.4 MiB; blocked, its
        forward + backward peak stays under half the float64 fence."""
        rng = np.random.default_rng(41)
        x_data = rng.normal(size=(32, 48, 8, 8)).astype(np.float32)
        w_data = rng.normal(size=(48, 1, 7, 7)).astype(np.float32)

        def step():
            x = Tensor(x_data, requires_grad=True)
            weight = Tensor(w_data, requires_grad=True)
            out = conv2d(x, weight, padding=3, groups=48)
            out.backward(np.ones_like(out.data))
            return x.grad, weight.grad

        with use_dtype("float32"):
            assert step()[1].dtype == np.float32  # and build the plan
            tracemalloc.start()
            try:
                step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 6 * 2**20
