"""Parity and cache tests for the cached convolution plans.

The plan tier (gather im2col, bincount-scatter col2im, fused depthwise
fold) must be *bit-identical* to the legacy stride-trick/loop lowering at
float64 — that invariant is what lets the fast path ship without touching a
single golden result.  These tests sweep the geometry grid the search space
actually uses (kernel x stride x padding x groups, including the height-1
sequence-task shapes) and assert exact equality of activations and every
gradient; float32 runs the same graphs and is checked to tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import plans, use_dtype
from repro.autograd.conv import AvgPool2d, _col2im, _im2col, conv2d
from repro.autograd.parallel import batch_spans, num_threads
from repro.autograd.plans import clear_plan_cache, get_plan, plan_cache_info, set_plans_enabled
from repro.autograd.tensor import Tensor
from repro.nas.operations import MBConvOp, fused_mbconv_group


@pytest.fixture(autouse=True)
def _fresh_plan_state():
    """Each test starts with an empty cache and the tier enabled."""
    clear_plan_cache()
    previous = set_plans_enabled(True)
    yield
    set_plans_enabled(previous)
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
# pin the layout rule of ``ConvPlan.fuses_columns``.
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


def _run_conv(x_data, w_data, stride, padding, groups, enabled, with_bias=True):
    previous = set_plans_enabled(enabled)
    try:
        x = Tensor(x_data, requires_grad=True)
        weight = Tensor(w_data, requires_grad=True)
        bias_data = np.linspace(-1.0, 1.0, w_data.shape[0])
        bias = Tensor(bias_data, requires_grad=True) if with_bias else None
        out = conv2d(x, weight, bias=bias, stride=stride, padding=padding, groups=groups)
        (out * out).sum().backward()
        grads = (x.grad, weight.grad) + ((bias.grad,) if with_bias else ())
        return (out.data,) + grads
    finally:
        set_plans_enabled(previous)


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
    fast = _run_conv(x_data, w_data, stride, padding, groups, enabled=True, with_bias=bias)
    legacy = _run_conv(x_data, w_data, stride, padding, groups, enabled=False, with_bias=bias)
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
        fast = _run_conv(x_data, w_data, stride, padding, groups, enabled=True)
        legacy = _run_conv(x_data, w_data, stride, padding, groups, enabled=False)
    for fast_arr, legacy_arr in zip(fast, legacy):
        assert fast_arr.dtype == np.float32
        np.testing.assert_allclose(fast_arr, legacy_arr, rtol=1e-4, atol=1e-4)


def test_im2col_gather_bit_identical_to_stride_trick():
    rng = np.random.default_rng(3)
    for shape, kernel, stride, padding, _ in PARITY_GRID:
        x = rng.normal(size=shape)
        plan = get_plan(shape, kernel, stride, padding)
        cols_ref, out_hw = _im2col(x, kernel, stride, padding)
        assert plan.out_hw == out_hw
        assert np.array_equal(plan.im2col(x), cols_ref)


def test_col2im_scatter_bit_identical_to_loop():
    rng = np.random.default_rng(4)
    for shape, kernel, stride, padding, _ in PARITY_GRID:
        plan = get_plan(shape, kernel, stride, padding)
        length = plan.out_hw[0] * plan.out_hw[1]
        cols = rng.normal(size=(shape[0], shape[1] * kernel[0] * kernel[1], length))
        reference = _col2im(cols, shape, kernel, stride, padding, plan.out_hw)
        assert np.array_equal(plan.col2im(cols), reference)


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


def test_grad_weight_float64_bit_identical_to_einsum():
    """The plan-tier weight gradient rounds exactly as the legacy einsum at float64."""
    rng = np.random.default_rng(12)
    for shape, kernel, stride, padding, groups in PARITY_GRID:
        n, cin = shape[0], shape[1]
        cout = cin if groups == cin else 2 * groups
        plan = get_plan(shape, kernel, stride, padding)
        length = plan.out_hw[0] * plan.out_hw[1]
        taps = (cin // groups) * kernel[0] * kernel[1]
        cols = rng.normal(size=(n, groups, taps, length))
        grad = rng.normal(size=(n, groups, cout // groups, length))
        reference = np.einsum("ngol,ngkl->gok", grad, cols, optimize=True)
        assert np.array_equal(plan.grad_weight(grad, cols), reference)


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
    plan = get_plan(shape, kernel, stride, padding)
    length = plan.out_hw[0] * plan.out_hw[1]
    cols = rng.normal(size=(2, groups, kernel[0] * kernel[1], length)).astype(np.float32)
    grad = rng.normal(size=(2, groups, 1, length)).astype(np.float32)
    fast = plan.grad_weight(grad, cols)
    reference = np.einsum("ngol,ngkl->gok", grad, cols, optimize=True)
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
        cols_ref, _ = _im2col(x, (1, 1), (1, 1), (0, 0))
        assert np.array_equal(cols, cols_ref)

    def test_trivial_im2col_handles_non_contiguous_input(self):
        base = np.random.default_rng(15).normal(size=(2, 8, 8, 4))
        x = base.transpose(0, 3, 1, 2)  # non-contiguous NCHW view
        plan = get_plan(x.shape, (1, 1), (1, 1), (0, 0))
        cols_ref, _ = _im2col(x, (1, 1), (1, 1), (0, 0))
        assert np.array_equal(plan.im2col(x), cols_ref)

    def test_trivial_col2im_is_the_inverse_reshape(self):
        rng = np.random.default_rng(16)
        plan = get_plan((3, 5, 6, 7), (1, 1), (1, 1), (0, 0))
        cols = rng.normal(size=(3, 5, 42))
        reference = _col2im(cols, (3, 5, 6, 7), (1, 1), (1, 1), (0, 0), (6, 7))
        assert np.array_equal(plan.col2im(cols), reference)


class TestKillSwitch:
    """``plans_enabled`` must disable every plan route, including mid-run."""

    GEOMETRY = ((3, 6, 8, 8), (3, 3), (1, 1), (1, 1), 3)

    def test_flip_between_forward_and_backward_bit_identical(self):
        shape, kernel, stride, padding, groups = self.GEOMETRY
        rng = np.random.default_rng(17)
        cin = shape[1]
        x_data = rng.normal(size=shape)
        w_data = rng.normal(size=(2 * groups, cin // groups, kernel[0], kernel[1]))
        legacy = _run_conv(x_data, w_data, stride, padding, groups, enabled=False)

        set_plans_enabled(True)
        x = Tensor(x_data, requires_grad=True)
        weight = Tensor(w_data, requires_grad=True)
        bias = Tensor(np.linspace(-1.0, 1.0, w_data.shape[0]), requires_grad=True)
        out = conv2d(x, weight, bias=bias, stride=stride, padding=padding, groups=groups)
        set_plans_enabled(False)  # flip mid-run: backward must not regress
        (out * out).sum().backward()

        for flipped, reference in zip((out.data, x.grad, weight.grad, bias.grad), legacy):
            assert np.array_equal(flipped, reference)

    def test_disabled_tier_never_builds_plans(self):
        shape, kernel, stride, padding, groups = self.GEOMETRY
        rng = np.random.default_rng(18)
        x_data = rng.normal(size=shape)
        w_data = rng.normal(size=(2 * groups, shape[1] // groups, kernel[0], kernel[1]))
        _run_conv(x_data, w_data, stride, padding, groups, enabled=False)
        assert plan_cache_info() == {"size": 0, "hits": 0, "misses": 0}


def _fused_group_run(x_data, enabled):
    """One fused two-candidate MBConv group forward+backward under a setting."""
    previous = set_plans_enabled(enabled)
    try:
        modules = [
            MBConvOp(4, 4, kernel_size=3, expansion=3, stride=1, rng=21),
            MBConvOp(4, 4, kernel_size=5, expansion=3, stride=1, rng=22),
        ]
        x = Tensor(x_data, requires_grad=True)
        out = fused_mbconv_group(x, modules)
        (out * out).sum().backward()
        grads = [x.grad]
        for module in modules:
            grads.extend(
                [
                    module.expand[0].weight.grad,
                    module.depthwise[0].weight.grad,
                    module.project[0].weight.grad,
                    module.expand[1].weight.grad,
                    module.project[1].bias.grad,
                ]
            )
        buffers = [module.expand[1]._buffers["running_mean"] for module in modules]
        return [out.data] + grads + buffers
    finally:
        set_plans_enabled(previous)


class TestFusedMixedOpPlans:
    def test_fused_group_plan_path_bit_identical_to_legacy(self):
        x_data = np.random.default_rng(19).normal(size=(2, 4, 8, 8))
        fast = _fused_group_run(x_data, enabled=True)
        legacy = _fused_group_run(x_data, enabled=False)
        assert len(fast) == len(legacy)
        for fast_arr, legacy_arr in zip(fast, legacy):
            assert np.array_equal(fast_arr, legacy_arr)

    def test_fused_group_reuses_cached_plans_across_steps(self):
        x_data = np.random.default_rng(20).normal(size=(2, 4, 8, 8))
        modules = [
            MBConvOp(4, 4, kernel_size=3, expansion=3, stride=1, rng=23),
            MBConvOp(4, 4, kernel_size=5, expansion=3, stride=1, rng=24),
        ]
        clear_plan_cache()
        out = fused_mbconv_group(Tensor(x_data, requires_grad=True), modules)
        (out * out).sum().backward()
        first = plan_cache_info()
        assert first["misses"] > 0
        # A second step over the same geometry must be all cache hits.
        out = fused_mbconv_group(Tensor(x_data, requires_grad=True), modules)
        (out * out).sum().backward()
        second = plan_cache_info()
        assert second["misses"] == first["misses"]
        assert second["hits"] > first["hits"]
        assert second["size"] == first["size"]


def test_avgpool_plan_parity():
    rng = np.random.default_rng(6)
    pool = AvgPool2d(2)
    x_data = rng.normal(size=(2, 3, 8, 8))
    outputs = []
    for enabled in (True, False):
        set_plans_enabled(enabled)
        x = Tensor(x_data, requires_grad=True)
        out = pool(x)
        out.sum().backward()
        outputs.append((out.data, x.grad))
    for fast_arr, legacy_arr in zip(*outputs):
        assert np.array_equal(fast_arr, legacy_arr)


class TestPlanCache:
    def test_plans_are_reused_across_calls_and_batch_sizes(self):
        get_plan((4, 3, 8, 8), (3, 3), (1, 1), (1, 1))
        get_plan((4, 3, 8, 8), (3, 3), (1, 1), (1, 1))
        # The batch size is not part of the key: a final odd-sized batch or
        # a threaded chunk reuses its full-batch geometry's plan.
        get_plan((1, 3, 8, 8), (3, 3), (1, 1), (1, 1))
        info = plan_cache_info()
        assert info == {"size": 1, "hits": 2, "misses": 1}

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

    def test_disable_toggle_returns_previous_state(self):
        assert set_plans_enabled(False) is True
        assert set_plans_enabled(True) is False


class TestThreadedBatch:
    def test_batch_spans_partition_and_determinism(self):
        spans = batch_spans(10, 4)
        assert spans == [(0, 3), (3, 6), (6, 8), (8, 10)]
        assert batch_spans(10, 4) == spans
        assert batch_spans(2, 8) == [(0, 1), (1, 2)]
        assert batch_spans(5, 1) == [(0, 5)]

    def test_num_threads_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        assert num_threads() == 1
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert num_threads() == 3
        monkeypatch.setenv("REPRO_NUM_THREADS", "zero")
        with pytest.raises(ValueError):
            num_threads()
        monkeypatch.setenv("REPRO_NUM_THREADS", "0")
        with pytest.raises(ValueError):
            num_threads()

    def test_threaded_conv_matches_serial(self, monkeypatch):
        rng = np.random.default_rng(9)
        x_data = rng.normal(size=(7, 6, 8, 8))
        w_data = rng.normal(size=(12, 6, 3, 3))

        def run():
            x = Tensor(x_data, requires_grad=True)
            weight = Tensor(w_data, requires_grad=True)
            out = conv2d(x, weight, stride=1, padding=1)
            (out * out).sum().backward()
            return out.data, x.grad, weight.grad

        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        serial_out, serial_gx, serial_gw = run()
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        threaded_out, threaded_gx, threaded_gw = run()
        # Per-sample quantities are bit-identical; the weight gradient sums
        # per-chunk partials (deterministic order, different rounding).
        assert np.array_equal(serial_out, threaded_out)
        assert np.array_equal(serial_gx, threaded_gx)
        np.testing.assert_allclose(serial_gw, threaded_gw, rtol=1e-10)

    def test_threaded_depthwise_uses_fused_fold(self, monkeypatch):
        rng = np.random.default_rng(10)
        x_data = rng.normal(size=(5, 8, 8, 8))
        w_data = rng.normal(size=(8, 1, 5, 5))

        def run():
            x = Tensor(x_data, requires_grad=True)
            out = conv2d(x, Tensor(w_data), stride=1, padding=2, groups=8)
            out.backward(np.ones_like(out.data))
            return out.data, x.grad

        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        serial = run()
        monkeypatch.setenv("REPRO_NUM_THREADS", "2")
        threaded = run()
        assert np.array_equal(serial[0], threaded[0])
        assert np.array_equal(serial[1], threaded[1])
