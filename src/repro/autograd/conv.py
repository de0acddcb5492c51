"""Convolutional layers (im2col based) for the NAS supernet.

The ProxylessNAS-style search space is built from MBConv blocks (pointwise
expansion, depthwise convolution, pointwise projection).  This module
implements Conv2d (with groups, so depthwise convolution is available),
BatchNorm2d, pooling and a global-average-pool head on top of the autograd
Tensor, using im2col so the heavy lifting happens inside numpy matmuls.

Three raw-speed tiers sit on the hot path (see ``docs/performance.md``):

* **Cached index plans** — im2col/col2im *and the contractions* route
  through the :mod:`repro.autograd.plans` cache: one precomputed gather per
  forward, written straight into the layout ``matmul`` consumes, the
  ``matmul`` calls numpy's einsum would make (same operand strides, so the
  same BLAS accumulation order), and one bincount scatter-add per backward.
  All of it is bit-identical to the historical stride-trick/loop/einsum
  reference, kept below as ``_im2col``/``_col2im`` and the einsum fallbacks
  of the ``*_contract`` helpers: the plans-disabled lowering, the parity
  oracle of the tests.  1x1/stride-1/pad-0 geometries use zero-copy trivial
  plans.
* **Precision policy** — kernels compute in the tensors' dtype (the
  :mod:`repro.autograd.precision` policy).  At the float64 default the
  contractions round exactly as the legacy einsums; under the opt-in
  float32 training policy they switch to the faster batched-``matmul``
  forms, which are tolerance-equal, not bit-equal — acceptable by
  construction, since float32 training is itself a tolerance regime.
* **Batch threading** — ``REPRO_NUM_THREADS=N`` chunks the conv2d batch axis
  over a thread pool (:mod:`repro.autograd.parallel`); off by default.

Data layout is NCHW throughout.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.autograd import init
from repro.autograd.module import Module, Parameter
from repro.autograd.parallel import batch_spans, get_pool, num_threads
from repro.autograd.plans import ConvPlan, get_plan, plans_enabled
from repro.autograd.precision import is_fast_dtype
from repro.autograd.tensor import Tensor, as_tensor
from repro.utils.seeding import as_rng


def _pair(value: Union[int, Tuple[int, int]]) -> Tuple[int, int]:
    if isinstance(value, tuple):
        # Coerce the elements too: numpy integer scalars (e.g. from an
        # indexed shape array) must not leak into shapes and plan-cache keys.
        return (int(value[0]), int(value[1]))
    return (int(value), int(value))


def _im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], padding: Tuple[int, int]
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``x`` (N, C, H, W) into columns of shape (N, C*kh*kw, out_h*out_w).

    Stride-trick reference implementation: the plan cache's gather produces
    bit-identical columns (asserted by tests/test_conv_plans.py); this stays
    as the plans-disabled fallback and the benchmark "before" baseline.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    # (n, c, H', W', kh, kw) view over every kernel window, then keep one
    # window per stride step; no data is copied until the final reshape.
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::sh, ::sw, :, :]
    cols = windows.transpose(0, 1, 4, 5, 2, 3)
    return cols.reshape(n, c * kh * kw, out_h * out_w), (out_h, out_w)


def _col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_hw: Tuple[int, int],
) -> np.ndarray:
    """Fold columns back into an image, accumulating overlapping contributions.

    Loop-based reference implementation (one strided add per kernel offset);
    the plan cache's bincount scatter is the fast path and adds each pixel's
    contributions in the same (i, j) order, so the two are bit-identical.
    """
    n, c, h, w = input_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h, out_w = out_hw
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            padded[:, :, i:i_end:sh, j:j_end:sw] += cols[:, :, i, j, :, :]
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph : ph + h, pw : pw + w]


# ----------------------------------------------------------------------
# Lowering helpers: plan-routed with stride-trick/loop fallbacks
# ----------------------------------------------------------------------
def _lower(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    groups: int = 1,
) -> Tuple[np.ndarray, Tuple[int, int], Optional[ConvPlan]]:
    """im2col via the cached plan (or the stride-trick path when disabled)."""
    if plans_enabled():
        plan = get_plan(x.shape, kernel, stride, padding, groups)
        return plan.im2col(x), plan.out_hw, plan
    cols, out_hw = _im2col(x, kernel, stride, padding)
    return cols, out_hw, None


def _fold(
    grad_cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_hw: Tuple[int, int],
    plan: Optional[ConvPlan],
) -> np.ndarray:
    """col2im via the plan's scatter-add (or the loop path when disabled)."""
    if plan is not None:
        return plan.col2im(grad_cols)
    return _col2im(grad_cols, input_shape, kernel, stride, padding, out_hw)


# ----------------------------------------------------------------------
# Grouped contractions: plan-routed at float64, float32 matmul fast paths
# ----------------------------------------------------------------------
def _forward_contract(weight_grouped: np.ndarray, cols_grouped: np.ndarray) -> np.ndarray:
    """(g, o, k) x (n, g, k, l) -> (n, g, o, l) over legacy-layout columns."""
    if is_fast_dtype(weight_grouped, cols_grouped):
        return np.matmul(weight_grouped[None], cols_grouped)
    return np.einsum("gok,ngkl->ngol", weight_grouped, cols_grouped, optimize=True)


def _grad_weight_contract(
    grad_grouped: np.ndarray,
    cols_grouped: np.ndarray,
    plan: Optional[ConvPlan] = None,
) -> np.ndarray:
    """(n, g, o, l) x (n, g, k, l) -> (g, o, k).

    Columns a plan gathered go back through that plan's
    :meth:`ConvPlan.grad_weight`, whatever their layout; the historical
    expressions below serve the plans-disabled lowering.
    """
    if plan is not None:
        return plan.grad_weight(grad_grouped, cols_grouped)
    if is_fast_dtype(grad_grouped, cols_grouped):
        return np.matmul(grad_grouped, np.swapaxes(cols_grouped, -1, -2)).sum(axis=0)
    return np.einsum("ngol,ngkl->gok", grad_grouped, cols_grouped, optimize=True)


def _grad_cols_contract(
    weight_grouped: np.ndarray,
    grad_grouped: np.ndarray,
    plan: Optional[ConvPlan] = None,
) -> np.ndarray:
    """(g, o, k) x (n, g, o, l) -> (n, g, k, l)."""
    if weight_grouped.shape[1] == 1:
        # Depthwise (one output channel per group): the o-contraction has a
        # single term, so it is an outer product — one rounding per element,
        # bit-identical however it is computed — and a broadcast multiply
        # beats both einsum and batched matmul.  Safe at float64.
        return np.swapaxes(weight_grouped, -1, -2)[None] * grad_grouped
    if is_fast_dtype(weight_grouped, grad_grouped):
        return np.matmul(np.swapaxes(weight_grouped, -1, -2)[None], grad_grouped)
    if plan is not None:
        return plan.grad_columns(weight_grouped, grad_grouped)
    return np.einsum("gok,ngol->ngkl", weight_grouped, grad_grouped, optimize=True)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: Union[int, Tuple[int, int]] = 1,
    padding: Union[int, Tuple[int, int]] = 0,
    groups: int = 1,
) -> Tensor:
    """Functional grouped 2-D convolution over NCHW input.

    ``weight`` has shape ``(out_channels, in_channels // groups, kh, kw)``
    and may be any autograd tensor — in particular a runtime concatenation
    of several layers' parameters, which is how the supernet's fused
    mixed-operation path evaluates all candidates of one position in a
    single batched contraction.  :class:`Conv2d` delegates here, so the
    module and functional forms share one float path.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    if x.ndim != 4:
        raise ValueError(f"conv2d expects NCHW input, got shape {x.shape}")
    kernel = (int(weight.shape[2]), int(weight.shape[3]))
    stride = _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape
    out_channels = weight.shape[0]
    if c != weight.shape[1] * groups:
        raise ValueError(
            f"expected {weight.shape[1] * groups} input channels, got {c}"
        )

    kh, kw = kernel
    group_in = c // groups
    group_out = out_channels // groups
    weight_grouped = weight.data.reshape(groups, group_out, group_in * kh * kw)

    spans = batch_spans(n, num_threads()) if n > 1 else [(0, n)]
    if len(spans) > 1:
        return _conv2d_threaded(
            x, weight, bias, stride, padding, groups, kernel, weight_grouped, spans
        )

    # One batched contraction over a groups axis replaces the per-group loop;
    # with groups == 1 this degenerates to the plain im2col matmul.
    if plans_enabled() and not is_fast_dtype(weight_grouped, x.data):
        plan = get_plan(x.shape, kernel, stride, padding, groups)
        out_h, out_w = plan.out_hw
        cols_grouped = plan.columns(x.data)
        out = plan.forward(cols_grouped, weight_grouped)
    else:
        cols, (out_h, out_w), plan = _lower(x.data, kernel, stride, padding, groups)
        cols_grouped = cols.reshape(n, groups, group_in * kh * kw, out_h * out_w)
        out = _forward_contract(weight_grouped, cols_grouped)
    out_data = out.reshape(n, out_channels, out_h, out_w)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, -1, 1, 1)
    compute_dtype = out_data.dtype

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=compute_dtype).reshape(n, out_channels, out_h * out_w)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))
        grad_grouped = grad.reshape(n, groups, group_out, out_h * out_w)
        if weight.requires_grad:
            grad_w = _grad_weight_contract(grad_grouped, cols_grouped, plan)
            weight._accumulate(grad_w.reshape(weight.data.shape))
        if x.requires_grad:
            if plan is not None and group_in == 1 and group_out == 1:
                # Depthwise: fold the outer-product column gradient without
                # materialising it (bit-identical, see ConvPlan.col2im_outer).
                x._accumulate(
                    plan.col2im_outer(
                        weight_grouped.reshape(groups, kh * kw),
                        grad_grouped.reshape(n, groups, out_h * out_w),
                    )
                )
                return
            grad_cols = _grad_cols_contract(weight_grouped, grad_grouped, plan)
            grad_cols_flat = grad_cols.reshape(n, c * kh * kw, out_h * out_w)
            x._accumulate(
                _fold(grad_cols_flat, (n, c, h, w), kernel, stride, padding, (out_h, out_w), plan)
            )

    parents = (x, weight) + ((bias,) if bias is not None else ())
    return Tensor._make(out_data, parents, backward)


def _conv2d_threaded(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    groups: int,
    kernel: Tuple[int, int],
    weight_grouped: np.ndarray,
    spans: List[Tuple[int, int]],
) -> Tensor:
    """conv2d with the batch axis chunked over the shared thread pool.

    Per-sample results (activations, input gradient) are bit-identical to
    the serial path; the weight gradient sums per-chunk partials in
    ascending chunk order, which is deterministic for a fixed
    ``REPRO_NUM_THREADS`` but rounds differently from the serial single
    contraction (see :mod:`repro.autograd.parallel`).
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    out_channels = weight.shape[0]
    group_in = c // groups
    group_out = out_channels // groups
    pool = get_pool(len(spans))

    def forward_chunk(span: Tuple[int, int]):
        start, stop = span
        cols, out_hw, plan = _lower(x.data[start:stop], kernel, stride, padding, groups)
        cols_grouped = cols.reshape(
            stop - start, groups, group_in * kh * kw, out_hw[0] * out_hw[1]
        )
        return _forward_contract(weight_grouped, cols_grouped), cols_grouped, plan, out_hw

    chunk_results = list(pool.map(forward_chunk, spans))
    out_h, out_w = chunk_results[0][3]
    out_data = np.concatenate([chunk[0] for chunk in chunk_results], axis=0).reshape(
        n, out_channels, out_h, out_w
    )
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, -1, 1, 1)
    compute_dtype = out_data.dtype

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=compute_dtype).reshape(n, out_channels, out_h * out_w)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))
        grad_grouped = grad.reshape(n, groups, group_out, out_h * out_w)
        need_weight = weight.requires_grad
        need_input = x.requires_grad
        if not (need_weight or need_input):
            return

        def backward_chunk(index: int):
            start, stop = spans[index]
            _, cols_grouped, plan, _ = chunk_results[index]
            chunk_grad = grad_grouped[start:stop]
            grad_w = (
                _grad_weight_contract(chunk_grad, cols_grouped, plan) if need_weight else None
            )
            grad_x = None
            if need_input:
                if plan is not None and c == groups and out_channels == groups:
                    grad_x = plan.col2im_outer(
                        weight_grouped.reshape(groups, kh * kw),
                        chunk_grad.reshape(stop - start, groups, out_h * out_w),
                    )
                else:
                    grad_cols = _grad_cols_contract(weight_grouped, chunk_grad)
                    grad_cols_flat = grad_cols.reshape(
                        stop - start, c * kh * kw, out_h * out_w
                    )
                    grad_x = _fold(
                        grad_cols_flat,
                        (stop - start, c, h, w),
                        kernel,
                        stride,
                        padding,
                        (out_h, out_w),
                        plan,
                    )
            return grad_w, grad_x

        pieces = list(pool.map(backward_chunk, range(len(spans))))
        if need_weight:
            grad_w_total = pieces[0][0]
            for grad_w, _ in pieces[1:]:
                grad_w_total = grad_w_total + grad_w
            weight._accumulate(grad_w_total.reshape(weight.data.shape))
        if need_input:
            x._accumulate(np.concatenate([piece[1] for piece in pieces], axis=0))

    parents = (x, weight) + ((bias,) if bias is not None else ())
    return Tensor._make(out_data, parents, backward)


class Conv2d(Module):
    """2-D convolution with optional grouping (``groups=in_channels`` = depthwise)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: Union[int, Tuple[int, int]],
        stride: Union[int, Tuple[int, int]] = 1,
        padding: Union[int, Tuple[int, int]] = 0,
        groups: int = 1,
        bias: bool = True,
        rng: Optional[Union[int, np.random.Generator]] = None,
    ) -> None:
        super().__init__()
        if in_channels % groups != 0 or out_channels % groups != 0:
            raise ValueError("in_channels and out_channels must be divisible by groups")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        self.groups = groups
        generator = as_rng(rng)
        kh, kw = self.kernel_size
        fan_in = (in_channels // groups) * kh * kw
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels // groups, kh, kw), fan_in=fan_in, rng=generator),
            name="weight",
        )
        if bias:
            bound = 1.0 / np.sqrt(fan_in)
            self.bias: Optional[Parameter] = Parameter(
                generator.uniform(-bound, bound, size=(out_channels,)), name="bias"
            )
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        return conv2d(
            x,
            self.weight,
            bias=self.bias,
            stride=self.stride,
            padding=self.padding,
            groups=self.groups,
        )


def batchnorm_affine(
    x: Tensor, mean: Tensor, var: Tensor, scale: Tensor, shift: Tensor, eps: float
) -> Tensor:
    """The batch-norm normalisation expression, shared by every BN path.

    :class:`BatchNorm2d` and the supernet's fused mixed-op batch norm both
    call this, so the two float paths cannot drift apart.
    """
    normalised = (x - mean) / (var + eps) ** 0.5
    return normalised * scale + shift


def batch_moments(x: Tensor, axes: Tuple[int, ...]) -> Tuple[Tensor, Tensor]:
    """Per-channel batch mean and (biased) variance over ``axes``."""
    mean = x.mean(axis=axes, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=axes, keepdims=True)
    return mean, var


def batchnorm_train_fused(
    x: Tensor,
    scale: Tensor,
    shift: Tensor,
    axes: Tuple[int, ...],
    eps: float,
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Training-mode batch norm as one fused autograd node (float32 fast path).

    The graph path (``batch_moments`` + ``batchnorm_affine``) builds ~10
    intermediate nodes whose backward re-materialises the centred input
    several times.  This node computes the standard closed-form batch-norm
    backward instead::

        dx = inv_std * (dy*s - mean(dy*s) - x_hat * mean(dy*s * x_hat))

    with gradients for ``scale``/``shift`` reduced over ``axes``.  The
    gradient *through the batch statistics* is included, exactly as in the
    graph path — only the rounding order differs, which is why this form is
    reserved for the float32 tolerance regime (callers keep the graph
    expression verbatim at float64; see :func:`repro.autograd.precision.is_fast_dtype`).

    Returns ``(out, batch_mean, batch_var)`` — the statistics as plain
    keepdims-shaped arrays for the callers' running-buffer updates.
    """
    data = x.data
    mean = data.mean(axis=axes, keepdims=True)
    centered = data - mean
    var = (centered * centered).mean(axis=axes, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std
    out_data = x_hat * scale.data + shift.data

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=out_data.dtype)
        if shift.requires_grad:
            shift._accumulate(grad.sum(axis=axes, keepdims=True).reshape(shift.data.shape))
        if scale.requires_grad:
            scale._accumulate(
                (grad * x_hat).sum(axis=axes, keepdims=True).reshape(scale.data.shape)
            )
        if x.requires_grad:
            d_xhat = grad * scale.data
            d_xhat_mean = d_xhat.mean(axis=axes, keepdims=True)
            proj = (d_xhat * x_hat).mean(axis=axes, keepdims=True)
            x._accumulate(inv_std * (d_xhat - d_xhat_mean - x_hat * proj))

    out = Tensor._make(out_data, (x, scale, shift), backward)
    return out, mean, var


class BatchNorm2d(Module):
    """Batch normalisation over the channel dimension of NCHW inputs."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.weight = Parameter(init.ones((num_features,)), name="weight")
        self.bias = Parameter(init.zeros((num_features,)), name="bias")
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))
        self._eval_stats_cache: Optional[Tuple[Tensor, Tensor]] = None

    def update_running(self, batch_mean: np.ndarray, batch_var: np.ndarray) -> None:
        """Momentum-blend one batch's statistics into the running buffers."""
        self._buffers["running_mean"][...] = (
            (1 - self.momentum) * self._buffers["running_mean"] + self.momentum * batch_mean
        )
        self._buffers["running_var"][...] = (
            (1 - self.momentum) * self._buffers["running_var"] + self.momentum * batch_var
        )

    def _eval_stats(self) -> Tuple[Tensor, Tensor]:
        """Cached ``(1, C, 1, 1)`` views of the running statistics.

        The cached tensors *view* the registered buffers, so in-place updates
        (``update_running``, ``load_state_dict``) are reflected without any
        invalidation; the cache only rebuilds if a buffer array is replaced
        wholesale (``register_buffer``) or the precision policy changed the
        view into a copy.
        """
        mean_buf = self._buffers["running_mean"]
        var_buf = self._buffers["running_var"]
        cache = self._eval_stats_cache
        if (
            cache is None
            or cache[0].data.base is not mean_buf
            or cache[1].data.base is not var_buf
        ):
            cache = (
                Tensor(mean_buf.reshape(1, -1, 1, 1)),
                Tensor(var_buf.reshape(1, -1, 1, 1)),
            )
            self._eval_stats_cache = cache
        return cache

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        x = as_tensor(x)
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got shape {x.shape}")
        scale = self.weight.reshape(1, self.num_features, 1, 1)
        shift = self.bias.reshape(1, self.num_features, 1, 1)
        if self.training:
            if is_fast_dtype(x.data):
                out, batch_mean, batch_var = batchnorm_train_fused(
                    x, scale, shift, (0, 2, 3), self.eps
                )
                self.update_running(batch_mean.reshape(-1), batch_var.reshape(-1))
                return out
            mean, var = batch_moments(x, (0, 2, 3))
            self.update_running(mean.data.reshape(-1), var.data.reshape(-1))
        else:
            mean, var = self._eval_stats()
        return batchnorm_affine(x, mean, var, scale, shift, self.eps)


class AvgPool2d(Module):
    """Average pooling with square windows."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else int(kernel_size)

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        x = as_tensor(x)
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        out_h = (h - k) // s + 1
        out_w = (w - k) // s + 1
        cols, _, plan = _lower(x.data, (k, k), (s, s), (0, 0))
        cols = cols.reshape(n, c, k * k, out_h * out_w)
        out_data = cols.mean(axis=2).reshape(n, c, out_h, out_w)
        compute_dtype = out_data.dtype

        def backward(grad: np.ndarray) -> None:
            if not x.requires_grad:
                return
            grad = np.asarray(grad, dtype=compute_dtype).reshape(n, c, 1, out_h * out_w)
            grad_cols = np.broadcast_to(grad / (k * k), (n, c, k * k, out_h * out_w))
            grad_cols = grad_cols.reshape(n, c * k * k, out_h * out_w)
            x._accumulate(
                _fold(grad_cols, (n, c, h, w), (k, k), (s, s), (0, 0), (out_h, out_w), plan)
            )

        return Tensor._make(out_data, (x,), backward)


class GlobalAvgPool2d(Module):
    """Average over the spatial dimensions, producing an (N, C) tensor."""

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        x = as_tensor(x)
        if x.ndim != 4:
            raise ValueError(f"GlobalAvgPool2d expects NCHW input, got shape {x.shape}")
        return x.mean(axis=(2, 3))
