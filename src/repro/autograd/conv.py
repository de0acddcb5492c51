"""Convolutional layers (im2col based) for the NAS supernet.

The ProxylessNAS-style search space is built from MBConv blocks (pointwise
expansion, depthwise convolution, pointwise projection).  This module
implements Conv2d (with groups, so depthwise convolution is available),
BatchNorm2d, pooling and a global-average-pool head on top of the autograd
Tensor, using im2col so the heavy lifting happens inside numpy matmuls.

Every convolution and pooling window lowers through the cached
:mod:`repro.autograd.plans` tier (see ``docs/performance.md``): one
precomputed gather per cache-sized block of groups, written straight into
the layout ``matmul`` consumes, the ``matmul`` calls numpy's einsum would
make (same operand strides, so the same BLAS accumulation order), and one
bincount scatter-add (or, for depthwise layers, a fused tap-by-tap fold)
per backward.  At the float64 default this is bit-identical to the
historical stride-trick/loop/einsum lowering, which survives only as the
parity oracle of the tests (``tests/conv_reference.py``).
1x1/stride-1/pad-0 geometries use zero-copy trivial plans.

Kernels compute in the tensors' dtype (the :mod:`repro.autograd.precision`
policy).  Under the opt-in float32 training policy the forward and column
gradient contractions are batched ``matmul`` calls over the plan's legacy
column layout instead — tolerance-equal, not bit-equal, which is the float32
regime's contract.

Data layout is NCHW throughout.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.autograd import init
from repro.autograd.module import Module, Parameter
from repro.autograd.plans import get_plan
from repro.autograd.precision import default_dtype, is_fast_dtype
from repro.autograd.tensor import Tensor, _unbroadcast, as_tensor
from repro.utils.seeding import as_rng


def _pair(value: Union[int, Tuple[int, int]]) -> Tuple[int, int]:
    if isinstance(value, tuple):
        # Coerce the elements too: numpy integer scalars (e.g. from an
        # indexed shape array) must not leak into shapes and plan-cache keys.
        return (int(value[0]), int(value[1]))
    return (int(value), int(value))


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
    and may be any autograd tensor.  :class:`Conv2d` delegates here, so the
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

    # One batched contraction over a groups axis replaces the per-group loop;
    # with groups == 1 this degenerates to the plain im2col matmul.  The
    # forward gathers the columns a block of groups at a time and keeps
    # none: only a trainable weight's gradient reads them, and it
    # gathers them again from ``x``.
    plan = get_plan(x.shape, kernel, stride, padding, groups)
    out_h, out_w = plan.out_hw
    out_data = plan.forward(x.data, weight_grouped).reshape(n, out_channels, out_h, out_w)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, -1, 1, 1)
    compute_dtype = out_data.dtype

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=compute_dtype).reshape(n, out_channels, out_h * out_w)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))
        grad_grouped = grad.reshape(n, groups, group_out, out_h * out_w)
        weight_grouped = weight.data.reshape(groups, group_out, group_in * kh * kw)
        if weight.requires_grad:
            grad_w = plan.grad_weight(grad_grouped, x.data)
            weight._accumulate(grad_w.reshape(weight.data.shape))
        if x.requires_grad:
            if group_in == 1 and group_out == 1:
                # Depthwise: fold the outer-product column gradient without
                # materialising it (bit-identical, see ConvPlan.col2im_outer).
                x._accumulate(
                    plan.col2im_outer(
                        weight_grouped.reshape(groups, kh * kw),
                        grad_grouped.reshape(n, groups, out_h * out_w),
                    )
                )
                return
            grad_cols = plan.grad_columns(weight_grouped, grad_grouped)
            x._accumulate(plan.col2im(grad_cols.reshape(n, c * kh * kw, out_h * out_w)))

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


def batchnorm_train_fused(
    x: Tensor,
    scale: Tensor,
    shift: Tensor,
    axes: Tuple[int, ...],
    eps: float,
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Training-mode batch norm as one fused autograd node (float32 fast path).

    The graph path (the float64 expressions of ``BatchNorm1d``/``BatchNorm2d``)
    builds ~10 intermediate nodes whose backward re-materialises the centred input
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
    dtype = out_data.dtype

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=dtype)
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


def batchnorm2d_train(
    x: Tensor, weight: Tensor, bias: Tensor, eps: float
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Training-mode float64 batch norm over NCHW as one autograd node.

    This is the graph expression::

        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
        out = (x - mean) / (var + eps) ** 0.5 * scale + shift

    where ``scale`` and ``shift`` are ``weight`` and ``bias`` reshaped to
    ``(1, C, 1, 1)``.  The expression is kept as the test oracle
    ``tests/batchnorm_reference.py``; this node computes it without the
    graph's 16 nodes and five full-size intermediates, keeping only
    ``centered`` alive until backward: a trainable weight's gradient
    recomputes ``normalised = centered / std``, the forward's own operation
    on the same operands, so the same bits.

    Bit-identity: the forward makes the graph's operations on the same
    operands, and the backward makes the operations the graph's nodes make,
    in the order ``Tensor.backward``'s depth-first walk runs them.  Each
    full-size gradient that a graph node received first is a C-order
    ``.copy()`` in the graph (``Tensor._accumulate``), so the backward puts
    it in C order too (``np.ascontiguousarray``) before anything reads it.
    Reductions round in memory order, and a conv output is an NCHW view over
    NHWC memory, so without these layouts the sums change in the last ulp.
    ``x`` receives the graph's three contributions as three accumulations,
    in the walk's order.

    Returns ``(out, batch_mean, batch_var)``, the statistics as plain
    keepdims-shaped arrays for the running-buffer update.
    """
    data = x.data
    n, c, h, w = data.shape
    axes = (0, 2, 3)
    stat_shape = (1, c, 1, 1)
    # The graph's constant operands: Tensor-wrapped Python floats.
    inv_count = np.asarray(1.0 / (n * h * w), dtype=default_dtype())
    eps_term = np.asarray(eps, dtype=default_dtype())
    scale = weight.data.reshape(stat_shape)
    mean = data.sum(axis=axes, keepdims=True) * inv_count
    centered = data + -mean
    var = (centered * centered).sum(axis=axes, keepdims=True) * inv_count
    var_eps = var + eps_term
    std = var_eps**0.5
    normalised = centered / std
    out_data = normalised * scale + bias.data.reshape(stat_shape)

    def backward(grad: np.ndarray) -> None:
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, stat_shape).reshape(bias.data.shape))
        if not (x.requires_grad or weight.requires_grad):
            return
        grad = np.ascontiguousarray(grad)
        if weight.requires_grad:
            # A named operand: numpy would multiply into an unnamed
            # temporary in place, in its layout instead of the product's.
            normalised = centered / std
            grad_scale = _unbroadcast(grad * normalised, stat_shape)
            del normalised
            weight._accumulate(grad_scale.reshape(weight.data.shape))
        if not x.requires_grad:
            return
        # normalised = centered / std: the numerator's path first ...
        grad_norm = np.ascontiguousarray(grad * scale)
        grad_std = _unbroadcast(-grad_norm * centered / (std**2), stat_shape)
        grad_centered = np.ascontiguousarray(grad_norm / std)
        del grad, grad_norm
        x._accumulate(grad_centered)
        grad_mean = -_unbroadcast(grad_centered, stat_shape)
        # ... then the denominator's: std = (var + eps) ** 0.5, with
        # var = sum(centered * centered) * inv_count.
        grad_var = grad_std * 0.5 * var_eps ** (0.5 - 1)
        grad_square = np.ascontiguousarray(np.broadcast_to(grad_var * inv_count, x.shape))
        grad_centered = grad_square * centered
        del grad_square
        grad_centered = grad_centered.copy() + grad_centered
        x._accumulate(grad_centered)
        grad_mean = grad_mean + -_unbroadcast(grad_centered, stat_shape)
        del grad_centered
        x._accumulate(np.broadcast_to(grad_mean * inv_count, x.shape))

    out = Tensor._make(out_data, (x, weight, bias), backward)
    return out, mean, var


class BatchNorm2d(Module):
    """Batch normalisation over the channel dimension of NCHW inputs."""

    # Training mode saves the centred input (float64 node) or ``x_hat``
    # (float32 closed form); eval mode's graph subtracts the running mean
    # first, and an add node's backward reads no operand.
    backward_reads_input = False

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

    def _update_running(self, batch_mean: np.ndarray, batch_var: np.ndarray) -> None:
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
        (``_update_running``, ``load_state_dict``) are reflected without any
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
        stat_shape = (1, self.num_features, 1, 1)
        if self.training:
            if is_fast_dtype(x.data):
                scale = self.weight.reshape(stat_shape)
                shift = self.bias.reshape(stat_shape)
                out, batch_mean, batch_var = batchnorm_train_fused(
                    x, scale, shift, (0, 2, 3), self.eps
                )
            else:
                out, batch_mean, batch_var = batchnorm2d_train(x, self.weight, self.bias, self.eps)
            self._update_running(batch_mean.reshape(-1), batch_var.reshape(-1))
            return out
        mean, var = self._eval_stats()
        normalised = (x - mean) / (var + self.eps) ** 0.5
        return normalised * self.weight.reshape(stat_shape) + self.bias.reshape(stat_shape)


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
        plan = get_plan(x.shape, (k, k), (s, s), (0, 0))
        out_h, out_w = plan.out_hw
        cols = plan.im2col(x.data).reshape(n, c, k * k, out_h * out_w)
        out_data = cols.mean(axis=2).reshape(n, c, out_h, out_w)
        compute_dtype = out_data.dtype

        def backward(grad: np.ndarray) -> None:
            if not x.requires_grad:
                return
            grad = np.asarray(grad, dtype=compute_dtype).reshape(n, c, 1, out_h * out_w)
            grad_cols = np.broadcast_to(grad / (k * k), (n, c, k * k, out_h * out_w))
            grad_cols = grad_cols.reshape(n, c * k * k, out_h * out_w)
            x._accumulate(plan.col2im(grad_cols))

        return Tensor._make(out_data, (x,), backward)


class GlobalAvgPool2d(Module):
    """Average over the spatial dimensions, producing an (N, C) tensor."""

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        x = as_tensor(x)
        if x.ndim != 4:
            raise ValueError(f"GlobalAvgPool2d expects NCHW input, got shape {x.shape}")
        return x.mean(axis=(2, 3))
