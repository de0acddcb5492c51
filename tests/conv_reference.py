"""The legacy convolution lowering: the parity oracle of the plan tier.

``repro.autograd.conv`` lowers every convolution through the cached
:mod:`repro.autograd.plans` tier.  This module keeps the lowering that tier
replaced, forward and backward, as the reference it must match bit for bit
at float64:

* :func:`im2col` — the stride-trick unfold (``np.pad`` + a sliding-window
  view + one reshape copy);
* :func:`col2im` — the ``kh x kw`` loop of strided adds;
* :func:`conv2d` / :func:`avg_pool2d` — the autograd ops over them, with the
  einsum contractions at float64 and the batched-``matmul`` forms under the
  float32 precision policy (tolerance-equal there, as in the plan tier).

``tests/test_conv_plans.py`` compares the plan tier against it and
``benchmarks/run_bench.py`` times it as the "before" side of the ``col2im``,
``conv_fwd`` and ``conv_bwd`` keys.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.autograd.precision import is_fast_dtype
from repro.autograd.tensor import Tensor, as_tensor


def _pair(value: Union[int, Tuple[int, int]]) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return (int(value[0]), int(value[1]))
    return (int(value), int(value))


def im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], padding: Tuple[int, int]
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``x`` (N, C, H, W) into columns of shape (N, C*kh*kw, out_h*out_w)."""
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


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_hw: Tuple[int, int],
) -> np.ndarray:
    """Fold columns back into an image, one strided add per kernel offset."""
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


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: Union[int, Tuple[int, int]] = 1,
    padding: Union[int, Tuple[int, int]] = 0,
    groups: int = 1,
) -> Tensor:
    """Grouped 2-D convolution over NCHW input, lowered the legacy way."""
    x = as_tensor(x)
    weight = as_tensor(weight)
    kernel = (int(weight.shape[2]), int(weight.shape[3]))
    stride = _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape
    out_channels = weight.shape[0]
    kh, kw = kernel
    group_in = c // groups
    group_out = out_channels // groups
    weight_grouped = weight.data.reshape(groups, group_out, group_in * kh * kw)

    cols, (out_h, out_w) = im2col(x.data, kernel, stride, padding)
    cols_grouped = cols.reshape(n, groups, group_in * kh * kw, out_h * out_w)
    if is_fast_dtype(weight_grouped, cols_grouped):
        out = np.matmul(weight_grouped[None], cols_grouped)
    else:
        out = np.einsum("gok,ngkl->ngol", weight_grouped, cols_grouped, optimize=True)
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
            if is_fast_dtype(grad_grouped, cols_grouped):
                grad_w = np.matmul(grad_grouped, np.swapaxes(cols_grouped, -1, -2)).sum(axis=0)
            else:
                grad_w = np.einsum("ngol,ngkl->gok", grad_grouped, cols_grouped, optimize=True)
            weight._accumulate(grad_w.reshape(weight.data.shape))
        if x.requires_grad:
            if group_out == 1:
                # One output channel per group: the o-contraction is an outer
                # product, one rounding per element however it is computed.
                grad_cols = np.swapaxes(weight_grouped, -1, -2)[None] * grad_grouped
            elif is_fast_dtype(weight_grouped, grad_grouped):
                grad_cols = np.matmul(np.swapaxes(weight_grouped, -1, -2)[None], grad_grouped)
            else:
                grad_cols = np.einsum(
                    "gok,ngol->ngkl", weight_grouped, grad_grouped, optimize=True
                )
            grad_cols_flat = grad_cols.reshape(n, c * kh * kw, out_h * out_w)
            x._accumulate(
                col2im(grad_cols_flat, (n, c, h, w), kernel, stride, padding, (out_h, out_w))
            )

    parents = (x, weight) + ((bias,) if bias is not None else ())
    return Tensor._make(out_data, parents, backward)


def avg_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling with square windows, lowered the legacy way."""
    x = as_tensor(x)
    n, c, h, w = x.shape
    k = int(kernel_size)
    s = int(stride) if stride is not None else k
    out_h = (h - k) // s + 1
    out_w = (w - k) // s + 1
    cols, _ = im2col(x.data, (k, k), (s, s), (0, 0))
    cols = cols.reshape(n, c, k * k, out_h * out_w)
    out_data = cols.mean(axis=2).reshape(n, c, out_h, out_w)
    compute_dtype = out_data.dtype

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad = np.asarray(grad, dtype=compute_dtype).reshape(n, c, 1, out_h * out_w)
        grad_cols = np.broadcast_to(grad / (k * k), (n, c, k * k, out_h * out_w))
        grad_cols = grad_cols.reshape(n, c * k * k, out_h * out_w)
        x._accumulate(col2im(grad_cols, (n, c, h, w), (k, k), (s, s), (0, 0), (out_h, out_w)))

    return Tensor._make(out_data, (x,), backward)
