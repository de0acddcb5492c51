"""Candidate operations of the ProxylessNAS-style search space.

Each searchable layer chooses among seven candidates (Section 4.1):
MBConv with kernel size 3/5/7 and expansion ratio 3/6, plus ``Zero``.  A skip
connection is always present in parallel, so choosing ``Zero`` makes the
layer disappear from the network.

Every candidate has two faces:

* a *trainable module* (built at reduced width/resolution so the supernet can
  be trained on a CPU), and
* a *workload description* (built at the nominal full-size dimensions) used
  by the hardware cost model — hardware cost must reflect the real network,
  not the scaled-down trainable proxy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.autograd.conv import BatchNorm2d, Conv2d
from repro.autograd.layers import Identity, ReLU, Sequential
from repro.autograd.module import Module
from repro.autograd.tensor import Tensor, as_tensor
from repro.hwmodel.workload import ConvLayerShape, mbconv1d_layers, mbconv_layers
from repro.utils.seeding import as_rng


@dataclass(frozen=True)
class OpSpec:
    """Description of one candidate operation.

    ``kind`` selects both the trainable-module family and the workload
    derivation: ``"mbconv"`` is the square 2-D inverted-residual block of the
    paper, ``"conv1d"`` is its 1-D counterpart (kernels of shape ``(1, k)``
    over sequence-shaped ``(N, C, 1, L)`` activations, contributing
    non-square :class:`~repro.hwmodel.workload.ConvLayerShape` layers to the
    hardware cost model).
    """

    name: str
    kernel_size: int
    expansion: int
    is_zero: bool = False
    kind: str = "mbconv"

    def __str__(self) -> str:
        return self.name


#: The seven candidate operations of the paper, in a fixed canonical order.
CANDIDATE_OPS: Tuple[OpSpec, ...] = (
    OpSpec("mbconv3_e3", kernel_size=3, expansion=3),
    OpSpec("mbconv3_e6", kernel_size=3, expansion=6),
    OpSpec("mbconv5_e3", kernel_size=5, expansion=3),
    OpSpec("mbconv5_e6", kernel_size=5, expansion=6),
    OpSpec("mbconv7_e3", kernel_size=7, expansion=3),
    OpSpec("mbconv7_e6", kernel_size=7, expansion=6),
    OpSpec("zero", kernel_size=0, expansion=0, is_zero=True),
)

NUM_CANDIDATE_OPS = len(CANDIDATE_OPS)

#: 1-D candidate operations used by sequence tasks: MBConv-style blocks whose
#: depthwise convolution slides a ``(1, k)`` kernel along the sequence axis.
CONV1D_CANDIDATE_OPS: Tuple[OpSpec, ...] = (
    OpSpec("conv1d3_e3", kernel_size=3, expansion=3, kind="conv1d"),
    OpSpec("conv1d3_e6", kernel_size=3, expansion=6, kind="conv1d"),
    OpSpec("conv1d5_e3", kernel_size=5, expansion=3, kind="conv1d"),
    OpSpec("conv1d5_e6", kernel_size=5, expansion=6, kind="conv1d"),
    OpSpec("conv1d7_e3", kernel_size=7, expansion=3, kind="conv1d"),
    OpSpec("conv1d7_e6", kernel_size=7, expansion=6, kind="conv1d"),
    OpSpec("zero", kernel_size=0, expansion=0, is_zero=True, kind="conv1d"),
)


def op_index(name: str) -> int:
    """Return the canonical index of the operation called ``name``."""
    for index, op in enumerate(CANDIDATE_OPS):
        if op.name == name:
            return index
    raise KeyError(f"unknown operation {name!r}")


class ZeroOp(Module):
    """The Zero operation: outputs zeros (the skip connection carries the signal)."""

    def __init__(self, in_channels: int, out_channels: int, stride: int) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        x = as_tensor(x)
        n, _, h, w = x.shape
        out_h = (h + self.stride - 1) // self.stride
        out_w = (w + self.stride - 1) // self.stride
        return Tensor(np.zeros((n, self.out_channels, out_h, out_w)))


class MBConvOp(Module):
    """Inverted-residual (MobileNetV2) block: expand -> depthwise -> project.

    ``kernel_size`` may be an int (square 2-D depthwise kernel, the paper's
    MBConv) or an ``(kh, kw)`` tuple — ``(1, k)`` gives the 1-D variant used
    by sequence tasks.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: Union[int, Tuple[int, int]],
        expansion: int,
        stride: int = 1,
        rng: Optional[Union[int, np.random.Generator]] = None,
    ) -> None:
        super().__init__()
        generator = as_rng(rng)
        hidden = max(in_channels * expansion, 1)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.use_residual = stride == 1 and in_channels == out_channels
        if isinstance(kernel_size, tuple):
            padding: Union[int, Tuple[int, int]] = (kernel_size[0] // 2, kernel_size[1] // 2)
        else:
            padding = kernel_size // 2
        self.expansion = expansion
        self.expand = Sequential(
            Conv2d(in_channels, hidden, 1, bias=False, rng=generator),
            BatchNorm2d(hidden),
            ReLU(),
        )
        self.depthwise = Sequential(
            Conv2d(
                hidden,
                hidden,
                kernel_size,
                stride=stride,
                padding=padding,
                groups=hidden,
                bias=False,
                rng=generator,
            ),
            BatchNorm2d(hidden),
            ReLU(),
        )
        self.project = Sequential(
            Conv2d(hidden, out_channels, 1, bias=False, rng=generator),
            BatchNorm2d(out_channels),
        )

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        x = as_tensor(x)
        out = self.project(self.depthwise(self.expand(x)))
        if self.use_residual:
            out = out + x
        return out


class SkipConnection(Module):
    """The always-present skip path: identity, or a strided 1x1 projection."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: Optional[Union[int, np.random.Generator]] = None,
    ) -> None:
        super().__init__()
        if stride == 1 and in_channels == out_channels:
            self.path: Module = Identity()
            self.is_identity = True
        else:
            self.path = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                BatchNorm2d(out_channels),
            )
            self.is_identity = False

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        return self.path(x)


def build_op_module(
    op: OpSpec,
    in_channels: int,
    out_channels: int,
    stride: int = 1,
    rng: Optional[Union[int, np.random.Generator]] = None,
) -> Module:
    """Instantiate the trainable module for candidate ``op``.

    Dispatches on ``op.kind``: 2-D MBConv blocks use a square kernel, 1-D
    blocks a ``(1, k)`` kernel over sequence-shaped activations.
    """
    if op.is_zero:
        return ZeroOp(in_channels, out_channels, stride)
    kernel: Union[int, Tuple[int, int]] = op.kernel_size
    if op.kind == "conv1d":
        kernel = (1, op.kernel_size)
    elif op.kind != "mbconv":
        raise ValueError(f"unknown operation kind {op.kind!r}")
    return MBConvOp(
        in_channels=in_channels,
        out_channels=out_channels,
        kernel_size=kernel,
        expansion=op.expansion,
        stride=stride,
        rng=rng,
    )


def op_workload_layers(
    op: OpSpec,
    layer_name: str,
    in_channels: int,
    out_channels: int,
    feature_size: int,
    stride: int = 1,
    batch: int = 1,
) -> List[ConvLayerShape]:
    """Return the convolution layers ``op`` contributes to the hardware workload.

    ``Zero`` contributes nothing (the layer disappears); any MBConv candidate
    contributes its expansion / depthwise / projection triplet at the nominal
    full-size dimensions.  ``conv1d``-kind candidates derive non-square
    layers (height 1, ``(1, k)`` kernels) so sequence workloads exercise the
    cost model off the square-feature-map diagonal.
    """
    if op.is_zero:
        return []
    if op.kind == "conv1d":
        return mbconv1d_layers(
            name=layer_name,
            in_channels=in_channels,
            out_channels=out_channels,
            length=feature_size,
            kernel_size=op.kernel_size,
            expansion=op.expansion,
            stride=stride,
            batch=batch,
        )
    if op.kind != "mbconv":
        raise ValueError(f"unknown operation kind {op.kind!r}")
    return mbconv_layers(
        name=layer_name,
        in_channels=in_channels,
        out_channels=out_channels,
        feature_size=feature_size,
        kernel_size=op.kernel_size,
        expansion=op.expansion,
        stride=stride,
        batch=batch,
    )


def op_flops(
    op: OpSpec,
    in_channels: int,
    out_channels: int,
    feature_size: int,
    stride: int = 1,
) -> int:
    """FLOPs of candidate ``op`` at the nominal dimensions (for the FLOPs penalty)."""
    layers = op_workload_layers(op, "flops_probe", in_channels, out_channels, feature_size, stride)
    return sum(layer.flops for layer in layers)
