"""The graph form of training-mode float64 BatchNorm2d: the parity oracle.

``repro.autograd.conv.batchnorm2d_train`` computes training-mode batch norm
at float64 as one autograd node.  This module keeps the expression it
replaced, verbatim: the statistics and the normalisation built from
``Tensor`` operations, one graph node per operation (16 of them), whose
backward ``Tensor.backward`` walks node by node.  The single node must
match it bit for bit, gradients and running statistics included
(``tests/test_batchnorm_node.py``).  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from typing import Tuple

from repro.autograd.tensor import Tensor


def batchnorm2d_train(
    x: Tensor, weight: Tensor, bias: Tensor, eps: float
) -> Tuple[Tensor, Tensor, Tensor]:
    """``(out, mean, var)`` of training-mode BatchNorm2d as the graph computes them."""
    scale = weight.reshape(1, weight.shape[0], 1, 1)
    shift = bias.reshape(1, bias.shape[0], 1, 1)
    mean = x.mean(axis=(0, 2, 3), keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
    normalised = (x - mean) / (var + eps) ** 0.5
    return normalised * scale + shift, mean, var
