"""Parity of the one-node training-mode BatchNorm2d with its graph form.

At float64, training-mode ``BatchNorm2d`` is one autograd node
(``repro.autograd.conv.batchnorm2d_train``).  It must be bit-identical to
the 16-node graph expression it replaced, kept as the oracle
``tests/batchnorm_reference.py``: the output, the running statistics and
every gradient, for the inputs the supernet feeds it (conv outputs, which
are NCHW views over NHWC memory) as well as contiguous ones, with frozen and
trainable affine parameters and incoming gradients in C and non-C layouts.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import batchnorm_reference
from repro.autograd import BatchNorm2d
from repro.autograd.conv import batchnorm2d_train, conv2d
from repro.autograd.tensor import Tensor

EPS = 1e-5


def _conv_output(rng):
    """A real conv2d output: NCHW shape over NHWC memory."""
    x = rng.normal(size=(4, 3, 6, 6))
    w = rng.normal(size=(5, 3, 3, 3))
    out = conv2d(Tensor(x), Tensor(w), padding=1).data
    assert not out.flags.c_contiguous
    return out


def _depthwise_output(rng):
    """A strided depthwise conv2d output."""
    x = rng.normal(size=(3, 6, 8, 8))
    w = rng.normal(size=(6, 1, 5, 5))
    return conv2d(Tensor(x), Tensor(w), stride=2, padding=2, groups=6).data


def _contiguous(rng):
    return rng.normal(2.0, 3.0, size=(3, 4, 5, 7))


def _large_conv_output(rng):
    """A conv output above numpy's 256 KiB temporary-elision threshold.

    numpy computes ``a * (b / c)`` in place in the unnamed temporary
    ``b / c`` once it is that large, so the product takes the temporary's
    layout rather than the one ``a * named`` gets, and reductions over it
    round differently: only inputs of this size show it.
    """
    x = rng.normal(size=(8, 8, 16, 16))
    w = rng.normal(size=(40, 8, 3, 3))
    out = conv2d(Tensor(x), Tensor(w), padding=1).data
    assert out.nbytes > 256 * 1024
    return out


INPUTS = {
    "conv": _conv_output,
    "depthwise": _depthwise_output,
    "contiguous": _contiguous,
    "large": _large_conv_output,
}

#: (x, weight, bias) requires_grad: every combination that builds a node.
TRAINABLE = [flags for flags in itertools.product((True, False), repeat=3) if any(flags)]


def _nhwc(array):
    """``array`` (NCHW) over channels-last memory."""
    return np.ascontiguousarray(array.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _run(batchnorm, x_data, trainable, layout):
    """Forward + backward of ``batchnorm``: output, statistics and leaf gradients."""
    x_grad, w_grad, b_grad = trainable
    channels = x_data.shape[1]
    x = Tensor(x_data, requires_grad=x_grad)
    weight = Tensor(np.linspace(0.5, 1.5, channels), requires_grad=w_grad)
    bias = Tensor(np.linspace(-0.2, 0.3, channels), requires_grad=b_grad)
    out, mean, var = batchnorm(x, weight, bias, EPS)
    upstream = np.random.default_rng(5).normal(size=out.shape)
    if layout == "nhwc":
        # The root's gradient is a C-order copy; a pre-set gradient of the
        # same layout keeps the accumulated sum in NHWC order.
        upstream = _nhwc(upstream)
        out.grad = _nhwc(np.zeros(out.shape))
    out.backward(upstream)
    stats = [np.asarray(getattr(stat, "data", stat)) for stat in (mean, var)]
    grads = [tensor.grad for tensor, flag in zip((x, weight, bias), trainable) if flag]
    return [out.data] + stats + grads


@pytest.mark.parametrize("layout", ["c", "nhwc"])
@pytest.mark.parametrize("trainable", TRAINABLE, ids=lambda f: "x{:d}w{:d}b{:d}".format(*f))
@pytest.mark.parametrize("source", sorted(INPUTS))
def test_node_bit_identical_to_graph(source, trainable, layout):
    x_data = INPUTS[source](np.random.default_rng(3))
    node = _run(batchnorm2d_train, x_data, trainable, layout)
    graph = _run(batchnorm_reference.batchnorm2d_train, x_data, trainable, layout)
    assert len(node) == len(graph) == 3 + sum(trainable)
    for node_arr, graph_arr in zip(node, graph):
        assert np.array_equal(node_arr, graph_arr)
        # x's gradient feeds the conv backward, whose contractions read strides.
        assert node_arr.strides == graph_arr.strides


def test_conv_chain_gradients_bit_identical_to_graph():
    """conv -> BN -> conv: the gradients reaching the conv leaves match too."""
    rng = np.random.default_rng(8)
    x_data = rng.normal(size=(4, 3, 6, 6))
    weights = [rng.normal(size=(6, 3, 3, 3)), rng.normal(size=(4, 6, 1, 1))]
    results = []
    for batchnorm in (batchnorm2d_train, batchnorm_reference.batchnorm2d_train):
        x = Tensor(x_data, requires_grad=True)
        w1, w2 = (Tensor(w, requires_grad=True) for w in weights)
        scale = Tensor(np.linspace(0.5, 1.5, 6), requires_grad=True)
        shift = Tensor(np.linspace(-0.2, 0.3, 6), requires_grad=True)
        hidden, _, _ = batchnorm(conv2d(x, w1, padding=1), scale, shift, EPS)
        out = conv2d(hidden.relu(), w2)
        (out * out).mean().backward()
        results.append([x.grad, w1.grad, w2.grad, scale.grad, shift.grad])
    for node_arr, graph_arr in zip(*results):
        assert np.array_equal(node_arr, graph_arr)


def test_module_running_statistics_match_graph():
    rng = np.random.default_rng(9)
    layer = BatchNorm2d(5, momentum=0.3)
    reference_mean, reference_var = np.zeros(5), np.ones(5)
    for _ in range(3):
        x_data = _conv_output(rng)
        out = layer(Tensor(x_data))
        expected, mean, var = batchnorm_reference.batchnorm2d_train(
            Tensor(x_data), layer.weight, layer.bias, layer.eps
        )
        keep = 1 - layer.momentum
        reference_mean = keep * reference_mean + layer.momentum * mean.data.reshape(-1)
        reference_var = keep * reference_var + layer.momentum * var.data.reshape(-1)
        assert np.array_equal(out.data, expected.data)
        assert np.array_equal(layer.running_mean, reference_mean)
        assert np.array_equal(layer.running_var, reference_var)


def test_node_keeps_one_input_sized_array():
    """Only ``centered`` stays alive until backward; ``normalised`` is recomputed."""
    x = Tensor(_conv_output(np.random.default_rng(10)), requires_grad=True)
    channels = x.shape[1]
    out, _, _ = batchnorm2d_train(
        x, Tensor(np.ones(channels), requires_grad=True), Tensor(np.zeros(channels)), EPS
    )
    held = [
        cell.cell_contents
        for cell in out._backward.__closure__
        if isinstance(cell.cell_contents, np.ndarray) and cell.cell_contents.size == x.size
    ]
    assert len(held) == 1
