"""``Sequential`` releases dead interior outputs without changing a result.

A layer whose backward never reads its input (``ReLU``, ``BatchNorm2d``)
lets ``Sequential.forward`` drop the array of the output it consumed.  The
oracle is a test-local ``Sequential.forward`` that releases nothing: a
searcher's weight and architecture steps must give the same gradients,
running statistics and state with and without release, bit for bit, at
float64 (the one-node batch norm) and float32 (the fused closed form), on
the 2-D and the ``seq1d`` ``(1, k)`` geometries.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.autograd import SGD, Adam, BatchNorm2d, Conv2d, Identity, ReLU, Sequential, use_dtype
from repro.autograd.tensor import Tensor, as_tensor
from repro.nas import ArchitectureParameters, SuperNet, build_cifar_search_space
from repro.tasks.seq1d import build_seq1d_search_space


def _retaining_forward(self, x):
    """The oracle: ``Sequential.forward`` without the release."""
    out = as_tensor(x)
    for layer in self._layers:
        out = layer(out)
    return out


#: (search space, one input's shape).  The 2-D batch is large enough that
#: the float64 batch-norm intermediates pass numpy's temporary-elision size.
SPACES = {
    "2d": (lambda: build_cifar_search_space(num_searchable=3), (3, 8, 8)),
    "seq1d": (lambda: build_seq1d_search_space(num_searchable=3, trainable_length=32), (4, 1, 32)),
}


def _search_steps(space_name, dtype):
    """Two weight + architecture step pairs; every array they produce, in order.

    The first weight step gates the largest candidate at every position, the
    second a Gumbel draw; each architecture step runs inside
    ``supernet.frozen()``, as the searchers do.
    """
    build, input_shape = SPACES[space_name]
    with use_dtype(dtype):
        space = build()
        supernet = SuperNet(space, rng=0)
        arch = ArchitectureParameters(space, rng=1)
        weight_opt = SGD(supernet.parameters(), lr=0.05, momentum=0.9)
        arch_opt = Adam([arch.alpha], lr=0.01)
        data = np.random.default_rng(2)
        gate_rng = np.random.default_rng(3)
        largest = Tensor(np.eye(space.num_ops)[[5] * space.num_searchable])

        def loss(gates):
            images = Tensor(data.normal(size=(32,) + input_shape))
            labels = data.integers(0, space.num_classes, size=32)
            return space.output_head.loss(supernet(images, gates), labels, label_smoothing=0.1)

        record = []
        for gates in (largest, None):
            if gates is None:
                gates = arch.sample_gumbel(hard=True, rng=gate_rng).detach()
            weight_opt.zero_grad()
            loss(gates).backward()
            record += [param.grad for param in supernet.parameters()]
            weight_opt.step()
            record += [buffer.copy() for _, buffer in supernet.named_buffers()]
            with supernet.frozen():
                arch_opt.zero_grad()
                loss(arch.sample_gumbel(hard=True, rng=gate_rng)).backward()
                record.append(arch.alpha.grad)
                arch_opt.step()
        record += list(supernet.state_dict().values()) + [arch.alpha.data.copy()]
    return record


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("space", sorted(SPACES))
def test_search_steps_bit_identical_to_retaining_oracle(space, dtype, monkeypatch):
    released = []
    release = Tensor.release_data

    def counting(tensor):
        released.append(tensor.data.nbytes)
        release(tensor)

    monkeypatch.setattr(Tensor, "release_data", counting)
    result = _search_steps(space, dtype)
    assert released, "the supernet's Sequentials released nothing"
    monkeypatch.setattr(Sequential, "forward", _retaining_forward)
    oracle = _search_steps(space, dtype)
    assert len(result) == len(oracle)
    for array, expected in zip(result, oracle):
        assert (array is None) == (expected is None)
        if array is not None:
            assert array.dtype == expected.dtype == np.dtype(dtype)
            assert np.array_equal(array, expected)


def _conv_block(*tail):
    return Sequential(Conv2d(3, 4, 3, padding=1, bias=False, rng=0), *tail)


def _interior(out):
    """The chain of first parents below ``out``: [out, its input, ...]."""
    chain = [out]
    while chain[-1]._parents:
        chain.append(chain[-1]._parents[0])
    return chain


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_released_arrays_are_read_only_nan_views(dtype):
    with use_dtype(dtype):
        block = _conv_block(BatchNorm2d(4), ReLU())
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 5, 5)))
        out = block(x)
        relu_out, bn_out, conv_out, source = _interior(out)
    assert source is x and np.isfinite(x.data).all()
    assert np.isfinite(out.data).all()
    for released in (bn_out, conv_out):
        assert released.shape == (2, 4, 5, 5) and released.data.dtype == np.dtype(dtype)
        assert np.isnan(released.data).all()
        assert not released.data.flags.writeable
        assert released.data.strides == (0, 0, 0, 0)
    out.sum().backward()
    assert all(np.isfinite(param.grad).all() for param in block.parameters())


def _owner(array):
    """The array that owns ``array``'s memory."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_released_arrays_are_freed(dtype, monkeypatch):
    """No closure keeps a released array's memory alive until backward."""
    owners = []
    release = Tensor.release_data

    def tracking(tensor):
        owners.append(weakref.ref(_owner(tensor.data)))
        release(tensor)

    monkeypatch.setattr(Tensor, "release_data", tracking)
    with use_dtype(dtype):
        block = _conv_block(BatchNorm2d(4), ReLU())
        out = block(Tensor(np.random.default_rng(3).normal(size=(2, 3, 5, 5))))
    assert len(owners) == 2
    assert all(owner() is None for owner in owners)
    out.sum().backward()


def test_input_and_returned_input_are_never_released():
    rng = np.random.default_rng(1)
    # A graph node as the input: only the "never the input" rule keeps it.
    leaf = Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True)
    x = leaf * 1.0
    out = Sequential(ReLU())(x)
    assert np.isfinite(x.data).all() and np.isfinite(out.data).all()
    # Identity hands its input on: releasing it would release its own output.
    out = _conv_block(Identity())(x)
    assert np.isfinite(out.data).all()
    assert np.isfinite(x.data).all()
    # Mid-chain, the conv output Identity handed on dies once BatchNorm2d consumed it.
    out = _conv_block(Identity(), BatchNorm2d(4))(x)
    assert np.isnan(_interior(out)[1].data).all()


def test_nothing_is_released_without_a_graph(monkeypatch):
    """Frozen weights and a plain input build no graph: nothing holds the arrays."""
    released = []
    monkeypatch.setattr(Tensor, "release_data", released.append)
    block = _conv_block(BatchNorm2d(4), ReLU())
    out = block.freeze()(Tensor(np.random.default_rng(2).normal(size=(2, 3, 5, 5))))
    assert out._backward is None and not released
