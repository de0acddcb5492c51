"""Unit and property-based tests for the autograd Tensor engine."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.autograd import Tensor, concatenate, no_grad, stack, where


def numeric_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued numpy function."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.shape[0]):
        original = flat[index]
        flat[index] = original + eps
        upper = fn(x)
        flat[index] = original - eps
        lower = fn(x)
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * eps)
    return grad


def analytic_gradient(fn_tensor, x: np.ndarray) -> np.ndarray:
    """Gradient of a Tensor-valued scalar function via backward()."""
    tensor = Tensor(x.copy(), requires_grad=True)
    output = fn_tensor(tensor)
    output.backward()
    return tensor.grad


small_arrays = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    elements=st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False, width=64),
)


class TestBasicOps:
    def test_add_broadcast_gradients(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((4,)), requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, np.ones((3, 4)))
        assert np.allclose(b.grad, np.full((4,), 3.0))

    def test_mul_gradients(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [4.0, 5.0])
        assert np.allclose(b.grad, [2.0, 3.0])

    def test_division_gradients(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a / b).backward()
        assert np.allclose(a.grad, [1.0 / 3.0])
        assert np.allclose(b.grad, [-6.0 / 9.0])

    def test_matmul_shapes_and_gradients(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        b = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
        out = a.matmul(b)
        assert out.shape == (2, 4)
        out.sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3, 4)

    def test_pow_gradient(self):
        x = Tensor([3.0], requires_grad=True)
        (x**2).backward()
        assert np.allclose(x.grad, [6.0])

    def test_neg_and_sub(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 5.0], requires_grad=True)
        (b - a).sum().backward()
        assert np.allclose(a.grad, [-1.0, -1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_rsub_and_radd_with_scalars(self):
        x = Tensor([2.0], requires_grad=True)
        (5.0 - x).backward()
        assert np.allclose(x.grad, [-1.0])
        x.zero_grad()
        (5.0 + x).backward()
        assert np.allclose(x.grad, [1.0])

    def test_getitem_gradient_accumulates(self):
        x = Tensor(np.arange(6, dtype=float), requires_grad=True)
        (x[2] * 3.0).backward()
        expected = np.zeros(6)
        expected[2] = 3.0
        assert np.allclose(x.grad, expected)

    def test_clip_gradient_mask(self):
        x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_axis_keepdims(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        out = x.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        assert np.allclose(x.grad, np.ones((2, 3)))

    def test_mean_gradient_scaling(self):
        x = Tensor(np.ones((4, 5)), requires_grad=True)
        x.mean().backward()
        assert np.allclose(x.grad, np.full((4, 5), 1.0 / 20.0))

    def test_mean_tuple_axis(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        out = x.mean(axis=(0, 2))
        assert out.shape == (3,)
        out.sum().backward()
        assert np.allclose(x.grad, np.full((2, 3, 4), 1.0 / 8.0))

    def test_max_gradient_goes_to_argmax(self):
        x = Tensor([[1.0, 5.0, 2.0]], requires_grad=True)
        x.max(axis=1).backward()
        assert np.allclose(x.grad, [[0.0, 1.0, 0.0]])

    def test_var_matches_numpy(self):
        data = np.random.default_rng(0).normal(size=(6, 3))
        x = Tensor(data)
        assert np.allclose(x.var(axis=0).data, data.var(axis=0))


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self):
        x = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
        x.reshape(4, 3).sum().backward()
        assert x.grad.shape == (3, 4)

    def test_transpose_gradient(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        x.transpose().sum().backward()
        assert x.grad.shape == (2, 3)

    def test_transpose_with_axes(self):
        x = Tensor(np.arange(24, dtype=float).reshape(2, 3, 4), requires_grad=True)
        out = x.transpose((2, 0, 1))
        assert out.shape == (4, 2, 3)
        out.sum().backward()
        assert x.grad.shape == (2, 3, 4)

    def test_flatten(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.flatten().shape == (2, 12)

    def test_concatenate_gradient_split(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * 2.0).sum().backward()
        assert np.allclose(a.grad, np.full((2, 3), 2.0))
        assert np.allclose(b.grad, np.full((2, 2), 2.0))

    def test_stack_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        stack([a, b], axis=0).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_where_selects_and_routes_gradient(self):
        condition = np.array([True, False])
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([10.0, 20.0], requires_grad=True)
        out = where(condition, a, b)
        assert np.allclose(out.data, [1.0, 20.0])
        out.sum().backward()
        assert np.allclose(a.grad, [1.0, 0.0])
        assert np.allclose(b.grad, [0.0, 1.0])


class TestBackwardMechanics:
    def test_backward_on_non_scalar_requires_grad_argument(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_without_requires_grad_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_gradient_accumulates_across_backward_calls(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward()
        (x * 3).backward()
        assert np.allclose(x.grad, [5.0])

    def test_no_grad_disables_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_detach_breaks_graph(self):
        x = Tensor([2.0], requires_grad=True)
        y = x.detach() * 3
        assert not y.requires_grad

    def test_diamond_graph_gradient(self):
        # f(x) = x*x + x*x should give gradient 4x through two paths.
        x = Tensor([3.0], requires_grad=True)
        y = x * x
        (y + y).backward()
        assert np.allclose(x.grad, [12.0])


def _graph_nodes(root: Tensor) -> list:
    """Every tensor reachable from ``root`` through ``_parents`` (root included)."""
    nodes, seen, stack_ = [], set(), [root]
    while stack_:
        node = stack_.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack_.extend(node._parents)
    return nodes


def _retained_backward(root: Tensor) -> None:
    """The pre-release backward walk, kept as the oracle: same DFS order,
    same closures, but every node's ``.grad``, closure and parents survive."""
    topo, visited, stack_ = [], set(), [(root, False)]
    while stack_:
        node, processed = stack_.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack_.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack_.append((parent, False))
    root._accumulate(np.ones_like(root.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


class TestGraphRelease:
    """``backward()`` frees the graph as it walks it; leaf gradients are unchanged."""

    @staticmethod
    def _mlp_loss():
        from repro.autograd import BatchNorm1d, Linear, ReLU, Sequential, cross_entropy

        model = Sequential(Linear(6, 16, rng=0), BatchNorm1d(16), ReLU(), Linear(16, 4, rng=1))
        x = np.random.default_rng(2).normal(size=(8, 6))
        labels = np.arange(8) % 4
        return (
            model.parameters(),
            lambda: cross_entropy(model(Tensor(x)), labels, label_smoothing=0.1),
            contextlib.nullcontext,
        )

    @staticmethod
    def _conv_loss():
        from repro.autograd import BatchNorm2d, Conv2d, GlobalAvgPool2d, ReLU, Sequential

        # Two conv + BatchNorm2d blocks: training-mode BatchNorm2d is a
        # single node, so one block alone leaves fewer than ten interior nodes.
        block = Sequential(
            Conv2d(3, 6, 3, padding=1, rng=0),
            BatchNorm2d(6),
            ReLU(),
            Conv2d(6, 6, 3, padding=1, groups=6, rng=1),
            BatchNorm2d(6),
            ReLU(),
            Conv2d(6, 6, 1, rng=2),
            GlobalAvgPool2d(),
        )
        x = np.random.default_rng(3).normal(size=(2, 3, 6, 6))
        return block.parameters(), lambda: (block(Tensor(x)) ** 2).mean(), contextlib.nullcontext

    @staticmethod
    def _arch_step_loss():
        from repro.autograd import cross_entropy
        from repro.nas import ArchitectureParameters, SuperNet, build_cifar_search_space

        space = build_cifar_search_space(
            num_searchable=3, trainable_resolution=8, trainable_base_channels=4
        )
        supernet = SuperNet(space, rng=0)
        arch = ArchitectureParameters(space, rng=1)
        x = np.random.default_rng(4).normal(size=(2, 3, 8, 8))
        labels = np.array([0, 1])

        def build():
            gates = arch.sample_gumbel(hard=True, rng=5)
            return cross_entropy(supernet(Tensor(x), gates), labels, label_smoothing=0.1)

        # The searchers' architecture step: forward and backward with the
        # supernet frozen, so only alpha is a gradient leaf.
        return [arch.alpha], build, supernet.frozen

    @pytest.mark.parametrize("case", ["_mlp_loss", "_conv_loss", "_arch_step_loss"])
    def test_leaf_gradients_bit_identical_to_retained_walk(self, case):
        leaves, build, scope = getattr(self, case)()
        grads = []
        for walk in (_retained_backward, Tensor.backward):
            for leaf in leaves:
                leaf.grad = None
            with scope():
                walk(build())
            grads.append([leaf.grad for leaf in leaves])
        assert all(grad is not None for grad in grads[1])
        for retained, released in zip(*grads):
            assert np.array_equal(retained, released)

    @pytest.mark.parametrize("case", ["_mlp_loss", "_conv_loss"])
    def test_graph_released_after_backward(self, case):
        leaves, build, _ = getattr(self, case)()
        loss = build()
        nodes = _graph_nodes(loss)
        interior = [node for node in nodes if node._backward is not None]
        assert len(interior) > 10
        loss.backward()
        for node in interior:
            assert node.grad is None and node._parents == ()
        for leaf in leaves:
            assert leaf.grad is not None

    def test_second_backward_raises(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="already been backpropagated"):
            loss.backward()

    def test_backward_through_shared_released_subgraph_raises(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        hidden = (x * 2.0).tanh()
        first, second = hidden.sum(), (hidden * 3.0).sum()
        first.backward()
        with pytest.raises(RuntimeError, match="already been backpropagated"):
            second.backward()

    def test_backward_peak_memory_stays_flat_along_a_chain(self):
        # 40 ops on 256x256 float64 (512 KB per array).  Retaining the graph
        # kept every intermediate gradient alive (~21 MB peak); releasing it
        # holds about one node's gradient and temporaries at a time (~1.5 MB).
        import tracemalloc

        x = Tensor(np.random.default_rng(0).normal(size=(256, 256)), requires_grad=True)
        y = x
        for _ in range(20):
            y = (y * 0.5).tanh()
        loss = y.sum()
        del y
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.grad is not None
        growth_mb = (peak - start) / 2**20
        assert growth_mb <= 4.0, f"backward peaked {growth_mb:.1f} MB above its start"


class TestPropertyBasedGradients:
    @settings(max_examples=25, deadline=None)
    @given(small_arrays)
    def test_elementwise_chain_matches_numeric(self, data):
        def fn_numpy(x):
            return float(np.sum(np.tanh(x) * x + x**2))

        def fn_tensor(x):
            return (x.tanh() * x + x**2).sum()

        numeric = numeric_gradient(fn_numpy, data.copy())
        analytic = analytic_gradient(fn_tensor, data)
        assert np.allclose(numeric, analytic, atol=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(small_arrays)
    def test_sigmoid_exp_matches_numeric(self, data):
        def fn_numpy(x):
            return float(np.sum(1.0 / (1.0 + np.exp(-x)) + np.exp(x * 0.1)))

        def fn_tensor(x):
            return (x.sigmoid() + (x * 0.1).exp()).sum()

        numeric = numeric_gradient(fn_numpy, data.copy())
        analytic = analytic_gradient(fn_tensor, data)
        assert np.allclose(numeric, analytic, atol=1e-4)

    @settings(max_examples=20, deadline=None)
    @given(small_arrays)
    def test_sum_then_mean_consistency(self, data):
        tensor = Tensor(data)
        assert np.isclose(tensor.mean().item(), data.mean())
        assert np.isclose(tensor.sum().item(), data.sum())
