"""Tests for the supernet, mixed operations and derived networks."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.autograd import Tensor, cross_entropy
from repro.nas import ArchitectureParameters, DerivedNetwork, SuperNet, build_cifar_search_space, op_index


@pytest.fixture(scope="module")
def tiny_space():
    """A 3-position space so supernet tests stay fast."""
    return build_cifar_search_space(num_searchable=3, trainable_resolution=8, trainable_base_channels=4)


@pytest.fixture(scope="module")
def supernet(tiny_space):
    return SuperNet(tiny_space, rng=0)


def _one_hot_gates(space, indices):
    gates = np.zeros((space.num_searchable, space.num_ops))
    gates[np.arange(space.num_searchable), indices] = 1.0
    return Tensor(gates)


class TestSuperNet:
    def test_forward_output_shape(self, tiny_space, supernet):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 8, 8)))
        gates = _one_hot_gates(tiny_space, [0, 1, 2])
        logits = supernet(x, gates)
        assert logits.shape == (2, tiny_space.num_classes)

    def test_forward_rejects_wrong_gate_shape(self, supernet):
        x = Tensor(np.zeros((1, 3, 8, 8)))
        with pytest.raises(ValueError):
            supernet(x, Tensor(np.zeros((2, 2))))

    def test_gradient_reaches_arch_parameters_through_gates(self, tiny_space, supernet):
        params = ArchitectureParameters(tiny_space, rng=1)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 8, 8)))
        labels = np.array([0, 1])
        gates = params.sample_gumbel(temperature=1.0, hard=True, rng=2)
        loss = cross_entropy(supernet(x, gates), labels)
        loss.backward()
        assert params.alpha.grad is not None
        assert np.any(params.alpha.grad != 0.0)

    def test_gradient_reaches_supernet_weights(self, tiny_space, supernet):
        supernet.zero_grad()
        x = Tensor(np.random.default_rng(2).normal(size=(2, 3, 8, 8)))
        gates = _one_hot_gates(tiny_space, [1, 1, 1])
        loss = cross_entropy(supernet(x, gates), np.array([0, 1]))
        loss.backward()
        stem_weight = supernet.stem[0].weight
        assert stem_weight.grad is not None and np.any(stem_weight.grad != 0.0)

    def test_all_zero_gates_still_produce_valid_output(self, tiny_space, supernet):
        zero_index = op_index("zero")
        x = Tensor(np.random.default_rng(3).normal(size=(2, 3, 8, 8)))
        logits = supernet(x, _one_hot_gates(tiny_space, [zero_index] * 3))
        assert logits.shape == (2, tiny_space.num_classes)
        assert np.all(np.isfinite(logits.data))

    def test_forward_discrete_matches_manual_gates(self, tiny_space, supernet):
        supernet.eval()
        x = Tensor(np.random.default_rng(4).normal(size=(1, 3, 8, 8)))
        indices = [2, 0, 1]
        manual = supernet(x, _one_hot_gates(tiny_space, indices))
        direct = supernet.forward_discrete(x, indices)
        supernet.train()
        assert np.allclose(manual.data, direct.data)

    def test_different_gates_give_different_outputs(self, tiny_space, supernet):
        supernet.eval()
        x = Tensor(np.random.default_rng(5).normal(size=(1, 3, 8, 8)))
        out_a = supernet(x, _one_hot_gates(tiny_space, [0, 0, 0])).data
        out_b = supernet(x, _one_hot_gates(tiny_space, [5, 5, 5])).data
        supernet.train()
        assert not np.allclose(out_a, out_b)


class TestDerivedNetwork:
    def test_forward_shape(self, tiny_space):
        network = DerivedNetwork(tiny_space, [0, 3, 6], rng=0)
        out = network(Tensor(np.random.default_rng(0).normal(size=(4, 3, 8, 8))))
        assert out.shape == (4, tiny_space.num_classes)

    def test_zero_layers_reduce_parameter_count(self, tiny_space):
        zero_index = op_index("zero")
        all_zero = DerivedNetwork(tiny_space, [zero_index] * 3, rng=0)
        all_conv = DerivedNetwork(tiny_space, [op_index("mbconv7_e6")] * 3, rng=0)
        assert all_zero.num_parameters() < all_conv.num_parameters()

    def test_invalid_indices_rejected(self, tiny_space):
        with pytest.raises(ValueError):
            DerivedNetwork(tiny_space, [0, 1], rng=0)

    def test_training_improves_over_initial_accuracy(self, tiny_space):
        from repro.core import ClassifierTrainingConfig, evaluate_classifier, train_classifier
        from repro.data import make_cifar_like, train_val_split

        dataset = make_cifar_like(num_samples=120, resolution=8, rng=0)
        train_set, val_set = train_val_split(dataset, val_fraction=0.3, rng=1)
        network = DerivedNetwork(tiny_space, [1, 1, 1], rng=2)
        initial = evaluate_classifier(network, val_set)
        final = train_classifier(
            network, train_set, val_set, ClassifierTrainingConfig(epochs=3, batch_size=16), rng=3
        )
        assert final >= initial

    def test_non_finite_training_loss_raises_before_any_step(self, tiny_space):
        from repro.autograd import NonFiniteLossError
        from repro.core import ClassifierTrainingConfig, train_classifier
        from repro.data import make_cifar_like, train_val_split

        dataset = make_cifar_like(num_samples=40, resolution=8, rng=0)
        train_set, val_set = train_val_split(dataset, val_fraction=0.25, rng=1)
        train_set.images[...] = np.nan
        network = DerivedNetwork(tiny_space, [1, 1, 1], rng=2)
        before = [param.data.copy() for param in network.parameters()]
        with pytest.raises(NonFiniteLossError) as caught:
            train_classifier(
                network, train_set, val_set, ClassifierTrainingConfig(epochs=2, batch_size=16), rng=3
            )
        error = caught.value
        assert (error.method, error.stage, error.epoch, error.batch) == (
            "DerivedNetwork", "training", 0, 0
        )
        assert np.isnan(error.value)
        after = [param.data for param in network.parameters()]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))


def _arch_backward(space, frozen, detach_gates=False):
    """One train-mode backward of a fixed batch through a fresh supernet."""
    supernet = SuperNet(space, rng=0)
    params = ArchitectureParameters(space, rng=1)
    gates = params.sample_gumbel(temperature=1.0, hard=True, rng=2)
    if detach_gates:
        gates = gates.detach()
    x = Tensor(np.random.default_rng(3).normal(size=(4, 3, 8, 8)))
    scope = supernet.frozen() if frozen else contextlib.nullcontext()
    with scope:
        loss = cross_entropy(supernet(x, gates), np.array([0, 1, 2, 3]))
        loss.backward()
    return supernet, params, gates


class TestFrozenArchStep:
    """The searchers' architecture step: supernet frozen through the backward."""

    def test_sampled_path_runs_convolutions_after_the_first_position(self, tiny_space):
        _, _, gates = _arch_backward(tiny_space, frozen=True)
        chosen = gates.data.argmax(axis=1)
        assert any(chosen[position] != op_index("zero") for position in range(1, len(chosen)))

    def test_alpha_grad_is_bit_identical_under_frozen(self, tiny_space):
        _, reference, _ = _arch_backward(tiny_space, frozen=False)
        _, frozen, _ = _arch_backward(tiny_space, frozen=True)
        assert np.any(reference.alpha.grad != 0.0)
        assert np.array_equal(frozen.alpha.grad, reference.alpha.grad)

    def test_no_supernet_gradient_under_frozen(self, tiny_space):
        supernet, _, _ = _arch_backward(tiny_space, frozen=True)
        assert all(param.grad is None for param in supernet.parameters())
        assert all(param.requires_grad for param in supernet.parameters())

    def test_detached_gates_keep_weight_grads_and_build_no_alpha_grad(self, tiny_space):
        reference, _, _ = _arch_backward(tiny_space, frozen=False)
        detached, params, _ = _arch_backward(tiny_space, frozen=False, detach_gates=True)
        assert params.alpha.grad is None
        for (name, ref), (_, param) in zip(
            reference.named_parameters(), detached.named_parameters()
        ):
            assert (ref.grad is None) == (param.grad is None), name
            if ref.grad is not None:
                assert np.array_equal(param.grad, ref.grad), name

    def test_frozen_restores_flags_when_the_body_raises(self, tiny_space):
        supernet = SuperNet(tiny_space, rng=0)
        with pytest.raises(RuntimeError):
            with supernet.frozen():
                assert not any(param.requires_grad for param in supernet.parameters())
                raise RuntimeError("boom")
        assert all(param.requires_grad for param in supernet.parameters())

    def test_frozen_leaves_an_already_frozen_module_frozen(self, tiny_space):
        supernet = SuperNet(tiny_space, rng=0)
        supernet.stem.freeze()
        with supernet.frozen():
            pass
        assert not any(param.requires_grad for param in supernet.stem.parameters())
        assert all(param.requires_grad for param in supernet.head.parameters())
        with supernet.stem.frozen():
            pass
        assert not any(param.requires_grad for param in supernet.stem.parameters())
