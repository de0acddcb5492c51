"""Tests for Module containers, layers, convolutions, optimisers and schedulers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import (
    Adam,
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    CosineAnnealingLR,
    Dropout,
    GlobalAvgPool2d,
    Linear,
    LinearWarmup,
    MLP,
    Parameter,
    ReLU,
    ResidualMLPBlock,
    SGD,
    Sequential,
    StepLR,
    Tensor,
    cross_entropy,
)


class TestModule:
    def test_parameter_registration_and_counting(self):
        layer = Linear(4, 3)
        names = [name for name, _ in layer.named_parameters()]
        assert "weight" in names and "bias" in names
        assert layer.num_parameters() == 4 * 3 + 3

    def test_nested_module_parameters(self):
        net = Sequential(Linear(4, 8), ReLU(), Linear(8, 2))
        assert len(net.parameters()) == 4

    def test_state_dict_roundtrip(self):
        net = MLP(5, 2, hidden_features=8, num_layers=3, rng=0)
        state = net.state_dict()
        clone = MLP(5, 2, hidden_features=8, num_layers=3, rng=1)
        clone.load_state_dict(state)
        x = Tensor(np.random.default_rng(2).normal(size=(3, 5)))
        assert np.allclose(net(x).data, clone(x).data)

    def test_load_state_dict_rejects_bad_shapes(self):
        net = Linear(3, 2)
        state = net.state_dict()
        state["weight"] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_load_state_dict_rejects_unknown_keys(self):
        net = Linear(3, 2)
        with pytest.raises(KeyError):
            net.load_state_dict({"nonexistent": np.zeros(2)})

    def test_freeze_and_unfreeze(self):
        net = Linear(3, 2)
        net.freeze()
        assert all(not p.requires_grad for p in net.parameters())
        net.unfreeze()
        assert all(p.requires_grad for p in net.parameters())

    def test_train_eval_mode_propagates(self):
        net = Sequential(Linear(3, 3), BatchNorm1d(3))
        net.eval()
        assert all(not module.training for module in net.modules())
        net.train()
        assert all(module.training for module in net.modules())


class TestLinearAndMLP:
    def test_linear_output_shape(self):
        layer = Linear(6, 4)
        assert layer(Tensor(np.zeros((5, 6)))).shape == (5, 4)

    def test_linear_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_mlp_depth_validation(self):
        with pytest.raises(ValueError):
            MLP(4, 2, num_layers=1)

    def test_residual_block_preserves_shape(self):
        block = ResidualMLPBlock(8, use_batchnorm=False)
        x = Tensor(np.random.default_rng(0).normal(size=(3, 8)))
        assert block(x).shape == (3, 8)

    def test_mlp_learns_simple_mapping(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 3))
        y = (x.sum(axis=1) > 0).astype(np.int64)
        net = MLP(3, 2, hidden_features=16, num_layers=3, rng=1)
        optimizer = Adam(net.parameters(), lr=1e-2)
        for _ in range(120):
            loss = cross_entropy(net(Tensor(x)), y)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        predictions = net(Tensor(x)).data.argmax(axis=1)
        assert (predictions == y).mean() > 0.9


class TestNormalizationAndDropout:
    def test_batchnorm1d_normalises_in_training(self):
        layer = BatchNorm1d(4)
        x = Tensor(np.random.default_rng(0).normal(3.0, 2.0, size=(64, 4)))
        out = layer(x).data
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_batchnorm1d_eval_uses_running_stats(self):
        layer = BatchNorm1d(2, momentum=0.5)
        x = Tensor(np.random.default_rng(0).normal(5.0, 1.0, size=(32, 2)))
        for _ in range(20):
            layer(x)
        layer.eval()
        out = layer(Tensor(np.full((4, 2), 5.0))).data
        assert np.all(np.abs(out) < 1.0)

    def test_batchnorm1d_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            BatchNorm1d(3)(Tensor(np.zeros((2, 3, 4))))

    def test_batchnorm2d_shapes(self):
        layer = BatchNorm2d(3)
        out = layer(Tensor(np.random.default_rng(0).normal(size=(2, 3, 5, 5))))
        assert out.shape == (2, 3, 5, 5)

    def test_dropout_train_vs_eval(self):
        layer = Dropout(0.5, rng=0)
        x = Tensor(np.ones((10, 10)))
        train_out = layer(x).data
        assert np.any(train_out == 0.0)
        layer.eval()
        assert np.allclose(layer(x).data, 1.0)

    def test_dropout_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestConvolutions:
    def test_conv_output_shape_with_padding_and_stride(self):
        conv = Conv2d(3, 8, kernel_size=3, stride=2, padding=1)
        out = conv(Tensor(np.zeros((2, 3, 8, 8))))
        assert out.shape == (2, 8, 4, 4)

    def test_depthwise_conv_groups(self):
        conv = Conv2d(4, 4, kernel_size=3, padding=1, groups=4)
        out = conv(Tensor(np.zeros((1, 4, 6, 6))))
        assert out.shape == (1, 4, 6, 6)
        # Depthwise weights have a single input channel per group.
        assert conv.weight.shape == (4, 1, 3, 3)

    def test_conv_rejects_bad_groups(self):
        with pytest.raises(ValueError):
            Conv2d(3, 4, 3, groups=2)

    def test_conv_gradient_matches_numeric(self):
        rng = np.random.default_rng(0)
        conv = Conv2d(2, 3, kernel_size=3, padding=1, rng=1)
        x_data = rng.normal(size=(1, 2, 4, 4))

        def loss_value() -> float:
            return float((conv(Tensor(x_data)).data ** 2).sum())

        x = Tensor(x_data, requires_grad=True)
        out = conv(x)
        (out * out).sum().backward()
        weight = conv.weight
        eps = 1e-6
        index = (0, 0, 1, 1)
        original = weight.data[index]
        weight.data[index] = original + eps
        upper = loss_value()
        weight.data[index] = original - eps
        lower = loss_value()
        weight.data[index] = original
        numeric = (upper - lower) / (2 * eps)
        assert np.isclose(weight.grad[index], numeric, atol=1e-4)

    def test_conv_input_gradient_flows(self):
        conv = Conv2d(2, 2, 3, padding=1, rng=0)
        x = Tensor(np.random.default_rng(1).normal(size=(1, 2, 5, 5)), requires_grad=True)
        conv(x).sum().backward()
        assert x.grad is not None and x.grad.shape == (1, 2, 5, 5)

    def test_avgpool_and_global_pool(self):
        x = Tensor(np.ones((2, 3, 4, 4)))
        assert AvgPool2d(2)(x).shape == (2, 3, 2, 2)
        assert GlobalAvgPool2d()(x).shape == (2, 3)
        assert np.allclose(GlobalAvgPool2d()(x).data, 1.0)

    def test_conv_rejects_wrong_channel_count(self):
        conv = Conv2d(3, 4, 3)
        with pytest.raises(ValueError):
            conv(Tensor(np.zeros((1, 2, 5, 5))))


class TestOptimizers:
    def _quadratic_step_improves(self, optimizer_factory) -> bool:
        param = Parameter(np.array([5.0]))
        optimizer = optimizer_factory([param])
        for _ in range(60):
            loss = (param * param).sum()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        return abs(param.data[0]) < 0.5

    def test_sgd_converges_on_quadratic(self):
        assert self._quadratic_step_improves(lambda params: SGD(params, lr=0.1))

    def test_sgd_nesterov_converges(self):
        assert self._quadratic_step_improves(
            lambda params: SGD(params, lr=0.05, momentum=0.9, nesterov=True)
        )

    def test_adam_converges_on_quadratic(self):
        assert self._quadratic_step_improves(lambda params: Adam(params, lr=0.2))

    def test_weight_decay_shrinks_unused_parameter(self):
        param = Parameter(np.array([1.0]))
        optimizer = SGD([param], lr=0.1, weight_decay=0.5)
        param.grad = np.array([0.0])
        optimizer.step()
        assert param.data[0] < 1.0

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, nesterov=True)


def _reference_sgd_step(opt, params, velocity):
    """``SGD.step`` as written before its slots were allocated lazily."""
    for param in params:
        grad = param.grad
        if opt.weight_decay > 0.0:
            grad = grad + opt.weight_decay * param.data
        buf = velocity.get(id(param), np.zeros_like(param.data))
        buf = opt.momentum * buf + grad
        velocity[id(param)] = buf
        grad = grad + opt.momentum * buf if opt.nesterov else buf
        param.data -= opt.lr * grad


def _reference_adam_step(opt, params, slots, t):
    """``Adam.step`` as written before its slots were allocated lazily."""
    for param in params:
        grad = param.grad
        if opt.weight_decay > 0.0:
            grad = grad + opt.weight_decay * param.data
        m = slots.get(("m", id(param)), np.zeros_like(param.data))
        v = slots.get(("v", id(param)), np.zeros_like(param.data))
        m = opt.beta1 * m + (1 - opt.beta1) * grad
        v = opt.beta2 * v + (1 - opt.beta2) * grad * grad
        slots[("m", id(param))] = m
        slots[("v", id(param))] = v
        m_hat = m / (1 - opt.beta1**t)
        v_hat = v / (1 - opt.beta2**t)
        param.data -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)


@pytest.mark.parametrize(
    "factory",
    [
        lambda params: SGD(params, lr=0.05, momentum=0.9, nesterov=True, weight_decay=1e-3),
        lambda params: SGD(params, lr=0.05, momentum=0.9),
        lambda params: Adam(params, lr=0.01, weight_decay=1e-3),
        lambda params: Adam(params, lr=0.01),
    ],
    ids=["sgd-nesterov-decay", "sgd-momentum", "adam-decay", "adam"],
)
def test_optimizer_trajectory_matches_reference_across_a_state_dict_round_trip(factory):
    """Several steps, a checkpoint round-trip half-way, bit-equal to the reference."""
    from repro.utils.serialization import decode_state, encode_state

    rng = np.random.default_rng(50)
    shapes = [(3, 4), (5,), (2, 1, 3)]
    params = [Parameter(rng.normal(size=shape)) for shape in shapes]
    twins = [Parameter(param.data.copy()) for param in params]
    optimizer = factory(params)
    reference = factory(twins)
    slots = {}
    for step in range(1, 7):
        for param, twin in zip(params, twins):
            param.grad = rng.normal(size=param.data.shape)
            twin.grad = param.grad.copy()
        optimizer.step()
        if isinstance(reference, Adam):
            _reference_adam_step(reference, twins, slots, step)
        else:
            _reference_sgd_step(reference, twins, slots)
        for param, twin in zip(params, twins):
            assert np.array_equal(param.data, twin.data)
        if step == 3:
            state = decode_state(encode_state(optimizer.state_dict()))
            optimizer = factory(params)
            optimizer.load_state_dict(state)


class TestSchedulers:
    def test_cosine_endpoints(self):
        optimizer = SGD([Parameter(np.zeros(1))], lr=1.0)
        scheduler = CosineAnnealingLR(optimizer, t_max=10)
        assert scheduler.step(0) == pytest.approx(1.0)
        assert scheduler.step(10) == pytest.approx(0.0, abs=1e-9)

    def test_cosine_monotonically_decreases(self):
        optimizer = SGD([Parameter(np.zeros(1))], lr=1.0)
        scheduler = CosineAnnealingLR(optimizer, t_max=20)
        values = [scheduler.step(epoch) for epoch in range(21)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_step_lr_decay_schedule(self):
        optimizer = SGD([Parameter(np.zeros(1))], lr=1e-3)
        scheduler = StepLR(optimizer, step_size=50, gamma=0.1)
        assert scheduler.step(0) == pytest.approx(1e-3)
        assert scheduler.step(50) == pytest.approx(1e-4)
        assert scheduler.step(120) == pytest.approx(1e-5)

    def test_linear_warmup(self):
        optimizer = SGD([Parameter(np.zeros(1))], lr=1.0)
        scheduler = LinearWarmup(optimizer, warmup_epochs=10, start_factor=0.0)
        assert scheduler.step(0) == pytest.approx(0.0)
        assert scheduler.step(5) == pytest.approx(0.5)
        assert scheduler.step(15) == pytest.approx(1.0)
