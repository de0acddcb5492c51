"""Neural-network layers used across the evaluator networks and supernet.

The evaluator network in the paper is built from five-layer residual MLPs
with ReLU activations and batch normalisation; this module provides those
bricks (Linear, BatchNorm1d, Dropout, ReLU, Sequential, ResidualMLPBlock,
MLP) on top of the autograd engine.

The :mod:`repro.autograd.precision` policy extends here: at the float64
default every layer runs the original graph expression verbatim (the
bit-identity regime); under the opt-in float32 policy ``Linear`` collapses
to one fused matmul+bias node and ``BatchNorm1d`` training statistics run
through the fused closed-form batch-norm node shared with ``BatchNorm2d``
(tolerance-equal, like every float32 fast form).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

import numpy as np

from repro.autograd import init
from repro.autograd.conv import batchnorm_train_fused
from repro.autograd.functional import relu, softmax
from repro.autograd.module import Module, Parameter
from repro.autograd.precision import is_fast_dtype
from repro.autograd.tensor import Tensor, as_tensor
from repro.utils.seeding import as_rng


class Identity(Module):
    """Pass-through layer."""

    # No node, so no backward to read anything.
    backward_reads_input = False

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        return as_tensor(x)


def _linear_fused(x: Tensor, weight: Tensor, bias: Optional[Tensor]) -> Tensor:
    """``x @ W.T + b`` as one autograd node (float32 fast path).

    The graph form builds three nodes (transpose, matmul, add) whose
    backward transposes the weight gradient through an extra copy; the fused
    backward writes ``grad.T @ x`` / ``grad @ W`` directly.  Same math as
    the graph path — only the rounding order differs, hence float32-only.
    """
    out_data = x.data @ weight.data.T
    if bias is not None:
        out_data += bias.data
    dtype = out_data.dtype

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=dtype)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=0))
        if weight.requires_grad:
            weight._accumulate(grad.T @ x.data)
        if x.requires_grad:
            x._accumulate(grad @ weight.data)

    parents = (x, weight) + ((bias,) if bias is not None else ())
    return Tensor._make(out_data, parents, backward)


class Linear(Module):
    """Fully-connected layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[Union[int, np.random.Generator]] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        generator = as_rng(rng)
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), fan_in=in_features, rng=generator),
            name="weight",
        )
        if bias:
            bound = 1.0 / np.sqrt(in_features)
            self.bias: Optional[Parameter] = Parameter(
                generator.uniform(-bound, bound, size=(out_features,)), name="bias"
            )
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        x = as_tensor(x)
        fast_arrays = (x.data, self.weight.data) + (
            (self.bias.data,) if self.bias is not None else ()
        )
        if x.data.ndim == 2 and is_fast_dtype(*fast_arrays):
            return _linear_fused(x, self.weight, self.bias)
        out = x.matmul(self.weight.T)
        if self.bias is not None:
            out = out + self.bias
        return out


class ReLU(Module):
    """ReLU activation as a module (so it can sit inside a Sequential)."""

    # The backward multiplies by the saved mask.
    backward_reads_input = False

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        return relu(x)


class Softmax(Module):
    """Softmax along the final axis."""

    def __init__(self, axis: int = -1) -> None:
        super().__init__()
        self.axis = axis

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        return softmax(x, axis=self.axis)


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float = 0.5, rng: Optional[Union[int, np.random.Generator]] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = as_rng(rng)

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        x = as_tensor(x)
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        # The mask follows the input dtype so float32 activations are not
        # silently promoted back to float64 by the multiply.
        mask = (self._rng.uniform(size=x.shape) < keep).astype(x.data.dtype) / keep
        return x * Tensor(mask)


class BatchNorm1d(Module):
    """Batch normalisation over the feature dimension of a 2-D input."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.weight = Parameter(init.ones((num_features,)), name="weight")
        self.bias = Parameter(init.zeros((num_features,)), name="bias")
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def _update_running(self, batch_mean: np.ndarray, batch_var: np.ndarray) -> None:
        self._buffers["running_mean"][...] = (
            (1 - self.momentum) * self._buffers["running_mean"] + self.momentum * batch_mean
        )
        self._buffers["running_var"][...] = (
            (1 - self.momentum) * self._buffers["running_var"] + self.momentum * batch_var
        )

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        x = as_tensor(x)
        if x.ndim != 2:
            raise ValueError(f"BatchNorm1d expects a 2-D input, got shape {x.shape}")
        if self.training:
            if is_fast_dtype(x.data):
                out, batch_mean, batch_var = batchnorm_train_fused(
                    x, self.weight, self.bias, (0,), self.eps
                )
                self._update_running(batch_mean.reshape(-1), batch_var.reshape(-1))
                return out
            mean = x.mean(axis=0, keepdims=True)
            var = x.var(axis=0, keepdims=True)
            self._update_running(mean.data.reshape(-1), var.data.reshape(-1))
        else:
            mean = Tensor(self._buffers["running_mean"].reshape(1, -1))
            var = Tensor(self._buffers["running_var"].reshape(1, -1))
        normalised = (x - mean) / (var + self.eps) ** 0.5
        return normalised * self.weight + self.bias


class Sequential(Module):
    """Chain of modules applied in order.

    The forward releases each interior output (:meth:`Tensor.release_data`)
    once the next layer has consumed it, if that layer declares that its
    backward never reads its input (``backward_reads_input = False``) and
    the output is a graph node: a conv output feeding ``BatchNorm2d`` and a
    ``BatchNorm2d`` output feeding ``ReLU`` are dead as soon as the next
    node has saved what its backward needs.  The chain's input and the
    final output are never released, nor is an output a layer returned
    unchanged as its own input.
    """

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._layers: List[Module] = []
        for index, module in enumerate(modules):
            self.add_module(str(index), module)
            self._layers.append(module)

    def append(self, module: Module) -> "Sequential":
        """Add a module to the end of the chain."""
        self.add_module(str(len(self._layers)), module)
        self._layers.append(module)
        return self

    def __iter__(self):
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, index: int) -> Module:
        return self._layers[index]

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        source = out = as_tensor(x)
        for layer in self._layers:
            previous, out = out, layer(out)
            if (
                not layer.backward_reads_input
                and previous._backward is not None
                and previous is not source
                and out is not previous
            ):
                previous.release_data()
        return out


class ResidualMLPBlock(Module):
    """``y = act(BN(Wx + b)) + x`` — the residual brick of the evaluator nets.

    The paper adds residual connections between the layers of both the
    hardware generation and cost estimation networks "to increase the
    accuracy ... and establish the gradient path towards the network under
    search".  Batch-norm is optional because the hardware generation network
    does not use it while the cost estimation network does.
    """

    def __init__(
        self,
        features: int,
        use_batchnorm: bool = True,
        activation: Optional[Callable[[Tensor], Tensor]] = relu,
        rng: Optional[Union[int, np.random.Generator]] = None,
    ) -> None:
        super().__init__()
        self.linear = Linear(features, features, rng=rng)
        self.norm: Module = BatchNorm1d(features) if use_batchnorm else Identity()
        self.activation = activation if activation is not None else (lambda value: value)

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        x = as_tensor(x)
        out = self.activation(self.norm(self.linear(x)))
        return out + x


class MLP(Module):
    """Configurable multi-layer perceptron with optional residual hidden blocks.

    Parameters
    ----------
    in_features / out_features:
        Input and output widths.
    hidden_features:
        Width of every hidden layer.
    num_layers:
        Total number of Linear layers (including input projection and output
        head).  The paper uses five-layer perceptrons for both evaluator
        components.
    use_batchnorm:
        Insert BatchNorm1d after each hidden Linear.
    residual:
        Use :class:`ResidualMLPBlock` for the hidden layers.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        hidden_features: int = 128,
        num_layers: int = 5,
        use_batchnorm: bool = False,
        residual: bool = True,
        dropout: float = 0.0,
        rng: Optional[Union[int, np.random.Generator]] = None,
    ) -> None:
        super().__init__()
        if num_layers < 2:
            raise ValueError("MLP needs at least an input projection and an output head")
        generator = as_rng(rng)
        layers: List[Module] = [Linear(in_features, hidden_features, rng=generator)]
        if use_batchnorm:
            layers.append(BatchNorm1d(hidden_features))
        layers.append(ReLU())
        for _ in range(num_layers - 2):
            if residual:
                layers.append(
                    ResidualMLPBlock(hidden_features, use_batchnorm=use_batchnorm, rng=generator)
                )
            else:
                layers.append(Linear(hidden_features, hidden_features, rng=generator))
                if use_batchnorm:
                    layers.append(BatchNorm1d(hidden_features))
                layers.append(ReLU())
            if dropout > 0.0:
                layers.append(Dropout(dropout, rng=generator))
        layers.append(Linear(hidden_features, out_features, rng=generator))
        self.body = Sequential(*layers)
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        return self.body(x)
