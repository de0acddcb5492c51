"""Optimisers: SGD (with Nesterov momentum) and Adam.

The paper's recipe uses SGD with Nesterov momentum and cosine scheduling for
both the supernet weights and the baseline training, and Adam for the cost
estimation network; both are provided here.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.autograd.tensor import Tensor


class Optimizer:
    """Base class holding a parameter list and a learning rate."""

    def __init__(self, parameters: Iterable[Tensor], lr: float) -> None:
        self.parameters: List[Tensor] = [p for p in parameters]
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        """Clear the gradients of every managed parameter."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update; subclasses must override."""
        raise NotImplementedError

    def state_dict(self) -> Dict[str, object]:
        """Checkpointable optimiser state; subclasses extend this.

        Per-parameter slots (momentum buffers etc.) are keyed by the
        parameter's position in the optimiser's parameter list, which is
        stable across processes — unlike the ``id()`` keys used internally.
        """
        return {"lr": self.lr}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore state produced by :meth:`state_dict` on the same parameter list."""
        self.lr = float(state["lr"])

    def _slots_by_index(self, slots: Dict[int, np.ndarray]) -> Dict[str, np.ndarray]:
        """Re-key an ``id(param)``-indexed slot dict by parameter position."""
        return {
            str(index): slots[id(param)]
            for index, param in enumerate(self.parameters)
            if id(param) in slots
        }

    def _slots_from_index(self, state: Dict[str, np.ndarray]) -> Dict[int, np.ndarray]:
        """Inverse of :meth:`_slots_by_index`.

        Slots are restored in their parameter's dtype, so a float32 training
        run resumes with float32 momentum/variance buffers (checkpoints
        preserve dtype, making this a no-op on a same-policy resume).
        """
        return {
            id(self.parameters[int(index)]): np.asarray(
                value, dtype=self.parameters[int(index)].data.dtype
            )
            for index, value in state.items()
        }


class SGD(Optimizer):
    """Stochastic gradient descent with momentum, Nesterov and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        super().__init__(parameters, lr)
        if nesterov and momentum <= 0:
            raise ValueError("Nesterov momentum requires momentum > 0")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.nesterov = nesterov
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:  # noqa: D102
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * param.data
            if self.momentum > 0.0:
                buf = self._velocity.get(id(param))
                if buf is None:
                    buf = np.zeros_like(param.data)
                buf = self.momentum * buf + grad
                self._velocity[id(param)] = buf
                if self.nesterov:
                    grad = grad + self.momentum * buf
                else:
                    grad = buf
            param.data -= self.lr * grad

    def state_dict(self) -> Dict[str, object]:  # noqa: D102 - see Optimizer.state_dict
        state = super().state_dict()
        state["velocity"] = self._slots_by_index(self._velocity)
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:  # noqa: D102
        super().load_state_dict(state)
        self._velocity = self._slots_from_index(state["velocity"])


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba) with optional decoupled weight decay."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = float(weight_decay)
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:  # noqa: D102
        self._t += 1
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * param.data
            m = self._m.get(id(param))
            if m is None:
                m = np.zeros_like(param.data)
            v = self._v.get(id(param))
            if v is None:
                v = np.zeros_like(param.data)
            m = self.beta1 * m + (1 - self.beta1) * grad
            v = self.beta2 * v + (1 - self.beta2) * grad * grad
            self._m[id(param)] = m
            self._v[id(param)] = v
            m_hat = m / (1 - self.beta1**self._t)
            v_hat = v / (1 - self.beta2**self._t)
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> Dict[str, object]:  # noqa: D102 - see Optimizer.state_dict
        state = super().state_dict()
        state["m"] = self._slots_by_index(self._m)
        state["v"] = self._slots_by_index(self._v)
        state["t"] = self._t
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:  # noqa: D102
        super().load_state_dict(state)
        self._m = self._slots_from_index(state["m"])
        self._v = self._slots_from_index(state["v"])
        self._t = int(state["t"])
