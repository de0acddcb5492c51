"""Module / Parameter abstractions, mirroring the familiar torch.nn API.

A :class:`Module` owns :class:`Parameter` tensors and child modules, exposes
``parameters()`` for optimisers, ``train()``/``eval()`` mode switching (used
by batch-norm and dropout), and a ``state_dict``/``load_state_dict`` pair for
checkpointing evaluator networks between the training and search phases.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.autograd.precision import default_dtype
from repro.autograd.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural network modules."""

    #: Whether the backward of this module's forward graph reads its input
    #: tensor's ``data``.  A module whose backward reads only what its own
    #: nodes saved (a mask, centred activations) sets this to ``False``, and
    #: :class:`~repro.autograd.layers.Sequential` then releases the array of
    #: an interior output as soon as this module has consumed it.
    backward_reads_input: bool = True

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training: bool = True

    # ------------------------------------------------------------------
    # Attribute registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable array (e.g. batch-norm running stats).

        Buffers are stored in the precision policy's dtype so a float32
        experiment keeps its running statistics in float32 alongside the
        parameters.
        """
        self._buffers[name] = np.ascontiguousarray(value, dtype=default_dtype())
        object.__setattr__(self, name, self._buffers[name])

    def add_module(self, name: str, module: "Module") -> None:
        """Register a child module under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """Return all trainable parameters of this module and its children."""
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(name, parameter)`` pairs, depth-first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Yield ``(name, buffer)`` pairs, depth-first."""
        for name, buffer in self._buffers.items():
            yield (f"{prefix}{name}", buffer)
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix=f"{prefix}{child_name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def children(self) -> Iterator["Module"]:
        """Yield immediate child modules."""
        yield from self._modules.values()

    # ------------------------------------------------------------------
    # Train / eval and gradient bookkeeping
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects batch-norm / dropout)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients of all parameters."""
        for param in self.parameters():
            param.zero_grad()

    def freeze(self) -> "Module":
        """Disable gradient tracking on every parameter.

        The evaluator network is frozen during co-exploration (Section 3.2):
        it only relays gradients from the hardware cost to the architecture
        parameters, its own weights never change.
        """
        for param in self.parameters():
            param.requires_grad = False
        return self

    def unfreeze(self) -> "Module":
        """Re-enable gradient tracking on every parameter."""
        for param in self.parameters():
            param.requires_grad = True
        return self

    @contextmanager
    def frozen(self) -> Iterator["Module"]:
        """Disable gradient tracking for the block, then restore each flag.

        The searchers' architecture steps run forward *and* backward inside
        it: the conv / linear / batch-norm backward closures read
        ``requires_grad`` when they run, so only the architecture logits
        receive gradients.  A parameter that was already frozen stays so.
        """
        params = self.parameters()
        previous = [param.requires_grad for param in params]
        for param in params:
            param.requires_grad = False
        try:
            yield self
        finally:
            for param, flag in zip(params, previous):
                param.requires_grad = flag

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat mapping of parameter / buffer names to arrays."""
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buffer in self.named_buffers():
            state[f"buffer:{name}"] = np.asarray(buffer).copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load arrays produced by :meth:`state_dict` (shapes must match)."""
        params = dict(self.named_parameters())
        buffer_owners = self._collect_buffer_owners()
        for name, value in state.items():
            if name.startswith("buffer:"):
                buffer_name = name[len("buffer:"):]
                if buffer_name not in buffer_owners:
                    raise KeyError(f"unknown buffer {buffer_name!r}")
                owner, local_name = buffer_owners[buffer_name]
                current = owner._buffers[local_name]
                if current.shape != np.asarray(value).shape:
                    raise ValueError(
                        f"shape mismatch for buffer {buffer_name!r}: "
                        f"{current.shape} vs {np.asarray(value).shape}"
                    )
                # In-place write in the buffer's own dtype: existing views
                # (e.g. BatchNorm2d's cached eval-mode stats) stay valid.
                owner._buffers[local_name][...] = np.asarray(value, dtype=current.dtype)
            else:
                if name not in params:
                    raise KeyError(f"unknown parameter {name!r}")
                if params[name].data.shape != np.asarray(value).shape:
                    raise ValueError(
                        f"shape mismatch for parameter {name!r}: "
                        f"{params[name].data.shape} vs {np.asarray(value).shape}"
                    )
                params[name].data[...] = np.asarray(value, dtype=params[name].data.dtype)

    def _collect_buffer_owners(self, prefix: str = "") -> Dict[str, Tuple["Module", str]]:
        owners: Dict[str, Tuple[Module, str]] = {}
        for name in self._buffers:
            owners[f"{prefix}{name}"] = (self, name)
        for child_name, child in self._modules.items():
            owners.update(child._collect_buffer_owners(prefix=f"{prefix}{child_name}."))
        return owners

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return int(sum(param.data.size for param in self.parameters()))

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        """Compute the module output; subclasses must override."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
