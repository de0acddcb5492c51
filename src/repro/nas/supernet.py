"""The trainable over-parameterised supernet.

Every searchable position holds all candidate operations in parallel (a
:class:`MixedOp`), plus the always-present skip connection.  During search a
(near) one-hot gate vector per position — produced by
:class:`~repro.nas.arch_params.ArchitectureParameters` — selects which
candidate's output reaches the next layer; because the gate participates in
the forward computation, gradients flow back into the architecture logits.

The supernet is built at the search space's *trainable* dimensions (reduced
width and resolution) so CPU training is feasible; the hardware cost is
always computed at the nominal dimensions elsewhere.

:meth:`MixedOp.forward` runs one candidate per non-zero gate, in candidate
order, and sums the gated outputs with the skip path.  The searchers sample
hard (one-hot) Gumbel gates, so a search step runs exactly one candidate per
position; soft gates (several non-zero entries) run every active candidate
through the same loop.

The network's output end is owned by the search space's
:class:`~repro.tasks.heads.TaskHead` (classification by default, multi-branch
detection, ...), and the stem/head convolutions follow the space's geometry
(``"2d"`` square images or ``"1d"`` sequences).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.conv import BatchNorm2d, Conv2d
from repro.autograd.layers import ReLU, Sequential
from repro.autograd.module import Module
from repro.autograd.tensor import Tensor, as_tensor
from repro.nas.operations import SkipConnection, build_op_module
from repro.nas.search_space import FixedLayerConfig, NASSearchSpace, SearchableLayerConfig
from repro.utils.seeding import as_rng


def _fixed_conv(cfg: FixedLayerConfig, geometry: str, rng) -> Sequential:
    """Conv + BN + ReLU of a fixed (stem/head) layer at trainable dimensions."""
    kernel: Union[int, Tuple[int, int]] = cfg.kernel_size
    padding: Union[int, Tuple[int, int]] = cfg.kernel_size // 2
    if geometry == "1d":
        kernel = (1, cfg.kernel_size)
        padding = (0, cfg.kernel_size // 2)
    return Sequential(
        Conv2d(
            cfg.trainable_in_channels,
            cfg.trainable_out_channels,
            kernel,
            stride=cfg.stride,
            padding=padding,
            bias=False,
            rng=rng,
        ),
        BatchNorm2d(cfg.trainable_out_channels),
        ReLU(),
    )


class MixedOp(Module):
    """All candidate operations of one searchable position, gated by weights."""

    def __init__(
        self,
        layer_cfg: SearchableLayerConfig,
        search_space: NASSearchSpace,
        rng: Optional[Union[int, np.random.Generator]] = None,
    ) -> None:
        super().__init__()
        generator = as_rng(rng)
        self.layer_cfg = layer_cfg
        self.num_ops = search_space.num_ops
        self.candidates = Sequential(
            *[
                build_op_module(
                    op,
                    in_channels=layer_cfg.trainable_in_channels,
                    out_channels=layer_cfg.trainable_out_channels,
                    stride=layer_cfg.stride,
                    rng=generator,
                )
                for op in search_space.candidate_ops
            ]
        )
        self.skip = SkipConnection(
            layer_cfg.trainable_in_channels,
            layer_cfg.trainable_out_channels,
            stride=layer_cfg.stride,
            rng=generator,
        )

    def forward(self, x: Tensor, gates: Tensor) -> Tensor:  # noqa: D102
        """Apply the gated mixture of candidates plus the skip path.

        Parameters
        ----------
        x:
            Input activations (NCHW).
        gates:
            1-D tensor of length ``num_ops``.  With a hard Gumbel sample it is
            one-hot, so only one candidate contributes in the forward pass;
            candidates whose gate is exactly zero are skipped entirely to
            save compute.  In the searchers' architecture steps the gate
            multiplication keeps the architecture logits on the gradient
            path; their weight steps pass detached gates, so the product is
            the same but no logit gradient is built.  Soft gates (several
            non-zero entries) run every active candidate.
        """
        x = as_tensor(x)
        gate_values = gates.data.reshape(-1)
        output: Optional[Tensor] = None
        for op_index in range(self.num_ops):
            if gate_values[op_index] == 0.0:
                # Hard one-hot sample: unused candidates are skipped (their
                # gradient contribution is zero anyway because the gate
                # multiplies the output).
                continue
            candidate_out = self.candidates[op_index](x)
            gated = candidate_out * gates[op_index]
            output = gated if output is None else output + gated
        skip_out = self.skip(x)
        if output is None:
            return skip_out
        return output + skip_out


class SuperNet(Module):
    """Stem + gated searchable positions + head + task output head."""

    def __init__(
        self,
        search_space: NASSearchSpace,
        rng: Optional[Union[int, np.random.Generator]] = None,
    ) -> None:
        super().__init__()
        generator = as_rng(rng)
        self.search_space = search_space
        self.task_head = search_space.output_head
        self.stem = _fixed_conv(search_space.stem, search_space.geometry, generator)
        self.mixed_ops = Sequential(
            *[MixedOp(layer_cfg, search_space, rng=generator) for layer_cfg in search_space.searchable_layers]
        )
        self.head = _fixed_conv(search_space.head, search_space.geometry, generator)
        self.output_module = self.task_head.build_module(search_space, rng=generator)

    def forward(self, x: Tensor, gates: Tensor) -> Tensor:  # noqa: D102
        """Run the supernet under per-position gate vectors of shape (positions, ops)."""
        x = as_tensor(x)
        if gates.shape != (self.search_space.num_searchable, self.search_space.num_ops):
            raise ValueError(
                f"gates must have shape {(self.search_space.num_searchable, self.search_space.num_ops)}, "
                f"got {gates.shape}"
            )
        out = self.stem(x)
        for position in range(self.search_space.num_searchable):
            out = self.mixed_ops[position](out, gates[position])
        out = self.head(out)
        return self.output_module(out)

    def forward_discrete(self, x: Tensor, op_indices: Sequence[int]) -> Tensor:
        """Run only the chosen candidates (inference of a derived architecture)."""
        indices = self.search_space.validate_indices(op_indices)
        gates = np.zeros((self.search_space.num_searchable, self.search_space.num_ops))
        gates[np.arange(indices.shape[0]), indices] = 1.0
        return self.forward(x, Tensor(gates))

    def weight_parameters(self) -> List:
        """All supernet weights (the parameters updated by the weight optimiser)."""
        return self.parameters()


class DerivedNetwork(Module):
    """A stand-alone network instantiated from a discrete architecture choice.

    After the search, the paper retrains the derived architecture from
    scratch; this class is that final network (at trainable dimensions).
    """

    def __init__(
        self,
        search_space: NASSearchSpace,
        op_indices: Sequence[int],
        rng: Optional[Union[int, np.random.Generator]] = None,
    ) -> None:
        super().__init__()
        generator = as_rng(rng)
        self.search_space = search_space
        self.task_head = search_space.output_head
        self.op_indices = search_space.validate_indices(op_indices)
        self.stem = _fixed_conv(search_space.stem, search_space.geometry, generator)
        blocks: List[Module] = []
        for position, layer_cfg in enumerate(search_space.searchable_layers):
            op = search_space.candidate_ops[int(self.op_indices[position])]
            blocks.append(
                _DerivedBlock(
                    op_module=build_op_module(
                        op,
                        in_channels=layer_cfg.trainable_in_channels,
                        out_channels=layer_cfg.trainable_out_channels,
                        stride=layer_cfg.stride,
                        rng=generator,
                    ),
                    skip=SkipConnection(
                        layer_cfg.trainable_in_channels,
                        layer_cfg.trainable_out_channels,
                        stride=layer_cfg.stride,
                        rng=generator,
                    ),
                    is_zero=op.is_zero,
                )
            )
        self.blocks = Sequential(*blocks)
        self.head = _fixed_conv(search_space.head, search_space.geometry, generator)
        self.output_module = self.task_head.build_module(search_space, rng=generator)

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        out = self.stem(as_tensor(x))
        for block in self.blocks:
            out = block(out)
        out = self.head(out)
        return self.output_module(out)


class _DerivedBlock(Module):
    """One position of a derived network: chosen op (or nothing) plus skip."""

    def __init__(self, op_module: Module, skip: SkipConnection, is_zero: bool) -> None:
        super().__init__()
        self.op_module = op_module
        self.skip = skip
        self.is_zero = is_zero

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        skip_out = self.skip(x)
        if self.is_zero:
            return skip_out
        return self.op_module(x) + skip_out
