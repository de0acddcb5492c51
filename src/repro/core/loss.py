"""The combined co-exploration loss (Eq. 1 of the paper).

``Loss = Loss_CE + lambda_1 * ||w|| + lambda_2 * Cost_HW``

* ``Loss_CE`` — cross-entropy of the sampled supernet path on the batch;
* ``||w||`` — weight-decay term over the supernet weights (following
  ProxylessNAS it is applied through the weight optimiser rather than
  materialised, but an explicit penalty is also available);
* ``Cost_HW`` — the differentiable hardware cost produced by the frozen
  evaluator from the current architecture probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.core.cost_functions import HardwareCostFunction


@dataclass
class LossBreakdown:
    """The individual terms of one combined-loss evaluation (floats, for logging)."""

    cross_entropy: float
    weight_decay: float
    hardware_cost: float
    lambda_2: float

    @property
    def total(self) -> float:
        """Total scalar loss value."""
        return self.cross_entropy + self.weight_decay + self.lambda_2 * self.hardware_cost


class CoExplorationLoss:
    """Builds the combined differentiable loss of Eq. 1.

    Parameters
    ----------
    cost_function:
        Scalarisation of the evaluator's predicted metrics (Eq. 3 or Eq. 4).
    lambda_1:
        Explicit weight-decay coefficient.  Set to zero when weight decay is
        handled inside the optimiser (the default, as in the paper's recipe).
    label_smoothing:
        Label smoothing used in the cross-entropy term (0.1 in the paper).
    cost_normalizer:
        Optional constant the hardware cost is divided by, so that
        ``lambda_2`` values are comparable across cost functions with very
        different magnitudes (EDAP vs linear).
    task_head:
        The task's :class:`~repro.tasks.heads.TaskHead` computing the
        task-loss term; ``None`` keeps the historical label-smoothed
        cross-entropy (the classification head's loss).
    """

    def __init__(
        self,
        cost_function: HardwareCostFunction,
        lambda_1: float = 0.0,
        label_smoothing: float = 0.1,
        cost_normalizer: float = 1.0,
        task_head=None,
    ) -> None:
        if cost_normalizer <= 0:
            raise ValueError("cost_normalizer must be positive")
        from repro.tasks.heads import resolve_head

        self.cost_function = cost_function
        self.lambda_1 = lambda_1
        self.label_smoothing = label_smoothing
        self.cost_normalizer = cost_normalizer
        self.task_head = resolve_head(task_head)

    def weight_norm(self, parameters: Iterable[Tensor]) -> Tensor:
        """Sum of squared parameter norms (the ``||w||`` term)."""
        total: Optional[Tensor] = None
        for parameter in parameters:
            contribution = (parameter * parameter).sum()
            total = contribution if total is None else total + contribution
        if total is None:
            return Tensor(0.0)
        return total

    def __call__(
        self,
        logits: Tensor,
        targets: np.ndarray,
        predicted_metrics: Tensor,
        lambda_2: float,
        weight_parameters: Optional[Iterable[Tensor]] = None,
    ) -> Tensor:
        """Assemble the differentiable combined loss for one step."""
        loss = self.task_head.loss(logits, targets, label_smoothing=self.label_smoothing)
        if self.lambda_1 > 0.0 and weight_parameters is not None:
            loss = loss + self.weight_norm(weight_parameters) * self.lambda_1
        hardware_cost = self.cost_function(predicted_metrics) * (1.0 / self.cost_normalizer)
        return loss + hardware_cost * lambda_2

    def breakdown(
        self,
        logits: Tensor,
        targets: np.ndarray,
        predicted_metrics: Tensor,
        lambda_2: float,
        weight_parameters: Optional[Iterable[Tensor]] = None,
    ) -> LossBreakdown:
        """Detached per-term values (for logging / tests)."""
        ce = self.task_head.loss(logits, targets, label_smoothing=self.label_smoothing).item()
        wd = 0.0
        if self.lambda_1 > 0.0 and weight_parameters is not None:
            wd = self.lambda_1 * self.weight_norm(weight_parameters).item()
        hw = self.cost_function(predicted_metrics).item() / self.cost_normalizer
        return LossBreakdown(cross_entropy=ce, weight_decay=wd, hardware_cost=hw, lambda_2=lambda_2)
