"""Training loops for the evaluator networks (Section 4.2 recipes, scaled).

The paper trains the cost estimation network with Adam (lr 1e-4, batch 256,
200 epochs) on 1.8 M oracle samples and the hardware generation network with
SGD (batch 128, lr 1e-3 decayed 0.1x every 50 epochs) on 50 K samples.  The
loops below follow the same recipes with configurable (smaller) sample
counts and epochs so they run in seconds on a CPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.autograd.functional import check_finite_loss, cross_entropy, msre_loss
from repro.autograd.optim import Adam, SGD
from repro.autograd.scheduler import StepLR
from repro.autograd.tensor import Tensor
from repro.evaluator.cost_estimation_net import CostEstimationNetwork
from repro.evaluator.dataset import EvaluatorDataset
from repro.evaluator.evaluator import Evaluator
from repro.evaluator.hw_generation_net import HardwareGenerationNetwork
from repro.utils.logging import get_logger
from repro.utils.seeding import as_rng

logger = get_logger("evaluator.training")


@dataclass
class TrainingHistory:
    """Loss curve plus final validation accuracies for one training run."""

    losses: List[float] = field(default_factory=list)
    accuracies: Dict[str, float] = field(default_factory=dict)

    @property
    def final_loss(self) -> float:
        """Last recorded epoch loss (NaN when no epochs ran)."""
        return self.losses[-1] if self.losses else float("nan")


def train_hw_generation_network(
    network: HardwareGenerationNetwork,
    train_data: EvaluatorDataset,
    val_data: Optional[EvaluatorDataset] = None,
    epochs: int = 60,
    batch_size: int = 128,
    lr: float = 1e-3,
    lr_step: int = 50,
    rng: Optional[Union[int, np.random.Generator]] = None,
) -> TrainingHistory:
    """Train the hardware generation network as a per-field classifier (CE loss).

    Raises :class:`~repro.autograd.functional.NonFiniteLossError` on a
    NaN/inf batch loss, before the optimiser step that would consume it.
    """
    generator = as_rng(rng)
    optimizer = SGD(network.parameters(), lr=lr, momentum=0.9)
    scheduler = StepLR(optimizer, step_size=lr_step, gamma=0.1)
    history = TrainingHistory()
    network.train()
    for epoch in range(epochs):
        scheduler.step(epoch)
        epoch_losses: List[float] = []
        for batch, batch_indices in enumerate(train_data.batches(batch_size, rng=generator)):
            arch = Tensor(train_data.arch_encodings[batch_indices])
            logits = network(arch)
            loss = None
            for field_name in network.field_order:
                targets = train_data.hw_class_indices[field_name][batch_indices]
                field_loss = cross_entropy(logits[field_name], targets)
                loss = field_loss if loss is None else loss + field_loss
            check_finite_loss(loss, "Evaluator", "hardware-generation", epoch, batch)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        history.losses.append(float(np.mean(epoch_losses)))
    network.eval()
    evaluation_data = val_data if val_data is not None else train_data
    history.accuracies = network.field_accuracy(
        evaluation_data.arch_encodings, evaluation_data.hw_class_indices
    )
    logger.info("HW generation network accuracies: %s", history.accuracies)
    return history


def train_cost_estimation_network(
    network: CostEstimationNetwork,
    train_data: EvaluatorDataset,
    val_data: Optional[EvaluatorDataset] = None,
    epochs: int = 80,
    batch_size: int = 256,
    lr: float = 1e-3,
    rng: Optional[Union[int, np.random.Generator]] = None,
) -> TrainingHistory:
    """Train the cost estimation network with the MSRE loss (Eq. 2).

    Raises :class:`~repro.autograd.functional.NonFiniteLossError` on a
    NaN/inf batch loss, before the optimiser step that would consume it.
    """
    generator = as_rng(rng)
    network.calibrate(train_data.metric_targets)
    optimizer = Adam(network.parameters(), lr=lr)
    history = TrainingHistory()
    network.train()
    for epoch in range(epochs):
        epoch_losses: List[float] = []
        for batch, batch_indices in enumerate(train_data.batches(batch_size, rng=generator)):
            arch = Tensor(train_data.arch_encodings[batch_indices])
            hw = Tensor(train_data.hw_encodings[batch_indices]) if network.feature_forwarding else None
            targets = train_data.metric_targets[batch_indices]
            predictions = network(arch, hw)
            loss = msre_loss(predictions, targets)
            check_finite_loss(loss, "Evaluator", "cost-estimation", epoch, batch)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        history.losses.append(float(np.mean(epoch_losses)))
    network.eval()
    evaluation_data = val_data if val_data is not None else train_data
    history.accuracies = network.relative_accuracy(
        evaluation_data.arch_encodings,
        evaluation_data.metric_targets,
        evaluation_data.hw_encodings if network.feature_forwarding else None,
    )
    logger.info("Cost estimation network accuracies: %s", history.accuracies)
    return history


@dataclass
class EvaluatorTrainingResult:
    """Histories and Table-1-style accuracy summary for a full evaluator."""

    hw_generation_history: TrainingHistory
    cost_estimation_history: TrainingHistory
    end_to_end_accuracy: Dict[str, float]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Accuracy table mirroring the paper's Table 1 structure."""
        return {
            "hardware_generation": dict(self.hw_generation_history.accuracies),
            "cost_estimation": dict(self.cost_estimation_history.accuracies),
            "overall_evaluator": dict(self.end_to_end_accuracy),
        }


def train_evaluator(
    evaluator: Evaluator,
    train_data: EvaluatorDataset,
    val_data: Optional[EvaluatorDataset] = None,
    hw_epochs: int = 60,
    cost_epochs: int = 80,
    hw_batch_size: int = 128,
    cost_batch_size: int = 256,
    rng: Optional[Union[int, np.random.Generator]] = None,
) -> EvaluatorTrainingResult:
    """Train both halves of the evaluator and report Table-1-style accuracies."""
    generator = as_rng(rng)
    hw_history = train_hw_generation_network(
        evaluator.hw_generation,
        train_data,
        val_data,
        epochs=hw_epochs,
        batch_size=hw_batch_size,
        rng=generator,
    )
    cost_history = train_cost_estimation_network(
        evaluator.cost_estimation,
        train_data,
        val_data,
        epochs=cost_epochs,
        batch_size=cost_batch_size,
        rng=generator,
    )
    evaluation_data = val_data if val_data is not None else train_data
    end_to_end = evaluator.end_to_end_accuracy(
        evaluation_data.arch_encodings, evaluation_data.metric_targets
    )
    return EvaluatorTrainingResult(
        hw_generation_history=hw_history,
        cost_estimation_history=cost_history,
        end_to_end_accuracy=end_to_end,
    )
