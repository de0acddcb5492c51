"""Shared training / evaluation helpers for classifier networks.

Both the final-architecture retraining step of every search method and the
per-candidate training of the RL comparator use the same plain supervised
loop, so it lives here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.autograd.functional import check_finite_loss
from repro.autograd.module import Module
from repro.autograd.optim import SGD
from repro.autograd.scheduler import CosineAnnealingLR
from repro.autograd.tensor import Tensor, no_grad
from repro.data.loaders import DataLoader
from repro.data.synthetic import ImageClassificationDataset
from repro.tasks.heads import TaskHead, resolve_head
from repro.utils.seeding import as_rng


def network_head(network: Module) -> TaskHead:
    """The task head a network was built with (classification by default).

    :class:`~repro.nas.supernet.SuperNet` and
    :class:`~repro.nas.supernet.DerivedNetwork` carry their search space's
    head as ``task_head``; plain classifier modules fall back to the
    classification head, preserving the historical behaviour.
    """
    return resolve_head(getattr(network, "task_head", None))


@dataclass
class ClassifierTrainingConfig:
    """Hyper-parameters for training a (derived) classifier network."""

    epochs: int = 8
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-3
    label_smoothing: float = 0.1
    nesterov: bool = True


def evaluate_classifier(
    network: Module, dataset: ImageClassificationDataset, batch_size: int = 64
) -> float:
    """Top-1 class accuracy of ``network`` on ``dataset`` (evaluation mode).

    The network's task head extracts predictions and ground-truth labels, so
    the same loop scores plain classifiers and multi-output heads (e.g.
    detection, where accuracy is measured on the class branch).
    """
    head = network_head(network)
    was_training = network.training
    network.eval()
    correct = 0
    total = 0
    try:
        with no_grad():
            for start in range(0, len(dataset), batch_size):
                stop = min(start + batch_size, len(dataset))
                images = dataset.images[start:stop]
                targets = dataset.targets(np.arange(start, stop))
                outputs = network(Tensor(images))
                correct += head.correct_count(outputs, targets)
                total += stop - start
    finally:
        network.train(was_training)
    return correct / max(total, 1)


def train_classifier(
    network: Module,
    train_set: ImageClassificationDataset,
    val_set: ImageClassificationDataset,
    config: Optional[ClassifierTrainingConfig] = None,
    rng: Optional[Union[int, np.random.Generator]] = None,
) -> float:
    """Train ``network`` from its current state and return final validation accuracy.

    Follows the paper's final-training recipe shape: SGD with Nesterov
    momentum, cosine learning-rate schedule, weight decay and label
    smoothing — at reduced epoch counts.

    Raises :class:`~repro.autograd.functional.NonFiniteLossError`, naming the
    network class, epoch and batch, on a NaN/inf loss — before the optimiser
    step, so the parameters are left as they were.
    """
    config = config or ClassifierTrainingConfig()
    head = network_head(network)
    generator = as_rng(rng)
    loader = DataLoader(train_set, batch_size=config.batch_size, shuffle=True, rng=generator)
    optimizer = SGD(
        network.parameters(),
        lr=config.lr,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
        nesterov=config.nesterov,
    )
    scheduler = CosineAnnealingLR(optimizer, t_max=max(config.epochs, 1))
    network.train()
    for epoch in range(config.epochs):
        scheduler.step(epoch)
        for batch, (images, targets) in enumerate(loader):
            outputs = network(Tensor(images))
            loss = head.loss(outputs, targets, label_smoothing=config.label_smoothing)
            check_finite_loss(loss, type(network).__name__, "training", epoch, batch)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
    return evaluate_classifier(network, val_set)
