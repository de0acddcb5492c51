"""The DANCE differentiable co-exploration loop (Section 3.2, Figure 3).

One search run alternates, within each epoch, between

* **weight steps** — sample a (near) one-hot path through the supernet with
  Gumbel-softmax (detached: no gradient reaches the logits), compute the
  cross-entropy of the sampled path on a training batch, and update the
  supernet weights; and
* **architecture steps** — on a validation batch, combine the sampled-path
  cross-entropy with ``lambda_2 * Cost_HW``, where ``Cost_HW`` is produced by
  the *frozen* differentiable evaluator from the current architecture
  probabilities, and update only the architecture parameters.  Because the
  evaluator is a neural network, the gradient of the hardware cost flows
  through it into the architecture logits — the paper's key idea.  The
  supernet is frozen (:meth:`~repro.autograd.module.Module.frozen`) through
  this step's forward and backward, so only the logits receive gradients.

A NaN or infinite weight or architecture loss raises
:class:`~repro.autograd.functional.NonFiniteLossError` before any optimiser step.

After the search, the most likely architecture is derived, a one-time exact
hardware generation is run with the oracle (as the paper does), and the
derived network is retrained from scratch to measure accuracy.

:class:`DanceSearcher` implements the shared stepwise
:class:`repro.experiments.base.Searcher` protocol: :meth:`~DanceSearcher.setup`
builds the run state, each :meth:`~DanceSearcher.step` runs one search epoch,
:meth:`~DanceSearcher.finish` derives and scores the final design, and
:meth:`~DanceSearcher.state_dict` / :meth:`~DanceSearcher.load_state_dict`
round-trip every piece of mutable state (parameters, optimiser slots, RNG
stream) so an interrupted run resumes bit-identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.autograd.functional import check_finite_loss
from repro.autograd.optim import Adam, SGD
from repro.autograd.scheduler import CosineAnnealingLR
from repro.autograd.tensor import Tensor
from repro.core.cost_functions import EDAPCostFunction, HardwareCostFunction
from repro.core.loss import CoExplorationLoss
from repro.core.results import SearchResult
from repro.core.train_utils import ClassifierTrainingConfig, train_classifier
from repro.core.warmup import LambdaWarmup
from repro.data.loaders import DataLoader
from repro.data.synthetic import ImageClassificationDataset
from repro.evaluator.evaluator import Evaluator
from repro.hwmodel.cost_model import CostTable
from repro.nas.arch_params import ArchitectureParameters
from repro.nas.derive import derive_architecture
from repro.nas.search_space import NASSearchSpace
from repro.nas.supernet import DerivedNetwork, SuperNet
from repro.utils.logging import get_logger
from repro.utils.seeding import as_rng
from repro.utils.serialization import restore_rng, rng_state

logger = get_logger("core.co_explore")


@dataclass
class DanceConfig:
    """Hyper-parameters of one DANCE search run."""

    search_epochs: int = 6
    batch_size: int = 32
    weight_lr: float = 0.025
    weight_momentum: float = 0.9
    weight_decay: float = 4e-5
    arch_lr: float = 6e-3
    lambda_2: float = 1.0
    warmup_epochs: int = 2
    gumbel_temperature: float = 1.0
    label_smoothing: float = 0.1
    arch_update_period: int = 1
    final_training: ClassifierTrainingConfig = field(default_factory=ClassifierTrainingConfig)


class DanceSearcher:
    """Runs differentiable accelerator/network co-exploration."""

    def __init__(
        self,
        search_space: NASSearchSpace,
        evaluator: Evaluator,
        cost_table: CostTable,
        cost_function: Optional[HardwareCostFunction] = None,
        config: Optional[DanceConfig] = None,
        rng: Optional[Union[int, np.random.Generator]] = None,
    ) -> None:
        self.search_space = search_space
        self.evaluator = evaluator
        self.cost_table = cost_table
        self.cost_function = cost_function or EDAPCostFunction()
        self.config = config or DanceConfig()
        self.task_head = search_space.output_head
        self.method_name = "DANCE"
        self._rng = as_rng(rng)
        self._ready = False
        # The evaluator is pre-trained and frozen during search (Section 3.2).
        self.evaluator.eval()
        self.evaluator.freeze()

    # ------------------------------------------------------------------
    # Stepwise search protocol
    # ------------------------------------------------------------------
    @property
    def num_steps(self) -> int:
        """Total number of search steps (one per epoch)."""
        return self.config.search_epochs

    @property
    def steps_completed(self) -> int:
        """Number of search epochs already run."""
        return self._epoch if self._ready else 0

    def setup(self, train_set: ImageClassificationDataset, val_set: ImageClassificationDataset) -> None:
        """Build all mutable run state (networks, optimisers, loaders)."""
        start = time.time()
        config = self.config
        self._train_set = train_set
        self._val_set = val_set
        self._supernet = SuperNet(self.search_space, rng=self._rng)
        self._arch_params = ArchitectureParameters(self.search_space, rng=self._rng)
        self._weight_optimizer = SGD(
            self._supernet.parameters(),
            lr=config.weight_lr,
            momentum=config.weight_momentum,
            weight_decay=config.weight_decay,
            nesterov=True,
        )
        self._weight_scheduler = CosineAnnealingLR(
            self._weight_optimizer, t_max=max(config.search_epochs, 1)
        )
        self._arch_optimizer = Adam([self._arch_params.alpha], lr=config.arch_lr)
        self._warmup = LambdaWarmup(target=config.lambda_2, warmup_epochs=config.warmup_epochs)
        self._combined_loss = CoExplorationLoss(
            self.cost_function,
            label_smoothing=config.label_smoothing,
            cost_normalizer=self._reference_cost(),
            task_head=self.task_head,
        )
        self._train_loader = DataLoader(train_set, config.batch_size, shuffle=True, rng=self._rng)
        self._val_loader = DataLoader(val_set, config.batch_size, shuffle=True, rng=self._rng)
        self._history: List[Dict[str, float]] = []
        self._epoch = 0
        self._elapsed = time.time() - start
        self._ready = True

    def step(self) -> Dict[str, float]:
        """Run one search epoch (weight + architecture updates) and log it.

        Per training batch: a weight step with detached Gumbel gates, then
        (every ``arch_update_period`` batches) an architecture step on a
        validation batch with the supernet frozen, whose backward computes
        only the gradient of alpha.  Raises
        :class:`~repro.autograd.functional.NonFiniteLossError` on a NaN/inf loss,
        before the optimiser step that would consume it.
        """
        config = self.config
        start = time.time()
        epoch = self._epoch
        self._weight_scheduler.step(epoch)
        lambda_2 = self._warmup.value(epoch)
        val_iter = iter(self._val_loader)
        epoch_ce: List[float] = []
        epoch_hw: List[float] = []
        for step, (images, labels) in enumerate(self._train_loader):
            # ---- weight step on the training batch --------------------
            gates = self._arch_params.sample_gumbel(
                temperature=config.gumbel_temperature, hard=True, rng=self._rng
            ).detach()
            logits = self._supernet(Tensor(images), gates)
            weight_loss = self.task_head.loss(
                logits, labels, label_smoothing=config.label_smoothing
            )
            check_finite_loss(weight_loss, self.method_name, "weight", epoch, step)
            self._weight_optimizer.zero_grad()
            weight_loss.backward()
            self._weight_optimizer.step()
            epoch_ce.append(weight_loss.item())

            # ---- architecture step on a validation batch --------------
            if step % config.arch_update_period != 0:
                continue
            try:
                val_images, val_labels = next(val_iter)
            except StopIteration:
                val_iter = iter(self._val_loader)
                val_images, val_labels = next(val_iter)
            gates = self._arch_params.sample_gumbel(
                temperature=config.gumbel_temperature, hard=True, rng=self._rng
            )
            self._arch_optimizer.zero_grad()
            self._weight_optimizer.zero_grad()
            # Only alpha is updated here, so the supernet weights are frozen
            # through the backward too: no weight gradient is computed.
            with self._supernet.frozen():
                val_logits = self._supernet(Tensor(val_images), gates)
                predicted_metrics = self.evaluator(
                    self._arch_params.encoding_tensor(), rng=self._rng
                )
                arch_loss = self._combined_loss(
                    val_logits, val_labels, predicted_metrics, lambda_2=lambda_2
                )
                check_finite_loss(arch_loss, self.method_name, "arch", epoch, step)
                arch_loss.backward()
            self._arch_optimizer.step()
            epoch_hw.append(
                self.cost_function(predicted_metrics).item() / self._combined_loss.cost_normalizer
            )

        record = {
            "epoch": float(epoch),
            "lambda_2": lambda_2,
            "train_ce": float(np.mean(epoch_ce)) if epoch_ce else float("nan"),
            "hw_cost": float(np.mean(epoch_hw)) if epoch_hw else float("nan"),
            "entropy": self._arch_params.entropy(),
        }
        self._history.append(record)
        logger.info(
            "epoch %d: ce=%.3f hw=%.3f lambda2=%.3f entropy=%.3f",
            epoch,
            record["train_ce"],
            record["hw_cost"],
            lambda_2,
            record["entropy"],
        )
        self._epoch += 1
        self._elapsed += time.time() - start
        return record

    def finish(self, retrain_final: bool = True) -> SearchResult:
        """Derive, score and (optionally) retrain the final design."""
        return self.finalize(
            self._arch_params,
            self._train_set,
            self._val_set,
            method_name=self.method_name,
            search_seconds=self._elapsed,
            history=self._history,
            retrain_final=retrain_final,
        )

    def search(
        self,
        train_set: ImageClassificationDataset,
        val_set: ImageClassificationDataset,
        method_name: str = "DANCE",
        retrain_final: bool = True,
    ) -> SearchResult:
        """Run the co-exploration and return the scored final design."""
        self.method_name = method_name
        self.setup(train_set, val_set)
        while self.steps_completed < self.num_steps:
            self.step()
        return self.finish(retrain_final=retrain_final)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Full mutable state of a running search (call after :meth:`setup`)."""
        return {
            "method_name": self.method_name,
            "epoch": self._epoch,
            "elapsed_seconds": self._elapsed,
            "history": self._history,
            "rng": rng_state(self._rng),
            "supernet": self._supernet.state_dict(),
            "arch_params": self._arch_params.state_dict(),
            "weight_optimizer": self._weight_optimizer.state_dict(),
            "arch_optimizer": self._arch_optimizer.state_dict(),
            "evaluator": self.evaluator.state_dict(),
            "cost_normalizer": self._combined_loss.cost_normalizer,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot into an already-set-up searcher."""
        if not self._ready:
            raise RuntimeError("call setup() before load_state_dict()")
        self.method_name = state["method_name"]
        self._epoch = int(state["epoch"])
        self._elapsed = float(state["elapsed_seconds"])
        self._history = list(state["history"])
        restore_rng(state["rng"], into=self._rng)
        self._supernet.load_state_dict(state["supernet"])
        self._arch_params.load_state_dict(state["arch_params"])
        self._weight_optimizer.load_state_dict(state["weight_optimizer"])
        self._arch_optimizer.load_state_dict(state["arch_optimizer"])
        self.evaluator.load_state_dict(state["evaluator"])
        self._combined_loss.cost_normalizer = float(state["cost_normalizer"])

    # ------------------------------------------------------------------
    # Post-search: exact HW generation + final training
    # ------------------------------------------------------------------
    def finalize(
        self,
        arch_params: ArchitectureParameters,
        train_set: ImageClassificationDataset,
        val_set: ImageClassificationDataset,
        method_name: str,
        search_seconds: float,
        history: Optional[List[Dict[str, float]]] = None,
        retrain_final: bool = True,
    ) -> SearchResult:
        """Derive, run exact hardware generation, retrain and score a design."""
        derived = derive_architecture(self.search_space, arch_params)
        best_config, oracle_metrics = self.cost_table.optimal_config(
            derived.op_indices, cost_function=self.cost_function.scalar
        )
        if retrain_final:
            final_network = DerivedNetwork(self.search_space, derived.op_indices, rng=self._rng)
            final_accuracy = train_classifier(
                final_network, train_set, val_set, self.config.final_training, rng=self._rng
            )
        else:
            final_accuracy = None
        logger.info(
            "%s: arch=%s hw=%s acc=%s edap=%.2f",
            method_name,
            derived.op_names,
            best_config.as_dict(),
            "skipped" if final_accuracy is None else f"{final_accuracy:.3f}",
            oracle_metrics.edap,
        )
        return SearchResult(
            method=method_name,
            op_indices=derived.op_indices,
            accuracy=final_accuracy,
            hardware=best_config,
            metrics=oracle_metrics,
            search_seconds=search_seconds,
            candidates_trained=1,
            history=history or [],
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _reference_cost(self) -> float:
        """Cost of a uniform-probability architecture, used to normalise Cost_HW.

        Normalising by a reference makes lambda_2 values comparable between
        the EDAP and linear cost functions, whose raw magnitudes differ by
        an order of magnitude.
        """
        uniform = np.full(
            (self.search_space.num_searchable, self.search_space.num_ops),
            1.0 / self.search_space.num_ops,
        )
        encoding = self.search_space.encode_probabilities(uniform)
        metrics = self.evaluator.predict_metrics(encoding)
        reference = self.cost_function.scalar(metrics)
        if not np.isfinite(reference) or reference <= 0:
            return 1.0
        return reference
