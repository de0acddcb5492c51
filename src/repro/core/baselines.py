"""Baseline searches: ProxylessNAS without / with a FLOPs penalty + post-hoc HW.

Table 2's baselines are the "typical separate design performed in practice":
search the network with a hardware-agnostic differentiable NAS (optionally
regularised by expected FLOPs), and only afterwards run the exhaustive
hardware generation tool on the searched network.  The crucial difference
from DANCE is that the hardware never influences the architecture search.

:class:`BaselineSearcher` implements the shared stepwise
:class:`repro.experiments.base.Searcher` protocol (setup / step / finish /
state_dict), so baseline runs are launched, checkpointed and resumed by the
same :class:`repro.experiments.runner.Runner` as every other method.
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
from repro.core.cost_functions import HardwareCostFunction, EDAPCostFunction
from repro.core.results import SearchResult
from repro.core.train_utils import ClassifierTrainingConfig, train_classifier
from repro.data.loaders import DataLoader
from repro.data.synthetic import ImageClassificationDataset
from repro.hwmodel.cost_model import CostTable
from repro.nas.arch_params import ArchitectureParameters
from repro.nas.derive import derive_architecture
from repro.nas.flops import FlopsModel
from repro.nas.search_space import NASSearchSpace
from repro.nas.supernet import DerivedNetwork, SuperNet
from repro.utils.logging import get_logger
from repro.utils.seeding import as_rng
from repro.utils.serialization import restore_rng, rng_state

logger = get_logger("core.baselines")


@dataclass
class BaselineConfig:
    """Hyper-parameters of a baseline (hardware-agnostic) NAS run."""

    search_epochs: int = 6
    batch_size: int = 32
    weight_lr: float = 0.025
    weight_momentum: float = 0.9
    weight_decay: float = 4e-5
    arch_lr: float = 6e-3
    flops_penalty: float = 0.0
    gumbel_temperature: float = 1.0
    label_smoothing: float = 0.1
    final_training: ClassifierTrainingConfig = field(default_factory=ClassifierTrainingConfig)


class BaselineSearcher:
    """Hardware-agnostic differentiable NAS followed by post-hoc HW generation."""

    def __init__(
        self,
        search_space: NASSearchSpace,
        cost_table: CostTable,
        hw_cost_function: Optional[HardwareCostFunction] = None,
        config: Optional[BaselineConfig] = None,
        rng: Optional[Union[int, np.random.Generator]] = None,
    ) -> None:
        self.search_space = search_space
        self.cost_table = cost_table
        self.hw_cost_function = hw_cost_function or EDAPCostFunction()
        self.config = config or BaselineConfig()
        self.task_head = search_space.output_head
        self.flops_model = FlopsModel(search_space)
        self.method_name = self._default_method_name()
        self._rng = as_rng(rng)
        self._ready = False

    def _default_method_name(self) -> str:
        if self.config.flops_penalty > 0:
            return "Baseline (Flops penalty) + HW"
        return "Baseline (No penalty) + HW"

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
        self._train_loader = DataLoader(train_set, config.batch_size, shuffle=True, rng=self._rng)
        self._val_loader = DataLoader(val_set, config.batch_size, shuffle=True, rng=self._rng)
        self._history: List[Dict[str, float]] = []
        self._epoch = 0
        self._elapsed = time.time() - start
        self._ready = True

    def step(self) -> Dict[str, float]:
        """Run one hardware-agnostic search epoch.

        Same step pair as :meth:`repro.core.co_explore.DanceSearcher.step`:
        weight steps with detached gates, architecture steps with the
        supernet frozen, and :class:`~repro.autograd.functional.NonFiniteLossError`
        on a NaN/inf loss.
        """
        config = self.config
        start = time.time()
        epoch = self._epoch
        self._weight_scheduler.step(epoch)
        val_iter = iter(self._val_loader)
        epoch_ce: List[float] = []
        for step, (images, labels) in enumerate(self._train_loader):
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
            # Only alpha is updated here: no supernet weight gradient is computed.
            with self._supernet.frozen():
                arch_loss = self.task_head.loss(
                    self._supernet(Tensor(val_images), gates), val_labels,
                    label_smoothing=config.label_smoothing,
                )
                if config.flops_penalty > 0:
                    expected_flops = self.flops_model.normalized_expected_flops(
                        self._arch_params.probabilities_tensor()
                    )
                    arch_loss = arch_loss + expected_flops * config.flops_penalty
                check_finite_loss(arch_loss, self.method_name, "arch", epoch, step)
                arch_loss.backward()
            self._arch_optimizer.step()

        record = {
            "epoch": float(epoch),
            "train_ce": float(np.mean(epoch_ce)) if epoch_ce else float("nan"),
            "entropy": self._arch_params.entropy(),
        }
        self._history.append(record)
        self._epoch += 1
        self._elapsed += time.time() - start
        return record

    def finish(self, retrain_final: bool = True) -> SearchResult:
        """Derive the network, run post-hoc HW generation and score the design."""
        config = self.config
        derived = derive_architecture(self.search_space, self._arch_params)
        # Post-hoc, one-time exact hardware generation (the separate-design flow).
        best_config, oracle_metrics = self.cost_table.optimal_config(
            derived.op_indices, cost_function=self.hw_cost_function.scalar
        )
        if retrain_final:
            final_network = DerivedNetwork(self.search_space, derived.op_indices, rng=self._rng)
            final_accuracy = train_classifier(
                final_network, self._train_set, self._val_set, config.final_training, rng=self._rng
            )
        else:
            final_accuracy = None
        logger.info(
            "%s: arch=%s acc=%s edap=%.2f",
            self.method_name,
            derived.op_names,
            "skipped" if final_accuracy is None else f"{final_accuracy:.3f}",
            oracle_metrics.edap,
        )
        return SearchResult(
            method=self.method_name,
            op_indices=derived.op_indices,
            accuracy=final_accuracy,
            hardware=best_config,
            metrics=oracle_metrics,
            search_seconds=self._elapsed,
            candidates_trained=1,
            history=self._history,
        )

    def search(
        self,
        train_set: ImageClassificationDataset,
        val_set: ImageClassificationDataset,
        method_name: Optional[str] = None,
        retrain_final: bool = True,
    ) -> SearchResult:
        """Run the baseline NAS and score its design with post-hoc hardware."""
        self.method_name = method_name if method_name is not None else self._default_method_name()
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
