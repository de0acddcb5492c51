"""DANCE co-exploration framework (the paper's primary contribution).

Combines the NAS substrate, the frozen differentiable evaluator and the
hardware oracle into:

* :class:`DanceSearcher` — the differentiable co-exploration loop (Eq. 1
  loss, lambda_2 warm-up, Gumbel path sampling, post-search exact HW
  generation and final training);
* :class:`BaselineSearcher` — ProxylessNAS-style hardware-agnostic search
  (optionally with a FLOPs penalty) followed by post-hoc hardware generation;
* :class:`RLCoExplorationSearcher` — the REINFORCE comparator representing
  prior RL-based co-exploration works (Table 3);
* the hardware cost functions of Eq. 3 / Eq. 4 and result containers.
"""

from repro.core.baselines import BaselineConfig, BaselineSearcher
from repro.core.co_explore import DanceConfig, DanceSearcher
from repro.core.cost_functions import (
    EDAPCostFunction,
    HardwareCostFunction,
    LinearCostFunction,
    get_cost_function,
)
from repro.core.loss import CoExplorationLoss, LossBreakdown
from repro.core.results import SearchResult, format_comparison_table, format_results_table
from repro.core.rl_coexplore import RLCoExplorationConfig, RLCoExplorationSearcher
from repro.core.train_utils import (
    ClassifierTrainingConfig,
    evaluate_classifier,
    train_classifier,
)
from repro.core.warmup import LambdaWarmup

__all__ = [
    "BaselineConfig",
    "BaselineSearcher",
    "DanceConfig",
    "DanceSearcher",
    "EDAPCostFunction",
    "HardwareCostFunction",
    "LinearCostFunction",
    "get_cost_function",
    "CoExplorationLoss",
    "LossBreakdown",
    "SearchResult",
    "format_comparison_table",
    "format_results_table",
    "RLCoExplorationConfig",
    "RLCoExplorationSearcher",
    "ClassifierTrainingConfig",
    "evaluate_classifier",
    "train_classifier",
    "LambdaWarmup",
]
