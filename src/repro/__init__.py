"""repro — reproduction of DANCE: Differentiable Accelerator/Network Co-Exploration.

Package layout
--------------
``repro.autograd``
    Numpy-backed reverse-mode automatic differentiation (PyTorch substitute).
``repro.hwmodel``
    Analytical Eyeriss-style accelerator cost model, the hardware design
    space H and the exhaustive hardware generation oracle
    (Timeloop + Accelergy substitute).
``repro.nas``
    ProxylessNAS-style search space A, candidate MBConv operations,
    architecture parameters and the trainable supernet.
``repro.evaluator``
    The differentiable evaluator: hardware generation network + cost
    estimation network with feature forwarding (the paper's contribution).
``repro.core``
    The DANCE co-exploration loop, the separate-design baselines, the
    RL-based comparator and the hardware cost functions.
``repro.data``
    Synthetic datasets: CIFAR-10/ImageNet image stand-ins, single-object
    detection images with boxes, and 1-D sequence signals.
``repro.tasks``
    The pluggable ``TaskWorkload`` API and registry — the task-side twin of
    ``repro.hwmodel.backends`` (built-ins: ``cifar``, ``imagenet``,
    ``detection``, ``seq1d``).
``repro.experiments``
    The experiment-orchestration layer: the shared ``Searcher`` protocol,
    ``ExperimentConfig``, and the ``Runner`` with checkpoint / bit-identical
    resume and multi-method / cross-backend / cross-task sweeps
    (CLI: ``python -m repro``).

Quick start
-----------
>>> from repro import quick_coexploration
>>> result = quick_coexploration(seed=0)       # doctest: +SKIP
>>> print(result.metrics.edap)                 # doctest: +SKIP
"""

from repro import autograd, core, data, evaluator, experiments, hwmodel, nas, tasks, utils

__version__ = "0.1.0"


def quick_coexploration(seed: int = 0, search_epochs: int = 2, num_eval_samples: int = 600):
    """Run a miniature end-to-end DANCE co-exploration and return its result.

    This is a convenience wrapper used by the quickstart example and the
    smoke tests; it exercises the full pipeline (oracle -> evaluator training
    -> differentiable search -> exact hardware generation -> final training)
    at a size that completes in well under a minute on a laptop CPU.
    """
    import numpy as np

    from repro.core import ClassifierTrainingConfig, DanceConfig, DanceSearcher
    from repro.data import make_cifar_like, train_val_split
    from repro.evaluator import Evaluator, generate_evaluator_dataset, train_evaluator
    from repro.hwmodel import CostTable, tiny_search_space
    from repro.nas import build_cifar_search_space

    rng = np.random.default_rng(seed)
    nas_space = build_cifar_search_space()
    hw_space = tiny_search_space()
    cost_table = CostTable(nas_space, hw_space)
    dataset = generate_evaluator_dataset(
        nas_space, hw_space, num_samples=num_eval_samples, cost_table=cost_table, rng=rng
    )
    train_data, val_data = dataset.split(0.85, rng=rng)
    evaluator_net = Evaluator(nas_space, hw_space, feature_forwarding=True, rng=rng)
    train_evaluator(evaluator_net, train_data, val_data, hw_epochs=15, cost_epochs=25, rng=rng)

    images = make_cifar_like(num_samples=256, resolution=8, rng=rng)
    train_images, val_images = train_val_split(images, val_fraction=0.25, rng=rng)
    searcher = DanceSearcher(
        nas_space,
        evaluator_net,
        cost_table,
        config=DanceConfig(
            search_epochs=search_epochs,
            final_training=ClassifierTrainingConfig(epochs=2),
        ),
        rng=rng,
    )
    return searcher.search(train_images, val_images, method_name="DANCE (quickstart)")


__all__ = [
    "autograd",
    "core",
    "data",
    "evaluator",
    "experiments",
    "hwmodel",
    "nas",
    "tasks",
    "utils",
    "quick_coexploration",
    "__version__",
]
