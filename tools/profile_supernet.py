#!/usr/bin/env python3
"""cProfile harness for the supernet search step.

Runs a few search steps under cProfile and prints the hottest functions.
Each step is the pair the DANCE and baseline searchers run per batch:

* a **weight step** on a training batch: hard Gumbel gates sampled and
  detached, the task head's label-smoothed loss, backward into the supernet
  weights and an SGD step;
* an **architecture step** on a second (validation) batch: fresh hard gates,
  forward and backward inside ``supernet.frozen()`` so only the architecture
  logits receive gradients, and an Adam step on them.

The quickest way to check where an autograd change moved the bottleneck::

    PYTHONPATH=src python tools/profile_supernet.py --steps 5 --sort cumulative

Before profiling, one unprofiled step pair runs under ``tracemalloc``; the
tool prints, for each step, the graph nodes its forward built, the bytes
that graph holds (every interior node's ``.data`` and every array its
backward closure saved, counted once per owning buffer, leaves' arrays
excluded) and the step's tracemalloc peak (the memory the step allocated on
top of what was already live), so a change to the engine's per-node cost
shows up in the same run.
That pass pins the weight step's gates to the largest candidate
(``mbconv7_e6``) at every position, so its peak is the worst case, the same
from run to run, instead of whatever a random draw selects.

``--float32`` profiles the opt-in precision policy (documented in
docs/performance.md), so its relative cost can be read off directly.
``--backward-only`` builds both forward graphs outside the profiler and
profiles just the two ``backward()`` calls + the optimiser steps: the weight
backward carries the weight-gradient contractions, the architecture backward
only the input gradients (col2im folds) on the way to the logits.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import pstats
import sys
import tracemalloc
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.autograd import Adam, SGD, use_dtype  # noqa: E402
from repro.autograd.tensor import Tensor  # noqa: E402
from repro.nas import ArchitectureParameters, SuperNet, build_cifar_search_space  # noqa: E402


def _graph(root: Tensor) -> List[Tensor]:
    """Every tensor of the graph that built ``root``."""
    seen, stack, nodes = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        nodes.append(node)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


def _owner(array: np.ndarray) -> np.ndarray:
    """The array that owns ``array``'s memory (a released tensor's: a 0-d NaN)."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def graph_memory(root: Tensor) -> Tuple[int, int]:
    """``(interior nodes, bytes they hold)`` of the graph that built ``root``.

    The bytes are those of every interior node's ``.data`` and every array
    in its backward closure, counted once per owning buffer; buffers that
    leaves (parameters, inputs) own are live without the graph, so they are
    not counted.
    """
    nodes = _graph(root)
    interior = [node for node in nodes if node._backward is not None]
    leaves = {id(_owner(node.data)) for node in nodes if node._backward is None}
    held: Dict[int, int] = {}
    for node in interior:
        cells = node._backward.__closure__ or ()
        for value in [node.data] + [cell.cell_contents for cell in cells]:
            if isinstance(value, np.ndarray):
                owner = _owner(value)
                if id(owner) not in leaves:
                    held[id(owner)] = owner.nbytes
    return len(interior), sum(held.values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=5, help="train steps to profile")
    parser.add_argument("--batch", type=int, default=16, help="images per step")
    parser.add_argument(
        "--channels", type=int, default=8, help="trainable_base_channels of the search space"
    )
    parser.add_argument(
        "--float32", action="store_true", help="profile under the float32 precision policy"
    )
    parser.add_argument(
        "--backward-only",
        action="store_true",
        help="profile only backward() + optimiser steps (forward graph built outside)",
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=["cumulative", "tottime", "ncalls"],
        help="pstats sort order",
    )
    parser.add_argument("--limit", type=int, default=25, help="rows of profile output")
    parser.add_argument(
        "--output", type=Path, default=None, help="also dump raw pstats to this file"
    )
    args = parser.parse_args()

    dtype_scope = use_dtype("float32") if args.float32 else contextlib.nullcontext()
    with dtype_scope:
        space = build_cifar_search_space(trainable_base_channels=args.channels)
        supernet = SuperNet(space, rng=0)
        arch_params = ArchitectureParameters(space, rng=1)
        gate_rng = np.random.default_rng(2)
        weight_opt = SGD(supernet.parameters(), lr=0.01, momentum=0.9)
        arch_opt = Adam([arch_params.alpha], lr=0.001)
        data_rng = np.random.default_rng(0)
        batches = [
            (
                Tensor(data_rng.normal(size=(args.batch, 3, 8, 8))),
                data_rng.integers(0, space.num_classes, size=args.batch),
            )
            for _ in range(2)
        ]

        # One-hot gates selecting the largest candidate at every position.
        largest = [op.name for op in space.candidate_ops].index("mbconv7_e6")
        largest_gates = Tensor(
            space.encode_indices([largest] * space.num_searchable).reshape(
                space.num_searchable, space.num_ops
            )
        )

        def loss(batch, gates):
            images, labels = batch
            return space.output_head.loss(supernet(images, gates), labels, label_smoothing=0.1)

        profiler = cProfile.Profile()

        def step(
            profiled: bool, memory: Optional[Dict[str, Tuple[int, int, int]]] = None
        ) -> None:
            """One weight + arch step pair; ``memory`` collects (nodes, graph bytes,
            peak) per step."""

            def phase(backward: bool):
                on = profiled and (backward or not args.backward_only)
                return profiler if on else contextlib.nullcontext()

            def train(name: str, step_loss: Tensor, optimiser) -> None:
                nodes, held = graph_memory(step_loss) if memory is not None else (0, 0)
                with phase(backward=True):
                    arch_opt.zero_grad()
                    weight_opt.zero_grad()
                    step_loss.backward()
                    optimiser.step()
                if memory is not None:
                    memory[name] = (nodes, held, tracemalloc.get_traced_memory()[1])
                    tracemalloc.reset_peak()

            train_batch, val_batch = batches
            with phase(backward=False):
                if memory is not None:
                    gates = largest_gates
                else:
                    gates = arch_params.sample_gumbel(hard=True, rng=gate_rng).detach()
                weight_loss = loss(train_batch, gates)
            train("weight", weight_loss, weight_opt)
            with supernet.frozen():
                with phase(backward=False):
                    gates = arch_params.sample_gumbel(hard=True, rng=gate_rng)
                    arch_loss = loss(val_batch, gates)
                train("arch", arch_loss, arch_opt)

        step(profiled=False)  # warm caches (conv plans, BLAS) outside the profile
        memory: Dict[str, Tuple[int, int, int]] = {}
        tracemalloc.start()
        step(profiled=False, memory=memory)
        tracemalloc.stop()
        for _ in range(args.steps):
            step(profiled=True)

    stats = pstats.Stats(profiler)
    print(
        f"profiled {args.steps} search step(s) (weight + arch): batch={args.batch}, "
        f"channels={args.channels}, dtype={'float32' if args.float32 else 'float64'}, "
        "gates=hard"
        + (", backward-only" if args.backward_only else "")
    )
    for name, (nodes, held, peak) in memory.items():
        gates = " (mbconv7_e6 at every position)" if name == "weight" else ""
        print(
            f"{name} step{gates}: {nodes} graph nodes holding {held / 2**20:.1f} MiB, "
            f"tracemalloc peak {peak / 2**20:.1f} MiB"
        )
    print(f"graph nodes per step pair: {sum(nodes for nodes, _, _ in memory.values())}")
    stats.sort_stats(args.sort).print_stats(args.limit)
    if args.output is not None:
        stats.dump_stats(str(args.output))
        print(f"raw pstats written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
