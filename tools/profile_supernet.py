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
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.autograd import Adam, SGD, use_dtype  # noqa: E402
from repro.autograd.tensor import Tensor  # noqa: E402
from repro.nas import ArchitectureParameters, SuperNet, build_cifar_search_space  # noqa: E402


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

        def loss(batch, gates):
            images, labels = batch
            return space.output_head.loss(supernet(images, gates), labels, label_smoothing=0.1)

        profiler = cProfile.Profile()

        def step(profiled: bool) -> None:
            def phase(backward: bool):
                on = profiled and (backward or not args.backward_only)
                return profiler if on else contextlib.nullcontext()

            train_batch, val_batch = batches
            with phase(backward=False):
                gates = arch_params.sample_gumbel(hard=True, rng=gate_rng).detach()
                weight_loss = loss(train_batch, gates)
            with phase(backward=True):
                weight_opt.zero_grad()
                weight_loss.backward()
                weight_opt.step()
            with supernet.frozen():
                with phase(backward=False):
                    gates = arch_params.sample_gumbel(hard=True, rng=gate_rng)
                    arch_loss = loss(val_batch, gates)
                with phase(backward=True):
                    arch_opt.zero_grad()
                    weight_opt.zero_grad()
                    arch_loss.backward()
                    arch_opt.step()

        step(profiled=False)  # warm caches (conv plans, BLAS) outside the profile
        for _ in range(args.steps):
            step(profiled=True)

    stats = pstats.Stats(profiler)
    print(
        f"profiled {args.steps} search step(s) (weight + arch): batch={args.batch}, "
        f"channels={args.channels}, dtype={'float32' if args.float32 else 'float64'}, "
        "gates=hard"
        + (", backward-only" if args.backward_only else "")
    )
    stats.sort_stats(args.sort).print_stats(args.limit)
    if args.output is not None:
        stats.dump_stats(str(args.output))
        print(f"raw pstats written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
