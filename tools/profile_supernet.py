#!/usr/bin/env python3
"""cProfile harness for the supernet training step.

Runs a few supernet train steps under cProfile and prints the hottest
functions.  Each step samples hard Gumbel gates, exactly as the DANCE and
baseline searchers do, then runs forward + backward + a supernet and
architecture optimiser step — the inner loop every search method pays for.
The quickest way to check where an autograd change moved the bottleneck::

    PYTHONPATH=src python tools/profile_supernet.py --steps 5 --sort cumulative

``--float32`` profiles the opt-in precision policy and ``--no-plans`` the
legacy im2col/col2im lowering (both documented in docs/performance.md), so
the relative cost of each tier can be read off directly.
``--backward-only`` builds each step's forward graph outside the profiler
and profiles just ``backward()`` + the optimiser steps — the view that
isolates the weight-gradient contraction and the col2im folds.
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

from repro.autograd import Adam, SGD, set_plans_enabled, use_dtype  # noqa: E402
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
        "--no-plans",
        action="store_true",
        help="disable cached convolution plans (legacy lowering)",
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
    previous_plans = set_plans_enabled(not args.no_plans)
    try:
        with dtype_scope:
            space = build_cifar_search_space(trainable_base_channels=args.channels)
            supernet = SuperNet(space, rng=0)
            arch_params = ArchitectureParameters(space, rng=1)
            gate_rng = np.random.default_rng(2)
            weight_opt = SGD(supernet.parameters(), lr=0.01, momentum=0.9)
            arch_opt = Adam([arch_params.alpha], lr=0.001)
            images = np.random.default_rng(0).normal(size=(args.batch, 3, 8, 8))

            def forward():
                supernet.zero_grad()
                arch_params.zero_grad()
                gates = arch_params.sample_gumbel(hard=True, rng=gate_rng)
                logits = supernet(Tensor(images), gates)
                return (logits * logits).mean()

            def optimise() -> None:
                weight_opt.step()
                arch_opt.step()

            def step() -> None:
                forward().backward()
                optimise()

            step()  # warm caches (conv plans, BLAS) outside the profile

            profiler = cProfile.Profile()
            if args.backward_only:
                # Build each forward graph un-profiled; profile only the
                # backward walk and the optimiser updates.
                for _ in range(args.steps):
                    loss = forward()
                    profiler.enable()
                    loss.backward()
                    optimise()
                    profiler.disable()
            else:
                profiler.enable()
                for _ in range(args.steps):
                    step()
                profiler.disable()
    finally:
        set_plans_enabled(previous_plans)

    stats = pstats.Stats(profiler)
    print(
        f"profiled {args.steps} supernet step(s): batch={args.batch}, "
        f"channels={args.channels}, dtype={'float32' if args.float32 else 'float64'}, "
        f"plans={'off' if args.no_plans else 'on'}, gates=hard"
        + (", backward-only" if args.backward_only else "")
    )
    stats.sort_stats(args.sort).print_stats(args.limit)
    if args.output is not None:
        stats.dump_stats(str(args.output))
        print(f"raw pstats written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
