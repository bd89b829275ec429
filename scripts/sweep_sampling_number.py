#!/usr/bin/env python3
"""Sweep the sampling number K and watch the improvement plateau.

For each K, runs the vanilla loop over several seeds and prints the
per-iteration sampled pass@1 averaged across seeds.  Larger K helps the
first iteration most; later iterations converge regardless of K once the
data distribution has collapsed onto the head.
"""

import argparse
from dataclasses import replace

import numpy as np

from headtail.harness import RunConfig, run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k-values", default="4,8,16")
    parser.add_argument("--seeds", default="0,1,2")
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--t", type=int, default=5)
    args = parser.parse_args()

    seeds = [int(s) for s in args.seeds.split(",")]
    k_values = [int(x) for x in args.k_values.split(",")]
    print(f"{'K':>4} | mean sampled pass@1 by iteration (seeds {seeds})")
    print("-" * 60)
    # every run derives from one config and each seed's runs go together,
    # so they share that seed's calibrated start
    cfg = RunConfig(n_queries=args.n, iterations=args.t)
    per_iter = [[] for _ in k_values]
    for seed in seeds:
        for i, k in enumerate(k_values):
            report = run(replace(cfg, k_samples=k, seed=seed))
            per_iter[i].append([e.sampled_pass1 for e in report.evals])
    for k, runs in zip(k_values, per_iter):
        means = np.mean(runs, axis=0)
        print(f"{k:>4} | " + "  ".join(f"{m:.3f}" for m in means))


if __name__ == "__main__":
    main()
