#!/usr/bin/env python3
"""Sweep the sampling number K and watch the improvement plateau.

For each K, runs the vanilla loop over several seeds and prints the
per-iteration sampled pass@1 averaged across seeds.  Larger K helps the
first iteration most; later iterations converge regardless of K once the
data distribution has collapsed onto the head.
"""

import argparse

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
    print(f"{'K':>4} | mean sampled pass@1 by iteration (seeds {seeds})")
    print("-" * 60)
    for k in (int(x) for x in args.k_values.split(",")):
        per_iter = []
        for seed in seeds:
            report = run(RunConfig(n_queries=args.n, k_samples=k, iterations=args.t, seed=seed))
            per_iter.append([e.sampled_pass1 for e in report.evals])
        means = np.mean(per_iter, axis=0)
        print(f"{k:>4} | " + "  ".join(f"{m:.3f}" for m in means))


if __name__ == "__main__":
    main()
