#!/usr/bin/env python3
"""Time one large vanilla run in this process.

Runs ``harness.run`` once (self_improve mode, vanilla strategy) at the given
N, K and T and prints three figures: the run's wall seconds, the seconds
spent inside ``rewards._graded`` (the grading of every sampled set), and the
process's peak resident set size.  Nothing is written to disk and no other
process is started, so the figures are those of one Python process.

    PYTHONPATH=src python3 scripts/time_large_run.py --n 200000 --k 8 --t 5
"""

import argparse
import resource
import time

from headtail import rewards
from headtail.harness import RunConfig, run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int, default=200_000)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--t", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    graded = rewards._graded
    grading = [0.0]

    def timed(*a, **kw):
        start = time.perf_counter()
        try:
            return graded(*a, **kw)
        finally:
            grading[0] += time.perf_counter() - start

    cfg = RunConfig(n_queries=args.n, k_samples=args.k, iterations=args.t)
    rewards._graded = timed
    try:
        start = time.perf_counter()
        run(cfg, seed=args.seed)
        wall = time.perf_counter() - start
    finally:
        rewards._graded = graded
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    header = f"vanilla run, in-process: N={args.n} K={args.k} T={args.t} seed={args.seed}"
    print(header)
    print("-" * len(header))
    print(f"{'wall_s':<12} {wall:>9.3f}")
    print(f"{'grade_s':<12} {grading[0]:>9.3f}")
    print(f"{'peak_rss_mib':<12} {peak_mib:>9.0f}")


if __name__ == "__main__":
    main()
