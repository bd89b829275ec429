#!/usr/bin/env python3
"""Time one large run per strategy in this process.

Runs ``harness.run`` once per strategy kind (self_improve mode) at the
given N, K and T, in the order given, and prints: each run's wall seconds
(``wall_s.<kind>``), the seconds spent preparing the runs' calibrated
start (``harness._prepared_corpus_and_learner``: the first run computes
it, the later ones reuse it), the seconds spent inside ``rewards._graded``
(the grading of every sampled and resampled set), the seconds to format
each run's final train and filter snapshots in memory
(``harness._snapshot_chunks``, chunk by chunk, as a report write does),
and the process's peak resident set size.  The last three are totals over
the runs.  Nothing is written to disk and no other process is started, so
the figures are those of one Python process.

    PYTHONPATH=src python3 scripts/time_large_run.py --n 200000 --k 8 --t 5
    PYTHONPATH=src python3 scripts/time_large_run.py --n 2000 --strategies vanilla,tc,hc,rp,ri,ar,gr,sc
"""

import argparse
import dataclasses
import resource
import time

from headtail import harness, rewards
from headtail.harness import RunConfig, _snapshot_chunks, run
from headtail.strategies import StrategyConfig


def _timed(owner, name: str, total: list[float]):
    """Replace ``owner.name`` by a wrapper adding its calls' seconds to ``total[0]``;
    return a function that puts the original back."""
    original = getattr(owner, name)

    def timed(*a, **kw):
        start = time.perf_counter()
        try:
            return original(*a, **kw)
        finally:
            total[0] += time.perf_counter() - start

    setattr(owner, name, timed)
    return lambda: setattr(owner, name, original)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int, default=200_000)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--t", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--strategies", default="vanilla", help="comma-separated strategy kinds, run in order")
    args = parser.parse_args()
    kinds = list(dict.fromkeys(args.strategies.split(",")))

    cfg = RunConfig(n_queries=args.n, k_samples=args.k, iterations=args.t, seed=args.seed)
    grading, calibrating, snapshot = [0.0], [0.0], 0.0
    walls = {}
    restores = [_timed(rewards, "_graded", grading), _timed(harness, "_prepared_corpus_and_learner", calibrating)]
    try:
        for kind in kinds:
            # one base config, so every run shares its learner and corpus params and so its start
            point = dataclasses.replace(cfg, strategy=StrategyConfig(kind=kind))
            start = time.perf_counter()
            report = run(point)
            walls[kind] = time.perf_counter() - start
            start = time.perf_counter()
            for dataset in (report.final_train, report.final_filter):
                sum(map(len, _snapshot_chunks(dataset)))  # one chunk at a time, as a write holds them
            snapshot += time.perf_counter() - start
            del report
    finally:
        for restore in restores:
            restore()
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    runs = "run" if len(kinds) == 1 else "runs"
    header = f"{','.join(kinds)} {runs}, in-process: N={args.n} K={args.k} T={args.t} seed={args.seed}"
    print(header)
    print("-" * len(header))
    width = max(12, *(len(f"wall_s.{kind}") for kind in kinds))
    for kind, wall in walls.items():
        print(f"{'wall_s.' + kind:<{width}} {wall:>9.3f}")
    print(f"{'calibrate_s':<{width}} {calibrating[0]:>9.3f}")
    print(f"{'grade_s':<{width}} {grading[0]:>9.3f}")
    print(f"{'snapshot_s':<{width}} {snapshot:>9.3f}")
    print(f"{'peak_rss_mib':<{width}} {peak_mib:>9.0f}")


if __name__ == "__main__":
    main()
