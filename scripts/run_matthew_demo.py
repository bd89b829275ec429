#!/usr/bin/env python3
"""Reproduce the head-tail collapse and its mitigation on the stock setup.

Runs the default simulation (N=2000, K=8, T=5) once per strategy and prints
the filter-set head/tail trajectory plus the final train-set composition.
Reports land under --output-dir, one subdirectory per strategy.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from headtail.harness import RunConfig, emit_report, run
from headtail.metrics import REFERENCE_TARGETS, matthew_series
from headtail.strategies import StrategyConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--t", type=int, default=5)
    parser.add_argument(
        "--strategies", default="vanilla,tc,hc,rp,ri,ar,gr,sc",
        help="comma-separated strategy kinds to compare",
    )
    parser.add_argument("--output-dir", default="runs/matthew_demo")
    args = parser.parse_args()

    base = Path(args.output_dir)
    print(f"{'strategy':>9} | {'final head':>10} {'final tail':>10} {'gap slope':>10} "
          f"{'train size':>10} {'mean len':>8}")
    print("-" * 66)
    # every run derives from one config, so they share one calibrated start
    cfg = RunConfig(n_queries=args.n, k_samples=args.k, iterations=args.t, seed=args.seed)
    for kind in args.strategies.split(","):
        report = run(replace(cfg, strategy=StrategyConfig(kind=kind)))
        emit_report(report, base / kind)
        trend = matthew_series(report.rows_for("filter"))
        final = report.rows_for("train")[-1]
        slope = "" if trend.slope is None else f"{trend.slope:.4f}"  # None: a single iteration has no slope
        print(
            f"{kind:>9} | {final.head_share:>10.3f} {final.tail_share:>10.3f} "
            f"{slope:>10} {final.total:>10d} {final.mean_length:>8.1f}"
        )
    print()
    print("reference targets from real-model runs (context, not assertions):")
    for name, value in REFERENCE_TARGETS.items():
        print(f"  {name}: {value}")
    print(f"\nreports written under {base}/")


if __name__ == "__main__":
    main()
