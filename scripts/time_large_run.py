#!/usr/bin/env python3
"""Time one large run per strategy, or one offline rebalance, in this process.

Runs ``harness.run`` once per strategy kind (self_improve mode) at the
given N, K, T and L, in the order given, and prints: each run's wall seconds
(``wall_s.<kind>``), the seconds spent preparing the runs' calibrated
start (``harness._prepared_corpus_and_learner``: the first run computes
it, the later ones reuse it), the seconds spent inside ``rewards._graded``
(the grading of every sampled and resampled set), the seconds to format
each run's final train and filter snapshots in memory
(``harness._snapshot_chunks``, chunk by chunk, as a report write does),
the seconds to format each run's final learner state
(``LearnerState.to_json``, the text of ``learner_final.json``), the
seconds to read those snapshots back (``harness.read_snapshot``, as
the ``report`` verb does) and the process's peak resident set size.  All
but the wall seconds and the peak are totals over the runs.  For the
read, each run's snapshots are written, untimed, to a temporary
directory, and each field a snapshot line carries
(``harness._SNAPSHOT_FIELDS``) is checked against the run's datasets.  No other process
is started, so the figures are those of one Python process.

With ``--log``, it instead runs one ``harness.rebalance_offline`` of that
trajectory log with ``--strategy``, ``--k``, ``--l``, ``--seed`` and
``--min-cot-tokens`` (defaults as ``headtail rebalance`` has them, so the
output is the verb's), writing the output to a temporary directory, and
prints the seconds spent in ``harness.load_log`` (``load_s``) and in
``rewards._graded`` (``grade_s``), the call's wall seconds (``wall_s``),
the process's peak resident set size and the output's sha256.  A
config the run or the rebalance rejects ends the script with exit 2 and a
one-line usage error; a log that cannot be read or holds a bad line ends
it with exit 3 and one ``schema error:`` line, as ``headtail rebalance``
does.

    PYTHONPATH=src python3 scripts/time_large_run.py --n 200000 --k 8 --t 5
    PYTHONPATH=src python3 scripts/time_large_run.py --n 2000 --strategies vanilla,tc,hc,rp,ri,ar,gr,sc
    PYTHONPATH=src python3 scripts/time_large_run.py --log big_log.jsonl --strategy tc --k 8 --l 4
"""

import argparse
import dataclasses
import hashlib
import resource
import tempfile
import time
from pathlib import Path

import numpy as np

from headtail import harness, rewards
from headtail.harness import (
    EXIT_SCHEMA, ConfigError, RunConfig, SchemaError, _snapshot_chunks, read_snapshot, rebalance_offline, run,
    write_atomic,
)
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


def _peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _print_table(header: str, rows: list[tuple[str, str]]) -> None:
    print(header)
    print("-" * len(header))
    width = max(12, *(len(name) for name, _ in rows))
    for name, value in rows:
        print(f"{name:<{width}} {value:>9}")


def _read_back(report: harness.RunReport) -> float:
    """Seconds to read the run's final snapshots back, once written to a
    temporary directory; every field a snapshot line carries must read
    back as the run's datasets hold it."""
    seconds = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for name, dataset in (("train_final", report.final_train), ("filter_final", report.final_filter)):
            path = Path(tmp) / f"{name}.jsonl"
            write_atomic(path, _snapshot_chunks(dataset))
            start = time.perf_counter()
            read = read_snapshot(path, dataset.role)
            seconds += time.perf_counter() - start
            for column in sorted(harness._SNAPSHOT_FIELDS):  # the columns a snapshot line carries
                got, want = (
                    (read.levels(), dataset.levels()) if column == "level"
                    else (read.columns[column], dataset.columns[column])
                )
                assert np.array_equal(got, want), f"{name}: {column} differs"
    return seconds


def time_rebalance(args: argparse.Namespace) -> None:
    """Time one ``rebalance_offline`` of ``args.log`` and print its table."""
    strategy = StrategyConfig(kind=args.strategy, L=args.l, min_cot_tokens=args.min_cot_tokens)
    loading, grading = [0.0], [0.0]
    restores = [_timed(harness, "load_log", loading), _timed(rewards, "_graded", grading)]
    try:
        with tempfile.TemporaryDirectory() as tmp:
            output = Path(tmp) / "out.jsonl"
            start = time.perf_counter()
            rebalance_offline(args.log, strategy, args.k, output, seed=args.seed)
            wall = time.perf_counter() - start
            digest = hashlib.sha256(output.read_bytes()).hexdigest()
    finally:
        for restore in restores:
            restore()
    _print_table(
        f"{args.strategy} rebalance, in-process: log={args.log} K={args.k} L={args.l} seed={args.seed}",
        [("load_s", f"{loading[0]:.3f}"), ("grade_s", f"{grading[0]:.3f}"), ("wall_s", f"{wall:.3f}"),
         ("peak_rss_mib", f"{_peak_mib():.0f}"), ("sha256", digest)],
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int, default=200_000)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--t", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--strategies", default="vanilla", help="comma-separated strategy kinds, run in order")
    parser.add_argument("--log", help="time one offline rebalance of this trajectory log instead")
    parser.add_argument("--strategy", default="tc", help="with --log: the reshaping strategy")
    parser.add_argument("--l", type=int, default=4, help="tail threshold L (tc and gr; with --log, tc)")
    parser.add_argument("--min-cot-tokens", type=int, default=0, help="with --log: reasoning length floor")
    args = parser.parse_args()
    try:
        time_runs(args)
    except ConfigError as exc:
        parser.error(str(exc))
    except SchemaError as exc:
        parser.exit(EXIT_SCHEMA, f"schema error: {exc}\n")


def time_runs(args: argparse.Namespace) -> None:
    """Time ``args.log``'s rebalance, or one run per kind of ``args.strategies``, and print its table."""
    if args.log:
        time_rebalance(args)
        return
    kinds = list(dict.fromkeys(args.strategies.split(",")))

    cfg = RunConfig(n_queries=args.n, k_samples=args.k, iterations=args.t, seed=args.seed)
    grading, calibrating, snapshot, state, reading = [0.0], [0.0], 0.0, 0.0, 0.0
    walls = {}
    restores = [_timed(rewards, "_graded", grading), _timed(harness, "_prepared_corpus_and_learner", calibrating)]
    try:
        for kind in kinds:
            # one base config, so every run shares its learner and corpus params and so its start
            point = dataclasses.replace(cfg, strategy=StrategyConfig(kind=kind, L=args.l))
            start = time.perf_counter()
            report = run(point)
            walls[kind] = time.perf_counter() - start
            start = time.perf_counter()
            for dataset in (report.final_train, report.final_filter):
                sum(map(len, _snapshot_chunks(dataset)))  # one chunk at a time, as a write holds them
            snapshot += time.perf_counter() - start
            start = time.perf_counter()
            report.final_state.to_json()
            state += time.perf_counter() - start
            reading += _read_back(report)
            del report
    finally:
        for restore in restores:
            restore()
    runs = "run" if len(kinds) == 1 else "runs"
    _print_table(
        f"{','.join(kinds)} {runs}, in-process: N={args.n} K={args.k} T={args.t} seed={args.seed}",
        [*((f"wall_s.{kind}", f"{wall:.3f}") for kind, wall in walls.items()),
         ("calibrate_s", f"{calibrating[0]:.3f}"), ("grade_s", f"{grading[0]:.3f}"),
         ("snapshot_s", f"{snapshot:.3f}"), ("state_s", f"{state:.3f}"), ("read_s", f"{reading:.3f}"),
         ("peak_rss_mib", f"{_peak_mib():.0f}")],
    )


if __name__ == "__main__":
    main()
