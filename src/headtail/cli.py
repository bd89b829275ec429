"""Command-line interface.

Verbs:
  run        execute one configured run (all modes) and write its report
  sweep      grid of runs over seeds / strategies / K / L / S values
  rebalance  offline reshaping of a trajectory log (JSONL in, JSONL out)
  report     recompute a run's last train or filter metrics row from its snapshot

Exit codes: 0 success, 2 config error, 3 schema error, 4 internal abort
(for sweep: any grid point aborted).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from pathlib import Path

from .harness import (
    EXIT_ABORT,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SCHEMA,
    MODES,
    OUTPUT_DIR_ENV,
    ConfigError,
    RunAborted,
    RunConfig,
    RunReport,
    SchemaError,
    check_output_path,
    check_report_dir,
    emit_report,
    read_snapshot,
    rebalance_offline,
    run as run_mode,
    write_atomic,
)
from .metrics import CSV_COLUMNS, build_row, rows_to_csv
from .rewards import DEFAULT_SYMBOL_ALIASES, load_alias_table
from .strategies import KINDS, StrategyConfig
from .core import ROLE_FILTER


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_json_file(args.config) if args.config else RunConfig()
    flags = {"n": "n_queries", "k": "k_samples", "t": "iterations", "mode": "mode",
             "restart": "restart_each_iteration", "seed": "seed"}
    updates = {key: getattr(args, flag) for flag, key in flags.items() if getattr(args, flag) is not None}
    knobs = {key: value for key, value in (("kind", args.strategy), ("L", args.l), ("S", args.s))
             if value is not None}
    if knobs:
        updates["strategy"] = dataclasses.replace(cfg.strategy, **knobs)
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    return cfg


def _output_dir(args: argparse.Namespace, default: str) -> Path:
    """--output-dir, else $HEADTAIL_OUTPUT_DIR, else ``default``."""
    return Path(args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or default)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (strict keys)")
    p.add_argument("--n", type=int, help="corpus size")
    p.add_argument("--k", type=int, help="samples per query per iteration")
    p.add_argument("--t", type=int, help="number of iterations")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--strategy", choices=tuple(KINDS))
    p.add_argument("--l", type=int, help="tail threshold L")
    p.add_argument("--s", type=int, help="guided resampling step count S")
    p.add_argument("--seed", type=int, help="run seed")
    p.add_argument("--output-dir", help="where to write the report "
                   "(default: $HEADTAIL_OUTPUT_DIR, else runs/run or runs/sweep)")
    restart = p.add_mutually_exclusive_group()
    restart.add_argument("--restart", dest="restart", action="store_true", default=None)
    restart.add_argument("--no-restart", dest="restart", action="store_false", default=None)


def _run_and_emit(cfg: RunConfig, outdir: str | Path) -> RunReport:
    """Run ``cfg`` and write its report; an aborted run writes its partial
    report before the RunAborted goes on."""
    try:
        report = run_mode(cfg)
    except RunAborted as exc:
        emit_report(exc.report, outdir)
        raise
    emit_report(report, outdir)
    return report


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    cfg.validate()
    outdir = _output_dir(args, "runs/run")
    check_report_dir(outdir)
    report = _run_and_emit(cfg, outdir)
    final = report.rows_for("train")[-1] if report.rows_for("train") else None
    if final is not None and final.level_share is not None:
        print(
            f"seed {cfg.seed}: train entries {final.total}, "
            f"head {final.head_share:.3f}, tail {final.tail_share:.3f}, "
            f"gap {final.matthew_gap:.3f}"
        )
    print(f"report written to {outdir}")
    return EXIT_OK


def _one_sweep_run(payload: tuple[RunConfig, str]) -> tuple[str, int, list[str] | str]:
    """Run and report one grid point: its last train row's fields, or, for
    an aborted run (whose partial report is written too), the reason."""
    cfg, outdir = payload
    try:
        report = _run_and_emit(cfg, outdir)
    except RunAborted as exc:
        return outdir, cfg.seed, str(exc)
    return outdir, cfg.seed, report.rows_for("train")[-1].to_csv_fields()


def _int_list(text: str | None, flag: str, default: list[int]) -> list[int]:
    """A comma-separated integer flag, or ``default`` without one, with
    repeats dropped (a repeat would rerun a grid point into the same
    directory); a malformed flag is a ConfigError."""
    if text is None:
        return list(dict.fromkeys(default))
    try:
        return list(dict.fromkeys(int(x) for x in text.split(",")))
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _worker_count(jobs: int, runs: int) -> int:
    """Processes for a sweep: no more than asked for, runs to do, or CPUs."""
    return max(1, min(jobs, runs, os.cpu_count() or 1))


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = _load_config(args)
    cfg.validate()
    seeds = _int_list(args.seeds, "--seeds", [cfg.seed])
    kinds = args.strategies.split(",") if args.strategies else [cfg.strategy.kind]
    strategies = list(dict.fromkeys(kinds))  # first-seen order, repeats dropped
    k_values = _int_list(args.k_values, "--k-values", [cfg.k_samples])
    l_values = _int_list(args.l_values, "--l-values", [cfg.strategy.L])
    s_values = _int_list(args.s_values, "--s-values", [cfg.strategy.S])
    base_out = _output_dir(args, "runs/sweep")
    check_output_path(base_out / "sweep_summary.csv")
    jobs: list[tuple[RunConfig, str]] = []
    for kind in strategies:
        # an axis a kind never reads would only repeat its runs: take its first value
        reads = KINDS[kind].knobs if kind in KINDS else ()
        for k in k_values:
            for L in l_values if "L" in reads else l_values[:1]:
                for S in s_values if "S" in reads else s_values[:1]:
                    if "L" in reads and L > k:
                        print(f"skipped {kind}_k{k}_l{L}_s{S}: L exceeds K", file=sys.stderr)
                        continue
                    variant = dataclasses.replace(
                        cfg,
                        k_samples=k,
                        strategy=dataclasses.replace(cfg.strategy, kind=kind, L=L, S=S),
                    )
                    for seed in seeds:
                        point = dataclasses.replace(variant, seed=seed)
                        point.validate()
                        jobs.append((point, str(base_out / f"{kind}_k{k}_l{L}_s{S}_seed{seed}")))
    for _, outdir in jobs:  # every point's files, before the first point runs
        check_report_dir(outdir)
    # each seed's points run together, so they share one calibrated start
    # (harness keeps the last); the summary lists them in grid order
    order = sorted(range(len(jobs)), key=lambda i: jobs[i][0].seed)
    workers = _worker_count(args.jobs, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # costs every call a few ms; only --jobs > 1 needs it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            ran = list(pool.map(_one_sweep_run, [jobs[i] for i in order]))
    else:
        ran = [_one_sweep_run(jobs[i]) for i in order]
    results = [result for _, result in sorted(zip(order, ran))]
    lines = ["run_dir,seed," + ",".join(CSV_COLUMNS)]
    for outdir, seed, outcome in results:
        if isinstance(outcome, str):
            print(f"aborted {outdir}: {outcome}", file=sys.stderr)
        else:
            lines.append(f"{outdir},{seed}," + ",".join(outcome))
    write_atomic(base_out / "sweep_summary.csv", "\n".join(lines) + "\n")
    print(f"{len(jobs)} runs under {base_out}")
    return EXIT_ABORT if any(isinstance(outcome, str) for _, _, outcome in results) else EXIT_OK


def _cmd_rebalance(args: argparse.Namespace) -> int:
    strategy = StrategyConfig(kind=args.strategy, L=args.l, min_cot_tokens=args.min_cot_tokens)
    # no file the verb writes may be another file it names
    clashes = [("output path", args.output, "the alias table", args.alias_table)]
    if args.summary:
        check_output_path(args.summary)
        clashes += [("summary path", args.summary, what, other) for what, other in (
            ("the output path", args.output), ("the input log", args.input), ("the alias table", args.alias_table))]
    for name, target, what, other in clashes:
        if other and Path(target).resolve() == Path(other).resolve():
            raise ConfigError(f"{name} {target} is {what}")
    aliases = DEFAULT_SYMBOL_ALIASES
    if args.alias_table:
        try:
            aliases = load_alias_table(args.alias_table)
        except OSError as exc:
            raise ConfigError(f"cannot read alias table {args.alias_table}: {exc.strerror or exc}") from exc
        except ValueError as exc:  # a bad line, or not UTF-8
            raise ConfigError(f"{args.alias_table}: {exc}") from exc
    summary = rebalance_offline(args.input, strategy, args.k, args.output, aliases, seed=args.seed)
    row = summary.pop("metrics_row")
    if args.summary:
        write_atomic(args.summary, rows_to_csv([row]))
    print(
        f"{summary['input_records']} records in, {summary['filtered']} kept by reward, "
        f"{summary['output_records']} written to {args.output}"
    )
    return EXIT_OK


# each snapshot's stage, the label of its rows in the run's metrics.csv
_SNAPSHOT_STAGES = {"train_final": "train", "filter_final": "filter"}


def _cmd_report(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    cfg_path = run_dir / "config.json"
    if cfg_path.exists():
        cfg = RunConfig.from_json_file(cfg_path)
        cfg.validate()
    else:
        cfg = RunConfig()
    dataset = read_snapshot(run_dir / "datasets" / (args.dataset + ".jsonl"), ROLE_FILTER)
    # per-query counts come from the final filtered set, as in metrics.csv
    filtered_path = run_dir / "datasets" / "filter_final.jsonl"
    filtered = dataset
    if args.dataset != "filter_final" and filtered_path.exists():
        filtered = read_snapshot(filtered_path, ROLE_FILTER)
    # an empty snapshot reports at the run's last round, as metrics.csv does
    iteration = int(dataset.columns["iteration"].max()) if len(dataset) else cfg.rounds
    row = build_row(iteration, _SNAPSHOT_STAGES[args.dataset], dataset, cfg.k_samples, filtered)
    print(rows_to_csv([row]), end="")
    return EXIT_OK


@functools.cache  # one parser per process: building it costs a call about a millisecond
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="headtail", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute one run and write its report")
    _add_run_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="grid of runs over seeds and knobs")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--seeds", help="comma-separated seed list")
    p_sweep.add_argument("--strategies", help="comma-separated strategy kinds")
    p_sweep.add_argument("--k-values", help="comma-separated K grid")
    p_sweep.add_argument("--l-values", help="comma-separated L grid")
    p_sweep.add_argument("--s-values", help="comma-separated S grid")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel worker count (capped at the run count and the CPU count)")

    p_reb = sub.add_parser("rebalance", help="offline reshaping of a trajectory log")
    p_reb.add_argument("--input", required=True, help="input JSONL log")
    p_reb.add_argument("--output", required=True, help="output JSONL training records")
    p_reb.add_argument("--strategy", required=True, choices=tuple(KINDS))
    p_reb.add_argument("--k", type=int, required=True, help="sampling number K of the log")
    p_reb.add_argument("--l", type=int, default=4, help="tail threshold L (tc)")
    p_reb.add_argument("--min-cot-tokens", type=int, default=0, help="reasoning length floor")
    p_reb.add_argument("--seed", type=int, default=0, help="truncation seed (tc)")
    p_reb.add_argument("--alias-table", help="two-column answer alias file (pattern<TAB>canonical)")
    p_reb.add_argument("--summary", help="optional CSV path for the summary row")

    p_rep = sub.add_parser("report", help="recompute metrics from a snapshot")
    p_rep.add_argument("--run-dir", required=True)
    p_rep.add_argument("--dataset", default="train_final", choices=tuple(_SNAPSHOT_STAGES),
                       help="snapshot under datasets/ (its name sets the row's label)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a wrapped verb function is the one that runs
    verbs = {"run": _cmd_run, "sweep": _cmd_sweep, "rebalance": _cmd_rebalance, "report": _cmd_report}
    try:
        return verbs[args.verb](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except RunAborted as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    raise SystemExit(main())
