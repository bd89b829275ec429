"""Benchmark of the headtail package, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` beside this
directory.  Workloads (see workloads.py): ``sim-stock``, ``sim-scale`` and
``offline-rebalance``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``        median wall time of one pass (all of a pass's verb calls,
                    in-process through ``headtail.cli.main``), after one
                    untimed warm-up pass, over the passes that fit in S seconds;
                    each pass is scaled to the reference host speed (speed.py);
* ``setup_s``       median over fresh processes of ``import headtail`` plus one
                    tiny call of each of the workload's verbs, each scaled to
                    the reference host speed;
* ``peak_rss_mib``  ``ru_maxrss`` of the fresh process that ran the passes.

``--trace 1`` runs the passes twice, in two processes: untraced, then with
every layer boundary wrapped (tracer.py), and reports the per-layer metrics
and ``trace.overhead_ratio`` (traced ÷ untraced median scaled pass).

Every pass is checked from outside: the report files exist and are
complete, counts match an independent recomputation, and every pass writes
the same bytes.  Failed calls and failed checks are counted in ``failed``;
the last line of output is one JSON object, and the exit code is 1 when a
check failed.  Inputs (the offline log, the simulation seed) come from
``--seed`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_PROCESSES = 9
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("HEADTAIL_OUTPUT_DIR", None)  # would redirect every report directory
    return env


def _child(mode: str, work: Path, spec: dict) -> dict:
    """Run worker.py in a fresh process in ``work``; return its result JSON."""
    spec = dict(spec, result=str(work / f"{mode}-result.json"))
    spec_path = work / f"{mode}-spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, str(spec_path)],
        cwd=work, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def _context() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    workload = WORKLOADS[workload_name]
    work = WORK_ROOT / f"{workload_name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    lines = [f"context: {json.dumps(_context())}"]
    try:
        workload.prepare(work, seed)
        spec = {"workload": workload_name, "seed": seed, "trace": False,
                "seconds": seconds / 2 if trace else seconds}
        if not trace:
            setups_raw, setups = [], []
            for _ in range(SETUP_PROCESSES):
                child = _child("setup", work, spec)
                setups_raw.append(child["setup_s"])
                setups.append(speed.scaled(child["setup_s"], child["probe"], child["probe"]))
        plain = _child("measure", work, spec)
        results = [plain]
        q1, wall, q3 = statistics.quantiles(plain["scaled"], n=4)
        lines.append(
            f"{workload_name}: wall_s median {wall:.4f} s at reference speed (p25 {q1:.4f}, "
            f"p75 {q3:.4f}, n={len(plain['scaled'])} passes); raw wall median "
            f"{statistics.median(plain['walls']):.4f} s, cpu_s median "
            f"{statistics.median(plain['cpus']):.4f} s")
        for key in ("scaled", "walls"):
            lines.append(f"{workload_name}: pass {key} {json.dumps([round(w, 4) for w in plain[key]])}")
        if trace:
            traced = _child("measure", work, dict(
                spec, trace=True, spans=str(WORK_ROOT / f"spans-{workload_name}.json")))
            results.append(traced)
            layers = dict(traced["layers"])
            layers["trace.overhead_ratio"] = statistics.median(traced["scaled"]) / wall
            metrics = {name: _metric(value, _unit(name)) for name, value in sorted(layers.items())}
            top = max((n for n in layers if n.startswith("self_s.")), key=layers.get)
            lines.append(f"{workload_name}: largest self-time layer {top[len('self_s.'):]} "
                         f"({layers[top]:.4f} s per pass)")
            if traced["digest"] != plain["digest"]:
                traced["errors"].append("traced outputs differ from untraced outputs")
                traced["failed"] += 1
        else:
            rss = plain["maxrss_kib"] / 1024
            setup = statistics.median(setups)
            metrics = {"wall_s": _metric(wall, "s"), "setup_s": _metric(setup, "s"),
                       "peak_rss_mib": _metric(rss, "MiB")}
            lines.append(f"{workload_name}: setup_s median {setup:.4f} s at reference speed "
                         f"(n={len(setups)} processes; raw median {statistics.median(setups_raw):.4f} s), "
                         f"peak_rss_mib {rss:.1f} MiB")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r["attempted"] for r in results)
    failed = min(attempted, sum(r["failed"] for r in results))
    errors = [e for r in results for e in r["errors"]]
    lines.append(f"{workload_name}: failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    lines.append(f"{workload_name}: output digest {plain['digest']}")
    lines += [f"{workload_name}: check failed: {e}" for e in errors]
    result = {"correct": failed == 0 and not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def _unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if "bytes" in name:
        return "B"
    if "ratio" in name or "yield" in name or "per_" in name:
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "headtail" / "__init__.py").is_file():
        print(f"no headtail package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(f"{args.workload}: benchmark took {time.perf_counter() - started:.1f} s")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
