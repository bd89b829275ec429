"""One measured process of the benchmark; started by run.py, never by hand.

    python3 worker.py setup   SPEC   time `import headtail` plus the tiny calls,
                                     then probe the host's speed (speed.py)
    python3 worker.py measure SPEC   a warm-up pass, then timed passes, each
                                     between two probes of the host's speed

SPEC is a JSON file with ``workload``, ``seed``, ``seconds``, ``trace``,
``result`` (where to write the result JSON) and, for a traced run,
``spans`` (where to write the recorded spans).  The process runs in the work
directory that holds the workload's inputs; the package is found through
PYTHONPATH.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()  # set-up time counts from here, before any other import

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MIN_PASSES = 5


def _call(main, argv: list[str]) -> tuple[int | str, str]:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    except Exception as exc:  # a crashing verb is a failed call, not a crashed benchmark
        rc = f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue()


def setup(spec: dict) -> None:
    import headtail.cli
    from workloads import WORKLOADS

    for argv in WORKLOADS[spec["workload"]].setup_calls(spec["seed"]):
        rc, _ = _call(headtail.cli.main, argv)
        if rc != 0:
            raise SystemExit(f"set-up call {argv[0]} failed: {rc}")
    elapsed = time.perf_counter() - _T_START
    import speed  # after the clock stops; the probe runs on this process's core

    Path(spec["result"]).write_text(json.dumps({"setup_s": elapsed, "probe": speed.probe()}),
                                    encoding="utf-8")


def measure(spec: dict) -> None:
    import headtail.cli
    import speed
    from workloads import OUT, WORKLOADS, digest

    workload = WORKLOADS[spec["workload"]]
    work = Path.cwd()
    calls = workload.calls(spec["seed"])
    main = headtail.cli.main
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
        main = tracer.span("cli.main", "cli", main)

    walls, scaled, cpus, errors, digests = [], [], [], [], []
    attempted = failed = 0

    def one_pass() -> None:
        nonlocal attempted, failed
        shutil.rmtree(work / OUT, ignore_errors=True)
        gc.collect()
        results = []
        before = speed.probe()
        t0, c0 = time.perf_counter(), time.process_time()
        for argv in calls:
            results.append(_call(main, argv))
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        scaled.append(speed.scaled(walls[-1], before, speed.probe()))
        attempted += len(calls)
        pass_errors = [f"{argv[0]} returned {rc}" for argv, (rc, _) in zip(calls, results) if rc != 0]
        stdouts = [out for _, out in results]
        if not pass_errors:
            pass_errors = workload.check(work, stdouts)
            digests.append(digest(work, workload.digest_texts(stdouts)))
            if digests[-1] != digests[0]:
                pass_errors.append(f"pass {len(digests)}: outputs differ from pass 1")
        failed += min(len(calls), len(pass_errors))
        errors.extend(pass_errors)

    one_pass()  # warm-up: fills caches and finishes lazy set-up
    walls.clear()
    scaled.clear()
    cpus.clear()
    if tracer is not None:
        tracer.spans.clear()
        for stat in tracer.hot.values():
            stat.update(calls=0, total_s=0.0, self_s=0.0, values=0)
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < spec["seconds"]:
        one_pass()

    result = {
        "walls": walls,
        "scaled": scaled,
        "cpus": cpus,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "digest": digests[0] if digests else None,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer.spans, tracer.hot, len(walls))
        Path(spec["spans"]).write_text(
            json.dumps({"passes": len(walls), "spans": tracer.spans, "hot": tracer.hot}),
            encoding="utf-8")
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    mode, spec_path = sys.argv[1], sys.argv[2]
    {"setup": setup, "measure": measure}[mode](json.loads(Path(spec_path).read_text(encoding="utf-8")))
