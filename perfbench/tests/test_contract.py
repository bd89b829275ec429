"""BENCHMARK.json and run.py agree, and run.py refuses a tree without the package."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import _unit
from tracer import layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent.parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_match():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_per_layer_metrics_match_what_the_traced_run_reports():
    reported = set(layer_metrics([], {}, 1)) | {"trace.overhead_ratio"}
    assert {m["name"] for m in BENCH["per_layer"]} == reported
    assert all(m["unit"] == _unit(m["name"]) for m in BENCH["per_layer"])


def test_end_to_end_metrics():
    assert [m["name"] for m in BENCH["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mib"]
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-stock", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
