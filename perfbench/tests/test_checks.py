"""The output checks, run on real tiny outputs and on corrupted copies of them."""

import contextlib
import io
import json
import os

import pytest

from headtail.cli import main
from workloads import WORKLOADS, digest

T = 2


def _main(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    return out.getvalue()


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HEADTAIL_OUTPUT_DIR", raising=False)
    return tmp_path


def _sim_scale(work):
    run = ["run", "--mode", "iterative_union", "--n", "30", "--t", str(T), "--seed", "1",
           "--output-dir", "out"]
    stdouts = [_main(run), _main(["report", "--run-dir", "out", "--dataset", "filter_final"])]
    return stdouts


def _check(name, work, stdouts, monkeypatch):
    monkeypatch.setattr("workloads.ITERATIONS", T)
    return WORKLOADS[name].check(work, stdouts)


def test_sim_checks_pass_on_real_output(in_tmp, monkeypatch):
    assert _check("sim-scale", in_tmp, _sim_scale(in_tmp), monkeypatch) == []


@pytest.mark.parametrize("corrupt", ["missing_file", "incomplete", "dropped_row", "header"])
def test_sim_checks_catch_corruption(in_tmp, monkeypatch, corrupt):
    stdouts = _sim_scale(in_tmp)
    out = in_tmp / "out"
    if corrupt == "missing_file":
        os.remove(out / "learner_final.json")
    elif corrupt == "incomplete":
        summary = json.loads((out / "summary.json").read_text())
        summary["incomplete"] = True
        (out / "summary.json").write_text(json.dumps(summary))
    elif corrupt == "dropped_row":
        lines = (out / "metrics.csv").read_text().splitlines(keepends=True)
        (out / "metrics.csv").write_text("".join(lines[:-1]))
    else:
        lines = (out / "metrics.csv").read_text().splitlines(keepends=True)
        (out / "metrics.csv").write_text(lines[0].replace("gap", "gap2") + "".join(lines[1:]))
    assert _check("sim-scale", in_tmp, stdouts, monkeypatch)


def test_report_check_catches_wrong_total(in_tmp, monkeypatch):
    stdouts = _sim_scale(in_tmp)
    with open(in_tmp / "out" / "datasets" / "filter_final.jsonl", "a") as fh:
        fh.write("{}\n")
    assert _check("sim-scale", in_tmp, stdouts, monkeypatch)


def test_sweep_check_catches_missing_run(in_tmp, monkeypatch):
    _main(["sweep", "--strategies", "vanilla,tc", "--seeds", "1", "--jobs", "1", "--n", "30",
           "--t", str(T), "--output-dir", "out"])
    monkeypatch.setattr("workloads.ALL_KINDS", ("vanilla", "tc"))
    assert _check("sim-stock", in_tmp, [], monkeypatch) == []
    summary = in_tmp / "out" / "sweep_summary.csv"
    summary.write_text("".join(summary.read_text().splitlines(keepends=True)[:-1]))
    assert _check("sim-stock", in_tmp, [], monkeypatch)


def _offline(work):
    workload = WORKLOADS["offline-rebalance"]
    workload.prepare(work, 3)
    return [_main(argv) for argv in workload.calls(3)]


def test_offline_checks_pass_on_real_output(in_tmp, monkeypatch):
    monkeypatch.setattr("workloads.LOG_QUERIES", 60)
    assert WORKLOADS["offline-rebalance"].check(in_tmp, _offline(in_tmp)) == []


@pytest.mark.parametrize("strategy", ["tc", "rp"])
def test_offline_checks_catch_a_dropped_record(in_tmp, monkeypatch, strategy):
    monkeypatch.setattr("workloads.LOG_QUERIES", 60)
    stdouts = _offline(in_tmp)
    out = in_tmp / "out" / f"{strategy}.jsonl"
    out.write_text("".join(out.read_text().splitlines(keepends=True)[1:]))
    errors = WORKLOADS["offline-rebalance"].check(in_tmp, stdouts)
    assert len(errors) == 1 and "wrong counts" in errors[0]


def test_digest_sees_any_changed_byte(in_tmp):
    _offline(in_tmp)
    before = digest(in_tmp, [])
    out = in_tmp / "out" / "tc.jsonl"
    data = bytearray(out.read_bytes())
    data[10] ^= 1
    out.write_bytes(bytes(data))
    assert digest(in_tmp, []) != before
