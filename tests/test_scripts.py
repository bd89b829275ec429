"""The example scripts under scripts/ run end to end on a tiny corpus, and
the README's library example runs as written."""

import hashlib
import json
import re
import runpy
import sys
from pathlib import Path

import pytest

from headtail import cli, harness
from headtail.strategies import KINDS

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _write_log(path):
    """A small trajectory log: two queries, four responses each, some of them correct."""
    answers = {1: ["a", "b", "a", "a"], 2: ["c", "x", "y", "c"]}
    path.write_text("".join(
        json.dumps({"query_id": q, "gt_answer": given[0], "extracted_answer": a, "token_count": 20 + j})
        + "\n" for q, given in answers.items() for j, a in enumerate(given)
    ), encoding="utf-8")


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("run_matthew_demo.py", ["--n", "20", "--t", "2", "--output-dir", "demo"],
         " strategy | final head final tail  gap slope train size mean len"),
        ("run_matthew_demo.py", ["--n", "20", "--t", "1", "--strategies", "vanilla", "--output-dir", "demo"],
         " strategy | final head final tail  gap slope train size mean len"),
        ("sweep_sampling_number.py", ["--n", "20", "--t", "2", "--k-values", "2,4", "--seeds", "0"],
         "   K | mean sampled pass@1 by iteration (seeds [0])"),
        ("time_large_run.py", ["--n", "20", "--k", "2", "--t", "2"],
         "vanilla run, in-process: N=20 K=2 T=2 seed=0"),
        ("time_large_run.py", ["--n", "20", "--k", "2", "--t", "2", "--strategies", "vanilla,ar"],
         "vanilla,ar runs, in-process: N=20 K=2 T=2 seed=0"),
        ("time_large_run.py", ["--log", "log.jsonl", "--k", "4"],
         "tc rebalance, in-process: log=log.jsonl K=4 L=4 seed=0"),
        ("count_code_lines.py", [],
         "        module |      code docstring   comment     blank"),
    ],
)
def test_script_prints_its_table(script, args, header, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if "--log" in args:
        _write_log(tmp_path / "log.jsonl")
    monkeypatch.setattr(sys, "argv", [script, *args])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == header
    assert lines[1].startswith("---")
    assert len(lines) > 2


@pytest.mark.parametrize(
    "script, args, calibrations",
    [
        ("run_matthew_demo.py",
         ["--n", "20", "--t", "2", "--strategies", "vanilla,tc,ar", "--output-dir", "demo"], 1),
        ("sweep_sampling_number.py", ["--n", "20", "--t", "1", "--k-values", "2,4", "--seeds", "0,1"], 2),
    ],
)
def test_demo_runs_share_each_seeds_calibrated_start(script, args, calibrations, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "_last_start", [])
    calls = []
    calibrate = harness.calibrate_difficulty
    monkeypatch.setattr(harness, "calibrate_difficulty", lambda rates: calls.append(1) or calibrate(rates))
    monkeypatch.setattr(sys, "argv", [script, *args])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert len(calls) == calibrations


def test_time_large_run_names_each_kind(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # K=8 because gr's default L is 4
    monkeypatch.setattr(sys, "argv", ["time_large_run.py", "--n", "200", "--k", "8", "--t", "2",
                                      "--strategies", ",".join(KINDS)])
    runpy.run_path(str(SCRIPTS / "time_large_run.py"), run_name="__main__")
    table = dict(line.split() for line in capsys.readouterr().out.splitlines()[2:])
    assert list(table) == [*(f"wall_s.{kind}" for kind in KINDS), "calibrate_s", "grade_s", "snapshot_s",
                           "state_s", "read_s", "peak_rss_mib"]
    assert float(table["read_s"]) > 0  # every run's snapshots were read back, and matched their datasets
    assert list(tmp_path.iterdir()) == []  # written to a temporary directory only


def test_time_large_run_reads_l_for_simulated_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["time_large_run.py", "--n", "20", "--k", "2", "--t", "2", "--l", "2",
                                      "--strategies", "gr,tc"])
    runpy.run_path(str(SCRIPTS / "time_large_run.py"), run_name="__main__")  # exit 0: no SystemExit
    assert capsys.readouterr().out.splitlines()[0] == "gr,tc runs, in-process: N=20 K=2 T=2 seed=0"


def test_time_large_run_config_error_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["time_large_run.py", "--n", "20", "--k", "2", "--t", "2", "--strategies", "gr"])
    with pytest.raises(SystemExit) as info:
        runpy.run_path(str(SCRIPTS / "time_large_run.py"), run_name="__main__")
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "time_large_run.py: error: L must not exceed K (4 > 2)"
    assert "Traceback" not in captured.err


_BAD_LINE = '{"query_id": 1, "gt_answer": "a", "extracted_answer": "a", "token_count": "7"}\n'


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "log.jsonl: cannot read log (No such file or directory)"),
        (_BAD_LINE.replace('"7"', "7") + _BAD_LINE, "log.jsonl: line 2: token_count must be an integer"),
    ],
    ids=["missing", "bad line"],
)
def test_time_large_run_schema_error_is_one_line(text, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "log.jsonl").write_text(text, encoding="utf-8")
    monkeypatch.setattr(sys, "argv", ["time_large_run.py", "--log", "log.jsonl", "--k", "4"])
    with pytest.raises(SystemExit) as info:
        runpy.run_path(str(SCRIPTS / "time_large_run.py"), run_name="__main__")
    assert info.value.code == harness.EXIT_SCHEMA
    assert capsys.readouterr() == ("", f"schema error: {message}\n")  # no traceback


def test_time_large_run_hashes_what_rebalance_writes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_log(tmp_path / "log.jsonl")
    assert cli.main(["rebalance", "--input", "log.jsonl", "--output", "out.jsonl", "--strategy", "tc",
                     "--k", "4", "--l", "2"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["time_large_run.py", "--log", "log.jsonl", "--k", "4", "--l", "2"])
    runpy.run_path(str(SCRIPTS / "time_large_run.py"), run_name="__main__")
    table = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert [name for name, _ in table] == ["load_s", "grade_s", "wall_s", "peak_rss_mib", "sha256"]
    assert table[-1][1] == hashlib.sha256((tmp_path / "out.jsonl").read_bytes()).hexdigest()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.jsonl", "out.jsonl"]  # its output is temporary


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Library use)", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 6  # five filter rows and the sample line


def test_count_code_lines_rule():
    count_lines = runpy.run_path(str(SCRIPTS / "count_code_lines.py"))["count_lines"]
    source = (
        '"""Module\ndocstring."""\n\n# a comment\nx = """two\nlines"""  # trailing\n\n'
        'def f():\n    """Doc."""\n    return x\n'
    )
    assert count_lines(source) == {"code": 4, "docstring": 3, "comment": 1, "blank": 2}
