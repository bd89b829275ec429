import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from headtail import cli, harness
from headtail.cli import _worker_count, main
from headtail.harness import OUTPUT_DIR_ENV, load_log
from headtail.rewards import filter_dataset, load_alias_table

BEYOND_64_BITS = "100000000000000000000"

SMALL_CFG = {
    "n_queries": 40,
    "k_samples": 4,
    "iterations": 2,
    "calibration_shots": 16,
}

# keys a config held before it described exactly one run, and their errors
RETIRED_KEYS = [
    pytest.param({"seeds": [0]}, "unknown config keys: ['seeds']", id="seeds"),
    pytest.param({"output_dir": "elsewhere"}, "unknown config keys: ['output_dir']", id="output_dir"),
    pytest.param({"strategy": {"seed": None}}, "unknown strategy keys: ['seed']", id="strategy.seed"),
]


def report_files(run_dir):
    return {p.relative_to(run_dir).as_posix(): p.read_bytes() for p in sorted(run_dir.rglob("*")) if p.is_file()}


def write_cfg(tmp_path, **extra):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL_CFG, **extra}))
    return path


def write_log(tmp_path, k_correct, K):
    lines = []
    for qid, k in sorted(k_correct.items()):
        for j in range(1, K + 1):
            lines.append(
                json.dumps(
                    {
                        "query_id": qid,
                        "gt_answer": f"a{qid}",
                        "extracted_answer": f"a{qid}" if j <= k else "no",
                        "token_count": 30,
                    }
                )
            )
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestRunVerb:
    def test_run_writes_report(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--seed", "0", "--output-dir", str(out)])
        assert code == 0
        assert (out / "metrics.csv").exists()
        assert "report written" in capsys.readouterr().out

    def test_flag_overrides(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["run", "--n", "30", "--k", "4", "--t", "1", "--strategy", "rp",
             "--seed", "1", "--output-dir", str(out)]
        )
        assert code == 0
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["n_queries"] == 30
        assert cfg["strategy"]["kind"] == "rp"
        assert cfg["seed"] == 1

    def test_k_below_threshold_is_config_error(self):
        assert main(["run", "--n", "10", "--k", "2", "--t", "1", "--strategy", "tc"]) == 2

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, mode="wat")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mystery": 1}))
        assert main(["run", "--config", str(cfg)]) == 2

    def test_mistyped_seed_exit_config(self, tmp_path, capsys):
        for seed in ("x", [0], 2.5, True):
            cfg = write_cfg(tmp_path, seed=seed)
            assert main(["run", "--config", str(cfg)]) == 2
            assert "seed must be int" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "seed, message",
        [("-1", "seed must be >= 0"), ("9223372036854775808", "seed must be < 2**63"),
         ("18446744073709551616", "seed must be < 2**63")],
        ids=["minus-one", "2**63", "2**64"],
    )
    def test_seed_outside_its_range_exit_config(self, tmp_path, capsys, seed, message):
        # the sampler keys its streams by the seed modulo 2**64, so such a seed
        # would rerun another seed's run under its own name
        out = tmp_path / "out"
        for argv in (["run", "--seed", seed], ["run", "--config", str(write_cfg(tmp_path, seed=int(seed)))],
                     ["sweep", "--seeds", f"0,{seed}"]):
            assert main([*argv, "--n", "10", "--t", "1", "--output-dir", str(out)]) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize("extra, message", RETIRED_KEYS)
    def test_retired_config_key_exit_config(self, tmp_path, capsys, monkeypatch, extra, message):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        write_cfg(tmp_path, **extra)
        assert main(["run", "--config", "cfg.json"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_report_files_do_not_depend_on_the_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path)
        absolute, relative = tmp_path / "a" / "o1", Path("o2")
        for out in (absolute, relative):
            assert main(["run", "--config", str(cfg), "--seed", "3", "--output-dir", str(out)]) == 0
        files = report_files(absolute)
        assert sorted(files) == sorted(harness.REPORT_FILES)
        assert files == report_files(tmp_path / relative)
        assert json.loads(files["config.json"])["seed"] == 3

    def test_mistyped_integer_exit_config(self, tmp_path, capsys):
        for value in ("x", True, 2.5):
            cfg = write_cfg(tmp_path, k_samples=value)
            assert main(["run", "--config", str(cfg)]) == 2
            assert "k_samples must be int" in capsys.readouterr().err

    def test_non_object_strategy_exit_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, strategy=[1])
        assert main(["run", "--config", str(cfg)]) == 2
        assert "strategy must be StrategyConfig" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    def test_missing_config_exit_config(self, tmp_path, capsys, verb):
        out = tmp_path / "out"
        code = main([verb, "--config", str(tmp_path / "absent.json"), "--output-dir", str(out)])
        assert code == 2
        assert f"config error: cannot read config {tmp_path / 'absent.json'}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_config_exit_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"n_queries": 10, "note": "\xff"}')
        assert main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert "config error: config is not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_nested_too_deeply_exit_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "config error: config cannot be decoded: nested too deeply\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, key",
        [('{"seed": 1, "n_queries": 10, "iterations": 1, "seed": 7}', "seed"),
         ('{"n_queries": 10, "iterations": 1, "strategy": {"kind": "tc", "kind": "rp"}}', "kind")],
        ids=["top-level", "nested"],
    )
    @pytest.mark.parametrize("verb", ["run", "sweep", "report"])
    def test_key_given_twice_exit_config(self, tmp_path, capsys, text, key, verb):
        # json.loads alone keeps the last value, which would run under a config.json that records only it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        if verb == "report":  # a run directory whose config.json gives a key twice
            (out / "datasets").mkdir(parents=True)
            (out / "datasets" / "train_final.jsonl").write_text("")
            cfg.rename(out / "config.json")
            argv = ["report", "--run-dir", str(out)]
        else:
            argv = [verb, "--config", str(cfg), "--output-dir", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"config error: config is not valid JSON: key {key!r} is given twice\n")
        assert sorted(p.name for p in tmp_path.rglob("*")) == (
            ["config.json", "datasets", "out", "train_final.jsonl"] if verb == "report" else ["cfg.json"]
        )

    def test_env_output_dir_is_only_a_default(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path)
        env_dir, given = tmp_path / "env", tmp_path / "given"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_dir))
        assert main(["run", "--config", str(cfg), "--output-dir", str(given)]) == 0
        assert (given / "metrics.csv").exists() and not env_dir.exists()
        assert main(["run", "--config", str(cfg)]) == 0
        assert (env_dir / "metrics.csv").exists()


    def test_aborted_run_writes_partial_report_exit_abort(self, tmp_path, capsys, monkeypatch):
        from headtail.learner import LearnerState

        def boom(self, corpus, query_ids):
            raise RuntimeError("backend down")

        monkeypatch.setattr(LearnerState, "sample_fresh", boom)
        out = tmp_path / "out"
        code = main(["run", "--strategy", "ar", "--n", "12", "--t", "1", "--output-dir", str(out)])
        assert code == 4
        assert capsys.readouterr().err == "aborted: sampler error\n"
        assert json.loads((out / "summary.json").read_text())["incomplete"] is True

    @pytest.mark.parametrize(
        "learner",
        [
            pytest.param({"learner": {"sigma_log_len": 1e300}}, id="sigma_log_len-1e300"),
            pytest.param({"learner": {"correction_length_boost": 1e300}, "strategy": {"kind": "sc"}},
                         id="correction_length_boost-1e300-sc"),
        ],
    )
    def test_length_past_64_bits_aborts_without_warning(self, tmp_path, capsys, learner):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, n_queries=20, iterations=2, **learner)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(cfg), "--output-dir", str(out)])
        assert code == 4
        assert capsys.readouterr().err == "aborted: a drawn length does not fit in 64 bits\n"
        assert json.loads((out / "summary.json").read_text())["incomplete"] is True
        assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize(
        "extra, message",
        [
            pytest.param({"corpus": {"base_tokens": math.inf}}, "base_tokens must be finite", id="base_tokens-inf"),
            pytest.param({"corpus": {"length_jitter": math.nan}}, "length_jitter must be finite", id="length_jitter-nan"),
            pytest.param({"corpus": {"hard_difficulty": [0.8, math.nan]}}, "hard_difficulty must be finite",
                         id="hard_difficulty-element-nan"),
            pytest.param({"learner": {"sigma_log_len": math.nan}}, "sigma_log_len must be finite", id="sigma_log_len-nan"),
            pytest.param({"learner": {"sigma_log_len": math.inf}}, "sigma_log_len must be finite", id="sigma_log_len-inf"),
            pytest.param({"learner": {"init_noise": math.nan}}, "init_noise must be finite", id="init_noise-nan"),
            pytest.param({"learner": {"init_noise": math.inf}}, "init_noise must be finite", id="init_noise-inf"),
            pytest.param({"learner": {"prefix_gain": math.nan}, "strategy": {"kind": "gr"}},
                         "prefix_gain must be finite", id="prefix_gain-nan-gr"),
            pytest.param({"learner": {"prefix_gain": math.inf}, "strategy": {"kind": "gr"}},
                         "prefix_gain must be finite", id="prefix_gain-inf-gr"),
            pytest.param({"learner": {"correction_length_boost": math.nan}, "strategy": {"kind": "sc"}},
                         "correction_length_boost must be finite", id="correction_length_boost-nan-sc"),
            pytest.param({"learner": {"correction_length_boost": -5}, "strategy": {"kind": "sc"}},
                         "correction_length_boost must be > -1", id="correction_length_boost-below-minus-one-sc"),
        ],
    )
    def test_non_finite_or_out_of_domain_float_exit_config(self, tmp_path, capsys, extra, message):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, n_queries=20, iterations=2, **extra)
        assert main(["run", "--config", str(cfg), "--output-dir", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, flags, message",
        [
            pytest.param({}, ["--k", BEYOND_64_BITS], "k_samples must be < 2**63", id="k-flag"),
            pytest.param({}, ["--strategy", "gr", "--l", "2", "--s", BEYOND_64_BITS], "S must be < 2**63",
                         id="s-flag-gr"),
            pytest.param({"n_queries": int(BEYOND_64_BITS)}, [], "n_queries must be < 2**63", id="n_queries"),
            pytest.param({"iterations": int(BEYOND_64_BITS)}, [], "iterations must be < 2**63", id="iterations"),
            pytest.param({"calibration_shots": int(BEYOND_64_BITS)}, [], "calibration_shots must be < 2**63",
                         id="calibration_shots"),
            pytest.param({"strategy": {"L": int(BEYOND_64_BITS)}}, [], "L must be < 2**63", id="strategy-L"),
            pytest.param({"strategy": {"K": 4}}, [], "unknown strategy keys: ['K']", id="strategy-K"),
            pytest.param({"strategy": {"min_cot_tokens": int(BEYOND_64_BITS)}}, [],
                         "min_cot_tokens must be < 2**63", id="strategy-min_cot_tokens"),
        ],
    )
    def test_integer_beyond_64_bits_exit_config(self, tmp_path, capsys, extra, flags, message):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, **extra)
        assert main(["run", "--config", str(cfg), *flags, "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


class TestRebalanceVerb:
    def test_tc_round_trip(self, tmp_path, capsys):
        src = write_log(tmp_path, {1: 6, 2: 3, 3: 1}, K=8)
        out = tmp_path / "train.jsonl"
        code = main(
            ["rebalance", "--input", str(src), "--output", str(out),
             "--strategy", "tc", "--k", "8", "--l", "4"]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 8
        assert "24 records in" in capsys.readouterr().out

    def test_schema_error_exit_code(self, tmp_path, capsys):
        src = tmp_path / "log.jsonl"
        src.write_text('{"query_id": 1}\n')
        out = tmp_path / "train.jsonl"
        code = main(
            ["rebalance", "--input", str(src), "--output", str(out),
             "--strategy", "vanilla", "--k", "4"]
        )
        assert code == 3
        assert "line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_sampler_strategy_rejected(self, tmp_path):
        src = write_log(tmp_path, {1: 1}, K=2)
        code = main(
            ["rebalance", "--input", str(src), "--output", str(tmp_path / "o.jsonl"),
             "--strategy", "gr", "--k", "2"]
        )
        assert code == 2

    @pytest.mark.parametrize("kind", ["ar", "gr", "sc"])
    def test_resampling_kind_exit_config_before_the_log_is_read(self, tmp_path, capsys, kind):
        out, summary = tmp_path / "o.jsonl", tmp_path / "s.csv"
        code = main(["rebalance", "--input", str(tmp_path / "absent.jsonl"), "--output", str(out),
                     "--summary", str(summary), "--strategy", kind, "--k", "4"])
        assert code == 2
        assert "offline mode supports reshaping only" in capsys.readouterr().err
        assert not out.exists() and not summary.exists()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_its_range_exit_config_before_the_log_is_read(self, tmp_path, capsys, seed):
        out = tmp_path / "o.jsonl"
        code = main(["rebalance", "--input", str(tmp_path / "absent.jsonl"), "--output", str(out),
                     "--strategy", "tc", "--k", "4", "--seed", seed])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: seed must be ")
        assert not out.exists()

    def test_unordered_step_offsets_exit_schema(self, tmp_path, capsys):
        src = tmp_path / "log.jsonl"
        src.write_text(
            '{"query_id": 1, "gt_answer": "a", "extracted_answer": "a", "token_count": 20}\n'
            '{"query_id": 1, "gt_answer": "a", "extracted_answer": "a", "token_count": 20,'
            ' "step_offsets": [10, 5]}\n'
        )
        out = tmp_path / "train.jsonl"
        code = main(
            ["rebalance", "--input", str(src), "--output", str(out),
             "--strategy", "vanilla", "--k", "4"]
        )
        assert code == 3
        assert "line 2: step_offsets must be strictly ascending" in capsys.readouterr().err
        assert not out.exists()

    def test_query_id_beyond_64_bits_exit_schema(self, tmp_path, capsys):
        log = write_log(tmp_path, {1: 2}, K=2)
        with open(log, "a") as fh:
            fh.write(json.dumps({"query_id": 2**64, "gt_answer": "a", "extracted_answer": "a",
                                 "token_count": 30}) + "\n")
        out = tmp_path / "out.jsonl"
        code = main(["rebalance", "--input", str(log), "--output", str(out), "--strategy", "rp", "--k", "2"])
        assert code == 3
        assert "line 3" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_knobs_exit_config(self, tmp_path, capsys):
        src = write_log(tmp_path, {1: 4}, K=8)
        out = tmp_path / "o.jsonl"
        for knobs in (["--l", "9"], ["--min-cot-tokens", "-1"]):
            code = main(
                ["rebalance", "--input", str(src), "--output", str(out),
                 "--strategy", "tc", "--k", "8", *knobs]
            )
            assert code == 2
            assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_strategies_without_l_take_small_k(self, tmp_path):
        src = write_log(tmp_path, {1: 1, 2: 2}, K=2)
        for kind in ("vanilla", "rp"):
            out = tmp_path / f"{kind}.jsonl"
            code = main(
                ["rebalance", "--input", str(src), "--output", str(out),
                 "--strategy", kind, "--k", "2"]
            )
            assert code == 0
            assert out.exists()

    def test_missing_input_exit_schema(self, tmp_path, capsys):
        out = tmp_path / "o.jsonl"
        code = main(["rebalance", "--input", str(tmp_path / "absent.jsonl"), "--output", str(out),
                     "--strategy", "vanilla", "--k", "4"])
        assert code == 3
        absent = tmp_path / "absent.jsonl"
        assert capsys.readouterr().err == f"schema error: {absent}: cannot read log (No such file or directory)\n"
        assert not out.exists()

    @pytest.mark.parametrize("fault, reason", [("open", "Permission denied"), ("read", "Input/output error")])
    def test_unreadable_input_exit_schema_before_anything_is_written(self, tmp_path, capsys, monkeypatch,
                                                                     fault, reason):
        src = write_log(tmp_path, {1: 4}, K=4)

        class FailingReads(io.StringIO):
            def __next__(self):
                raise OSError(errno.EIO, reason)

        def failing_open(path, *args, **kwargs):
            if Path(path) != src:
                return open(path, *args, **kwargs)
            if fault == "open":
                raise PermissionError(errno.EACCES, reason, str(path))
            return FailingReads()

        monkeypatch.setattr(harness, "open", failing_open, raising=False)
        code = main(["rebalance", "--input", str(src), "--output", str(tmp_path / "o.jsonl"),
                     "--summary", str(tmp_path / "s.csv"), "--strategy", "rp", "--k", "4"])
        assert code == 3
        assert capsys.readouterr() == ("", f"schema error: {src}: cannot read log ({reason})\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.jsonl"]

    def test_alias_table_grades_end_to_end(self, tmp_path, capsys):
        # "half" matches its ground truth "1/2" only through the table
        log = tmp_path / "log.jsonl"
        answers = ["half", "1/2", "half", "third"]
        log.write_text("".join(json.dumps({"query_id": 1, "gt_answer": "1/2", "extracted_answer": a,
                                           "token_count": 30}) + "\n" for a in answers))
        table = tmp_path / "aliases.tsv"
        table.write_text("half\t1/2\n", encoding="utf-8")
        kept = []
        for extra in ([], ["--alias-table", str(table)]):
            assert main(["rebalance", "--input", str(log), "--output", str(tmp_path / "o.jsonl"),
                         "--strategy", "vanilla", "--k", "4", *extra]) == 0
            kept.append(int(re.search(r"(\d+) kept by reward", capsys.readouterr().out)[1]))
        assert kept[0] == 1
        assert kept[1] != kept[0]
        assert kept[1] == len(filter_dataset(load_log(log), load_alias_table(table))) == 3

    @pytest.mark.parametrize("table, message", [
        ("\\\\pi\tπ\nno-tab-here\n","line 2: expected pattern<TAB>canonical"),
        ("x(\tY\n", "line 1: missing ), unterminated subpattern"),
        ("x\t\\1\n", "line 1: invalid group reference 1"),
        ("half\t1/2\nHalf\t1/2\n", "line 2: pattern 'Half' can never match"),
        ("ab\\s+C\tx\n", "line 1: pattern 'ab\\\\s+C' can never match"),
        (None, "cannot read alias table"),
    ])
    def test_bad_alias_table_exit_config(self, tmp_path, capsys, table, message):
        # every answer equals its ground truth, so none reaches normalization
        src = write_log(tmp_path, {1: 4}, K=4)
        aliases = tmp_path / "aliases.tsv"
        if table is not None:
            aliases.write_text(table, encoding="utf-8")
        out = tmp_path / "o.jsonl"
        code = main(["rebalance", "--input", str(src), "--output", str(out), "--strategy", "vanilla",
                     "--k", "4", "--alias-table", str(aliases)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()

    def test_summary_csv(self, tmp_path):
        src = write_log(tmp_path, {1: 4}, K=4)
        summary = tmp_path / "summary.csv"
        code = main(
            ["rebalance", "--input", str(src), "--output", str(tmp_path / "o.jsonl"),
             "--strategy", "rp", "--k", "4", "--summary", str(summary)]
        )
        assert code == 0
        assert len(summary.read_text().splitlines()) == 2

    def test_summary_into_missing_directory(self, tmp_path):
        src = write_log(tmp_path, {1: 4}, K=4)
        summary = tmp_path / "nodir" / "deeper" / "x.csv"
        code = main(
            ["rebalance", "--input", str(src), "--output", str(tmp_path / "o.jsonl"),
             "--strategy", "rp", "--k", "4", "--summary", str(summary)]
        )
        assert code == 0
        assert len(summary.read_text().splitlines()) == 2

    @pytest.mark.parametrize("flag", ["--output", "--summary"])
    def test_directory_target_exit_config_before_anything_is_written(self, tmp_path, capsys, flag):
        src = write_log(tmp_path, {1: 4}, K=4)
        target = tmp_path / "target"
        target.mkdir()
        paths = {"--output": str(tmp_path / "o.jsonl"), "--summary": str(tmp_path / "s.csv"), flag: str(target)}
        code = main(["rebalance", "--input", str(src), "--strategy", "rp", "--k", "4",
                     *(arg for pair in paths.items() for arg in pair)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{target} is a directory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.jsonl", "target"]
        assert list(target.iterdir()) == []

    def test_summary_on_output_exit_config_before_anything_is_written(self, tmp_path, capsys):
        src = write_log(tmp_path, {1: 4}, K=4)
        summary = f"{tmp_path}/sub/../o.jsonl"  # the output file, under another spelling
        code = main(["rebalance", "--input", str(src), "--strategy", "rp", "--k", "4",
                     "--output", str(tmp_path / "o.jsonl"), "--summary", summary])
        assert code == 2
        assert capsys.readouterr().err == f"config error: summary path {summary} is the output path\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.jsonl"]

    @pytest.mark.parametrize("flag, read, message", [
        ("--output", "--input", "output path {} is the input log"),
        ("--summary", "--input", "summary path {} is the input log"),
        ("--output", "--alias-table", "output path {} is the alias table"),
        ("--summary", "--alias-table", "summary path {} is the alias table"),
    ])
    def test_target_on_a_file_read_exit_config_and_file_kept(self, tmp_path, capsys, flag, read, message):
        src = write_log(tmp_path, {1: 4}, K=4)
        table = tmp_path / "aliases.tsv"
        table.write_text("half\t1/2\n", encoding="utf-8")
        kept = {"--input": src, "--alias-table": table}[read]
        before = kept.read_bytes()
        link = tmp_path / "link"
        link.symlink_to(kept)  # the same file under another name
        target = f"{tmp_path}/sub/../link"  # ... and another spelling
        paths = {"--input": str(src), "--alias-table": str(table), "--output": str(tmp_path / "o.jsonl"),
                 "--summary": str(tmp_path / "s.csv"), flag: target}
        code = main(["rebalance", "--strategy", "rp", "--k", "4", *(arg for pair in paths.items() for arg in pair)])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message.format(target)}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["aliases.tsv", "link", "log.jsonl"]
        assert kept.read_bytes() == before

    def test_output_equal_to_input_exit_config(self, tmp_path, capsys):
        src = write_log(tmp_path, {1: 4}, K=4)
        before = src.read_bytes()
        code = main(["rebalance", "--input", str(src), "--output", str(src), "--strategy", "rp", "--k", "4"])
        assert code == 2
        assert capsys.readouterr().err == f"config error: output path {src} is the input log\n"
        assert src.read_bytes() == before

    def test_non_utf8_log_exit_schema(self, tmp_path, capsys):
        src = write_log(tmp_path, {1: 2}, K=2)
        with open(src, "ab") as fh:
            fh.write(b"\n" + b'{"query_id": 1, "gt_answer": "a\xff", "extracted_answer": "a", "token_count": 30}\n')
        out = tmp_path / "o.jsonl"
        code = main(["rebalance", "--input", str(src), "--output", str(out), "--strategy", "vanilla", "--k", "2"])
        assert code == 3
        assert capsys.readouterr().err == f"schema error: {src}: line 4: not valid UTF-8\n"
        assert not out.exists()


class TestReportVerb:
    def test_recompute_from_snapshot(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--seed", "0", "--output-dir", str(out)])
        capsys.readouterr()
        code = main(["report", "--run-dir", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert text.startswith("iteration,role,total")
        assert len(text.strip().splitlines()) == 2

    @pytest.mark.parametrize(
        "mode, kind", [("self_improve", "rp"), ("iterative_union", "gr"), ("batch_baseline", "sc")]
    )
    def test_rows_agree_with_metrics_csv(self, tmp_path, capsys, mode, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_queries": 50, "k_samples": 4, "iterations": 2,
                                   "mode": mode, "strategy": {"kind": kind}}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--seed", "0", "--output-dir", str(out)]) == 0
        rows = (out / "metrics.csv").read_text().splitlines()
        for name, role in (("filter_final", "filter"), ("train_final", "train")):
            capsys.readouterr()
            assert main(["report", "--run-dir", str(out), "--dataset", name]) == 0
            last = [row for row in rows if row.split(",")[1] == role][-1]
            assert capsys.readouterr().out.splitlines() == [rows[0], last]

    @pytest.mark.parametrize("mode", ["self_improve", "iterative_union", "batch_baseline"])
    def test_empty_snapshot_row_agrees_with_metrics_csv(self, tmp_path, capsys, mode):
        # nothing is ever solved, so both final snapshots are empty
        cfg = write_cfg(tmp_path, n_queries=10, k_samples=2, mode=mode,
                        learner={"init_noise": 0.0, "p_floor": 0.0},
                        corpus={"easy_fraction": 0.0, "hard_difficulty": [1.0, 1.0]})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--seed", "0", "--output-dir", str(out)]) == 0
        rows = (out / "metrics.csv").read_text().splitlines()
        for name, role in (("filter_final", "filter"), ("train_final", "train")):
            assert (out / "datasets" / f"{name}.jsonl").read_text() == ""
            capsys.readouterr()
            assert main(["report", "--run-dir", str(out), "--dataset", name]) == 0
            last = [row for row in rows if row.split(",")[1] == role][-1]
            assert last.startswith(f"{1 if mode == 'batch_baseline' else 2},{role},0,")
            assert capsys.readouterr().out.splitlines() == [rows[0], last]

    def test_unknown_snapshot_name_exit_config(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["report", "--run-dir", str(tmp_path), "--dataset", "sample_final"])
        assert info.value.code == 2

    @pytest.mark.parametrize("name", ["train_final", "filter_final"])
    def test_incorrect_row_in_all_correct_snapshot_exit_schema(self, tmp_path, capsys, name):
        line = {"query_id": 1, "sample_index": 1, "iteration": 1, "origin": "explored",
                "prefix_steps": 0, "length_tokens": 30, "level": 2, "correct": True}
        snapshot = tmp_path / "datasets" / f"{name}.jsonl"
        snapshot.parent.mkdir()
        snapshot.write_text(json.dumps(line) + "\n" + json.dumps({**line, "correct": False}) + "\n")
        assert main(["report", "--run-dir", str(tmp_path), "--dataset", name]) == 3
        captured = capsys.readouterr()
        assert "may only contain correct trajectories" in captured.err
        assert captured.out == ""

    def test_false_flag_in_a_written_snapshot_names_its_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--n", "30", "--k", "4", "--t", "2", "--seed", "0", "--output-dir", str(out)]) == 0
        snapshot = out / "datasets" / "filter_final.jsonl"
        lines = snapshot.read_text().splitlines(keepends=True)
        assert len(lines) > 3 and all(line.startswith('{"correct": true, ') for line in lines)
        lines[2] = lines[2].replace('{"correct": true, ', '{"correct": false, ')
        snapshot.write_text("".join(lines))
        capsys.readouterr()
        assert main(["report", "--run-dir", str(out), "--dataset", "filter_final"]) == 3
        assert capsys.readouterr() == (
            "", f"schema error: {snapshot}: line 3: filter datasets may only contain correct trajectories\n"
        )

    def test_bad_config_file_exit_config(self, tmp_path, capsys):
        snapshot = tmp_path / "datasets" / "train_final.jsonl"
        snapshot.parent.mkdir()
        snapshot.write_text("")
        for text in ("{broken", "[1]"):
            (tmp_path / "config.json").write_text(text)
            assert main(["report", "--run-dir", str(tmp_path)]) == 2
            captured = capsys.readouterr()
            assert "config error" in captured.err
            assert captured.out == ""

    def test_invalid_config_values_exit_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_cfg(tmp_path)), "--output-dir", str(out)]) == 0
        saved = json.loads((out / "config.json").read_text())
        (out / "config.json").write_text(json.dumps({**saved, "k_samples": 0}))
        capsys.readouterr()
        assert main(["report", "--run-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert "k_samples must be >= 1" in captured.err
        assert captured.out == ""

    def test_config_with_a_strategy_k_exit_config(self, tmp_path, capsys):
        # a run directory written before StrategyConfig lost its K field
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_cfg(tmp_path)), "--output-dir", str(out)]) == 0
        saved = json.loads((out / "config.json").read_text())
        assert "K" not in saved["strategy"]
        (out / "config.json").write_text(json.dumps({**saved, "strategy": {**saved["strategy"], "K": None}}))
        capsys.readouterr()
        assert main(["report", "--run-dir", str(out)]) == 2
        assert capsys.readouterr() == ("", "config error: unknown strategy keys: ['K']\n")

    @pytest.mark.parametrize("extra, message", RETIRED_KEYS)
    def test_config_with_a_retired_key_exit_config(self, tmp_path, capsys, extra, message):
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_cfg(tmp_path)), "--output-dir", str(out)]) == 0
        saved = json.loads((out / "config.json").read_text())
        (out / "config.json").write_text(json.dumps({**saved, **extra}))
        capsys.readouterr()
        assert main(["report", "--run-dir", str(out)]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    def test_missing_snapshot(self, tmp_path, capsys):
        assert main(["report", "--run-dir", str(tmp_path)]) == 3
        snapshot = tmp_path / "datasets" / "train_final.jsonl"
        assert capsys.readouterr() == (
            "", f"schema error: {snapshot}: cannot read snapshot (No such file or directory)\n")

    @pytest.mark.parametrize("name", ["train_final", "filter_final"])
    def test_snapshot_that_is_a_directory_exit_schema(self, tmp_path, capsys, name):
        line = {"query_id": 1, "sample_index": 1, "iteration": 1, "length_tokens": 30, "correct": True}
        datasets = tmp_path / "datasets"
        datasets.mkdir()
        for snapshot in ("train_final", "filter_final"):
            (datasets / f"{snapshot}.jsonl").write_text(json.dumps(line) + "\n")
        directory = datasets / f"{name}.jsonl"
        directory.unlink()
        directory.mkdir()
        assert main(["report", "--run-dir", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"schema error: {directory}: cannot read snapshot")
        assert captured.out == ""

    def test_malformed_snapshot_lines(self, tmp_path, capsys):
        good = {"query_id": 1, "sample_index": 1, "iteration": 1, "origin": "explored",
                "prefix_steps": 0, "length_tokens": 30, "level": 2, "correct": True}
        snapshot = tmp_path / "datasets" / "train_final.jsonl"
        snapshot.parent.mkdir()
        for bad in ([1, 2], {**good, "sample_index": "x"}):
            snapshot.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
            assert main(["report", "--run-dir", str(tmp_path)]) == 3
            captured = capsys.readouterr()
            assert "line 2" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("name", ["train_final", "filter_final"])
    def test_bad_line_error_names_its_snapshot(self, tmp_path, capsys, name):
        # report --dataset train_final also reads filter_final for the per-query counts
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_cfg(tmp_path)), "--seed", "0", "--output-dir", str(out)]) == 0
        snapshot = out / "datasets" / f"{name}.jsonl"
        lines = snapshot.read_text().splitlines()
        lines[1] = lines[1].replace('"correct": true', '"correct": 1')
        snapshot.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["report", "--run-dir", str(out), "--dataset", "train_final"]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"schema error: {snapshot}: line 2: correct must be true or false\n"
        assert captured.out == ""

    def test_non_utf8_snapshot_exit_schema(self, tmp_path, capsys):
        line = {"query_id": 1, "sample_index": 1, "iteration": 1, "origin": "explored",
                "prefix_steps": 0, "length_tokens": 30, "level": 2, "correct": True}
        snapshot = tmp_path / "datasets" / "train_final.jsonl"
        snapshot.parent.mkdir()
        snapshot.write_bytes(json.dumps(line).encode() + b"\n" + json.dumps(line).encode()[:-1] + b', "x\xff": 1}\n')
        assert main(["report", "--run-dir", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"schema error: {snapshot}: line 2: not valid UTF-8\n"
        assert captured.out == ""

    def test_conflicting_levels_exit_schema(self, tmp_path, capsys):
        line = {"query_id": 1, "sample_index": 1, "iteration": 1, "origin": "explored",
                "prefix_steps": 0, "length_tokens": 30, "level": 2, "correct": True}
        snapshot = tmp_path / "datasets" / "train_final.jsonl"
        snapshot.parent.mkdir()
        other = {**line, "sample_index": 2, "level": 3}
        snapshot.write_text(json.dumps(line) + "\n" + json.dumps(other) + "\n")
        assert main(["report", "--run-dir", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        # a file-level error names the snapshot once
        assert captured.err == f"schema error: {snapshot}: conflicting records for query 1\n"
        assert captured.out == ""

    def test_values_beyond_64_bits_exit_schema(self, tmp_path, capsys):
        line = {"query_id": 1, "sample_index": 1, "iteration": 1, "origin": "explored",
                "prefix_steps": 0, "length_tokens": 2**64, "level": 2, "correct": True}
        snapshot = tmp_path / "datasets" / "train_final.jsonl"
        snapshot.parent.mkdir()
        snapshot.write_text(json.dumps(line) + "\n")
        assert main(["report", "--run-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == f"schema error: {snapshot}: line 1: length_tokens must fit in 64 bits\n"


class TestSweepVerb:
    def test_small_grid(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", str(cfg), "--seeds", "0,1",
             "--strategies", "vanilla,rp", "--output-dir", str(out)]
        )
        assert code == 0
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 4
        assert (out / "vanilla_k4_l4_s4_seed0" / "metrics.csv").exists()
        assert (out / "rp_k4_l4_s4_seed1" / "metrics.csv").exists()

    @given(
        seeds=st.lists(st.integers(0, 2), min_size=1, max_size=2),
        kinds=st.lists(st.sampled_from(["vanilla", "tc", "rp", "gr"]), min_size=1, max_size=2),
        ks=st.lists(st.integers(1, 2), min_size=1, max_size=2),
        ls=st.lists(st.integers(1, 2), min_size=1, max_size=2),
        ss=st.lists(st.integers(2, 3), min_size=1, max_size=2),
    )
    @example(seeds=[1, 1], kinds=["rp", "rp"], ks=[2, 2], ls=[1, 1], ss=[2, 2])
    @settings(max_examples=8)
    def test_n_runs_give_n_dirs_and_n_summary_lines(self, seeds, kinds, ks, ls, ss):
        # tc and gr read L (and skip L > K), gr reads S; an axis a kind does
        # not read runs at its first value only
        expected = {
            f"{kind}_k{k}_l{L}_s{S}_seed{seed}"
            for kind in kinds for k in ks
            for L in (ls if kind in ("tc", "gr") else ls[:1]) if L <= k or kind not in ("tc", "gr")
            for S in (ss if kind == "gr" else ss[:1]) for seed in seeds
        }
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "sweep"
            code = main(
                ["sweep", "--n", "12", "--t", "1", "--jobs", "1", "--output-dir", str(out),
                 "--seeds", ",".join(map(str, seeds)), "--strategies", ",".join(kinds),
                 "--k-values", ",".join(map(str, ks)), "--l-values", ",".join(map(str, ls)),
                 "--s-values", ",".join(map(str, ss))]
            )
            assert code == 0
            lines = (out / "sweep_summary.csv").read_text().splitlines()[1:]
            assert sorted(Path(line.split(",")[0]).name for line in lines) == sorted(expected)
            assert {p.name for p in out.iterdir() if p.is_dir()} == expected

    def test_points_with_l_above_k_skipped(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", str(cfg), "--seeds", "0", "--strategies", "vanilla,tc",
             "--k-values", "4", "--l-values", "2,8", "--output-dir", str(out)]
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == [
            "tc_k4_l2_s4_seed0", "vanilla_k4_l2_s4_seed0"
        ]

    def test_kinds_without_l_run_below_default_l(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--strategies", "vanilla,tc", "--k-values", "2", "--n", "12", "--t", "1",
                     "--seeds", "0", "--jobs", "1", "--output-dir", str(out)])
        assert code == 0
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["vanilla_k2_l4_s4_seed0"]
        assert "skipped tc_k2_l4_s4: L exceeds K" in capsys.readouterr().err

    def test_aborted_run_reported_and_written(self, tmp_path, capsys, monkeypatch):
        from headtail.learner import LearnerState

        def boom(self, corpus, query_ids):
            raise RuntimeError("backend down")

        monkeypatch.setattr(LearnerState, "sample_fresh", boom)
        out = tmp_path / "sweep"
        code = main(["sweep", "--strategies", "vanilla,ar", "--n", "12", "--t", "1", "--seeds", "0",
                     "--jobs", "1", "--output-dir", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert f"aborted {out / 'ar_k8_l4_s4_seed0'}: sampler error" in err
        summary = json.loads((out / "ar_k8_l4_s4_seed0" / "summary.json").read_text())
        assert summary["incomplete"] is True
        rows = (out / "sweep_summary.csv").read_text().splitlines()
        assert [Path(line.split(",")[0]).name for line in rows[1:]] == ["vanilla_k8_l4_s4_seed0"]

    def test_env_output_dir_is_the_sweep_base(self, tmp_path, monkeypatch):
        base = tmp_path / "env"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(base))
        code = main(["sweep", "--config", str(write_cfg(tmp_path)), "--seeds", "0,1",
                     "--strategies", "vanilla,rp"])
        assert code == 0
        run_dirs = [line.split(",")[0] for line in
                    (base / "sweep_summary.csv").read_text().splitlines()[1:]]
        assert len(set(run_dirs)) == 4
        for run_dir in run_dirs:
            assert (Path(run_dir) / "metrics.csv").exists()

    def test_config_seed_is_the_default_seed_axis(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(write_cfg(tmp_path, seed=5)), "--n", "12", "--t", "1",
                     "--output-dir", str(out)])
        assert code == 0
        (point,) = [p for p in out.iterdir() if p.is_dir()]
        assert point.name == "vanilla_k4_l4_s4_seed5"
        assert json.loads((point / "config.json").read_text())["seed"] == 5

    def test_mistyped_config_exit_config(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(write_cfg(tmp_path, k_samples="x")), "--output-dir", str(out)])
        assert code == 2
        assert "k_samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--seeds", "a"), ("--k-values", "x"), ("--l-values", "1,b"), ("--s-values", "2.5")],
    )
    def test_malformed_list_flag_exit_config(self, tmp_path, capsys, flag, value):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(write_cfg(tmp_path)), flag, value, "--output-dir", str(out)])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_exit_config(self, tmp_path, capsys, jobs):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(write_cfg(tmp_path)), "--jobs", jobs, "--output-dir", str(out)])
        assert code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_process_pool_writes_what_one_process_writes(self, tmp_path, monkeypatch):
        import concurrent.futures

        pools = []

        class CountedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sweep"  # both sweeps write here, so the summaries name the same run dirs
        trees = {}
        for jobs in ("1", "2"):
            code = main(["sweep", "--config", str(cfg), "--seeds", "0", "--strategies", "tc,vanilla",
                         "--jobs", jobs, "--output-dir", str(out)])
            assert code == 0
            trees[jobs] = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            out.rename(tmp_path / f"jobs{jobs}")
        assert pools == [2]
        assert len(trees["1"]) == 1 + 2 * len(harness.REPORT_FILES)
        assert trees["2"] == trees["1"]

    def test_each_seed_calibrates_once_and_writes_what_fresh_starts_write(self, tmp_path, monkeypatch):
        calibrations = []
        calibrate = harness.calibrate_difficulty
        monkeypatch.setattr(harness, "calibrate_difficulty", lambda rates: calibrations.append(1) or calibrate(rates))
        argv = ["sweep", "--strategies", "vanilla,tc", "--seeds", "0,1", "--n", "12", "--t", "1", "--jobs", "1"]
        out = tmp_path / "sweep"  # both sweeps write here, so the summaries name the same run dirs
        trees = {}
        for fresh in (False, True):
            if fresh:  # the reference: every point calibrates its own start
                prepared = harness._prepared_corpus_and_learner

                def fresh_start(config):
                    harness._last_start.clear()
                    return prepared(config)

                monkeypatch.setattr(harness, "_prepared_corpus_and_learner", fresh_start)
            calibrations.clear()
            assert main([*argv, "--output-dir", str(out)]) == 0
            assert len(calibrations) == (4 if fresh else 2)
            trees[fresh] = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            out.rename(tmp_path / f"fresh{fresh}")
        assert len(trees[False]) == 1 + 4 * len(harness.REPORT_FILES)
        assert trees[False] == trees[True]
        rows = trees[False]["sweep_summary.csv"].decode().splitlines()[1:]
        assert [Path(row.split(",")[0]).name for row in rows] == [
            "vanilla_k8_l4_s4_seed0", "vanilla_k8_l4_s4_seed1", "tc_k8_l4_s4_seed0", "tc_k8_l4_s4_seed1"
        ]

    def test_worker_count_is_capped(self, monkeypatch):
        # the pure helper only; no process is started
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert _worker_count(1, 10) == 1
        assert _worker_count(4, 10) == 2
        assert _worker_count(4, 1) == 1
        assert _worker_count(2, 3) == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _worker_count(4, 10) == 1


class TestOutputUnderARegularFile:
    """A target that is a regular file, or lies under one, is a config error
    (exit 2) raised before any run, sweep point or log read, so nothing is
    written."""

    @staticmethod
    def listing(tmp_path):
        return sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))

    @classmethod
    def blocked(cls, tmp_path, monkeypatch, name="F"):
        blocker = tmp_path / name
        blocker.parent.mkdir(parents=True, exist_ok=True)
        blocker.write_text("keep\n")

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output path was checked")

        monkeypatch.setattr(cli, "run_mode", no_work)
        monkeypatch.setattr(harness, "load_log", no_work)
        return blocker, cls.listing(tmp_path)

    @classmethod
    def assert_refused(cls, code, capsys, tmp_path, blocker, before):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{blocker}, which is not a directory" in err
        assert cls.listing(tmp_path) == before
        assert blocker.read_text() == "keep\n"

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_output_dir(self, tmp_path, capsys, monkeypatch, verb, below):
        cfg = write_cfg(tmp_path)
        blocker, before = self.blocked(tmp_path, monkeypatch)
        code = main([verb, "--config", str(cfg), "--seed", "0", "--output-dir", str(blocker / below)])
        self.assert_refused(code, capsys, tmp_path, blocker, before)

    @pytest.mark.parametrize("flag", ["--output", "--summary"])
    def test_rebalance_targets(self, tmp_path, capsys, monkeypatch, flag):
        src = write_log(tmp_path, {1: 4}, K=4)
        blocker, before = self.blocked(tmp_path, monkeypatch)
        paths = {"--output": str(tmp_path / "o.jsonl"), "--summary": str(tmp_path / "s.csv"),
                 flag: str(blocker / "x")}
        code = main(["rebalance", "--input", str(src), "--strategy", "rp", "--k", "4",
                     *(arg for pair in paths.items() for arg in pair)])
        self.assert_refused(code, capsys, tmp_path, blocker, before)

    def test_run_dir_entry_that_is_a_regular_file(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path)
        blocker, before = self.blocked(tmp_path, monkeypatch, "D/datasets")
        code = main(["run", "--config", str(cfg), "--seed", "0", "--output-dir", str(tmp_path / "D")])
        self.assert_refused(code, capsys, tmp_path, blocker, before)

    def test_sweep_point_dir_that_is_a_regular_file(self, tmp_path, capsys, monkeypatch):
        # the blocked point runs second: no point may run before every one is checked
        cfg = write_cfg(tmp_path)
        blocker, before = self.blocked(tmp_path, monkeypatch, "S/vanilla_k4_l4_s4_seed0")
        code = main(["sweep", "--config", str(cfg), "--seeds", "0", "--strategies", "tc,vanilla",
                     "--output-dir", str(tmp_path / "S")])
        self.assert_refused(code, capsys, tmp_path, blocker, before)


def test_cli_import_leaves_the_process_pool_out():
    # only sweep --jobs > 1 imports concurrent.futures (and multiprocessing with it)
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = "import sys, headtail.cli; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n"


class TestOutputUnderADanglingLink:
    """A symbolic link to nothing is no directory either: a target under one
    is a config error (exit 2) raised before anything runs or is written,
    and the link is left as it was.  A link to a directory is a directory."""

    @pytest.mark.parametrize("verb, flag", [
        ("run", "--output-dir"), ("sweep", "--output-dir"), ("rebalance", "--output"), ("rebalance", "--summary"),
    ])
    def test_target_under_the_link_exit_config(self, tmp_path, capsys, monkeypatch, verb, flag):
        cfg, log = write_cfg(tmp_path), write_log(tmp_path, {1: 4}, K=4)
        link = tmp_path / "L"
        link.symlink_to(tmp_path / "nowhere")

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output path was checked")

        monkeypatch.setattr(cli, "run_mode", no_work)
        monkeypatch.setattr(harness, "load_log", no_work)
        before = TestOutputUnderARegularFile.listing(tmp_path)
        if verb == "rebalance":
            paths = {"--output": str(tmp_path / "o.jsonl"), "--summary": str(tmp_path / "s.csv"),
                     flag: str(link / "x")}
            argv = ["rebalance", "--input", str(log), "--strategy", "rp", "--k", "4",
                    *(arg for pair in paths.items() for arg in pair)]
        else:
            argv = [verb, "--config", str(cfg), "--seed", "0", flag, str(link / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{link}, which is not a directory" in err
        assert TestOutputUnderARegularFile.listing(tmp_path) == before
        assert os.readlink(link) == str(tmp_path / "nowhere") and not link.exists()

    def test_target_under_a_link_to_a_directory_is_written(self, tmp_path):
        log = write_log(tmp_path, {1: 4}, K=4)
        (tmp_path / "real").mkdir()
        (tmp_path / "L").symlink_to(tmp_path / "real")
        argv = ["rebalance", "--input", str(log), "--strategy", "rp", "--k", "4",
                "--output", str(tmp_path / "L" / "o.jsonl"), "--summary", str(tmp_path / "L" / "s.csv")]
        assert main(argv) == 0
        assert sorted(p.name for p in (tmp_path / "real").iterdir()) == ["o.jsonl", "s.csv"]


def test_program_paths_build_no_row_objects(tmp_path, monkeypatch, capsys):
    # every verb works on columns: no path builds a QueryRecord, Trajectory
    # or TrajectoryLogRecord, or packs pairs with from_entries
    from headtail.core import QueryRecord, Trajectory, TrajectoryDataset
    from headtail.harness import MODES, TrajectoryLogRecord
    from headtail.strategies import KINDS

    def built(*args, **kwargs):
        raise AssertionError("a program path built row objects")

    for cls in (QueryRecord, Trajectory, TrajectoryLogRecord):
        monkeypatch.setattr(cls, "__post_init__", built)
    monkeypatch.setattr(TrajectoryDataset, "from_entries", classmethod(built))
    with pytest.raises(AssertionError, match="row objects"):
        Trajectory(1, 1, 1, 5, "", False)

    cfg = write_cfg(tmp_path, n_queries=30, iterations=2)
    for mode in MODES:
        for kind in KINDS:
            out = tmp_path / mode / kind
            assert main(["run", "--config", str(cfg), "--mode", mode, "--strategy", kind, "--seed", "0",
                         "--output-dir", str(out)]) == 0
    for dataset in ("train_final", "filter_final"):
        assert main(["report", "--run-dir", str(tmp_path / "self_improve" / "gr"), "--dataset", dataset]) == 0
    log = write_log(tmp_path, {1: 4, 2: 1, 3: 0, 4: 2}, K=4)
    for kind in (kind for kind, facts in KINDS.items() if not facts.resamples):
        assert main(["rebalance", "--input", str(log), "--output", str(tmp_path / f"{kind}.jsonl"),
                     "--strategy", kind, "--k", "4", "--l", "2"]) == 0
    capsys.readouterr()
