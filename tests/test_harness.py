import dataclasses
import hashlib
import json
import typing

import pytest

from headtail import harness
from headtail.harness import (
    OUTPUT_DIR_ENV,
    ConfigError,
    RunAborted,
    RunConfig,
    SchemaError,
    TrajectoryLogRecord,
    emit_report,
    load_log,
    log_to_dataset,
    read_snapshot,
    rebalance_offline,
    run,
    write_atomic,
)
from headtail.cli import main
from headtail.core import ORIGIN_EXPLORED, ORIGIN_RANK, ROLE_FILTER
from headtail.learner import CorpusParams, LearnerParams
from headtail.strategies import StrategyConfig

import oracles
from oracles import snapshot_entry

SMALL = dict(n_queries=60, k_samples=4, iterations=2, calibration_shots=16)


def small_config(**overrides):
    merged = {**SMALL, **overrides}
    return RunConfig(**merged)


def file_hashes(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


class TestRunConfig:
    def test_defaults_valid(self):
        RunConfig().validate()

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            RunConfig(n_queries=0).validate()
        with pytest.raises(ConfigError):
            RunConfig(mode="nope").validate()
        with pytest.raises(ConfigError):
            RunConfig(seed=-1).validate()
        with pytest.raises(ConfigError):
            RunConfig(strategy=StrategyConfig(kind="tc", L=99)).validate()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict({"n_queries": 10, "mystery": 1})
        with pytest.raises(ConfigError, match="unknown strategy keys"):
            RunConfig.from_dict({"strategy": {"kind": "tc", "mystery": 1}})

    def test_round_trip(self):
        cfg = small_config(strategy=StrategyConfig(kind="rp"), seed=3)
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_queries": 12, "k_samples": 2, "iterations": 1}))
        cfg = RunConfig.from_json_file(path)
        assert cfg.n_queries == 12
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError):
            RunConfig.from_json_file(bad)

    def test_every_field_annotation_is_a_form_the_type_check_handles(self):
        # _has_type checks a class, or a fixed-length tuple of classes; a
        # Union (``X | None``) or ``tuple[X, ...]`` field would need a branch it lacks
        nested = (StrategyConfig, LearnerParams, CorpusParams)
        handled = {int, bool, str, float, tuple[float, float], *nested}
        for cls in (RunConfig, *nested):
            for name, hint in typing.get_type_hints(cls).items():
                assert hint in handled, f"{cls.__name__}.{name}: {hint}"


class TestSelfImprovement:
    def test_degenerate_learner_trains_on_everything(self):
        cfg = small_config(
            n_queries=30,
            iterations=1,
            learner=LearnerParams(init_noise=0.0, p_ceiling=1.0),
            corpus=CorpusParams(easy_fraction=1.0, easy_difficulty=(0.0, 0.0)),
        )
        rep = run(dataclasses.replace(cfg, seed=0))
        assert rep.rows_for("train")[0].total == 30 * cfg.k_samples
        assert rep.evals[0].greedy_pass1 == 1.0
        assert rep.evals[0].sampled_pass1 == 1.0

    def test_stage_accounting(self):
        cfg = small_config()
        rep = run(dataclasses.replace(cfg, seed=1))
        for it in (1, 2):
            sample_row = [r for r in rep.rows if r.iteration == it and r.role == "sample"][0]
            filter_row = [r for r in rep.rows if r.iteration == it and r.role == "filter"][0]
            assert sample_row.total == cfg.n_queries * cfg.k_samples
            assert filter_row.total <= sample_row.total

    def test_rows_per_iteration(self):
        rep = run(small_config(seed=0))
        assert [(r.iteration, r.role) for r in rep.rows] == [
            (1, "sample"), (1, "filter"), (1, "train"),
            (2, "sample"), (2, "filter"), (2, "train"),
        ]

    def test_strategies_all_run(self):
        for kind in ("tc", "hc", "rp", "ri", "ar", "gr", "sc"):
            cfg = small_config(strategy=StrategyConfig(kind=kind, L=2))
            rep = run(dataclasses.replace(cfg, seed=0))
            assert len(rep.rows) == 6
            for row in rep.rows_for("train"):
                assert row.total >= 0

    def test_discard_set_built_only_for_sc(self, monkeypatch):
        from headtail import harness

        calls = []
        real = harness.partition_dataset

        def counting(*args, **kwargs):
            calls.append(args[0].role)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "partition_dataset", counting)
        run(small_config(seed=0))
        assert calls == []
        run(small_config(strategy=StrategyConfig(kind="sc"), seed=0))
        assert len(calls) == SMALL["iterations"]

    def test_sc_grades_each_sample_once(self, monkeypatch):
        from headtail import rewards

        graded = []
        real = rewards._graded

        def counting(sampled, aliases):
            graded.append(set(sampled.columns["origin"].tolist()))
            return real(sampled, aliases)

        monkeypatch.setattr(rewards, "_graded", counting)
        run(small_config(strategy=StrategyConfig(kind="sc"), seed=0))
        # the loop's sample is all explored; sc's correction attempts are none
        assert graded.count({ORIGIN_RANK[ORIGIN_EXPLORED]}) == SMALL["iterations"]

    def test_tc_stream_not_shared_by_next_seed_one_iteration_back(self, hand_filter):
        from headtail.harness import _apply_strategy

        f, queries = hand_filter

        def clip(seed, iteration):
            cfg = RunConfig(k_samples=8, strategy=StrategyConfig(kind="tc", L=2), seed=seed)
            return _apply_strategy(cfg, iteration, f, None, None)

        assert any(oracles.entries(clip(s, 2)) != oracles.entries(clip(s + 1, 1)) for s in range(10))

    def test_restart_semantics_pure_function_of_init_and_train_set(self):
        cfg = small_config(restart_each_iteration=True)
        rep = run(dataclasses.replace(cfg, seed=3))
        # replay: starting from a fresh init learner, one training step on the
        # recorded final train set must reproduce the final p and mu exactly
        from headtail.learner import calibrate_difficulty, init_learner, synth_corpus

        corpus = synth_corpus(cfg.n_queries, 3, cfg.corpus)
        probe = init_learner(corpus, cfg.learner, 3)
        levels = calibrate_difficulty(probe.pass_rates(cfg.calibration_shots))
        base = init_learner(dataclasses.replace(corpus, level=levels), cfg.learner, 3)
        replay = base.train(rep.final_train, cfg.k_samples)
        assert replay.p.tolist() == rep.final_state.p.tolist()
        assert replay.mu_log_len == rep.final_state.mu_log_len

    def test_ar_on_union_pool_completes(self):
        # the union pool holds up to T*K rows per query, more than K: such a
        # query asks for no adaptive resamples rather than a negative count
        cfg = small_config(
            mode="iterative_union", apply_point="on_union", strategy=StrategyConfig(kind="ar")
        )
        rep = run(dataclasses.replace(cfg, seed=1))
        assert not rep.incomplete
        assert len(rep.rows) == 3 * cfg.iterations
        train = rep.final_train
        assert train.count_of(train.corpus.ids).max() > cfg.k_samples

    def test_sampler_failure_marks_report_incomplete(self, monkeypatch):
        cfg = small_config(strategy=StrategyConfig(kind="ar"))
        from headtail.learner import LearnerState as LS

        def boom(self, corpus, query_ids):
            raise RuntimeError("backend down")

        monkeypatch.setattr(LS, "sample_fresh", boom)
        with pytest.raises(RunAborted) as exc_info:
            run(dataclasses.replace(cfg, seed=0))
        assert exc_info.value.report.incomplete


class TestCalibratedStartMemo:
    """Runs that share their learner and corpus params (the very objects) and
    their sizes and seed reuse one calibrated start; any other run makes its own."""

    def written(self, config, tmp_path, name, cleared):
        if cleared:
            harness._last_start.clear()
        paths = emit_report(run(config), tmp_path / name)
        return {p.relative_to(tmp_path / name).as_posix(): p.read_bytes() for p in paths}

    def test_each_run_writes_what_a_run_with_a_cleared_memo_writes(self, tmp_path):
        a = small_config(strategy=StrategyConfig(kind="ar"), learner=LearnerParams(learn_rate=1.0))
        sequence = [
            a,
            dataclasses.replace(a, strategy=StrategyConfig(kind="tc", L=2)),  # shares a's start
            dataclasses.replace(a, seed=1),
            dataclasses.replace(a, learner=LearnerParams(learn_rate=1)),  # 1 == 1.0, printed apart
            a,
        ]
        expected = [self.written(c, tmp_path, f"fresh{i}", cleared=True) for i, c in enumerate(sequence)]
        harness._last_start.clear()
        got = [self.written(c, tmp_path, f"memo{i}", cleared=False) for i, c in enumerate(sequence)]
        assert got == expected
        assert b'"learn_rate": 1,' in got[3]["learner_final.json"]
        assert b'"learn_rate": 1.0,' in got[4]["learner_final.json"]

    def test_hit_only_on_the_same_param_objects_and_a_copy_each_time(self):
        config = small_config()
        first = harness._prepared_corpus_and_learner(config)
        first.draw_counter += 5
        first.p[:] = 0.5
        again = harness._prepared_corpus_and_learner(dataclasses.replace(config, k_samples=2))
        assert again.corpus is first.corpus  # a hit
        assert again.draw_counter.tolist() == [0] * config.n_queries
        assert not (again.p == 0.5).all()
        for other in (
            dataclasses.replace(config, learner=dataclasses.replace(config.learner)),
            dataclasses.replace(config, corpus=dataclasses.replace(config.corpus)),
            dataclasses.replace(config, seed=1),
            dataclasses.replace(config, calibration_shots=8),
        ):
            assert harness._prepared_corpus_and_learner(other).corpus is not first.corpus
            assert harness._prepared_corpus_and_learner(config).corpus is not first.corpus
            first = harness._prepared_corpus_and_learner(config)


class TestBatchBaseline:
    def test_budget_cardinality(self):
        cfg = small_config(n_queries=100, k_samples=8, iterations=5, mode="batch_baseline")
        rep = run(dataclasses.replace(cfg, seed=0))
        assert rep.rows_for("sample")[0].total == 100 * 40

    def test_hopeless_corpus_warns_on_empty_filter(self):
        cfg = small_config(
            mode="batch_baseline",
            learner=LearnerParams(init_noise=0.0, p_floor=0.0),
            corpus=CorpusParams(easy_fraction=0.0, hard_difficulty=(1.0, 1.0)),
        )
        rep = run(dataclasses.replace(cfg, seed=0))
        assert rep.rows_for("filter")[0].total == 0
        assert any("empty training set" in w for w in rep.warnings)

    def test_distinct_solved_matches_brute_force(self):
        cfg = small_config(mode="batch_baseline")
        rep = run(dataclasses.replace(cfg, seed=2))
        # recompute from the final filter snapshot
        brute = len({t.query_id for _, t in oracles.entries(rep.final_filter)})
        assert rep.distinct_solved == brute


class TestIterativeUnion:
    def test_t1_reduces_to_self_improvement(self):
        cfg_u = small_config(iterations=1, mode="iterative_union")
        cfg_s = small_config(iterations=1)
        rep_u = run(dataclasses.replace(cfg_u, seed=5))
        rep_s = run(dataclasses.replace(cfg_s, seed=5))
        assert rep_u.rows == rep_s.rows
        assert rep_u.final_state.p.tolist() == rep_s.final_state.p.tolist()

    def test_union_at_least_single_iteration_filter(self):
        cfg = small_config(iterations=3, mode="iterative_union")
        rep = run(dataclasses.replace(cfg, seed=1))
        trains = [r.total for r in rep.rows_for("train")]
        filters = [r.total for r in rep.rows_for("filter")]
        assert trains[-1] >= max(filters)
        assert all(b >= a for a, b in zip(trains, trains[1:]))

    def test_apply_point_variants_run(self):
        for point in ("per_iteration", "on_union"):
            cfg = small_config(
                iterations=2,
                mode="iterative_union",
                strategy=StrategyConfig(kind="tc", L=2),
                apply_point=point,
            )
            rep = run(dataclasses.replace(cfg, seed=0))
            assert len(rep.rows_for("train")) == 2

    def test_dispatch(self):
        cfg = small_config(mode="iterative_union")
        assert run(dataclasses.replace(cfg, seed=0)).config["mode"] == "iterative_union"


class TestOfflineLogs:
    def log_lines(self, k_correct, K, length=40):
        lines = []
        for qid, k in sorted(k_correct.items()):
            for j in range(1, K + 1):
                rec = {
                    "query_id": qid,
                    "gt_answer": f"a{qid}",
                    "extracted_answer": f"a{qid}" if j <= k else "nope",
                    "token_count": length,
                }
                lines.append(json.dumps(rec))
        return lines

    def write_log(self, tmp_path, lines, name="log.jsonl"):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_round_trip_counts(self, tmp_path):
        lines = self.log_lines({1: 6, 2: 3, 3: 1}, K=8)
        src = self.write_log(tmp_path, lines)
        out = tmp_path / "train.jsonl"
        summary = rebalance_offline(src, StrategyConfig(kind="tc", L=4), 8, out, seed=0)
        assert summary["input_records"] == 24
        assert summary["output_records"] == 8
        written = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(written) == 8
        assert all(w["correct"] for w in written)

    def test_malformed_line_cited_and_nothing_written(self, tmp_path):
        lines = self.log_lines({1: 2}, K=4)
        lines.insert(2, "{broken")
        src = self.write_log(tmp_path, lines)
        out = tmp_path / "train.jsonl"
        with pytest.raises(SchemaError, match="line 3"):
            rebalance_offline(src, StrategyConfig(kind="vanilla"), 4, out)
        assert not out.exists()

    def test_unknown_field_cited(self, tmp_path):
        src = self.write_log(tmp_path, ['{"query_id": 1, "gt_answer": "x", "extracted_answer": "x", "token_count": 5, "mystery": 2}'])
        with pytest.raises(SchemaError, match="line 1.*mystery"):
            load_log(src)

    def test_rp_identity_when_all_full(self, tmp_path):
        lines = self.log_lines({1: 4, 2: 4}, K=4)
        src = self.write_log(tmp_path, lines)
        out = tmp_path / "rp.jsonl"
        summary = rebalance_offline(src, StrategyConfig(kind="rp"), 4, out)
        assert summary["output_records"] == 8

    def test_strategy_k_other_than_log_k_rejected(self, tmp_path, capsys):
        # one K per run: a strategy reads the sampling number of its data, and has no K of its own
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps({**SMALL, "strategy": {"K": 4}}))
        assert main(["run", "--config", str(cfg), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == "config error: unknown strategy keys: ['K']\n"
        assert not out.exists()

    def test_resampling_strategy_rejected(self, tmp_path):
        src = self.write_log(tmp_path, self.log_lines({1: 1}, K=2))
        with pytest.raises(ConfigError, match="offline mode supports reshaping only"):
            rebalance_offline(src, StrategyConfig(kind="ar"), 2, tmp_path / "x.jsonl")

    def test_cot_floor_applies_before_counts(self, tmp_path):
        lines = self.log_lines({1: 4}, K=4, length=5)
        src = self.write_log(tmp_path, lines)
        out = tmp_path / "train.jsonl"
        summary = rebalance_offline(src, StrategyConfig(kind="vanilla", min_cot_tokens=10), 4, out)
        assert summary["output_records"] == 0

    def test_cot_floor_read_from_strategy(self, tmp_path):
        lines = [
            json.dumps({"query_id": 1, "gt_answer": "a1", "extracted_answer": "a1", "token_count": n})
            for n in (10, 20, 40, 50, 60, 100)
        ]
        src = self.write_log(tmp_path, lines)
        out = tmp_path / "train.jsonl"
        summary = rebalance_offline(src, StrategyConfig(kind="vanilla", min_cot_tokens=50), 6, out)
        assert (summary["filtered"], summary["output_records"]) == (3, 3)
        assert [json.loads(line)["length_tokens"] for line in out.read_text().splitlines()] == [50, 60, 100]
        with pytest.raises(ConfigError, match="min_cot_tokens"):
            rebalance_offline(src, StrategyConfig(kind="vanilla", min_cot_tokens=-1), 6, out)

    def test_gt_conflict_rejected(self):
        records = [
            TrajectoryLogRecord(1, "a", "a", 10),
            TrajectoryLogRecord(1, "b", "b", 10),
        ]
        with pytest.raises(SchemaError, match="conflicting gt_answer"):
            log_to_dataset(records)

    @pytest.mark.parametrize(
        "record, message",
        [
            (TrajectoryLogRecord(True, None, None, 5), "query_id must be an integer"),
            (TrajectoryLogRecord(1, None, "a", 5), "gt_answer must be a string"),
        ],
        ids=["bool query_id", "null gt_answer"],
    )
    def test_log_to_dataset_applies_the_readers_type_rule(self, record, message):
        with pytest.raises(TypeError) as info:
            log_to_dataset([TrajectoryLogRecord(2, "a", "a", 5), record])
        assert str(info.value) == message

    def test_log_to_dataset_takes_tuple_step_offsets(self):
        sample = log_to_dataset([TrajectoryLogRecord(1, "a", "b", 10, step_offsets=(2, 5)),
                                 TrajectoryLogRecord(1, "a", "a", 7)])
        assert sample.columns["length_tokens"].tolist() == [10, 7]
        assert sample.columns["sample_index"].tolist() == [1, 2]

    def test_parse_rejects_missing_fields(self, tmp_path):
        src = self.write_log(tmp_path, [""] * 6 + ['{"query_id": 1}'])
        with pytest.raises(SchemaError, match="line 7: missing fields"):
            load_log(src)

    def test_step_offsets_must_ascend_inside_response(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            TrajectoryLogRecord(1, "a", "a", 10, step_offsets=(4, 2))
        # offsets outside (0, token_count) are ignored, as they always were
        assert TrajectoryLogRecord(1, "a", "a", 10, step_offsets=(3, 10)).step_offsets == (3, 10)
        assert TrajectoryLogRecord(1, "a", "a", 10, step_offsets=(0, 3, 12, 5)).token_count == 10


class TestSnapshotCodec:
    def test_round_trip_every_origin(self, tmp_path):
        for kind in ("gr", "sc", "ar"):
            rep = run(small_config(strategy=StrategyConfig(kind=kind), seed=0))
            emit_report(rep, tmp_path / kind)
            decoded = read_snapshot(tmp_path / kind / "datasets" / "train_final.jsonl", ROLE_FILTER)
            assert [snapshot_entry(r, t) for r, t in oracles.entries(decoded)] == [
                snapshot_entry(r, t) for r, t in oracles.entries(rep.final_train)
            ]

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"query_id": 1, "sample_index": 1, "iteration": 1, "length_tokens": 5, "correct": "yes"}',
             "correct must be true or false"),
            ('{"query_id": 1, "sample_index": 1, "iteration": 1, "length_tokens": 5, "correct": true, "x": 0}',
             "unknown fields"),
            ('{"query_id": 1, "sample_index": 1, "iteration": 1, "length_tokens": 5, "correct": true, "level": 9}',
             "level must be in"),
        ],
    )
    def test_bad_lines_are_schema_errors(self, tmp_path, line, message):
        path = tmp_path / "snapshot.jsonl"
        path.write_text("\n" * 3 + line + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=f"line 4: .*{message}"):
            read_snapshot(path, ROLE_FILTER)


class TestEmitReport:
    def test_files_written(self, tmp_path):
        rep = run(small_config(seed=0))
        files = emit_report(rep, tmp_path / "out")
        names = {p.name for p in files}
        assert names == {
            "metrics.csv",
            "train_final.jsonl",
            "filter_final.jsonl",
            "config.json",
            "learner_final.json",
            "summary.json",
        }
        csv_text = (tmp_path / "out" / "metrics.csv").read_text()
        assert len(csv_text.splitlines()[0].split(",")) == 21
        state = json.loads((tmp_path / "out" / "learner_final.json").read_text())
        assert state["iteration"] == 2

    def test_empty_report_header_only(self, tmp_path):
        from headtail.harness import RunReport

        rep = RunReport(config=RunConfig().to_dict())
        emit_report(rep, tmp_path / "empty")
        lines = (tmp_path / "empty" / "metrics.csv").read_text().splitlines()
        assert len(lines) == 1

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_config()
        a = emit_report(run(dataclasses.replace(cfg, seed=4)), tmp_path / "a")
        b = emit_report(run(dataclasses.replace(cfg, seed=4)), tmp_path / "b")
        assert file_hashes(a) == file_hashes(b)

    def test_writes_where_told_despite_env_var(self, tmp_path, monkeypatch):
        rep = run(small_config(seed=0))
        env_dir = tmp_path / "env_dir"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_dir))
        emit_report(rep, tmp_path / "given")
        assert (tmp_path / "given" / "metrics.csv").exists()
        assert not env_dir.exists()

    def test_snapshot_schema(self, tmp_path):
        rep = run(small_config(seed=0))
        emit_report(rep, tmp_path / "snap")
        line = json.loads(
            (tmp_path / "snap" / "datasets" / "train_final.jsonl").read_text().splitlines()[0]
        )
        assert set(line) == {
            "query_id",
            "sample_index",
            "iteration",
            "origin",
            "prefix_steps",
            "length_tokens",
            "level",
            "correct",
        }


class TestAtomicWrites:
    @staticmethod
    def failing_chunks():
        yield "first chunk\n"
        raise OSError("disk full")

    def test_failure_mid_write_leaves_no_file(self, tmp_path):
        with pytest.raises(OSError, match="disk full"):
            write_atomic(tmp_path / "out.jsonl", self.failing_chunks())
        assert list(tmp_path.iterdir()) == []

    def test_failure_keeps_the_previous_file(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        with pytest.raises(OSError, match="disk full"):
            write_atomic(target, self.failing_chunks())
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() == "old\n"
        write_atomic(target, "new\n")
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() == "new\n"

    def test_emit_report_failing_snapshot_leaves_no_partial(self, tmp_path, monkeypatch):
        from headtail import harness

        rep = run(small_config(seed=0))
        monkeypatch.setattr(harness, "_snapshot_chunks", lambda ds: self.failing_chunks())
        with pytest.raises(OSError, match="disk full"):
            emit_report(rep, tmp_path / "out")
        assert sorted(p.name for p in (tmp_path / "out").rglob("*")) == ["datasets", "metrics.csv"]
