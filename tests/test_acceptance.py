"""End-to-end acceptance suite, one test per numbered criterion.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s``).
Criterion runs that share expensive simulations reuse session fixtures.
"""

import dataclasses
import hashlib
import itertools
import json
import time
from collections import Counter

import numpy as np
import pytest

from headtail.core import ORIGIN_CORRECTED, Corpus
from headtail.harness import (
    RunConfig,
    emit_report,
    rebalance_offline,
    run,
)
from headtail.learner import calibrate_difficulty
from headtail.rewards import discard_dataset, filter_dataset, reward
from headtail.strategies import (
    StrategyConfig,
    adaptive_resample,
    guided_resample,
    head_clip,
    repeat_invert,
    repeat_pad,
    self_correct_augment,
    threshold_clip,
)

from conftest import ScriptedSampler, make_filter, make_query, make_sample
import oracles
from oracles import (
    guided_success_probability,
    oracle_ar_draws,
    oracle_gr_draws,
    oracle_hc,
    oracle_ri,
    oracle_rp,
    oracle_sc_attempts,
    oracle_tc,
    same_multiset,
)

SEEDS = range(10)


def report_line(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def timed_runs(cfg: RunConfig) -> tuple[dict, float]:
    t0 = time.perf_counter()
    reports = {seed: run(dataclasses.replace(cfg, seed=seed)) for seed in SEEDS}
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="session")
def vanilla_runs():
    return timed_runs(RunConfig())


@pytest.fixture(scope="session")
def rp_runs():
    return timed_runs(RunConfig(strategy=StrategyConfig(kind="rp")))


@pytest.fixture(scope="session")
def sc_runs():
    return timed_runs(RunConfig(strategy=StrategyConfig(kind="sc")))


def test_criterion_01_strategy_oracle_equivalence():
    rng = np.random.default_rng(1234)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(1000):
        K = int(rng.choice([4, 8, 16]))
        n = int(rng.integers(1, 51))
        k_correct = {qid: int(rng.integers(0, K + 1)) for qid in range(n)}
        present = {q: k for q, k in k_correct.items() if k > 0}
        f, queries = make_filter(present)
        entries = list(oracles.entries(f))
        L = int(rng.integers(1, K + 1))
        seed = int(rng.integers(0, 2**63))

        assert same_multiset(oracles.entries(threshold_clip(f, L, seed)), oracle_tc(entries, L, seed))
        assert same_multiset(oracles.entries(head_clip(f, K)), oracle_hc(entries, K))
        assert same_multiset(oracles.entries(repeat_pad(f, K)), oracle_rp(entries, K))
        assert same_multiset(oracles.entries(repeat_invert(f, K)), oracle_ri(entries, K))
        checked += 1

        if checked % 25 == 0:
            # resampling draw-count laws on a subsample (mock sampler)
            corpus = [queries.get(qid, make_query(qid)) for qid in sorted(k_correct)]
            ar_sampler = ScriptedSampler(itertools.cycle([True, False]))
            adaptive_resample(f, Corpus.of(corpus), ar_sampler, K)
            assert ar_sampler.fresh_calls == oracle_ar_draws(present, sorted(k_correct), K)

            gr_sampler = ScriptedSampler(itertools.cycle([True, False]))
            guided_resample(f, gr_sampler, L, 4)
            assert gr_sampler.guided_calls == oracle_gr_draws(entries, L, 4)

            sample, _ = make_sample(present or {0: 0}, K)
            ff, dd = filter_dataset(sample), discard_dataset(sample)
            sc_sampler = ScriptedSampler(itertools.cycle([True, False, False]))
            self_correct_augment(ff, dd, sc_sampler, K, 0)
            assert sc_sampler.correct_calls == oracle_sc_attempts(
                oracles.entries(dd), Counter(t.query_id for _, t in oracles.entries(ff)), K
            )
    elapsed = time.perf_counter() - t0
    ok = checked == 1000 and elapsed < 10.0
    report_line(1, ok, f"{checked} fixtures, oracle-exact, {elapsed:.1f}s (< 10s)")
    assert ok


def test_criterion_02_partition_law():
    rng = np.random.default_rng(99)
    for _ in range(500):
        K = int(rng.choice([4, 8, 16]))
        n = int(rng.integers(1, 40))
        k_correct = {qid: int(rng.integers(0, K + 1)) for qid in range(n)}
        sample, _ = make_sample(k_correct, K)
        f = filter_dataset(sample)
        d = discard_dataset(sample)
        assert len(f) + len(d) == len(sample)
        recovered = sorted(
            [(t.query_id, t.sample_index) for _, t in oracles.entries(f)]
            + [(t.query_id, t.sample_index) for _, t in oracles.entries(d)]
        )
        assert recovered == [(t.query_id, t.sample_index) for _, t in oracles.entries(sample)]
    report_line(2, True, "filter/discard partition exact on 500 random fixtures")


def test_criterion_03_matthew_effect_reproduction(vanilla_runs):
    reports, elapsed = vanilla_runs
    head_ok = tail_ok = len_ok = 0
    for seed, rep in reports.items():
        heads = [r.head_share for r in rep.rows_for("filter")]
        tails = [r.tail_share for r in rep.rows_for("filter")]
        lens = [r.mean_length for r in rep.rows_for("train")]
        head_ok += all(b >= a for a, b in zip(heads, heads[1:]))
        tail_ok += all(b <= a for a, b in zip(tails, tails[1:]))
        len_ok += lens[-1] < lens[0]
    ok = head_ok >= 8 and tail_ok >= 8 and len_ok >= 8 and elapsed < 60.0
    report_line(
        3,
        ok,
        f"head up {head_ok}/10, tail down {tail_ok}/10, length down {len_ok}/10, "
        f"{elapsed:.0f}s (< 60s)",
    )
    assert ok


def test_criterion_04_mitigation(vanilla_runs, rp_runs):
    vans, _ = vanilla_runs
    rps, _ = rp_runs
    head_lower = tail_higher = 0
    for seed in SEEDS:
        v = vans[seed].rows_for("train")[-1]
        r = rps[seed].rows_for("train")[-1]
        head_lower += r.head_share < v.head_share
        tail_higher += r.tail_share > v.tail_share
    ok = head_lower >= 9 and tail_higher >= 9
    report_line(4, ok, f"rp final head lower {head_lower}/10, tail higher {tail_higher}/10")
    assert ok


def test_criterion_05_guided_dominance():
    import sympy

    S = 4
    violations = 0
    for p10 in range(11):
        p = sympy.Rational(p10, 10)
        for gain in (sympy.Rational(1, 2), sympy.Integer(1), sympy.Integer(2)):
            conds = []
            for s in range(1, S + 1):
                f = sympy.Rational(s - 1, S)
                cond = 1 - (1 - p) * (1 - f) ** gain
                conds.append(cond)
                if sympy.simplify(cond - p) < 0:
                    violations += 1
                # the float implementation agrees with the exact value
                approx = guided_success_probability(float(p), s, S, float(gain))
                if abs(approx - float(cond)) > 1e-12:
                    violations += 1
            if conds[0] != p:
                violations += 1
            if any(sympy.simplify(b - a) < 0 for a, b in zip(conds, conds[1:])):
                violations += 1
    ok = violations == 0
    report_line(5, ok, "p_cond >= p symbolically exact on the full (p, s, gain) grid")
    assert ok


def test_criterion_06_iterative_vs_batch():
    cfg_union = RunConfig(n_queries=1000, k_samples=8, iterations=5, mode="iterative_union")
    cfg_batch = dataclasses.replace(cfg_union, mode="batch_baseline")
    t0 = time.perf_counter()
    at_least = strictly = 0
    for seed in SEEDS:
        union = run(dataclasses.replace(cfg_union, seed=seed)).distinct_solved
        batch = run(dataclasses.replace(cfg_batch, seed=seed)).distinct_solved
        at_least += union >= batch
        strictly += union > batch
    elapsed = time.perf_counter() - t0
    ok = at_least >= 8 and strictly >= 5 and elapsed < 60.0
    report_line(
        6,
        ok,
        f"union >= batch in {at_least}/10, strictly more in {strictly}/10, {elapsed:.0f}s"
        + ("" if ok else "  [expected failure: see notes/decisions ledger]"),
    )
    assert ok


def test_criterion_07_self_correction(vanilla_runs, sc_runs):
    vans, _ = vanilla_runs
    scs, _ = sc_runs
    tail_ge = 0
    min_cot = StrategyConfig().min_cot_tokens
    for seed in SEEDS:
        v = vans[seed].rows_for("train")[-1]
        s = scs[seed].rows_for("train")[-1]
        tail_ge += s.tail_share >= v.tail_share
        final_train = scs[seed].final_train
        for record, traj in oracles.entries(final_train):
            if traj.origin == ORIGIN_CORRECTED:
                assert reward(record, traj.extracted_answer) == 1
                assert traj.length_tokens - traj.prefix_tokens >= min_cot
    ok = tail_ge >= 8
    report_line(7, ok, f"sc tail share >= vanilla in {tail_ge}/10; sc entries all verified")
    assert ok


def test_criterion_08_determinism(tmp_path):
    base = RunConfig(n_queries=300, k_samples=4, iterations=2, calibration_shots=16)
    for mode in ("self_improve", "batch_baseline", "iterative_union"):
        cfg = dataclasses.replace(base, mode=mode)
        hashes = []
        for attempt in ("a", "b"):
            outdir = tmp_path / f"{mode}_{attempt}"
            files = emit_report(run(dataclasses.replace(cfg, seed=7)), outdir)
            hashes.append(
                {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
            )
        assert hashes[0] == hashes[1], f"{mode} output not byte-identical"
    report_line(8, True, "byte-identical reports for all three modes")


def test_criterion_09_difficulty_calibration():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 120))
        rates = {int(qid): float(rng.random()) for qid in rng.choice(10_000, n, replace=False)}
        ids = sorted(rates)
        levels = dict(zip(ids, calibrate_difficulty(np.array([rates[q] for q in ids])).tolist()))
        sizes = [sum(1 for lv in levels.values() if lv == L) for L in (1, 2, 3, 4, 5)]
        assert max(sizes) - min(sizes) <= 1
        by_level = {}
        for qid, lv in levels.items():
            by_level.setdefault(lv, []).append(rates[qid])
        for lv in range(1, 5):
            if lv in by_level and (lv + 1) in by_level:
                assert min(by_level[lv]) >= max(by_level[lv + 1])
    report_line(9, True, "1000 corpora: balanced level sizes, pass-rate-consistent ordering")


def test_criterion_10_offline_round_trip(tmp_path):
    rng = np.random.default_rng(42)
    K = 8
    lines = []
    k_correct = {}
    qid = 0
    while len(lines) < 10_000:
        k = int(rng.integers(0, K + 1))
        k_correct[qid] = k
        for j in range(1, K + 1):
            lines.append(
                json.dumps(
                    {
                        "query_id": qid,
                        "gt_answer": f"a{qid}",
                        "extracted_answer": f"a{qid}" if j <= k else "no",
                        "token_count": int(rng.integers(5, 400)),
                    }
                )
            )
        qid += 1
    src = tmp_path / "big.jsonl"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    n_records = len(lines)

    t0 = time.perf_counter()
    # no reasoning-length floor: the laws below count every correct response
    tc = StrategyConfig(kind="tc", L=4, min_cot_tokens=0)
    rp = StrategyConfig(kind="rp", min_cot_tokens=0)
    tc_summary = rebalance_offline(src, tc, K, tmp_path / "tc.jsonl", seed=0)
    rp_summary = rebalance_offline(src, rp, K, tmp_path / "rp.jsonl")
    elapsed = time.perf_counter() - t0

    solved = {q: k for q, k in k_correct.items() if k > 0}
    assert tc_summary["output_records"] == sum(min(k, 4) for k in solved.values())
    assert rp_summary["output_records"] == K * len(solved)
    for name in ("tc.jsonl", "rp.jsonl"):
        for lineno, line in enumerate((tmp_path / name).read_text().splitlines(), start=1):
            rec = json.loads(line)
            assert set(rec) == {
                "query_id", "sample_index", "iteration", "origin",
                "prefix_steps", "length_tokens", "level", "correct",
            }, f"{name} line {lineno}"
            assert rec["correct"] is True
    ok = elapsed < 5.0
    report_line(
        10, ok, f"{n_records} records rebalanced twice in {elapsed:.2f}s (< 5s), laws exact"
    )
    assert ok
