import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from headtail.core import ROLE_TRAIN, TrajectoryDataset
from headtail.learner import (
    CorpusParams,
    LearnerParams,
    LearnerState,
    calibrate_difficulty,
    init_learner,
    synth_corpus,
)
from headtail.strategies import split_steps

from conftest import make_query, make_traj
from oracles import pass_rate


def state_with(p_map, seed=0, params=None, mu=None):
    return LearnerState(
        iteration=0,
        p=dict(p_map),
        mu_log_len=mu or {lv: math.log(100.0) for lv in (1, 2, 3, 4, 5)},
        params=params or LearnerParams(),
        root_seed=seed,
    )


class TestInitLearner:
    def test_zero_difficulty_clamps_to_ceiling(self):
        corpus = [make_query(0, latent_difficulty=0.0)]
        st_ = init_learner(corpus, LearnerParams(init_noise=0.0), seed=1)
        assert st_.p[0] == pytest.approx(0.98)

    def test_same_seed_identical(self):
        corpus = synth_corpus(40, seed=5)
        a = init_learner(corpus, seed=9)
        b = init_learner(corpus, seed=9)
        assert a.p == b.p and a.mu_log_len == b.mu_log_len

    def test_stratified_difficulties_give_centered_mean_p(self):
        corpus = [
            make_query(i, latent_difficulty=d)
            for i, d in enumerate(np.tile(np.arange(0.1, 0.95, 0.1), 10))
        ]
        means = []
        for seed in range(100):
            st_ = init_learner(corpus, seed=seed)
            means.append(np.mean(list(st_.p.values())))
        assert 0.4 <= float(np.mean(means)) <= 0.6

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            init_learner([], seed=0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            init_learner([make_query(1), make_query(1)], seed=0)

    def test_level_means_increase_with_level(self):
        corpus = synth_corpus(500, seed=3)
        probe = init_learner(corpus, seed=3)
        levels = calibrate_difficulty(probe.pass_rates(corpus, 64))
        leveled = [replace(q, level=levels[q.id]) for q in corpus]
        st_ = init_learner(leveled, seed=3)
        mus = [st_.mu_log_len[lv] for lv in (1, 2, 3, 4, 5)]
        assert mus[0] < mus[-1]


class TestSampleResponse:
    def test_p_one_always_correct(self):
        st_ = state_with({1: 1.0})
        q = make_query(1)
        assert all(st_.sample_response(q).correct for _ in range(200))

    def test_p_zero_never_correct(self):
        st_ = state_with({1: 0.0})
        q = make_query(1)
        assert not any(st_.sample_response(q).correct for _ in range(200))

    def test_empirical_rate(self):
        st_ = state_with({1: 0.6}, seed=123)
        q = make_query(1)
        hits = sum(st_.sample_response(q).correct for _ in range(10_000))
        assert abs(hits / 10_000 - 0.6) <= 0.02

    def test_unknown_query_rejected(self):
        st_ = state_with({1: 0.5})
        with pytest.raises(ValueError, match="unknown query"):
            st_.sample_response(make_query(2))

    def test_wrong_answers_do_not_match_gt(self):
        st_ = state_with({1: 0.0})
        traj = st_.sample_response(make_query(1, gt="42"))
        assert traj.extracted_answer != "42"

    def test_counter_advances_and_draws_differ(self):
        st_ = state_with({1: 0.5}, seed=7)
        q = make_query(1)
        lengths = {st_.sample_response(q).length_tokens for _ in range(20)}
        assert st_.draw_counter[1] == 20
        assert len(lengths) > 1

    def test_batch_replays_scalar_draws(self):
        corpus = synth_corpus(30, seed=2)
        a = init_learner(corpus, seed=2)
        b = a.clone()
        batch = b.sample_batch(corpus, 4)
        scalar = []
        for q in sorted(corpus, key=lambda r: r.id):
            for j in range(1, 5):
                t = a.sample_response(q)
                scalar.append((q.id, j, t.correct, t.length_tokens, t.extracted_answer))
        vec = [
            (t.query_id, t.sample_index, t.correct, t.length_tokens, t.extracted_answer)
            for _, t in batch
        ]
        assert vec == scalar
        assert a.draw_counter == b.draw_counter

    def test_batch_equals_fresh_draws_on_repeated_ids(self):
        corpus = synth_corpus(25, seed=4)
        a = init_learner(corpus, seed=4)
        a.draw_counter[3] = 5  # a query that was drawn before
        b = a.clone()
        batch = a.sample_batch(corpus, 3)
        records = {r.id: r for r in corpus}
        qids = np.repeat(sorted(records), 3)
        fresh = b.sample_fresh(records, qids)
        assert batch.columns["query_id"].tolist() == qids.tolist()
        assert batch.columns["length_tokens"].tolist() == fresh.length_tokens.tolist()
        assert batch.columns["correct"].tolist() == fresh.correct.tolist()
        assert batch.answers.tolist() == fresh.answers.tolist()
        assert (batch.columns["iteration"] == fresh.iteration).all()
        assert a.draw_counter == b.draw_counter

    def test_interleaving_independence(self):
        corpus = [make_query(1), make_query(2)]
        a = state_with({1: 0.5, 2: 0.5}, seed=11)
        b = state_with({1: 0.5, 2: 0.5}, seed=11)
        seq_a = [a.sample_response(corpus[0]) for _ in range(6)]
        # interleave other-query draws; query 1's stream must be unchanged
        seq_b = []
        for i in range(6):
            seq_b.append(b.sample_response(corpus[0]))
            b.sample_response(corpus[1])
        assert [(t.correct, t.length_tokens) for t in seq_a] == [
            (t.correct, t.length_tokens) for t in seq_b
        ]


class TestGuidedSample:
    def test_step_one_matches_plain_probability(self):
        st_ = state_with({1: 0.3}, seed=5)
        q = make_query(1)
        prefix = make_traj(1, length=80)
        hits = sum(st_.guided_sample(q, prefix, 1, 4).correct for _ in range(8000))
        assert abs(hits / 8000 - 0.3) < 0.02

    def test_conditional_probability_formula(self):
        params = LearnerParams(prefix_gain=1.0)
        st_ = state_with({1: 0.2}, seed=9, params=params)
        q = make_query(1)
        prefix = make_traj(1, length=80)
        hits = sum(st_.guided_sample(q, prefix, 4, 4).correct for _ in range(8000))
        # f = 3/4 -> 1 - 0.8 * 0.25 = 0.8
        assert abs(hits / 8000 - 0.8) < 0.02

    def test_requires_successful_prefix(self):
        st_ = state_with({1: 0.5})
        with pytest.raises(ValueError, match="successful prefix"):
            st_.guided_sample(make_query(1), make_traj(1, correct=False), 2, 4)

    def test_prefix_tokens_recorded(self):
        st_ = state_with({1: 0.5})
        traj = st_.guided_sample(make_query(1), make_traj(1, length=100), 3, 4)
        assert traj.prefix_tokens == 50
        assert traj.prefix_steps == 2
        assert traj.length_tokens > traj.prefix_tokens

    def test_monotone_in_step(self):
        for p in (0.0, 0.2, 0.5, 0.9):
            for gain in (0.5, 1.0, 2.0):
                conds = [
                    1.0 - (1.0 - p) * (1.0 - (s - 1) / 4) ** gain for s in range(1, 5)
                ]
                assert all(b >= a for a, b in zip(conds, conds[1:]))
                assert conds[0] == pytest.approx(p)


class TestCorrectResponse:
    def test_success_probability(self):
        params = LearnerParams(correction_base=0.2, correction_slope=0.5)
        st_ = state_with({1: 0.4}, seed=3, params=params)
        q = make_query(1)
        wrong = make_traj(1, correct=False)
        hits = sum(st_.correct_response(q, wrong).correct for _ in range(10_000))
        assert abs(hits / 10_000 - 0.4) < 0.02

    def test_zero_parameters_never_correct(self):
        params = LearnerParams(correction_base=0.0, correction_slope=0.0)
        st_ = state_with({1: 0.9}, params=params)
        wrong = make_traj(1, correct=False)
        assert not any(st_.correct_response(make_query(1), wrong).correct for _ in range(300))

    def test_corrections_longer_than_fresh(self):
        st_a = state_with({1: 0.5}, seed=21)
        st_b = state_with({1: 0.5}, seed=21)
        q = make_query(1, level=3)
        wrong = make_traj(1, correct=False)
        fresh = np.mean([st_a.sample_response(q).length_tokens for _ in range(10_000)])
        corrected = np.mean([st_b.correct_response(q, wrong).length_tokens for _ in range(10_000)])
        assert corrected > fresh

    def test_rejects_correct_input(self):
        st_ = state_with({1: 0.5})
        with pytest.raises(ValueError):
            st_.correct_response(make_query(1), make_traj(1, correct=True))


@st.composite
def batched_requests(draw):
    """A learner state and one pass's requests, grouped per query in call order.

    Queries may carry prior draw counters, unset or set levels (with or
    without a learned level mean) and appear in several groups; a group
    asking for <= 0 draws contributes no rows, as an adaptive-resampling
    deficit does.
    """
    n = draw(st.integers(1, 6))
    records = {
        q: make_query(
            q,
            level=draw(st.one_of(st.none(), st.integers(1, 5))),
            base_log_length=draw(st.floats(2.0, 7.0)),
        )
        for q in range(n)
    }
    mu = {lv: draw(st.floats(2.0, 7.0)) for lv in draw(st.sets(st.integers(1, 5)))}
    state = LearnerState(
        iteration=draw(st.integers(0, 3)),
        p={q: draw(st.floats(0.0, 1.0)) for q in records},
        mu_log_len=mu,
        params=LearnerParams(prefix_gain=draw(st.sampled_from([0.5, 1.0, 2.0]))),
        root_seed=draw(st.integers(0, 2**32)),
        draw_counter={q: draw(st.integers(0, 5)) for q in draw(st.sets(st.sampled_from(sorted(records))))},
    )
    groups = draw(st.lists(st.tuples(st.sampled_from(sorted(records)), st.integers(-2, 4)), max_size=8))
    query_ids = np.array([q for q, count in groups for _ in range(count)], dtype=np.int64)
    return state, records, query_ids


def assert_replays(draws, scalar, iteration):
    assert draws.iteration == iteration
    assert draws.length_tokens.tolist() == [t.length_tokens for t in scalar]
    assert draws.correct.tolist() == [t.correct for t in scalar]
    assert draws.answers.tolist() == [t.extracted_answer for t in scalar]


class TestBatchedSamplers:
    """Each batched sampler equals a loop of its scalar method on a clone."""

    @given(batched_requests())
    @settings(max_examples=80, deadline=None)
    def test_fresh_replays_sample_response(self, request):
        state, records, query_ids = request
        loop = state.clone()
        draws = state.sample_fresh(records, query_ids)
        scalar = [loop.sample_response(records[q]) for q in query_ids.tolist()]
        assert_replays(draws, scalar, state.iteration + 1)
        assert state.draw_counter == loop.draw_counter

    @given(batched_requests(), st.integers(2, 5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_guided_replays_guided_sample(self, request, S, data):
        state, records, query_ids = request
        # one donor per row, some shorter than S (those continue only from step 1)
        lengths = [data.draw(st.integers(1, 12)) for _ in query_ids]
        steps = [data.draw(st.integers(1, S)) if n >= S else 1 for n in lengths]
        donors = [make_traj(q, length=n) for q, n in zip(query_ids.tolist(), lengths)]
        prefix = [0 if s == 1 else split_steps(d, S)[s - 1] for d, s in zip(donors, steps)]
        loop = state.clone()
        draws = state.sample_guided(records, query_ids, np.array(prefix), np.array(steps), S)
        scalar = [
            loop.guided_sample(records[d.query_id], d, s, S) for d, s in zip(donors, steps)
        ]
        assert_replays(draws, scalar, state.iteration + 1)
        assert [t.prefix_tokens for t in scalar] == prefix
        assert state.draw_counter == loop.draw_counter

    @given(batched_requests())
    @settings(max_examples=80, deadline=None)
    def test_corrections_replay_correct_response(self, request):
        state, records, query_ids = request
        loop = state.clone()
        draws = state.sample_corrections(records, query_ids)
        scalar = [
            loop.correct_response(records[q], make_traj(q, correct=False)) for q in query_ids.tolist()
        ]
        assert_replays(draws, scalar, state.iteration + 1)
        assert state.draw_counter == loop.draw_counter

    def test_guided_rejects_steps_out_of_range(self):
        st_ = state_with({1: 0.5})
        with pytest.raises(ValueError, match="steps must be in"):
            st_.sample_guided({1: make_query(1)}, np.array([1]), np.array([0]), np.array([5]), 4)

    def test_empty_request_makes_no_rng_call(self, monkeypatch):
        from headtail import rng

        def no_call(*args):
            raise AssertionError("rng called for an empty request")

        monkeypatch.setattr(rng, "uniform", no_call)
        monkeypatch.setattr(rng, "normal", no_call)
        st_ = state_with({1: 0.5})
        st_.draw_counter[1] = 3
        none = np.zeros(0, dtype=np.int64)
        records = {1: make_query(1)}
        for draws in (
            st_.sample_fresh(records, none),
            st_.sample_guided(records, none, none, none, 4),
            st_.sample_corrections(records, none),
        ):
            assert len(draws.length_tokens) == len(draws.correct) == len(draws.answers) == 0
        assert st_.draw_counter == {1: 3}


def train_set_for(qid_counts, level=None, length=60):
    entries = []
    for qid, count in qid_counts.items():
        q = make_query(qid, level=level)
        entries.extend(
            (q, make_traj(qid, j, length=length)) for j in range(1, count + 1)
        )
    return TrajectoryDataset.from_entries(entries, ROLE_TRAIN)


class TestTrain:
    def test_unexposed_decay(self):
        params = LearnerParams(forget_rate=0.25)
        st_ = state_with({1: 0.8, 2: 0.4}, params=params)
        out = st_.train(TrajectoryDataset.empty(ROLE_TRAIN), 8)
        assert out.p[1] == pytest.approx(0.8 * 0.75)
        assert out.p[2] == pytest.approx(0.4 * 0.75)
        assert out.iteration == 1

    def test_full_exposure_update(self):
        params = LearnerParams(learn_rate=0.35)
        st_ = state_with({1: 0.5}, params=params)
        out = st_.train(train_set_for({1: 8}), 8)
        assert out.p[1] == pytest.approx(0.675)

    def test_exposure_saturates_at_k(self):
        params = LearnerParams(learn_rate=0.35)
        st_ = state_with({1: 0.5}, params=params)
        more = st_.train(train_set_for({1: 30}), 8)
        assert more.p[1] == pytest.approx(0.675)

    def test_length_imitation_endpoint(self):
        params = LearnerParams(length_imitation=1.0)
        st_ = state_with({1: 0.5}, params=params)
        out = st_.train(train_set_for({1: 4}, level=2, length=200), 8)
        assert out.mu_log_len[2] == pytest.approx(math.log(200))
        # absent levels imitate the global train mean
        assert out.mu_log_len[5] == pytest.approx(math.log(200))

    def test_wrong_role_rejected(self):
        st_ = state_with({1: 0.5})
        ds, _ = __import__("conftest").make_filter({1: 2})
        with pytest.raises(ValueError):
            st_.train(ds, 8)

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        st.lists(st.integers(0, 12), min_size=1, max_size=8),
        st.integers(1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_p_stays_in_unit_interval(self, ps, counts, k):
        p_map = {i: p for i, p in enumerate(ps)}
        st_ = state_with(p_map)
        counts_map = {i % len(ps): c for i, c in enumerate(counts)}
        ds = train_set_for({q: c for q, c in counts_map.items() if c > 0})
        out = st_.train(ds, k)
        assert all(0.0 <= v <= 1.0 for v in out.p.values())

    @given(
        st.dictionaries(st.integers(0, 5), st.integers(0, 10), min_size=1, max_size=6),
        st.integers(0, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_exposure(self, counts, bump_qid):
        p_map = {q: 0.35 for q in range(6)}
        bigger = dict(counts)
        bigger[bump_qid] = bigger.get(bump_qid, 0) + 3
        st_a = state_with(p_map)
        st_b = state_with(p_map)
        out_small = st_a.train(train_set_for({q: c for q, c in counts.items() if c > 0}), 8)
        out_big = st_b.train(train_set_for({q: c for q, c in bigger.items() if c > 0}), 8)
        assert all(out_big.p[q] >= out_small.p[q] - 1e-12 for q in p_map)


class TestPassRate:
    def test_degenerate(self):
        st_ = state_with({1: 1.0, 2: 0.0})
        assert st_.pass_rates([make_query(1), make_query(2)], 64) == {1: 1.0, 2: 0.0}

    def test_near_half(self):
        st_ = state_with({1: 0.5}, seed=17)
        assert abs(st_.pass_rates([make_query(1)], 64)[1] - 0.5) <= 0.15

    def test_vectorized_matches_scalar(self):
        corpus = synth_corpus(25, seed=4)
        st_ = init_learner(corpus, seed=4)
        rates = st_.pass_rates(corpus, 32)
        for q in corpus:
            assert rates[q.id] == pass_rate(st_, q, 32)

    def test_pure_measurement(self):
        st_ = state_with({1: 0.5}, seed=2)
        q = make_query(1)
        assert st_.pass_rates([q], 64) == st_.pass_rates([q], 64)
        assert st_.draw_counter == {}


class TestCalibrateDifficulty:
    def test_ten_distinct_rates(self):
        rates = {i: 1.0 - i / 10 for i in range(10)}
        levels = calibrate_difficulty(rates)
        assert [levels[i] for i in range(10)] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]

    def test_ties_break_by_id(self):
        rates = {i: 0.5 for i in range(10)}
        levels = calibrate_difficulty(rates)
        assert [levels[i] for i in range(10)] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            calibrate_difficulty({})

    @given(st.dictionaries(st.integers(0, 4000), st.floats(0, 1), min_size=1, max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_balanced_and_ordered(self, rates):
        levels = calibrate_difficulty(rates)
        sizes = [sum(1 for lv in levels.values() if lv == L) for L in (1, 2, 3, 4, 5)]
        assert max(sizes) - min(sizes) <= 1
        by_level = {}
        for qid, lv in levels.items():
            by_level.setdefault(lv, []).append(rates[qid])
        for lv in range(1, 5):
            if lv in by_level and lv + 1 in by_level:
                assert min(by_level[lv]) >= max(by_level[lv + 1])


class TestSnapshots:
    def test_clone_isolates_counters(self):
        corpus = synth_corpus(5, seed=0)
        st_ = init_learner(corpus, seed=0)
        snap = st_.clone()
        st_.sample_response(corpus[0])
        assert snap.draw_counter == {}


def test_synth_corpus_deterministic_and_in_range():
    a = synth_corpus(100, seed=8)
    b = synth_corpus(100, seed=8)
    assert a == b
    assert all(0.0 <= q.latent_difficulty <= 1.0 for q in a)
    params = CorpusParams()
    easy = sum(
        1 for q in a if q.latent_difficulty <= params.easy_difficulty[1] + 1e-9
    )
    assert abs(easy / 100 - params.easy_fraction) < 0.15
