import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from headtail import rewards
from headtail.core import ORIGIN_CORRECTED, ORIGIN_RESAMPLED_GR, ROLE_DISCARD, ROLE_FILTER, Corpus, TrajectoryDataset
from headtail.learner import (
    CorpusParams,
    LearnerParams,
    LearnerState,
    calibrate_difficulty,
    init_learner,
    synth_corpus,
)
from headtail.strategies import SamplerError, _resampled

from conftest import make_query, make_traj
import oracles
from oracles import (
    calibrate_difficulty_reference,
    correction_draw,
    fresh_draw,
    guided_draw,
    init_learner_reference,
    pass_rate,
    split_steps,
    state_json_reference,
    train_reference,
)


def state_with(p_map, seed=0, params=None, mu=None):
    corpus = Corpus.of(make_query(q) for q in p_map)
    return LearnerState(
        iteration=0,
        corpus=corpus,
        p=[p_map[q] for q in corpus.ids.tolist()],
        mu_log_len=mu or {lv: math.log(100.0) for lv in (1, 2, 3, 4, 5)},
        params=params or LearnerParams(),
        root_seed=seed,
        draw_counter=np.zeros(len(corpus), dtype=np.int64),
    )


def p_of(state, qid):
    return state.p[state.corpus.rows([qid])[0]]


def counter_of(state, qid):
    return state.draw_counter[state.corpus.rows([qid])[0]]


# n draws of one query in one batched call take its next n counters in
# order: they are the draws of n one-row calls


def fresh(state, query, n):
    return state.sample_fresh(Corpus.of([query]), np.full(n, query.id))


def guided(state, query, prefix, step, total_steps, n):
    tokens = 0 if step == 1 else split_steps(prefix, total_steps)[step - 1]
    return state.sample_guided(
        Corpus.of([query]), np.full(n, query.id), np.full(n, tokens), np.full(n, step), total_steps
    )


def corrections(state, query, n):
    return state.sample_corrections(Corpus.of([query]), np.full(n, query.id))


class TestInitLearner:
    def test_zero_difficulty_clamps_to_ceiling(self):
        corpus = Corpus.of([make_query(0, latent_difficulty=0.0)])
        st_ = init_learner(corpus, LearnerParams(init_noise=0.0), seed=1)
        assert st_.p[0] == pytest.approx(0.98)

    def test_same_seed_identical(self):
        corpus = synth_corpus(40, seed=5)
        a = init_learner(corpus, seed=9)
        b = init_learner(corpus, seed=9)
        assert a.p.tolist() == b.p.tolist() and a.mu_log_len == b.mu_log_len

    def test_stratified_difficulties_give_centered_mean_p(self):
        corpus = Corpus.of(
            make_query(i, latent_difficulty=d)
            for i, d in enumerate(np.tile(np.arange(0.1, 0.95, 0.1), 10))
        )
        means = []
        for seed in range(100):
            st_ = init_learner(corpus, seed=seed)
            means.append(np.mean(st_.p))
        assert 0.4 <= float(np.mean(means)) <= 0.6

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            init_learner(Corpus([], []), seed=0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            init_learner(Corpus.of([make_query(1), make_query(1)]), seed=0)

    @pytest.mark.parametrize("gt", ["", "  ", "$$", "\\( \\)", " $ $ "])
    def test_ground_truth_normalizing_to_empty_rejected(self, gt):
        # a wrong draw answers "", so such a query's every draw would grade correct
        with pytest.raises(ValueError, match="normalizes to the empty string"):
            init_learner(Corpus.of([make_query(1), make_query(2, gt=gt)]), seed=0)
        init_learner(Corpus.of([make_query(1), make_query(2, gt=gt + "0")]), seed=0)

    def test_level_means_increase_with_level(self):
        corpus = synth_corpus(500, seed=3)
        probe = init_learner(corpus, seed=3)
        levels = calibrate_difficulty(probe.pass_rates(64))
        st_ = init_learner(replace(corpus, level=levels), seed=3)
        mus = [st_.mu_log_len[lv] for lv in (1, 2, 3, 4, 5)]
        assert mus[0] < mus[-1]


class TestSampleResponse:
    def test_p_one_always_correct(self):
        st_ = state_with({1: 1.0})
        q = make_query(1)
        assert fresh(st_, q, 200).correct.all()

    def test_p_zero_never_correct(self):
        st_ = state_with({1: 0.0})
        q = make_query(1)
        assert not fresh(st_, q, 200).correct.any()

    def test_empirical_rate(self):
        st_ = state_with({1: 0.6}, seed=123)
        q = make_query(1)
        hits = int(fresh(st_, q, 10_000).correct.sum())
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
        lengths = set(fresh(st_, q, 20).length_tokens.tolist())
        assert counter_of(st_, 1) == 20
        assert len(lengths) > 1

    def test_batch_replays_scalar_draws(self):
        corpus = synth_corpus(30, seed=2)
        a = init_learner(corpus, seed=2)
        b = a.clone()
        batch = b.sample_batch(4)
        scalar = []
        for q in list(oracles.records(corpus).values()):
            for j in range(1, 5):
                t = fresh_draw(a, q)
                scalar.append((q.id, j, t.correct, t.length_tokens, t.extracted_answer))
        vec = [
            (t.query_id, t.sample_index, t.correct, t.length_tokens, t.extracted_answer)
            for _, t in oracles.entries(batch)
        ]
        assert vec == scalar
        assert a.draw_counter.tolist() == b.draw_counter.tolist()

    def test_batch_equals_fresh_draws_on_repeated_ids(self):
        corpus = synth_corpus(25, seed=4)
        a = init_learner(corpus, seed=4)
        a.draw_counter[3] = 5  # a query that was drawn before
        b = a.clone()
        batch = a.sample_batch(3)
        qids = np.repeat(corpus.ids, 3)
        fresh = b.sample_fresh(corpus, qids)
        assert batch.columns["query_id"].tolist() == qids.tolist()
        assert batch.columns["length_tokens"].tolist() == fresh.length_tokens.tolist()
        assert batch.columns["correct"].tolist() == fresh.correct.tolist()
        assert batch.answers.tolist() == fresh.answers.tolist()
        assert (batch.columns["iteration"] == fresh.iteration).all()
        assert a.draw_counter.tolist() == b.draw_counter.tolist()

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
        hits = int(guided(st_, q, prefix, 1, 4, 8000).correct.sum())
        assert abs(hits / 8000 - 0.3) < 0.02

    def test_conditional_probability_formula(self):
        params = LearnerParams(prefix_gain=1.0)
        st_ = state_with({1: 0.2}, seed=9, params=params)
        q = make_query(1)
        prefix = make_traj(1, length=80)
        hits = int(guided(st_, q, prefix, 4, 4, 8000).correct.sum())
        # f = 3/4 -> 1 - 0.8 * 0.25 = 0.8
        assert abs(hits / 8000 - 0.8) < 0.02

    def test_requires_successful_prefix(self):
        st_ = state_with({1: 0.5})
        with pytest.raises(ValueError, match="successful prefix"):
            st_.guided_sample(make_query(1), make_traj(1, correct=False), 2, 4)

    def test_split_errors_come_in_order(self):
        st_ = state_with({1: 0.5})
        short = make_traj(1, length=3)
        with pytest.raises(ValueError, match=r"^S must be < 2\*\*63$"):
            st_.guided_sample(make_query(1), short, 2, 2**63)
        with pytest.raises(ValueError, match="too short to split"):
            st_.guided_sample(make_query(1), short, 2, 4)
        # step 1 keeps no prefix, so a short donor is no error there
        assert st_.guided_sample(make_query(1), short, 1, 4).prefix_tokens == 0

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
        hits = int(corrections(st_, q, 10_000).correct.sum())
        assert abs(hits / 10_000 - 0.4) < 0.02

    def test_zero_parameters_never_correct(self):
        params = LearnerParams(correction_base=0.0, correction_slope=0.0)
        st_ = state_with({1: 0.9}, params=params)
        assert not corrections(st_, make_query(1), 300).correct.any()

    def test_corrections_longer_than_fresh(self):
        st_a = state_with({1: 0.5}, seed=21)
        st_b = state_with({1: 0.5}, seed=21)
        q = make_query(1, level=3)
        plain = np.mean(fresh(st_a, q, 10_000).length_tokens)
        corrected = np.mean(corrections(st_b, q, 10_000).length_tokens)
        assert corrected > plain

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
    iteration = draw(st.integers(0, 3))
    p = {q: draw(st.floats(0.0, 1.0)) for q in records}
    params = LearnerParams(prefix_gain=draw(st.sampled_from([0.5, 1.0, 2.0])))
    root_seed = draw(st.integers(0, 2**32))
    counters = {q: draw(st.integers(0, 5)) for q in draw(st.sets(st.sampled_from(sorted(records))))}
    state = LearnerState(
        iteration=iteration,
        corpus=Corpus.of(records.values()),
        p=[p[q] for q in range(n)],
        mu_log_len=mu,
        params=params,
        root_seed=root_seed,
        draw_counter=[counters.get(q, 0) for q in range(n)],
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
    """Each batched sampler, and a loop of its one-row method, equals a loop
    of its scalar reference in tests/oracles.py on a clone.

    The requests name their queries through a corpus equal to, but not the
    same object as, the state's; ``sample_batch`` covers the shared one."""

    @given(batched_requests())
    @settings(max_examples=80, deadline=None)
    def test_fresh_replays_sample_response(self, request):
        state, records, query_ids = request
        loop, one_row = state.clone(), state.clone()
        draws = state.sample_fresh(Corpus.of(records.values()), query_ids)
        scalar = [fresh_draw(loop, records[q]) for q in query_ids.tolist()]
        assert_replays(draws, scalar, state.iteration + 1)
        assert [one_row.sample_response(records[q]) for q in query_ids.tolist()] == scalar
        assert state.draw_counter.tolist() == loop.draw_counter.tolist() == one_row.draw_counter.tolist()

    @given(batched_requests(), st.integers(2, 5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_guided_replays_guided_sample(self, request, S, data):
        state, records, query_ids = request
        # one donor per row, some shorter than S (those continue only from step 1)
        lengths = [data.draw(st.integers(1, 12)) for _ in query_ids]
        steps = [data.draw(st.integers(1, S)) if n >= S else 1 for n in lengths]
        donors = [make_traj(q, length=n) for q, n in zip(query_ids.tolist(), lengths)]
        prefix = [0 if s == 1 else split_steps(d, S)[s - 1] for d, s in zip(donors, steps)]
        loop, one_row = state.clone(), state.clone()
        draws = state.sample_guided(Corpus.of(records.values()), query_ids, np.array(prefix), np.array(steps), S)
        scalar = [guided_draw(loop, records[d.query_id], d, s, S) for d, s in zip(donors, steps)]
        assert_replays(draws, scalar, state.iteration + 1)
        assert [t.prefix_tokens for t in scalar] == prefix
        assert [
            one_row.guided_sample(records[d.query_id], d, s, S) for d, s in zip(donors, steps)
        ] == scalar
        assert state.draw_counter.tolist() == loop.draw_counter.tolist() == one_row.draw_counter.tolist()

    @given(batched_requests())
    @settings(max_examples=80, deadline=None)
    def test_corrections_replay_correct_response(self, request):
        state, records, query_ids = request
        loop, one_row = state.clone(), state.clone()
        draws = state.sample_corrections(Corpus.of(records.values()), query_ids)
        scalar = [correction_draw(loop, records[q]) for q in query_ids.tolist()]
        assert_replays(draws, scalar, state.iteration + 1)
        assert [
            one_row.correct_response(records[q], make_traj(q, correct=False)) for q in query_ids.tolist()
        ] == scalar
        assert state.draw_counter.tolist() == loop.draw_counter.tolist() == one_row.draw_counter.tolist()

    def test_guided_rejects_steps_out_of_range(self):
        st_ = state_with({1: 0.5})
        with pytest.raises(ValueError, match="steps must be in"):
            st_.sample_guided(st_.corpus, np.array([1]), np.array([0]), np.array([5]), 4)

    def test_length_past_64_bits_with_its_prefix_is_a_sampler_error(self):
        st_ = state_with({1: 0.5})
        big = np.array([2**63 - 1])
        with pytest.raises(SamplerError, match="does not fit in 64 bits"):
            st_.sample_guided(st_.corpus, np.array([1]), big, np.array([2]), 4)
        draws = st_.sample_guided(st_.corpus, np.array([1]), big - 10**6, np.array([2]), 4)
        assert draws.length_tokens[0] > 2**63 - 10**6
        assert st_.draw_counter.tolist() == [1]  # the failed call moved no counter

    def test_empty_request_makes_no_rng_call(self, monkeypatch):
        from headtail import rng

        def no_call(*args):
            raise AssertionError("rng called for an empty request")

        monkeypatch.setattr(rng, "uniform", no_call)
        monkeypatch.setattr(rng, "normal", no_call)
        st_ = state_with({1: 0.5})
        st_.draw_counter[0] = 3
        none = np.zeros(0, dtype=np.int64)
        for draws in (
            st_.sample_fresh(st_.corpus, none),
            st_.sample_guided(st_.corpus, none, none, none, 4),
            st_.sample_corrections(st_.corpus, none),
        ):
            assert len(draws.length_tokens) == len(draws.correct) == len(draws.answers) == 0
        assert st_.draw_counter.tolist() == [3]


def train_set_for(qid_counts, level=None, length=60):
    entries = []
    for qid, count in qid_counts.items():
        q = make_query(qid, level=level)
        entries.extend(
            (q, make_traj(qid, j, length=length)) for j in range(1, count + 1)
        )
    return TrajectoryDataset.from_entries(entries, ROLE_FILTER)


class TestTrain:
    def test_unexposed_decay(self):
        params = LearnerParams(forget_rate=0.25)
        st_ = state_with({1: 0.8, 2: 0.4}, params=params)
        out = st_.train(TrajectoryDataset.empty(ROLE_FILTER), 8)
        assert p_of(out, 1) == pytest.approx(0.8 * 0.75)
        assert p_of(out, 2) == pytest.approx(0.4 * 0.75)
        assert out.iteration == 1

    def test_full_exposure_update(self):
        params = LearnerParams(learn_rate=0.35)
        st_ = state_with({1: 0.5}, params=params)
        out = st_.train(train_set_for({1: 8}), 8)
        assert p_of(out, 1) == pytest.approx(0.675)

    def test_exposure_saturates_at_k(self):
        params = LearnerParams(learn_rate=0.35)
        st_ = state_with({1: 0.5}, params=params)
        more = st_.train(train_set_for({1: 30}), 8)
        assert p_of(more, 1) == pytest.approx(0.675)

    def test_length_imitation_endpoint(self):
        params = LearnerParams(length_imitation=1.0)
        st_ = state_with({1: 0.5}, params=params)
        out = st_.train(train_set_for({1: 4}, level=2, length=200), 8)
        assert out.mu_log_len[2] == pytest.approx(math.log(200))
        # absent levels imitate the global train mean
        assert out.mu_log_len[5] == pytest.approx(math.log(200))

    def test_wrong_role_rejected(self):
        st_ = state_with({1: 0.5})
        sample, _ = __import__("conftest").make_sample({1: 2}, K=8)
        discard = sample.select(np.flatnonzero(~sample.columns["correct"]), ROLE_DISCARD)
        for ds in (sample, discard):
            with pytest.raises(ValueError, match=f"train expects a filter dataset, got role {ds.role!r}"):
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
        assert all(0.0 <= v <= 1.0 for v in out.p.tolist())

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
        assert all(p_of(out_big, q) >= p_of(out_small, q) - 1e-12 for q in p_map)


class TestPassRate:
    def test_degenerate(self):
        st_ = state_with({1: 1.0, 2: 0.0})
        assert st_.pass_rates(64).tolist() == [1.0, 0.0]

    def test_near_half(self):
        st_ = state_with({1: 0.5}, seed=17)
        assert abs(st_.pass_rates(64)[0] - 0.5) <= 0.15

    def test_vectorized_matches_scalar(self):
        corpus = synth_corpus(25, seed=4)
        st_ = init_learner(corpus, seed=4)
        rates = st_.pass_rates(32)
        for row, q in enumerate(list(oracles.records(corpus).values())):
            assert rates[row] == pass_rate(st_, q, 32)

    def test_pure_measurement(self):
        st_ = state_with({1: 0.5}, seed=2)
        assert st_.pass_rates(64).tolist() == st_.pass_rates(64).tolist()
        assert st_.draw_counter.tolist() == [0]


class TestCalibrateDifficulty:
    def test_ten_distinct_rates(self):
        rates = np.array([1.0 - i / 10 for i in range(10)])
        levels = calibrate_difficulty(rates)
        assert levels.tolist() == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]

    def test_ties_break_by_id(self):
        rates = np.full(10, 0.5)
        levels = calibrate_difficulty(rates)
        assert levels.tolist() == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            calibrate_difficulty(np.zeros(0))

    @given(st.dictionaries(st.integers(0, 4000), st.floats(0, 1), min_size=1, max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_balanced_and_ordered(self, rates):
        ids = sorted(rates)
        levels = dict(zip(ids, calibrate_difficulty(np.array([rates[q] for q in ids])).tolist()))
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
        st_.sample_response(list(oracles.records(corpus).values())[0])
        assert snap.draw_counter.tolist() == [0] * 5

    @given(
        st.integers(0, 40),  # an empty corpus prints empty maps
        st.sampled_from([0, 1, 5, 90, 95, 990, 2**40]),  # runs that cross 9/10 and 99/100
        st.lists(
            st.one_of(st.sampled_from([5e-324, 1e-300, 0.1, 1.0, 0.0, -0.0]), st.floats()),
            min_size=40, max_size=40,
        ),
        st.lists(st.integers(0, 2**63 - 1), min_size=40, max_size=40),
        st.sampled_from([1, 1.0, 0.03]),
        st.dictionaries(st.integers(1, 5), st.floats()),
        st.integers(0, 2**64),
    )
    @settings(max_examples=150, deadline=None)
    def test_to_json_equals_json_dumps(self, n, first, ps, counters, learn_rate, mu, seed):
        state = LearnerState(
            iteration=n % 7,
            corpus=Corpus.of(make_query(q) for q in range(first, first + n)),
            p=ps[:n],
            mu_log_len=mu,
            params=LearnerParams(learn_rate=learn_rate),
            root_seed=seed,
            draw_counter=counters[:n],
        )
        assert state.to_json() == state_json_reference(state)


def test_synth_corpus_deterministic_and_in_range():
    a = synth_corpus(100, seed=8)
    b = synth_corpus(100, seed=8)
    assert oracles.records(a) == oracles.records(b)
    assert all(0.0 <= d <= 1.0 for d in a.latent_difficulty.tolist())
    params = CorpusParams()
    easy = sum(
        1 for d in a.latent_difficulty.tolist() if d <= params.easy_difficulty[1] + 1e-9
    )
    assert abs(easy / 100 - params.easy_fraction) < 0.15


@st.composite
def leveled_corpora(draw):
    """A corpus with arbitrary distinct ids, given in any order; each query's
    level unset or set, its difficulty and base length drawn."""
    ids = draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=12, unique=True))
    return Corpus.of(
        make_query(
            q,
            level=draw(st.one_of(st.none(), st.integers(1, 5))),
            latent_difficulty=draw(st.floats(0.0, 1.0)),
            base_log_length=draw(st.floats(2.0, 7.0)),
        )
        for q in ids
    )


learner_params = st.builds(
    LearnerParams,
    learn_rate=st.floats(0.01, 1.0),
    forget_rate=st.floats(0.0, 0.99),
    length_imitation=st.floats(0.0, 1.0),
    init_noise=st.floats(0.0, 0.3),
)


@given(leveled_corpora(), learner_params, st.integers(1, 8), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_with_levels_equals_a_fresh_start_over_the_leveled_corpus(corpus, params, m, seed):
    probe = init_learner(corpus, params, seed)
    levels = calibrate_difficulty(probe.pass_rates(m))
    got = probe.with_levels(levels)
    want = init_learner(replace(corpus, level=levels), params, seed)
    assert got.to_json() == want.to_json()
    assert got.corpus.level.tolist() == want.corpus.level.tolist() == levels.tolist()


class TestAgainstDictReferences:
    """Set-up, calibration and training equal their per-query dict references
    in tests/oracles.py, float for float."""

    @given(leveled_corpora(), learner_params, st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_init_learner(self, corpus, params, seed):
        state = init_learner(corpus, params, seed)
        p, mu = init_learner_reference(list(oracles.records(corpus).values()), params, seed)
        assert dict(zip(corpus.ids.tolist(), state.p.tolist())) == p
        assert state.mu_log_len == mu

    @given(leveled_corpora(), learner_params, st.integers(1, 8), st.data())
    @settings(max_examples=150, deadline=None)
    def test_train(self, corpus, params, k, data):
        ids = corpus.ids.tolist()
        state = init_learner(corpus, params, data.draw(st.integers(0, 2**32)))
        state.p = np.array([data.draw(st.floats(0.0, 1.0)) for _ in ids])
        # train rows of corpus queries and of one query the corpus lacks
        counts = {q: data.draw(st.integers(0, 10)) for q in ids + [2**41]}
        records = oracles.records(corpus)
        entries = [
            (records.get(q, make_query(q)), make_traj(q, j, length=data.draw(st.integers(0, 3000))))
            for q, c in counts.items()
            for j in range(1, c + 1)
        ]
        train_set = TrajectoryDataset.from_entries(entries, ROLE_FILTER)
        out = state.train(train_set, k)
        p, mu = train_reference(dict(zip(ids, state.p.tolist())), state.mu_log_len, params, train_set, k)
        assert dict(zip(ids, out.p.tolist())) == p
        assert out.mu_log_len == mu

    @given(leveled_corpora(), st.integers(1, 8), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_calibrate_difficulty(self, corpus, m, seed):
        rates = init_learner(corpus, seed=seed).pass_rates(m)  # few shots: many ties
        levels = calibrate_difficulty(rates)
        expected = calibrate_difficulty_reference(dict(zip(corpus.ids.tolist(), rates.tolist())))
        assert dict(zip(corpus.ids.tolist(), levels.tolist())) == expected


@pytest.mark.parametrize("name, call", [
    ("k", lambda s, v: s.sample_batch(v)),
    ("m", lambda s, v: s.pass_rates(v)),
    ("k", lambda s, v: s.train(TrajectoryDataset.empty(ROLE_FILTER), v)),
])
def test_each_count_is_checked_below_and_past_int64(name, call):
    state = state_with({1: 0.5, 2: 0.3})
    with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
        call(state, 0)
    with pytest.raises(ValueError, match=rf"^{name} must be < 2\*\*63$"):
        call(state, 2**63)


@given(st.integers(1, 30), st.integers(0, 2**32), st.integers(1, 4), st.integers(2, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_grading_agrees_with_each_draws_own_flag(n, seed, k, S, data):
    """Every wrong draw shares the answer ``""``; graded against the corpus's
    ground truths, each sampler's rows still grade exactly as drawn."""
    state = init_learner(synth_corpus(n, seed=seed), seed=seed)
    corpus = state.corpus
    qids = np.array(data.draw(st.lists(st.sampled_from(corpus.ids.tolist()), max_size=30)), dtype=np.int64)
    steps = np.array([data.draw(st.integers(1, S)) for _ in qids.tolist()], dtype=np.int64)
    prefix = 10 * (steps - 1)
    index = np.arange(1, len(qids) + 1)
    datasets = [
        state.sample_batch(k),
        _resampled(
            state.sample_guided(corpus, qids, prefix, steps, S), corpus, ORIGIN_RESAMPLED_GR,
            query_id=qids, sample_index=index, prefix_steps=steps - 1, prefix_tokens=prefix,
        ),
        _resampled(
            state.sample_corrections(corpus, qids), corpus, ORIGIN_CORRECTED,
            query_id=qids, sample_index=index,
        ),
    ]
    for ds in datasets:
        graded = rewards._graded(ds, rewards.DEFAULT_SYMBOL_ALIASES)
        assert graded.tolist() == ds.columns["correct"].tolist()
        assert set(ds.answers[~graded].tolist()) <= {""}
