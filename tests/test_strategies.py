import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from headtail import rng
from headtail.core import (
    ORIGIN_CORRECTED,
    ORIGIN_RESAMPLED_AR,
    ORIGIN_RESAMPLED_GR,
    ROLE_FILTER,
    Corpus,
    TrajectoryDataset,
)
from headtail.rewards import discard_dataset, filter_dataset
from headtail.strategies import (
    SamplerError,
    StrategyConfig,
    adaptive_resample,
    guided_resample,
    head_clip,
    repeat_invert,
    repeat_pad,
    self_correct_augment,
    threshold_clip,
    vanilla,
)

from conftest import FailingSampler, ScriptedSampler, make_filter, make_query, make_sample, make_traj
import oracles
from oracles import (
    oracle_ar_draws,
    oracle_hc,
    oracle_ri,
    oracle_rp,
    oracle_tc,
    same_multiset,
    split_steps,
    uniform_scalar,
)


def per_query_counts(ds):
    return dict(Counter(t.query_id for _, t in oracles.entries(ds)))


def drawn(train, origin):
    """The train set's rows a resampler drew: those of ``origin``."""
    return [t for _, t in oracles.entries(train) if t.origin == origin]


class TestVanilla:
    def test_identity(self, hand_filter):
        f, _ = hand_filter
        out = vanilla(f)
        assert out is f
        assert out.role == ROLE_FILTER

    def test_empty(self):
        out = vanilla(TrajectoryDataset.empty("filter"))
        assert len(out) == 0

    @given(st.dictionaries(st.integers(0, 9), st.integers(1, 8), min_size=1, max_size=6))
    @settings(deadline=None)
    def test_entrywise_equality(self, k_correct):
        f, _ = make_filter(k_correct)
        assert oracles.entries(vanilla(f)) == oracles.entries(f)


class TestThresholdClip:
    def test_hand_fixture(self, hand_filter):
        f, _ = hand_filter
        out = threshold_clip(f, L=4, seed=0)
        assert per_query_counts(out) == {1: 4, 2: 3, 3: 1}
        assert len(out) == 8

    def test_large_threshold_is_identity(self, hand_filter):
        f, _ = hand_filter
        assert oracles.entries(threshold_clip(f, L=8, seed=3)) == oracles.entries(f)

    def test_same_seed_same_selection(self, hand_filter):
        f, _ = hand_filter
        a = threshold_clip(f, L=2, seed=11)
        b = threshold_clip(f, L=2, seed=11)
        assert oracles.entries(a) == oracles.entries(b)

    def test_counts_stable_across_seeds(self, hand_filter):
        f, _ = hand_filter
        for seed in range(200):
            out = threshold_clip(f, L=4, seed=seed)
            assert per_query_counts(out) == {1: 4, 2: 3, 3: 1}

    def test_selection_varies_with_seed(self, hand_filter):
        f, _ = hand_filter
        selections = {
            tuple(t.sample_index for _, t in oracles.entries(threshold_clip(f, L=4, seed=s)) if t.query_id == 1)
            for s in range(30)
        }
        assert len(selections) > 1

    def test_membership(self, hand_filter):
        f, _ = hand_filter
        out = threshold_clip(f, L=3, seed=5)
        pool = set(oracles.entries(f))
        assert all(e in pool for e in oracles.entries(out))

    @given(
        st.dictionaries(st.integers(-5, 30), st.integers(1, 12), min_size=1, max_size=10),
        st.integers(1, 12),
        st.integers(0, 2**64 - 1),
        st.integers(1, 1000),
    )
    @settings(max_examples=150, deadline=None)
    def test_keeps_min_k_l_per_query_in_input_order(self, k_correct, L, seed, iteration):
        f, _ = make_filter(k_correct)
        out = threshold_clip(f, L, seed, iteration)
        assert per_query_counts(out) == {q: min(k, L) for q, k in k_correct.items()}
        # an ordered subsequence of the input, by value: each input entry
        # has its own (query_id, sample_index), so no two compare equal
        remaining = iter(oracles.entries(f))
        assert all(any(kept == e for e in remaining) for kept in oracles.entries(out))


class TestHeadClip:
    def test_hand_fixture(self):
        f, _ = make_filter({1: 8, 2: 3, 3: 1})
        out = head_clip(f, K=8)
        assert per_query_counts(out) == {2: 3, 3: 1}
        assert len(out) == 4

    def test_no_fully_correct_is_identity(self, hand_filter):
        f, _ = hand_filter
        assert oracles.entries(head_clip(f, K=8)) == oracles.entries(f)

    def test_all_fully_correct_empties(self):
        f, _ = make_filter({1: 4, 2: 4})
        assert len(head_clip(f, K=4)) == 0


class TestRepeatPad:
    def test_cycling_counts(self):
        f, _ = make_filter({7: 3})
        out = repeat_pad(f, K=8)
        reps = {}
        for _, t in oracles.entries(out):
            reps[t.sample_index] = reps.get(t.sample_index, 0) + 1
        assert reps == {1: 3, 2: 3, 3: 2}

    def test_full_query_unchanged(self):
        f, _ = make_filter({1: 8})
        out = repeat_pad(f, K=8)
        assert same_multiset(oracles.entries(out), oracles.entries(f))

    def test_hand_fixture_total(self, hand_filter):
        f, _ = hand_filter
        out = repeat_pad(f, K=8)
        assert len(out) == 24
        assert set(per_query_counts(out).values()) == {8}


class TestRepeatInvert:
    def test_hand_fixture(self, hand_filter):
        f, _ = hand_filter
        out = repeat_invert(f, K=8)
        assert per_query_counts(out) == {1: 2, 2: 5, 3: 7}
        assert len(out) == 14

    def test_fully_correct_drops(self):
        f, _ = make_filter({1: 8, 2: 2})
        out = repeat_invert(f, K=8)
        assert 1 not in per_query_counts(out)

    def test_half_correct_appears_once_each(self):
        f, _ = make_filter({1: 4})
        out = repeat_invert(f, K=8)
        assert per_query_counts(out) == {1: 4}
        assert sorted(t.sample_index for _, t in oracles.entries(out)) == [1, 2, 3, 4]


class TestAdaptiveResample:
    def test_hand_fixture_draw_counts(self, hand_filter):
        f, queries = hand_filter
        corpus = list(queries.values()) + [make_query(4)]
        sampler = ScriptedSampler(itertools.repeat(True))
        train = adaptive_resample(f, Corpus.of(corpus), sampler, K=8)
        assert sampler.fresh_calls == 2 + 5 + 7 + 8
        assert len(drawn(train, ORIGIN_RESAMPLED_AR)) == 22
        assert len(train) == len(f) + 22

    def test_no_deficit_no_resampling(self):
        f, queries = make_filter({1: 4, 2: 4})
        sampler = ScriptedSampler()
        train = adaptive_resample(f, Corpus.of(queries.values()), sampler, K=4)
        assert sampler.fresh_calls == 0
        assert oracles.entries(train) == oracles.entries(f)

    def test_failed_draws_are_refiltered_out(self, hand_filter):
        f, queries = hand_filter
        sampler = ScriptedSampler(itertools.cycle([True, False]))
        train = adaptive_resample(f, Corpus.of(queries.values()), sampler, K=8)
        kept = sum(ok for _, ok in sampler.served)
        assert 0 < kept < len(sampler.served)
        assert len(drawn(train, ORIGIN_RESAMPLED_AR)) == kept
        assert len(train) == len(f) + kept

    def test_sampler_failure_aborts(self, hand_filter):
        f, queries = hand_filter
        with pytest.raises(SamplerError, match="sampler error"):
            adaptive_resample(f, Corpus.of(queries.values()), FailingSampler(), K=8)

    @given(
        st.dictionaries(st.integers(0, 14), st.integers(0, 8), min_size=1, max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_accounting_on_random_fixtures(self, k_partial):
        corpus_ids = sorted(k_partial)
        k_correct = {q: k for q, k in k_partial.items() if k > 0}
        f, queries = make_filter(k_correct)
        corpus = [queries.get(qid, make_query(qid)) for qid in corpus_ids]
        sampler = ScriptedSampler(itertools.cycle([True, False, False]))
        train = adaptive_resample(f, Corpus.of(corpus), sampler, K=8)
        assert sampler.fresh_calls == oracle_ar_draws(k_correct, corpus_ids, 8)
        assert len(train) == len(f) + sum(ok for _, ok in sampler.served)


class TestSplitSteps:
    def test_even_split(self):
        assert split_steps(make_traj(1, length=100), 4) == (0, 25, 50, 75)

    def test_remainder_goes_to_leading_chunks(self):
        assert split_steps(make_traj(1, length=7), 4) == (0, 2, 4, 6)

    def test_bisection(self):
        assert split_steps(make_traj(1, length=12), 2) == (0, 6)

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short to split"):
            split_steps(make_traj(1, length=3), 4)

    @given(st.integers(2, 10), st.integers(2, 500))
    @settings(deadline=None)
    def test_chunks_near_equal(self, S, length):
        if length < S:
            return
        offsets = split_steps(make_traj(1, length=length), S)
        sizes = [b - a for a, b in zip(offsets, offsets[1:])] + [length - offsets[-1]]
        assert sum(sizes) == length
        assert max(sizes) - min(sizes) <= 1
        assert offsets[0] == 0 and len(offsets) == S


class TestGuidedResample:
    def test_hand_fixture_draw_counts(self, hand_filter):
        f, _ = hand_filter
        sampler = ScriptedSampler()
        train = guided_resample(f, sampler, L=4, S=4)
        # query 1 (k=6 >= L) skipped; queries 2 and 3 give k_i * S draws
        assert sampler.guided_calls == 3 * 4 + 1 * 4
        assert [q for q, _ in sampler.served] == [2] * 12 + [3] * 4
        assert len(train) == len(f) + 16

    def test_all_above_threshold(self):
        f, _ = make_filter({1: 5, 2: 4})
        sampler = ScriptedSampler()
        train = guided_resample(f, sampler, L=4, S=4)
        assert sampler.guided_calls == 0
        assert oracles.entries(train) == oracles.entries(f)

    def test_prefix_steps_range(self, hand_filter):
        f, _ = hand_filter
        train = guided_resample(f, ScriptedSampler(), L=4, S=4)
        resampled = drawn(train, ORIGIN_RESAMPLED_GR)
        assert len(resampled) == len(train) - len(f) == 16
        assert {t.prefix_steps for t in resampled} == {0, 1, 2, 3}

    def test_short_trajectory_contributes_single_draw(self):
        f, _ = make_filter({1: 1}, lengths={1: 3})
        sampler = ScriptedSampler()
        train = guided_resample(f, sampler, L=4, S=4)
        assert sampler.guided_calls == 1
        assert [t.prefix_steps for t in drawn(train, ORIGIN_RESAMPLED_GR)] == [0]

    def test_sampler_failure_aborts(self, hand_filter):
        f, _ = hand_filter
        with pytest.raises(SamplerError):
            guided_resample(f, FailingSampler(), L=4, S=4)

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=6), st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_prefix_tokens_are_split_steps_offsets(self, lengths, S):
        entries = [(make_query(1), make_traj(1, j, length=n)) for j, n in enumerate(lengths, 1)]
        f = TrajectoryDataset.from_entries(entries, "filter")
        train = guided_resample(f, ScriptedSampler(), L=len(lengths) + 1, S=S)
        expected = [
            (t.sample_index, step, offset)
            for _, t in entries
            for step, offset in enumerate(split_steps(t, S) if t.length_tokens >= S else (0,))
        ]
        got = [(t.sample_index, t.prefix_steps, t.prefix_tokens) for t in drawn(train, ORIGIN_RESAMPLED_GR)]
        assert got == expected


class TestSelfCorrectAugment:
    def test_hand_count(self):
        sample, _ = make_sample({1: 6}, K=8)
        f, d = filter_dataset(sample), discard_dataset(sample)
        sampler = ScriptedSampler(itertools.cycle([True, False]))
        train = self_correct_augment(f, d, sampler, K=8, min_cot_tokens=10)
        assert sampler.correct_calls == 2
        # one success -> pair entry + plain entry
        assert len(train) == len(f) + 2
        corrected = [t for _, t in oracles.entries(train) if t.origin == ORIGIN_CORRECTED]
        assert len(corrected) == 2
        assert {t.corrected_from for t in corrected} == {None, corrected[0].sample_index}

    def test_empty_discard(self, hand_filter):
        f, _ = hand_filter
        train = self_correct_augment(f, TrajectoryDataset.empty("discard"), ScriptedSampler(), 8, 10)
        assert oracles.entries(train) == oracles.entries(f)

    def test_cot_floor_rejects_short_corrections(self):
        sample, _ = make_sample({1: 0}, K=2)
        f, d = filter_dataset(sample), discard_dataset(sample)
        sampler = ScriptedSampler(itertools.repeat(True), length=5)
        train = self_correct_augment(f, d, sampler, K=2, min_cot_tokens=10)
        assert len(train) == 0

    def test_fully_correct_queries_never_corrected(self):
        sample, _ = make_sample({1: 2, 2: 1}, K=2)
        f, d = filter_dataset(sample), discard_dataset(sample)
        sampler = ScriptedSampler()
        self_correct_augment(f, d, sampler, K=2, min_cot_tokens=0)
        assert sampler.correct_calls == 1  # only query 2's single wrong draw


class TestOracleEquivalence:
    @given(
        st.integers(0, 2**63 - 1),
        st.sampled_from((rng.CORRECT, rng.PASS_RATE, rng.THRESHOLD_CLIP)),
        st.integers(-(2**63), 2**63 - 1),
        st.one_of(st.integers(0, 2**40), st.integers(2**32, 2**63 - 1)),
    )
    @settings(max_examples=300, deadline=None)
    def test_scalar_uniform_equals_rng_uniform(self, seed, tag, qid, counter):
        # oracle_tc draws through the pure-Python reference; it must be rng.uniform bit for bit
        assert uniform_scalar(seed, tag, qid, counter) == float(rng.uniform(seed, tag, qid, counter))

    @given(
        st.dictionaries(st.integers(0, 20), st.integers(1, 8), min_size=1, max_size=12),
        st.integers(1, 8),
        st.integers(0, 2**32),
        st.integers(1, 50),
    )
    @settings(max_examples=150, deadline=None)
    def test_tc_matches_oracle(self, k_correct, L, seed, iteration):
        f, _ = make_filter(k_correct)
        ours = threshold_clip(f, L, seed, iteration)
        assert list(oracles.entries(ours)) == oracle_tc(list(oracles.entries(f)), L, seed, iteration)

    @given(st.dictionaries(st.integers(0, 20), st.integers(1, 8), min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_hc_rp_ri_match_oracles(self, k_correct):
        f, _ = make_filter(k_correct)
        K = 8
        entries = list(oracles.entries(f))
        assert same_multiset(oracles.entries(head_clip(f, K)), oracle_hc(entries, K))
        assert same_multiset(oracles.entries(repeat_pad(f, K)), oracle_rp(entries, K))
        assert same_multiset(oracles.entries(repeat_invert(f, K)), oracle_ri(entries, K))


class TestSharedInvariants:
    @given(st.dictionaries(st.integers(0, 15), st.integers(1, 8), min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_cardinality_laws(self, k_correct):
        f, _ = make_filter(k_correct)
        K = 8
        assert len(threshold_clip(f, 4, 0)) == sum(min(k, 4) for k in k_correct.values())
        assert len(repeat_pad(f, K)) == K * len(k_correct)
        assert len(head_clip(f, K)) == sum(k for k in k_correct.values() if k < K)
        assert len(repeat_invert(f, K)) == sum(K - k for k in k_correct.values() if 0 < k < K)

    @given(st.dictionaries(st.integers(0, 15), st.integers(1, 8), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_train_entries_all_correct(self, k_correct):
        f, queries = make_filter(k_correct)
        sampler = ScriptedSampler(itertools.cycle([True, True, False]))
        outputs = [
            vanilla(f),
            threshold_clip(f, 4, 1),
            head_clip(f, 8),
            repeat_pad(f, 8),
            repeat_invert(f, 8),
            adaptive_resample(f, Corpus.of(queries.values()), sampler, 8),
            guided_resample(f, sampler, 4, 4),
        ]
        for out in outputs:
            assert out.role == ROLE_FILTER
            assert all(t.correct for _, t in oracles.entries(out))

    def test_determinism_of_transform_suite(self, hand_filter):
        f, queries = hand_filter
        corpus = list(queries.values())
        first = [
            oracles.entries(threshold_clip(f, 2, 9)),
            oracles.entries(repeat_pad(f, 8)),
            oracles.entries(
                adaptive_resample(f, Corpus.of(corpus), ScriptedSampler(itertools.cycle([True, False])), 8)
            ),
        ]
        second = [
            oracles.entries(threshold_clip(f, 2, 9)),
            oracles.entries(repeat_pad(f, 8)),
            oracles.entries(
                adaptive_resample(f, Corpus.of(corpus), ScriptedSampler(itertools.cycle([True, False])), 8)
            ),
        ]
        assert first == second


def test_rp_reduces_head_share_when_head_is_overrepresented():
    # two level-1 queries at k=8, two level-5 queries at k=1
    entries = []
    for qid, k, level in ((1, 8, 1), (2, 8, 1), (3, 1, 5), (4, 1, 5)):
        q = make_query(qid, level=level)
        entries.extend((q, make_traj(qid, j)) for j in range(1, k + 1))
    f = TrajectoryDataset.from_entries(entries, "filter")
    def head_share(ds):
        total = len(ds)
        return sum(1 for r, _ in oracles.entries(ds) if r.level == 1) / total
    assert head_share(repeat_pad(f, 8)) < head_share(vanilla(f))


def test_strategy_config_validation():
    StrategyConfig(kind="tc", L=4).validate(8)
    with pytest.raises(ValueError):
        StrategyConfig(kind="nope").validate(8)
    with pytest.raises(ValueError):
        StrategyConfig(kind="tc", L=9).validate(8)
    with pytest.raises(ValueError):
        StrategyConfig(kind="gr", L=9).validate(8)
    with pytest.raises(ValueError):
        StrategyConfig(kind="gr", S=1).validate(8)
    for kind in ("vanilla", "hc", "rp", "ri", "ar", "sc"):  # these never read L
        StrategyConfig(kind=kind, L=9).validate(8)


@pytest.mark.parametrize("name, low, call", [
    ("L", 1, lambda f, d, v: threshold_clip(f, v, seed=0)),
    ("K", 1, lambda f, d, v: head_clip(f, v)),
    ("K", 1, lambda f, d, v: repeat_pad(f, v)),
    ("K", 1, lambda f, d, v: repeat_invert(f, v)),
    ("K", 1, lambda f, d, v: adaptive_resample(f, f.corpus, ScriptedSampler(), v)),
    ("K", 1, lambda f, d, v: self_correct_augment(f, d, ScriptedSampler(), v, 0)),
    ("L", 1, lambda f, d, v: guided_resample(f, ScriptedSampler(), v, 2)),
    ("S", 2, lambda f, d, v: guided_resample(f, ScriptedSampler(), 1, v)),
    ("S", 2, lambda f, d, v: split_steps(make_traj(1, length=100), v)),
])
def test_each_bound_is_checked_below_and_past_int64(name, low, call):
    sample, _ = make_sample({1: 2, 2: 1}, K=3)
    filtered, discard = filter_dataset(sample), discard_dataset(sample)
    with pytest.raises(ValueError, match=f"^{name} must be >= {low}$"):
        call(filtered, discard, low - 1)
    with pytest.raises(ValueError, match=rf"^{name} must be < 2\*\*63$"):
        call(filtered, discard, 2**63)
