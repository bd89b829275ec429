import numpy as np
import pytest
from hypothesis import given, strategies as st

from headtail.core import (
    COLUMNS,
    ORIGIN_RESAMPLED_AR,
    ROLE_FILTER,
    ROLE_SAMPLE,
    ROLE_TRAIN,
    CorpusMismatchError,
    QueryRecord,
    Trajectory,
    TrajectoryDataset,
    entry_sort_key,
    merge_datasets,
)

from conftest import make_filter, make_query, make_sample, make_traj


class TestTypes:
    def test_query_validation(self):
        with pytest.raises(ValueError):
            QueryRecord(id=1, gt_answer="x", latent_difficulty=1.5)
        with pytest.raises(ValueError):
            QueryRecord(id=1, gt_answer="x", level=6)

    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            make_traj(1, k=0)
        with pytest.raises(ValueError):
            Trajectory(1, 1, 1, 10, "x", True, prefix_tokens=11)
        with pytest.raises(ValueError):
            Trajectory(1, 1, 1, 10, "x", True, prefix_steps=2)  # not a guided resample

    def test_role_invariants(self):
        q = make_query(1)
        wrong = make_traj(1, correct=False)
        with pytest.raises(ValueError):
            TrajectoryDataset.from_entries([(q, wrong)], ROLE_FILTER)
        with pytest.raises(ValueError):
            TrajectoryDataset.from_entries([(q, make_traj(1))], "discard")

    def test_mismatched_record_and_trajectory(self):
        with pytest.raises(ValueError):
            TrajectoryDataset.from_entries([(make_query(1), make_traj(2))], ROLE_FILTER)


class TestConstructorColumns:
    REQUIRED = ("query_id", "level", "iteration", "sample_index", "length_tokens", "correct")

    def given_columns(self):
        return {
            "query_id": np.array([2, 1, 1]),
            "level": np.array([3, 0, 0]),
            "iteration": 2,
            "sample_index": np.array([1, 2, 1]),
            "length_tokens": np.array([30, 20, 10]),
            "correct": np.array([True, False, True]),
        }

    def build(self, columns):
        answers = np.array(["a2", "x", "a1"], dtype=object)
        records = {1: make_query(1), 2: make_query(2, level=3)}
        return TrajectoryDataset(ROLE_SAMPLE, columns, answers, records)

    def test_unset_columns_equal_explicit_unset_arrays(self):
        explicit = {
            **self.given_columns(),
            "iteration": np.full(3, 2),
            "origin": np.zeros(3, dtype=np.int64),
            "prefix_steps": np.zeros(3, dtype=np.int64),
            "prefix_tokens": np.zeros(3, dtype=np.int64),
            "corrected_from": np.full(3, -1),
        }
        short, full = self.build(self.given_columns()), self.build(explicit)
        assert short == full
        for name in COLUMNS:
            assert short.columns[name].tolist() == full.columns[name].tolist(), name
            assert short.columns[name].dtype == full.columns[name].dtype, name
            assert not short.columns[name].flags.writeable
        assert [t.corrected_from for _, t in short] == [None, None, None]

    @pytest.mark.parametrize("name", REQUIRED)
    def test_required_column_missing_raises(self, name):
        columns = self.given_columns()
        del columns[name]
        with pytest.raises(ValueError, match=name):
            self.build(columns)


class TestCanonicalOrder:
    def test_sorted_on_build(self):
        q1, q2 = make_query(1), make_query(2)
        entries = [
            (q2, make_traj(2, 1)),
            (q1, make_traj(1, 2)),
            (q1, make_traj(1, 1)),
        ]
        ds = TrajectoryDataset.from_entries(entries, ROLE_FILTER)
        assert [(t.query_id, t.sample_index) for _, t in ds] == [(1, 1), (1, 2), (2, 1)]

    def test_origin_rank_orders_within_query(self):
        q = make_query(1)
        explored = make_traj(1, 5)
        ar = make_traj(1, 1, origin=ORIGIN_RESAMPLED_AR)
        ds = TrajectoryDataset.from_entries([(q, ar), (q, explored)], ROLE_FILTER)
        assert [t.origin for _, t in ds] == ["explored", "resampled_ar"]

    def test_iteration_before_origin(self):
        q = make_query(1)
        later = make_traj(1, 1, iteration=2)
        earlier = make_traj(1, 9, iteration=1)
        ds = TrajectoryDataset.from_entries([(q, later), (q, earlier)], ROLE_FILTER)
        assert [t.iteration for _, t in ds] == [1, 2]


class TestCountCorrect:
    """k_i, the retained correct responses per query: counts_by_query of a filter set."""

    def test_direct_count(self):
        ds, _ = make_filter({2: 3})
        assert ds.counts_by_query() == {2: 3}

    def test_empty_dataset(self):
        ds = TrajectoryDataset.empty(ROLE_FILTER)
        assert ds.counts_by_query().get(7, 0) == 0

    def test_absent_query_is_zero(self):
        ds, _ = make_filter({1: 4})
        assert ds.counts_by_query().get(99, 0) == 0

    def test_from_eight_sample_fixture(self):
        # brute-force count over a hand-built 8-sample fixture
        sample, _ = make_sample({1: 6}, K=8)
        correct_entries = [(r, t) for r, t in sample if t.correct]
        assert len(correct_entries) == 6
        ds = TrajectoryDataset.from_entries(correct_entries, ROLE_FILTER)
        assert ds.counts_by_query() == {1: 6}
        assert sample.counts_by_query() == {1: 8}  # a sample set counts every draw


class TestMergeDatasets:
    def test_cardinality_additivity(self):
        a, _ = make_filter({1: 6, 2: 4})
        b, _ = make_filter({3: 4})
        assert len(merge_datasets(a, b)) == 14

    def test_empty_identity_retags_train(self):
        a = TrajectoryDataset.empty(ROLE_FILTER)
        b, _ = make_filter({1: 3})
        merged = merge_datasets(a, b)
        assert merged.role == ROLE_TRAIN
        assert merged.entries == b.entries

    def test_hand_enumerated_union(self):
        # 12-entry filter plus a 5-entry refiltered set over 3 queries
        a, queries = make_filter({1: 6, 2: 4, 3: 2})
        extra = [
            (queries[1], make_traj(1, j, origin=ORIGIN_RESAMPLED_AR)) for j in (1, 2)
        ] + [(queries[3], make_traj(3, j, origin=ORIGIN_RESAMPLED_AR)) for j in (1, 2, 3)]
        b = TrajectoryDataset.from_entries(extra, "refilter")
        merged = merge_datasets(a, b)
        assert len(merged) == 17
        qids = [t.query_id for _, t in merged]
        assert qids == sorted(qids)

    def test_corpus_mismatch(self):
        a = TrajectoryDataset.from_entries([(make_query(1, gt="x"), make_traj(1, gt="x"))], ROLE_FILTER)
        b = TrajectoryDataset.from_entries([(make_query(1, gt="y"), make_traj(1, gt="y"))], ROLE_FILTER)
        with pytest.raises(CorpusMismatchError, match="corpus mismatch"):
            merge_datasets(a, b)

    def test_commutative_up_to_resort(self):
        a, _ = make_filter({1: 2, 4: 1})
        b, _ = make_filter({2: 3})
        assert merge_datasets(a, b).entries == merge_datasets(b, a).entries


@given(
    st.dictionaries(st.integers(0, 30), st.integers(0, 8), min_size=1, max_size=20),
)
def test_filter_counts_sum_to_size(k_correct):
    k_correct = {q: k for q, k in k_correct.items() if k > 0}
    ds, _ = make_filter(k_correct)
    counts = ds.counts_by_query()
    total = sum(counts.get(qid, 0) for qid in k_correct)
    assert total == len(ds)
    assert all(0 <= counts.get(qid, 0) <= 8 for qid in k_correct)


@given(
    st.lists(st.tuples(st.integers(0, 10), st.integers(1, 3)), min_size=0, max_size=8),
    st.lists(st.tuples(st.integers(0, 10), st.integers(1, 3)), min_size=0, max_size=8),
)
def test_merge_associative_commutative(pairs_a, pairs_b):
    def build(pairs):
        seen = {}
        entries = []
        for qid, count in pairs:
            q = seen.setdefault(qid, make_query(qid))
            start = sum(1 for _, t in entries if t.query_id == qid)
            entries.extend((q, make_traj(qid, start + j)) for j in range(1, count + 1))
        return TrajectoryDataset.from_entries(entries, ROLE_FILTER)

    a, b = build(pairs_a), build(pairs_b)
    assert merge_datasets(a, b).entries == merge_datasets(b, a).entries


def test_sort_key_total_on_duplicates():
    q = make_query(1)
    t = make_traj(1, 1)
    ds = TrajectoryDataset.from_entries([(q, t), (q, t)], ROLE_FILTER)
    assert len(ds) == 2
    assert entry_sort_key(ds.entries[0]) == entry_sort_key(ds.entries[1])
