from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from headtail import harness
from headtail.core import (
    COLUMNS,
    ORIGIN_RESAMPLED_AR,
    ORIGIN_RESAMPLED_GR,
    ORIGINS,
    ROLE_DISCARD,
    ROLE_FILTER,
    ROLE_SAMPLE,
    Corpus,
    QueryRecord,
    Trajectory,
    TrajectoryDataset,
    array_mean,
    first_rows,
    merge_datasets,
    object_array,
)

from conftest import make_filter, make_query, make_sample, make_traj, over, over_one_corpus
import oracles
from oracles import entry_sort_key


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


class TestCorpus:
    def test_columns_in_id_order_and_read_only(self):
        corpus = Corpus([3, -1, 2], ["c", "a", "b"], level=[0, 5, 2])
        assert corpus.ids.tolist() == [-1, 2, 3]
        assert corpus.gt_answer.tolist() == ["a", "b", "c"]
        assert corpus.level.tolist() == [5, 2, 0]
        assert corpus.latent_difficulty.tolist() == [0.5] * 3
        with pytest.raises(ValueError):
            corpus.ids[0] = 9

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"latent_difficulty": [0.5, 1.5]}, "latent_difficulty"),
            ({"level": [6, 0]}, "level must be in"),
            ({"base_log_length": [1.0, float("inf")]}, "finite"),
            ({"ids": [4, 4]}, "unique"),
            ({"ids": [2**63, 1]}, "64-bit"),
            ({"gt_answer": ["a"]}, "differ in length"),
        ],
    )
    def test_record_checks_run_on_columns(self, fields, message):
        with pytest.raises(ValueError, match=message):
            Corpus(**{"ids": [1, 2], "gt_answer": ["a", "b"], **fields})

    def test_rows_names_an_unknown_id(self):
        corpus = Corpus([5, 1], ["a", "b"])
        assert corpus.rows([5, 1, 5]).tolist() == [1, 0, 1]
        with pytest.raises(ValueError, match="unknown query 7"):
            corpus.rows([1, 7])
        with pytest.raises(ValueError, match="unknown query 1"):
            Corpus([], []).rows([1])

    def test_records_round_trip(self):
        records = [make_query(2, level=3, latent_difficulty=0.2, base_log_length=4.0), make_query(-1)]
        assert list(oracles.records(Corpus.of(records)).values()) == [records[1], records[0]]


class TestConstructorColumns:
    REQUIRED = ("query_id", "iteration", "sample_index", "length_tokens", "correct")

    def given_columns(self):
        return {
            "query_id": np.array([2, 1, 1]),
            "iteration": 2,
            "sample_index": np.array([1, 2, 1]),
            "length_tokens": np.array([30, 20, 10]),
            "correct": np.array([True, False, True]),
        }

    def build(self, columns):
        columns = {"answer": np.array(["a2", "x", "a1"], dtype=object), **columns}
        return TrajectoryDataset(ROLE_SAMPLE, columns, Corpus.of([make_query(1), make_query(2, level=3)]))

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
        assert [t.corrected_from for _, t in oracles.entries(short)] == [None, None, None]

    @pytest.mark.parametrize("name", REQUIRED)
    def test_required_column_missing_raises(self, name):
        columns = self.given_columns()
        del columns[name]
        with pytest.raises(ValueError, match=name):
            self.build(columns)

    @pytest.mark.parametrize("name", ["level", "gt_answer", "queryid"])
    def test_unknown_column_raises(self, name):
        # a level belongs to the corpus; a dataset column of that name is an error, not dropped
        with pytest.raises(ValueError, match=f"unknown dataset columns \\['{name}'\\]"):
            self.build({**self.given_columns(), name: np.array([3, 0, 0])})


class TestCanonicalOrder:
    def test_sorted_on_build(self):
        q1, q2 = make_query(1), make_query(2)
        entries = [
            (q2, make_traj(2, 1)),
            (q1, make_traj(1, 2)),
            (q1, make_traj(1, 1)),
        ]
        ds = TrajectoryDataset.from_entries(entries, ROLE_FILTER)
        assert [(t.query_id, t.sample_index) for _, t in oracles.entries(ds)] == [(1, 1), (1, 2), (2, 1)]

    def test_origin_rank_orders_within_query(self):
        q = make_query(1)
        explored = make_traj(1, 5)
        ar = make_traj(1, 1, origin=ORIGIN_RESAMPLED_AR)
        ds = TrajectoryDataset.from_entries([(q, ar), (q, explored)], ROLE_FILTER)
        assert [t.origin for _, t in oracles.entries(ds)] == ["explored", "resampled_ar"]

    def test_iteration_before_origin(self):
        q = make_query(1)
        later = make_traj(1, 1, iteration=2)
        earlier = make_traj(1, 9, iteration=1)
        ds = TrajectoryDataset.from_entries([(q, later), (q, earlier)], ROLE_FILTER)
        assert [t.iteration for _, t in oracles.entries(ds)] == [1, 2]


class TestCountCorrect:
    """k_i, the retained correct responses per query: count_of on a filter set."""

    def test_direct_count(self):
        ds, _ = make_filter({2: 3})
        assert ds.count_of([2]).tolist() == [3]

    def test_empty_dataset(self):
        ds = TrajectoryDataset.empty(ROLE_FILTER)
        assert ds.count_of([7]).tolist() == [0]

    def test_absent_query_is_zero(self):
        ds, _ = make_filter({1: 4})
        assert ds.count_of([99, 1, 0]).tolist() == [0, 4, 0]

    def test_from_eight_sample_fixture(self):
        # brute-force count over a hand-built 8-sample fixture
        sample, _ = make_sample({1: 6}, K=8)
        correct_entries = [(r, t) for r, t in oracles.entries(sample) if t.correct]
        assert len(correct_entries) == 6
        ds = TrajectoryDataset.from_entries(correct_entries, ROLE_FILTER)
        assert ds.count_of([1]).tolist() == [6]
        assert sample.count_of([1]).tolist() == [8]  # a sample set counts every draw


class TestMergeDatasets:
    def test_cardinality_additivity(self):
        a, b = over_one_corpus(make_filter({1: 6, 2: 4})[0], make_filter({3: 4})[0])
        assert len(merge_datasets(a, b)) == 14

    def test_empty_identity_is_a_filter_set(self):
        b, _ = make_filter({1: 3})
        a = over(TrajectoryDataset.empty(ROLE_FILTER), b.corpus)
        merged = merge_datasets(a, b)
        assert merged.role == ROLE_FILTER
        assert oracles.entries(merged) == oracles.entries(b)

    def test_hand_enumerated_union(self):
        # 12-entry filter plus a 5-entry filter set of resampled rows over 3 queries
        a, queries = make_filter({1: 6, 2: 4, 3: 2})
        extra = [
            (queries[1], make_traj(1, j, origin=ORIGIN_RESAMPLED_AR)) for j in (1, 2)
        ] + [(queries[3], make_traj(3, j, origin=ORIGIN_RESAMPLED_AR)) for j in (1, 2, 3)]
        b = over(TrajectoryDataset.from_entries(extra, "filter"), a.corpus)
        merged = merge_datasets(a, b)
        assert len(merged) == 17
        qids = [t.query_id for _, t in oracles.entries(merged)]
        assert qids == sorted(qids)

    def test_equal_but_distinct_corpora_do_not_merge(self):
        # one corpus per run: equal corpus objects are still two corpora
        a, _ = make_filter({1: 2})
        b = over(a, Corpus.of(oracles.records(a.corpus).values()))
        assert a == b and a.corpus is not b.corpus
        with pytest.raises(ValueError, match="one corpus object"):
            merge_datasets(a, b)

    def test_datasets_of_one_corpus_merge_over_it(self):
        sample, _ = make_sample({1: 2, 2: 1}, K=3)
        a = sample.select([0, 1], ROLE_FILTER)
        b = sample.select([3], ROLE_FILTER)
        assert merge_datasets(a, b).corpus is sample.corpus

    def test_commutative_up_to_resort(self):
        a, b = over_one_corpus(make_filter({1: 2, 4: 1})[0], make_filter({2: 3})[0])
        assert oracles.entries(merge_datasets(a, b)) == oracles.entries(merge_datasets(b, a))


@given(
    st.dictionaries(st.integers(0, 30), st.integers(0, 8), min_size=1, max_size=20),
)
def test_filter_counts_sum_to_size(k_correct):
    k_correct = {q: k for q, k in k_correct.items() if k > 0}
    ds, _ = make_filter(k_correct)
    counts = ds.count_of(list(k_correct))
    assert counts.sum() == len(ds)
    assert all(0 <= c <= 8 for c in counts.tolist())


@st.composite
def pair_lists(draw):
    """(QueryRecord, Trajectory) pairs over up to 6 queries, leveled or not, any order."""
    qids = draw(st.lists(st.integers(-5, 20), min_size=1, max_size=6, unique=True))
    records = {q: make_query(q, level=draw(st.one_of(st.none(), st.integers(1, 5)))) for q in qids}
    rows = draw(st.lists(st.tuples(st.sampled_from(qids), st.integers(1, 4)), max_size=25))
    return [(records[q], make_traj(q, k)) for q, k in rows]


@given(pair_lists(), st.lists(st.integers(-8, 24), max_size=12))
@settings(max_examples=200)
def test_count_of_matches_counter(pairs, asked):
    # absent, negative and repeated ids, and the empty dataset, against a
    # Counter over the entries
    ds = TrajectoryDataset.from_entries(pairs, ROLE_FILTER)
    counter = Counter(t.query_id for _, t in oracles.entries(ds))
    assert ds.count_of(asked).tolist() == [counter[q] for q in asked]
    assert ds.row_counts().tolist() == [counter[t.query_id] for _, t in oracles.entries(ds)]


@given(pair_lists(), st.data())
@settings(max_examples=200)
def test_levels_match_corpus_records(pairs, data):
    ds = TrajectoryDataset.from_entries(pairs, ROLE_FILTER)
    assert ds.levels().tolist() == [r.level or 0 for r, _ in sorted(pairs, key=entry_sort_key)]
    # a subset of the rows keeps the whole corpus, so its queries sit at other corpus rows
    keep = data.draw(st.lists(st.booleans(), min_size=len(ds), max_size=len(ds)))
    records = oracles.records(ds.corpus)
    for part in (ds, ds.select(np.flatnonzero(keep), ROLE_FILTER)):
        assert part.levels().tolist() == [records[t.query_id].level or 0 for _, t in oracles.entries(part)]
        assert part.gt_answers().tolist() == [records[t.query_id].gt_answer for _, t in oracles.entries(part)]


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

    a, b = over_one_corpus(build(pairs_a), build(pairs_b))
    assert oracles.entries(merge_datasets(a, b)) == oracles.entries(merge_datasets(b, a))


def test_sort_key_total_on_duplicates():
    q = make_query(1)
    t = make_traj(1, 1)
    ds = TrajectoryDataset.from_entries([(q, t), (q, t)], ROLE_FILTER)
    assert len(ds) == 2
    first, second = oracles.entries(ds)
    assert entry_sort_key(first) == entry_sort_key(second)


@st.composite
def keyed_pairs(draw):
    """Sample pairs over up to 4 queries that differ in every sort-key field
    and in fields outside the key (length, answer, correct), any order."""
    qids = draw(st.lists(st.integers(-3, 9), min_size=1, max_size=4, unique=True))
    records = {q: make_query(q, level=draw(st.one_of(st.none(), st.integers(1, 5)))) for q in qids}
    pairs = []
    for _ in range(draw(st.integers(0, 20))):
        q, origin = draw(st.sampled_from(qids)), draw(st.sampled_from(ORIGINS))
        pairs.append((records[q], make_traj(
            q, draw(st.integers(1, 3)), correct=draw(st.booleans()), length=draw(st.integers(2, 9)),
            iteration=draw(st.integers(1, 3)), origin=origin,
            prefix_steps=draw(st.integers(0, 2)) if origin == ORIGIN_RESAMPLED_GR else 0,
            corrected_from=draw(st.sampled_from((None, 1, 2))),
        )))
    return pairs


def _snapshot(ds):
    return "".join(harness._snapshot_chunks(ds))


@given(keyed_pairs(), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_constructor_sorts_rows_given_in_any_order(pairs, random):
    ds = TrajectoryDataset.from_entries(pairs, ROLE_SAMPLE)
    order = list(range(len(ds)))
    random.shuffle(order)
    shuffled = TrajectoryDataset(ROLE_SAMPLE, {name: col[order] for name, col in ds.columns.items()}, ds.corpus)
    reference = TrajectoryDataset.from_entries(
        sorted(map(oracles.entries(ds).__getitem__, order), key=entry_sort_key), ROLE_SAMPLE
    )
    assert shuffled == reference
    assert shuffled.answers.tolist() == reference.answers.tolist()
    canonical = TrajectoryDataset(ROLE_SAMPLE, dict(reference.columns), reference.corpus)
    assert _snapshot(shuffled) == _snapshot(canonical)


@given(keyed_pairs(), st.data())
@settings(max_examples=150)
def test_select_puts_any_rows_in_canonical_order(pairs, data):
    ds = TrajectoryDataset.from_entries(pairs, ROLE_SAMPLE)
    rows = data.draw(st.lists(st.integers(0, max(len(ds) - 1, 0)), max_size=2 * len(ds))) if len(ds) else []
    picked = ds.select(rows, ROLE_SAMPLE)
    assert oracles.entries(picked) == tuple(sorted(map(oracles.entries(ds).__getitem__, rows), key=entry_sort_key))


def test_select_sorts_descending_and_repeated_rows():
    ds, _ = make_sample({1: 2, 2: 1}, K=3)
    picked = ds.select([5, 4, 0, 3, 0, 1], ROLE_SAMPLE)
    reference = sorted(map(oracles.entries(ds).__getitem__, (5, 4, 0, 3, 0, 1)), key=entry_sort_key)
    assert oracles.entries(picked) == tuple(reference)
    assert [(t.query_id, t.sample_index) for _, t in reference] == [(1, 1), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3)]


class TestAnswerColumn:
    def test_answers_are_the_read_only_answer_column(self, hand_sample):
        sample, _ = hand_sample
        assert sample.answers is sample.columns["answer"]
        assert sample.answers.dtype == object
        with pytest.raises(ValueError):
            sample.answers[0] = "changed"
        with pytest.raises(AttributeError):
            sample.answers = sample.answers.copy()

    def test_a_snapshot_read_has_empty_answers(self, hand_sample, tmp_path):
        sample, _ = hand_sample
        kept = sample.select(np.flatnonzero(sample.columns["correct"]), ROLE_FILTER)
        path = tmp_path / "filter.jsonl"
        path.write_text(_snapshot(kept), encoding="utf-8")
        read = harness.read_snapshot(path)
        assert read.answers.tolist() == [""] * len(kept)
        assert not read.answers.flags.writeable
        assert read.role == ROLE_FILTER
        assert read.columns["query_id"].tolist() == kept.columns["query_id"].tolist()

    def test_columns_of_scalars_alone_make_one_row(self):
        ds = TrajectoryDataset(ROLE_SAMPLE, {"query_id": 1, "iteration": 1, "sample_index": 1,
                                             "length_tokens": 5, "correct": False}, Corpus.of([make_query(1)]))
        assert [t for _, t in oracles.entries(ds)] == [Trajectory(1, 1, 1, 5, "", False)]


@st.composite
def near_pairs(draw):
    """Two datasets that are equal or miss by one thing: b holds a's pairs,
    rebuilt over a corpus of its own, with one of its query's corpus
    fields, one row's answer or correction link, or its role changed (to a
    value that may equal the old one); or b is a over a corpus with one
    more query, or a selected over a's own corpus."""
    field_values = {
        "gt_answer": st.sampled_from(["a", "b"]), "level": st.sampled_from([None, 1, 2]),
        "latent_difficulty": st.sampled_from([0.0, -0.0, 0.5]), "base_log_length": st.sampled_from([0.0, -0.0, 1.5]),
    }
    qids = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
    records = {q: QueryRecord(q, **{name: draw(values) for name, values in field_values.items()}) for q in qids}
    correct = draw(st.sampled_from([True, False, None]))  # None: each row draws its own
    pairs = []
    for _ in range(draw(st.integers(0, 5))):
        q, origin = draw(st.sampled_from(qids)), draw(st.sampled_from(ORIGINS))
        pairs.append((records[q], make_traj(
            q, draw(st.integers(1, 2)), correct=draw(st.booleans()) if correct is None else correct,
            iteration=draw(st.integers(1, 2)), origin=origin,
            prefix_steps=draw(st.integers(0, 1)) if origin == ORIGIN_RESAMPLED_GR else 0,
            corrected_from=draw(st.sampled_from((None, 1, 2))),
        )))
    flags = {t.correct for _, t in pairs}
    roles = [ROLE_SAMPLE] + [role for role, flag in ((ROLE_FILTER, True), (ROLE_DISCARD, False)) if flags <= {flag}]
    a = TrajectoryDataset.from_entries(pairs, draw(st.sampled_from(roles)))
    change = draw(st.sampled_from(["none", "corpus", "answer", "corrected_from", "role", "wider", "select"]))
    if change == "wider":
        return a, over(a, Corpus.of([*oracles.records(a.corpus).values(), make_query(9)]))
    if change == "select":
        return a, a.select(np.arange(len(a)), a.role)
    role = draw(st.sampled_from(roles)) if change == "role" else a.role
    if change == "corpus":
        q, name = draw(st.sampled_from(qids)), draw(st.sampled_from(sorted(field_values)))
        record = replace(records[q], **{name: draw(field_values[name])})
        pairs = [(record if r.id == q else r, t) for r, t in pairs]
    elif change in ("answer", "corrected_from") and pairs:
        i = draw(st.integers(0, len(pairs) - 1))
        r, t = pairs[i]
        if change == "answer":
            t = replace(t, extracted_answer=draw(st.sampled_from(["", "x", t.extracted_answer + "y"])))
        else:
            t = replace(t, corrected_from=draw(st.sampled_from((None, 1, 2))))
        pairs = pairs[:i] + [(r, t)] + pairs[i + 1:]
    return a, TrajectoryDataset.from_entries(pairs, role)


@given(near_pairs())
@settings(max_examples=400)
def test_equality_is_equality_of_role_and_pairs(pair):
    a, b = pair
    expected = a.role == b.role and oracles.entries(a) == oracles.entries(b)
    assert (a == b) is expected and (b == a) is expected and (a != b) is not expected


def test_equality_edge_cases():
    q = make_query(1, base_log_length=0.0)
    ds = TrajectoryDataset.from_entries([(q, make_traj(1))], ROLE_FILTER)
    signed = TrajectoryDataset.from_entries([(replace(q, base_log_length=-0.0), make_traj(1))], ROLE_FILTER)
    leveled = TrajectoryDataset.from_entries([(replace(q, level=1), make_traj(1))], ROLE_FILTER)
    assert ds == signed and ds != leveled
    assert ds.__eq__(oracles.entries(ds)) is NotImplemented and ds != oracles.entries(ds)
    with pytest.raises(TypeError):
        hash(ds)


class TestDerivedDatasets:
    """select and merge_datasets re-check only the role invariant."""

    def test_every_derived_dataset_of_each_kind_passes_the_full_check(self, monkeypatch):
        from headtail import core, harness
        from headtail.strategies import KINDS, StrategyConfig

        made = []
        derived = TrajectoryDataset._derived

        def recorded(*args, **kwargs):
            made.append(derived(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(TrajectoryDataset, "_derived", recorded)
        for kind in KINDS:
            config = harness.RunConfig(n_queries=12, k_samples=4, iterations=2, calibration_shots=8,
                                       strategy=StrategyConfig(kind=kind, L=2, S=2))
            harness.run(config)
        assert len(made) > 0
        for ds in made:
            columns = dict(ds.columns)
            assert set(columns) == set(COLUMNS)
            assert all(len(col) == len(ds) and not col.flags.writeable for col in columns.values())
            core._check_columns(ds.role, columns)
            ds.corpus.rows(ds.columns["query_id"])  # every query is in the corpus

    def test_role_violations_still_raise(self, hand_sample):
        sample, _ = hand_sample
        wrong = np.flatnonzero(~sample.columns["correct"])
        right = np.flatnonzero(sample.columns["correct"])
        filtered = sample.select(right, ROLE_FILTER)
        discard = sample.select(wrong, "discard")
        for make in (
            lambda: sample.select(wrong, ROLE_FILTER),
            lambda: sample.select(right, "discard"),
            lambda: sample.select(right, ROLE_FILTER, correct=False),  # checked after the overwrite
            lambda: sample.select(wrong, "discard", correct=True),
            lambda: merge_datasets(filtered, discard),
            lambda: merge_datasets(discard, discard),
        ):
            with pytest.raises(ValueError, match="may only contain"):
                make()
        with pytest.raises(ValueError, match="unknown dataset role"):
            sample.select(right, "bogus")
        assert len(sample.select(wrong, ROLE_FILTER, correct=True)) == len(wrong)
        assert sample.select(right, "discard", correct=False).columns["correct"].sum() == 0

    def test_columns_cannot_be_swapped(self, hand_filter):
        filtered, _ = hand_filter
        with pytest.raises(TypeError):
            filtered.columns["correct"] = np.zeros(len(filtered), dtype=bool)


def _fresh(ds):
    """The same rows built by the checking constructor, with nothing cached."""
    return TrajectoryDataset(ds.role, dict(ds.columns), ds.corpus)


def _facts(ds):
    return [x.tolist() for x in (*ds.query_runs(), ds.levels(), ds.gt_answers())]


def _facts_by_hand(ds):
    """The same facts from the rows' query ids and the corpus records, one row at a time."""
    qids, records = ds.columns["query_id"].tolist(), oracles.records(ds.corpus)
    starts = [i for i, q in enumerate(qids) if i == 0 or q != qids[i - 1]]
    counts = [b - a for a, b in zip(starts, starts[1:] + [len(qids)])]
    levels = [records[q].level or 0 for q in qids]
    return [[qids[i] for i in starts], starts, counts, levels, [records[q].gt_answer for q in qids]]


@given(pair_lists(), st.data(), st.booleans())
@settings(max_examples=100)
def test_cached_query_facts_equal_a_fresh_computation(pairs, data, parent_first):
    ds = TrajectoryDataset.from_entries(pairs, ROLE_FILTER)
    if parent_first:  # fill the parent's cache before its derived sets are made
        ds.levels()
    rows = sorted(data.draw(st.lists(st.integers(0, max(len(ds) - 1, 0)), max_size=len(ds) * 2)))
    picked = ds.select(rows if len(ds) else [], ROLE_FILTER)
    for part in (ds, picked, merge_datasets(ds, picked)):
        assert _facts(part) == _facts(_fresh(part)) == _facts_by_hand(part)


@given(st.one_of(
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.floats(width=64), min_size=1, max_size=40).map(lambda v: np.array(v, dtype=np.float64)),
    st.lists(st.booleans(), min_size=1, max_size=40).map(lambda v: np.array(v, dtype=bool)),
))
@settings(max_examples=300)
def test_array_mean_is_np_mean_bit_for_bit(values):
    with np.errstate(over="ignore", invalid="ignore"):  # floats near the limit sum to inf or nan in both
        assert repr(array_mean(values)) == repr(float(np.mean(values)))


@pytest.mark.parametrize("make", [
    lambda g, n: g.integers(-(2**62), 2**62, n),
    lambda g, n: g.integers(1, 3000, n),
    lambda g, n: g.lognormal(5.0, 4.0, n),
    lambda g, n: g.random(n) < 0.3,
])
def test_array_mean_is_np_mean_on_long_arrays(make):
    # past numpy's 8192-element reduction buffer, where the summation order could show
    g = np.random.default_rng(0)
    for n in (8191, 8193, 40_000):
        values = make(g, n)
        assert repr(array_mean(values)) == repr(float(np.mean(values)))


@given(st.data())
@settings(max_examples=300)
def test_first_rows_matches_a_per_row_dict(data):
    ids = data.draw(st.lists(st.sampled_from([-(2**63), -1, 0, 1, 2, 7, 2**63 - 1]), max_size=30))
    # a level and a ground truth per row: as the id's own, or drawn freely (often a conflict)
    free = st.tuples(st.integers(0, 5), st.sampled_from("ab"))
    own = {i: data.draw(free) for i in sorted(set(ids))}
    rows = [own[i] if data.draw(st.booleans()) else data.draw(free) for i in ids]
    levels = np.array([lv for lv, _ in rows], dtype=np.int64)
    gts = object_array(gt for _, gt in rows)
    first, count, conflict = {}, Counter(), None
    for row, (i, values) in enumerate(zip(ids, rows)):
        count[i] += 1
        first.setdefault(i, values)
        if conflict is None and values != first[i]:
            conflict = row
    distinct = sorted(first)

    order, counts, (got_ids, got_levels, got_gts), got_conflict = first_rows(np.asarray(ids, np.int64), levels, gts)
    assert order.tolist() == sorted(range(len(ids)), key=ids.__getitem__)  # sorted() is stable
    assert counts.tolist() == [count[i] for i in distinct]
    assert got_ids.tolist() == distinct
    assert list(zip(got_levels.tolist(), got_gts.tolist())) == [first[i] for i in distinct]
    assert got_conflict == conflict
