"""Property tests of the columnar dataset core against scalar references.

The references work on (QueryRecord, Trajectory) objects only: the metrics
row against ``oracles.oracle_build_row``, snapshot lines against
``json.dumps`` of each entry, merging against ``sorted`` on
``entry_sort_key``, reshaping against ``oracles``.  A dataset keeps no
pairs it was built from: its entries are always built from the columns.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from headtail import harness
from headtail.core import (
    ORIGIN_CORRECTED,
    ORIGIN_RESAMPLED_GR,
    ORIGINS,
    ROLE_FILTER,
    ROLE_SAMPLE,
    QueryRecord,
    Trajectory,
    TrajectoryDataset,
    merge_datasets,
)
from headtail.metrics import build_row
from headtail.strategies import head_clip, repeat_invert, repeat_pad, threshold_clip

import oracles
from oracles import entry_sort_key, oracle_build_row, oracle_hc, oracle_ri, oracle_rp, oracle_tc, snapshot_entry


@st.composite
def corpora(draw, leveled=None):
    """Query id -> record; levels drawn per query (None allowed unless leveled)."""
    level = st.integers(1, 5) if leveled else st.one_of(st.none(), st.integers(1, 5))
    qids = draw(st.lists(st.integers(-3, 40), min_size=1, max_size=6, unique=True))
    return {q: QueryRecord(id=q, gt_answer=f"a{q}", level=draw(level)) for q in qids}


@st.composite
def trajectories(draw, qid, correct=None):
    origin = draw(st.sampled_from(ORIGINS))
    length = draw(st.integers(0, 3000))
    return Trajectory(
        query_id=qid,
        sample_index=draw(st.integers(1, 4)),
        iteration=draw(st.integers(1, 3)),
        length_tokens=length,
        extracted_answer=draw(st.sampled_from(["", f"a{qid}", "x", "wrong-1-2"])),
        correct=draw(st.booleans()) if correct is None else correct,
        origin=origin,
        prefix_steps=draw(st.integers(0, 3)) if origin == ORIGIN_RESAMPLED_GR else 0,
        prefix_tokens=draw(st.integers(0, length)),
        corrected_from=draw(st.one_of(st.none(), st.integers(1, 4))) if origin == ORIGIN_CORRECTED else None,
    )


@st.composite
def entry_lists(draw, records, correct=None, max_size=30):
    qids = draw(st.lists(st.sampled_from(sorted(records)), max_size=max_size))
    return [(records[q], draw(trajectories(q, correct))) for q in qids]


@st.composite
def datasets(draw, role=ROLE_SAMPLE, leveled=None):
    records = draw(corpora(leveled))
    correct = True if role == ROLE_FILTER else None
    return TrajectoryDataset.from_entries(draw(entry_lists(records, correct)), role)


@given(st.data(), st.integers(1, 8), st.booleans())
@settings(max_examples=200, deadline=None)
def test_build_row_matches_oracle(data, K, leveled):
    ds = data.draw(datasets(leveled=leveled or None))
    # a filter set holding 0..2K rows of each query of ds, and of one query outside its corpus
    records = {**oracles.records(ds.corpus), 99: QueryRecord(id=99, gt_answer="a99")}
    k_counts = {q: data.draw(st.integers(0, 2 * K)) for q in records}
    pairs = [(r, Trajectory(q, j, 1, 10, r.gt_answer, True)) for q, r in records.items()
             for j in range(1, k_counts[q] + 1)]
    filtered = TrajectoryDataset.from_entries(pairs, ROLE_FILTER)
    total, shares, buckets, mean, level_means = oracle_build_row(list(oracles.entries(ds)), K, k_counts)
    row = build_row(3, ROLE_SAMPLE, ds, K, filtered)
    assert row.total == total
    assert row.level_share == shares
    assert row.bucket_share == buckets  # exact: the same sequential sums
    assert row.mean_length == mean
    assert row.level_mean_length == level_means


def test_bucket_shares_are_sequential_sums():
    # 1/7 added seven times is not 1.0; the row keeps the sequential sum
    records = {1: QueryRecord(id=1, gt_answer="a1", level=1)}
    entries = [(records[1], Trajectory(1, j, 1, 10, "a1", True)) for j in range(1, 8)]
    ds = TrajectoryDataset.from_entries(entries, ROLE_FILTER)
    row = build_row(1, ROLE_FILTER, ds, 8, ds)
    expected = 0.0
    for _ in range(7):
        expected += 1.0 / 7
    assert row.bucket_share == (0.0, 0.0, 0.0, expected)
    assert expected != 1.0


@given(datasets(), st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_snapshot_lines_equal_json_dumps(ds, chunk):
    expected = "".join(json.dumps(snapshot_entry(r, t), sort_keys=True) + "\n" for r, t in oracles.entries(ds))
    real = harness._SNAPSHOT_CHUNK
    harness._SNAPSHOT_CHUNK = chunk  # several chunks per dataset
    try:
        assert "".join(harness._snapshot_chunks(ds)) == expected
    finally:
        harness._SNAPSHOT_CHUNK = real


def test_snapshot_lines_cover_every_origin_and_unset_level(tmp_path):
    records = {1: QueryRecord(id=1, gt_answer="a1"), 2: QueryRecord(id=2, gt_answer="a2", level=5)}
    entries = [
        (records[1], Trajectory(1, 1, 1, 40, "a1", True)),
        (records[1], Trajectory(1, 2, 1, 40, "x", False, origin=ORIGINS[1])),
        (records[2], Trajectory(2, 1, 2, 40, "a2", True, origin=ORIGINS[2], prefix_steps=3,
                                prefix_tokens=30)),
        (records[2], Trajectory(2, 1, 2, 9, "a2", True, origin=ORIGINS[3], corrected_from=1)),
    ]
    ds = TrajectoryDataset.from_entries(entries, ROLE_SAMPLE)
    path = tmp_path / "snap.jsonl"
    harness.write_atomic(path, harness._snapshot_chunks(ds))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == [json.dumps(snapshot_entry(r, t), sort_keys=True) for r, t in entries]
    assert '"level": null' in lines[0] and '"prefix_steps": 3' in lines[2]


def snapshot_text(ds):
    """The reference encoding of ``ds``'s snapshot: ``json.dumps`` of each pair."""
    return "".join(json.dumps(snapshot_entry(r, t), sort_keys=True) + "\n" for r, t in oracles.entries(ds))


def dataset_of_rows(n):
    """A sample dataset of ``n`` rows over a few queries, every origin among them."""
    records = {q: QueryRecord(id=q, gt_answer=f"a{q}", level=q % 6 or None) for q in range(7)}
    entries = [
        (records[i % 7], Trajectory(i % 7, i // 7 + 1, i % 3 + 1, 17 * i, "x", i % 2 == 0,
                                    origin=ORIGINS[i % 4], prefix_steps=i % 5 if i % 4 == 2 else 0))
        for i in range(n)
    ]
    return TrajectoryDataset.from_entries(entries, ROLE_SAMPLE)


@pytest.mark.parametrize("qid", [-(2**63), -1, 2**63 - 1])
def test_snapshot_line_of_extreme_query_id(qid):
    record = QueryRecord(id=qid, gt_answer="a", level=3)
    ds = TrajectoryDataset.from_entries([(record, Trajectory(qid, 1, 1, 40, "a", True))], ROLE_SAMPLE)
    assert "".join(harness._snapshot_chunks(ds)) == snapshot_text(ds)


@pytest.mark.parametrize("value", [1023, 1024, 2**63 - 1])
def test_snapshot_lines_of_large_length_and_sample_index(value):
    record = QueryRecord(id=1, gt_answer="a")
    entries = [
        (record, Trajectory(1, 1, 1, value, "a", True)),
        (record, Trajectory(1, value, 1, 40, "a", False)),
    ]
    ds = TrajectoryDataset.from_entries(entries, ROLE_SAMPLE)
    assert "".join(harness._snapshot_chunks(ds)) == snapshot_text(ds)


@pytest.mark.parametrize("value", [1023, 1024, 2**63 - 1])
def test_snapshot_lines_of_large_iteration_and_prefix_steps(value):
    # both reach a line through a formatted template, not a decimal table
    record = QueryRecord(id=1, gt_answer="a", level=4)
    entries = [
        (record, Trajectory(1, 1, value, 40, "a", True)),
        (record, Trajectory(1, 2, value, 40, "x", False)),
        (record, Trajectory(1, 1, 1, 40, "a", True, origin=ORIGIN_RESAMPLED_GR, prefix_steps=value)),
        (record, Trajectory(1, 2, 1, 40, "a", True, origin=ORIGIN_RESAMPLED_GR, prefix_steps=value)),
    ]
    ds = TrajectoryDataset.from_entries(entries, ROLE_SAMPLE)
    assert "".join(harness._snapshot_chunks(ds)) == snapshot_text(ds)


def test_snapshot_lines_of_a_query_at_several_iterations_and_origins():
    # the query's rows split into stretches of equal origin and prefix_steps,
    # interleaved with other iterations' rows
    record = QueryRecord(id=7, gt_answer="a", level=2)
    entries = [
        (record, Trajectory(7, s, it, 10 * s + it, "a", s % 2 == 1, origin=origin, prefix_steps=steps,
                            corrected_from=1 if origin == ORIGIN_CORRECTED else None))
        for it in (1, 2, 3)
        for origin, steps in ((ORIGINS[0], 0), (ORIGINS[1], 0), (ORIGIN_RESAMPLED_GR, 1),
                              (ORIGIN_RESAMPLED_GR, 2), (ORIGIN_CORRECTED, 0))
        for s in (1, 2)
    ]
    other = QueryRecord(id=8, gt_answer="b")
    entries += [(other, Trajectory(8, 1, it, 5, "b", False)) for it in (1, 3)]
    ds = TrajectoryDataset.from_entries(entries, ROLE_SAMPLE)
    assert "".join(harness._snapshot_chunks(ds)) == snapshot_text(ds)


@pytest.mark.parametrize("extra", [0, 1])
def test_snapshot_lines_at_the_chunk_boundary(extra):
    ds = dataset_of_rows(harness._SNAPSHOT_CHUNK + extra)
    assert "".join(harness._snapshot_chunks(ds)) == snapshot_text(ds)


def test_snapshot_of_empty_dataset_is_no_chunk():
    assert list(harness._snapshot_chunks(TrajectoryDataset.from_entries([], ROLE_SAMPLE))) == []


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 3 * 1024 + 5])
def test_snapshot_chunks_hold_at_most_a_chunk_of_lines(n):
    # a write holds one chunk of the file at a time, never the whole file
    chunk = harness._SNAPSHOT_CHUNK
    chunks = list(harness._snapshot_chunks(dataset_of_rows(n)))
    assert len(chunks) == -(-n // chunk)
    assert all(0 < text.count("\n") <= chunk for text in chunks)
    assert sum(text.count("\n") for text in chunks) == n


@given(datasets(role=ROLE_FILTER), datasets())
@settings(max_examples=50, deadline=None)
def test_snapshot_round_trip_through_emit_report(filtered, train):
    train = TrajectoryDataset.from_entries(
        [(r, replace(t, correct=True)) for r, t in oracles.entries(train)], ROLE_FILTER
    )
    report = harness.RunReport(config=harness.RunConfig().to_dict(), final_filter=filtered, final_train=train)
    with tempfile.TemporaryDirectory() as tmp:
        harness.emit_report(report, tmp)
        for name, ds in (("filter_final", filtered), ("train_final", train)):
            decoded = harness.read_snapshot(Path(tmp, "datasets", f"{name}.jsonl"), ds.role)
            assert [snapshot_entry(r, t) for r, t in oracles.entries(decoded)] == [
                snapshot_entry(r, t) for r, t in oracles.entries(ds)
            ]
            assert not decoded.columns["prefix_tokens"].any()
            assert (decoded.columns["corrected_from"] == -1).all()


@given(st.data(), st.sampled_from((ROLE_SAMPLE, ROLE_FILTER)))
@settings(max_examples=200, deadline=None)
def test_from_entries_round_trip(data, role):
    # every field of every pair survives packing into columns and back
    records = data.draw(corpora())
    entries = data.draw(entry_lists(records, correct=True if role == ROLE_FILTER else None))
    ds = TrajectoryDataset.from_entries(entries, role)
    assert oracles.entries(ds) == tuple(sorted(entries, key=entry_sort_key))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_merge_equals_sorted_concatenation(data):
    records = data.draw(corpora())
    a = TrajectoryDataset.from_entries(data.draw(entry_lists(records, correct=True)), ROLE_FILTER)
    b_entries = data.draw(entry_lists(records, correct=True))
    if data.draw(st.booleans()):
        # the program's shape: b holds a later iteration than any of a's, so a
        # sort by query id alone orders a + b; b + a still needs the full sort
        later = max((t.iteration for _, t in oracles.entries(a)), default=0)
        b_entries = [(r, replace(t, iteration=t.iteration + later)) for r, t in b_entries]
    b = TrajectoryDataset.from_entries(b_entries, ROLE_FILTER)
    a_rows, b_rows = oracles.entries(a), oracles.entries(b)
    assert oracles.entries(merge_datasets(a, b)) == tuple(sorted(a_rows + b_rows, key=entry_sort_key))
    assert oracles.entries(merge_datasets(b, a)) == tuple(sorted(b_rows + a_rows, key=entry_sort_key))


@given(datasets(role=ROLE_FILTER), st.integers(1, 8), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_reshaping_same_from_columns_alone(ds, K, seed):
    # the column transforms give the object references' entries, order included
    entries = list(oracles.entries(ds))
    L = min(K, 3)
    assert oracles.entries(threshold_clip(ds, L, seed)) == tuple(oracle_tc(entries, L, seed))
    assert oracles.entries(head_clip(ds, K)) == tuple(oracle_hc(entries, K))
    # padded copies sit in construction order among equal keys (a stable sort)
    assert oracles.entries(repeat_pad(ds, K)) == tuple(sorted(oracle_rp(entries, K), key=entry_sort_key))
    assert oracles.entries(repeat_invert(ds, K)) == tuple(sorted(oracle_ri(entries, K), key=entry_sort_key))
