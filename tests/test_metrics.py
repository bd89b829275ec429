import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from headtail.core import ROLE_FILTER, TrajectoryDataset, merge_datasets
from headtail.metrics import (
    CSV_COLUMNS,
    MetricsRow,
    build_row,
    matthew_series,
    rows_to_csv,
)

from conftest import make_query, make_traj, over_one_corpus
import oracles


def leveled_filter(spec):
    """spec: list of (qid, level, k, length)."""
    entries = []
    for qid, level, k, length in spec:
        q = make_query(qid, level=level)
        entries.extend((q, make_traj(qid, j, length=length)) for j in range(1, k + 1))
    return TrajectoryDataset.from_entries(entries, ROLE_FILTER)


def row_of(ds):
    return build_row(1, ds.role, ds, 8, ds)


class TestLevelDistribution:
    """The level shares of a metrics row."""

    def test_uniform(self):
        ds = leveled_filter([(i, i, 2, 40) for i in (1, 2, 3, 4, 5)])
        assert row_of(ds).level_share == (0.2, 0.2, 0.2, 0.2, 0.2)

    def test_unleveled_rejected(self):
        ds = leveled_filter([(1, 1, 2, 40)])
        bad = TrajectoryDataset.from_entries(
            list(oracles.entries(ds)) + [(make_query(9), make_traj(9))], ROLE_FILTER
        )
        assert row_of(bad).level_share is None

    @given(
        st.lists(
            st.tuples(st.integers(1, 5), st.integers(1, 6)), min_size=1, max_size=20
        )
    )
    @settings(max_examples=200)
    def test_matches_brute_count(self, rows):
        spec = [(i, lv, k, 40) for i, (lv, k) in enumerate(rows)]
        ds = leveled_filter(spec)
        shares = row_of(ds).level_share
        brute = [0] * 5
        for _, lv, k, _ in spec:
            brute[lv - 1] += k
        total = sum(brute)
        assert shares == tuple(c / total for c in brute)
        assert sum(shares) == pytest.approx(1.0, abs=1e-9)

    def test_merge_is_weighted_average(self):
        a, b = over_one_corpus(
            leveled_filter([(1, 1, 4, 40), (2, 5, 2, 40)]), leveled_filter([(3, 2, 3, 40)])
        )
        merged = merge_datasets(a, b)
        sa, sb, sm = (
            np.array(row_of(x).level_share) for x in (a, b, merged)
        )
        wa, wb = len(a) / len(merged), len(b) / len(merged)
        assert np.allclose(sm, wa * sa + wb * sb)


class TestLengthStats:
    """The mean lengths of a metrics row, overall and per level."""

    def test_single_entry(self):
        row = row_of(leveled_filter([(1, 1, 1, 300)]))
        assert row.mean_length == 300.0
        assert row.level_mean_length == (300.0, None, None, None, None)

    def test_two_entries(self):
        ds = leveled_filter([(1, 1, 1, 100), (2, 2, 1, 300)])
        assert row_of(ds).mean_length == 200.0

    def test_empty_groups_absent(self):
        ds = leveled_filter([(1, 2, 1, 50)])
        assert row_of(ds).level_mean_length == (None, 50.0, None, None, None)

    def test_spreadsheet_recomputation(self):
        rng = np.random.default_rng(0)
        spec = [
            (i, int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(10, 500)))
            for i in range(20)
        ]
        ds = leveled_filter(spec)
        row = row_of(ds)
        lengths = [t.length_tokens for _, t in oracles.entries(ds)]
        assert row.mean_length == pytest.approx(np.mean(lengths))
        for lv, m in zip((1, 2, 3, 4, 5), row.level_mean_length):
            manual = [t.length_tokens for r, t in oracles.entries(ds) if r.level == lv]
            assert m == (pytest.approx(np.mean(manual)) if manual else None)

    def test_reorder_invariance(self):
        spec = [(1, 1, 3, 120), (2, 4, 2, 77)]
        ds = leveled_filter(spec)
        reversed_ds = TrajectoryDataset.from_entries(list(oracles.entries(ds))[::-1], ROLE_FILTER)
        assert row_of(ds) == row_of(reversed_ds)


class TestMetricsRow:
    def test_build_row_fields(self):
        ds = leveled_filter([(1, 1, 4, 100), (2, 5, 1, 200)])
        row = build_row(2, ROLE_FILTER, ds, K=4, filtered=ds)
        assert row.iteration == 2
        assert row.total == 5
        assert row.head_share == pytest.approx(0.8)
        assert row.tail_share == pytest.approx(0.2)
        assert row.matthew_gap == pytest.approx(0.6)
        assert row.bucket_share[3] == pytest.approx(0.8)  # k=4 of K=4
        assert row.bucket_share[0] == pytest.approx(0.2)  # k=1 of K=4

    def test_csv_schema(self):
        ds = leveled_filter([(1, 1, 2, 100)])
        row = build_row(1, ROLE_FILTER, ds, 4, ds)
        text = rows_to_csv([row])
        header, line = text.strip().split("\n")
        assert header == ",".join(CSV_COLUMNS)
        assert len(line.split(",")) == len(CSV_COLUMNS) == 21

    def test_unleveled_dataset_gives_blank_level_fields(self):
        q = make_query(1)
        ds = TrajectoryDataset.from_entries([(q, make_traj(1))], ROLE_FILTER)
        row = build_row(1, ROLE_FILTER, ds, 4, ds)
        assert row.level_share is None
        fields = row.to_csv_fields()
        assert fields[3:8] == [""] * 5


class TestMatthewSeries:
    def row(self, it, head, tail):
        return MetricsRow(
            iteration=it,
            role="filter",
            total=10,
            level_share=(head, 0.0, 0.0, 0.0, tail),
            bucket_share=(0, 0, 0, 1.0),
            mean_length=100.0,
            level_mean_length=(None,) * 5,
        )

    def test_constant_gap_zero_slope(self):
        rows = [self.row(i, 0.4, 0.1) for i in (1, 2, 3)]
        assert matthew_series(rows).slope == pytest.approx(0.0)

    def test_linear_gap_slope(self):
        rows = [self.row(i, h, 0.0) for i, h in ((1, 0.1), (2, 0.2), (3, 0.3))]
        summary = matthew_series(rows)
        assert summary.slope == pytest.approx(0.1)
        assert summary.head == (0.1, 0.2, 0.3)

    def test_single_row_slope_absent(self):
        assert matthew_series([self.row(1, 0.5, 0.1)]).slope is None

    def test_unordered_rejected(self):
        rows = [self.row(2, 0.1, 0.0), self.row(1, 0.2, 0.0)]
        with pytest.raises(ValueError):
            matthew_series(rows)


def test_empty_rows_to_csv_is_header_only():
    assert rows_to_csv([]) == ",".join(CSV_COLUMNS) + "\n"
