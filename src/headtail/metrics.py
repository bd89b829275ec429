"""Distributional diagnostics: level shares, accuracy buckets, length stats.

A row reads levels from the dataset's corpus and each query's correct
count from the iteration's filter set, as arrays; it builds no per-query table.

The headline degradation/mitigation figures reported for real model runs
are kept here as named reference targets.  They are context for reading a
simulation's report, never assertions: a surrogate learner has no business
hitting numbers produced by a particular 7B model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LEVELS, TrajectoryDataset, array_mean

REFERENCE_TARGETS = {
    "head_share_unbalanced": 0.511,
    "head_share_rebalanced": 0.248,
    "tail_share_unbalanced": 0.015,
    "tail_share_rebalanced": 0.066,
    "mean_tokens_self_generated": 277.0,
    "mean_tokens_original": 395.0,
    "tail_length_drop_fraction": 0.565,
    "tail_final_mean_tokens": 136.0,
}

CSV_COLUMNS = (
    "iteration", "role", "total", "l1", "l2", "l3", "l4", "l5", "b25", "b50", "b75", "b100",
    "mean_len", "len_l1", "len_l2", "len_l3", "len_l4", "len_l5", "head", "tail", "gap",
)

_BUCKET_EDGES = (0.25, 0.50, 0.75, 1.00)


def _repeated_sums(step: float, counts: list[int]) -> list[float]:
    """``step`` added to 0.0 c times in a row, for each count c."""
    sums = np.cumsum(np.full(max(counts, default=0), step))
    return [float(sums[c - 1]) if c else 0.0 for c in counts]


@dataclass(frozen=True)
class MetricsRow:
    """One diagnostics row; serializes to one fixed-order CSV line."""

    iteration: int
    role: str
    total: int
    level_share: tuple[float, ...] | None
    bucket_share: tuple[float, float, float, float]
    mean_length: float | None
    level_mean_length: tuple[float | None, ...]

    @property
    def head_share(self) -> float | None:
        return self.level_share[0] if self.level_share is not None else None

    @property
    def tail_share(self) -> float | None:
        return self.level_share[-1] if self.level_share is not None else None

    @property
    def matthew_gap(self) -> float | None:
        if self.level_share is None:
            return None
        return self.level_share[0] - self.level_share[-1]

    def to_csv_fields(self) -> list[str]:
        def fmt(x) -> str:
            if x is None:
                return ""
            if isinstance(x, float):
                return format(x, ".12g")
            return str(x)

        fields = [fmt(self.iteration), self.role, fmt(self.total)]
        fields += [fmt(s) for s in (self.level_share or (None,) * 5)]
        fields += [fmt(b) for b in self.bucket_share]
        fields.append(fmt(self.mean_length))
        fields += [fmt(m) for m in self.level_mean_length]
        fields += [fmt(self.head_share), fmt(self.tail_share), fmt(self.matthew_gap)]
        return fields


def build_row(
    iteration: int,
    role: str,
    dataset: TrajectoryDataset,
    K: int,
    filtered: TrajectoryDataset,
) -> MetricsRow:
    """Summarize one dataset against the iteration's per-query correct counts.

    A query's count is its rows in ``filtered``, the iteration's filter
    set, so bucket shares mean the same thing for sample, filter, and train
    rows.  Quarter buckets cover (0, .25], (.25, .5], (.5, .75], (.75, 1];
    sample entries of never-correct queries fall in no bucket.  Level
    shares are absent when some entry's query has no level; empty levels
    have no mean length.
    """
    total = len(dataset)
    lengths, level = dataset.columns["length_tokens"], dataset.levels()
    level_counts = np.bincount(level, minlength=max(LEVELS) + 1)
    shares: tuple[float, ...] | None
    if total == 0:
        shares = (0.0,) * len(LEVELS)
    elif level_counts[0] > 0:  # level 0 is unset: difficulty was never calibrated
        shares = None
    else:
        shares = tuple((level_counts[list(LEVELS)] / total).tolist())
    ids, _, runs = dataset.query_runs()
    frac = np.repeat(filtered.count_of(ids), runs) / K  # counted once per query, spread over its rows
    # bucket b holds (edge_(b-1), edge_b]; 0 and fractions above 1 hold none
    bucket = np.searchsorted(np.array(_BUCKET_EDGES) + 1e-12, frac[frac > 0.0])
    counts = np.bincount(bucket, minlength=len(_BUCKET_EDGES) + 1)[: len(_BUCKET_EDGES)]
    buckets = _repeated_sums(1.0 / total, counts.tolist()) if total > 0 else [0.0] * len(_BUCKET_EDGES)
    # the overall mean over floats and each level's over ints, in row order,
    # so that numpy sums exactly the values it always summed
    return MetricsRow(
        iteration=iteration,
        role=role,
        total=total,
        level_share=shares,
        bucket_share=tuple(buckets),
        mean_length=array_mean(lengths.astype(float)) if total > 0 else None,
        level_mean_length=tuple(
            array_mean(lengths[level == lv]) if level_counts[lv] else None for lv in LEVELS
        ),
    )


@dataclass(frozen=True)
class MatthewSummary:
    """Per-iteration head/tail share series and the gap's linear trend."""

    iterations: tuple[int, ...]
    head: tuple[float, ...]
    tail: tuple[float, ...]
    gap: tuple[float, ...]
    slope: float | None


def matthew_series(rows: list[MetricsRow]) -> MatthewSummary:
    """Head/tail trajectory over iterations plus least-squares gap slope."""
    its = [r.iteration for r in rows]
    if any(b <= a for a, b in zip(its, its[1:])):
        raise ValueError("rows must be ordered by strictly ascending iteration")
    if any(r.level_share is None for r in rows):
        raise ValueError("rows must carry level shares")
    gaps = [r.matthew_gap for r in rows]
    slope = None
    if len(rows) >= 2:
        slope = float(np.polyfit(np.array(its, dtype=float), np.array(gaps), 1)[0])
    return MatthewSummary(
        iterations=tuple(its),
        head=tuple(r.head_share for r in rows),
        tail=tuple(r.tail_share for r in rows),
        gap=tuple(gaps),
        slope=slope,
    )


def rows_to_csv(rows: list[MetricsRow]) -> str:
    """Fixed-schema CSV (UTF-8 text, LF endings, header always present)."""
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(r.to_csv_fields()) for r in rows)
    return "\n".join(lines) + "\n"
