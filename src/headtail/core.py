"""Core domain model: queries, sampled trajectories, and ordered multisets.

A :class:`TrajectoryDataset` is the single representation for every stage of
the loop (sampled, filtered, discarded, resampled, refiltered, train).  It is
an immutable multiset of ``(QueryRecord, Trajectory)`` pairs kept in one
canonical order so that every downstream transform is reproducible
byte-for-byte:

    ascending query_id, then (iteration, origin rank, sample_index,
    prefix_steps, correction linkage)

with origin rank explored < resampled_ar < resampled_gr < corrected.

Layout
------
A dataset is stored column-wise: one read-only numpy array per field
(``COLUMNS``: query id, level with 0 for unset, iteration, origin rank,
sample index, prefix steps and tokens, length, correct flag, and
corrected_from with -1 for unset), an object array of extracted answers,
and a table from query id to its :class:`QueryRecord`.  The constructor
alone holds the unset values: origin, prefix steps and tokens and
corrected_from may be left out of it.  Every transform is index
arithmetic on those columns: select rows, repeat them, concatenate two
datasets, and restore canonical order with one stable ``np.lexsort`` over
the ``entry_sort_key`` fields, so entries with equal keys keep their
relative order.

Python objects exist only at the edges:

* :meth:`TrajectoryDataset.from_entries` packs pairs made elsewhere
  (hand-built fixtures, library callers) into columns; logs and snapshots
  read from disk are decoded straight into columns and never pass through
  it;
* :attr:`TrajectoryDataset.entries` builds fresh pairs from the columns on
  first access and caches them on that dataset only; no object is carried
  over from the dataset a transform started from.

The simulation loop itself never builds entries: sampling, resampling and
correction all come back from the sampler as columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

import numpy as np

ORIGIN_EXPLORED = "explored"
ORIGIN_RESAMPLED_AR = "resampled_ar"
ORIGIN_RESAMPLED_GR = "resampled_gr"
ORIGIN_CORRECTED = "corrected"

ORIGINS = (ORIGIN_EXPLORED, ORIGIN_RESAMPLED_AR, ORIGIN_RESAMPLED_GR, ORIGIN_CORRECTED)
ORIGIN_RANK = {origin: rank for rank, origin in enumerate(ORIGINS)}

ROLE_SAMPLE = "sample"
ROLE_FILTER = "filter"
ROLE_DISCARD = "discard"
ROLE_RESAMPLE = "resample"
ROLE_REFILTER = "refilter"
ROLE_TRAIN = "train"

ROLES = frozenset(
    {ROLE_SAMPLE, ROLE_FILTER, ROLE_DISCARD, ROLE_RESAMPLE, ROLE_REFILTER, ROLE_TRAIN}
)

LEVELS = (1, 2, 3, 4, 5)


class CorpusMismatchError(ValueError):
    """Raised when two datasets disagree about the underlying query corpus."""


@dataclass(frozen=True, slots=True)
class QueryRecord:
    """A question with its ground truth and simulator-side difficulty.

    ``latent_difficulty`` and ``base_log_length`` exist only for the
    simulated learner; real trajectory logs never carry them.  ``level`` is
    unset until difficulty calibration has run.
    """

    id: int
    gt_answer: str
    latent_difficulty: float = 0.5
    level: int | None = None
    base_log_length: float = math.log(300.0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.latent_difficulty <= 1.0:
            raise ValueError(f"latent_difficulty must be in [0, 1], got {self.latent_difficulty}")
        if self.level is not None and self.level not in LEVELS:
            raise ValueError(f"level must be in {LEVELS} when set, got {self.level}")
        if not math.isfinite(self.base_log_length):
            raise ValueError("base_log_length must be finite")


@dataclass(frozen=True, slots=True)
class Trajectory:
    """One sampled response for a query.

    ``sample_index`` is the draw index within its producing pass (1-based),
    ``iteration`` the loop iteration the draw belongs to.  For guided
    resamples, ``prefix_steps`` counts the reasoning steps kept from the
    donor trajectory and ``prefix_tokens`` their token length; the stored
    length is always the full response (prefix + continuation).  For
    correction pairs, ``corrected_from`` links back to the sample_index of
    the wrong trajectory that was revised.
    """

    query_id: int
    sample_index: int
    iteration: int
    length_tokens: int
    extracted_answer: str
    correct: bool
    origin: str = ORIGIN_EXPLORED
    prefix_steps: int = 0
    prefix_tokens: int = 0
    corrected_from: int | None = None

    def __post_init__(self) -> None:
        if self.sample_index < 1:
            raise ValueError("sample_index must be >= 1")
        if self.iteration < 1:
            raise ValueError("iteration must be >= 1")
        if self.length_tokens < 0:
            raise ValueError("length_tokens must be >= 0")
        if self.origin not in ORIGIN_RANK:
            raise ValueError(f"unknown origin {self.origin!r}")
        if self.prefix_tokens < 0 or self.prefix_tokens > self.length_tokens:
            raise ValueError("prefix_tokens must be in [0, length_tokens]")
        if self.origin != ORIGIN_RESAMPLED_GR and self.prefix_steps != 0:
            raise ValueError("prefix_steps is only meaningful for guided resamples")
        if self.prefix_steps < 0:
            raise ValueError("prefix_steps must be >= 0")
        if self.corrected_from is not None and self.corrected_from < 1:
            raise ValueError("corrected_from must be >= 1 when set")

    @property
    def cot_length(self) -> int:
        """Token count of the freshly generated reasoning (excludes prefix)."""
        return self.length_tokens - self.prefix_tokens


Entry = tuple[QueryRecord, Trajectory]


def entry_sort_key(entry: Entry) -> tuple:
    _, t = entry
    link = -1 if t.corrected_from is None else t.corrected_from
    return (t.query_id, t.iteration, ORIGIN_RANK[t.origin], t.sample_index, t.prefix_steps, link)


# one int64 column per field ("correct" is bool); level 0 and corrected_from
# -1 stand for unset, origin holds the rank
COLUMNS = (
    "query_id", "level", "iteration", "origin", "sample_index",
    "prefix_steps", "prefix_tokens", "length_tokens", "correct", "corrected_from",
)
# the columns a dataset may be built without, and the value they then take:
# explored rows with no kept prefix and no correction link
_UNSET = {"origin": ORIGIN_RANK[ORIGIN_EXPLORED], "prefix_steps": 0, "prefix_tokens": 0, "corrected_from": -1}
# entry_sort_key's fields, least significant first as np.lexsort wants them
_SORT_COLUMNS = ("corrected_from", "prefix_steps", "sample_index", "origin", "iteration", "query_id")
_ALL_CORRECT_ROLES = (ROLE_FILTER, ROLE_REFILTER, ROLE_TRAIN)


def object_array(values: Iterable[Any]) -> np.ndarray:
    """1-D object array of ``values`` (np.array would make strings fixed-width)."""
    values = list(values)
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _check_columns(role: str, c: dict[str, np.ndarray]) -> None:
    """The Trajectory and role invariants, as whole-column checks."""
    origin, steps = c["origin"], c["prefix_steps"]
    prefix, length = c["prefix_tokens"], c["length_tokens"]
    if np.any(c["sample_index"] < 1):
        raise ValueError("sample_index must be >= 1")
    if np.any(c["iteration"] < 1):
        raise ValueError("iteration must be >= 1")
    if np.any(length < 0):
        raise ValueError("length_tokens must be >= 0")
    if np.any((origin < 0) | (origin >= len(ORIGINS))):
        raise ValueError("unknown origin rank")
    if np.any((prefix < 0) | (prefix > length)):
        raise ValueError("prefix_tokens must be in [0, length_tokens]")
    if np.any((steps != 0) & (origin != ORIGIN_RANK[ORIGIN_RESAMPLED_GR])):
        raise ValueError("prefix_steps is only meaningful for guided resamples")
    if np.any(steps < 0):
        raise ValueError("prefix_steps must be >= 0")
    if np.any((c["level"] < 0) | (c["level"] > LEVELS[-1])):
        raise ValueError(f"level must be in {LEVELS} when set")
    if np.any((c["corrected_from"] < 1) & (c["corrected_from"] != -1)):
        raise ValueError("corrected_from must be >= 1 when set")
    if role in _ALL_CORRECT_ROLES and not np.all(c["correct"]):
        raise ValueError(f"{role} datasets may only contain correct trajectories")
    if role == ROLE_DISCARD and np.any(c["correct"]):
        raise ValueError("discard datasets may only contain incorrect trajectories")


class TrajectoryDataset:
    """An immutable, canonically ordered multiset of (query, trajectory) pairs.

    ``columns`` maps each name in ``COLUMNS`` to a read-only array with one
    row per entry, ``answers`` holds the extracted answers and ``records``
    maps every query id in the columns (possibly more) to its record.  The
    constructor takes a scalar for a column that is equal on every row, and
    the columns in ``_UNSET`` may be left out.  It checks every invariant
    and, with ``sort``, puts the rows in canonical order.
    """

    __slots__ = ("role", "columns", "answers", "records", "_entries")

    def __init__(
        self,
        role: str,
        columns: dict[str, Any],
        answers: np.ndarray,
        records: dict[int, QueryRecord],
        *,
        sort: bool = True,
    ):
        if role not in ROLES:
            raise ValueError(f"unknown dataset role {role!r}")
        n = len(answers)
        cols = {}
        for name in COLUMNS:
            value = columns.get(name, _UNSET.get(name))
            if value is None:
                raise ValueError(f"dataset column {name!r} is missing")
            try:
                col = np.asarray(value, dtype=bool if name == "correct" else np.int64)
            except OverflowError:
                raise ValueError("dataset fields must fit in 64-bit integers") from None
            cols[name] = np.full(n, col) if col.ndim == 0 else col
        if any(len(col) != n for col in cols.values()):
            raise ValueError("dataset columns differ in length")
        _check_columns(role, cols)
        if sort and len(answers) > 1:
            order = np.lexsort([cols[name] for name in _SORT_COLUMNS])
            cols = {name: col[order] for name, col in cols.items()}
            answers = answers[order]
        for col in (*cols.values(), answers):
            col.flags.writeable = False
        self.role = role
        self.columns = cols
        self.answers = answers
        self.records = records
        self._entries: tuple[Entry, ...] | None = None

    @classmethod
    def from_entries(cls, entries: Iterable[Entry], role: str) -> "TrajectoryDataset":
        """Pack (QueryRecord, Trajectory) pairs into canonical order.

        Every pair of one query must carry equal records.
        """
        items = tuple(entries)
        records: dict[int, QueryRecord] = {}
        for record, traj in items:
            if record.id != traj.query_id:
                raise ValueError(
                    f"trajectory query_id {traj.query_id} does not match record id {record.id}"
                )
            prior = records.setdefault(record.id, record)
            if prior is not record and prior != record:
                raise ValueError(f"conflicting records for query {record.id}")
        trajs = [t for _, t in items]
        columns = {
            "query_id": [t.query_id for t in trajs],
            "level": [r.level or 0 for r, _ in items],
            "iteration": [t.iteration for t in trajs],
            "origin": [ORIGIN_RANK[t.origin] for t in trajs],
            "sample_index": [t.sample_index for t in trajs],
            "prefix_steps": [t.prefix_steps for t in trajs],
            "prefix_tokens": [t.prefix_tokens for t in trajs],
            "length_tokens": [t.length_tokens for t in trajs],
            "correct": [t.correct for t in trajs],
            "corrected_from": [-1 if t.corrected_from is None else t.corrected_from for t in trajs],
        }
        answers = object_array(t.extracted_answer for t in trajs)
        return cls(role, columns, answers, records)

    @classmethod
    def empty(cls, role: str) -> "TrajectoryDataset":
        return cls.from_entries((), role)

    @property
    def entries(self) -> tuple[Entry, ...]:
        """The rows as (QueryRecord, Trajectory) pairs, built once on first access."""
        if self._entries is None:
            c = {name: col.tolist() for name, col in self.columns.items()}
            records = self.records
            self._entries = tuple(
                (records[q], Trajectory(q, s, it, n, a, ok, ORIGINS[o], ps, pt, None if cf < 0 else cf))
                for q, s, it, n, a, ok, o, ps, pt, cf in zip(
                    c["query_id"], c["sample_index"], c["iteration"], c["length_tokens"],
                    self.answers.tolist(), c["correct"], c["origin"], c["prefix_steps"],
                    c["prefix_tokens"], c["corrected_from"],
                )
            )
        return self._entries

    def __len__(self) -> int:
        return len(self.answers)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrajectoryDataset):
            return NotImplemented
        return self.role == other.role and self.entries == other.entries

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TrajectoryDataset(role={self.role!r}, rows={len(self)})"

    def select(
        self, rows: np.ndarray, role: str, *, correct: bool | None = None, sort: bool = False
    ) -> "TrajectoryDataset":
        """The given rows (repeats allowed) under ``role``.

        ``correct`` overwrites the rows' correct flag.  Pass ``sort`` unless
        ``rows`` ascend, to restore canonical order.
        """
        rows = np.asarray(rows, dtype=np.intp)
        columns = {name: col[rows] for name, col in self.columns.items()}
        if correct is not None:
            columns["correct"] = correct
        return TrajectoryDataset(role, columns, self.answers[rows], self.records, sort=sort)

    def retagged(self, role: str) -> "TrajectoryDataset":
        """Same entries under a different role tag."""
        return TrajectoryDataset(role, self.columns, self.answers, self.records, sort=False)

    def query_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(query id, first row, row count) of each query's contiguous run of rows."""
        qids = self.columns["query_id"]
        starts = np.flatnonzero(np.concatenate(([True], qids[1:] != qids[:-1])))[: len(qids)]
        return qids[starts], starts, np.diff(np.append(starts, len(qids)))

    def row_counts(self) -> np.ndarray:
        """Per row: how many rows its query has in this dataset."""
        _, _, counts = self.query_runs()
        return np.repeat(counts, counts)

    def counts_by_query(self) -> dict[int, int]:
        ids, _, counts = self.query_runs()
        return dict(zip(ids.tolist(), counts.tolist()))

    def gt_answers(self) -> np.ndarray:
        """Per row: the ground-truth answer of its query (object array)."""
        ids, _, counts = self.query_runs()
        return np.repeat(object_array(self.records[q].gt_answer for q in ids.tolist()), counts)


def run_positions(counts: np.ndarray) -> np.ndarray:
    """Each row's 0-based position within its run, for consecutive runs of ``counts`` rows."""
    counts = np.asarray(counts, dtype=np.int64)
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def lookup_counts(counts: dict[int, int], qids: np.ndarray) -> np.ndarray:
    """Per query id in ``qids``: its value in ``counts``, 0 when absent."""
    keys = np.fromiter(counts, dtype=np.int64, count=len(counts))
    values = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    if len(keys) == 0:
        return np.zeros(len(qids), dtype=np.int64)
    order = np.argsort(keys)
    keys, values = keys[order], values[order]
    pos = np.minimum(np.searchsorted(keys, qids), len(keys) - 1)
    return np.where(keys[pos] == qids, values[pos], 0)


def merge_datasets(a: TrajectoryDataset, b: TrajectoryDataset) -> TrajectoryDataset:
    """Multiset union of two datasets over the same corpus, tagged train.

    Duplicates are preserved and the result is re-sorted into canonical
    order (entries of ``a`` before equal-keyed entries of ``b``), so the
    operation is associative and commutative up to that order.
    """
    records = a.records
    if b.records is not records:
        for qid, record in b.records.items():
            prior = records.get(qid)
            if prior is not None and prior is not record and prior != record:
                raise CorpusMismatchError("corpus mismatch")
        records = {**records, **b.records}
    columns = {name: np.concatenate((a.columns[name], b.columns[name])) for name in COLUMNS}
    return TrajectoryDataset(ROLE_TRAIN, columns, np.concatenate((a.answers, b.answers)), records)
