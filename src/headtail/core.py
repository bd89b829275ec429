"""Core domain model: queries, sampled trajectories, and ordered multisets.

A :class:`TrajectoryDataset` is the single representation for every stage of
the loop.  Its role says what grading found: ``sample`` rows are ungraded
(any correct flags), ``filter`` rows are all correct and ``discard`` rows
none.  Where a row came from is its ``origin``, and the loop stage a
metrics row describes is that row's label, so a strategy's output and a
union of filter sets are ``filter`` sets too.  It is
an immutable multiset of rows kept in one canonical order so that every
downstream transform is reproducible byte-for-byte:

    ascending query_id, then (iteration, origin rank, sample_index,
    prefix_steps, correction linkage)

with origin rank explored < resampled_ar < resampled_gr < corrected.

Layout
------
The queries live in a :class:`Corpus`, one read-only column per
``QueryRecord`` field in ascending id order; a run builds one, and every
dataset of the run and the learner share it.  Per-query facts live only
there (``levels`` and ``gt_answers`` spread them over a dataset's rows).
A dataset is one read-only array per ``COLUMNS`` field, the extracted
answers among them, and its corpus.  Every transform is index arithmetic
on those columns.  A dataset keeps its own order: it checks whether some
row's sort key (``_SORT_COLUMNS``) falls below the row's before it, and
only then restores canonical order with one stable ``np.lexsort`` over
those columns (``merge_datasets`` first sorts stably by query id alone,
and ``select`` checks only whether its rows ascend).  Rows only go one
way between objects and columns: ``from_entries`` packs
``(QueryRecord, Trajectory)`` pairs made elsewhere into columns, and
nothing turns columns back into pairs; the loop and the disk readers
never make pairs at all.  A dataset built from
outside columns checks every invariant; one derived from checked
datasets (``select``, ``merge_datasets``) checks only the role's: its
rows were checked when their dataset was built and cannot have changed,
but their role can, and ``select`` can set their correct flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Iterable, Mapping

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

ROLES = frozenset({ROLE_SAMPLE, ROLE_FILTER, ROLE_DISCARD})

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


Entry = tuple[QueryRecord, Trajectory]


# one column per Trajectory field: int64, but "correct" is bool and "answer"
# (extracted_answer) holds objects; corrected_from -1 stands for unset,
# origin holds the rank
COLUMNS = (
    "query_id", "iteration", "origin", "sample_index",
    "prefix_steps", "prefix_tokens", "length_tokens", "correct", "corrected_from", "answer",
)
_DTYPES = {name: np.int64 for name in COLUMNS} | {"correct": bool, "answer": object}
# the columns a dataset may be built without, and the value they then take:
# explored rows with no kept prefix, no correction link and no answer
_UNSET = {
    "origin": ORIGIN_RANK[ORIGIN_EXPLORED], "prefix_steps": 0, "prefix_tokens": 0, "corrected_from": -1,
    "answer": "",
}
# the canonical order's key, least significant first as np.lexsort wants it
_SORT_COLUMNS = ("corrected_from", "prefix_steps", "sample_index", "origin", "iteration", "query_id")


def _descends(cols: Mapping[str, np.ndarray]) -> bool:
    """Whether some row's sort key is below the row's before it."""
    ids = cols["query_id"]
    tied = np.ones(max(len(ids) - 1, 0), dtype=bool)
    descends = np.zeros_like(tied)
    for name in reversed(_SORT_COLUMNS):  # most significant first, until no pair ties
        col = cols[name]
        descends |= tied & (col[1:] < col[:-1])
        tied &= col[1:] == col[:-1]
        if not tied.any():
            break
    return bool(descends.any())


def first_rows(ids: np.ndarray, *values: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...], int | None]:
    """The distinct ids ascending, each of ``values`` at each id's first row,
    and the first row where some value differs from its id's first, if any."""
    distinct, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    conflicts = np.flatnonzero(np.any([v != v[first][inverse] for v in values], axis=0))
    return distinct, tuple(v[first] for v in values), int(conflicts[0]) if len(conflicts) else None


def array_mean(values: np.ndarray) -> float:
    """``float(np.mean(values))`` of a non-empty 1-D array, bit for bit: the
    same ``np.add.reduce`` (over float64 for an integer or bool array) and
    the same division, without ``np.mean``'s per-call overhead."""
    dtype = np.float64 if values.dtype.kind in "biu" else None
    return float(np.add.reduce(values, axis=None, dtype=dtype) / len(values))


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
    if np.any((c["corrected_from"] < 1) & (c["corrected_from"] != -1)):
        raise ValueError("corrected_from must be >= 1 when set")
    _check_role(role, c["correct"])


def _check_role(role: str, correct: np.ndarray) -> None:
    """The role invariants: which correct flags a dataset of ``role`` may hold."""
    if role not in ROLES:
        raise ValueError(f"unknown dataset role {role!r}")
    if role == ROLE_FILTER and not np.all(correct):
        raise ValueError(f"{role} datasets may only contain correct trajectories")
    if role == ROLE_DISCARD and np.any(correct):
        raise ValueError("discard datasets may only contain incorrect trajectories")


_CORPUS_TYPES = {
    "ids": np.int64, "gt_answer": object, "level": np.int64,
    "latent_difficulty": np.float64, "base_log_length": np.float64,
}


@dataclass(frozen=True, eq=False)
class Corpus:
    """Queries as read-only columns, one row per query, in ascending id order.

    The fields are ``QueryRecord``'s, with ``level`` 0 for unset.  The
    constructor takes the rows in any order and a scalar for a field equal
    on every row; it runs ``QueryRecord``'s checks on whole columns and
    rejects repeated ids.  ``dataclasses.replace`` makes a corpus with some
    columns swapped.
    """

    ids: np.ndarray
    gt_answer: np.ndarray
    level: np.ndarray = 0
    latent_difficulty: np.ndarray = 0.5
    base_log_length: np.ndarray = math.log(300.0)

    def __post_init__(self) -> None:
        try:
            cols = {name: np.asarray(getattr(self, name), dtype=t) for name, t in _CORPUS_TYPES.items()}
        except OverflowError:
            raise ValueError("dataset fields must fit in 64-bit integers") from None
        order = np.argsort(cols["ids"], kind="stable")
        for name, col in cols.items():
            col = np.full(len(order), col) if col.ndim == 0 else col
            if len(col) != len(order):
                raise ValueError("corpus columns differ in length")
            col = col[order]
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        d = self.latent_difficulty
        for bad, message in (
            (self.ids[1:] == self.ids[:-1], "query ids must be unique"),
            (~((d >= 0.0) & (d <= 1.0)), "latent_difficulty must be in [0, 1]"),
            ((self.level < 0) | (self.level > LEVELS[-1]), f"level must be in {LEVELS} when set"),
            (~np.isfinite(self.base_log_length), "base_log_length must be finite"),
        ):
            if np.any(bad):
                raise ValueError(message)

    @classmethod
    def of(cls, records: Iterable[QueryRecord]) -> "Corpus":
        """The corpus of these records."""
        records = list(records)
        return cls(
            [r.id for r in records],
            object_array(r.gt_answer for r in records),
            [r.level or 0 for r in records],
            [r.latent_difficulty for r in records],
            [r.base_log_length for r in records],
        )

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, query_ids: Any) -> np.ndarray:
        """The row of each query id; an id not in the corpus is a ValueError naming it."""
        query_ids = np.asarray(query_ids, dtype=np.int64)
        rows = np.searchsorted(self.ids, query_ids)
        found = rows < len(self.ids)
        found[found] = self.ids[rows[found]] == query_ids[found]
        if not found.all():
            raise ValueError(f"unknown query {query_ids[~found][0]}")
        return rows

    def union(self, other: "Corpus") -> "Corpus":
        """Every query of both; a query in both must be equal in every field."""
        if other is self:
            return self
        ids, *cols = (np.concatenate((getattr(self, name), getattr(other, name))) for name in _CORPUS_TYPES)
        ids, cols, conflict = first_rows(ids, *cols)
        if conflict is not None:
            raise CorpusMismatchError("corpus mismatch")
        return Corpus(ids, *cols)


class TrajectoryDataset:
    """An immutable, canonically ordered multiset of trajectory rows.

    ``columns`` maps each name in ``COLUMNS`` to a read-only array with one
    row per entry (``answers`` is its ``answer`` column), and ``corpus``
    holds every query in the columns (possibly more).  The constructor
    takes a scalar for a column that is equal on every row, and the columns
    in ``_UNSET`` may be left out; a name not in ``COLUMNS`` is a
    ValueError.  It checks every invariant and puts rows given in any
    other order in canonical order.

    A dataset derived from others (``select``, ``merge_datasets``)
    re-checks only the role invariant: every other check looks at one row
    at a time, and the rows it takes were checked when their dataset was
    built and cannot have changed since (columns and their mapping are
    read-only).  Each query's run of rows and its corpus row are found
    once per dataset, on first use.
    """

    __slots__ = ("role", "columns", "corpus", "_facts")

    def __init__(self, role: str, columns: dict[str, Any], corpus: Corpus):
        unknown = set(columns) - set(COLUMNS)
        if unknown:
            raise ValueError(f"unknown dataset columns {sorted(unknown)}")
        cols = {}
        for name in COLUMNS:
            value = columns.get(name, _UNSET.get(name))
            if value is None:
                raise ValueError(f"dataset column {name!r} is missing")
            try:
                cols[name] = np.asarray(value, dtype=_DTYPES[name])
            except OverflowError:
                raise ValueError("dataset fields must fit in 64-bit integers") from None
        lengths = {len(col) for col in cols.values() if col.ndim}
        if len(lengths) > 1:
            raise ValueError("dataset columns differ in length")
        n = lengths.pop() if lengths else 1  # scalars alone make one row
        cols = {name: np.full(n, col) if col.ndim == 0 else col for name, col in cols.items()}
        _check_columns(role, cols)
        self._fill(role, cols, corpus, _descends(cols))

    @classmethod
    def _derived(
        cls, role: str, columns: Mapping[str, np.ndarray], corpus: Corpus, *, sort: bool
    ) -> "TrajectoryDataset":
        """A dataset of rows taken from checked datasets: ``columns`` holds
        every ``COLUMNS`` array at full length, and only the role is checked."""
        _check_role(role, columns["correct"])
        dataset = cls.__new__(cls)
        dataset._fill(role, columns, corpus, sort)
        return dataset

    def _fill(self, role: str, cols: Mapping[str, np.ndarray], corpus: Corpus, sort: bool) -> None:
        if sort:
            order = np.lexsort([cols[name] for name in _SORT_COLUMNS])
            cols = {name: col[order] for name, col in cols.items()}
        for col in cols.values():
            col.flags.writeable = False
        self.role = role
        self.columns = MappingProxyType(cols)
        self.corpus = corpus
        self._facts: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None

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
            "iteration": [t.iteration for t in trajs],
            "origin": [ORIGIN_RANK[t.origin] for t in trajs],
            "sample_index": [t.sample_index for t in trajs],
            "prefix_steps": [t.prefix_steps for t in trajs],
            "prefix_tokens": [t.prefix_tokens for t in trajs],
            "length_tokens": [t.length_tokens for t in trajs],
            "correct": [t.correct for t in trajs],
            "corrected_from": [-1 if t.corrected_from is None else t.corrected_from for t in trajs],
            "answer": object_array(t.extracted_answer for t in trajs),
        }
        return cls(role, columns, Corpus.of(records.values()))

    @classmethod
    def empty(cls, role: str) -> "TrajectoryDataset":
        return cls.from_entries((), role)

    @property
    def answers(self) -> np.ndarray:
        """The extracted answers: the read-only ``answer`` column."""
        return self.columns["answer"]

    def __len__(self) -> int:
        return len(self.columns["query_id"])

    def __eq__(self, other: object) -> bool:
        """The same role and rows: every column equal, and each row's query
        equal in every corpus field (the corpora themselves may differ)."""
        if not isinstance(other, TrajectoryDataset):
            return NotImplemented
        if self.role != other.role or len(self) != len(other):
            return False
        if not all(np.array_equal(self.columns[name], other.columns[name]) for name in COLUMNS):
            return False
        mine, theirs = self._query_facts()[3], other._query_facts()[3]
        return all(
            np.array_equal(getattr(self.corpus, name)[mine], getattr(other.corpus, name)[theirs])
            for name in _CORPUS_TYPES
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TrajectoryDataset(role={self.role!r}, rows={len(self)})"

    def select(self, rows: np.ndarray, role: str, *, correct: bool | None = None) -> "TrajectoryDataset":
        """The given rows (repeats allowed) under ``role``, in canonical order.

        ``correct`` overwrites the rows' correct flag.  Rows that ascend
        keep their order; any others are sorted.
        """
        rows = np.asarray(rows, dtype=np.intp)
        columns = {name: col[rows] for name, col in self.columns.items()}
        if correct is not None:
            columns["correct"] = np.full(len(rows), correct, dtype=bool)
        descends = bool((rows[1:] < rows[:-1]).any())
        return TrajectoryDataset._derived(role, columns, self.corpus, sort=descends)

    def _query_facts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(query id, first row, row count, corpus row) of each query's
        contiguous run of rows, computed on first use."""
        if self._facts is None:
            qids = self.columns["query_id"]
            starts = np.flatnonzero(np.concatenate(([True], qids[1:] != qids[:-1])))[: len(qids)]
            ids = qids[starts]
            self._facts = (ids, starts, np.diff(np.append(starts, len(qids))), self.corpus.rows(ids))
        return self._facts

    def query_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(query id, first row, row count) of each query's contiguous run of rows."""
        return self._query_facts()[:3]

    def count_of(self, query_ids: Any) -> np.ndarray:
        """Per query id: how many rows it has in this dataset (0 for none)."""
        qids = self.columns["query_id"]
        return np.searchsorted(qids, query_ids, side="right") - np.searchsorted(qids, query_ids)

    def row_counts(self) -> np.ndarray:
        """Per row: how many rows its query has in this dataset."""
        return self.count_of(self.columns["query_id"])

    def _per_row(self, column: np.ndarray) -> np.ndarray:
        """Per row: its query's value in ``column``, a column of the corpus."""
        _, _, counts, rows = self._query_facts()
        return np.repeat(column[rows], counts)

    def levels(self) -> np.ndarray:
        """Per row: the level of its query (0 for unset)."""
        return self._per_row(self.corpus.level)

    def gt_answers(self) -> np.ndarray:
        """Per row: the ground-truth answer of its query (object array)."""
        return self._per_row(self.corpus.gt_answer)


def run_positions(counts: np.ndarray) -> np.ndarray:
    """Each row's 0-based position within its run, for consecutive runs of ``counts`` rows."""
    counts = np.asarray(counts, dtype=np.int64)
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def merge_datasets(a: TrajectoryDataset, b: TrajectoryDataset) -> TrajectoryDataset:
    """Multiset union of two datasets over the same corpus, as a filter set.

    Duplicates are preserved and the result is in canonical order
    (entries of ``a`` before equal-keyed entries of ``b``), so the
    operation is associative and commutative up to that order.  Datasets
    of one run share one corpus; other corpora are united, and a query
    they disagree on is a CorpusMismatchError.

    A stable sort by query id alone gives that order unless some row's
    sort key falls below the row's before it, which it cannot when
    ``b``'s rows of each query sort after ``a``'s (a union's newer
    iteration, a resample's later origin); the dataset's own order check
    looks, and only a failed check runs the full sort.
    """
    qids = np.concatenate((a.columns["query_id"], b.columns["query_id"]))
    order = np.argsort(qids, kind="stable")
    columns = {name: np.concatenate((a.columns[name], b.columns[name]))[order] for name in COLUMNS}
    return TrajectoryDataset._derived(ROLE_FILTER, columns, a.corpus.union(b.corpus), sort=_descends(columns))
