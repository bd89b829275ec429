"""Core domain model: queries, sampled trajectories, and ordered multisets.

A :class:`TrajectoryDataset` is the single representation for every stage of
the loop (sampled, filtered, discarded, resampled, refiltered, train).  It is
an immutable multiset of ``(QueryRecord, Trajectory)`` pairs kept in one
canonical order so that every downstream transform is reproducible
byte-for-byte:

    ascending query_id, then (iteration, origin rank, sample_index,
    prefix_steps, correction linkage)

with origin rank explored < resampled_ar < resampled_gr < corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

ORIGIN_EXPLORED = "explored"
ORIGIN_RESAMPLED_AR = "resampled_ar"
ORIGIN_RESAMPLED_GR = "resampled_gr"
ORIGIN_CORRECTED = "corrected"

ORIGIN_RANK = {
    ORIGIN_EXPLORED: 0,
    ORIGIN_RESAMPLED_AR: 1,
    ORIGIN_RESAMPLED_GR: 2,
    ORIGIN_CORRECTED: 3,
}

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

    @property
    def cot_length(self) -> int:
        """Token count of the freshly generated reasoning (excludes prefix)."""
        return self.length_tokens - self.prefix_tokens


Entry = tuple[QueryRecord, Trajectory]


def entry_sort_key(entry: Entry) -> tuple:
    _, t = entry
    link = -1 if t.corrected_from is None else t.corrected_from
    return (t.query_id, t.iteration, ORIGIN_RANK[t.origin], t.sample_index, t.prefix_steps, link)


@dataclass(frozen=True)
class TrajectoryDataset:
    """An immutable, canonically ordered multiset of (query, trajectory) pairs."""

    entries: tuple[Entry, ...]
    role: str

    @classmethod
    def from_entries(cls, entries, role: str, *, presorted: bool = False) -> "TrajectoryDataset":
        if role not in ROLES:
            raise ValueError(f"unknown dataset role {role!r}")
        items = tuple(entries) if presorted else tuple(sorted(entries, key=entry_sort_key))
        for record, traj in items:
            if record.id != traj.query_id:
                raise ValueError(
                    f"trajectory query_id {traj.query_id} does not match record id {record.id}"
                )
        if role in (ROLE_FILTER, ROLE_REFILTER, ROLE_TRAIN):
            if any(not t.correct for _, t in items):
                raise ValueError(f"{role} datasets may only contain correct trajectories")
        elif role == ROLE_DISCARD:
            if any(t.correct for _, t in items):
                raise ValueError("discard datasets may only contain incorrect trajectories")
        return cls(entries=items, role=role)

    @classmethod
    def empty(cls, role: str) -> "TrajectoryDataset":
        return cls.from_entries((), role, presorted=True)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.entries)

    def retagged(self, role: str) -> "TrajectoryDataset":
        """Same entries under a different role tag."""
        return TrajectoryDataset.from_entries(self.entries, role, presorted=True)

    def counts_by_query(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for _, t in self.entries:
            counts[t.query_id] = counts.get(t.query_id, 0) + 1
        return counts

    def records_by_id(self) -> dict[int, QueryRecord]:
        return {r.id: r for r, _ in self.entries}


def merge_datasets(a: TrajectoryDataset, b: TrajectoryDataset) -> TrajectoryDataset:
    """Multiset union of two datasets over the same corpus, tagged train.

    Duplicates are preserved and the result is re-sorted into canonical
    order, so the operation is associative and commutative up to that order.
    """
    seen = a.records_by_id()
    for r, _ in b.entries:
        prior = seen.get(r.id)
        if prior is not None and prior != r:
            raise CorpusMismatchError("corpus mismatch")
    return TrajectoryDataset.from_entries(a.entries + b.entries, ROLE_TRAIN)
