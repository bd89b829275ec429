"""Shared fixture builders and mock samplers."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from headtail.core import (
    ROLE_FILTER,
    ROLE_SAMPLE,
    QueryRecord,
    Trajectory,
    TrajectoryDataset,
    object_array,
)
from headtail.strategies import Draws


def make_query(qid: int, gt: str | None = None, level: int | None = None, **kw) -> QueryRecord:
    return QueryRecord(id=qid, gt_answer=gt if gt is not None else f"a{qid}", level=level, **kw)


def make_traj(
    qid: int,
    k: int = 1,
    correct: bool = True,
    gt: str | None = None,
    length: int = 40,
    iteration: int = 1,
    **kw,
) -> Trajectory:
    answer = (gt if gt is not None else f"a{qid}") if correct else f"wrong-{qid}-{k}"
    return Trajectory(
        query_id=qid,
        sample_index=k,
        iteration=iteration,
        length_tokens=length,
        extracted_answer=answer,
        correct=correct,
        **kw,
    )


def make_sample(k_correct: dict[int, int], K: int, lengths: dict[int, int] | None = None):
    """Sample dataset with k_correct[qid] correct draws out of K per query."""
    entries = []
    queries = {}
    for qid, k in k_correct.items():
        q = make_query(qid)
        queries[qid] = q
        length = (lengths or {}).get(qid, 40)
        for j in range(1, K + 1):
            entries.append((q, make_traj(qid, j, correct=j <= k, length=length)))
    return TrajectoryDataset.from_entries(entries, ROLE_SAMPLE), queries


def make_filter(k_correct: dict[int, int], lengths: dict[int, int] | None = None):
    """Filter dataset with exactly k_correct[qid] entries per query."""
    entries = []
    queries = {}
    for qid, k in k_correct.items():
        q = make_query(qid)
        queries[qid] = q
        length = (lengths or {}).get(qid, 40)
        for j in range(1, k + 1):
            entries.append((q, make_traj(qid, j, correct=True, length=length)))
    return TrajectoryDataset.from_entries(entries, ROLE_FILTER), queries


@pytest.fixture
def hand_filter():
    """The recurring worked fixture: three queries with k = (6, 3, 1), K = 8."""
    return make_filter({1: 6, 2: 3, 3: 1})


@pytest.fixture
def hand_sample():
    return make_sample({1: 6, 2: 3, 3: 1}, K=8)


class ScriptedSampler:
    """Sampler returning pre-set correctness; counts and records every draw.

    The pattern is consumed one draw at a time in row order, and the
    ``*_calls`` counters count draws, not batched calls.  ``served`` holds
    each draw's (query id, correct flag), in the order they were made.
    """

    def __init__(self, correct_pattern=itertools.repeat(True), length: int = 50):
        self._pattern = iter(correct_pattern)
        self.length = length
        self.fresh_calls = 0
        self.guided_calls = 0
        self.correct_calls = 0
        self.served: list[tuple[int, bool]] = []

    def _draws(self, corpus, query_ids, counter, prefix_tokens=0):
        correct, answers = [], []
        gts = corpus.gt_answer[corpus.rows(query_ids)].tolist()
        for q, gt in zip(np.asarray(query_ids).tolist(), gts):
            setattr(self, counter, getattr(self, counter) + 1)
            ok = next(self._pattern)
            self.served.append((q, ok))
            correct.append(ok)
            answers.append(gt if ok else f"wrong-{q}-s{self.fresh_calls}")
        n = len(correct)
        lengths = np.asarray(prefix_tokens, dtype=np.int64) + np.full(n, self.length)
        return Draws(1, lengths, np.array(correct, dtype=bool), object_array(answers))

    def sample_fresh(self, corpus, query_ids):
        return self._draws(corpus, query_ids, "fresh_calls")

    def sample_guided(self, corpus, query_ids, prefix_tokens, steps, total_steps):
        return self._draws(corpus, query_ids, "guided_calls", prefix_tokens)

    def sample_corrections(self, corpus, query_ids):
        return self._draws(corpus, query_ids, "correct_calls")


class FailingSampler:
    def sample_fresh(self, corpus, query_ids):
        raise RuntimeError("backend down")

    def sample_guided(self, corpus, query_ids, prefix_tokens, steps, total_steps):
        raise RuntimeError("backend down")

    def sample_corrections(self, corpus, query_ids):
        raise RuntimeError("backend down")
