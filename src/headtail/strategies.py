"""Head-tail rebalancing transforms.

Every strategy is a pure function from a filter dataset (plus, for the
resampling family, a sampler capability) to the filter dataset the policy
trains on.  Writing k_i for the number of correct responses a query kept
out of K draws:

* ``vanilla``         -- train on the filtered set unchanged.
* ``threshold_clip``  -- cap every query at L entries by keyed random truncation.
* ``head_clip``       -- drop queries that went K for K.
* ``repeat_pad``      -- cycle each solved query's responses up to exactly K entries.
* ``repeat_invert``   -- keep or pad to K - k_i entries per query.
* ``adaptive_resample`` -- draw K - k_i fresh responses per query, refilter, merge.
* ``guided_resample`` -- for tail queries (k_i < L), continue each kept
  trajectory from each of its S step prefixes, refilter, merge.
* ``self_correct_augment`` -- revise discarded responses; verified revisions
  join training twice (correction pair + plain corrected response).

``KINDS`` holds every kind's facts: the sweep axes it reads besides K,
which is the sampling number of the data it rebalances, and whether it
resamples.  Config validation, the offline guard, the loop's dispatch,
the sweep axes and the CLI choices all read it.

The five sampler-free strategies are index maps on the dataset's columns:
select rows, repeat them per query, restore canonical order.  The
resampling family builds one pass's requests as columns (query ids, plus
prefix lengths and steps for guided draws), makes them in one batched
sampler call against the run's :class:`~headtail.core.Corpus`, and
assembles the returned :class:`Draws` into a sample dataset over that
corpus, its rows' ``origin`` saying how they were drawn, which goes
through the shared grader like any other.  Every strategy returns just
its train set.

Determinism: identical (input, config, seed) always yields the identical
dataset.  Random truncation draws one counter-keyed ``rng`` value per
entry, keyed by (seed, query_id, iteration, position); resampling
randomness lives entirely in the sampler's per-(query, counter) streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Protocol

import numpy as np

from . import rng
from .core import (
    COLUMNS,
    ORIGIN_CORRECTED,
    ORIGIN_RANK,
    ORIGIN_RESAMPLED_AR,
    ORIGIN_RESAMPLED_GR,
    ROLE_DISCARD,
    ROLE_FILTER,
    ROLE_SAMPLE,
    Corpus,
    TrajectoryDataset,
    merge_datasets,
    run_positions,
)
from .rewards import (
    cot_length_filter,
    filter_dataset,
    reward,  # noqa: F401 -- unused here; perfbench/tracer.py wraps strategies.reward
)


class Kind(NamedTuple):
    """The sweep axes a strategy kind reads besides K, and whether it resamples.

    ``min_cot_tokens`` is no axis: ``sc`` reads it in a run, and every
    kind offline.
    """

    knobs: tuple[str, ...]  # where L is read it must not exceed K
    resamples: bool  # needs a sampler, so it runs in the loop only, never offline


# every kind's facts, in the order the CLI lists the kinds
KINDS = {
    "vanilla": Kind((), False), "tc": Kind(("L",), False), "hc": Kind((), False), "rp": Kind((), False),
    "ri": Kind((), False), "ar": Kind((), True), "gr": Kind(("L", "S"), True), "sc": Kind((), True),
}


class SamplerError(RuntimeError):
    """A sampler call failed; the strategy aborts without a partial train set."""


class Draws(NamedTuple):
    """A batch of sampled responses, one row per request in request order."""

    iteration: int  # the loop iteration the draws belong to
    length_tokens: np.ndarray  # full response length, kept prefix included
    correct: np.ndarray  # the sampler's own correctness flag
    answers: np.ndarray  # extracted answers (object array); the simulator's wrong draws answer ""


class Sampler(Protocol):
    """Sampling capability bound to the current-iteration policy.

    Each method makes one pass's requests in one call.  ``corpus`` holds
    every requested query and ``query_ids`` holds one request per row; row
    i of the returned :class:`Draws` answers request i, and requests for
    one query are drawn in row order.
    """

    def sample_fresh(self, corpus: Corpus, query_ids: np.ndarray) -> Draws:
        """One fresh response per row."""

    def sample_guided(
        self,
        corpus: Corpus,
        query_ids: np.ndarray,
        prefix_tokens: np.ndarray,
        steps: np.ndarray,
        total_steps: int,
    ) -> Draws:
        """Per row: continue a successful response of the query from the
        prefix before step ``steps[i]`` of ``total_steps``, which is
        ``prefix_tokens[i]`` tokens long."""

    def sample_corrections(self, corpus: Corpus, query_ids: np.ndarray) -> Draws:
        """Per row: a revision of a failed response of the query."""


def check_int64(name: str, value: int, low: int) -> None:
    """ValueError unless low <= value < 2**63: knobs and counts become int64 columns and counters."""
    if value < low:
        raise ValueError(f"{name} must be >= {low}")
    if value >= 2**63:
        raise ValueError(f"{name} must be < 2**63")


@dataclass(frozen=True)
class StrategyConfig:
    """Which rebalancing transform to run and its knobs.

    K and the seed are not among them: a run's strategy reads the run's
    ``k_samples`` and ``seed``, and an offline rebalance reads the log's
    sampling number and its own ``seed`` argument.
    """

    kind: str = "vanilla"
    L: int = 4
    S: int = 4
    min_cot_tokens: int = 10

    def validate(self, K: int) -> None:
        """ValueError unless the knobs suit ``kind`` at sampling number ``K``."""
        if self.kind not in KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        check_int64("L", self.L, 1)
        check_int64("S", self.S, 2)
        check_int64("K", K, 1)
        if "L" in KINDS[self.kind].knobs and self.L > K:
            raise ValueError(f"L must not exceed K ({self.L} > {K})")
        check_int64("min_cot_tokens", self.min_cot_tokens, 0)


def _require_filter(filtered: TrajectoryDataset) -> None:
    if filtered.role != ROLE_FILTER:
        raise ValueError(f"expected a filter dataset, got role {filtered.role!r}")


def vanilla(filtered: TrajectoryDataset) -> TrajectoryDataset:
    """Train on the filtered set as-is: the set itself."""
    _require_filter(filtered)
    return filtered


def threshold_clip(
    filtered: TrajectoryDataset, L: int, seed: int, iteration: int = 1
) -> TrajectoryDataset:
    """Keep at most L correct responses per query, randomly truncated.

    Every entry draws ``rng.uniform`` on the THRESHOLD_CLIP stream, keyed by
    the seed, its query id and a counter that packs the iteration (high 32
    bits) with the entry's position within its query (low 32 bits).  Each
    query keeps its L smallest draws, a uniform random L-subset, in input
    order; queries at or under the threshold pass through untouched.
    """
    _require_filter(filtered)
    check_int64("L", L, 1)
    # canonical order sorts by query id, so each query is one contiguous run
    qids = filtered.columns["query_id"]
    position = np.arange(len(qids)) - np.searchsorted(qids, qids)
    u = rng.uniform(seed, rng.THRESHOLD_CLIP, qids, (iteration << 32) + position)
    rank = np.empty(len(qids), dtype=np.int64)
    rank[np.lexsort((u, qids))] = position  # a query's sorted run keeps its slots
    return filtered.select(np.flatnonzero(rank < L), ROLE_FILTER)


def head_clip(filtered: TrajectoryDataset, K: int) -> TrajectoryDataset:
    """Drop every query that answered all K draws correctly."""
    _require_filter(filtered)
    check_int64("K", K, 1)
    return filtered.select(np.flatnonzero(filtered.row_counts() != K), ROLE_FILTER)


def _cycled(filtered: TrajectoryDataset, targets) -> TrajectoryDataset:
    """Each query's rows cycled to its target count, re-sorted.

    A query with rows r_1..r_k and target m contributes r_((j-1) mod k)+1
    for j = 1..m, so the first m rows when m <= k.
    """
    _, starts, counts = filtered.query_runs()
    targets = np.broadcast_to(np.maximum(targets, 0), counts.shape)
    rows = np.repeat(starts, targets) + run_positions(targets) % np.repeat(counts, targets)
    return filtered.select(rows, ROLE_FILTER)


def repeat_pad(filtered: TrajectoryDataset, K: int) -> TrajectoryDataset:
    """Pad every solved query to exactly K entries by cycling its responses.

    A query with k_i correct responses contributes each of them either
    ceil(K/k_i) or floor(K/k_i) times; unsolved queries contribute nothing.
    """
    _require_filter(filtered)
    check_int64("K", K, 1)
    return _cycled(filtered, K)


def repeat_invert(filtered: TrajectoryDataset, K: int) -> TrajectoryDataset:
    """Aim each query at K - k_i entries, truncating or padding by repetition.

    Fully-correct queries vanish (target 0); rarely-correct queries are
    inflated toward K - k_i by the same cycling rule as repeat_pad.
    """
    _require_filter(filtered)
    check_int64("K", K, 1)
    _, _, counts = filtered.query_runs()
    return _cycled(filtered, K - counts)


def _drawn(method, *requests) -> Draws:
    """One batched sampler call; any other failure becomes a SamplerError."""
    try:
        return method(*requests)
    except SamplerError:  # the sampler's own reason, kept
        raise
    except Exception as exc:
        raise SamplerError("sampler error") from exc


def _resampled(
    draws: Draws, corpus: Corpus, origin: str, **columns: np.ndarray
) -> TrajectoryDataset:
    """The draws as a sample dataset of ``origin`` rows over ``corpus``.

    ``columns`` gives query_id and sample_index per row and, for
    guided draws, prefix_steps and prefix_tokens.
    """
    return TrajectoryDataset(
        ROLE_SAMPLE,
        {
            "iteration": draws.iteration,
            "origin": ORIGIN_RANK[origin],
            "length_tokens": draws.length_tokens,
            "correct": draws.correct,
            "answer": draws.answers,
            **columns,
        },
        corpus,
    )


def adaptive_resample(
    filtered: TrajectoryDataset, corpus: Corpus, sampler: Sampler, K: int
) -> TrajectoryDataset:
    """Draw K - k_i fresh responses per corpus query, refilter, merge.

    Resampling weight follows the fail rate: queries the policy already
    masters get nothing, unsolved queries get the full K extra draws.  A
    query holding K or more rows (a union pool can) gets nothing either.
    Returns the train set: ``filtered`` merged with the correct draws, its
    ``resampled_ar`` rows.
    """
    _require_filter(filtered)
    check_int64("K", K, 1)
    deficit = np.maximum(K - filtered.count_of(corpus.ids), 0)
    query_ids = np.repeat(corpus.ids, deficit)
    resampled = _resampled(
        _drawn(sampler.sample_fresh, corpus, query_ids),
        corpus,
        ORIGIN_RESAMPLED_AR,
        query_id=query_ids,
        sample_index=run_positions(deficit) + 1,
    )
    return merge_datasets(filtered, filter_dataset(resampled))


def _prefix_tokens(length_tokens, S: int, kept):
    """Tokens before step ``kept + 1`` (``kept`` from 0 to S - 1) of a
    response cut into S near-equal steps, larger steps first:
    ``kept * base + min(kept, extra)`` with ``base, extra = divmod(length_tokens, S)``."""
    base, extra = divmod(length_tokens, S)
    return kept * base + np.minimum(kept, extra)


def guided_resample(
    filtered: TrajectoryDataset, sampler: Sampler, L: int, S: int
) -> TrajectoryDataset:
    """Resample tail queries from intermediate steps of their kept responses.

    For every query with 0 < k_i < L, each of its correct trajectories
    seeds S guided draws, one per step prefix (step 1 is the empty prefix,
    i.e. a plain resample).  Trajectories too short to split into S steps
    contribute only their empty-prefix draw.  Returns the train set:
    ``filtered`` merged with the correct draws, its ``resampled_gr`` rows.
    """
    _require_filter(filtered)
    check_int64("L", L, 1)
    check_int64("S", S, 2)
    c = filtered.columns
    donors = np.flatnonzero(filtered.row_counts() < L)
    n_steps = np.where(c["length_tokens"][donors] >= S, S, 1)
    rows = np.repeat(donors, n_steps)
    kept = run_positions(n_steps)  # steps kept from the donor, 0..S-1
    prefix_tokens = _prefix_tokens(c["length_tokens"][rows], S, kept)
    query_ids = c["query_id"][rows]
    resampled = _resampled(
        _drawn(sampler.sample_guided, filtered.corpus, query_ids, prefix_tokens, kept + 1, S),
        filtered.corpus,
        ORIGIN_RESAMPLED_GR,
        query_id=query_ids,
        sample_index=c["sample_index"][rows],
        prefix_steps=kept,
        prefix_tokens=prefix_tokens,
    )
    return merge_datasets(filtered, filter_dataset(resampled))


def self_correct_augment(
    filtered: TrajectoryDataset, discard: TrajectoryDataset, sampler: Sampler, K: int, min_cot_tokens: int
) -> TrajectoryDataset:
    """Revise discarded responses and train on the verified corrections.

    Every discarded response of a query with k_i < K gets one correction
    attempt.  A correction survives only if it earns reward 1 and its length
    clears the reasoning floor; each survivor contributes two train entries:
    the correction pair (linked to the wrong response it fixes) and the
    plain corrected response.
    """
    _require_filter(filtered)
    if discard.role != ROLE_DISCARD:
        raise ValueError(f"expected a discard dataset, got role {discard.role!r}")
    check_int64("K", K, 1)
    c = discard.columns
    rows = np.flatnonzero(filtered.count_of(c["query_id"]) < K)
    query_ids = c["query_id"][rows]
    attempts = _resampled(
        _drawn(sampler.sample_corrections, discard.corpus, query_ids),
        discard.corpus,
        ORIGIN_CORRECTED,
        query_id=query_ids,
        sample_index=c["sample_index"][rows],
    )
    kept = cot_length_filter(filter_dataset(attempts), min_cot_tokens)
    pairs = dict(kept.columns, corrected_from=kept.columns["sample_index"])
    corrections = TrajectoryDataset(
        ROLE_FILTER,
        {name: np.concatenate((pairs[name], kept.columns[name])) for name in COLUMNS},
        kept.corpus,
    )
    return merge_datasets(filtered, corrections)


def reshape(
    kind: str, filtered: TrajectoryDataset, K: int, L: int = 4, seed: int = 0, iteration: int = 1
) -> TrajectoryDataset:
    """Dispatch for the sampler-free strategies (vanilla/tc/hc/rp/ri)."""
    if kind == "vanilla":
        return vanilla(filtered)
    if kind == "tc":
        return threshold_clip(filtered, L, seed, iteration)
    if kind == "hc":
        return head_clip(filtered, K)
    if kind == "rp":
        return repeat_pad(filtered, K)
    if kind == "ri":
        return repeat_invert(filtered, K)
    raise ValueError(f"strategy {kind!r} requires a sampler; offline mode supports reshaping only")
