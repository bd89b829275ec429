"""The simulated policy: sampling, guided sampling, correction, training.

Real fine-tuning is out of scope; in its place sits a parametric surrogate
that tracks, per query, a success probability and, per difficulty level, a
mean log response length.  Training moves these toward the training set:

* exposure update: a query appearing c times in a train set of sampling
  number K gains ``learn_rate * min(c/K, 1) * (1 - p)``;
* forgetting: a query absent from the train set decays to ``(1 - forget_rate) * p``;
* length imitation: per-level mean log-lengths blend toward the train set's
  per-level means (or its global mean for levels with no entries).

These are the minimal dynamics that can express both "learning what you
train on" and the squeeze-out of rarely-successful queries whose drift the
rebalancing strategies are meant to counter.  Default parameter values are
calibration targets chosen so the stock simulation reproduces the collapse
phenomenology (see README); they are knobs, not measurements.

Every draw is keyed by (root_seed, query_id, draw counter), so the
trajectory sequence of a query is a pure function of its counter sequence
no matter how draws interleave across queries.  The batched samplers
(:meth:`LearnerState.sample_batch`, ``sample_fresh``, ``sample_guided``,
``sample_corrections``) replay exactly the same draws as a loop of the
scalar calls, just vectorized; :meth:`LearnerState.pass_rates` is checked
the same way against a scalar reference in ``tests/oracles.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import rng
from .core import (
    LEVELS,
    ORIGIN_CORRECTED,
    ORIGIN_RESAMPLED_GR,
    ROLE_SAMPLE,
    ROLE_TRAIN,
    QueryRecord,
    Trajectory,
    TrajectoryDataset,
    object_array,
    run_positions,
)
from .strategies import Draws, split_steps


@dataclass(frozen=True)
class LearnerParams:
    """Surrogate dynamics knobs; all rates live on [0, 1] style ranges.

    The defaults are calibrated so the stock simulation (N=2000, K=8, T=5,
    vanilla training) shows the head-tail collapse clearly against sampling
    noise: a small learn rate keeps the near-ceiling easy levels moving in
    lockstep while a large forget rate drives the rarely-solved tail out of
    the data distribution iteration over iteration.
    """

    learn_rate: float = 0.03
    forget_rate: float = 0.7
    length_imitation: float = 0.5
    prefix_gain: float = 1.0
    correction_base: float = 0.2
    correction_slope: float = 0.5
    sigma_log_len: float = 0.3
    init_noise: float = 0.05
    p_floor: float = 0.02
    p_ceiling: float = 0.98
    correction_length_boost: float = 0.2

    def validate(self) -> None:
        if not 0.0 < self.learn_rate <= 1.0:
            raise ValueError("learn_rate must be in (0, 1]")
        if not 0.0 <= self.forget_rate < 1.0:
            raise ValueError("forget_rate must be in [0, 1)")
        if not 0.0 <= self.length_imitation <= 1.0:
            raise ValueError("length_imitation must be in [0, 1]")
        if self.prefix_gain <= 0.0:
            raise ValueError("prefix_gain must be > 0")
        if not 0.0 <= self.correction_base <= 1.0 or not 0.0 <= self.correction_slope <= 1.0:
            raise ValueError("correction parameters must be in [0, 1]")
        if self.sigma_log_len <= 0.0:
            raise ValueError("sigma_log_len must be > 0")
        if self.init_noise < 0.0:
            raise ValueError("init_noise must be >= 0")
        if not 0.0 <= self.p_floor <= self.p_ceiling <= 1.0:
            raise ValueError("need 0 <= p_floor <= p_ceiling <= 1")


@dataclass(frozen=True)
class CorpusParams:
    """Synthetic corpus shape: a mostly-easy head and a genuinely hard tail.

    The bimodal split mirrors the regime the simulator studies: three of
    the five calibrated levels sit in the well-mastered head, the other two
    in a hard band whose pass rates are low enough to be squeezed out.
    """

    easy_fraction: float = 0.6
    easy_difficulty: tuple[float, float] = (0.01, 0.05)
    hard_difficulty: tuple[float, float] = (0.80, 0.995)
    base_tokens: float = 120.0
    length_slope: float = 1.4
    length_jitter: float = 0.05

    def __post_init__(self) -> None:
        # JSON round-trips tuples as lists
        object.__setattr__(self, "easy_difficulty", tuple(self.easy_difficulty))
        object.__setattr__(self, "hard_difficulty", tuple(self.hard_difficulty))

    def validate(self) -> None:
        if not 0.0 <= self.easy_fraction <= 1.0:
            raise ValueError("easy_fraction must be in [0, 1]")
        for lo, hi in (self.easy_difficulty, self.hard_difficulty):
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValueError("difficulty ranges must satisfy 0 <= lo <= hi <= 1")
        if self.base_tokens < 1.0:
            raise ValueError("base_tokens must be >= 1")


def guided_success_probability(p: float, step: int, total_steps: int, gain: float) -> float:
    """Success chance when continuing from the prefix before the given step.

    With f = (step - 1) / total_steps the kept fraction of a successful
    trajectory: 1 - (1 - p) * (1 - f)**gain.  Equals p at step 1 and is
    non-decreasing in the step, since following more of a correct solution
    leaves less room to go wrong.
    """
    f = (step - 1) / total_steps
    return 1.0 - (1.0 - p) * (1.0 - f) ** gain


def synth_corpus(n: int, seed: int, params: CorpusParams = CorpusParams()) -> list[QueryRecord]:
    """Generate a corpus of n queries with latent difficulties and base lengths."""
    if n < 1:
        raise ValueError("corpus size must be >= 1")
    params.validate()
    ids = np.arange(n, dtype=np.uint64)
    u = rng.uniform(seed, rng.CORPUS_DIFFICULTY, ids, np.zeros(n, dtype=np.uint64))
    lo_e, hi_e = params.easy_difficulty
    lo_h, hi_h = params.hard_difficulty
    ef = params.easy_fraction
    easy = u < ef
    d = np.where(
        easy,
        lo_e + (u / max(ef, 1e-12)) * (hi_e - lo_e),
        lo_h + ((u - ef) / max(1.0 - ef, 1e-12)) * (hi_h - lo_h),
    )
    jitter = params.length_jitter * rng.normal(
        seed, rng.CORPUS_LENGTH, ids, np.zeros(n, dtype=np.uint64)
    )
    log_len = math.log(params.base_tokens) + params.length_slope * d + jitter
    return [
        QueryRecord(
            id=i,
            gt_answer=f"a{i}",
            latent_difficulty=float(np.clip(d[i], 0.0, 1.0)),
            level=None,
            base_log_length=float(log_len[i]),
        )
        for i in range(n)
    ]


@dataclass
class LearnerState:
    """Mutable-counter snapshot of the simulated policy.

    ``p`` and ``mu_log_len`` are the learned state; ``draw_counter`` is
    sampling bookkeeping that only ever increases.  ``clone`` gives an
    independent snapshot; ``train`` returns a new state and leaves the
    receiver untouched except for shared counters being copied.
    """

    iteration: int
    p: dict[int, float]
    mu_log_len: dict[int, float]
    params: LearnerParams
    root_seed: int
    draw_counter: dict[int, int] = field(default_factory=dict)

    # -- snapshots ---------------------------------------------------------

    def clone(self) -> "LearnerState":
        return LearnerState(
            iteration=self.iteration,
            p=dict(self.p),
            mu_log_len=dict(self.mu_log_len),
            params=self.params,
            root_seed=self.root_seed,
            draw_counter=dict(self.draw_counter),
        )

    def to_json(self) -> str:
        payload = {
            "iteration": self.iteration,
            "root_seed": self.root_seed,
            "params": self.params.__dict__,
            "p": {str(k): v for k, v in sorted(self.p.items())},
            "mu_log_len": {str(k): v for k, v in sorted(self.mu_log_len.items())},
            "draw_counter": {str(k): v for k, v in sorted(self.draw_counter.items())},
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    # -- internals ---------------------------------------------------------

    def _p_of(self, query: QueryRecord) -> float:
        try:
            return self.p[query.id]
        except KeyError:
            raise ValueError(f"unknown query {query.id}") from None

    def _mu_of(self, query: QueryRecord) -> float:
        if query.level is not None and query.level in self.mu_log_len:
            return self.mu_log_len[query.level]
        return query.base_log_length

    def _next_counter(self, query_id: int) -> int:
        ctr = self.draw_counter.get(query_id, 0)
        self.draw_counter[query_id] = ctr + 1
        return ctr

    def _draw(
        self,
        query: QueryRecord,
        prob: float,
        mu: float,
        *,
        scale: float = 1.0,
        prefix_tokens: int = 0,
        **fields,
    ) -> Trajectory:
        """One keyed draw: correct w.p. ``prob``, length lognormal around ``mu``.

        The generated length exp(mu + sigma * z) is scaled by ``scale``,
        rounded, floored at one token and appended to ``prefix_tokens``.
        The keys stay scalar: one-element arrays cost about 1.5x per draw.
        """
        ctr = self._next_counter(query.id)
        correct = bool(rng.uniform(self.root_seed, rng.CORRECT, query.id, ctr) < prob)
        z = float(rng.normal(self.root_seed, rng.LENGTH, query.id, ctr))
        length = max(1, int(round(math.exp(mu + self.params.sigma_log_len * z) * scale)))
        return Trajectory(
            query_id=query.id,
            sample_index=1,
            iteration=self.iteration + 1,
            length_tokens=prefix_tokens + length,
            extracted_answer=query.gt_answer if correct else f"wrong-{query.id}-{ctr}",
            correct=correct,
            prefix_tokens=prefix_tokens,
            **fields,
        )

    # -- sampling ----------------------------------------------------------

    def sample_response(self, query: QueryRecord) -> Trajectory:
        """One fresh draw: correct w.p. p_i, length lognormal around the level mean."""
        return self._draw(query, self._p_of(query), self._mu_of(query))

    def guided_sample(
        self, query: QueryRecord, prefix: Trajectory, step: int, total_steps: int
    ) -> Trajectory:
        """Continue a kept trajectory from the prefix before the given step.

        Success probability rises with the kept fraction f = (step-1)/S as
        1 - (1 - p_i) * (1 - f)**prefix_gain, so step 1 reduces to plain
        sampling and deeper prefixes approach certainty.
        """
        if not 1 <= step <= total_steps:
            raise ValueError(f"step must be in [1, {total_steps}], got {step}")
        if not prefix.correct:
            raise ValueError("guided sampling requires a successful prefix")
        p = self._p_of(query)
        p_cond = guided_success_probability(p, step, total_steps, self.params.prefix_gain)
        prefix_tokens = 0 if step == 1 else split_steps(prefix, total_steps)[step - 1]
        return self._draw(
            query,
            p_cond,
            self._mu_of(query),
            scale=1.0 - (step - 1) / total_steps,
            prefix_tokens=prefix_tokens,
            origin=ORIGIN_RESAMPLED_GR,
            prefix_steps=step - 1,
        )

    def correct_response(self, query: QueryRecord, wrong: Trajectory) -> Trajectory:
        """Revise a failed response; revisions run longer than fresh samples."""
        if wrong.correct:
            raise ValueError("correct_response expects a failed trajectory")
        p = self._p_of(query)
        prob = min(1.0, max(0.0, self.params.correction_base + self.params.correction_slope * p))
        mu = self._mu_of(query) + math.log1p(self.params.correction_length_boost)
        return self._draw(query, prob, mu, origin=ORIGIN_CORRECTED)

    def _query_columns(
        self, records: Mapping[int, QueryRecord], query_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per row: p, log-length mean and ground-truth answer of its query."""
        ids, inverse = np.unique(query_ids, return_inverse=True)
        recs = [records[q] for q in ids.tolist()]
        p = np.array([self._p_of(r) for r in recs], dtype=np.float64)
        mu = np.array([self._mu_of(r) for r in recs], dtype=np.float64)
        return p[inverse], mu[inverse], object_array(r.gt_answer for r in recs)[inverse]

    def _draw_rows(
        self,
        query_ids: np.ndarray,
        prob: np.ndarray,
        mu: np.ndarray,
        gt: np.ndarray,
        *,
        scale: np.ndarray | float = 1.0,
        prefix_tokens: np.ndarray | int = 0,
    ) -> Draws:
        """Vectorized ``_draw``: one keyed draw per row, rows in call order.

        Row i of query q takes counter draw_counter[q] plus the number of
        earlier rows of q, and the length arithmetic follows ``_draw`` op
        for op, so the rows equal a loop of scalar draws.  One
        ``rng.uniform`` and one ``rng.normal`` call serve all rows.
        """
        query_ids = np.asarray(query_ids, dtype=np.int64)
        if len(query_ids) == 0:
            empty = np.zeros(0, dtype=np.int64)
            return Draws(self.iteration + 1, empty, empty.astype(bool), object_array(()))
        ids, inverse, counts = np.unique(query_ids, return_inverse=True, return_counts=True)
        rank = np.empty(len(query_ids), dtype=np.int64)
        rank[np.argsort(inverse, kind="stable")] = run_positions(counts)
        starts = np.array([self.draw_counter.get(q, 0) for q in ids.tolist()], dtype=np.int64)
        counters = (starts[inverse] + rank).astype(np.uint64)
        keys = query_ids.astype(np.uint64)
        correct = rng.uniform(self.root_seed, rng.CORRECT, keys, counters) < prob
        z = rng.normal(self.root_seed, rng.LENGTH, keys, counters)
        # np.exp, unlike _draw's math.exp, may be off in the last bit; that
        # moves a rounded length only when exp(...) * scale lies within an
        # ulp of a half-integer, and the golden hashes pin the lengths
        lengths = np.maximum(
            1, np.rint(np.exp(mu + self.params.sigma_log_len * z) * scale).astype(np.int64)
        )
        answers = gt.copy()
        wrong = np.flatnonzero(~correct)
        answers[wrong] = [
            f"wrong-{q}-{c}" for q, c in zip(query_ids[wrong].tolist(), counters[wrong].tolist())
        ]
        self.draw_counter.update(zip(ids.tolist(), (starts + counts).tolist()))
        return Draws(self.iteration + 1, prefix_tokens + lengths, correct, answers)

    def sample_fresh(self, records: Mapping[int, QueryRecord], query_ids: np.ndarray) -> Draws:
        """Batched :meth:`sample_response`: one fresh draw per row."""
        p, mu, gt = self._query_columns(records, query_ids)
        return self._draw_rows(query_ids, p, mu, gt)

    def sample_guided(
        self,
        records: Mapping[int, QueryRecord],
        query_ids: np.ndarray,
        prefix_tokens: np.ndarray,
        steps: np.ndarray,
        total_steps: int,
    ) -> Draws:
        """Batched :meth:`guided_sample`: row i continues the prefix before
        step ``steps[i]``, ``prefix_tokens[i]`` tokens of a successful response."""
        steps = np.asarray(steps, dtype=np.int64)
        if np.any((steps < 1) | (steps > total_steps)):
            raise ValueError(f"steps must be in [1, {total_steps}]")
        p, mu, gt = self._query_columns(records, query_ids)
        # per step in Python floats, as guided_success_probability and
        # guided_sample compute them
        kept = [(step - 1) / total_steps for step in range(1, total_steps + 1)]
        factor = np.array([(1.0 - f) ** self.params.prefix_gain for f in kept])[steps - 1]
        scale = np.array([1.0 - f for f in kept])[steps - 1]
        return self._draw_rows(
            query_ids,
            1.0 - (1.0 - p) * factor,
            mu,
            gt,
            scale=scale,
            prefix_tokens=np.asarray(prefix_tokens, dtype=np.int64),
        )

    def sample_corrections(
        self, records: Mapping[int, QueryRecord], query_ids: np.ndarray
    ) -> Draws:
        """Batched :meth:`correct_response`: one revision of a failed response per row."""
        pr = self.params
        p, mu, gt = self._query_columns(records, query_ids)
        prob = np.minimum(1.0, np.maximum(0.0, pr.correction_base + pr.correction_slope * p))
        return self._draw_rows(query_ids, prob, mu + math.log1p(pr.correction_length_boost), gt)

    def sample_batch(self, corpus: list[QueryRecord], k: int) -> TrajectoryDataset:
        """K fresh draws per query, vectorized; replays scalar draws exactly."""
        if k < 1:
            raise ValueError("k must be >= 1")
        records = sorted(corpus, key=lambda r: r.id)
        table = {r.id: r for r in records}
        qids = np.repeat(np.array([r.id for r in records], dtype=np.int64), k)
        draws = self._draw_rows(qids, *self._query_columns(table, qids))
        columns = {
            "query_id": qids,
            "level": np.repeat([r.level or 0 for r in records], k),
            "iteration": draws.iteration,
            "sample_index": np.tile(np.arange(1, k + 1), len(records)),
            "length_tokens": draws.length_tokens,
            "correct": draws.correct,
        }
        # rows come out in canonical order: query id, then sample index
        return TrajectoryDataset(ROLE_SAMPLE, columns, draws.answers, table, sort=False)

    # -- measurement -------------------------------------------------------

    def pass_rates(self, corpus: list[QueryRecord], m: int) -> dict[int, float]:
        """Monte-Carlo pass@M per query, from a dedicated measurement stream:
        shot j of query q succeeds when its uniform keyed by (q, j) is below p_q."""
        if m < 1:
            raise ValueError("m must be >= 1")
        records = sorted(corpus, key=lambda r: r.id)
        qids = np.repeat([r.id for r in records], m).astype(np.uint64)
        counters = np.tile(np.arange(m, dtype=np.uint64), len(records))
        p = np.repeat([self._p_of(r) for r in records], m)
        hits = (rng.uniform(self.root_seed, rng.PASS_RATE, qids, counters) < p).reshape(
            len(records), m
        )
        means = hits.mean(axis=1)
        return {r.id: float(means[i]) for i, r in enumerate(records)}

    def eval_sampled_pass1(self, corpus: list[QueryRecord], tick: int) -> float:
        """Fraction of queries whose single held-out draw at this tick succeeds."""
        records = sorted(corpus, key=lambda r: r.id)
        qids = np.array([r.id for r in records], dtype=np.uint64)
        counters = np.full(len(records), tick, dtype=np.uint64)
        p = np.array([self._p_of(r) for r in records])
        return float(np.mean(rng.uniform(self.root_seed, rng.EVAL, qids, counters) < p))

    def eval_greedy_pass1(self, corpus: list[QueryRecord]) -> float:
        """Temperature-0 analog: a query counts solved iff p_i >= 0.5."""
        return float(np.mean([self._p_of(r) >= 0.5 for r in corpus]))

    # -- learning ----------------------------------------------------------

    def train(self, training_set: TrajectoryDataset, k: int) -> "LearnerState":
        """Exposure update toward the train set; returns the next policy.

        With c_i the multiplicity of query i: exposed queries move up by
        learn_rate * min(c_i/k, 1) * (1 - p_i), absent queries decay by the
        forget rate.  Per-level length means blend toward the train set's
        per-level mean log-lengths, falling back to the global train mean
        for levels with no entries.  An empty train set applies forgetting
        only.
        """
        if training_set.role != ROLE_TRAIN:
            raise ValueError(f"train expects a train dataset, got role {training_set.role!r}")
        if k < 1:
            raise ValueError("k must be >= 1")
        pr = self.params
        counts = training_set.counts_by_query()
        new_p: dict[int, float] = {}
        for qid, p in self.p.items():
            c = counts.get(qid, 0)
            if c > 0:
                new_p[qid] = p + pr.learn_rate * min(c / k, 1.0) * (1.0 - p)
            else:
                new_p[qid] = (1.0 - pr.forget_rate) * p
        new_mu = dict(self.mu_log_len)
        if len(training_set) > 0:
            # math.log, not np.log (they differ in the last bit for some
            # integers), taken once per distinct length
            distinct, where = np.unique(training_set.columns["length_tokens"], return_inverse=True)
            logs = np.array([math.log(max(1, n)) for n in distinct.tolist()])[where]
            level = training_set.columns["level"]
            global_mean = float(np.mean(logs))
            lam = pr.length_imitation
            for lv in new_mu:
                at_level = logs[level == lv]
                target = float(np.mean(at_level)) if len(at_level) else global_mean
                new_mu[lv] = (1.0 - lam) * new_mu[lv] + lam * target
        return LearnerState(
            iteration=self.iteration + 1,
            p=new_p,
            mu_log_len=new_mu,
            params=pr,
            root_seed=self.root_seed,
            draw_counter=dict(self.draw_counter),
        )


def init_learner(
    corpus: list[QueryRecord], params: LearnerParams = LearnerParams(), seed: int = 0
) -> LearnerState:
    """Fresh policy for a corpus: p_i from latent difficulty plus seeded noise.

    p_i = clamp(1 - latent_difficulty_i + eps_i, p_floor, p_ceiling) with
    eps_i ~ Normal(0, init_noise).  Per-level mean log-lengths come from the
    corpus base lengths when levels are assigned; before calibration they
    fall back to the global mean (sampling uses each query's own base
    length until its level exists).
    """
    if not corpus:
        raise ValueError("corpus must not be empty")
    params.validate()
    ids = np.array([r.id for r in corpus], dtype=np.uint64)
    if len(set(int(i) for i in ids)) != len(corpus):
        raise ValueError("query ids must be unique")
    eps = params.init_noise * rng.normal(
        seed, rng.INIT_NOISE, ids, np.zeros(len(corpus), dtype=np.uint64)
    )
    diff = np.array([r.latent_difficulty for r in corpus])
    p = np.clip(1.0 - diff + eps, params.p_floor, params.p_ceiling)
    by_level: dict[int, list[float]] = {}
    for r in corpus:
        if r.level is not None:
            by_level.setdefault(r.level, []).append(r.base_log_length)
    global_mean = float(np.mean([r.base_log_length for r in corpus]))
    mu = {
        level: (float(np.mean(by_level[level])) if level in by_level else global_mean)
        for level in LEVELS
    }
    return LearnerState(
        iteration=0,
        p={r.id: float(p[i]) for i, r in enumerate(corpus)},
        mu_log_len=mu,
        params=params,
        root_seed=seed,
        draw_counter={},
    )


def calibrate_difficulty(pass_rates: dict[int, float]) -> dict[int, int]:
    """Bucket queries into 5 balanced difficulty levels by pass rate.

    Sorted by descending pass rate (ties by ascending id), split into five
    contiguous groups whose sizes differ by at most one; the highest-pass
    group is level 1, the lowest level 5.
    """
    if not pass_rates:
        raise ValueError("pass_rates must not be empty")
    ordered = sorted(pass_rates, key=lambda qid: (-pass_rates[qid], qid))
    n = len(ordered)
    base, extra = divmod(n, len(LEVELS))
    levels: dict[int, int] = {}
    pos = 0
    for level in LEVELS:
        size = base + (1 if level <= extra else 0)
        for qid in ordered[pos : pos + size]:
            levels[qid] = level
        pos += size
    return levels
