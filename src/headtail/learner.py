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

The policy is arrays aligned to its :class:`~headtail.core.Corpus`: ``p``
and the draw counters hold one entry per query in ascending id order.
The batched samplers take query ids only: a state answers for the
corpus it was built over, and reads each query's facts there.  Every
draw is keyed by (root_seed, query_id, draw counter), so a query's
trajectories are a pure function of its counter sequence however draws
interleave.  One kernel makes every draw: the batched samplers call it
with one row per request, and ``sample_response``, ``guided_sample`` and
``correct_response`` are their one-row calls; a guided draw's kept prefix
comes from the closed form ``guided_resample`` uses.  ``tests/oracles.py``
holds the scalar draw reference the batched samplers replay, the per-step
prefix offsets (``split_steps``), and the per-query references that
``train``, ``init_learner``, ``calibrate_difficulty`` and ``pass_rates``
are checked against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from . import rng
from .core import (
    LEVELS,
    ORIGIN_CORRECTED,
    ORIGIN_RESAMPLED_GR,
    ROLE_FILTER,
    ROLE_SAMPLE,
    Corpus,
    QueryRecord,
    Trajectory,
    TrajectoryDataset,
    array_mean,
    object_array,
    run_positions,
)
from .rewards import DEFAULT_SYMBOL_ALIASES, _normalize_all
from .strategies import Draws, SamplerError, _prefix_tokens, check_int64


def _check_finite(params: LearnerParams | CorpusParams) -> None:
    """ValueError on the first field, or field's element, that is not a finite float."""
    for name, value in vars(params).items():
        try:
            finite = all(map(math.isfinite, value if isinstance(value, tuple) else (value,)))
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise ValueError(f"{name} must be finite, got {value!r}")


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
        _check_finite(self)
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
        if self.correction_length_boost <= -1.0:
            raise ValueError("correction_length_boost must be > -1")


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
        _check_finite(self)
        if not 0.0 <= self.easy_fraction <= 1.0:
            raise ValueError("easy_fraction must be in [0, 1]")
        for lo, hi in (self.easy_difficulty, self.hard_difficulty):
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValueError("difficulty ranges must satisfy 0 <= lo <= hi <= 1")
        if self.base_tokens < 1.0:
            raise ValueError("base_tokens must be >= 1")


def synth_corpus(n: int, seed: int, params: CorpusParams = CorpusParams()) -> Corpus:
    """Generate a corpus of n queries (ids 0..n-1) with latent difficulties and base lengths."""
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
    return Corpus(
        ids,
        object_array(f"a{i}" for i in range(n)),
        latent_difficulty=np.clip(d, 0.0, 1.0),
        base_log_length=log_len,
    )


@dataclass
class LearnerState:
    """Mutable-counter snapshot of the simulated policy over one corpus.

    ``p`` (each query's success probability) and ``draw_counter`` hold one
    entry per row of ``corpus``; ``mu_log_len`` maps a level to its mean
    log-length.  ``p`` and ``mu_log_len`` are the learned state;
    ``draw_counter`` is sampling bookkeeping that only ever increases.
    ``clone`` gives an independent snapshot; ``train`` returns a new state
    over the same corpus and leaves the receiver untouched.
    """

    iteration: int
    corpus: Corpus
    p: np.ndarray
    mu_log_len: dict[int, float]
    params: LearnerParams
    root_seed: int
    draw_counter: np.ndarray

    def __post_init__(self) -> None:
        self.p = np.asarray(self.p, dtype=np.float64)
        self.draw_counter = np.asarray(self.draw_counter, dtype=np.int64)
        if not len(self.p) == len(self.draw_counter) == len(self.corpus):
            raise ValueError("p and draw_counter need one entry per corpus query")

    # -- snapshots ---------------------------------------------------------

    def clone(self) -> "LearnerState":
        return replace(
            self, p=self.p.copy(), mu_log_len=dict(self.mu_log_len), draw_counter=self.draw_counter.copy()
        )

    def to_json(self) -> str:
        """``json.dumps(..., sort_keys=True, indent=2)`` of the state, with
        ``p`` and ``draw_counter`` as maps keyed by query id as text.

        Those two maps are joined here, not encoded: with ``indent`` set,
        ``json`` runs its pure-Python encoder.  Their keys sort as strings,
        as ``sort_keys`` sorts them (``"10"`` before ``"2"``); the other
        fields go through ``json.dumps``, shifted one level in.
        """
        keys = [str(q) for q in self.corpus.ids.tolist()]
        order = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.int64)
        heads = [f',\n    "{keys[i]}": ' for i in order.tolist()]
        fields = {
            "iteration": self.iteration,
            "root_seed": self.root_seed,
            "params": self.params.__dict__,
            "mu_log_len": {str(k): v for k, v in sorted(self.mu_log_len.items())},
        }
        texts = {k: json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n  ") for k, v in fields.items()}
        texts["p"] = _json_map(heads, self.p[order])
        texts["draw_counter"] = _json_map(heads, self.draw_counter[order])
        return "{\n" + ",\n".join(f'  "{k}": {texts[k]}' for k in sorted(texts)) + "\n}"

    # -- sampling ----------------------------------------------------------

    def _mu(self, rows: np.ndarray) -> np.ndarray:
        """Per corpus row: its level's learned mean log-length, or its base
        log-length while its level is unset or has no mean."""
        by_level = np.array([np.nan] + [self.mu_log_len.get(level, np.nan) for level in LEVELS])
        mu = by_level[self.corpus.level[rows]]
        return np.where(np.isnan(mu), self.corpus.base_log_length[rows], mu)

    def _query_columns(self, query_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per row: its query's corpus row, p, log-length mean and ground truth."""
        rows = self.corpus.rows(query_ids)
        return rows, self.p[rows], self._mu(rows), self.corpus.gt_answer[rows]

    def _draw_rows(
        self, own: np.ndarray, prob: np.ndarray, mu: np.ndarray, gt: np.ndarray, *,
        scale: np.ndarray | float = 1.0, prefix_tokens: np.ndarray | int = 0,
    ) -> Draws:
        """The draw kernel: one keyed draw per row, rows in call order.

        Row i draws for the query at row ``own[i]`` of the corpus and takes
        its draw counter plus the number of earlier rows of that query, so
        the rows equal a loop of one-row draws.  It is correct w.p.
        ``prob[i]``; its length exp(mu + sigma * z), scaled by ``scale``,
        rounded and floored at one token, is appended to ``prefix_tokens``.
        A correct row's answer is its ground truth ``gt[i]``; every wrong
        row's is ``""``, nothing extracted, one string for all of them: the
        filter needs only whether a draw matches, and ``init_learner``
        rejects a corpus whose ground truth normalizes to ``""``.
        One ``rng.uniform`` and one ``rng.normal`` call serve all rows.  A
        length, prefix included, that is not finite or does not fit int64
        is a SamplerError, raised before any counter moves.
        """
        if len(own) == 0:
            empty = np.zeros(0, dtype=np.int64)
            return Draws(self.iteration + 1, empty, empty.astype(bool), object_array(()))
        rows, inverse, counts = np.unique(own, return_inverse=True, return_counts=True)
        rank = np.empty(len(own), dtype=np.int64)
        rank[np.argsort(inverse, kind="stable")] = run_positions(counts)
        counters = (self.draw_counter[rows][inverse] + rank).astype(np.uint64)
        keys = self.corpus.ids[own].astype(np.uint64)
        correct = rng.uniform(self.root_seed, rng.CORRECT, keys, counters) < prob
        z = rng.normal(self.root_seed, rng.LENGTH, keys, counters)
        # np.exp, unlike the scalar reference's math.exp, may be off in the
        # last bit; that moves a rounded length only when exp(...) * scale
        # lies within an ulp of a half-integer, and the golden hashes pin
        # the lengths
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
            lengths = np.maximum(1.0, np.rint(np.exp(mu + self.params.sigma_log_len * z) * scale))
            tokens = prefix_tokens + lengths.astype(np.int64)
        # a float below 2**63 (so not NaN) casts exactly, and a total past int64 wraps below 1
        if not np.all(lengths < 2.0**63) or np.any(tokens < 1):
            raise SamplerError("a drawn length does not fit in 64 bits")
        self.draw_counter[rows] += counts
        return Draws(self.iteration + 1, tokens, correct, np.where(correct, gt, ""))

    def sample_fresh(self, query_ids: np.ndarray) -> Draws:
        """One fresh draw per row: correct w.p. p_i, length lognormal around the level mean."""
        return self._draw_rows(*self._query_columns(query_ids))

    def sample_guided(
        self, query_ids: np.ndarray, prefix_tokens: np.ndarray, steps: np.ndarray, total_steps: int
    ) -> Draws:
        """Row i continues the prefix before step ``steps[i]``,
        ``prefix_tokens[i]`` tokens of a successful response.

        Success probability rises with the kept fraction f = (step-1)/S as
        1 - (1 - p_i) * (1 - f)**prefix_gain, so step 1 reduces to plain
        sampling and deeper prefixes approach certainty.
        """
        steps = np.asarray(steps, dtype=np.int64)
        if np.any((steps < 1) | (steps > total_steps)):
            raise ValueError(f"steps must be in [1, {total_steps}]")
        own, p, mu, gt = self._query_columns(query_ids)
        # per step in Python floats, as the scalar reference in tests/oracles.py computes them
        kept = [(step - 1) / total_steps for step in range(1, total_steps + 1)]
        factor = np.array([(1.0 - f) ** self.params.prefix_gain for f in kept])[steps - 1]
        scale = np.array([1.0 - f for f in kept])[steps - 1]
        return self._draw_rows(
            own,
            1.0 - (1.0 - p) * factor,
            mu,
            gt,
            scale=scale,
            prefix_tokens=np.asarray(prefix_tokens, dtype=np.int64),
        )

    def sample_corrections(self, query_ids: np.ndarray) -> Draws:
        """One revision of a failed response per row; revisions run longer than fresh samples."""
        pr = self.params
        own, p, mu, gt = self._query_columns(query_ids)
        prob = np.minimum(1.0, np.maximum(0.0, pr.correction_base + pr.correction_slope * p))
        return self._draw_rows(own, prob, mu + math.log1p(pr.correction_length_boost), gt)

    def sample_batch(self, k: int) -> TrajectoryDataset:
        """K fresh draws per corpus query."""
        check_int64("k", k, 1)
        c = self.corpus
        own = np.repeat(np.arange(len(c)), k)
        draws = self._draw_rows(own, self.p[own], self._mu(own), c.gt_answer[own])
        columns = {
            "query_id": c.ids[own],
            "iteration": draws.iteration,
            "sample_index": np.tile(np.arange(1, k + 1), len(c)),
            "length_tokens": draws.length_tokens,
            "correct": draws.correct,
            "answer": draws.answers,
        }
        return TrajectoryDataset(ROLE_SAMPLE, columns, c)

    # -- one-row sampling --------------------------------------------------

    def _one_row(self, query: QueryRecord, sample, *args, **fields) -> Trajectory:
        """One draw for ``query``'s id by a batched sampler, as a trajectory
        with the given fields; the draw reads the query's facts from this
        state's corpus, so of ``query`` only its id is read."""
        draws = sample(np.array([query.id]), *args)
        return Trajectory(
            query_id=query.id, sample_index=1, iteration=draws.iteration,
            length_tokens=int(draws.length_tokens[0]), extracted_answer=draws.answers[0],
            correct=bool(draws.correct[0]), **fields,
        )

    def sample_response(self, query: QueryRecord) -> Trajectory:
        """One-row :meth:`sample_fresh`; of ``query`` only its id is read."""
        return self._one_row(query, self.sample_fresh)

    def guided_sample(
        self, query: QueryRecord, prefix: Trajectory, step: int, total_steps: int
    ) -> Trajectory:
        """One-row :meth:`sample_guided`, continuing ``prefix`` from the given
        step: past step 1 it keeps the tokens before that step of ``prefix``
        cut into ``total_steps`` near-equal steps, which must each hold one.
        Of ``query`` only its id is read."""
        if not 1 <= step <= total_steps:
            raise ValueError(f"step must be in [1, {total_steps}], got {step}")
        if not prefix.correct:
            raise ValueError("guided sampling requires a successful prefix")
        tokens = 0
        if step > 1:
            check_int64("S", total_steps, 2)
            if prefix.length_tokens < total_steps:
                raise ValueError("trajectory too short to split")
            tokens = int(_prefix_tokens(prefix.length_tokens, total_steps, step - 1))
        return self._one_row(
            query, self.sample_guided, np.array([tokens]), np.array([step]), total_steps,
            origin=ORIGIN_RESAMPLED_GR, prefix_steps=step - 1, prefix_tokens=tokens,
        )

    def correct_response(self, query: QueryRecord, wrong: Trajectory) -> Trajectory:
        """One-row :meth:`sample_corrections`, revising ``wrong``; of
        ``query`` only its id is read."""
        if wrong.correct:
            raise ValueError("correct_response expects a failed trajectory")
        return self._one_row(query, self.sample_corrections, origin=ORIGIN_CORRECTED)

    def with_levels(self, levels: np.ndarray) -> "LearnerState":
        """This state over its corpus with ``levels`` set, and each level's
        mean log-length taken from them as :func:`init_learner` takes it.
        ``p`` and the draw counters are shared, not copied."""
        corpus = replace(self.corpus, level=levels)
        mu_log_len = _level_means(corpus.base_log_length, corpus.level, LEVELS)
        return replace(self, corpus=corpus, mu_log_len=mu_log_len)

    # -- measurement -------------------------------------------------------

    def pass_rates(self, m: int) -> np.ndarray:
        """Monte-Carlo pass@M per corpus query, from a dedicated measurement
        stream: shot j of query q succeeds when its uniform keyed by (q, j) is below p_q."""
        check_int64("m", m, 1)
        n = len(self.corpus)
        qids = np.repeat(self.corpus.ids, m).astype(np.uint64)
        counters = np.tile(np.arange(m, dtype=np.uint64), n)
        hits = rng.uniform(self.root_seed, rng.PASS_RATE, qids, counters) < np.repeat(self.p, m)
        return hits.reshape(n, m).mean(axis=1)

    def eval_sampled_pass1(self, tick: int) -> float:
        """Fraction of queries whose single held-out draw at this tick succeeds."""
        qids = self.corpus.ids.astype(np.uint64)
        counters = np.full(len(qids), tick, dtype=np.uint64)
        return array_mean(rng.uniform(self.root_seed, rng.EVAL, qids, counters) < self.p)

    def eval_greedy_pass1(self) -> float:
        """Temperature-0 analog: a query counts solved iff p_i >= 0.5."""
        return array_mean(self.p >= 0.5)

    # -- learning ----------------------------------------------------------

    def train(self, training_set: TrajectoryDataset, k: int) -> "LearnerState":
        """Exposure update toward the train set; returns the next policy.

        The train set is a filter set, the successes a strategy kept; a
        sample or discard set is a ValueError.  With c_i the multiplicity of
        query i: exposed queries move up by learn_rate * min(c_i/k, 1) *
        (1 - p_i), absent queries decay by the forget rate.  Per-level
        length means blend toward the train set's per-level mean
        log-lengths, falling back to the global train mean for levels with
        no entries.  An empty train set applies forgetting only.
        """
        if training_set.role != ROLE_FILTER:
            raise ValueError(f"train expects a filter dataset, got role {training_set.role!r}")
        check_int64("k", k, 1)
        pr = self.params
        p = self.p
        counts = training_set.count_of(self.corpus.ids)
        new_p = np.where(
            counts > 0,
            p + pr.learn_rate * np.minimum(counts / k, 1.0) * (1.0 - p),
            (1.0 - pr.forget_rate) * p,
        )
        new_mu = dict(self.mu_log_len)
        if len(training_set) > 0:
            # math.log, not np.log (they differ in the last bit for some
            # integers), taken once per distinct length
            distinct, where = np.unique(training_set.columns["length_tokens"], return_inverse=True)
            logs = np.array([math.log(max(1, n)) for n in distinct.tolist()])[where]
            target = _level_means(logs, training_set.levels(), new_mu)
            lam = pr.length_imitation
            new_mu = {lv: (1.0 - lam) * mu + lam * target[lv] for lv, mu in new_mu.items()}
        return replace(
            self, iteration=self.iteration + 1, p=new_p, mu_log_len=new_mu,
            draw_counter=self.draw_counter.copy(),
        )


def _json_map(heads: list[str], values: np.ndarray) -> str:
    """A map one level into an ``indent=2`` JSON document, as ``json.dumps``
    writes it: entry i is ``heads[i]``, its separator and key, then
    ``values[i]``.  A finite float or an int prints by ``repr`` as ``json``
    prints it; NaN and the infinities go through ``json.dumps``."""
    if not heads:
        return "{}"
    finite = values.dtype.kind != "f" or bool(np.isfinite(values).all())
    parts = [""] * (2 * len(heads))
    parts[::2] = heads
    parts[1::2] = map(repr if finite else json.dumps, values.tolist())
    parts[0] = heads[0].replace(",", "{", 1)  # the first entry opens the map
    return "".join(parts) + "\n  }"


def _level_means(values: np.ndarray, levels: np.ndarray, keys: Iterable[int]) -> dict[int, float]:
    """Per level in ``keys``: the mean of ``values`` at that level, or of all of them where it has none."""
    overall = array_mean(values)
    by_level = {lv: values[levels == lv] for lv in keys}
    return {lv: array_mean(x) if len(x) else overall for lv, x in by_level.items()}


def init_learner(
    corpus: Corpus, params: LearnerParams = LearnerParams(), seed: int = 0
) -> LearnerState:
    """Fresh policy for a corpus: p_i from latent difficulty plus seeded noise.

    p_i = clamp(1 - latent_difficulty_i + eps_i, p_floor, p_ceiling) with
    eps_i ~ Normal(0, init_noise).  Per-level mean log-lengths come from the
    corpus base lengths when levels are assigned; before calibration they
    fall back to the global mean (sampling uses each query's own base
    length until its level exists).  A ground truth that normalizes to
    ``""`` is a ValueError: every wrong draw answers ``""`` (see
    :meth:`LearnerState._draw_rows`), which would then grade correct.
    """
    if len(corpus) == 0:
        raise ValueError("corpus must not be empty")
    if "" in _normalize_all(corpus.gt_answer.tolist(), DEFAULT_SYMBOL_ALIASES):
        raise ValueError("a ground-truth answer normalizes to the empty string")
    params.validate()
    n = len(corpus)
    eps = params.init_noise * rng.normal(
        seed, rng.INIT_NOISE, corpus.ids.astype(np.uint64), np.zeros(n, dtype=np.uint64)
    )
    p = np.clip(1.0 - corpus.latent_difficulty + eps, params.p_floor, params.p_ceiling)
    return LearnerState(
        iteration=0,
        corpus=corpus,
        p=p,
        mu_log_len=_level_means(corpus.base_log_length, corpus.level, LEVELS),
        params=params,
        root_seed=seed,
        draw_counter=np.zeros(n, dtype=np.int64),
    )


def calibrate_difficulty(pass_rates: np.ndarray) -> np.ndarray:
    """Bucket queries into 5 balanced difficulty levels by pass rate.

    ``pass_rates`` holds one rate per corpus row (ascending id), and the
    result one level per row.  Sorted by descending pass rate (ties by
    ascending id), the queries split into five contiguous groups whose
    sizes differ by at most one; the highest-pass group is level 1, the
    lowest level 5.
    """
    rates = np.asarray(pass_rates, dtype=np.float64)
    if len(rates) == 0:
        raise ValueError("pass_rates must not be empty")
    base, extra = divmod(len(rates), len(LEVELS))
    sizes = [base + (1 if level <= extra else 0) for level in LEVELS]
    levels = np.empty(len(rates), dtype=np.int64)
    levels[np.argsort(-rates, kind="stable")] = np.repeat(LEVELS, sizes)
    return levels
