"""Independent brute-force evaluations of the reshaping set-builder rules,
the metrics row, the snapshot line encoding and decoding, the log decoding,
the pass-rate measurement, the learner's draws, set-up, calibration,
training and state JSON, and answer normalization; and the per-row view of
a dataset that the library itself never builds: its rows as
``(QueryRecord, Trajectory)`` pairs (``entries``), a corpus as records,
the canonical order as a per-pair key and a response's step offsets.

These deliberately avoid the library's dataset machinery: plain dicts of
lists, straight loops.  Threshold clipping shares the library's pinned draw key
(one ``rng.uniform`` per entry on the THRESHOLD_CLIP stream) because the
subset choice is part of the definition; the per-entry counters and the
keep-the-L-smallest rule around it are re-derived here with scalar draws
(``uniform_scalar``, ``rng.uniform`` on Python ints).
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from pathlib import Path
from typing import Any, Callable

import numpy as np

from headtail import rng
from headtail.core import (
    LEVELS,
    ORIGIN_CORRECTED,
    ORIGIN_EXPLORED,
    ORIGIN_RANK,
    ORIGIN_RESAMPLED_GR,
    ORIGINS,
    ROLE_FILTER,
    Corpus,
    Entry,
    QueryRecord,
    Trajectory,
    TrajectoryDataset,
)
from headtail.harness import (
    _LOG_FIELDS,
    _LOG_REQUIRED,
    _SNAPSHOT_FIELDS,
    _SNAPSHOT_REQUIRED,
    SchemaError,
    TrajectoryLogRecord,
)
from headtail.strategies import check_int64


# -- the per-row view ----------------------------------------------------------


def records(corpus: Corpus) -> dict[int, QueryRecord]:
    """Query id -> its ``QueryRecord``, in id order."""
    columns = (corpus.ids, corpus.gt_answer, corpus.latent_difficulty, corpus.level, corpus.base_log_length)
    return {q: QueryRecord(q, gt, d, lv or None, b) for q, gt, d, lv, b in zip(*(c.tolist() for c in columns))}


def entries(ds: TrajectoryDataset) -> tuple[Entry, ...]:
    """The dataset's rows as (QueryRecord, Trajectory) pairs, in its order."""
    c = {name: col.tolist() for name, col in ds.columns.items()}
    by_id = records(ds.corpus)
    return tuple(
        (by_id[q], Trajectory(q, s, it, n, a, ok, ORIGINS[o], ps, pt, None if cf < 0 else cf))
        for q, s, it, n, a, ok, o, ps, pt, cf in zip(
            c["query_id"], c["sample_index"], c["iteration"], c["length_tokens"],
            c["answer"], c["correct"], c["origin"], c["prefix_steps"],
            c["prefix_tokens"], c["corrected_from"],
        )
    )


def entry_sort_key(entry: Entry) -> tuple:
    """One pair's place in canonical order."""
    _, t = entry
    link = -1 if t.corrected_from is None else t.corrected_from
    return (t.query_id, t.iteration, ORIGIN_RANK[t.origin], t.sample_index, t.prefix_steps, link)


def split_steps(traj: Trajectory, S: int) -> tuple[int, ...]:
    """Prefix token offsets that cut a trajectory into S near-equal steps.

    Chunk sizes differ by at most one, larger chunks first.  Returns the S
    offsets (0 = empty prefix, then the start of each later step).
    """
    check_int64("S", S, 2)
    if traj.length_tokens < S:
        raise ValueError("trajectory too short to split")
    base, extra = divmod(traj.length_tokens, S)
    offsets = [0]
    for s in range(S - 1):
        offsets.append(offsets[-1] + base + (1 if s < extra else 0))
    return tuple(offsets)


def group(entries):
    """query_id -> list of entries, preserving input order."""
    by = {}
    for e in entries:
        by.setdefault(e[1].query_id, []).append(e)
    return by


def entry_key(entry):
    r, t = entry
    return (
        t.query_id,
        t.iteration,
        t.origin,
        t.sample_index,
        t.prefix_steps,
        t.corrected_from,
        t.length_tokens,
        t.extracted_answer,
        t.correct,
    )


def same_multiset(a_entries, b_entries) -> bool:
    return Counter(map(entry_key, a_entries)) == Counter(map(entry_key, b_entries))


_MASK64 = (1 << 64) - 1
_GOLDEN64, _MIX1_64, _MIX2_64 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _squeeze64(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1_64 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2_64 & _MASK64
    return z ^ (z >> 31)


def uniform_scalar(root_seed: int, tag: int, query_id: int, counter: int) -> float:
    """``rng.uniform`` of one key on Python ints: the same SplitMix64 mixing,
    every product and sum taken modulo 2**64, then the top 53 bits over
    2**53.  A scalar draw this way skips numpy's 0-d overhead."""
    h = _squeeze64((root_seed + _GOLDEN64) & _MASK64)
    h = _squeeze64(h ^ (tag * _MIX1_64 & _MASK64))
    h = _squeeze64(h ^ (query_id * _GOLDEN64 & _MASK64))
    h = _squeeze64(h ^ (counter * _MIX2_64 & _MASK64))
    return (h >> 11) / float(1 << 53)


def oracle_tc(filter_entries, L, seed, iteration=1):
    """Each entry draws one scalar uniform keyed by (seed, query id,
    iteration * 2**32 + its position in the query); a query keeps the L
    entries with the smallest draws, in input order."""
    out = []
    for qid, items in group(filter_entries).items():
        draws = [
            uniform_scalar(seed, rng.THRESHOLD_CLIP, qid, iteration * 2**32 + pos)
            for pos in range(len(items))
        ]
        smallest = sorted(range(len(items)), key=lambda i: draws[i])[:L]
        out.extend(items[i] for i in sorted(smallest))
    return out


def oracle_hc(filter_entries, K):
    out = []
    for items in group(filter_entries).values():
        if len(items) != K:
            out.extend(items)
    return out


def oracle_rp(filter_entries, K):
    out = []
    for items in group(filter_entries).values():
        for k in range(1, K + 1):
            out.append(items[(k - 1) % len(items)])
    return out


def oracle_ri(filter_entries, K):
    out = []
    for items in group(filter_entries).values():
        target = K - len(items)
        for k in range(1, target + 1):
            out.append(items[(k - 1) % len(items)])
    return out


def oracle_ar_draws(k_counts, corpus_ids, K) -> int:
    return sum(K - k_counts.get(qid, 0) for qid in corpus_ids)


def oracle_gr_draws(filter_entries, L, S) -> int:
    total = 0
    for items in group(filter_entries).values():
        if len(items) >= L:
            continue
        for _, traj in items:
            total += S if traj.length_tokens >= S else 1
    return total


def oracle_sc_attempts(discard_entries, k_counts, K) -> int:
    return sum(1 for _, t in discard_entries if k_counts.get(t.query_id, 0) < K)


def oracle_build_row(entries, K, k_counts):
    """(total, level shares, bucket shares, mean length, per-level mean lengths).

    Straight loops over the entries: level shares are None when a query is
    unleveled, each bucket share is 1/total added once per entry, means
    are integer sums over counts.
    """
    total = len(entries)
    levels = [r.level for r, _ in entries]
    if total == 0:
        shares = (0.0,) * 5
    elif None in levels:
        shares = None
    else:
        shares = tuple(levels.count(lv) / total for lv in range(1, 6))
    buckets = [0.0, 0.0, 0.0, 0.0]
    for _, t in entries:
        frac = k_counts.get(t.query_id, 0) / K
        if frac <= 0.0:
            continue
        for b, edge in enumerate((0.25, 0.50, 0.75, 1.00)):
            if frac <= edge + 1e-12:
                buckets[b] += 1.0 / total
                break
    lengths = [t.length_tokens for _, t in entries]
    mean = sum(lengths) / total if total else None
    level_means = []
    for lv in range(1, 6):
        at_level = [t.length_tokens for r, t in entries if r.level == lv]
        level_means.append(sum(at_level) / len(at_level) if at_level else None)
    return total, shares, tuple(buckets), mean, tuple(level_means)


def snapshot_entry(record, traj):
    """One ``datasets/*.jsonl`` snapshot line as a dict, encoded per pair:
    ``json.dumps(..., sort_keys=True)`` of it is the line the columnar
    writer must produce."""
    return {
        "query_id": traj.query_id,
        "sample_index": traj.sample_index,
        "iteration": traj.iteration,
        "origin": traj.origin,
        "prefix_steps": traj.prefix_steps,
        "length_tokens": traj.length_tokens,
        "level": record.level,
        "correct": traj.correct,
    }


def pass_rate(state, query, m):
    """Scalar pass@M of one query: the mean of M shots on the PASS_RATE
    stream, shot j keyed by (query id, j), each a hit below the query's p."""
    if m < 1:
        raise ValueError("m must be >= 1")
    shots = rng.uniform(
        state.root_seed, rng.PASS_RATE, np.uint64(query.id), np.arange(m, dtype=np.uint64)
    )
    return float(np.mean(shots < state.p[state.corpus.rows([query.id])[0]]))


# -- scalar draw reference ---------------------------------------------------
# The learner's draw kernel one draw at a time: per draw one counter
# increment, scalar rng calls, math.exp and round.  A loop of these on a
# state makes the draws its batched samplers must replay, and advances the
# state's draw counters as they do.


def _p_of(state, query: QueryRecord) -> float:
    return float(state.p[state.corpus.rows([query.id])[0]])


def _mu_of(state, query: QueryRecord) -> float:
    if query.level is not None and query.level in state.mu_log_len:
        return state.mu_log_len[query.level]
    return query.base_log_length


def _next_counter(state, query_id: int) -> int:
    row = state.corpus.rows([query_id])[0]
    ctr = int(state.draw_counter[row])
    state.draw_counter[row] = ctr + 1
    return ctr


def _draw(state, query, prob, mu, *, scale=1.0, prefix_tokens=0, **fields) -> Trajectory:
    """One keyed draw: correct w.p. ``prob``, length lognormal around ``mu``.

    The generated length exp(mu + sigma * z) is scaled by ``scale``,
    rounded, floored at one token and appended to ``prefix_tokens``.  A
    wrong draw extracts nothing: its answer is ``""``.
    """
    ctr = _next_counter(state, query.id)
    correct = bool(rng.uniform(state.root_seed, rng.CORRECT, query.id, ctr) < prob)
    z = float(rng.normal(state.root_seed, rng.LENGTH, query.id, ctr))
    length = max(1, int(round(math.exp(mu + state.params.sigma_log_len * z) * scale)))
    return Trajectory(
        query_id=query.id,
        sample_index=1,
        iteration=state.iteration + 1,
        length_tokens=prefix_tokens + length,
        extracted_answer=query.gt_answer if correct else "",
        correct=correct,
        prefix_tokens=prefix_tokens,
        **fields,
    )


def fresh_draw(state, query) -> Trajectory:
    """One fresh draw: correct w.p. p, length around the level mean."""
    return _draw(state, query, _p_of(state, query), _mu_of(state, query))


def guided_success_probability(p: float, step: int, total_steps: int, gain: float) -> float:
    """Success chance when continuing from the prefix before the given step.

    With f = (step - 1) / total_steps the kept fraction of a successful
    trajectory: 1 - (1 - p) * (1 - f)**gain.  Equals p at step 1 and is
    non-decreasing in the step, since following more of a correct solution
    leaves less room to go wrong.
    """
    f = (step - 1) / total_steps
    return 1.0 - (1.0 - p) * (1.0 - f) ** gain


def guided_draw(state, query, prefix, step, total_steps) -> Trajectory:
    """One continuation of a successful ``prefix`` from before ``step``."""
    p_cond = guided_success_probability(_p_of(state, query), step, total_steps, state.params.prefix_gain)
    prefix_tokens = 0 if step == 1 else split_steps(prefix, total_steps)[step - 1]
    return _draw(
        state,
        query,
        p_cond,
        _mu_of(state, query),
        scale=1.0 - (step - 1) / total_steps,
        prefix_tokens=prefix_tokens,
        origin=ORIGIN_RESAMPLED_GR,
        prefix_steps=step - 1,
    )


def correction_draw(state, query) -> Trajectory:
    """One revision of a failed response: longer, correct w.p. base + slope * p."""
    pr = state.params
    prob = min(1.0, max(0.0, pr.correction_base + pr.correction_slope * _p_of(state, query)))
    mu = _mu_of(state, query) + math.log1p(pr.correction_length_boost)
    return _draw(state, query, prob, mu, origin=ORIGIN_CORRECTED)


# -- per-query learner references --------------------------------------------
# The learner's set-up, calibration and training as per-query loops over
# dicts keyed by query id; the learner's array versions must give the same
# floats bit for bit.


def init_learner_reference(corpus, params, seed):
    """(p by query id, mu_log_len by level) of a fresh policy for a list of records."""
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
    return {r.id: float(p[i]) for i, r in enumerate(corpus)}, mu


def train_reference(p_by_id, mu_log_len, params, training_set, k):
    """(p by query id, mu_log_len by level) after one training step."""
    if training_set.role != ROLE_FILTER:
        raise ValueError(f"train expects a filter dataset, got role {training_set.role!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    pr = params
    rows = entries(training_set)
    counts = Counter(t.query_id for _, t in rows)
    new_p: dict[int, float] = {}
    for qid, p in p_by_id.items():
        c = counts.get(qid, 0)
        if c > 0:
            new_p[qid] = p + pr.learn_rate * min(c / k, 1.0) * (1.0 - p)
        else:
            new_p[qid] = (1.0 - pr.forget_rate) * p
    new_mu = dict(mu_log_len)
    if rows:
        distinct, where = np.unique([t.length_tokens for _, t in rows], return_inverse=True)
        logs = np.array([math.log(max(1, n)) for n in distinct.tolist()])[where]
        level = np.array([r.level or 0 for r, _ in rows])
        global_mean = float(np.mean(logs))
        lam = pr.length_imitation
        for lv in new_mu:
            at_level = logs[level == lv]
            target = float(np.mean(at_level)) if len(at_level) else global_mean
            new_mu[lv] = (1.0 - lam) * new_mu[lv] + lam * target
    return new_p, new_mu


def calibrate_difficulty_reference(pass_rates):
    """Query id -> level: five balanced groups by descending rate, ties by ascending id."""
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


def state_json_reference(state) -> str:
    """``learner_final.json``'s text: the state as one dict, encoded by
    ``json.dumps`` with sorted keys and an indent of two."""
    ids = [str(q) for q in state.corpus.ids.tolist()]
    payload = {
        "iteration": state.iteration,
        "root_seed": state.root_seed,
        "params": state.params.__dict__,
        "p": dict(zip(ids, state.p.tolist())),
        "mu_log_len": {str(k): v for k, v in sorted(state.mu_log_len.items())},
        "draw_counter": dict(zip(ids, state.draw_counter.tolist())),
    }
    return json.dumps(payload, sort_keys=True, indent=2)


_MATH_WRAPPERS = ("$", r"\(", r"\)", r"\[", r"\]")


def normalize_unguarded(raw, aliases):
    """Answer normalization with every step run on every string: strip,
    each math-wrapper replace, lowercase, each alias ``re.sub`` in table
    order, strip."""
    s = raw.strip()
    for w in _MATH_WRAPPERS:
        s = s.replace(w, "")
    s = s.lower()
    for pattern, canonical in aliases:
        s = re.sub(pattern, canonical, s)
    return s.strip()


# -- per-line JSONL codec ----------------------------------------------------
# One object per line: the reference the columnar readers (harness.load_log,
# harness.read_snapshot) must match, result for result and message for message.


def _decode_line(
    line: str,
    lineno: int,
    fields: set[str],
    required: set[str],
    build: Callable[[dict[str, Any]], Any],
) -> Any:
    """Decode one JSONL line into the value ``build`` makes of it.

    The line must be a JSON object whose keys are among ``fields`` and
    include every ``required`` one; any failure, ``build``'s included, is a
    SchemaError naming the line.
    """
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line {lineno}: not valid JSON ({exc.msg})") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"line {lineno}: expected a JSON object")
    unknown = set(data) - fields
    if unknown:
        raise SchemaError(f"line {lineno}: unknown fields {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise SchemaError(f"line {lineno}: missing fields {sorted(missing)}")
    try:
        return build(data)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: int() of Infinity
        raise SchemaError(f"line {lineno}: {exc}") from exc


def _read_jsonl(path: str | Path, parse: Callable[[str, int], Any]) -> list[Any]:
    """Parse every non-blank line of a JSONL file, numbering lines from 1."""
    with open(path, "r", encoding="utf-8") as fh:
        return [parse(line, lineno) for lineno, line in enumerate(fh, start=1) if line.strip()]


def _log_record(data: dict[str, Any]) -> TrajectoryLogRecord:
    return TrajectoryLogRecord(
        query_id=int(data["query_id"]),
        gt_answer=str(data["gt_answer"]),
        extracted_answer=str(data["extracted_answer"]),
        token_count=int(data["token_count"]),
        step_offsets=tuple(int(x) for x in data.get("step_offsets", ())),
        iteration=int(data.get("iteration", 1)),
    )


def parse_log_line(line: str, lineno: int) -> TrajectoryLogRecord:
    return _decode_line(line, lineno, _LOG_FIELDS, _LOG_REQUIRED, _log_record)


def _entry_from_snapshot(data: dict[str, Any]) -> Entry:
    if not isinstance(data["correct"], bool):
        raise TypeError("correct must be true or false")
    level = data.get("level")
    qid = int(data["query_id"])
    record = QueryRecord(id=qid, gt_answer="", level=None if level is None else int(level))
    traj = Trajectory(
        query_id=qid,
        sample_index=int(data["sample_index"]),
        iteration=int(data["iteration"]),
        length_tokens=int(data["length_tokens"]),
        extracted_answer="",
        correct=data["correct"],
        origin=data.get("origin", ORIGIN_EXPLORED),
        prefix_steps=int(data.get("prefix_steps", 0)),
    )
    return record, traj


def parse_snapshot_line(line: str, lineno: int) -> Entry:
    """Inverse of the snapshot encoding, up to the fields a snapshot omits."""
    return _decode_line(line, lineno, _SNAPSHOT_FIELDS, _SNAPSHOT_REQUIRED, _entry_from_snapshot)


def load_snapshot(path: str | Path) -> list[Entry]:
    """Read a ``datasets/*.jsonl`` snapshot back into (query, trajectory) pairs."""
    return _read_jsonl(path, parse_snapshot_line)


def _snapshot_reference(path: str | Path, role: str) -> TrajectoryDataset:
    entries = load_snapshot(path)
    try:
        return TrajectoryDataset.from_entries(entries, role)
    except ValueError as exc:  # levels that differ within a query, 64-bit overflow, role invariants
        raise SchemaError(f"{path}: {exc}") from exc
