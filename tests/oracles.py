"""Independent brute-force evaluations of the reshaping set-builder rules,
the metrics row, the snapshot line encoding and decoding, the log decoding,
the pass-rate measurement and answer normalization.

These deliberately avoid the library's dataset machinery: plain dicts of
lists, straight loops.  Threshold clipping shares the library's pinned draw key
(one ``rng.uniform`` per entry on the THRESHOLD_CLIP stream) because the
subset choice is part of the definition; the per-entry counters and the
keep-the-L-smallest rule around it are re-derived here with scalar draws.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path
from typing import Any, Callable

import numpy as np

from headtail import rng
from headtail.core import ORIGIN_EXPLORED, Entry, QueryRecord, Trajectory, TrajectoryDataset
from headtail.harness import (
    _LOG_FIELDS,
    _LOG_REQUIRED,
    _SNAPSHOT_FIELDS,
    _SNAPSHOT_REQUIRED,
    SchemaError,
    TrajectoryLogRecord,
)


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


def oracle_tc(filter_entries, L, seed, iteration=1):
    """Each entry draws one scalar uniform keyed by (seed, query id,
    iteration * 2**32 + its position in the query); a query keeps the L
    entries with the smallest draws, in input order."""
    out = []
    for qid, items in group(filter_entries).items():
        draws = [
            float(rng.uniform(seed, rng.THRESHOLD_CLIP, qid, iteration * 2**32 + pos))
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
    return float(np.mean(shots < state.p[query.id]))


_MATH_WRAPPERS = ("$", r"\(", r"\)", r"\[", r"\]")


def normalize_unguarded(raw, rules):
    """Answer normalization with every step run on every string: strip,
    each math-wrapper replace, lowercase, each alias ``re.sub`` in table
    order, strip."""
    s = raw
    if rules.trim_whitespace:
        s = s.strip()
    if rules.strip_math_wrappers:
        for w in _MATH_WRAPPERS:
            s = s.replace(w, "")
    if rules.lowercase:
        s = s.lower()
    for pattern, canonical in rules.symbol_aliases:
        s = re.sub(pattern, canonical, s)
    if rules.trim_whitespace:
        s = s.strip()
    return s


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
