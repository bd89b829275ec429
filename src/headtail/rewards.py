"""Answer normalization, the binary reward, and correctness filtering.

Grading is exact string match after a deterministic normalization pass.
The default normalization exists because raw exact match misgrades answers
that differ only in formatting (LaTeX ``\\pi`` vs the glyph, stray math
wrappers, spacing around fraction slashes).

Normalization is a pure function of the string and the rules, so grading
skips it where it cannot change the outcome: an answer whose raw string
equals the ground truth is graded correct without normalizing (one
whole-column comparison for a dataset), and within one ``reward``,
``filter_dataset`` or ``discard_dataset`` call each distinct answer and
ground-truth string is normalized at most once (the memo lives only as long
as that call).  Filtering then selects the graded rows by mask.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .core import (
    ROLE_DISCARD,
    ROLE_FILTER,
    ROLE_REFILTER,
    ROLE_RESAMPLE,
    ROLE_SAMPLE,
    QueryRecord,
    TrajectoryDataset,
)

# pattern -> canonical replacement; patterns are regexes applied in order
DEFAULT_SYMBOL_ALIASES: tuple[tuple[str, str], ...] = (
    (r"\\pi\b", "π"),
    (r"\s*\\times\s*", "×"),
    (r"\s*/\s*", "/"),
)

_MATH_WRAPPERS = ("$", r"\(", r"\)", r"\[", r"\]")


@dataclass(frozen=True)
class AnswerNormalizationRules:
    """Switches for the normalization pipeline. Applying twice equals once."""

    lowercase: bool = True
    trim_whitespace: bool = True
    strip_math_wrappers: bool = True
    symbol_aliases: tuple[tuple[str, str], ...] = DEFAULT_SYMBOL_ALIASES


DEFAULT_RULES = AnswerNormalizationRules()
EXACT_MATCH_RULES = AnswerNormalizationRules(
    lowercase=False, trim_whitespace=False, strip_math_wrappers=False, symbol_aliases=()
)


@lru_cache(maxsize=64)
def _compiled(aliases: tuple[tuple[str, str], ...]):
    return tuple((re.compile(p), c) for p, c in aliases)


def normalize_answer(raw: str, rules: AnswerNormalizationRules = DEFAULT_RULES) -> str:
    """Canonical form of an extracted or ground-truth answer string."""
    s = raw
    if rules.trim_whitespace:
        s = s.strip()
    if rules.strip_math_wrappers:
        for w in _MATH_WRAPPERS:
            s = s.replace(w, "")
    if rules.lowercase:
        s = s.lower()
    for pattern, canonical in _compiled(rules.symbol_aliases):
        s = pattern.sub(canonical, s)
    if rules.trim_whitespace:
        s = s.strip()
    return s


def _normalized(raw: str, rules: AnswerNormalizationRules, memo: dict[str, str]) -> str:
    norm = memo.get(raw)
    if norm is None:
        norm = memo[raw] = normalize_answer(raw, rules)
    return norm


def _grade(gt: str, extracted: str, rules: AnswerNormalizationRules, memo: dict[str, str]) -> int:
    """1 iff ``extracted`` matches ``gt`` after normalization, memoized in ``memo``."""
    return int(extracted == gt or _normalized(extracted, rules, memo) == _normalized(gt, rules, memo))


def reward(query: QueryRecord, extracted: str, rules: AnswerNormalizationRules = DEFAULT_RULES) -> int:
    """Binary reward: 1 iff the extracted answer matches ground truth."""
    return _grade(query.gt_answer, extracted, rules, {})


def load_alias_table(path: str | Path) -> tuple[tuple[str, str], ...]:
    """Read a two-column alias table (pattern<TAB>canonical, UTF-8)."""
    pairs: list[tuple[str, str]] = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "\t" not in line:
            raise ValueError(f"alias table line {lineno}: expected pattern<TAB>canonical")
        pattern, canonical = line.split("\t", 1)
        pairs.append((pattern, canonical))
    return tuple(pairs)


_FILTER_OUT_ROLE = {ROLE_SAMPLE: ROLE_FILTER, ROLE_RESAMPLE: ROLE_REFILTER}


def _graded(sampled: TrajectoryDataset, rules: AnswerNormalizationRules) -> np.ndarray:
    """Per row: True iff its extracted answer earns reward 1."""
    answers, gts = sampled.answers, sampled.gt_answers()
    ok = np.asarray(answers == gts, dtype=bool)
    rest = np.flatnonzero(~ok)
    memo: dict[str, str] = {}
    ok[rest] = [_grade(g, a, rules, memo) for a, g in zip(answers[rest].tolist(), gts[rest].tolist())]
    return ok


def filter_dataset(
    sampled: TrajectoryDataset, rules: AnswerNormalizationRules = DEFAULT_RULES
) -> TrajectoryDataset:
    """Keep exactly the reward-1 entries, marked correct, order preserved.

    Sample datasets filter to role ``filter``; resample datasets to
    ``refilter``.
    """
    out_role = _FILTER_OUT_ROLE.get(sampled.role)
    if out_role is None:
        raise ValueError(f"filter_dataset expects a sample or resample dataset, got {sampled.role!r}")
    return sampled.select(np.flatnonzero(_graded(sampled, rules)), out_role, correct=True)


def discard_dataset(
    sampled: TrajectoryDataset, rules: AnswerNormalizationRules = DEFAULT_RULES
) -> TrajectoryDataset:
    """Complement of :func:`filter_dataset`: the reward-0 entries."""
    if sampled.role not in _FILTER_OUT_ROLE:
        raise ValueError(f"discard_dataset expects a sample or resample dataset, got {sampled.role!r}")
    return sampled.select(np.flatnonzero(~_graded(sampled, rules)), ROLE_DISCARD, correct=False)


def cot_length_filter(dataset: TrajectoryDataset, min_tokens: int) -> TrajectoryDataset:
    """Drop entries whose freshly generated reasoning is shorter than the floor.

    The floor applies to ``length_tokens - prefix_tokens``, so guided
    resamples are judged on their continuation only.
    """
    if min_tokens < 0:
        raise ValueError("min_tokens must be >= 0")
    c = dataset.columns
    return dataset.select(np.flatnonzero(c["length_tokens"] - c["prefix_tokens"] >= min_tokens), dataset.role)
