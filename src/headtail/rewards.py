"""Answer normalization, the binary reward, and correctness filtering.

Grading is exact string match after a deterministic normalization pass.
The default normalization exists because raw exact match misgrades answers
that differ only in formatting (LaTeX ``\\pi`` vs the glyph, stray math
wrappers, spacing around fraction slashes).

``normalize_answer`` strips the string, removes math wrappers, maps it to
lower case, applies each alias of the table in order and strips again; the
alias table is its only setting.  On the default table, applying it twice
equals applying it once; a custom table need not keep that: the alias
``("a", "aa")`` grows every ``a``.  It skips only the steps that cannot
change the string.  The math-wrapper replaces run only on a string that contains
``$`` or ``\\`` (every wrapper contains one of them).  Each alias pattern
has a *required literal*, derived once per alias table: the longest run of
literal characters in the pattern's top-level sequence, which every match
contains.  The alias's ``sub`` runs only when the string, as it stands at
that step, contains that literal.  For the default aliases the literals are
``\\pi``, ``\\times`` and ``/``.  A pattern that is case-insensitive, is a
top-level alternation or has no top-level literal (``\\s+``, ``[ab]``) has
no required literal, so a custom alias like that runs on every answer.

Normalization is a pure function of the string and the table, so grading
skips it where it cannot change the outcome: an answer whose raw string
equals the ground truth is graded correct without normalizing (one
whole-column comparison for a dataset).  The other rows' answers, one per
row, and their distinct ground truths go through ``_normalize_all``, which
runs each step of the pipeline over a whole list: the first strip by
``map``; the wrapper replaces and ``lower`` once on the strings joined by
``"\\n"``, split back afterwards; each alias only on the strings that hold
its literal; the final strip only if a wrapper or an alias may have fired
(removing a wrapper can expose whitespace: ``"$ x$"`` normalizes to
``"x"``).  ``normalize_answer`` stays the reference the batch equals string
by string, and takes any string that holds ``"\\n"``.  One object-array
comparison then grades the rows.  Filtering selects the graded rows by
mask; ``partition_dataset`` selects both the kept and the discarded rows
from one grading.
"""

from __future__ import annotations

import re
from functools import lru_cache
from pathlib import Path

try:
    from re import _parser as _sre_parse
except ImportError:  # Python 3.10
    import sre_parse as _sre_parse

import numpy as np

from .core import (
    ROLE_DISCARD,
    ROLE_FILTER,
    ROLE_REFILTER,
    ROLE_RESAMPLE,
    ROLE_SAMPLE,
    QueryRecord,
    TrajectoryDataset,
    object_array,
)

# pattern -> canonical replacement; patterns are regexes applied in order
DEFAULT_SYMBOL_ALIASES: tuple[tuple[str, str], ...] = (
    (r"\\pi\b", "π"),
    (r"\s*\\times\s*", "×"),
    (r"\s*/\s*", "/"),
)

_MATH_WRAPPERS = ("$", r"\(", r"\)", r"\[", r"\]")
# the wrapper guard in normalize_answer tests for these two characters only
assert all("$" in w or "\\" in w for w in _MATH_WRAPPERS)


def _required_literal(pattern: re.Pattern) -> str:
    """A substring of every match of ``pattern``, or ``""`` if none is known.

    It is the longest run of consecutive top-level literal characters in the
    parsed pattern.  A top-level alternation parses to one branch (or
    character set) node, so it contributes nothing; only a prefix that the
    parser factors out of every branch (``xa|xb`` is ``x`` then ``[ab]``)
    stays, and every match contains it.  A case-insensitive pattern, or one
    the parser rejects, has no required literal.
    """
    if pattern.flags & re.IGNORECASE:
        return ""
    try:
        nodes = list(_sre_parse.parse(pattern.pattern, pattern.flags))
    except re.error:
        return ""
    best = run = ""
    for op, arg in nodes:
        run = run + chr(arg) if op is _sre_parse.LITERAL else ""
        best = max(best, run, key=len)
    return best


@lru_cache(maxsize=64)
def _compiled(aliases: tuple[tuple[str, str], ...]) -> tuple[tuple[re.Pattern, str, str], ...]:
    """(pattern, canonical, required literal) per alias, in table order."""
    table = []
    for p, c in aliases:
        pattern = re.compile(p)
        pattern.sub(c, "")  # a bad template raises here, whatever the answer
        table.append((pattern, c, _required_literal(pattern)))
    return tuple(table)


def normalize_answer(raw: str, aliases: tuple[tuple[str, str], ...] = DEFAULT_SYMBOL_ALIASES) -> str:
    """Canonical form of an extracted or ground-truth answer string."""
    s = raw.strip()
    if "$" in s or "\\" in s:
        for w in _MATH_WRAPPERS:
            s = s.replace(w, "")
    s = s.lower()
    for pattern, canonical, literal in _compiled(aliases):
        if literal in s:
            s = pattern.sub(canonical, s)
    return s.strip()


def reward(
    query: QueryRecord, extracted: str, aliases: tuple[tuple[str, str], ...] = DEFAULT_SYMBOL_ALIASES
) -> int:
    """Binary reward: 1 iff the extracted answer matches ground truth."""
    gt = query.gt_answer
    return int(extracted == gt or normalize_answer(extracted, aliases) == normalize_answer(gt, aliases))


def load_alias_table(path: str | Path) -> tuple[tuple[str, str], ...]:
    """Read a two-column alias table (pattern<TAB>canonical, UTF-8).

    A line without a TAB, or whose pattern or replacement does not compile,
    is a ValueError naming the line.
    """
    pairs: list[tuple[str, str]] = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "\t" not in line:
            raise ValueError(f"alias table line {lineno}: expected pattern<TAB>canonical")
        pattern, canonical = line.split("\t", 1)
        try:
            re.compile(pattern).sub(canonical, "")
        except re.error as exc:
            raise ValueError(f"alias table line {lineno}: {exc}") from None
        pairs.append((pattern, canonical))
    return tuple(pairs)


_FILTER_OUT_ROLE = {ROLE_SAMPLE: ROLE_FILTER, ROLE_RESAMPLE: ROLE_REFILTER}


def _normalize_all(strings: list[str], aliases: tuple[tuple[str, str], ...]) -> list[str]:
    """``[normalize_answer(s, aliases) for s in strings]``, one step at a time over the list.

    The strings are joined by ``"\\n"``, which no wrapper spans and which is
    neither cased nor case-ignorable (a final sigma lowers as it does
    alone), so the wrapper replaces and ``lower`` run once on the join and
    ``split("\\n")`` gives the strings back, whatever their new lengths
    (never ``splitlines``, which splits on more).  Each alias runs only on
    the strings that hold its required literal, and the final strip only if
    a wrapper or an alias may have fired.  A string that holds ``"\\n"``
    itself goes through ``normalize_answer``.
    """
    if not strings:
        return []
    xs = list(map(str.strip, strings))
    joined = "\n".join(xs)
    if joined.count("\n") != len(xs) - 1:  # a string holds the separator
        batched = iter(_normalize_all([s for s in strings if "\n" not in s], aliases))
        return [normalize_answer(s, aliases) if "\n" in s else next(batched) for s in strings]
    fired = "$" in joined or "\\" in joined
    if fired:
        for w in _MATH_WRAPPERS:
            joined = joined.replace(w, "")
    joined = joined.lower()
    xs = joined.split("\n")
    aliased = False
    for pattern, canonical, literal in _compiled(aliases):
        if aliased or literal in joined:  # once an alias has run, the join is stale
            xs = [pattern.sub(canonical, x) if literal in x else x for x in xs]
            aliased = True
    if fired or aliased:
        xs = list(map(str.strip, xs))
    return xs


def _graded(sampled: TrajectoryDataset, aliases: tuple[tuple[str, str], ...]) -> np.ndarray:
    """Per row: True iff its extracted answer earns reward 1.

    A row whose raw answer equals its ground truth is correct unnormalized.
    The other rows' answers are normalized in one batch, row by row, and
    each distinct ground truth among them once; one object-array ``==``
    compares the two.
    """
    answers, gts = sampled.answers, sampled.gt_answers()
    ok = np.asarray(answers == gts, dtype=bool)
    rest = np.flatnonzero(~ok)
    if len(rest):
        qids = sampled.columns["query_id"][rest]
        new_run = np.concatenate(([True], qids[1:] != qids[:-1]))
        run_gts = gts[rest[new_run]].tolist()  # one per run of a query's rows
        distinct = list(dict.fromkeys(run_gts))
        norm = dict(zip(distinct, _normalize_all(distinct, aliases)))
        norm_gts = object_array(map(norm.__getitem__, run_gts))[np.cumsum(new_run) - 1]
        ok[rest] = object_array(_normalize_all(answers[rest].tolist(), aliases)) == norm_gts
    return ok


def _graded_role(sampled: TrajectoryDataset, name: str) -> str:
    """The role that ``sampled``'s reward-1 rows take; only sample and resample sets are graded."""
    out_role = _FILTER_OUT_ROLE.get(sampled.role)
    if out_role is None:
        raise ValueError(f"{name} expects a sample or resample dataset, got {sampled.role!r}")
    return out_role


def filter_dataset(
    sampled: TrajectoryDataset, aliases: tuple[tuple[str, str], ...] = DEFAULT_SYMBOL_ALIASES
) -> TrajectoryDataset:
    """Keep exactly the reward-1 entries, marked correct, order preserved.

    Sample datasets filter to role ``filter``; resample datasets to
    ``refilter``.
    """
    out_role = _graded_role(sampled, "filter_dataset")
    return sampled.select(np.flatnonzero(_graded(sampled, aliases)), out_role, correct=True)


def partition_dataset(
    sampled: TrajectoryDataset, aliases: tuple[tuple[str, str], ...] = DEFAULT_SYMBOL_ALIASES
) -> tuple[TrajectoryDataset, TrajectoryDataset]:
    """(:func:`filter_dataset`, :func:`discard_dataset`) of ``sampled``, grading each row once."""
    out_role = _graded_role(sampled, "partition_dataset")
    ok = _graded(sampled, aliases)
    return (
        sampled.select(np.flatnonzero(ok), out_role, correct=True),
        sampled.select(np.flatnonzero(~ok), ROLE_DISCARD, correct=False),
    )


def discard_dataset(
    sampled: TrajectoryDataset, aliases: tuple[tuple[str, str], ...] = DEFAULT_SYMBOL_ALIASES
) -> TrajectoryDataset:
    """Complement of :func:`filter_dataset`: the reward-0 entries."""
    return partition_dataset(sampled, aliases)[1]


def cot_length_filter(dataset: TrajectoryDataset, min_tokens: int) -> TrajectoryDataset:
    """Drop entries whose freshly generated reasoning is shorter than the floor.

    The floor applies to ``length_tokens - prefix_tokens``, so guided
    resamples are judged on their continuation only.
    """
    if min_tokens < 0:
        raise ValueError("min_tokens must be >= 0")
    c = dataset.columns
    return dataset.select(np.flatnonzero(c["length_tokens"] - c["prefix_tokens"] >= min_tokens), dataset.role)
