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
whole-column comparison for a dataset).  The other rows' answers, and
the ground truths of their queries, go through ``_normalize_all`` in two
lists: each distinct string once when the first 1024 of the list repeat
(at most seven in eight are distinct, as with the simulator's wrong
draws, which all answer ``""``), else one per row (or query), since
hashing strings that never repeat (a corpus's ground truths) costs more
than it saves.  It runs each step of the pipeline over a whole list:
the first strip by ``map``; the wrapper replaces and ``lower`` once on
the strings joined by ``"\\n"``, split back afterwards; each alias only
on the strings that hold its literal; the final strip only if a wrapper
or an alias may have fired (removing a wrapper can expose whitespace:
``"$ x$"`` normalizes to ``"x"``).  ``normalize_answer`` stays the
reference the batch equals string by string, and takes any string that
holds ``"\\n"``.  One object-array comparison then grades the rows.
Only a ``sample`` set is graded: filtering selects its reward-1 rows as a
``filter`` set, and ``partition_dataset`` selects both those and the
reward-0 rows, a ``discard`` set, from one grading.
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

from .core import ROLE_DISCARD, ROLE_FILTER, ROLE_SAMPLE, QueryRecord, TrajectoryDataset, object_array

# pattern -> canonical replacement; patterns are regexes applied in order
DEFAULT_SYMBOL_ALIASES: tuple[tuple[str, str], ...] = (
    (r"\\pi\b", "π"),
    (r"\s*\\times\s*", "×"),
    (r"\s*/\s*", "/"),
)

_MATH_WRAPPERS = ("$", r"\(", r"\)", r"\[", r"\]")
# the wrapper guard in normalize_answer tests for these two characters only
assert all("$" in w or "\\" in w for w in _MATH_WRAPPERS)


def _literal_runs(pattern: re.Pattern) -> list[str]:
    """The runs of consecutive literal characters in the parsed pattern's
    top-level sequence, in order; every match contains each of them.

    A top-level alternation parses to one branch (or character set) node,
    so it contributes nothing; only a prefix that the parser factors out
    of every branch (``xa|xb`` is ``x`` then ``[ab]``) stays.  A
    case-insensitive pattern, or one the parser rejects, has none.
    """
    if pattern.flags & re.IGNORECASE:
        return []
    try:
        nodes = list(_sre_parse.parse(pattern.pattern, pattern.flags))
    except re.error:
        return []
    runs = [""]
    for op, arg in nodes:
        if op is _sre_parse.LITERAL:
            runs[-1] += chr(arg)
        elif runs[-1]:
            runs.append("")
    return [run for run in runs if run]


def _required_literal(pattern: re.Pattern) -> str:
    """A substring of every match of ``pattern``, or ``""`` if none is known:
    the first of its longest top-level literal runs."""
    return max(_literal_runs(pattern), key=len, default="")


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

    A line without a TAB, whose pattern or replacement does not compile, or
    whose case-sensitive pattern holds an upper-case letter in any top-level
    literal run (answers are lower-cased before the aliases run, so it could
    never match) is a ValueError naming the line.
    """
    pairs: list[tuple[str, str]] = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "\t" not in line:
            raise ValueError(f"alias table line {lineno}: expected pattern<TAB>canonical")
        pattern, canonical = line.split("\t", 1)
        try:
            compiled = re.compile(pattern)
            compiled.sub(canonical, "")
        except re.error as exc:
            raise ValueError(f"alias table line {lineno}: {exc}") from None
        upper = [run for run in _literal_runs(compiled) if run != run.lower()]
        if upper:
            raise ValueError(
                f"alias table line {lineno}: pattern {pattern!r} can never match, since answers are "
                f"lower-cased before aliases run and it requires {upper[0]!r}"
            )
        pairs.append((pattern, canonical))
    return tuple(pairs)


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
    The other rows' answers are normalized in one batch, and the ground
    truths of their query runs in another (``_normalized``: each distinct
    string once when they repeat); one object-array ``==`` compares the two.
    """
    answers, gts = sampled.answers, sampled.gt_answers()
    ok = np.asarray(answers == gts, dtype=bool)
    rest = np.flatnonzero(~ok)
    if len(rest):
        qids = sampled.columns["query_id"][rest]
        new_run = np.concatenate(([True], qids[1:] != qids[:-1]))
        run_gts = gts[rest[new_run]].tolist()  # one per run of a query's rows
        norm_gts = object_array(_normalized(run_gts, aliases))[np.cumsum(new_run) - 1]
        ok[rest] = object_array(_normalized(answers[rest].tolist(), aliases)) == norm_gts
    return ok


def _normalized(strings: list[str], aliases: tuple[tuple[str, str], ...]) -> list[str]:
    """``_normalize_all(strings, aliases)``, normalizing each distinct string
    once when they repeat: when at most seven in eight of the first 1024
    are distinct.  Only that prefix is hashed to decide, so strings that
    never repeat (one ground truth per query) pay almost nothing for it.
    The two paths cost the same at about three in four distinct when the
    prefix is the whole list; a prefix overstates a longer list's share,
    and generated logs (``perfbench/loggen.py``) that read 79-80% there
    are normalized faster once per distinct answer."""
    head = strings[:1024]
    if 8 * len(set(head)) > 7 * len(head):
        return _normalize_all(strings, aliases)
    distinct = list(dict.fromkeys(strings))
    norm = dict(zip(distinct, _normalize_all(distinct, aliases)))
    return list(map(norm.__getitem__, strings))


def _require_sample(sampled: TrajectoryDataset, name: str) -> None:
    if sampled.role != ROLE_SAMPLE:
        raise ValueError(f"{name} expects a sample dataset, got {sampled.role!r}")


def filter_dataset(
    sampled: TrajectoryDataset, aliases: tuple[tuple[str, str], ...] = DEFAULT_SYMBOL_ALIASES
) -> TrajectoryDataset:
    """Keep exactly the reward-1 entries of a sample set, marked correct,
    order preserved, as a filter set."""
    _require_sample(sampled, "filter_dataset")
    return sampled.select(np.flatnonzero(_graded(sampled, aliases)), ROLE_FILTER, correct=True)


def partition_dataset(
    sampled: TrajectoryDataset, aliases: tuple[tuple[str, str], ...] = DEFAULT_SYMBOL_ALIASES
) -> tuple[TrajectoryDataset, TrajectoryDataset]:
    """(:func:`filter_dataset`, :func:`discard_dataset`) of ``sampled``, grading each row once."""
    _require_sample(sampled, "partition_dataset")
    ok = _graded(sampled, aliases)
    return (
        sampled.select(np.flatnonzero(ok), ROLE_FILTER, correct=True),
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
