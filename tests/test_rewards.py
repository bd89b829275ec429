import dataclasses
import re
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

from headtail import rewards
from headtail.core import ROLE_DISCARD, ROLE_FILTER, ROLE_SAMPLE, TrajectoryDataset
from headtail.rewards import (
    DEFAULT_SYMBOL_ALIASES,
    cot_length_filter,
    discard_dataset,
    filter_dataset,
    load_alias_table,
    normalize_answer,
    reward,
)

from conftest import make_query, make_sample, make_traj
from oracles import normalize_unguarded

CUSTOM_ALIASES = (("half", "1/2"), (r"\s+", " "), ("^a", "A"))


class TestNormalizeAnswer:
    def test_trim(self):
        assert normalize_answer("  42 ") == "42"

    def test_pi_alias(self):
        assert normalize_answer(r"\pi/2") == "π/2"

    def test_wrapped_pi_matches_bare(self):
        assert normalize_answer(r"$\pi$") == normalize_answer(r"\pi") == "π"

    def test_times_alias(self):
        assert normalize_answer(r"3\times 4") == "3×4"

    def test_fraction_spacing(self):
        assert normalize_answer("1 / 2") == "1/2"

    def test_lowercase(self):
        assert normalize_answer("East") == "east"

    @given(st.text(max_size=80))
    @settings(max_examples=1000, deadline=None)
    def test_idempotent(self, s):
        once = normalize_answer(s)
        assert normalize_answer(once) == once


# every character str.strip() removes, the separators \x1c-\x1f included
_STRIPPED = [c for c in map(chr, range(sys.maxunicode + 1)) if not c.strip()]
assert set("\x1c\x1d\x1e\x1f") <= set(_STRIPPED)
# wrappers, alias triggers, case maps that change length ("İ" lowercases to
# two characters) or leave ASCII (the Kelvin sign lowercases to "k") or
# depend on context (a final sigma), the batch normalizer's separator "\n"
# and a wrapper that leaves an edge space ("$ ")
_PIECES = ["$", r"\(", r"\)", r"\[", r"\]", "\\", "(", ")", "[", "]", r"\pi", "pi", r"\times", "/",
           " / ", "a", "b", "A", "B", "k", "x", "İ", "\u212a", "π", "×", "1", "\n", "Σ", "\x85", "$ ",
           *_STRIPPED]
_ANSWERS = st.one_of(st.text(max_size=12), st.lists(st.sampled_from(_PIECES), max_size=10).map("".join))
_REGEX_ATOMS = [re.escape(c) for c in "ab/\\πİ$ xk"] + [
    r"\\pi", r"\\times", "pi", "ab", r"\b", r"\B", "^", r"\Z", r"\s*", r"\s+", ".", "[ab]", "[^a]",
    "(ab)", "(?:a|b)", "(a|bc)", "(x)?", "(?=a)", "(?!b)", "(?<=/)", r"(?<!\\)", "a+", "b?", "a{2}",
    "(?i:ab)",
]
_REGEX_SEQUENCE = st.lists(st.sampled_from(_REGEX_ATOMS), min_size=1, max_size=4).map("".join)


@st.composite
def _alias_pattern(draw):
    body = draw(_REGEX_SEQUENCE)
    if draw(st.booleans()):
        body += "|" + draw(_REGEX_SEQUENCE)  # a top-level alternation
    return ("(?i)" if draw(st.booleans()) else "") + body


_RANDOM_ALIASES = st.lists(
    st.tuples(_alias_pattern(), st.sampled_from(["", "a", "B", "π", "/", " ", "$", "\\\\", r"x\g<0>"])),
    max_size=4,
).map(tuple)


class TestGuardedNormalization:
    """The guards skip only steps that cannot change the string."""

    @given(_ANSWERS, st.sampled_from([DEFAULT_SYMBOL_ALIASES, (), CUSTOM_ALIASES]))
    @settings(max_examples=1000, deadline=None)
    def test_equals_unguarded_on_fixed_alias_tables(self, s, aliases):
        assert normalize_answer(s, aliases) == normalize_unguarded(s, aliases)

    @given(st.lists(_ANSWERS, min_size=1, max_size=8), _RANDOM_ALIASES)
    @settings(max_examples=500, deadline=None)
    def test_equals_unguarded_on_random_alias_tables(self, answers, aliases):
        assert [normalize_answer(s, aliases) for s in answers] == [normalize_unguarded(s, aliases) for s in answers]

    def test_default_literals(self):
        assert [lit for _, _, lit in rewards._compiled(DEFAULT_SYMBOL_ALIASES)] == ["\\pi", "\\times", "/"]

    @pytest.mark.parametrize("pattern, literal", [
        ("a(?=b)cd", "cd"),        # the longest run; a lookahead breaks runs
        ("(a)bc", "bc"),           # a group is not a top-level literal
        (r"ab\bcde", "cde"),
        ("xa|xb", "x"),            # the parser factors out a prefix every branch has
        ("(?i)abc", ""),           # case-insensitive
        ("(?i:a)bc", "bc"),        # only the group ignores case
        ("ab|cd", ""),             # top-level alternation
        ("a|b", ""),
        (r"\s+", ""),              # no top-level literal
        ("[ab]x?", ""),
        ("x+", ""),
        ("", ""),
    ])
    def test_required_literal(self, pattern, literal):
        assert rewards._required_literal(re.compile(pattern)) == literal

    def test_unparsable_pattern_has_no_literal(self, monkeypatch):
        def reject(pattern, flags=0):
            raise re.error("unsupported")

        monkeypatch.setattr(rewards, "_sre_parse", types.SimpleNamespace(parse=reject))
        assert rewards._required_literal(re.compile("abc")) == ""


class TestBatchNormalization:
    """``_normalize_all`` equals ``normalize_answer`` string by string."""

    @given(st.lists(_ANSWERS, max_size=8), _RANDOM_ALIASES)
    @settings(max_examples=200, deadline=None)
    def test_equals_normalize_answer(self, answers, aliases):
        assert rewards._normalize_all(answers, aliases) == [normalize_answer(s, aliases) for s in answers]

    @pytest.mark.parametrize("answers, aliases, expected", [
        (["$ x$"], DEFAULT_SYMBOL_ALIASES, ["x"]),                     # a removed wrapper exposes a space
        (["ΑΣ", "Α"], DEFAULT_SYMBOL_ALIASES, ["ας", "α"]),            # final sigma before the separator
        (["Α", "Σ"], DEFAULT_SYMBOL_ALIASES, ["α", "σ"]),              # ... and after it
        (["İ", "x / y"], DEFAULT_SYMBOL_ALIASES, ["i\u0307", "x/y"]),  # lowercases to two characters
        (["a\nb", " $B$ ", "c\x85d"], DEFAULT_SYMBOL_ALIASES, ["a\nb", "b", "c\x85d"]),  # one string holds "\n"
        ([], DEFAULT_SYMBOL_ALIASES, []),
        # an alias writes the next one's literal; rewrites a string twice; exposes whitespace
        (["q", "a/b"], (("q", "a / b"), (r"\s*/\s*", "/")), ["a/b"] * 2),
        (["a", "b"], (("a", "aa"), ("a", "ab")), ["abab", "b"]),
        (["x"], (("x", " y "),), ["y"]),
    ])
    def test_examples(self, answers, aliases, expected):
        assert [normalize_answer(s, aliases) for s in answers] == expected
        assert rewards._normalize_all(answers, aliases) == expected


class TestReward:
    def test_exact_match(self):
        assert reward(make_query(1, gt="4"), "4") == 1

    def test_mismatch(self):
        assert reward(make_query(1, gt="4"), "5") == 0

    def test_alias_dependent_match(self):
        q = make_query(1, gt="π/2")
        assert reward(q, r"\pi/2", DEFAULT_SYMBOL_ALIASES) == 1
        assert reward(q, r"\pi/2", ()) == 0

    @given(st.text(max_size=40), st.text(max_size=40))
    @settings(deadline=None)
    def test_symmetric_under_prenormalization(self, gt, extracted):
        q = make_query(1, gt=gt)
        pre = make_query(1, gt=normalize_answer(gt))
        assert reward(q, extracted) == reward(pre, normalize_answer(extracted))


class TestFilterDiscard:
    def test_six_of_eight(self, hand_sample):
        sample, _ = hand_sample
        f = filter_dataset(sample)
        assert f.role == ROLE_FILTER
        assert sum(1 for _, t in f if t.query_id == 1) == 6

    def test_all_wrong_gives_empty_filter(self):
        sample, _ = make_sample({1: 0, 2: 0}, K=4)
        assert len(filter_dataset(sample)) == 0

    def test_discard_complement(self, hand_sample):
        sample, _ = hand_sample
        d = discard_dataset(sample)
        assert d.role == ROLE_DISCARD
        assert sum(1 for _, t in d if t.query_id == 1) == 2

    def test_all_correct_gives_empty_discard(self):
        sample, _ = make_sample({1: 4}, K=4)
        assert len(discard_dataset(sample)) == 0

    def test_partition_sizes(self, hand_sample):
        sample, _ = hand_sample
        assert len(filter_dataset(sample)) + len(discard_dataset(sample)) == len(sample)

    def test_order_preserved(self, hand_sample):
        sample, _ = hand_sample
        f = filter_dataset(sample)
        kept_keys = [
            (t.query_id, t.sample_index) for _, t in sample if t.correct
        ]
        assert [(t.query_id, t.sample_index) for _, t in f] == kept_keys

    def test_requires_sample_like_role(self, hand_sample):
        sample, _ = hand_sample
        f = filter_dataset(sample)
        with pytest.raises(ValueError):
            filter_dataset(f)

    @given(
        st.dictionaries(st.integers(0, 20), st.integers(0, 6), min_size=1, max_size=12),
        st.integers(1, 6),
    )
    @settings(max_examples=500, deadline=None)
    def test_partition_recovers_sample(self, k_partial, K):
        k_correct = {q: min(k, K) for q, k in k_partial.items()}
        sample, _ = make_sample(k_correct, K=K)
        f = filter_dataset(sample)
        d = discard_dataset(sample)
        assert len(f) + len(d) == len(sample)
        recovered = sorted(
            [(t.query_id, t.sample_index) for _, t in f]
            + [(t.query_id, t.sample_index) for _, t in d]
        )
        assert recovered == [(t.query_id, t.sample_index) for _, t in sample]


# Small alphabets make alias hits common; short ground truths repeat across
# rows; padded or recased copies of the ground truth make matches that only
# normalization finds.
_ALPHABET = " aAbh$\\/lfp\u03c0i"
_ANSWER_TEXT = st.text(alphabet=_ALPHABET, max_size=8)
_PADDING = st.text(alphabet=" $", max_size=2)


@st.composite
def _graded_row(draw):
    gt = draw(st.text(alphabet=_ALPHABET, max_size=3))
    extracted = draw(
        st.one_of(
            _ANSWER_TEXT,
            st.just(gt),
            st.just(gt.upper()),
            st.tuples(_PADDING, _PADDING).map(lambda pad: pad[0] + gt + pad[1]),
        )
    )
    return gt, extracted, draw(st.booleans())


def _graded_sample(rows):
    """Sample dataset: one query per distinct ground truth, one draw per row."""
    qids: dict[str, int] = {}
    entries = []
    for j, (gt, extracted, flag) in enumerate(rows, start=1):
        qid = qids.setdefault(gt, len(qids) + 1)
        traj = make_traj(qid, j, correct=flag)
        entries.append((make_query(qid, gt=gt), dataclasses.replace(traj, extracted_answer=extracted)))
    return TrajectoryDataset.from_entries(entries, ROLE_SAMPLE)


class TestGradingContract:
    @given(
        st.lists(_graded_row(), max_size=30),
        st.sampled_from([DEFAULT_SYMBOL_ALIASES, (), CUSTOM_ALIASES]),
    )
    @settings(max_examples=300, deadline=None)
    def test_partition_matches_per_entry_oracle(self, rows, aliases):
        sample = _graded_sample(rows)
        oracle = [
            int(normalize_answer(t.extracted_answer, aliases) == normalize_answer(r.gt_answer, aliases))
            for r, t in sample.entries
        ]
        expect_kept = [
            (r, dataclasses.replace(t, correct=True)) for (r, t), ok in zip(sample.entries, oracle) if ok
        ]
        expect_dropped = [
            (r, dataclasses.replace(t, correct=False)) for (r, t), ok in zip(sample.entries, oracle) if not ok
        ]
        assert filter_dataset(sample, aliases).entries == tuple(expect_kept)
        assert discard_dataset(sample, aliases).entries == tuple(expect_dropped)
        assert [reward(r, t.extracted_answer, aliases) for r, t in sample.entries] == oracle

    def test_each_row_and_distinct_ground_truth_normalized_once(self, monkeypatch):
        rows = [(f"g{j % 3}", answer, False) for j, answer in enumerate(["x", "y", "x", "G0", "y", "z"] * 4)]
        rows += [("g1", "g1", True), ("g2", "g2", True), ("g3", "g3", True)]
        sample = _graded_sample(rows)
        batches: list[list[str]] = []
        singles: list[str] = []
        real_all, real_one = rewards._normalize_all, rewards.normalize_answer

        def batch(strings, aliases):
            batches.append(list(strings))
            return real_all(strings, aliases)

        def single(raw, aliases=DEFAULT_SYMBOL_ALIASES):
            singles.append(raw)
            return real_one(raw, aliases)

        monkeypatch.setattr(rewards, "_normalize_all", batch)
        monkeypatch.setattr(rewards, "normalize_answer", single)
        kept = filter_dataset(sample)
        # "G0" normalizes to its ground truth "g0"
        assert sorted((t.query_id, t.extracted_answer) for _, t in kept) == [
            (1, "G0"), (1, "G0"), (1, "G0"), (1, "G0"), (2, "g1"), (3, "g2"), (4, "g3")
        ]
        # one batch of the distinct ground truths of rows that differ from theirs
        # (g3's rows all match raw), one of those rows' distinct answers: they repeat
        rest = [t.extracted_answer for r, t in sample.entries if t.extracted_answer != r.gt_answer]
        assert len(rest) == 24
        assert sorted(batches) == sorted([["g0", "g1", "g2"], list(dict.fromkeys(rest))])
        assert len(batches[-1]) == 4
        assert singles == []  # normalize_answer takes only what the batch cannot

        batches.clear()
        assert len(filter_dataset(_graded_sample([("g1", "g1", False)] * 3))) == 3
        assert batches == [] and singles == []  # raw matches reach no normalizer

        kept = filter_dataset(_graded_sample([("g1", "G1", False), ("g1", "g\n1", False), ("g2", " G2 ", False)]))
        assert [t.extracted_answer for _, t in kept] == ["G1", " G2 "]
        assert singles == ["g\n1"]  # a string holding the batch separator


    @pytest.mark.parametrize(
        "answers, batched",
        [
            (["p", "q", "r", "s"], ["p", "q", "r", "s"]),  # all distinct: row by row
            (list("pqrstuvwxp"), list("pqrstuvwxp")),  # 9 of 10 distinct: row by row
            (list("pqrstuvp"), list("pqrstuv")),  # 7 of 8 distinct: each once
            # only the first 1024 decide: they are distinct, though half of all repeat
            ([f"p{i}" for i in range(1024)] * 2, [f"p{i}" for i in range(1024)] * 2),
        ],
    )
    def test_answers_batched_row_by_row_unless_they_repeat(self, monkeypatch, answers, batched):
        batches: list[list[str]] = []
        real_all = rewards._normalize_all

        def batch(strings, aliases):
            batches.append(list(strings))
            return real_all(strings, aliases)

        monkeypatch.setattr(rewards, "_normalize_all", batch)
        sample = _graded_sample([("g", answer, False) for answer in answers])
        assert len(filter_dataset(sample)) == 0
        assert batches == [["g"], batched]

    @given(
        st.data(),
        st.sampled_from([DEFAULT_SYMBOL_ALIASES, (), CUSTOM_ALIASES]),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_graded_equals_per_row_normalization(self, data, aliases, repeats):
        if repeats:  # a small pool: most answers repeat
            pool = data.draw(st.lists(_ANSWER_TEXT, min_size=1, max_size=3))
            answers = data.draw(st.lists(st.sampled_from(pool), max_size=30))
        else:
            answers = data.draw(st.lists(_ANSWER_TEXT, max_size=30, unique=True))
        gts = data.draw(st.lists(st.text(alphabet=_ALPHABET, max_size=3), min_size=len(answers),
                                 max_size=len(answers)))
        sample = _graded_sample([(gt, answer, False) for gt, answer in zip(gts, answers)])
        expected = [
            normalize_answer(t.extracted_answer, aliases) == normalize_answer(r.gt_answer, aliases)
            for r, t in sample.entries
        ]
        assert rewards._graded(sample, aliases).tolist() == expected


class TestCotLengthFilter:
    def test_short_removed(self):
        ds = TrajectoryDataset.from_entries(
            [(make_query(1), make_traj(1, length=7))], ROLE_FILTER
        )
        assert len(cot_length_filter(ds, 10)) == 0

    def test_zero_floor_is_identity(self, hand_sample):
        sample, _ = hand_sample
        assert cot_length_filter(sample, 0).entries == sample.entries

    def test_mixed_lengths(self):
        q = make_query(1)
        entries = [
            (q, make_traj(1, j, length=ln))
            for j, ln in enumerate((5, 9, 10, 300), start=1)
        ]
        ds = TrajectoryDataset.from_entries(entries, ROLE_FILTER)
        assert len(cot_length_filter(ds, 10)) == 2

    def test_prefix_excluded_from_reasoning_length(self):
        q = make_query(1)
        t = make_traj(1, origin="resampled_gr", prefix_steps=2, prefix_tokens=30, length=35)
        ds = TrajectoryDataset.from_entries([(q, t)], ROLE_FILTER)
        assert len(cot_length_filter(ds, 10)) == 0
        assert len(cot_length_filter(ds, 5)) == 1

    @given(
        st.lists(st.integers(0, 200), min_size=0, max_size=30),
        st.integers(0, 100),
        st.integers(0, 100),
    )
    @settings(deadline=None)
    def test_monotone_in_floor(self, lengths, a, b):
        lo, hi = min(a, b), max(a, b)
        q = make_query(1)
        entries = [
            (q, make_traj(1, j, length=ln)) for j, ln in enumerate(lengths, start=1)
        ]
        ds = TrajectoryDataset.from_entries(entries, ROLE_FILTER)
        assert len(cot_length_filter(ds, hi)) <= len(cot_length_filter(ds, lo))


def test_load_alias_table(tmp_path):
    path = tmp_path / "aliases.tsv"
    path.write_text("# comment\n\\\\pi\tπ\n\\s*/\\s*\t/\n", encoding="utf-8")
    table = load_alias_table(path)
    assert table == (("\\\\pi", "π"), ("\\s*/\\s*", "/"))
    assert normalize_answer(r"\pi / 2", table) == "π/2"


def test_load_alias_table_rejects_missing_tab(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("no-tab-here\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_alias_table(path)


@pytest.mark.parametrize("table, message", [
    ("\\\\pi\tπ\nx(\tY\n", "line 2: missing ), unterminated subpattern"),
    ("x\t\\1\n", "line 1: invalid group reference 1"),
])
def test_load_alias_table_rejects_bad_regex(tmp_path, table, message):
    path = tmp_path / "bad.tsv"
    path.write_text(table, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(message)):
        load_alias_table(path)


@pytest.mark.parametrize(
    "pattern, literal",
    # an upper-case letter in any top-level literal run, not only in the longest one
    [("Half", "Half"), (r"\s*Pi\b", "Pi"), ("x+ABC", "ABC"), (r"ab\s+C", "C")],
)
def test_load_alias_table_rejects_pattern_that_cannot_match(tmp_path, pattern, literal):
    # answers are lower-cased before aliases run, so an upper-case literal never matches
    assert normalize_answer("Half", (("Half", "1/2"),)) == "half"
    assert normalize_answer("ab c", ((r"ab\s+C", "x"),)) == "ab c"
    path = tmp_path / "upper.tsv"
    path.write_text(f"half\t1/2\n(?i)Third\t1/3\nq[A-Z]\tq\n{pattern}\tX\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"line 4: pattern {pattern!r} can never match")) as exc:
        load_alias_table(path)
    assert str(exc.value).endswith(f"it requires {literal!r}")
