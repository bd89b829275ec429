"""Property tests of the columnar JSONL readers against the per-line reference.

``harness.load_log`` and ``harness.read_snapshot`` decode a file straight
into dataset columns, a few lines per pass.  A pass decodes each line with
one call to the C scanner behind ``json.loads`` (``_decode_lines``) and
falls back to ``json.loads`` for a pass with a line the scanner cannot take
whole; when a pass fails they decode its lines one at a time to name the
bad one.  The reference in ``oracles.py`` decodes every line into objects
(``log_reference``, ``load_snapshot`` + ``from_entries``).  On every file
both must give the same columns, answers and records, or raise the same
SchemaError, which names the file.  No value is converted: a field of the
wrong JSON type (a string of digits, a float or a bool for an integer, a
number or null for a string) is a bad line, so the generators draw such
spellings as faults only.  The files mix in
padded records, BOMs, extra data and a last line without its newline, so
the fallback runs too.  The chunk size is patched down to 1-3 lines so
that chunk boundaries, and bad lines past the first chunk, are exercised.
``_decode_lines`` itself is checked against ``list(map(json.loads, ...))``
on arbitrary JSON values and odd lines.

A snapshot chunk in the writer's own line form is decoded by one pattern
(``_snapshot_lines_chunk``) instead of the scanner.  Snapshots written by
``_snapshot_chunks``, and the same file perturbed line by line, must read
the same with that decoder and with every chunk scanned, and a written
snapshot must never reach the scanner.
"""

import dataclasses
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from headtail import cli, harness
from headtail.core import ORIGIN_RESAMPLED_GR, ORIGINS, ROLE_FILTER, ROLE_SAMPLE
from headtail.harness import SchemaError, load_log, read_snapshot

import oracles

# values of every JSON type but an integer, and integers at the 64-bit edges
HOSTILE_INTS = st.one_of(
    st.sampled_from(["5", " 7 ", "x", "2.5", "", "-1"]),
    st.sampled_from([2.5, 0.0, -1.5, 1e30, float("nan"), float("inf")]),
    st.booleans(),
    st.none(),
    st.sampled_from([2**63 - 1, 2**63, 2**64, -(2**63), -(2**63) - 1]),
    st.just([1]),
)
BLANK = st.sampled_from(["", "   ", "\t \t"])
JUNK = st.sampled_from([
    "{broken", "[1, 2]", "3", '"x"', "null", "NaN", "{",
    "\ufeff{}", "{} x", "{}{}", "]", ",", str(2**100), "-Infinity",
])
PAD = st.sampled_from(["", "", " ", "\t", " \t "])  # json whitespace that may surround a record


@st.composite
def misspelled(draw, lo, hi):
    """An integer in ``[lo, hi]`` spelled as a JSON value that int() would
    read back as it: a string of digits, padded or not, a float or a bool.
    Each is a bad value."""
    n = draw(st.integers(lo, hi))
    forms = [str(n), f" {n} ", n + 0.25 if n >= 0 else n - 0.25]
    if n in (0, 1):
        forms.append(bool(n))
    return draw(st.sampled_from(forms))


GT = {1: "a1", 2: "2", 3: "None"}
LEVEL = {1: None, 2: 3, 3: 5}


@st.composite
def offsets(draw):
    """Valid step offsets: ascending inside (0, token_count), anything outside."""
    inner = sorted(draw(st.sets(st.integers(1, 14), max_size=4)))
    outer = draw(st.lists(st.sampled_from([0, -4, 15, 2**63, 2**64, -(2**64)]), max_size=2))
    return inner + outer


@st.composite
def log_records(draw):
    q = draw(st.integers(1, 3))
    record = {
        "query_id": q,
        "gt_answer": GT[q],
        "extracted_answer": draw(st.sampled_from(["a1", "2", "x", "None"])),
        "token_count": draw(st.one_of(st.integers(0, 20), st.just(2**63 - 1))),
    }
    if draw(st.booleans()):
        record["step_offsets"] = draw(offsets())
    if draw(st.booleans()):
        record["iteration"] = draw(st.integers(1, 3))
    return record


DROP = object()  # a fault that removes the field


def faults(**values):
    """A fault: each named field takes a value drawn from its strategy."""
    return st.fixed_dictionaries(values)


def missing(required):
    return st.sampled_from(sorted(required)).map(lambda name: {name: DROP})


LOG_FAULTS = (
    # inner offsets out of order, or spelled as int() would read them
    faults(token_count=st.just(10), step_offsets=st.sampled_from([[5, 3], [2, 2], [4, "4"], [9, 1.5], [1, True]])),
    faults(step_offsets=st.one_of(
        st.sampled_from([["3a"], [None], [[1]], None, 5, 2.5, "3a", {"x": 1}, "", "123", "59", {}, {"2": 0, "6": 1}]),
        misspelled(1, 14).map(lambda b: [b]),
    )),
    faults(gt_answer=st.sampled_from(["b", [1], 3, 2, None])),  # "b" conflicts with the query's other records
    faults(token_count=st.one_of(st.sampled_from([-1, 2**63, -(2**64)]), HOSTILE_INTS, misspelled(0, 20))),
    faults(iteration=st.one_of(st.sampled_from([0, -3, 2**63]), HOSTILE_INTS, misspelled(1, 3))),
    faults(query_id=st.one_of(st.sampled_from([2**63, -(2**63) - 1]), HOSTILE_INTS, misspelled(1, 3))),
    faults(extracted_answer=st.sampled_from([[1], {"a": 1}, 2.5, 7, None])),
    missing(harness._LOG_REQUIRED),
    st.just({"mystery": 1}),
)


@st.composite
def snapshot_records(draw):
    q = draw(st.integers(1, 3))
    origin = draw(st.sampled_from(ORIGINS))
    record = {
        "query_id": q,
        "sample_index": draw(st.integers(1, 3)),
        "iteration": draw(st.integers(1, 3)),
        "length_tokens": draw(st.integers(0, 50)),
        "correct": draw(st.sampled_from([True, True, False])),
    }
    if origin != ORIGINS[0] or draw(st.booleans()):
        record["origin"] = origin
    if origin == ORIGIN_RESAMPLED_GR or draw(st.booleans()):
        record["prefix_steps"] = draw(st.integers(0, 2)) if origin == ORIGIN_RESAMPLED_GR else 0
    if LEVEL[q] is not None:
        record["level"] = LEVEL[q]
    elif draw(st.booleans()):
        record["level"] = None
    return record


SNAPSHOT_FAULTS = (
    faults(level=st.sampled_from([1, 4, "4"])),  # a second level for a query, or a string
    faults(level=st.one_of(st.sampled_from([0, 9, -1, False, "0", 0.5]), HOSTILE_INTS, misspelled(1, 5))),
    faults(origin=st.sampled_from(["bogus", 3, None, ["explored"]])),
    faults(origin=st.just("explored"), prefix_steps=st.sampled_from([1, "2", True])),
    faults(prefix_steps=st.one_of(st.just(-1), HOSTILE_INTS, misspelled(0, 2))),
    faults(correct=st.sampled_from(["yes", 1, None, 0])),
    faults(length_tokens=st.one_of(st.sampled_from([-1, 2**63]), HOSTILE_INTS, misspelled(0, 50))),
    faults(sample_index=st.one_of(st.sampled_from([0, 2**64]), HOSTILE_INTS, misspelled(1, 3))),
    faults(iteration=st.one_of(st.just(0), HOSTILE_INTS, misspelled(1, 3))),
    faults(query_id=st.one_of(st.just(2**63), HOSTILE_INTS, misspelled(1, 3))),
    missing(harness._SNAPSHOT_REQUIRED),
    st.just({"mystery": 1}),
)


@st.composite
def damaged(draw, records, fault_list):
    """A valid record with one fault applied."""
    record = draw(records)
    for name, value in draw(st.one_of(fault_list)).items():
        if value is DROP:
            record.pop(name)
        else:
            record[name] = value
    return json.dumps(record)


@st.composite
def jsonl_files(draw, records, fault_list):
    """Valid records, some padded with whitespace, with blank lines and at
    most two bad lines among them: junk, a record after a BOM or before
    extra data, a faulty record.  The last line may lack its newline."""
    lines = draw(st.lists(st.tuples(PAD, records.map(json.dumps), PAD).map("".join), max_size=10))
    bad = st.one_of(
        JUNK,
        records.map(lambda r: "\ufeff" + json.dumps(r)),
        records.map(lambda r: json.dumps(r) + " {}"),
        damaged(records, fault_list),
        damaged(records, fault_list),
    )
    extras = draw(st.lists(BLANK, max_size=2)) + draw(st.lists(bad, max_size=2))
    for extra in extras:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    text = "".join(line + "\n" for line in lines)
    return text[:-1] if text and draw(st.booleans()) else text


def outcome(read, path):
    """What a reader makes of ``path``: its SchemaError message, with
    ``path`` written as ``{path}``, or the dataset's contents."""
    try:
        ds = read(path)
    except SchemaError as exc:
        return str(exc).replace(str(path), "{path}")
    columns = {name: col.tolist() for name, col in ds.columns.items()}
    corpus = {f.name: getattr(ds.corpus, f.name).tolist() for f in dataclasses.fields(ds.corpus)}
    return ds.role, columns, ds.answers.tolist(), corpus


def both_outcomes(text, chunk, columnar, reference):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.jsonl"
        path.write_text(text, encoding="utf-8")
        with mock.patch.object(harness, "_READ_CHUNK", chunk):
            return outcome(columnar, path), outcome(reference, path)


@given(jsonl_files(log_records(), LOG_FAULTS), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_log_reader_matches_per_line_reference(text, chunk):
    got, expected = both_outcomes(text, chunk, load_log, oracles.log_reference)
    assert got == expected


@given(jsonl_files(snapshot_records(), SNAPSHOT_FAULTS), st.integers(1, 3),
       st.sampled_from([ROLE_SAMPLE, ROLE_FILTER]))
@settings(max_examples=100, deadline=None)
def test_snapshot_reader_matches_per_line_reference(text, chunk, role):
    got, expected = both_outcomes(
        text, chunk, lambda p: read_snapshot(p, role), lambda p: oracles._snapshot_reference(p, role)
    )
    assert got == expected


def _log_line(qid, gt="a", offsets=(2, 5), tokens=10):
    return json.dumps({"query_id": qid, "gt_answer": gt, "extracted_answer": gt,
                       "token_count": tokens, "step_offsets": list(offsets)})


@pytest.mark.parametrize("pad", ["", "  "], ids=["bare", "indented"])  # indented: json.loads' path
def test_valid_log_is_decoded_once_per_chunk(tmp_path, monkeypatch, pad):
    path = tmp_path / "log.jsonl"
    path.write_text("".join(pad + _log_line(q) + "\n" for q in (1, 2, 1)), encoding="utf-8")
    decode = mock.Mock(wraps=harness._scanned)
    monkeypatch.setattr(harness, "_scanned", decode)
    monkeypatch.setattr(harness, "_READ_CHUNK", 2)
    sample = load_log(path)
    assert decode.call_count == 2  # chunks of 2 and 1 lines; no line decoded again alone
    assert len(sample) == 3
    assert sample.columns["sample_index"].tolist() == [1, 2, 1]


def test_valid_log_is_decoded_by_the_scanner_alone(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    path.write_text("".join(_log_line(q) + " \n" for q in (1, 2, 1)), encoding="utf-8")
    monkeypatch.setattr(json, "loads", mock.Mock(side_effect=AssertionError))
    assert len(load_log(path)) == 3


@pytest.mark.parametrize(
    "bad, message",
    [
        (_log_line(2, offsets=(5, 3)), "{path}: line 5: step_offsets must be strictly ascending"),
        (_log_line(2, gt="b"), "{path}: record 4: conflicting gt_answer for query 2"),
        (_log_line(2, tokens=2**63), "{path}: line 5: token_count must fit in 64 bits"),
        (_log_line(2, tokens=float("inf")), "{path}: line 5: token_count must be an integer"),
    ],
)
def test_log_error_past_the_first_chunk(tmp_path, monkeypatch, bad, message):
    lines = [_log_line(1), "", _log_line(2), _log_line(3), bad, _log_line(4)]
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setattr(harness, "_READ_CHUNK", 2)
    with pytest.raises(SchemaError) as info:
        load_log(path)
    assert str(info.value) == message.format(path=path)


def _snapshot_line(qid, **fields):
    return json.dumps({"query_id": qid, "sample_index": 1, "iteration": 1, "origin": "explored",
                       "prefix_steps": 0, "length_tokens": 30, "level": qid, "correct": True, **fields})


@pytest.mark.parametrize(
    "bad, message",
    [
        (_snapshot_line(2, correct=1), "{path}: line 5: correct must be true or false"),
        (_snapshot_line(2, level=0), "{path}: line 5: level must be in (1, 2, 3, 4, 5) when set, got 0"),
        (_snapshot_line(2, origin="bogus"), "{path}: line 5: unknown origin 'bogus'"),
        (_snapshot_line(2, prefix_steps=1), "{path}: line 5: prefix_steps is only meaningful for guided resamples"),
        (_snapshot_line(2, level=4), "{path}: conflicting records for query 2"),
        (_snapshot_line(2, length_tokens=2**63), "{path}: line 5: length_tokens must fit in 64 bits"),
        (_snapshot_line(2**63, level=2), "{path}: line 5: query_id must fit in 64 bits"),
        (_snapshot_line(2, correct=False), "{path}: filter datasets may only contain correct trajectories"),
    ],
)
def test_snapshot_error_past_the_first_chunk(tmp_path, monkeypatch, bad, message):
    lines = [_snapshot_line(1), "", _snapshot_line(2), _snapshot_line(3), bad, _snapshot_line(4)]
    path = tmp_path / "snap.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setattr(harness, "_READ_CHUNK", 2)
    with pytest.raises(SchemaError) as info:
        read_snapshot(path, ROLE_FILTER)
    assert str(info.value) == message.format(path=path)


# one line with two faults: the reader must name the one the per-line decoder checks first
@pytest.mark.parametrize(
    "fault",
    [
        {"query_id": "x", "token_count": "y"},
        {"iteration": "x", "step_offsets": [None]},
        {"token_count": -1, "query_id": 2**64},
        {"iteration": 0, "token_count": 2**63},
        {"query_id": 2**64, "step_offsets": [5, 3]},
        {"token_count": -1, "iteration": 0},
    ],
)
def test_log_line_with_two_faults_matches_reference(fault):
    bad = json.dumps({**json.loads(_log_line(2)), **fault})
    got, expected = both_outcomes(_log_line(1) + "\n" + bad + "\n", 2, load_log, oracles.log_reference)
    assert got == expected
    assert got.startswith("{path}: line 2: ")


@pytest.mark.parametrize(
    "fault",
    [
        {"correct": 1, "query_id": "x"},
        {"query_id": "x", "level": 9},
        {"level": 0, "sample_index": "x"},
        {"sample_index": 0, "iteration": 0},
        {"iteration": 0, "length_tokens": -1},
        {"length_tokens": -1, "origin": ["explored"]},
        {"origin": "bogus", "prefix_steps": -1},
        {"prefix_steps": "x", "length_tokens": -1},
        {"origin": "explored", "prefix_steps": -1},
        {"length_tokens": 2**64, "sample_index": 0},
    ],
)
def test_snapshot_line_with_two_faults_matches_reference(fault):
    bad = _snapshot_line(2, **fault)
    got, expected = both_outcomes(
        _snapshot_line(1) + "\n" + bad + "\n", 2,
        lambda p: read_snapshot(p, ROLE_FILTER), lambda p: oracles._snapshot_reference(p, ROLE_FILTER),
    )
    assert got == expected
    assert got.startswith("{path}: line 2: ")


# the keys are checked once per distinct key order, so a line whose keys differ
# from its chunk's first line must still be checked
@pytest.mark.parametrize(
    "keys, message",
    [
        ({"mystery": 1}, "{path}: line 3: unknown fields ['mystery']"),
        ({"token_count": DROP}, "{path}: line 3: missing fields ['token_count']"),
        ({"iteration": 1, "gt_answer": DROP, "mystery": 1}, "{path}: line 3: unknown fields ['mystery']"),
    ],
)
def test_line_with_other_keys_than_its_chunk_is_checked(keys, message):
    record = {name: v for name, v in {**json.loads(_log_line(2)), **keys}.items() if v is not DROP}
    text = _log_line(1) + "\n" + _log_line(3) + "\n" + json.dumps(record) + "\n"
    got, expected = both_outcomes(text, 3, load_log, oracles.log_reference)
    assert got == expected == message


@st.composite
def mixed_key_chunks(draw):
    """One chunk of log records, each in its own key order, with and without
    each optional field; a few rows carry an unknown key or lack a required one."""
    records = draw(st.lists(log_records(), min_size=1, max_size=8))
    for i in draw(st.sets(st.integers(0, len(records) - 1), max_size=2)):
        fault = draw(st.sampled_from(["mystery", *sorted(harness._LOG_REQUIRED)]))
        if fault == "mystery":
            records[i][fault] = 1
        else:
            del records[i][fault]
    lines = [json.dumps({name: r[name] for name in draw(st.permutations(list(r)))}) for r in records]
    return "".join(line + "\n" for line in lines)


@given(mixed_key_chunks())
@settings(max_examples=100, deadline=None)
def test_chunk_of_mixed_key_orders_matches_per_line_reference(text):
    got, expected = both_outcomes(text, 8, load_log, oracles.log_reference)  # every line in one chunk
    assert got == expected


_NOT_UTF8 = b'{"query_id": 2, "gt_answer": "a\xff", "extracted_answer": "a", "token_count": 10}'


@pytest.mark.parametrize(
    "lines, message",
    [
        ([_log_line(1), "", _log_line(2), _log_line(3), _NOT_UTF8, _log_line(4)], "{path}: line 5: not valid UTF-8"),
        # within a chunk, the first bad line wins, whatever its fault
        ([_log_line(1), _NOT_UTF8, _log_line(2, offsets=(5, 3))], "{path}: line 2: not valid UTF-8"),
        ([_log_line(1), _log_line(2, offsets=(5, 3)), _NOT_UTF8],
         "{path}: line 2: step_offsets must be strictly ascending"),
    ],
)
def test_line_that_is_not_utf8_is_named(tmp_path, monkeypatch, lines, message):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b"".join((line if isinstance(line, bytes) else line.encode()) + b"\n" for line in lines))
    monkeypatch.setattr(harness, "_READ_CHUNK", 3)
    with pytest.raises(SchemaError) as info:
        load_log(path)
    assert str(info.value) == message.format(path=path)


def test_chunk_error_no_single_line_reproduces_is_reraised(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    path.write_text(_log_line(1) + "\n" + _log_line(2) + "\n", encoding="utf-8")
    log_chunk = harness._log_chunk

    def fails_on_two_rows(rows):
        if len(rows) > 1:
            raise ValueError("columnar bug")
        return log_chunk(rows)

    monkeypatch.setattr(harness, "_log_chunk", fails_on_two_rows)
    with pytest.raises(ValueError, match="columnar bug"):
        load_log(path)


# lines json's scanner gives up on with other errors than a JSONDecodeError: a
# number past Python's integer digit limit, an array nested past the recursion limit
_LONG_INT_LINE = _log_line(2, tokens=10).replace('"token_count": 10', '"token_count": ' + "9" * 5000)
_DEEP_LINE = "[" * 100_000 + "]" * 100_000


def _rebalance_outcome(tmp_path, capsys, bad):
    path = tmp_path / "log.jsonl"
    path.write_text(_log_line(1) + "\n" + bad + "\n" + _log_line(3) + "\n", encoding="utf-8")
    out, summary = tmp_path / "out.jsonl", tmp_path / "summary.csv"
    code = cli.main(["rebalance", "--input", str(path), "--output", str(out), "--summary", str(summary),
                     "--strategy", "tc", "--k", "8"])
    assert not out.exists() and not summary.exists()
    return code, capsys.readouterr().err


def test_integer_past_the_digit_limit_is_a_schema_error(tmp_path, capsys):
    code, err = _rebalance_outcome(tmp_path, capsys, _LONG_INT_LINE)
    assert code == 3
    assert err.startswith(f"schema error: {tmp_path / 'log.jsonl'}: line 2: cannot decode JSON (Exceeds the limit (4300 digits)")


def test_line_nested_too_deeply_is_a_schema_error(tmp_path, capsys):
    code, err = _rebalance_outcome(tmp_path, capsys, _DEEP_LINE)
    assert code == 3
    assert err == f"schema error: {tmp_path / 'log.jsonl'}: line 2: cannot decode JSON (nested too deeply)\n"
    run_dir = tmp_path / "run"
    snapshot = run_dir / "datasets" / "train_final.jsonl"
    snapshot.parent.mkdir(parents=True)
    snapshot.write_text(_snapshot_line(1) + "\n" + _DEEP_LINE + "\n", encoding="utf-8")
    assert cli.main(["report", "--run-dir", str(run_dir)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"schema error: {snapshot}: line 2: cannot decode JSON (nested too deeply)\n"
    assert captured.out == ""


# -- one type rule: a field holds exactly its JSON type ------------------------

# every typed field of each reader, a value of another JSON type, and the message it gives
_TYPED_FIELDS = [
    *((load_log, f, v, f"{f} must be an integer") for f in ("query_id", "token_count", "iteration")
      for v in ("5", 5.0, True, None, [5])),
    *((load_log, "step_offsets", [2, v], "step_offsets element must be an integer")
      for v in ("5", 5.0, True, None, [5])),
    *((load_log, "step_offsets", v, "step_offsets must be an array") for v in ("25", 25, {"2": 5}, None)),
    *((load_log, f, v, f"{f} must be a string") for f in ("gt_answer", "extracted_answer")
      for v in (5, None, True, ["x"])),
    *((read_snapshot, f, v, f"{f} must be an integer")
      for f in ("query_id", "sample_index", "iteration", "length_tokens", "prefix_steps", "level")
      for v in ("5", 5.0, True, None, [5]) if not (f == "level" and v is None)),  # a null level is unset
    *((read_snapshot, "origin", v, "origin must be a string") for v in (5, None, True, ["x"])),
]


@pytest.mark.parametrize("read, field, value, message", _TYPED_FIELDS)
def test_field_of_another_json_type_is_a_bad_line(tmp_path, read, field, value, message):
    make = _log_line if read is load_log else _snapshot_line
    path = tmp_path / "in.jsonl"
    path.write_text(make(1) + "\n" + json.dumps({**json.loads(make(2)), field: value}) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load_log(path) if read is load_log else read_snapshot(path, ROLE_SAMPLE)
    assert str(info.value) == f"{path}: line 2: {message}"


# lines that a coercing reader took as valid: null answers graded as strings,
# a float truncated, a bool read as 0, digits in a string, a string of offsets
_PROBES = {
    "null answers": {"gt_answer": None, "extracted_answer": None},
    "float token_count": {"token_count": 30.9},
    "bool query_id": {"query_id": False},
    "digit string token_count": {"token_count": "1_5"},
    "string step_offsets": {"step_offsets": "123"},
}
_PROBE_ERRORS = {
    "null answers": "gt_answer must be a string",
    "float token_count": "token_count must be an integer",
    "bool query_id": "query_id must be an integer",
    "digit string token_count": "token_count must be an integer",
    "string step_offsets": "step_offsets must be an array",
}


@pytest.mark.parametrize("probe", list(_PROBES))
def test_coercible_log_line_fails_rebalance_and_writes_nothing(tmp_path, capsys, probe):
    bad = json.dumps({**json.loads(_log_line(2)), **_PROBES[probe]})
    code, err = _rebalance_outcome(tmp_path, capsys, bad)  # asserts no --output, no --summary
    assert code == 3
    assert err == f"schema error: {tmp_path / 'log.jsonl'}: line 2: {_PROBE_ERRORS[probe]}\n"


def test_coercible_snapshot_line_fails_report(tmp_path, capsys):
    snapshot = tmp_path / "datasets" / "train_final.jsonl"
    snapshot.parent.mkdir()
    bad = _snapshot_line(2, iteration=1.7, length_tokens="12", level=True)
    snapshot.write_text(_snapshot_line(1) + "\n" + bad + "\n", encoding="utf-8")
    assert cli.main(["report", "--run-dir", str(tmp_path)]) == 3
    assert capsys.readouterr() == ("", f"schema error: {snapshot}: line 2: level must be an integer\n")


@given(st.sampled_from(["log", "snapshot"]), st.lists(JUNK, min_size=1, max_size=2), st.integers(0, 3),
       st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_every_schema_error_names_its_file(kind, junk, at, chunk):
    make = _log_line if kind == "log" else _snapshot_line
    lines = [make(q) for q in (1, 2, 3)]
    for line in junk:
        lines.insert(min(at, len(lines)), line)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(harness, "_READ_CHUNK", chunk):
        path = Path(tmp) / "in.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            load_log(path) if kind == "log" else read_snapshot(path, ROLE_FILTER)
    assert str(info.value).startswith(f"{path}: ")


# -- the chunk decoder against json.loads ------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**64, -(2**100)]) | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)
DUMPED = st.tuples(JSON_VALUES, st.booleans()).map(lambda v: json.dumps(v[0], ensure_ascii=v[1]))
JSON_SPACE = st.text(alphabet=" \t\r", max_size=2)  # "\n" ends a line
# lines json.loads rejects, or takes only because of what follows the scanned value
ODD_LINES = st.sampled_from([
    "\ufeff{}", "{} x", "{}{}", "]", ",", "", "[1", "2]", "3, 4", "NaN", "-Infinity", "1 2", '"\\ud800"',
])


@st.composite
def decoder_chunks(draw):
    """Lines as the reader hands them over: each ends in a newline but perhaps the last."""
    padded = st.tuples(JSON_SPACE, DUMPED, JSON_SPACE).map("".join)
    lines = [text + "\n" for text in draw(st.lists(st.one_of(padded, ODD_LINES), max_size=6))]
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1][:-1]
    return lines


def decoded(decode, lines):
    """What ``decode`` makes of ``lines``: the dumped values (NaN != NaN), or the exception."""
    try:
        return json.dumps(decode(lines))
    except Exception as exc:
        return type(exc), str(exc)


@given(decoder_chunks())
@example(["{} x\n", "[" * 100_000])  # an earlier line's error wins over a later RecursionError
@example(["[" * 100_000])
@example(["[1\n", "2]\n", "3, 4"])  # never read as one array
@settings(max_examples=300, deadline=None)
def test_decode_lines_matches_json_loads(lines):
    assert decoded(harness._decode_lines, lines) == decoded(lambda ls: list(map(json.loads, ls)), lines)


# -- headtail's own line form, decoded by one pattern per chunk ---------------

# ids of 18 digits are the longest the pattern takes; 19-digit ones, inside
# int64 or not, are scanned
BIG_INTS = st.sampled_from([10**17, 10**18 - 1, 10**18, 2**63 - 1])
QUERY_IDS = st.one_of(st.integers(-5, 40), BIG_INTS, BIG_INTS.map(lambda n: -n), st.just(-(2**63)))


@st.composite
def written_datasets(draw):
    """A dataset of any rows over up to 4 queries, leveled or not, as
    ``_snapshot_chunks`` writes it: every origin, guided rows' prefix steps,
    negative ids, ids and counts of 18 and 19 digits."""
    role = draw(st.sampled_from([ROLE_SAMPLE, ROLE_FILTER]))
    levels = draw(st.dictionaries(QUERY_IDS, st.sampled_from([0, *harness.LEVELS]), min_size=1, max_size=4))
    positive = st.one_of(st.integers(1, 3), BIG_INTS)
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        origin = draw(st.integers(0, len(ORIGINS) - 1))
        guided = ORIGINS[origin] == ORIGIN_RESAMPLED_GR
        rows.append((
            draw(st.sampled_from(sorted(levels))), draw(positive), draw(positive),
            draw(st.one_of(st.integers(0, 50), BIG_INTS)), origin,
            draw(st.one_of(st.integers(0, 3), BIG_INTS)) if guided else 0,
            True if role != ROLE_SAMPLE else draw(st.booleans()),
        ))
    names = ("query_id", "sample_index", "iteration", "length_tokens", "origin", "prefix_steps", "correct")
    columns = {name: [row[i] for row in rows] for i, name in enumerate(names)}
    used = sorted({row[0] for row in rows})
    corpus = harness.Corpus(used, "", [levels[q] for q in used])
    return harness.TrajectoryDataset(role, columns, corpus)


def fast_and_scanned(path, role):
    """What ``read_snapshot`` makes of ``path``, as ``outcome`` gives it,
    with the writer-form decoder and with every chunk scanned; and whether
    that decoder took every chunk with a line (a chunk it took may fail a
    check; the empty columns of a file with no lines are scanned)."""
    taken = []
    decode = harness._snapshot_lines_chunk

    def recording(lines):
        taken.append(True)
        columns = decode(lines)
        taken[-1] = columns is not None or not lines
        return columns

    with mock.patch.object(harness, "_snapshot_lines_chunk", recording):
        fast = outcome(lambda p: read_snapshot(p, role), path)
    with mock.patch.object(harness, "_snapshot_lines_chunk", lambda lines: None):  # every chunk scanned
        scanned = outcome(lambda p: read_snapshot(p, role), path)
    return fast, scanned, all(taken)


@given(written_datasets(), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_written_snapshot_reads_the_same_by_pattern_and_by_scanner(dataset, chunk):
    text = "".join(harness._snapshot_chunks(dataset))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(harness, "_READ_CHUNK", chunk):
        path = Path(tmp) / "snap.jsonl"
        path.write_text(text, encoding="utf-8")
        fast, scanned, taken = fast_and_scanned(path, dataset.role)
    assert fast == scanned
    columns = fast[1]
    assert columns == {name: col.tolist() for name, col in dataset.columns.items()}
    long_ints = any(len(str(abs(v))) > 18 for name, col in columns.items() if name != "answer" for v in col)
    assert taken == (not long_ints)


def _written_text():
    """Four snapshot lines as the writer makes them: queries 1 (level 2),
    2 (unleveled, a guided row with 2 prefix steps) and 3 (level 5)."""
    corpus = harness.Corpus([1, 2, 3], "", [2, 0, 5])
    columns = {"query_id": [1, 1, 2, 3], "sample_index": [1, 2, 1, 1], "iteration": [1, 1, 2, 1],
               "length_tokens": [30, 0, 12, 7], "origin": [0, 1, 2, 3], "prefix_steps": [0, 0, 2, 0],
               "correct": [True, False, True, True]}
    return "".join(harness._snapshot_chunks(harness.TrajectoryDataset(ROLE_SAMPLE, columns, corpus)))


def _edit(*pairs):
    """A perturbation replacing the first ``old`` of the written file by ``new``, for each pair."""
    def edit(text):
        for old, new in pairs:
            assert old in text
            text = text.replace(old, new, 1)
        return text
    return edit


def _reordered(text):
    first, second, *rest = text.splitlines(keepends=True)
    return first + json.dumps(dict(reversed(json.loads(second).items()))) + "\n" + "".join(rest)


# a change to the written file; whether the pattern still takes every line
# (a line it takes may still fail a check)
PERTURBATIONS = {
    "canonical": (_edit(), True),
    "reordered keys": (_reordered, False),
    "extra space": (_edit(('"length_tokens": 0,', '"length_tokens":  0,')), False),
    "trailing space": (_edit(("2}\n", "2} \n")), False),
    "leading zero": (_edit(('"iteration": 2,', '"iteration": 02,')), False),
    "minus zero": (_edit(('"prefix_steps": 0, "query_id": 1, "sample_index": 2',
                          '"prefix_steps": -0, "query_id": 1, "sample_index": 2')), True),
    "minus zero sample_index": (_edit(('"sample_index": 2}', '"sample_index": -0}')), True),
    "19-digit int": (_edit(('"length_tokens": 0,', f'"length_tokens": {10**18},')), False),
    "19-digit int past int64": (_edit(('"length_tokens": 0,', f'"length_tokens": {10**19 - 1},')), False),
    "level 0": (_edit(('"level": 5', '"level": 0')), False),
    "level 6": (_edit(('"level": 5', '"level": 6')), False),
    "level 3.0": (_edit(('"level": 5', '"level": 3.0')), False),
    "unknown origin": (_edit(('"resampled_ar"', '"bogus"')), False),
    "escaped origin": (_edit(('"resampled_ar"', '"\\u0065xplored"')), False),
    "arabic-indic digit": (_edit(('"length_tokens": 0,', '"length_tokens": \u0660,')), False),
    "arabic-indic digit after an ascii one": (
        _edit(('"length_tokens": 0,', '"length_tokens": 1\u0663,')), False),
    "crlf": (lambda text: text.replace("\n", "\r\n"), True),  # read with universal newlines
    "bom": (lambda text: "\ufeff" + text, False),
    "blank lines": (_edit(("}\n", "}\n\n  \n"), ("}\n{", "}\n\t\n{")), True),
    "no final newline": (lambda text: text[:-1], True),
    "two faults in the written form": (
        _edit(('"iteration": 1, "length_tokens": 0,', '"iteration": 0, "length_tokens": 0,'),
              ('"sample_index": 2}', '"sample_index": 0}')), True),
    "two checks in the written form": (
        _edit(('"length_tokens": 0, "level": 2, "origin": "resampled_ar", "prefix_steps": 0',
               '"length_tokens": -1, "level": 2, "origin": "resampled_ar", "prefix_steps": 1')), True),
    "two faults out of the form": (
        _edit(('"level": 2, "origin": "resampled_ar"', '"level": 6, "origin": "bogus"')), False),
}


@pytest.mark.parametrize("name", list(PERTURBATIONS))
def test_perturbed_snapshot_reads_the_same_by_pattern_and_by_scanner(tmp_path, name):
    perturb, taken = PERTURBATIONS[name]
    path = tmp_path / "snap.jsonl"
    path.write_bytes(perturb(_written_text()).encode("utf-8"))
    fast, scanned, fast_took_all = fast_and_scanned(path, ROLE_SAMPLE)
    assert fast == scanned
    assert fast_took_all == taken


def test_written_snapshot_is_never_scanned(tmp_path, monkeypatch):
    config = harness.RunConfig(n_queries=40, k_samples=4, iterations=2, mode="iterative_union")
    report = harness.run(config)
    harness.emit_report(report, tmp_path)
    monkeypatch.setattr(harness, "_scan", mock.Mock(side_effect=AssertionError("scanned")))
    monkeypatch.setattr(json, "loads", mock.Mock(side_effect=AssertionError("scanned")))
    for name, dataset in (("train_final", report.final_train), ("filter_final", report.final_filter)):
        read = read_snapshot(tmp_path / "datasets" / f"{name}.jsonl", dataset.role)
        assert all(np.array_equal(read.columns[c], dataset.columns[c]) for c in dataset.columns if c != "answer")
