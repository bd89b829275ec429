"""End-to-end orchestration: the loop, experiment modes, offline rebalancing.

One run = calibrate difficulty once from the initial policy, then iterate
explore / filter / rebalance / train, recording diagnostics rows for the
sample, filter, and train sets of every iteration.  Everything downstream
of the config and seed is deterministic to the byte.

Modes
-----
self_improve    the standard loop; the strategy reshapes each iteration's
                filtered set before training.
batch_baseline  one iteration of T*K draws from the initial policy:
                filter, rebalance and train once; its rows are recorded
                against K, like the other modes' rows.
iterative_union train each iteration on the union of every filtered set so
                far (the strategy applies per iteration or on the union,
                per ``apply_point``); the final training step therefore
                sees the full union.

All three modes run through one loop (``_run_loop``).  Offline mode
applies the sampler-free reshaping strategies to real trajectory logs
(JSONL, one record per sampled response).  A strategy has no K or seed
of its own: in a run it reads the config's ``k_samples`` and ``seed``,
offline the log's sampling number and ``rebalance_offline``'s ``seed``.

Logs and dataset snapshots are read by one chunked reader
(``_read_columns``): it decodes a fixed number of lines per pass straight
into dataset columns and checks them column by column, building no
per-line objects.  Each format has one pass decoder.  A log pass is
scanned (``_scanned``) and its rows made columns (``_log_chunk``).  A
snapshot pass (``_snapshot_decode``) whose every line is in headtail's own
line form is decoded by one compiled pattern built from the writer's
templates (``_snapshot_line``), with one array call per field
(``_snapshot_lines_chunk``); any other snapshot pass is scanned.  To scan
is to decode each line by one call to the C scanner behind ``json.loads``
(``_decode_lines``), and a pass with a line the scanner cannot take whole
(leading whitespace, a BOM, extra data, bad JSON) goes through
``json.loads`` instead.  No value is converted: a field holds exactly the
JSON type its schema names (an integer, never a bool, a float or a string
of digits; a string; an array of integers), and an integer field must fit
in 64 bits (``_typed``, ``_int64``), or its line is bad.  Each field
becomes an array in one call, and a log is sorted by query id once
(``_log_dataset``, through ``core.first_rows``, which groups a snapshot's
queries too).  A snapshot is read as the filter set it is written as:
whichever way a pass was decoded, ``_snapshot_decode`` runs the dataset's
own row checker (``core._check_columns``, correct flags included) on it
once.  A pass that fails decodes its lines again
one at a time, in memory, through the same pass decoder, and raises the
SchemaError naming the file and its first bad line (``{path}: line N:
...``) with the message a line-by-line read gives, whichever way the pass
was decoded; faults only the whole file shows (two ground truths or
levels for one query) are raised once every line has decoded, naming the
file.  A file is taken whole or not at all.

Snapshots are written by one writer (``_snapshot_chunks``),
``_SNAPSHOT_CHUNK`` (1024) rows per string.  A line is five texts: a head
formatted once per distinct correct flag and iteration, the length_tokens
decimal, a middle formatted once per stretch of rows with equal query id,
origin and prefix_steps, the sample_index decimal, and ``}\n``.  The
decimals are one lookup in the texts of 0..1023 (``str`` only for a value
past them).  Over the whole dataset the writer keeps int index arrays
only; a chunk's texts are built for that chunk and joined at once, so a
write holds one chunk of text at a time, never the whole file.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import re
import typing
from dataclasses import dataclass, field
from operator import countOf, itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .core import (
    LEVELS,
    ORIGIN_EXPLORED,
    ORIGIN_RANK,
    ORIGINS,
    ROLE_FILTER,
    ROLE_SAMPLE,
    _UNSET,
    Corpus,
    TrajectoryDataset,
    _check_columns,
    first_rows,
    merge_datasets,
    object_array,
    run_positions,
)
from .learner import (
    CorpusParams,
    LearnerParams,
    LearnerState,
    calibrate_difficulty,
    init_learner,
    synth_corpus,
)
from .metrics import REFERENCE_TARGETS, MetricsRow, build_row, rows_to_csv
from .rewards import (
    DEFAULT_SYMBOL_ALIASES,
    cot_length_filter,
    discard_dataset,  # noqa: F401 -- unused here; perfbench/tracer.py wraps harness.discard_dataset
    filter_dataset,
    partition_dataset,
)
from .strategies import (
    KINDS,
    SamplerError,
    StrategyConfig,
    adaptive_resample,
    check_int64,
    guided_resample,
    reshape,
    self_correct_augment,
)

MODES = ("self_improve", "batch_baseline", "iterative_union")
APPLY_POINTS = ("per_iteration", "on_union")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SCHEMA = 3
EXIT_ABORT = 4

OUTPUT_DIR_ENV = "HEADTAIL_OUTPUT_DIR"  # default output base of the CLI verbs


class ConfigError(ValueError):
    """Invalid run configuration; nothing has been executed."""


class SchemaError(ValueError):
    """Malformed offline input; its message names the file, and the line or record."""


class RunAborted(RuntimeError):
    """A sampler or training failure stopped a run; partial report attached."""

    def __init__(self, message: str, report: "RunReport"):
        super().__init__(message)
        self.report = report


def _from_dict(cls, data: dict[str, Any], where: str):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _has_type(value: Any, hint: Any) -> bool:
    """Whether ``value`` fits a field annotation: a class, or a fixed-length
    tuple of them; a bool is never a number."""
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        return isinstance(value, tuple) and len(value) == len(args) and all(map(_has_type, value, args))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """The JSON object of ``pairs``; a key given twice is a ValueError naming it."""
    data = dict(pairs)
    if len(data) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"key {next(k for k in keys if keys.count(k) > 1)!r} is given twice")
    return data


_type_hints = functools.cache(typing.get_type_hints)  # resolved once per config class


def _check_types(obj: Any, where: str = "") -> None:
    """Raise ConfigError on the first field of a config dataclass (nested
    ones included) whose value does not fit its annotation."""
    hints = _type_hints(type(obj))
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if not _has_type(value, hints[f.name]):
            raise ConfigError(f"{where}{f.name} must be {f.type}, got {value!r}")
        if dataclasses.is_dataclass(value):
            _check_types(value, f"{where}{f.name}.")


@dataclass(frozen=True)
class RunConfig:
    """Resolved experiment configuration; strict on unknown keys.

    ``restart_each_iteration=False`` trains each iteration's policy from the
    previous one, which is what lets distribution drift compound across
    iterations; True restarts from the initial policy every iteration, so
    the learned state at iteration t is a pure function of (initial state,
    that iteration's train set).
    """

    n_queries: int = 2000
    k_samples: int = 8
    iterations: int = 5
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    mode: str = "self_improve"
    restart_each_iteration: bool = False
    seed: int = 0
    learner: LearnerParams = field(default_factory=LearnerParams)
    corpus: CorpusParams = field(default_factory=CorpusParams)
    calibration_shots: int = 64
    apply_point: str = "on_union"

    def validate(self) -> None:
        _check_types(self)
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.apply_point not in APPLY_POINTS:
            raise ConfigError(f"apply_point must be one of {APPLY_POINTS}")
        try:
            for name in ("n_queries", "k_samples", "iterations", "calibration_shots"):
                check_int64(name, getattr(self, name), 1)
            check_int64("seed", self.seed, 0)
            self.strategy.validate(self.k_samples)
            self.learner.validate()
            self.corpus.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def rounds(self) -> int:
        """Loop iterations: ``batch_baseline`` makes all its draws in one."""
        return 1 if self.mode == "batch_baseline" else self.iterations

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunConfig":
        data = dict(data)
        for key, part in (("strategy", StrategyConfig), ("learner", LearnerParams), ("corpus", CorpusParams)):
            if isinstance(data.get(key), dict):
                data[key] = _from_dict(part, data[key], key)
        return _from_dict(cls, data, "config")

    @classmethod
    def from_json_file(cls, path: str | Path) -> "RunConfig":
        """The config in a JSON file; anything but a JSON object, or an
        object that gives a key twice at any depth, is a ConfigError."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from exc
        except ValueError as exc:  # bad JSON, a key given twice, or not UTF-8
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ConfigError("config cannot be decoded: nested too deeply") from None
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(data)


@dataclass
class IterationEval:
    iteration: int
    greedy_pass1: float
    sampled_pass1: float


@dataclass
class RunReport:
    """Everything a run produced: rows, evals, final snapshots, flags;
    ``config`` is the run's config as ``RunConfig.to_dict`` gives it."""

    config: dict[str, Any]
    rows: list[MetricsRow] = field(default_factory=list)
    evals: list[IterationEval] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    incomplete: bool = False
    distinct_solved: int = 0
    final_filter: TrajectoryDataset | None = None
    final_train: TrajectoryDataset | None = None
    final_state: LearnerState | None = None

    def rows_for(self, role: str) -> list[MetricsRow]:
        return [r for r in self.rows if r.role == role]


def _apply_strategy(
    config: RunConfig, iteration: int, filtered: TrajectoryDataset,
    discarded: TrajectoryDataset | None, sampler: LearnerState,
) -> TrajectoryDataset:
    """One iteration's train set: the run's strategy at its sampling number and seed."""
    cfg, K = config.strategy, config.k_samples
    if not KINDS[cfg.kind].resamples:
        return reshape(cfg.kind, filtered, K, cfg.L, seed=config.seed, iteration=iteration)
    if cfg.kind == "ar":
        return adaptive_resample(filtered, sampler, K)
    if cfg.kind == "gr":
        return guided_resample(filtered, sampler, cfg.L, cfg.S)
    return self_correct_augment(filtered, discarded, sampler, K, cfg.min_cot_tokens)


# the last run's start, at most one entry replaced in place: its sizes and
# seed, its learner and corpus params, its learner
_last_start: list[tuple[tuple, LearnerParams, CorpusParams, LearnerState]] = []


def _prepared_corpus_and_learner(config: RunConfig) -> LearnerState:
    """The run's initial learner, over its corpus with calibrated levels.

    The runs of a sweep at one seed share their start, so the last one
    made is kept and a copy of it returned while the config's sizes and
    seed are equal and its ``learner`` and ``corpus`` params are the very
    same objects (a sweep's points share them through
    ``dataclasses.replace``).  Never equal ones: ``1 == 1.0`` and
    ``0.0 == -0.0``, but ``learner_final.json`` prints them apart.
    """
    key = (config.n_queries, config.seed, config.calibration_shots)  # ints, never bools, once validated
    if not any(k == key and lp is config.learner and cp is config.corpus for k, lp, cp, _ in _last_start):
        corpus = synth_corpus(config.n_queries, config.seed, config.corpus)
        probe = init_learner(corpus, config.learner, config.seed)
        # pass_rates draws on its own stream and moves no counter, so the probe is the start
        learner = probe.with_levels(calibrate_difficulty(probe.pass_rates(config.calibration_shots)))
        _last_start[:] = [(key, config.learner, config.corpus, learner)]
    return _last_start[0][3].clone()  # the run draws, which advances its draw counters in place


def run(config: RunConfig) -> RunReport:
    """Validate the config and run its mode with its seed."""
    config.validate()
    return _run_loop(config)


def _run_loop(config: RunConfig) -> RunReport:
    learner = _prepared_corpus_and_learner(config)
    base = learner.clone()
    report = RunReport(config=config.to_dict())
    union = config.mode == "iterative_union"
    # every mode draws T*K per query, spread evenly over its rounds
    rounds = config.rounds
    draws = config.iterations * config.k_samples // rounds
    solved = np.zeros(len(learner.corpus), dtype=bool)  # per corpus query: ever kept a correct response
    union_filter: TrajectoryDataset | None = None
    union_train: TrajectoryDataset | None = None
    try:
        for t in range(1, rounds + 1):
            sample = learner.sample_batch(draws)
            if config.strategy.kind == "sc":
                filtered, discarded = partition_dataset(sample)
            else:
                filtered, discarded = filter_dataset(sample), None
            if union and config.apply_point == "on_union":
                union_filter = filtered if union_filter is None else merge_datasets(union_filter, filtered)
                train_set = _apply_strategy(config, t, union_filter, discarded, learner)
            else:
                train_set = _apply_strategy(config, t, filtered, discarded, learner)
                if union:  # per_iteration: train on the union of every reshaped set
                    union_train = train_set if union_train is None else merge_datasets(union_train, train_set)
                    train_set = union_train
            for stage, dataset in (("sample", sample), ("filter", filtered), ("train", train_set)):
                report.rows.append(build_row(t, stage, dataset, config.k_samples, filtered))
            solved |= filtered.count_of(learner.corpus.ids) > 0
            if len(train_set) == 0:
                report.warnings.append(f"iteration {t}: empty training set, forgetting only")
            if config.restart_each_iteration:  # train leaves its receiver untouched, so base is shared
                learner = dataclasses.replace(base, iteration=learner.iteration, draw_counter=learner.draw_counter)
            learner = learner.train(train_set, config.k_samples)
            report.evals.append(
                IterationEval(
                    iteration=t,
                    greedy_pass1=learner.eval_greedy_pass1(),
                    sampled_pass1=learner.eval_sampled_pass1(t),
                )
            )
    except SamplerError as exc:
        report.incomplete = True
        raise RunAborted(str(exc), report) from exc
    report.distinct_solved = int(solved.sum())
    report.final_filter = filtered
    report.final_train = train_set
    report.final_state = learner
    return report


# -- JSONL reader -----------------------------------------------------------


_READ_CHUNK = 1024  # lines per decoding pass (one scanner call per line)

_scan = json.JSONDecoder().scan_once  # json.loads' own C scanner, same settings


def _decode_lines(lines: list[str]) -> list[Any]:
    """``list(map(json.loads, lines))``, raising what that raises.

    Each line is decoded by one call to the scanner behind ``json.loads``,
    skipping its Python wrappers.  If any line does not scan from its first
    character to its trailing whitespace (leading whitespace, a BOM, extra
    data, bad JSON), the whole list goes through ``json.loads`` instead,
    which decodes it or raises its own error for the first bad line.
    """
    try:
        # a list comprehension: StopIteration inside map() would end list() early
        scanned = [_scan(line, 0) for line in lines]
        if all(end == len(line.rstrip(" \t\n\r")) for (_, end), line in zip(scanned, lines)):
            return [obj for obj, _ in scanned]
    except (StopIteration, ValueError, RecursionError):
        pass
    return list(map(json.loads, lines))


def _scanned(lines: list[str], fields: set[str], required: set[str]) -> list[dict[str, Any]]:
    """The rows of the JSONL ``lines``, each a UTF-8 JSON object whose keys
    are among ``fields`` and include every ``required`` one; what breaks a
    lone line raises a ValueError saying what is wrong."""
    try:
        "".join(itertools.filterfalse(str.isascii, lines)).encode("utf-8")
    except UnicodeEncodeError:  # an undecodable byte, kept as a lone surrogate
        raise ValueError("not valid UTF-8") from None
    try:
        rows = _decode_lines(lines)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON ({exc.msg})") from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise ValueError(f"cannot decode JSON ({exc})") from exc
    except RecursionError:
        raise ValueError("cannot decode JSON (nested too deeply)") from None
    if not set(map(type, rows)) <= {dict}:
        raise ValueError("expected a JSON object")
    for keys in set(map(tuple, rows)):  # the keys of each distinct key order, checked once
        if unknown := set(keys) - fields:
            raise ValueError(f"unknown fields {sorted(unknown)}")
        if missing := required - set(keys):
            raise ValueError(f"missing fields {sorted(missing)}")
    return rows


def _read_columns(
    path: str | Path,
    what: str,
    decode: Callable[[list[str]], dict[str, np.ndarray]],
    build: Callable[[dict[str, np.ndarray]], TrajectoryDataset],
) -> TrajectoryDataset:
    """Decode a JSONL file straight into a dataset, ``_READ_CHUNK`` lines at a time.

    ``decode`` turns a chunk's non-blank lines into arrays by name, failing
    on exactly the lines that fail alone, and ``build`` makes the dataset
    of their concatenation, raising a ValueError for faults only the whole
    file shows.  A file with no lines is ``decode([])``.  A failed chunk is
    decoded again one line at a time, through the same ``decode``, to raise
    the SchemaError naming its first bad line; a chunk whose every line
    decodes alone is a bug, re-raised.  Every SchemaError starts with
    ``path``: ``{path}: line N:`` for a bad line, ``{path}:`` for what
    ``build`` raises, and ``{path}: cannot read {what}`` for a file that
    cannot be opened or read.
    """
    parts = []
    try:
        # an undecodable byte is kept as a lone surrogate, which fails its line's check
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            start = 1  # the number of the chunk's first line
            while chunk := list(itertools.islice(fh, _READ_CHUNK)):
                try:
                    parts.append(decode(list(filter(str.strip, chunk))))
                except (TypeError, ValueError):
                    for lineno, line in enumerate(chunk, start):
                        try:
                            if line.strip():
                                decode([line])
                        except (TypeError, ValueError) as exc:
                            raise SchemaError(f"{path}: line {lineno}: {exc}") from exc
                    raise
                start += len(chunk)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read {what} ({exc.strerror or exc})") from exc
    parts = parts or [decode([])]  # an empty file still has every column
    try:
        return build({name: np.concatenate([p[name] for p in parts]) for name in parts[0]})
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


_TYPE_NAMES = {int: "an integer", str: "a string", bool: "true or false", list: "an array"}


def _typed(values: Iterable[Any], kind: type, field: str) -> list[Any]:
    """The values as a list, each exactly of type ``kind`` (so a bool is
    no integer), or a TypeError naming ``field``."""
    values = list(values)
    if countOf(map(type, values), kind) != len(values):
        raise TypeError(f"{field} must be {_TYPE_NAMES[kind]}")
    return values


def _int64(values: Iterable[Any], field: str) -> np.ndarray:
    """The values, each an integer, as an int64 array, or a ValueError
    naming ``field`` if one is past 64 bits."""
    try:
        return np.array(_typed(values, int, field), dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{field} must fit in 64 bits") from None


# json.dumps(oracles.snapshot_entry(...), sort_keys=True) of a row is the head of
# its flag and iteration, its length_tokens, the middle of its query, origin and
# prefix_steps, its sample_index and "}\n"; tests/oracles.py holds that per-pair
# reference encoder
_SNAPSHOT_HEAD = '{"correct": %s, "iteration": %d, "length_tokens": '
_SNAPSHOT_MIDDLE = ', "level": %s, "origin": "%s", "prefix_steps": %d, "query_id": %d, "sample_index": '
_JSON_FLAG = ("false", "true")
_JSON_LEVEL = ("null", *map(str, LEVELS))  # level 0 is unset

_SNAPSHOT_FIELDS = {
    "query_id", "sample_index", "iteration", "origin", "prefix_steps", "length_tokens", "level", "correct"
}
_SNAPSHOT_REQUIRED = {"query_id", "sample_index", "iteration", "length_tokens", "correct"}


def _snapshot_chunk(rows: list[dict[str, Any]]) -> dict[str, np.ndarray]:
    """Snapshot rows as columns.  Each field is type-checked and, an integer
    one, checked to fit in 64 bits as it is taken, in the order ``correct``,
    ``query_id``, ``level`` (and its range), ``sample_index``, ``iteration``,
    ``length_tokens``, ``prefix_steps``, ``origin`` (and that it is known)."""
    correct = _typed(map(itemgetter("correct"), rows), bool, "correct")
    query_id = _int64(map(itemgetter("query_id"), rows), "query_id")
    levels = [r.get("level") for r in rows]
    level = _int64((0 if lv is None else lv for lv in levels), "level")
    given = np.array([lv is not None for lv in levels], dtype=bool)
    bad = np.flatnonzero(given & ((level < LEVELS[0]) | (level > LEVELS[-1])))
    if len(bad):
        raise ValueError(f"level must be in {LEVELS} when set, got {level[bad[0]]}")
    columns = {
        "query_id": query_id,
        "level": level,
        "sample_index": _int64(map(itemgetter("sample_index"), rows), "sample_index"),
        "iteration": _int64(map(itemgetter("iteration"), rows), "iteration"),
        "length_tokens": _int64(map(itemgetter("length_tokens"), rows), "length_tokens"),
        "prefix_steps": _int64((r.get("prefix_steps", 0) for r in rows), "prefix_steps"),
        "correct": np.array(correct, dtype=bool),
    }
    origins = _typed([r.get("origin", ORIGIN_EXPLORED) for r in rows], str, "origin")
    columns["origin"] = origin = np.array([ORIGIN_RANK.get(o, -1) for o in origins], dtype=np.int64)
    bad = np.flatnonzero(origin < 0)
    if len(bad):
        raise ValueError(f"unknown origin {origins[bad[0]]!r}")
    return columns


@functools.cache  # compiled on first use, not at import
def _snapshot_line() -> re.Pattern[str]:
    """A line as ``_snapshot_chunks`` writes it, built from its templates:
    one group per field, in key order, and ints of at most 18 ASCII digits,
    so that every int it takes fits in 64 bits."""
    number = "(-?(?:0|[1-9][0-9]{0,17}))"
    head, middle = (re.escape(t).replace("%d", "%s") for t in (_SNAPSHOT_HEAD, _SNAPSHOT_MIDDLE))
    flag, level, origin = (
        "(%s)" % "|".join(map(re.escape, texts)) for texts in (_JSON_FLAG, _JSON_LEVEL, ORIGINS)
    )
    return re.compile(
        "^" + head % (flag, number) + number + middle % (level, origin, number, number)
        + number + re.escape("}") + "$",
        re.M,
    )


_LEVEL_OF_JSON = {text: level for level, text in enumerate(_JSON_LEVEL)}


def _snapshot_lines_chunk(lines: list[str]) -> dict[str, np.ndarray] | None:
    """``_snapshot_chunk`` of the rows of ``lines`` if every line is in the
    writer's form (``_snapshot_line``), else None.  Such a line is ASCII,
    valid JSON, of valid types and of a known origin."""
    found = _snapshot_line().findall("".join(lines))
    if not lines or len(found) != len(lines):
        return None
    correct, iteration, length_tokens, level, origin, prefix_steps, query_id, sample_index = zip(*found)
    return {
        "query_id": np.array(query_id, dtype=np.int64),
        "level": np.array(list(map(_LEVEL_OF_JSON.__getitem__, level)), dtype=np.int64),
        "sample_index": np.array(sample_index, dtype=np.int64),
        "iteration": np.array(iteration, dtype=np.int64),
        "length_tokens": np.array(length_tokens, dtype=np.int64),
        "prefix_steps": np.array(prefix_steps, dtype=np.int64),
        "correct": np.array(list(map("true".__eq__, correct)), dtype=bool),
        "origin": np.array(list(map(ORIGIN_RANK.__getitem__, origin)), dtype=np.int64),
    }


def _snapshot_decode(lines: list[str]) -> dict[str, np.ndarray]:
    """Snapshot lines as columns, by the writer's pattern if it takes every
    line, else scanned; then a filter set's row checks run, raising what a
    ``Trajectory`` of the first bad row raises, and last a false flag."""
    columns = _snapshot_lines_chunk(lines)
    if columns is None:
        columns = _snapshot_chunk(_scanned(lines, _SNAPSHOT_FIELDS, _SNAPSHOT_REQUIRED))
    _check_columns(ROLE_FILTER, {**_UNSET, **columns})
    return columns


def _snapshot_dataset(c: dict[str, np.ndarray]) -> TrajectoryDataset:
    """The filter set of a snapshot's checked rows; a query given two levels
    is a ValueError."""
    qids = c["query_id"]
    _, _, (ids, levels), conflict = first_rows(qids, c.pop("level"))
    if conflict is not None:
        raise ValueError(f"conflicting records for query {qids[conflict]}")
    return TrajectoryDataset(ROLE_FILTER, c, Corpus(ids, "", levels))


def read_snapshot(path: str | Path) -> TrajectoryDataset:
    """A ``datasets/*.jsonl`` snapshot as the filter set it was written from.

    Decoded straight into columns.  Every SchemaError names ``path``: a bad
    line, a false ``correct`` flag included, as ``{path}: line N: ...``;
    two levels for one query as ``{path}: ...``.
    """
    return _read_columns(path, "snapshot", _snapshot_decode, _snapshot_dataset)


_SNAPSHOT_CHUNK = 1024  # rows formatted per write
_DECIMAL = object_array(map(str, range(1024)))  # str(v) of the ints a field mostly holds


def _field_texts(col: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``table[v]`` of each value; ``str(v)`` of a value the table does not reach."""
    col = col.astype(np.int64, copy=False)
    inside = col.view(np.uint64) < len(table)  # a negative value views as one past 2**63
    if inside.all():
        return table[col]
    texts = table[np.where(inside, col, 0)]
    outside = np.flatnonzero(~inside)
    texts[outside] = list(map(str, col[outside].tolist()))
    return texts


def _snapshot_chunks(dataset: TrajectoryDataset) -> Iterator[str]:
    """The snapshot lines of ``dataset``, ``_SNAPSHOT_CHUNK`` rows per string.

    A line is five texts: its head, formatted once per distinct correct
    flag and iteration; its length_tokens; its middle, formatted once per
    stretch of rows with equal query id, origin and prefix_steps (once per
    chunk the stretch reaches); its sample_index; and ``}\n``.  The whole
    dataset is only int index arrays; a chunk's lines are one join of a
    five-column grid of texts built for that chunk."""
    c = dataset.columns
    qids, origin, steps, iteration = c["query_id"], c["origin"], c["prefix_steps"], c["iteration"]
    # np.unique imports numpy.ma (1 MiB and some ms) unless it is asked for an index
    distinct, rank = np.unique(iteration, return_inverse=True)
    heads = object_array(_SNAPSHOT_HEAD % (flag, it) for it in distinct.tolist() for flag in _JSON_FLAG)
    head_of = rank * 2 + c["correct"]
    starts = np.ones(len(qids), dtype=bool)
    starts[1:] = (qids[1:] != qids[:-1]) | (origin[1:] != origin[:-1]) | (steps[1:] != steps[:-1])
    stretch_of = np.cumsum(starts) - 1
    firsts = np.flatnonzero(starts)
    levels = dataset.levels()[firsts]
    for lo in range(0, len(qids), _SNAPSHOT_CHUNK):
        hi = min(lo + _SNAPSHOT_CHUNK, len(qids))
        s_lo, s_hi = stretch_of[lo], stretch_of[hi - 1] + 1
        rows = firsts[s_lo:s_hi]
        middles = object_array(
            _SNAPSHOT_MIDDLE % fields for fields in zip(
                map(_JSON_LEVEL.__getitem__, levels[s_lo:s_hi].tolist()),
                map(ORIGINS.__getitem__, origin[rows].tolist()),
                steps[rows].tolist(),
                qids[rows].tolist(),
            )
        )
        grid = np.empty((hi - lo, 5), dtype=object)
        grid[:, 0] = heads[head_of[lo:hi]]
        grid[:, 1] = _field_texts(c["length_tokens"][lo:hi], _DECIMAL)
        grid[:, 2] = middles[stretch_of[lo:hi] - s_lo]
        grid[:, 3] = _field_texts(c["sample_index"][lo:hi], _DECIMAL)
        grid[:, 4] = "}\n"
        yield "".join(grid.ravel().tolist())


def check_output_path(path: str | Path) -> None:
    """ConfigError unless a file can be written at ``path``: it is no
    directory, and its nearest existing ancestor is one.  A symbolic link
    exists even when its target does not, so a dangling one is an ancestor
    that is no directory."""
    path = Path(path)
    if path.is_dir():
        raise ConfigError(f"output path {path} is a directory")
    ancestor = next(a for a in path.parents if os.path.lexists(a))
    if not ancestor.is_dir():
        raise ConfigError(f"output path {path} lies under {ancestor}, which is not a directory")


def write_atomic(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text`` (a string or string chunks) to ``path`` all or nothing.

    A missing parent directory is created.  The text goes to a new
    temporary file in the same directory, which then replaces ``path`` in
    one ``os.replace``; on any failure the temporary file is removed and
    ``path`` is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# -- offline mode -----------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryLogRecord:
    """One line of an offline trajectory log.

    ``step_offsets`` inside ``(0, token_count)`` must be strictly ascending;
    offsets outside that range are ignored.
    """

    query_id: int
    gt_answer: str
    extracted_answer: str
    token_count: int
    step_offsets: tuple[int, ...] = ()
    iteration: int = 1

    def __post_init__(self) -> None:
        if self.token_count < 0:
            raise ValueError("token_count must be >= 0")
        if self.iteration < 1:
            raise ValueError("iteration must be >= 1")
        if not -(2**63) <= self.query_id < 2**63 or max(self.token_count, self.iteration) >= 2**63:
            raise ValueError("query_id, token_count and iteration must fit in 64 bits")
        inner = [b for b in self.step_offsets if 0 < b < self.token_count]
        if any(b2 <= b1 for b1, b2 in zip(inner, inner[1:])):
            raise ValueError("step_offsets must be strictly ascending")


_LOG_FIELDS = {"query_id", "gt_answer", "extracted_answer", "token_count", "step_offsets", "iteration"}
_LOG_REQUIRED = {"query_id", "gt_answer", "extracted_answer", "token_count"}


def log_to_dataset(records: list[TrajectoryLogRecord]) -> TrajectoryDataset:
    """Assemble log records into a sample dataset, as ``load_log`` does a
    log's lines: a field not of its JSON type is a TypeError (a tuple of
    ``step_offsets`` is an array), gt conflicts are schema errors."""
    return _log_dataset(_log_chunk([{**vars(rec), "step_offsets": list(rec.step_offsets)} for rec in records]))


def _log_chunk(rows: list[dict[str, Any]]) -> dict[str, np.ndarray]:
    """Log rows as columns.  Each field is type-checked and, an integer one,
    checked to fit in 64 bits as it is taken, in the order ``query_id``,
    ``gt_answer``, ``extracted_answer``, ``token_count``, ``step_offsets``,
    ``iteration``; then the value checks run in a ``TrajectoryLogRecord``'s
    order."""
    query_id = _int64(map(itemgetter("query_id"), rows), "query_id")
    gt_answer = object_array(_typed(map(itemgetter("gt_answer"), rows), str, "gt_answer"))
    answer = object_array(_typed(map(itemgetter("extracted_answer"), rows), str, "extracted_answer"))
    token_count = _int64(map(itemgetter("token_count"), rows), "token_count")
    offsets = _typed([r.get("step_offsets", []) for r in rows], list, "step_offsets")
    flat = _typed(itertools.chain.from_iterable(offsets), int, "step_offsets element")
    iteration = _int64([r.get("iteration", 1) for r in rows], "iteration")
    if np.any(token_count < 0):
        raise ValueError("token_count must be >= 0")
    if np.any(iteration < 1):
        raise ValueError("iteration must be >= 1")
    try:
        flat = np.array(flat, dtype=np.int64)
    except OverflowError:  # clamped to [0, 2**63-1], an offset is inside (0, token_count) iff it was
        flat = np.array([min(max(x, 0), 2**63 - 1) for x in flat], dtype=np.int64)
    owner = np.repeat(np.arange(len(rows)), list(map(len, offsets)))
    inside = (flat > 0) & (flat < token_count[owner])
    b, o = flat[inside], owner[inside]
    if np.any((o[1:] == o[:-1]) & (b[1:] <= b[:-1])):
        raise ValueError("step_offsets must be strictly ascending")
    return {
        "query_id": query_id,
        "iteration": iteration,
        "length_tokens": token_count,
        "gt_answer": gt_answer,
        "answer": answer,
    }


def _log_dataset(c: dict[str, np.ndarray]) -> TrajectoryDataset:
    """A sample dataset of log rows; each query's responses are numbered 1, 2, ... in log order.

    One stable sort by query (``first_rows``) gives every per-query fact:
    each query's run of rows in log order, whose first row holds the
    query's ``gt_answer`` (the first row in log order with another one is
    the conflict) and whose positions are the sample indices.  It is the
    canonical order too, unless a query's iterations descend, since the
    log's rows differ in nothing else that orders them."""
    qids = c["query_id"]
    by_query, counts, (ids, gts), conflict = first_rows(qids, c["gt_answer"])
    if conflict is not None:
        raise SchemaError(f"record {conflict + 1}: conflicting gt_answer for query {qids[conflict]}")
    columns = {
        "query_id": qids[by_query],
        "iteration": c["iteration"][by_query],
        "sample_index": run_positions(counts) + 1,
        "length_tokens": c["length_tokens"][by_query],
        "correct": False,
        "answer": c["answer"][by_query],
    }
    return TrajectoryDataset(ROLE_SAMPLE, columns, Corpus(ids, gts))


def load_log(path: str | Path) -> TrajectoryDataset:
    """A trajectory log as a sample dataset, decoded straight into columns.

    It equals :func:`log_to_dataset` of the log's lines read as
    ``TrajectoryLogRecord`` objects, each field of its JSON type.  Every
    SchemaError names ``path``: a bad line as ``{path}: line N: ...``, a
    record that gives its query a second ``gt_answer`` as
    ``{path}: record N: ...``.  Its length is the log's record count.
    """
    return _read_columns(
        path, "log", lambda lines: _log_chunk(_scanned(lines, _LOG_FIELDS, _LOG_REQUIRED)), _log_dataset
    )


def rebalance_offline(
    input_path: str | Path,
    strategy: StrategyConfig,
    K: int,
    output_path: str | Path,
    aliases: tuple[tuple[str, str], ...] = DEFAULT_SYMBOL_ALIASES,
    seed: int = 0,
) -> dict[str, Any]:
    """Rebalance a real trajectory log and write the training records.

    Only the sampler-free reshaping strategies are available offline; the
    reasoning-length floor ``strategy.min_cot_tokens`` is applied to the
    filtered set before per-query counts are taken, so clipped/padded
    counts reflect usable responses only.  That field defaults to 10
    tokens; pass ``min_cot_tokens=0`` in the ``StrategyConfig`` for no
    floor.  ``K`` is the log's sampling number, the one K the strategy
    reads, ``aliases`` is the alias table that answers are normalized with
    before grading, and ``seed`` keys tc's truncation draws.  Nothing is
    written unless the whole input parses; an ``output_path`` naming the
    input log is a ConfigError, and a log that cannot be read is a
    SchemaError.
    """
    if strategy.kind not in KINDS or KINDS[strategy.kind].resamples:
        raise ConfigError("strategy requires a sampler; offline mode supports reshaping only")
    try:
        strategy.validate(K)
        check_int64("seed", seed, 0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    check_output_path(output_path)
    if Path(output_path).resolve() == Path(input_path).resolve():
        raise ConfigError(f"output path {output_path} is the input log")
    sample = load_log(input_path)
    filtered = filter_dataset(sample, aliases)
    if strategy.min_cot_tokens > 0:
        filtered = cot_length_filter(filtered, strategy.min_cot_tokens)
    train = reshape(strategy.kind, filtered, K, strategy.L, seed=seed, iteration=1)
    write_atomic(output_path, _snapshot_chunks(train))
    row = build_row(1, "train", train, K, filtered)
    return {
        "input_records": len(sample),
        "filtered": len(filtered),
        "output_records": len(train),
        "metrics_row": row,
    }


# -- report files -----------------------------------------------------------


# every file emit_report writes under a run's directory, in writing order
REPORT_FILES = (
    "metrics.csv",
    "datasets/train_final.jsonl",
    "datasets/filter_final.jsonl",
    "config.json",
    "learner_final.json",
    "summary.json",
)


def check_report_dir(output_dir: str | Path) -> None:
    """``check_output_path`` of every file a report writes under ``output_dir``."""
    for name in REPORT_FILES:
        check_output_path(Path(output_dir) / name)


def emit_report(report: RunReport, output_dir: str | Path) -> list[Path]:
    """Write metrics.csv, dataset snapshots, config, learner state, summary.

    Output is byte-stable: identical reports produce identical files.
    """
    outdir = Path(output_dir)
    summary = {
        "seed": report.config["seed"],
        "incomplete": report.incomplete,
        "warnings": report.warnings,
        "distinct_solved": report.distinct_solved,
        "evals": [dataclasses.asdict(e) for e in report.evals],
        "reference_targets": REFERENCE_TARGETS,
    }
    texts = (  # one per REPORT_FILES name; None: not written
        rows_to_csv(report.rows),
        None if report.final_train is None else _snapshot_chunks(report.final_train),
        None if report.final_filter is None else _snapshot_chunks(report.final_filter),
        json.dumps(report.config, sort_keys=True, indent=2) + "\n",
        None if report.final_state is None else report.final_state.to_json() + "\n",
        json.dumps(summary, sort_keys=True, indent=2) + "\n",
    )
    written: list[Path] = []
    try:
        (outdir / "datasets").mkdir(parents=True, exist_ok=True)
        for path, text in zip((outdir / name for name in REPORT_FILES), texts):
            if text is not None:
                write_atomic(path, text)
                written.append(path)
        return written
    except OSError as exc:
        raise OSError(f"failed writing report under {outdir}: {exc}") from exc
