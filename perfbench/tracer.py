"""Outside-in tracing of the headtail layers.

The benchmark never edits the package.  In the traced process it replaces
module attributes with wrappers, at the names callers look up: ``harness``
and ``strategies`` import ``filter_dataset`` and ``merge_datasets`` into
their own namespaces, so those copies are the ones wrapped.

Two kinds of wrapper:

* a *span* records one entry per call (name, layer, start, end, parent
  span, attributes).  Spans sit at stage-level calls, a few hundred per
  pass, and are kept in memory until the run ends.
* a *hot* wrapper only aggregates (calls, total time, self time, values).
  It is for calls made hundreds of thousands of times per pass:
  ``normalize_answer``, the scalar sampler, ``rng.uniform``/``normal``.

Self time of a span is its duration minus the part of its interval that
its child spans cover, minus the time of hot calls made directly inside it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

LAYERS = ("core", "rng", "rewards", "strategies", "learner", "metrics", "harness", "cli")
STRATEGY_KINDS = ("vanilla", "tc", "hc", "rp", "ri", "ar", "gr", "sc")

Attrs = Callable[[tuple, dict, Any], dict]


class Tracer:
    """Span recorder and hot-call aggregator for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        # name -> {"layer", "calls", "total_s", "self_s", "values"}
        self.hot: dict[str, dict] = {}
        # open frames, innermost last: [span id or None for a hot call, hot time inside]
        self._stack: list[list] = []

    def _enclosing_span(self) -> int | None:
        for frame in reversed(self._stack):
            if frame[0] is not None:
                return frame[0]
        return None

    def span(self, name: str, layer: str, fn: Callable, attrs: Attrs | None = None) -> Callable:
        """Wrap ``fn`` so that every call records one span."""
        clock, stack, spans = self.clock, self._stack, self.spans

        def wrapper(*args, **kwargs):
            rec = {"id": len(spans), "parent": self._enclosing_span(), "name": name,
                   "layer": layer, "start": clock(), "end": None, "hot_s": 0.0, "attrs": {}}
            spans.append(rec)
            frame = [rec["id"], 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = clock()
                stack.pop()
                rec["hot_s"] = frame[1]
                if stack and stack[-1][0] is None:
                    stack[-1][1] += rec["end"] - rec["start"]
            if attrs is not None:
                rec["attrs"] = attrs(args, kwargs, result)
            return result

        return wrapper

    def hot_call(self, name: str, layer: str, fn: Callable,
                 values: Callable[[Any], int] | None = None) -> Callable:
        """Wrap ``fn`` with an aggregate-only counter and timer."""
        clock, stack = self.clock, self._stack
        stat = self.hot.setdefault(
            name, {"layer": layer, "calls": 0, "total_s": 0.0, "self_s": 0.0, "values": 0})

        def wrapper(*args, **kwargs):
            t0 = clock()
            frame = [None, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stat["calls"] += 1
                stat["total_s"] += dur
                stat["self_s"] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if values is not None:
                stat["values"] += values(result)
            return result

        return wrapper


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: duration minus child-span coverage and hot time."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered(children.get(s["id"], []), s["start"], s["end"])
        - s.get("hot_s", 0.0)
        for s in spans
    }


# -- instrumentation of the package -----------------------------------------


def _n_in(args, kwargs, result):
    return {"n_in": len(args[0]), "n_out": len(result)}


def _n_out(args, kwargs, result):
    return {"n": len(result)}


def _run_attrs(args, kwargs, result):
    return {"kind": args[0].strategy.kind}


def _emit_attrs(args, kwargs, result):
    return {"bytes": sum(Path(p).stat().st_size for p in result)}


def _offline_attrs(args, kwargs, result):
    return {"bytes": Path(args[3]).stat().st_size}


def _reshape_attrs(args, kwargs, result):
    return {"kind": args[0], "n_in": len(args[1]), "n_out": len(result)}


def _resample_attrs(kind: str) -> Attrs:
    def attrs(args, kwargs, result):
        train = result[2] if isinstance(result, tuple) else result
        n_in, n_out = len(args[0]), len(train)
        # sc adds each verified revision twice (pair + plain response)
        kept = (n_out - n_in) // 2 if kind == "sc" else n_out - n_in
        return {"kind": kind, "n_in": n_in, "n_out": n_out, "kept": kept}
    return attrs


def _size(result) -> int:
    return int(getattr(result, "size", 1))


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap the package's layer boundaries; return a function that undoes it."""
    from headtail import cli, core, harness, learner, rewards, rng, strategies

    patches: list[tuple[object, str, Callable]] = []

    def span(owner, attr, name, layer, attrs=None):
        patches.append((owner, attr, tracer.span(name, layer, getattr(owner, attr), attrs)))

    def hot(owner, attr, name, layer, values=None):
        patches.append((owner, attr, tracer.hot_call(name, layer, getattr(owner, attr), values)))

    span(cli, "_cmd_report", "cli.report", "cli")
    span(cli, "run_mode", "harness.run", "harness", _run_attrs)
    span(cli, "emit_report", "harness.emit", "harness", _emit_attrs)
    span(cli, "rebalance_offline", "harness.rebalance_offline", "harness", _offline_attrs)
    span(cli, "build_row", "metrics.build_row", "metrics")
    span(harness, "_run_loop", "harness.loop", "harness")
    span(harness, "_prepared_corpus_and_learner", "learner.calibrate", "learner")
    span(harness, "load_log", "harness.load_log", "harness", _n_out)
    span(harness, "log_to_dataset", "harness.log_to_dataset", "harness")
    span(harness, "filter_dataset", "rewards.filter", "rewards", _n_in)
    span(harness, "discard_dataset", "rewards.discard", "rewards", _n_in)
    span(harness, "cot_length_filter", "rewards.cot_filter", "rewards")
    span(harness, "merge_datasets", "core.merge", "core", _n_out)
    span(harness, "reshape", "strategies.reshape", "strategies", _reshape_attrs)
    for attr, kind in (("adaptive_resample", "ar"), ("guided_resample", "gr"),
                       ("self_correct_augment", "sc")):
        span(harness, attr, "strategies.resample", "strategies", _resample_attrs(kind))
    span(harness, "build_row", "metrics.build_row", "metrics")
    span(strategies, "filter_dataset", "rewards.filter", "rewards", _n_in)
    span(strategies, "merge_datasets", "core.merge", "core", _n_out)
    hot(strategies, "reward", "rewards.reward", "rewards")
    hot(rewards, "normalize_answer", "rewards.normalize", "rewards")
    hot(rng, "uniform", "rng.uniform", "rng", _size)
    hot(rng, "normal", "rng.normal", "rng", _size)
    state = learner.LearnerState
    span(state, "sample_batch", "learner.sample_batch", "learner", _n_out)
    span(state, "train", "learner.train", "learner")
    span(state, "eval_greedy_pass1", "learner.eval", "learner")
    span(state, "eval_sampled_pass1", "learner.eval", "learner")
    for attr in ("sample_response", "guided_sample", "correct_response"):
        hot(state, attr, "learner.scalar_draw", "learner")

    dataset = core.TrajectoryDataset
    build = dataset.__dict__["from_entries"].__func__
    patches.append((dataset, "from_entries",
                    classmethod(tracer.span("core.build", "core", build, _n_out))))

    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    for owner, attr, wrapped in patches:
        setattr(owner, attr, wrapped)

    def restore() -> None:
        for owner, attr, original in originals:
            setattr(owner, attr, original)

    return restore


# -- per-layer metrics --------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], hot: dict[str, dict], passes: int) -> dict[str, float]:
    """Per-pass layer metrics from the spans and hot aggregates of ``passes`` passes."""
    selfs = self_times(spans)
    dur: dict[str, float] = defaultdict(float)
    self_by_name: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    attr_sum: dict[tuple[str, str], float] = defaultdict(float)
    run_by_kind: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    reshape_tc = 0.0
    for s in spans:
        name, d = s["name"], s["end"] - s["start"]
        dur[name] += d
        self_by_name[name] += selfs[s["id"]]
        layer_self[s["layer"]] += selfs[s["id"]]
        count[name] += 1
        for key, value in s["attrs"].items():
            if key != "kind":
                attr_sum[(name, key)] += value
        if name == "harness.run":
            run_by_kind[s["attrs"].get("kind")] += d
        if name == "strategies.reshape" and s["attrs"].get("kind") == "tc":
            reshape_tc += d
    for stat in hot.values():
        layer_self[stat["layer"]] += stat["self_s"]

    def calls(name: str) -> int:
        return hot.get(name, {}).get("calls", 0)

    def hot_total(name: str) -> float:
        return hot.get(name, {}).get("total_s", 0.0)

    batch_draws = attr_sum[("learner.sample_batch", "n")]
    scalar_draws = calls("learner.scalar_draw")
    records = attr_sum[("harness.load_log", "n")]
    rng_calls = calls("rng.uniform") + calls("rng.normal")
    rng_values = hot.get("rng.uniform", {}).get("values", 0) + hot.get("rng.normal", {}).get("values", 0)
    strat_in = attr_sum[("strategies.reshape", "n_in")] + attr_sum[("strategies.resample", "n_in")]
    strat_out = attr_sum[("strategies.reshape", "n_out")] + attr_sum[("strategies.resample", "n_out")]

    totals = {
        "rewards.grade_s": dur["rewards.filter"] + dur["rewards.discard"] + hot_total("rewards.reward"),
        "rewards.graded": attr_sum[("rewards.filter", "n_in")] + attr_sum[("rewards.discard", "n_in")]
        + calls("rewards.reward"),
        "rewards.normalize_calls": calls("rewards.normalize"),
        "rewards.cot_filter_s": dur["rewards.cot_filter"],
        "learner.sample_batch_s": dur["learner.sample_batch"],
        "learner.batch_draws": batch_draws,
        "learner.train_s": dur["learner.train"],
        "learner.eval_s": dur["learner.eval"],
        "learner.calibrate_s": dur["learner.calibrate"],
        "learner.scalar_draw_s": hot_total("learner.scalar_draw"),
        "learner.scalar_draws": scalar_draws,
        "rng.calls": rng_calls,
        "rng.values": rng_values,
        "strategies.reshape_s": dur["strategies.reshape"],
        "strategies.reshape_s.tc": reshape_tc,
        "strategies.resample_s": dur["strategies.resample"],
        "strategies.entries_in": strat_in,
        "strategies.entries_out": strat_out,
        "core.build_s": self_by_name["core.build"],
        "core.entries_built": attr_sum[("core.build", "n")],
        "core.merge_s": dur["core.merge"],
        "core.merge_entries": attr_sum[("core.merge", "n")],
        "metrics.build_row_s": dur["metrics.build_row"],
        "metrics.rows": count["metrics.build_row"],
        "harness.loop_self_s": self_by_name["harness.loop"],
        "harness.emit_s": dur["harness.emit"],
        "harness.bytes_written": attr_sum[("harness.emit", "bytes")],
        "harness.load_log_s": dur["harness.load_log"],
        "harness.records_parsed": records,
        "harness.log_to_dataset_s": dur["harness.log_to_dataset"],
        "harness.offline_write_s": self_by_name["harness.rebalance_offline"],
        "harness.bytes_out": attr_sum[("harness.rebalance_offline", "bytes")],
        "cli.self_s": layer_self["cli"],
        "cli.report_s": dur["cli.report"],
    }
    for kind in STRATEGY_KINDS:
        totals[f"harness.run_s.{kind}"] = run_by_kind[kind]
    for layer in LAYERS:
        totals[f"self_s.{layer}"] = layer_self[layer]
    out = {name: value / passes for name, value in totals.items()}
    out["rewards.normalize_per_draw"] = _ratio(
        calls("rewards.normalize"), batch_draws + scalar_draws + records)
    out["rewards.keep_ratio"] = _ratio(
        attr_sum[("rewards.filter", "n_out")], attr_sum[("rewards.filter", "n_in")])
    out["rng.values_per_call"] = _ratio(rng_values, rng_calls)
    out["strategies.resample_yield"] = _ratio(attr_sum[("strategies.resample", "kept")], scalar_draws)
    return out
