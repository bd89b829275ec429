import pytest

from tracer import Tracer, layer_metrics, self_times


def span(id_, parent, start, end, hot_s=0.0, name="x", layer="core", attrs=None):
    return {"id": id_, "parent": parent, "name": name, "layer": layer,
            "start": start, "end": end, "hot_s": hot_s, "attrs": attrs or {}}


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0),
        span(3, 0, 5.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 2.0, 6.0),
        span(2, 0, 4.0, 8.0),
        span(3, 0, 9.0, 12.0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_subtracts_hot_calls():
    spans = [span(0, None, 0.0, 10.0, hot_s=2.5), span(1, 0, 1.0, 2.0)]
    assert self_times(spans)[0] == pytest.approx(6.5)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_wrappers_nest_spans_and_hot_calls():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 1.0

    hot_leaf = tracer.hot_call("h", "rng", leaf)

    def inner():
        clock.now += 2.0
        hot_leaf()
        hot_leaf()

    inner_span = tracer.span("inner", "core", inner)

    def outer():
        clock.now += 3.0
        inner_span()
        hot_leaf()

    tracer.span("outer", "cli", outer)()
    outer_rec, inner_rec = tracer.spans
    assert inner_rec["parent"] == outer_rec["id"]
    assert (outer_rec["end"] - outer_rec["start"], outer_rec["hot_s"]) == (8.0, 1.0)
    assert (inner_rec["end"] - inner_rec["start"], inner_rec["hot_s"]) == (4.0, 2.0)
    assert self_times(tracer.spans) == {outer_rec["id"]: 3.0, inner_rec["id"]: 2.0}
    assert tracer.hot["h"]["calls"] == 3 and tracer.hot["h"]["self_s"] == 3.0
    layers = layer_metrics(tracer.spans, tracer.hot, passes=1)
    assert (layers["self_s.cli"], layers["self_s.core"], layers["self_s.rng"]) == (3.0, 2.0, 3.0)


def test_hot_call_inside_hot_call_is_not_counted_twice():
    clock = FakeClock()
    tracer = Tracer(clock)

    def tick():
        clock.now += 1.0

    inner = tracer.hot_call("inner", "rng", tick)

    def draw():
        clock.now += 2.0
        inner()

    tracer.span("s", "strategies", tracer.hot_call("outer", "learner", draw))()
    assert tracer.hot["outer"]["total_s"] == 3.0 and tracer.hot["outer"]["self_s"] == 2.0
    assert tracer.hot["inner"]["self_s"] == 1.0
    assert self_times(tracer.spans) == {0: 0.0}


def test_layer_metrics_are_per_pass():
    spans = [span(0, None, 0.0, 4.0, name="rewards.filter", layer="rewards",
                  attrs={"n_in": 10, "n_out": 4})]
    hot = {"rewards.normalize": {"layer": "rewards", "calls": 40, "total_s": 1.0,
                                 "self_s": 1.0, "values": 0}}
    out = layer_metrics(spans, hot, passes=2)
    assert out["rewards.grade_s"] == 2.0
    assert out["rewards.graded"] == 5.0
    assert out["rewards.normalize_calls"] == 20.0
    assert out["rewards.keep_ratio"] == 0.4


def test_instrumented_run(tmp_path, monkeypatch):
    import contextlib
    import io

    from headtail import cli, rewards

    from tracer import LAYERS, instrument

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HEADTAIL_OUTPUT_DIR", raising=False)
    original = rewards.normalize_answer
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        main = tracer.span("cli.main", "cli", cli.main)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--mode", "iterative_union", "--n", "40", "--t", "2",
                         "--seed", "0", "--output-dir", "out"]) == 0
    finally:
        restore()
    assert rewards.normalize_answer is original
    m = layer_metrics(tracer.spans, tracer.hot, passes=1)
    assert m["learner.batch_draws"] == 40 * 8 * 2
    assert m["rewards.normalize_per_draw"] == 4.0
    assert m["metrics.rows"] == 3 * 2
    assert m["harness.run_s.vanilla"] > 0 and m["harness.bytes_written"] > 0
    assert all(m[f"self_s.{layer}"] >= 0 for layer in LAYERS)
    total_self = sum(m[f"self_s.{layer}"] for layer in LAYERS)
    (top,) = [s for s in tracer.spans if s["parent"] is None]
    assert total_self == pytest.approx(top["end"] - top["start"])
