"""The names the benchmark's tracer wraps still exist and still get called.

``perfbench/tracer.py`` instruments the package from outside by replacing
module and class attributes it looks up by name.  Its own test lives
outside this suite, so a renamed or deleted wrapped name would otherwise
go unnoticed here.  This runs one tiny loop, a report on its run
directory and one tiny offline rebalance under the tracer, and checks the
stage spans they must record.  Then it runs each strategy kind once and
checks that each dispatches through the name the tracer wraps for it.
"""

import json
from pathlib import Path

from headtail import cli, core, harness, learner, rewards, rng, strategies

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SPANS = (
    "cli.report",
    "harness.loop",
    "strategies.reshape",
    "rewards.filter",
    "harness.load_log",
    "harness.rebalance_offline",
)


def test_instrumented_names_resolve_and_restore(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer, instrument

    owners = (cli, harness, rewards, rng, strategies, learner.LearnerState, core.TrajectoryDataset)
    before = [dict(vars(owner)) for owner in owners]
    log = tmp_path / "log.jsonl"
    log.write_text(
        "".join(
            json.dumps({"query_id": q, "gt_answer": "a", "extracted_answer": "a" if j <= q else "b",
                        "token_count": 30}) + "\n"
            for q in range(4) for j in range(1, 5)
        )
    )
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        assert cli.main(["run", "--strategy", "tc", "--n", "10", "--k", "2", "--l", "1", "--t", "1",
                         "--seed", "0", "--output-dir", str(tmp_path / "run")]) == 0
        assert cli.main(["report", "--run-dir", str(tmp_path / "run")]) == 0
        assert cli.main(["rebalance", "--input", str(log), "--output", str(tmp_path / "tc.jsonl"),
                         "--strategy", "tc", "--k", "4", "--l", "2"]) == 0
    finally:
        restore()
    names = {span["name"] for span in tracer.spans}
    assert set(SPANS) <= names, sorted(set(SPANS) - names)
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert all(now[name] is value for name, value in saved.items()), owner


def test_each_kind_dispatches_through_a_wrapped_name(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer, instrument

    expected = {kind: "strategies.reshape" for kind in ("vanilla", "tc", "hc", "rp", "ri")}
    expected.update({kind: "strategies.resample" for kind in ("ar", "gr", "sc")})
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        for kind in expected:
            assert cli.main(["run", "--strategy", kind, "--n", "10", "--k", "4", "--t", "1", "--seed", "0",
                             "--output-dir", str(tmp_path / kind)]) == 0
    finally:
        restore()
    seen = {(span["name"], span["attrs"].get("kind")) for span in tracer.spans}
    missing = {(name, kind) for kind, name in expected.items()} - seen
    assert not missing, sorted(missing)
