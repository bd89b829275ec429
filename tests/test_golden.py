"""Golden hashes: the byte-stability yardstick for refactors.

Pins the SHA-256 of every report file written by ``headtail run`` for
3 modes x 8 strategies x 2 seeds x 3 loop variants (default, restart each
iteration, per-iteration apply point) on a small config, of the ``report`` verb's
stdout for both snapshots of each run, and of the ``rebalance`` outputs for
tc and rp on a fixed log.  A failure names each file that differs, as
``self_improve/tc/default/seed0: config.json``.  A change that alters any
output byte on purpose re-pins with ``python tests/test_golden.py --write``,
which prints the entries it changed, and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

from headtail.cli import main
from headtail.harness import MODES, OUTPUT_DIR_ENV
from headtail.strategies import KINDS

GOLDEN_PATH = Path(__file__).with_name("golden_hashes.json")
SMALL = {"n_queries": 60, "k_samples": 4, "iterations": 2, "calibration_shots": 16}
SEEDS = (0, 1)
VARIANTS = {
    "default": {},
    "restart": {"restart_each_iteration": True},
    "per_iteration": {"apply_point": "per_iteration"},
}
SNAPSHOTS = ("filter_final", "train_final")


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def collect_runs(mode: str, workdir: Path) -> dict[str, dict[str, str]]:
    """File and report-stdout hashes for every strategy, variant and seed in one mode."""
    pinned: dict[str, dict[str, str]] = {}
    for kind, (variant, extra) in itertools.product(KINDS, VARIANTS.items()):
        pinned.update(_collect_one(mode, kind, variant, extra, workdir))
    return pinned


def _collect_one(mode: str, kind: str, variant: str, extra: dict, workdir: Path) -> dict[str, dict[str, str]]:
    pinned = {}
    cfg = workdir / f"{kind}_{variant}.json"
    cfg.write_text(json.dumps({**SMALL, **extra, "mode": mode, "strategy": {"kind": kind}}))
    for seed in SEEDS:
        outdir = workdir / f"{kind}_{variant}_seed{seed}"
        code, _ = _cli(["run", "--config", str(cfg), "--seed", str(seed),
                        "--output-dir", str(outdir)])
        assert code == 0
        hashes = {
            p.relative_to(outdir).as_posix(): _sha(p.read_bytes())
            for p in sorted(outdir.rglob("*")) if p.is_file()
        }
        for name in SNAPSHOTS:
            code, text = _cli(["report", "--run-dir", str(outdir), "--dataset", name])
            assert code == 0
            hashes[f"report:{name}"] = _sha(text)
        pinned[f"{mode}/{kind}/{variant}/seed{seed}"] = hashes
    return pinned


def fixed_log_lines() -> list[str]:
    """A skewed 30-query, K=8 log with surface-form answers and step offsets."""
    lines = []
    for qid in range(1, 31):
        k = (qid * 5) % 9
        for j in range(1, 9):
            tokens = 4 + (qid * 7 + j * 13) % 60
            record = {
                "query_id": qid,
                "gt_answer": f"{qid}/{qid + 1}",
                "extracted_answer": f" ${qid} / {qid + 1}$ " if j <= k else f"{qid + j}",
                "token_count": tokens,
                "iteration": 1 + j % 2,
            }
            if j % 3:
                record["step_offsets"] = [tokens // 3, 2 * tokens // 3]
            lines.append(json.dumps(record))
    return lines


REBALANCE_CASES = {
    "tc": ["--strategy", "tc", "--k", "8", "--l", "3", "--seed", "5"],
    "rp": ["--strategy", "rp", "--k", "8", "--min-cot-tokens", "20"],
}


def collect_rebalance(workdir: Path) -> dict[str, dict[str, str]]:
    log = workdir / "fixed_log.jsonl"
    log.write_text("\n".join(fixed_log_lines()) + "\n", encoding="utf-8")
    pinned = {}
    for name, flags in REBALANCE_CASES.items():
        out, summary = workdir / f"{name}.jsonl", workdir / f"{name}_summary.csv"
        code, text = _cli(["rebalance", "--input", str(log), "--output", str(out),
                           "--summary", str(summary), *flags])
        assert code == 0
        pinned[name] = {
            "output": _sha(out.read_bytes()),
            "summary": _sha(summary.read_bytes()),
            "stdout": _sha(text.replace(str(out), "<output>")),
        }
    return pinned


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _mismatches(expected: dict, actual: dict) -> list[str]:
    """``entry: file`` for each file whose hash differs, in each entry of
    either side (``entry: (missing)`` for an entry only one side has)."""
    out = []
    for key in sorted(set(expected) | set(actual)):
        if key not in expected or key not in actual:
            out.append(f"{key}: (missing)")
            continue
        want, got = expected[key], actual[key]
        out += [f"{key}: {name}" for name in sorted(set(want) | set(got)) if want.get(name) != got.get(name)]
    return out


@pytest.mark.parametrize("mode", MODES)
def test_run_report_hashes(mode, tmp_path, monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    expected = {k: v for k, v in _golden()["runs"].items() if k.startswith(mode + "/")}
    actual = collect_runs(mode, tmp_path)
    assert len(actual) == len(KINDS) * len(VARIANTS) * len(SEEDS)
    differ = _mismatches(expected, actual)
    assert not differ, "\n".join(differ)


def test_rebalance_hashes(tmp_path):
    expected = _golden()["rebalance"]
    actual = collect_rebalance(tmp_path)
    differ = _mismatches(expected, actual)
    assert not differ, "\n".join(differ)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        runs: dict[str, dict[str, str]] = {}
        for mode in MODES:
            (root / mode).mkdir()
            runs.update(collect_runs(mode, root / mode))
        (root / "offline").mkdir()
        golden = {"runs": runs, "rebalance": collect_rebalance(root / "offline")}
    old = _golden() if GOLDEN_PATH.exists() else {"runs": {}, "rebalance": {}}
    changed = _mismatches(old["runs"], runs) + [
        f"rebalance/{line}" for line in _mismatches(old["rebalance"], golden["rebalance"])
    ]
    GOLDEN_PATH.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print("\n".join(changed))
    entries = sum(map(len, runs.values())) + sum(map(len, golden["rebalance"].values()))
    print(f"wrote {GOLDEN_PATH}: {len(changed)} of {entries} entries changed")
