"""The benchmark's workloads: the verb calls of one pass and their output checks.

Every path handed to the program is relative to the work directory the
pass runs in, so reports (which record their own output directory) and
digests do not depend on where the checkout lives.

The sizes are scaled so that one pass takes about a second on a 2-CPU
machine, and a 30-second run holds a warm-up pass and 20 or more timed
passes.  At the paper's stock size (N=2000) one pass of ``sim-stock``
alone takes over 20 s, so a run could not take a median.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import loggen

STOCK_N = 100
SCALE_N = 1000
LOG_QUERIES = 1250          # x 8 responses = 10k records
ITERATIONS = 5              # the package default T
ALL_KINDS = ("vanilla", "tc", "hc", "rp", "ri", "ar", "gr", "sc")

METRICS_HEADER = (
    "iteration,role,total,l1,l2,l3,l4,l5,b25,b50,b75,b100,mean_len,"
    "len_l1,len_l2,len_l3,len_l4,len_l5,head,tail,gap"
)
RUN_FILES = (
    "metrics.csv",
    "config.json",
    "learner_final.json",
    "summary.json",
    "datasets/train_final.jsonl",
    "datasets/filter_final.jsonl",
)
OUT = "out"


# -- output checks (pure functions of the files written) ---------------------


def check_run_dir(run_dir: Path, iterations: int) -> list[str]:
    """Every report file exists, the run completed, metrics.csv has 3*T rows."""
    missing = [f for f in RUN_FILES if not (run_dir / f).is_file()]
    if missing:
        return [f"{run_dir}: missing {', '.join(missing)}"]
    errors = []
    try:
        summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return [f"{run_dir}/summary.json: not JSON ({exc.msg})"]
    if summary.get("incomplete") is not False:
        errors.append(f"{run_dir}/summary.json: incomplete is {summary.get('incomplete')!r}")
    lines = (run_dir / "metrics.csv").read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        errors.append(f"{run_dir}/metrics.csv: header differs from the fixed schema")
    elif len(lines) - 1 != 3 * iterations:
        errors.append(f"{run_dir}/metrics.csv: {len(lines) - 1} rows, expected {3 * iterations}")
    return errors


def check_sweep(work: Path, kinds: tuple[str, ...], iterations: int) -> list[str]:
    """The sweep summary lists one completed run per strategy, each checked."""
    summary = work / OUT / "sweep_summary.csv"
    if not summary.is_file():
        return [f"{summary}: missing"]
    lines = summary.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "run_dir,seed," + METRICS_HEADER:
        return [f"{summary}: header differs from the fixed schema"]
    rows = [line.split(",", 1)[0] for line in lines[1:]]
    errors = []
    if len(rows) != len(kinds):
        errors.append(f"{summary}: {len(rows)} runs listed, expected {len(kinds)}")
    for run_dir in rows:
        errors += check_run_dir(work / run_dir, iterations)
    return errors


def check_report(stdout: str, snapshot: Path) -> list[str]:
    """``report`` prints the fixed header and one row whose total counts the snapshot."""
    lines = stdout.splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        return ["report: header differs from the fixed schema"]
    if len(lines) != 2:
        return [f"report: {len(lines) - 1} rows, expected 1"]
    if not snapshot.is_file():
        return [f"{snapshot}: missing"]
    with open(snapshot, "rb") as fh:
        entries = sum(1 for _ in fh)
    total = lines[1].split(",")[2]
    if total != str(entries):
        return [f"report: total {total}, but {snapshot.name} has {entries} entries"]
    return []


def check_offline(output: Path, expected: dict[int, int]) -> list[str]:
    """Per-query output counts equal the independent recomputation."""
    if not output.is_file():
        return [f"{output}: missing"]
    counts: Counter = Counter()
    with open(output, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                return [f"{output}:{lineno}: not JSON ({exc.msg})"]
            if rec.get("correct") is not True:
                return [f"{output}:{lineno}: record is not marked correct"]
            counts[rec.get("query_id")] += 1
    wrong = sorted(q for q in set(counts) | set(expected) if counts.get(q, 0) != expected.get(q, 0))
    if wrong:
        q = wrong[0]
        return [f"{output}: {len(wrong)} queries with wrong counts, e.g. query {q}: "
                f"{counts.get(q, 0)} written, {expected.get(q, 0)} expected"]
    return []


def digest(work: Path, texts: list[str]) -> str:
    """SHA-256 over every file under the output directory plus ``texts``."""
    h = hashlib.sha256()
    root = work / OUT
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    for text in texts:
        h.update(text.encode() + b"\0")
    return h.hexdigest()


# -- workloads ----------------------------------------------------------------


class SimStock:
    """The paper's experiment, one sweep over all 8 strategies (K=8, T=5).

    The only workload where the scalar sampler path (ar/gr/sc) runs.
    """

    name = "sim-stock"

    def prepare(self, work: Path, seed: int) -> None:
        pass

    def _sweep(self, seed: int, n: int, t: int) -> list[str]:
        return ["sweep", "--strategies", ",".join(ALL_KINDS), "--seeds", str(seed),
                "--jobs", "1", "--n", str(n), "--t", str(t), "--output-dir", OUT]

    def calls(self, seed: int) -> list[list[str]]:
        return [self._sweep(seed, STOCK_N, ITERATIONS)]

    def setup_calls(self, seed: int) -> list[list[str]]:
        return [self._sweep(seed, 10, 1)]

    def check(self, work: Path, stdouts: list[str]) -> list[str]:
        return check_sweep(work, ALL_KINDS, ITERATIONS)

    def digest_texts(self, stdouts: list[str]) -> list[str]:
        return []


class SimScale:
    """10x the N of sim-stock in iterative_union mode, then the report verb.

    No resampling: batched sampling, grading, the growing union merge,
    metrics and the report write dominate.
    """

    name = "sim-scale"

    def prepare(self, work: Path, seed: int) -> None:
        pass

    def _calls(self, seed: int, n: int, t: int) -> list[list[str]]:
        return [
            ["run", "--mode", "iterative_union", "--strategy", "vanilla", "--n", str(n),
             "--t", str(t), "--seed", str(seed), "--output-dir", OUT],
            ["report", "--run-dir", OUT, "--dataset", "filter_final"],
        ]

    def calls(self, seed: int) -> list[list[str]]:
        return self._calls(seed, SCALE_N, ITERATIONS)

    def setup_calls(self, seed: int) -> list[list[str]]:
        return self._calls(seed, 10, 1)

    def check(self, work: Path, stdouts: list[str]) -> list[str]:
        out = work / OUT
        return check_run_dir(out, ITERATIONS) + check_report(
            stdouts[1], out / "datasets" / "filter_final.jsonl")

    def digest_texts(self, stdouts: list[str]) -> list[str]:
        return [stdouts[1]]


class OfflineRebalance:
    """A generated 10k-record log rebalanced with tc and with rp.

    Read- and parse-heavy, with no learner: the I/O layer in the opposite
    direction from sim-scale.
    """

    name = "offline-rebalance"
    strategies = ("tc", "rp")

    def prepare(self, work: Path, seed: int) -> None:
        records, usable = loggen.generate(seed, LOG_QUERIES)
        loggen.write_log(work / "log.jsonl", records)
        expected = {s: loggen.expected_counts(usable, s) for s in self.strategies}
        (work / "log_expected.json").write_text(json.dumps(expected), encoding="utf-8")
        loggen.write_log(work / "tiny_log.jsonl", loggen.generate(seed, 8)[0])

    def _calls(self, log: str) -> list[list[str]]:
        return [
            ["rebalance", "--input", log, "--output", f"{OUT}/{s}.jsonl", "--strategy", s,
             "--l", str(loggen.TC_L), "--k", str(loggen.K_SAMPLES),
             "--min-cot-tokens", str(loggen.COT_FLOOR)]
            for s in self.strategies
        ]

    def calls(self, seed: int) -> list[list[str]]:
        return self._calls("log.jsonl")

    def setup_calls(self, seed: int) -> list[list[str]]:
        return self._calls("tiny_log.jsonl")

    def check(self, work: Path, stdouts: list[str]) -> list[str]:
        expected = json.loads((work / "log_expected.json").read_text(encoding="utf-8"))
        errors = []
        for s in self.strategies:
            want = {int(q): n for q, n in expected[s].items()}
            errors += check_offline(work / OUT / f"{s}.jsonl", want)
        return errors

    def digest_texts(self, stdouts: list[str]) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (SimStock(), SimScale(), OfflineRebalance())}
