"""Seeded generator of offline trajectory logs for the rebalance workload.

A log holds K responses for each of ``n_queries`` queries, one JSON object
per line in the schema ``headtail rebalance`` reads.  The generator knows
which responses are correct by construction, so the expected output of a
rebalance can be recomputed without calling into the package under test.

Properties the logs have on purpose:

* per-query pass counts are head/tail skewed: a U-shaped Beta draw gives
  many queries at K/K and many at 0/K;
* correct answers differ from the ground truth in surface form only
  (``$...$`` and ``\\(...\\)`` wrappers, ``\\pi``, ``\\times``, spaces around
  ``/``, letter case), so they match only after normalization;
* ``token_count`` is lognormal, with a small share under the 10-token floor;
* every record carries strictly ascending ``step_offsets``;
* record order is shuffled across queries.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

K_SAMPLES = 8
COT_FLOOR = 10
TC_L = 4

_LOG_MU = 4.8        # exp(4.8) ~ 120 tokens
_LOG_SIGMA = 1.2     # ~2% of responses fall under the 10-token floor


def _canonical_value(qid: int, shift: int) -> str:
    """Normalized answer string of one of five answer families.

    ``shift`` > 0 yields a value that differs from the shift-0 value of the
    same query in its number, so wrong answers can never normalize to the
    ground truth.
    """
    family = qid % 5
    a = 2 + (qid * 7919) % 97 + shift
    if family == 0:
        return str(a)
    if family == 1:
        return f"{a}/{a + 1 + qid % 13}"
    if family == 2:
        return f"{a}π"
    if family == 3:
        return f"{a}×10^{1 + qid % 9}"
    return f"x+{a}"


def _surface(rnd: random.Random, canonical: str) -> str:
    """A raw answer string that normalizes back to ``canonical``."""
    s = canonical
    if "π" in s and rnd.random() < 0.7:
        s = s.replace("π", "\\pi")
    if "×" in s and rnd.random() < 0.7:
        s = s.replace("×", " \\times ")
    if "/" in s and rnd.random() < 0.7:
        s = s.replace("/", " / ")
    if "x" in s and rnd.random() < 0.5:
        s = s.replace("x", "X")
    r = rnd.random()
    if r < 0.3:
        s = f"${s}$"
    elif r < 0.45:
        s = f"\\({s}\\)"
    if rnd.random() < 0.2:
        s = f"  {s} "
    return s


def _token_count(rnd: random.Random) -> int:
    return max(1, int(round(rnd.lognormvariate(_LOG_MU, _LOG_SIGMA))))


def _step_offsets(rnd: random.Random, tokens: int) -> list[int]:
    if tokens < 3:
        return []
    n = min(tokens - 1, rnd.randint(1, 6))
    return sorted(rnd.sample(range(1, tokens), n))


def generate(seed: int, n_queries: int) -> tuple[list[dict], dict[int, int]]:
    """Return (records in file order, usable correct count per query id).

    The usable count of a query is the number of its correct responses
    whose ``token_count`` reaches :data:`COT_FLOOR`.
    """
    rnd = random.Random(seed)
    qids = sorted(rnd.sample(range(1, 50 * n_queries + 1), n_queries))
    records: list[dict] = []
    usable: dict[int, int] = {}
    for qid in qids:
        p = rnd.betavariate(0.35, 0.35)
        gt = _canonical_value(qid, 0)
        gt_raw = _surface(rnd, gt)
        usable[qid] = 0
        for j in range(K_SAMPLES):
            correct = rnd.random() < p
            value = gt if correct else _canonical_value(qid, 1 + j)
            tokens = _token_count(rnd)
            if correct and tokens >= COT_FLOOR:
                usable[qid] += 1
            records.append(
                {
                    "query_id": qid,
                    "gt_answer": gt_raw,
                    "extracted_answer": _surface(rnd, value),
                    "token_count": tokens,
                    "step_offsets": _step_offsets(rnd, tokens),
                }
            )
    rnd.shuffle(records)
    return records, usable


def write_log(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def expected_counts(usable: dict[int, int], strategy: str) -> dict[int, int]:
    """Output records per query for ``rebalance --k 8 --l 4 --min-cot-tokens 10``.

    Queries with no output are absent.  ``tc`` keeps min(k, L) usable
    responses; ``rp`` pads every query with a usable response to K.
    """
    if strategy == "tc":
        target = {qid: min(k, TC_L) for qid, k in usable.items()}
    elif strategy == "rp":
        target = {qid: K_SAMPLES if k else 0 for qid, k in usable.items()}
    else:
        raise ValueError(f"no recomputation for strategy {strategy!r}")
    return {qid: n for qid, n in target.items() if n}
