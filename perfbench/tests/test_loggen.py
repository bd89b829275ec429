from collections import Counter

import loggen
from headtail.rewards import normalize_answer


def test_same_seed_same_log():
    assert loggen.generate(7, 50) == loggen.generate(7, 50)


def test_other_seed_other_log():
    assert loggen.generate(7, 50)[0] != loggen.generate(8, 50)[0]


def test_log_shape():
    records, usable = loggen.generate(3, 400)
    assert len(records) == 400 * loggen.K_SAMPLES
    per_query = Counter(r["query_id"] for r in records)
    assert set(per_query.values()) == {loggen.K_SAMPLES}
    assert set(usable) == set(per_query)
    # head/tail skew: many queries at K/K and many at 0/K
    passes = Counter(
        r["query_id"] for r in records
        if normalize_answer(r["extracted_answer"]) == normalize_answer(r["gt_answer"])
    )
    k_hist = Counter(passes.get(q, 0) for q in per_query)
    assert k_hist[0] > 40 and k_hist[loggen.K_SAMPLES] > 40
    # some responses fall under the reasoning floor
    assert any(r["token_count"] < loggen.COT_FLOOR for r in records)
    # step offsets are strictly ascending and inside the response
    for r in records:
        offsets = r["step_offsets"]
        assert all(0 < a < b < r["token_count"] for a, b in zip(offsets, offsets[1:]))
    # order is shuffled across queries
    runs = sum(1 for a, b in zip(records, records[1:]) if a["query_id"] == b["query_id"])
    assert runs < len(records) / 10


def test_correct_answers_match_only_after_normalization():
    records, usable = loggen.generate(5, 300)
    correct = [r for r in records
               if normalize_answer(r["extracted_answer"]) == normalize_answer(r["gt_answer"])]
    assert sum(1 for r in correct if r["extracted_answer"] != r["gt_answer"]) > len(correct) / 2
    for marker in ("$", "\\pi", "\\times", " / "):
        assert any(marker in r["extracted_answer"] for r in correct), marker


def test_usable_counts_agree_with_grading():
    records, usable = loggen.generate(11, 200)
    graded = Counter(
        r["query_id"] for r in records
        if r["token_count"] >= loggen.COT_FLOOR
        and normalize_answer(r["extracted_answer"]) == normalize_answer(r["gt_answer"])
    )
    assert {q: k for q, k in usable.items() if k} == dict(graded)


def test_expected_counts():
    usable = {1: 0, 2: 3, 3: 8}
    assert loggen.expected_counts(usable, "tc") == {2: 3, 3: loggen.TC_L}
    assert loggen.expected_counts(usable, "rp") == {2: loggen.K_SAMPLES, 3: loggen.K_SAMPLES}
