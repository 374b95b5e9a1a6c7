import math
import random
import re

import pytest

from qmkgf.metrics import (
    MetricReport,
    aggregate_reports,
    bleu_1,
    format_report_table,
    meteor,
    retrieval_metrics,
    rouge_1,
    rouge_l,
    score_example,
    token_prf,
    tokenize,
)


def test_tokenize_lowercases_and_splits_on_non_alnum():
    assert tokenize("The cat, sat!") == ["the", "cat", "sat"]
    assert tokenize("foo_bar v2.0") == ["foo", "bar", "v2", "0"]


def test_tokenize_splits_cjk_per_character():
    assert tokenize("北京欢迎你 hello") == ["北", "京", "欢", "迎", "你", "hello"]


_ORACLE_CJK_RANGES = ((0x3040, 0x30FF), (0x3400, 0x4DBF), (0x4E00, 0x9FFF), (0xF900, 0xFAFF))


def _per_character_tokenize(text: str) -> list[str]:
    """Reference tokenizer: classifies every character of every word run."""
    tokens: list[str] = []
    for run in re.findall(r"[^\W_]+", text.lower()):
        buf = ""
        for ch in run:
            if any(lo <= ord(ch) <= hi for lo, hi in _ORACLE_CJK_RANGES):
                if buf:
                    tokens.append(buf)
                    buf = ""
                tokens.append(ch)
            else:
                buf += ch
        if buf:
            tokens.append(buf)
    return tokens


def test_tokenize_matches_per_character_oracle_over_the_bmp():
    chars = [chr(c) for c in range(0x20, 0x10000) if not 0xD800 <= c <= 0xDFFF]
    text = "".join(chars)
    assert tokenize(text) == _per_character_tokenize(text)
    for ch in chars:
        framed = f"ab{ch}cd {ch}"
        assert tokenize(framed) == _per_character_tokenize(framed), hex(ord(ch))
    rng = random.Random(5)
    pool = chars + list("abc 北京ア") * 200
    for _ in range(500):
        text = "".join(rng.choices(pool, k=rng.randint(0, 30)))
        assert tokenize(text) == _per_character_tokenize(text)


def test_tokenize_cjk_range_non_word_characters_are_not_tokens():
    # U+30A0 and U+30FB lie in the katakana range but are not word characters.
    assert tokenize("\u30a0ア\u30fbイ\u30fb") == ["ア", "イ"]


# ---------------------------------------------------------------------------
# rouge-1
# ---------------------------------------------------------------------------

def test_rouge1_identical():
    assert rouge_1("the cat sat", "the cat sat") == 1.0


def test_rouge1_disjoint():
    assert rouge_1("alpha beta", "gamma delta") == 0.0


def test_rouge1_hand_count_oracle():
    # overlap 2, P = 2/3, R = 2/2 -> F = 2 * (2/3 * 1) / (2/3 + 1) = 0.8
    assert rouge_1("the cat sat", "the cat") == pytest.approx(0.8, abs=1e-12)


def test_rouge1_f_symmetric_under_swap():
    rng = random.Random(1)
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(100):
        x = " ".join(rng.choices(vocab, k=rng.randint(1, 8)))
        y = " ".join(rng.choices(vocab, k=rng.randint(1, 8)))
        assert rouge_1(x, y) == pytest.approx(rouge_1(y, x), abs=1e-12)


def test_rouge1_both_empty():
    assert rouge_1("", "") == 0.0


# ---------------------------------------------------------------------------
# rouge-l
# ---------------------------------------------------------------------------

def _lcs_oracle(a, b):
    """Plain recursive LCS with memo, independent of the implementation."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def test_rougel_identical():
    assert rouge_l("one two three", "one two three") == 1.0


def test_rougel_reversed_two_tokens():
    # LCS = 1, P = R = 1/2 -> F = 0.5
    assert rouge_l("beta alpha", "alpha beta") == pytest.approx(0.5, abs=1e-12)


def test_rougel_empty_candidate():
    assert rouge_l("", "something here") == 0.0


def test_rougel_matches_recursive_lcs_oracle():
    rng = random.Random(2)
    vocab = ["w1", "w2", "w3", "w4"]
    for _ in range(50):
        cand = rng.choices(vocab, k=rng.randint(1, 10))
        ref = rng.choices(vocab, k=rng.randint(1, 10))
        lcs = _lcs_oracle(tuple(cand), tuple(ref))
        p = lcs / len(cand)
        r = lcs / len(ref)
        expected = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        assert rouge_l(" ".join(cand), " ".join(ref)) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# bleu-1
# ---------------------------------------------------------------------------

def test_bleu1_identical():
    assert bleu_1("the cat sat", "the cat sat") == 1.0


def test_bleu1_short_candidate_brevity_penalty():
    # P = 1, BP = exp(1 - 3/2) = e^-0.5
    expected = math.exp(-0.5)
    assert bleu_1("the cat", "the cat sat") == pytest.approx(expected, abs=1e-12)


def test_bleu1_no_overlap():
    assert bleu_1("alpha beta", "gamma delta") == 0.0


def test_bleu1_bp_is_one_when_candidate_not_shorter():
    rng = random.Random(3)
    vocab = ["x", "y", "z"]
    for _ in range(50):
        ref = rng.choices(vocab, k=rng.randint(1, 5))
        cand = rng.choices(vocab, k=rng.randint(len(ref), 8))
        cand_text = " ".join(cand)
        ref_text = " ".join(ref)
        from collections import Counter

        overlap = sum((Counter(cand) & Counter(ref)).values())
        assert bleu_1(cand_text, ref_text) == pytest.approx(overlap / len(cand), abs=1e-12)


def test_bleu1_empty_candidate():
    assert bleu_1("", "anything") == 0.0


# ---------------------------------------------------------------------------
# meteor
# ---------------------------------------------------------------------------

def test_meteor_identical_formula_per_length():
    for n in range(1, 10):
        text = " ".join(f"tok{i}" for i in range(n))
        # matches = n, chunks = 1 -> penalty 0.5 * (1/n)^3
        expected = 1.0 * (1.0 - 0.5 * (1.0 / n) ** 3)
        assert meteor(text, text) == pytest.approx(expected, abs=1e-12)


def test_meteor_no_overlap():
    assert meteor("alpha beta", "gamma delta") == 0.0


def test_meteor_single_shared_token_at_different_positions():
    cand = "x y shared"
    ref = "shared p q r"
    # matches = 1, chunks = 1, P = 1/3, R = 1/4
    p, r = 1 / 3, 1 / 4
    f_mean = p * r / (0.9 * p + 0.1 * r)
    expected = f_mean * (1 - 0.5 * 1.0**3)
    assert meteor(cand, ref) == pytest.approx(expected, abs=1e-12)


def test_meteor_identical_long_text_above_99():
    text = " ".join(f"w{i}" for i in range(5))
    assert meteor(text, text) > 0.99


def test_meteor_in_unit_interval_random():
    rng = random.Random(4)
    vocab = [f"t{i}" for i in range(6)]
    for _ in range(200):
        cand = " ".join(rng.choices(vocab, k=rng.randint(1, 12)))
        ref = " ".join(rng.choices(vocab, k=rng.randint(1, 12)))
        value = meteor(cand, ref)
        assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# token precision / recall / f1
# ---------------------------------------------------------------------------

def test_token_prf_identical():
    assert token_prf("a b c", "a b c") == (1.0, 1.0, 1.0)


def test_token_prf_disjoint():
    assert token_prf("a b", "c d") == (0.0, 0.0, 0.0)


def test_token_prf_multiset_oracle():
    p, r, f1 = token_prf("a a b", "a b b")
    assert p == pytest.approx(2 / 3, abs=1e-12)
    assert r == pytest.approx(2 / 3, abs=1e-12)
    assert f1 == pytest.approx(2 / 3, abs=1e-12)


def test_token_prf_empty_candidate():
    assert token_prf("", "a b")[0] == 0.0


# ---------------------------------------------------------------------------
# retrieval metrics
# ---------------------------------------------------------------------------

def test_retrieval_gold_at_rank_one():
    hit, mrr, recall, ndcg = retrieval_metrics(["g", "x", "y"], {"g"}, 10)
    assert (hit, mrr, recall, ndcg) == (1.0, 1.0, 1.0, 1.0)


def test_retrieval_gold_at_rank_three():
    hit, mrr, recall, ndcg = retrieval_metrics(["a", "b", "g", "c"], {"g"}, 10)
    assert hit == 1.0
    assert mrr == pytest.approx(1 / 3, abs=1e-12)
    assert recall == 1.0
    assert ndcg == pytest.approx(1.0 / math.log2(4.0), abs=1e-12)


def test_retrieval_gold_absent():
    assert retrieval_metrics(["a", "b"], {"g"}, 10) == (0.0, 0.0, 0.0, 0.0)


def test_retrieval_empty_gold_set():
    assert retrieval_metrics(["a", "b"], set(), 10) == (0.0, 0.0, 0.0, 0.0)


def test_retrieval_monotone_under_promotion():
    """Moving a gold id one slot earlier never decreases any metric."""
    rng = random.Random(5)
    ids = [f"c{i}" for i in range(12)]
    for _ in range(1000):
        ranking = ids[:]
        rng.shuffle(ranking)
        gold = set(rng.sample(ids, rng.randint(1, 4)))
        k = rng.randint(1, 12)
        gold_positions = [i for i, cid in enumerate(ranking) if cid in gold and i > 0]
        if not gold_positions:
            continue
        i = rng.choice(gold_positions)
        before = retrieval_metrics(ranking, gold, k)
        promoted = ranking[:]
        promoted[i - 1], promoted[i] = promoted[i], promoted[i - 1]
        after = retrieval_metrics(promoted, gold, k)
        for b, a in zip(before, after):
            assert a >= b - 1e-12


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_all_metrics_in_unit_interval():
    report = score_example(
        answer="the cat sat on the mat",
        reference="a cat sat on a mat",
        ranked_ids=["c1", "c2"],
        gold_ids={"c2"},
        k=10,
    )
    for name, value in report.as_dict().items():
        assert 0.0 <= value <= 1.0, name


def test_score_example_equals_the_public_metrics():
    rng = random.Random(11)
    vocab = ["the", "Cat", "sat", "mat", "北", "京", "x1", "on"]
    for _ in range(100):
        answer = " ".join(rng.choices(vocab, k=rng.randint(0, 9)))
        reference = " ".join(rng.choices(vocab, k=rng.randint(0, 9)))
        report = score_example(answer, reference, ["c1"], {"c1"}, 5)
        p, r, f1 = token_prf(answer, reference)
        assert (report.precision, report.recall, report.f1) == (p, r, f1)
        assert report.rouge1 == rouge_1(answer, reference)
        assert report.rougeL == rouge_l(answer, reference)
        assert report.bleu1 == bleu_1(answer, reference)
        assert report.meteor == meteor(answer, reference)


def test_aggregate_reports_means():
    a = MetricReport(rouge1=1.0, bleu1=0.5)
    b = MetricReport(rouge1=0.0, bleu1=0.5)
    agg = aggregate_reports([a, b])
    assert agg.rouge1 == 0.5
    assert agg.bleu1 == 0.5


def test_format_report_table_alignment():
    table = format_report_table([("1", MetricReport()), ("mean", MetricReport())])
    lines = table.split("\n")
    assert lines[0].startswith("example")
    assert len(lines) == 3
    assert "rouge1" in lines[0]
