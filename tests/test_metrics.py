import math
import random
import re
from collections import Counter

import pytest

from qmkgf.config import PipelineConfig
from qmkgf.errors import ValidationError
from qmkgf.metrics import (
    ALPHA,
    BETA,
    GAMMA,
    MetricReport,
    _align_chunks,
    _lcs_length,
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

def _dp_lcs_length(a: list[str], b: list[str]) -> int:
    """Reference LCS: the row-by-row dynamic programme."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for token in a:
        cur = [0] * (len(b) + 1)
        for j, other in enumerate(b, start=1):
            if token == other:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def test_rougel_identical():
    assert rouge_l("one two three", "one two three") == 1.0


def test_rougel_reversed_two_tokens():
    # LCS = 1, P = R = 1/2 -> F = 0.5
    assert rouge_l("beta alpha", "alpha beta") == pytest.approx(0.5, abs=1e-12)


def test_rougel_empty_candidate():
    assert rouge_l("", "something here") == 0.0


def test_rougel_matches_dp_lcs_oracle():
    rng = random.Random(2)
    vocab = ["w1", "w2", "w3", "w4"]
    for _ in range(50):
        cand = rng.choices(vocab, k=rng.randint(1, 10))
        ref = rng.choices(vocab, k=rng.randint(1, 10))
        lcs = _dp_lcs_length(cand, ref)
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


def _greedy_align_chunks(cand: list[str], ref: list[str]) -> tuple[int, int]:
    """Reference alignment: rescans every free matching start pair in (i, j)
    order for the longest free run, takes it, and repeats."""
    cand_free = [True] * len(cand)
    ref_free = [True] * len(ref)
    ref_positions: dict[str, list[int]] = {}
    for j, token in enumerate(ref):
        ref_positions.setdefault(token, []).append(j)
    chunks = 0
    matches = 0
    while True:
        best_len = 0
        best = None
        for i in range(len(cand)):
            if not cand_free[i]:
                continue
            for j in ref_positions.get(cand[i], ()):
                length = 0
                while (
                    i + length < len(cand)
                    and j + length < len(ref)
                    and cand_free[i + length]
                    and ref_free[j + length]
                    and cand[i + length] == ref[j + length]
                ):
                    length += 1
                if length > best_len:
                    best_len = length
                    best = (i, j)
        if best is None:
            return matches, chunks
        i, j = best
        for off in range(best_len):
            cand_free[i + off] = False
            ref_free[j + off] = False
        chunks += 1
        matches += best_len


def test_align_chunks_matches_all_pairs_oracle_on_random_tokens():
    rng = random.Random(31)
    for _ in range(400):
        vocab = [f"t{i}" for i in range(rng.randint(1, 8))]
        cand = rng.choices(vocab, k=rng.randint(0, 40))
        ref = rng.choices(vocab, k=rng.randint(0, 15))
        assert _align_chunks(cand, ref) == _greedy_align_chunks(cand, ref), (cand, ref)


def test_align_chunks_matches_all_pairs_oracle_on_adversarial_tokens():
    a, b, c = "a", "b", "c"
    cases = [
        ([], []), ([a], []), ([], [a]), ([a] * 30, [a] * 7), ([a] * 7, [a] * 30),
        ([a, b] * 12, [b, a] * 5), ([a, b, c], [c, b, a]), ([a, b, a, b, a], [b, a, b]),
        ([a, b, c, a, b, c, a], [c, a, b, c]), ([a, a, b, a, a, b], [a, b, a, a]),
        # equal-length runs at several starts: ties go leftmost in cand, then ref
        ([a, b, c, a, b], [c, a, b, a, b, c]), ([b, a, b, a], [a, b, a, b]),
        ([f"w{i % 9}" for i in range(100)], [f"w{(3 * i) % 9}" for i in range(7)]),
    ]
    for cand, ref in cases:
        assert _align_chunks(cand, ref) == _greedy_align_chunks(cand, ref), (cand, ref)
    assert _align_chunks([a, b, c], [c, b, a]) == (3, 3)
    assert _align_chunks([a] * 30, [a] * 7) == (7, 1)


# ---------------------------------------------------------------------------
# the bit-parallel LCS and the lazy-heap alignment against the quadratic forms
# ---------------------------------------------------------------------------

def _oracle_report(answer, reference, ranked_ids, gold_ids, k) -> MetricReport:
    """``score_example`` from the reference tokenizer, LCS and alignment, with
    each overlap metric counted on its own."""
    cand, ref = _per_character_tokenize(answer), _per_character_tokenize(reference)

    def f_measure(p, r):
        return 0.0 if p + r == 0.0 else 2.0 * p * r / (p + r)

    overlap = sum((Counter(cand) & Counter(ref)).values())
    p = r = f1 = rouge1 = rouge_l_ = meteor_ = 0.0
    bleu1 = overlap / len(cand) * math.exp(min(0.0, 1.0 - len(ref) / len(cand))) if cand else 0.0
    if cand and ref:
        p, r = overlap / len(cand), overlap / len(ref)
        f1 = f_measure(p, r)
        rouge1 = f_measure(overlap / len(cand), overlap / len(ref))
        lcs = _dp_lcs_length(cand, ref)
        rouge_l_ = f_measure(lcs / len(cand), lcs / len(ref))
        matches, chunks = _greedy_align_chunks(cand, ref)
        if matches:
            mp, mr = matches / len(cand), matches / len(ref)
            f_mean = mp * mr / (ALPHA * mp + (1.0 - ALPHA) * mr)
            meteor_ = f_mean * (1.0 - GAMMA * (chunks / matches) ** BETA)
    hit, mrr, recall_k, ndcg = retrieval_metrics(ranked_ids, gold_ids, k)
    return MetricReport(rouge1=rouge1, rougeL=rouge_l_, bleu1=bleu1, meteor=meteor_, precision=p,
                        recall=r, f1=f1, hit_at_k=hit, mrr_at_k=mrr, ndcg_at_k=ndcg,
                        recall_at_k=recall_k)


def test_lcs_and_alignment_match_the_quadratic_forms_on_dense_repeats():
    rng = random.Random(20)
    for _ in range(1000):
        vocab = [f"t{i}" for i in range(rng.randint(1, 5))]
        cand = rng.choices(vocab, k=rng.randint(0, 60))
        ref = rng.choices(vocab, k=rng.randint(0, 60))
        assert _lcs_length(cand, ref) == _dp_lcs_length(cand, ref), (cand, ref)
        assert _align_chunks(cand, ref) == _greedy_align_chunks(cand, ref), (cand, ref)


def test_lcs_and_alignment_match_the_quadratic_forms_on_long_pairs():
    rng = random.Random(21)
    for vocab_size in (8, 60, 400):
        vocab = [f"w{i}" for i in range(vocab_size)]
        cand, ref = rng.choices(vocab, k=1000), rng.choices(vocab, k=200)
        assert _lcs_length(cand, ref) == _dp_lcs_length(cand, ref), vocab_size
        assert _align_chunks(cand, ref) == _greedy_align_chunks(cand, ref), vocab_size
    # Long shared runs, cut by edits, as an answer quoting its reference has.
    ref = rng.choices([f"w{i}" for i in range(30)], k=200)
    cand = [t for t in ref * 5 if rng.random() > 0.05]
    assert _lcs_length(cand, ref) == _dp_lcs_length(cand, ref)
    assert _align_chunks(cand, ref) == _greedy_align_chunks(cand, ref)


def test_tokenize_matches_the_oracle_on_texts_with_and_without_cjk():
    rng = random.Random(22)
    latin = list("abcXYZ 09_,.-é\u00df\u0130") + ["  "]
    for pool in (latin, latin + list("北京アイ\u30a0\u30fb\uf900")):
        for _ in range(2000):
            text = "".join(rng.choices(pool, k=rng.randint(0, 40)))
            assert tokenize(text) == _per_character_tokenize(text), text


def test_score_example_equals_the_oracle_report_on_random_texts():
    rng = random.Random(23)
    vocab = ["the", "Cat", "sat", "mat", "北", "京", "x1", "on", ",", "a_b"]
    for _ in range(2000):
        answer = " ".join(rng.choices(vocab, k=rng.randint(0, 30)))
        reference = " ".join(rng.choices(vocab, k=rng.randint(0, 12)))
        args = (answer, reference, ["c1", "c2"], {"c2"}, 5)
        assert score_example(*args) == _oracle_report(*args), args


def test_score_example_equals_the_oracle_report_on_the_golden_rows(golden_world):
    """The answers the golden module's seed-41 rows get under every strategy."""
    for strategy, results in golden_world.results.items():
        cfg = PipelineConfig(stub=True, strategy=strategy)
        for row, result in zip(golden_world.rows, results, strict=True):
            args = (result.answer, row["reference"], result.ranked.ids(),
                    set(row["gold_chunks"]), cfg.k)
            assert score_example(*args) == _oracle_report(*args), (strategy, row["query"])


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


@pytest.mark.parametrize("call, message", [
    (lambda: retrieval_metrics(["a"], {"a"}, 0), r"^k must be >= 1, got 0$"),
    (lambda: aggregate_reports([]), r"^cannot aggregate an empty report list$"),
])
def test_metric_preconditions_raise_validation_error(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_format_report_table_alignment():
    table = format_report_table([("1", MetricReport()), ("mean", MetricReport())])
    lines = table.split("\n")
    assert lines[0].startswith("example")
    assert len(lines) == 3
    assert "rouge1" in lines[0]
