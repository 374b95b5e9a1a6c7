"""Text-overlap and retrieval metrics.

Tokenization is fixed and documented: lowercase, tokens are maximal
alphanumeric runs, and CJK characters are split into single-character
tokens (so Chinese text is scored per character). All metrics return
values in [0, 1].
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, fields

from .errors import ParseError
from .kg import read_jsonl

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)

_CJK_RANGES = (
    (0x3040, 0x30FF),    # hiragana, katakana
    (0x3400, 0x4DBF),    # CJK extension A
    (0x4E00, 0x9FFF),    # CJK unified
    (0xF900, 0xFAFF),    # CJK compatibility
)
# One CJK character, captured, so that splitting a run on it keeps it.
_CJK_RE = re.compile("([" + "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _CJK_RANGES) + "])")


def tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    for run in _WORD_RE.findall(text.lower()):
        if _CJK_RE.search(run) is None:
            tokens.append(run)
        else:
            tokens.extend(piece for piece in _CJK_RE.split(run) if piece)
    return tokens


def _f_measure(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def rouge_1(candidate: str, reference: str) -> float:
    """Unigram F1 with counts clipped per reference multiplicity."""
    return _rouge_1(tokenize(candidate), tokenize(reference))


def _rouge_1(cand: list[str], ref: list[str]) -> float:
    if not cand or not ref:
        return 0.0
    overlap = sum((Counter(cand) & Counter(ref)).values())
    return _f_measure(overlap / len(cand), overlap / len(ref))


def _lcs_length(a: list[str], b: list[str]) -> int:
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


def rouge_l(candidate: str, reference: str) -> float:
    """F1 over the longest common token subsequence."""
    return _rouge_l(tokenize(candidate), tokenize(reference))


def _rouge_l(cand: list[str], ref: list[str]) -> float:
    if not cand or not ref:
        return 0.0
    lcs = _lcs_length(cand, ref)
    return _f_measure(lcs / len(cand), lcs / len(ref))


def bleu_1(candidate: str, reference: str) -> float:
    """Clipped unigram precision times the brevity penalty."""
    return _bleu_1(tokenize(candidate), tokenize(reference))


def _bleu_1(cand: list[str], ref: list[str]) -> float:
    if not cand:
        return 0.0
    overlap = sum((Counter(cand) & Counter(ref)).values())
    precision = overlap / len(cand)
    brevity = math.exp(min(0.0, 1.0 - len(ref) / len(cand)))
    return precision * brevity


def _align_chunks(cand: list[str], ref: list[str]) -> tuple[int, int]:
    """(matches, chunks) for the exact-unigram alignment.

    Greedy: repeatedly take the longest common contiguous token run
    between the unmatched parts (leftmost in candidate, then reference,
    on ties), each run counting as one chunk; leftover tokens are then
    paired by type as single-token chunks. Total matches always equal
    the clipped-count maximum.
    """
    cand_free = [True] * len(cand)
    ref_free = [True] * len(ref)
    chunks = 0
    matches = 0
    while True:
        best_len = 0
        best = None
        for i in range(len(cand)):
            for j in range(len(ref)):
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
        if best is None or best_len == 0:
            break
        i, j = best
        for off in range(best_len):
            cand_free[i + off] = False
            ref_free[j + off] = False
        chunks += 1
        matches += best_len
    # Pair leftovers of the same type (covers crossing alignments the
    # contiguous pass cannot reach).
    leftover_ref = Counter(t for t, free in zip(ref, ref_free) if free)
    for i, token in enumerate(cand):
        if cand_free[i] and leftover_ref.get(token, 0) > 0:
            leftover_ref[token] -= 1
            cand_free[i] = False
            chunks += 1
            matches += 1
    return matches, chunks


def meteor(candidate: str, reference: str, alpha: float = 0.9, beta: float = 3.0,
           gamma: float = 0.5) -> float:
    """Exact-match unigram variant (no stemming or synonym resources)."""
    return _meteor(tokenize(candidate), tokenize(reference), alpha, beta, gamma)


def _meteor(cand: list[str], ref: list[str], alpha: float = 0.9, beta: float = 3.0,
            gamma: float = 0.5) -> float:
    if not cand or not ref:
        return 0.0
    matches, chunks = _align_chunks(cand, ref)
    if matches == 0:
        return 0.0
    precision = matches / len(cand)
    recall = matches / len(ref)
    f_mean = precision * recall / (alpha * precision + (1.0 - alpha) * recall)
    penalty = gamma * (chunks / matches) ** beta
    return f_mean * (1.0 - penalty)


def token_prf(candidate: str, reference: str) -> tuple[float, float, float]:
    """Token-multiset precision, recall, and F1."""
    return _token_prf(tokenize(candidate), tokenize(reference))


def _token_prf(cand: list[str], ref: list[str]) -> tuple[float, float, float]:
    if not cand or not ref:
        return (0.0, 0.0, 0.0)
    overlap = sum((Counter(cand) & Counter(ref)).values())
    precision = overlap / len(cand)
    recall = overlap / len(ref)
    return (precision, recall, _f_measure(precision, recall))


def retrieval_metrics(
    ranked_ids: list[str], gold_ids: set[str], k: int
) -> tuple[float, float, float, float]:
    """(hit@k, mrr@k, recall@k, ndcg@k) with binary relevance.

    nDCG uses the log2(rank+1) discount; the ideal ranking places all
    gold ids first. An empty gold set scores 0 across the board.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not gold_ids:
        return (0.0, 0.0, 0.0, 0.0)
    top = ranked_ids[:k]
    hit = 1.0 if any(cid in gold_ids for cid in top) else 0.0
    mrr = 0.0
    for rank, cid in enumerate(top, start=1):
        if cid in gold_ids:
            mrr = 1.0 / rank
            break
    found = len({cid for cid in top if cid in gold_ids})
    recall = found / len(gold_ids)
    dcg = sum(
        1.0 / math.log2(rank + 1)
        for rank, cid in enumerate(top, start=1)
        if cid in gold_ids
    )
    ideal = sum(1.0 / math.log2(rank + 1) for rank in range(1, min(len(gold_ids), k) + 1))
    ndcg = dcg / ideal if ideal > 0 else 0.0
    return (hit, mrr, recall, ndcg)


@dataclass
class MetricReport:
    rouge1: float = 0.0
    rougeL: float = 0.0
    bleu1: float = 0.0
    meteor: float = 0.0
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0
    hit_at_k: float = 0.0
    mrr_at_k: float = 0.0
    ndcg_at_k: float = 0.0
    recall_at_k: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def score_example(
    answer: str, reference: str, ranked_ids: list[str], gold_ids: set[str], k: int
) -> MetricReport:
    cand, ref = tokenize(answer), tokenize(reference)
    p, r, f1 = _token_prf(cand, ref)
    hit, mrr, recall_k, ndcg = retrieval_metrics(ranked_ids, gold_ids, k)
    return MetricReport(
        rouge1=_rouge_1(cand, ref),
        rougeL=_rouge_l(cand, ref),
        bleu1=_bleu_1(cand, ref),
        meteor=_meteor(cand, ref),
        precision=p,
        recall=r,
        f1=f1,
        hit_at_k=hit,
        mrr_at_k=mrr,
        ndcg_at_k=ndcg,
        recall_at_k=recall_k,
    )


def aggregate_reports(reports: list[MetricReport]) -> MetricReport:
    if not reports:
        raise ValueError("cannot aggregate an empty report list")
    n = len(reports)
    sums = {f.name: sum(getattr(r, f.name) for r in reports) for f in fields(MetricReport)}
    return MetricReport(**{name: total / n for name, total in sums.items()})


def format_report_table(rows: list[tuple[str, MetricReport]]) -> str:
    """Aligned plain-text table, one row per (label, report)."""
    names = [f.name for f in fields(MetricReport)]
    header = ["example"] + names
    body = [[label] + [f"{getattr(rep, n):.4f}" for n in names] for label, rep in rows]
    widths = [max(len(r[i]) for r in [header] + body) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in [header] + body
    ]
    return "\n".join(lines)


def load_eval_file(path: str) -> list[dict]:
    """Read line-delimited {"query", "reference", "gold_chunks"} rows."""
    rows = []
    for lineno, row in read_jsonl(path):
        if (
            not isinstance(row.get("query"), str)
            or not isinstance(row.get("reference"), str)
            or not isinstance(row.get("gold_chunks"), list)
        ):
            raise ParseError("expected {query, reference, gold_chunks} record", line=lineno)
        rows.append(row)
    return rows
