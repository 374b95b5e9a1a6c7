"""Text-overlap and retrieval metrics.

Tokenization is fixed and documented: lowercase, tokens are maximal
alphanumeric runs, and CJK characters are split into single-character
tokens (so Chinese text is scored per character). All metrics return
values in [0, 1].

A row scores exactly, in about linear time in the answer's length:
ROUGE-L's LCS is bit-parallel (Hyyrö 2004) and METEOR's longest-run-first
alignment (Banerjee & Lavie 2005) runs off a lazy max-heap.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter
from collections.abc import Container
from dataclasses import dataclass, fields

from .errors import ParseError, ValidationError
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
    lowered = text.lower()
    # Text without a CJK character has none in any run: its runs are its tokens.
    if _CJK_RE.search(lowered) is None:
        return _WORD_RE.findall(lowered)
    tokens: list[str] = []
    for run in _WORD_RE.findall(lowered):
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
    """Unigram F1 with counts clipped per reference multiplicity: token F1."""
    return token_prf(candidate, reference)[2]


def _lcs_length(a: list[str], b: list[str]) -> int:
    """LCS length, bit-parallel (Hyyrö): a zero bit j of ``v`` marks a step of
    the DP row at b[j]. Carries above bit len(b) never reach the lower
    bits, so one mask at the end is enough."""
    masks: dict[str, int] = {}
    for j, token in enumerate(b):
        masks[token] = masks.get(token, 0) | (1 << j)
    full = v = (1 << len(b)) - 1
    for mask in filter(None, map(masks.get, a)):  # a token not in b leaves v as it is
        u = v & mask
        v = (v + u) | (v - u)
    return len(b) - (v & full).bit_count()


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
    cand, ref = tokenize(candidate), tokenize(reference)
    return _token_prf(cand, ref)[0] * _brevity(cand, ref)


def _brevity(cand: list[str], ref: list[str]) -> float:
    """BLEU's brevity penalty; 0.0 for an empty candidate, whose BLEU is 0."""
    if not cand:
        return 0.0
    return math.exp(min(0.0, 1.0 - len(ref) / len(cand)))


def _align_chunks(cand: list[str], ref: list[str]) -> tuple[int, int]:
    """(matches, chunks) for the exact-unigram alignment.

    Greedy: repeatedly take the longest common contiguous token run
    between the unmatched parts (leftmost in candidate, then reference,
    on ties), each run counting as one chunk, until no unmatched token
    pair agrees. Total matches always equal the clipped-count maximum.

    A lazy max-heap holds each agreeing start pair (i, j) by (-run, i, j).
    Runs only shrink as tokens are taken, so a stored run bounds the current
    one: the top entry, rechecked over free tokens, is taken when its run
    still holds (no pair can then beat it or tie it with a smaller (i, j))
    and goes back at its new length otherwise.
    """
    ref_positions: dict[str, list[int]] = {}
    for j, token in enumerate(ref):
        ref_positions.setdefault(token, []).append(j)
    # Pair (i, j) is keyed i * width + j, in (i, j) order; column len(ref)
    # stays unused, so (i + 1, j + 1) is always key + width + 1.
    width = len(ref) + 1
    starts = [i * width + j for i, token in enumerate(cand) for j in ref_positions.get(token, ())]
    runs: dict[int, int] = {}
    for key in reversed(starts):
        runs[key] = runs.get(key + width + 1, 0) + 1
    heap = [(-length, key) for key, length in runs.items()]
    heapq.heapify(heap)
    cand_free = [True] * len(cand)
    ref_free = [True] * len(ref)
    matches = chunks = 0
    while heap:
        stored, key = heap[0]
        stored = -stored
        i, j = divmod(key, width)
        # The stored run's tokens agree, so only a taken token can end it.
        length = 0
        while length < stored and cand_free[i + length] and ref_free[j + length]:
            length += 1
        if length == stored:
            heapq.heappop(heap)
            cand_free[i : i + length] = [False] * length
            ref_free[j : j + length] = [False] * length
            chunks += 1
            matches += length
        elif length:
            heapq.heapreplace(heap, (-length, key))
        else:
            heapq.heappop(heap)
    return matches, chunks


# METEOR's F-mean weight and its fragmentation penalty's exponent and scale.
ALPHA, BETA, GAMMA = 0.9, 3.0, 0.5


def meteor(candidate: str, reference: str) -> float:
    """Exact-match unigram METEOR at ALPHA, BETA, GAMMA (no stemming or synonyms)."""
    return _meteor(tokenize(candidate), tokenize(reference))


def _meteor(cand: list[str], ref: list[str]) -> float:
    if not cand or not ref:
        return 0.0
    matches, chunks = _align_chunks(cand, ref)
    if matches == 0:
        return 0.0
    precision = matches / len(cand)
    recall = matches / len(ref)
    f_mean = precision * recall / (ALPHA * precision + (1.0 - ALPHA) * recall)
    penalty = GAMMA * (chunks / matches) ** BETA
    return f_mean * (1.0 - penalty)


def token_prf(candidate: str, reference: str) -> tuple[float, float, float]:
    """Token-multiset precision, recall, and F1."""
    return _token_prf(tokenize(candidate), tokenize(reference))


def _token_prf(cand: list[str], ref: list[str]) -> tuple[float, float, float]:
    if not cand or not ref:
        return (0.0, 0.0, 0.0)
    # & loops over its left side: the reference is usually the shorter.
    overlap = sum((Counter(ref) & Counter(cand)).values())
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
        raise ValidationError(f"k must be >= 1, got {k}")
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
    """Every metric of one eval row. One unigram overlap gives precision,
    recall and F1, so rouge1 (token F1 by definition) and bleu1 (precision
    times the brevity penalty) reuse it."""
    cand, ref = tokenize(answer), tokenize(reference)
    p, r, f1 = _token_prf(cand, ref)
    hit, mrr, recall_k, ndcg = retrieval_metrics(ranked_ids, gold_ids, k)
    return MetricReport(
        rouge1=f1,
        rougeL=_rouge_l(cand, ref),
        bleu1=p * _brevity(cand, ref),
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
        raise ValidationError("cannot aggregate an empty report list")
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


def load_eval_file(path: str, chunk_ids: Container[str]) -> list[dict]:
    """Read line-delimited {"query", "reference", "gold_chunks"} rows, every
    gold chunk id one of ``chunk_ids`` (the corpus's)."""
    rows = []
    for lineno, row in read_jsonl(path):
        if (
            not isinstance(row.get("query"), str)
            or not isinstance(row.get("reference"), str)
            or not isinstance(row.get("gold_chunks"), list)
        ):
            raise ParseError("expected {query, reference, gold_chunks} record", line=lineno)
        if not row["query"].strip():
            raise ParseError("query must be non-empty", line=lineno)
        if not all(isinstance(g, str) for g in row["gold_chunks"]):
            raise ParseError("gold_chunks must hold chunk id strings", line=lineno)
        if unknown := [g for g in row["gold_chunks"] if g not in chunk_ids]:
            raise ParseError(f"gold chunk {unknown[0]!r} is not in the corpus", line=lineno)
        rows.append(row)
    return rows
