"""Select the best-scored subgraph and fold in relevant triples from the rest.

The winning subgraph is never filtered, only augmented. Under the
default ``rm_fusion`` strategy the admission threshold for triples from
the two lower-scoring subgraphs is the cosine between the winning
subgraph's serialization and the query (overridable with a fixed tau);
``all_fusion`` admits everything and ``top5_fusion`` admits the five
most query-similar triples per subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ThresholdError, UndefinedSimilarityError, ValidationError
from .kg import Triple
from .reward import Embedder
from .subgraphs import FUSED, MULTIHOP, ONEHOP, PAGERANK, Subgraph
from .vectors import cosine_from_norms, normed

RM_FUSION = "rm_fusion"
ALL_FUSION = "all_fusion"
TOP5_FUSION = "top5_fusion"
STRATEGIES = (RM_FUSION, ALL_FUSION, TOP5_FUSION)

_KIND_PRIORITY = {ONEHOP: 0, MULTIHOP: 1, PAGERANK: 2}


@dataclass
class ScoredSubgraph:
    subgraph: Subgraph
    score: float


@dataclass(frozen=True)
class FusionConfig:
    strategy: str = RM_FUSION
    tau: float | None = None  # a fixed rm_fusion threshold; None derives it per subgraph set

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValidationError(f"unknown fusion strategy {self.strategy!r}")
        if self.tau is not None and not -1.0 <= self.tau <= 1.0:
            raise ValidationError(f"tau must be in [-1, 1], got {self.tau}")


@dataclass
class FusionResult:
    fused: Subgraph
    base_kind: str
    threshold_used: float
    selected: list[Triple]


def select_max(scored: list[ScoredSubgraph]) -> ScoredSubgraph:
    """Highest-scored of the three subgraphs; ties favor onehop, then multihop."""
    kinds = sorted(s.subgraph.path_kind for s in scored)
    if kinds != sorted(_KIND_PRIORITY):
        raise ValidationError(
            f"expected exactly one subgraph per kind {sorted(_KIND_PRIORITY)}, got {kinds}"
        )
    return min(scored, key=lambda s: (-s.score, _KIND_PRIORITY[s.subgraph.path_kind]))


def compute_threshold(max_subgraph: Subgraph, q_vec: np.ndarray, embedder: Embedder) -> float:
    """Cosine between the winning subgraph's serialization and the query."""
    try:
        return similarity(max_subgraph.serialized, normed(q_vec), embedder)
    except UndefinedSimilarityError as exc:
        raise ThresholdError(f"cannot derive threshold: {exc}") from exc


def similarity(text: str, q: tuple[np.ndarray, np.float64], embedder: Embedder) -> float:
    """``cosine`` between the embedding of ``text`` and the ``normed`` query
    vector ``q``. An embedder that keeps its texts' norms
    (``pipeline.QueryEmbeddings``) hands over its stored pair through
    ``normed``; any other is called and its reply normed here."""
    stored = getattr(embedder, "normed", None)
    return cosine_from_norms(*(stored(text) if stored else normed(embedder(text))), *q)


def fuse(
    scored: list[ScoredSubgraph],
    q_vec: np.ndarray,
    cfg: FusionConfig,
    embedder: Embedder,
) -> FusionResult:
    """Merge the three scored subgraphs according to ``cfg.strategy``.

    The result always contains every triple of the winning subgraph. Query
    similarity is computed once per triple key, for the triples of the two
    lower-scored subgraphs under ``rm_fusion`` and of all three under
    ``top5_fusion``. ``threshold_used`` is -1.0 for the strategies that do
    not gate on similarity, which keeps the "selected triples pass the
    threshold" invariant trivially valid.
    """
    base = select_max(scored)
    others = [s.subgraph for s in scored if s.subgraph is not base.subgraph]
    threshold = -1.0
    if cfg.strategy == TOP5_FUSION:
        sims = _similarities(_dedup(t for s in scored for t in s.subgraph.triples), q_vec, embedder)
        ranked = (sorted(_dedup(sg.triples), key=lambda t: (-sims[t.key], t.key))[:5]
                  for sg in [base.subgraph, *others])
        selected = _dedup(t for top in ranked for t in top)
    else:
        selected = sorted(_dedup(t for sg in others for t in sg.triples), key=Triple.key.fget)
        if cfg.strategy == RM_FUSION:
            threshold = cfg.tau
            if threshold is None:
                threshold = compute_threshold(base.subgraph, q_vec, embedder)
            sims = _similarities(selected, q_vec, embedder)
            selected = [t for t in selected if sims[t.key] >= threshold]

    return FusionResult(
        fused=fused_subgraph(base.subgraph.center, [*base.subgraph.triples, *selected]),
        base_kind=base.subgraph.path_kind,
        threshold_used=threshold,
        selected=selected,
    )


def fused_subgraph(center: str, triples, members=()) -> Subgraph:
    """A fused subgraph around ``center``: ``triples`` deduplicated by key
    (the first wins) in key order; its members are the centre, ``members``
    and every triple endpoint."""
    kept = _dedup(triples)  # ``Subgraph`` sorts them
    return Subgraph(
        center=center,
        triples=kept,
        members={center, *members, *(t.head for t in kept), *(t.tail for t in kept)},
        path_kind=FUSED,
    )


def _similarities(triples, q_vec: np.ndarray, embedder: Embedder) -> dict[tuple, float]:
    """Each triple key's ``similarity`` to the query; the query vector is
    normed only when there is a triple to score."""
    q = normed(q_vec) if triples else None
    return {t.key: similarity(t.text(), q, embedder) for t in triples}


def _dedup(triples) -> list[Triple]:
    """``triples`` less each one whose key an earlier one holds."""
    seen: dict[tuple, Triple] = {}
    for t in triples:
        seen.setdefault(t.key, t)
    return list(seen.values())
