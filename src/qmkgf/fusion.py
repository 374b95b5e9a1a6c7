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
from .reward import Embedder, serialize_subgraph
from .subgraphs import FUSED, MULTIHOP, ONEHOP, PAGERANK, Subgraph
from .vectors import cosine

RM_FUSION = "rm_fusion"
ALL_FUSION = "all_fusion"
TOP5_FUSION = "top5_fusion"
STRATEGIES = (RM_FUSION, ALL_FUSION, TOP5_FUSION)

_KIND_PRIORITY = {ONEHOP: 0, MULTIHOP: 1, PAGERANK: 2}


@dataclass
class ScoredSubgraph:
    subgraph: Subgraph
    score: float


@dataclass
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
    kgs_vec = np.asarray(embedder(serialize_subgraph(max_subgraph)), dtype=np.float64)
    try:
        return cosine(kgs_vec, q_vec)
    except UndefinedSimilarityError as exc:
        raise ThresholdError(f"cannot derive threshold: {exc}") from exc


def triple_similarity(t: Triple, q_vec: np.ndarray, embedder: Embedder) -> float:
    """Cosine between the triple's "head relation tail" text and the query."""
    return cosine(np.asarray(embedder(t.text()), dtype=np.float64), q_vec)


def triples_to_score(scored: list[ScoredSubgraph], strategy: str) -> list[Triple]:
    """The triples, deduplicated by key, whose query similarity ``fuse``
    computes under ``strategy``: those of the two lower-scored subgraphs for
    ``rm_fusion``, of all three for ``top5_fusion``, none for ``all_fusion``."""
    if strategy == ALL_FUSION:
        return []
    base = select_max(scored)
    parts = [s.subgraph for s in scored if strategy == TOP5_FUSION or s is not base]
    return _dedup(t for sg in parts for t in sg.triples)


def fuse(
    scored: list[ScoredSubgraph],
    q_vec: np.ndarray,
    cfg: FusionConfig,
    embedder: Embedder,
) -> FusionResult:
    """Merge the three scored subgraphs according to ``cfg.strategy``.

    The result always contains every triple of the winning subgraph.
    ``threshold_used`` is -1.0 for the strategies that do not gate on
    similarity, which keeps the "selected triples pass the threshold"
    invariant trivially valid.
    """
    base = select_max(scored)
    others = [s.subgraph for s in scored if s.subgraph is not base.subgraph]
    base_triples = {t.key: t for t in base.subgraph.triples}
    threshold = -1.0
    if cfg.strategy == RM_FUSION:
        threshold = cfg.tau
        if threshold is None:
            threshold = compute_threshold(base.subgraph, q_vec, embedder)
    to_score = triples_to_score(scored, cfg.strategy)
    sims = {t.key: triple_similarity(t, q_vec, embedder) for t in to_score}

    if cfg.strategy == ALL_FUSION:
        selected = _dedup(t for sg in others for t in sg.triples)
    elif cfg.strategy == TOP5_FUSION:
        selected = []
        seen = set()
        for sg in [base.subgraph, *others]:
            ranked = sorted(_dedup(sg.triples), key=lambda t: (-sims[t.key], t.key))
            for t in ranked[:5]:
                if t.key not in seen:
                    seen.add(t.key)
                    selected.append(t)
    else:  # RM_FUSION
        selected = [t for t in to_score if sims[t.key] >= threshold]

    merged = dict(base_triples)
    for t in selected:
        merged.setdefault(t.key, t)
    triples = [merged[k] for k in sorted(merged)]
    members = {base.subgraph.center}
    for t in triples:
        members.add(t.head)
        members.add(t.tail)
    fused = Subgraph(
        center=base.subgraph.center,
        triples=triples,
        members=members,
        path_kind=FUSED,
    )
    fused.validate()
    return FusionResult(
        fused=fused,
        base_kind=base.subgraph.path_kind,
        threshold_used=threshold,
        selected=selected,
    )


def _dedup(triples) -> list[Triple]:
    seen: dict[tuple, Triple] = {}
    for t in triples:
        seen.setdefault(t.key, t)
    return [seen[k] for k in sorted(seen)]
