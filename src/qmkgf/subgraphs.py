"""Candidate subgraph construction around a mapped query entity.

Three paths are built per entity: the one-hop neighborhood filtered by
similarity, a two-hop expansion through the two strongest neighbors, and
an importance-based neighborhood ranked by personalized PageRank.
Neighborhoods ignore edge direction (recall matters more than edge
orientation here); PageRank itself follows edge direction and weights.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import NotFoundError, ValidationError
from .kg import KnowledgeGraph, Triple
from .vectors import as_vector, cosine_from_norms, smallest_first, vector_norm

SimilarityProvider = Callable[[str, str], float]

ONEHOP = "onehop"
MULTIHOP = "multihop"
PAGERANK = "pagerank"
FUSED = "fused"
PATH_KINDS = (ONEHOP, MULTIHOP, PAGERANK, FUSED)


@dataclass
class Subgraph:
    center: str
    triples: list[Triple]
    members: set[str]
    path_kind: str
    node_scores: Mapping[str, float] | None = None

    def validate(self) -> None:
        """Check structural invariants; raises ValidationError on breach."""
        if self.path_kind not in PATH_KINDS:
            raise ValidationError(f"unknown path_kind {self.path_kind!r}")
        if self.center not in self.members:
            raise ValidationError("center must be a member")
        for t in self.triples:
            if t.head not in self.members or t.tail not in self.members:
                raise ValidationError(f"triple endpoint outside members: {t.key}")
        # Membership of pagerank/fused subgraphs is score- or
        # threshold-based, so connectivity to the center is not required.
        if self.path_kind in (ONEHOP, MULTIHOP):
            reachable = {self.center}
            frontier = [self.center]
            adjacency: dict[str, set[str]] = {}
            for t in self.triples:
                adjacency.setdefault(t.head, set()).add(t.tail)
                adjacency.setdefault(t.tail, set()).add(t.head)
            while frontier:
                node = frontier.pop()
                for nxt in adjacency.get(node, ()):
                    if nxt not in reachable:
                        reachable.add(nxt)
                        frontier.append(nxt)
            if reachable != self.members:
                raise ValidationError("members not reachable from center")

    def entity_names(self) -> list[str]:
        return sorted(self.members)

    def relation_labels(self) -> list[str]:
        return sorted({t.relation for t in self.triples})

    def sorted_triples(self) -> list[Triple]:
        return sorted(self.triples, key=lambda t: t.key)


@dataclass
class PageRankConfig:
    damping: float = 0.85
    max_iters: int = 100
    tolerance: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.damping < 1.0:
            raise ValidationError(f"damping must be in (0, 1), got {self.damping}")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if not self.tolerance > 0:
            raise ValidationError("tolerance must be > 0")


class PageRankScores(Mapping):
    """Read-only id -> score view over the converged score array.

    Iterates over the ids in ascending order; ``array`` holds the scores
    by position in that order.
    """

    __slots__ = ("_ids", "_pos", "array")

    def __init__(self, ids: list[str], pos: dict[str, int], array: np.ndarray) -> None:
        self._ids = ids
        self._pos = pos
        array.flags.writeable = False
        self.array = array

    def __getitem__(self, entity: str) -> float:
        return float(self.array[self._pos[entity]])

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


@dataclass
class PageRankResult:
    scores: PageRankScores
    converged: bool
    iterations: int


def ranked_neighbors(
    g: KnowledgeGraph, center: str, sim: SimilarityProvider
) -> list[str]:
    """Distinct neighbors of center (both directions, self excluded),
    sorted by similarity to center descending, ties by id."""
    ids = {n for n, _ in g.neighbors(center, "both") if n != center}
    return sorted(ids, key=lambda e: (-sim(center, e), e))


def one_hop_subgraph(
    g: KnowledgeGraph, center: str, k: int, sim: SimilarityProvider,
    ranked: list[str] | None = None,
) -> Subgraph:
    """Center plus its top-k most similar immediate neighbors.

    ``ranked`` is ``ranked_neighbors(g, center, sim)`` when the caller
    already has it.
    """
    if center not in g:
        raise NotFoundError(f"unknown entity: {center!r}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if ranked is None:
        ranked = ranked_neighbors(g, center, sim)
    chosen = ranked[:k]
    # The center's triples to a chosen neighbour are the path triples.
    leaves = set(chosen)
    triples = {t for n, t in g.neighbors(center, "both") if n in leaves}
    sg = Subgraph(
        center=center,
        triples=sorted(triples, key=lambda t: t.key),
        members={center, *chosen},
        path_kind=ONEHOP,
    )
    sg.validate()
    return sg


def multi_hop_subgraph(
    g: KnowledgeGraph, center: str, k: int, sim: SimilarityProvider,
    ranked: list[str] | None = None,
) -> Subgraph:
    """Two-hop expansion through the two neighbors most similar to center.

    Second-hop candidates are the bridges' neighbors (minus the center
    and the bridges); the top-k of those by similarity to the center
    are kept. Included triples are exactly the ones lying on a
    center-bridge-leaf path, at both hop levels. A center with a single
    neighbor expands through that one bridge; an isolated center yields
    the degenerate single-node subgraph. ``ranked`` is as for
    ``one_hop_subgraph``.
    """
    if center not in g:
        raise NotFoundError(f"unknown entity: {center!r}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if ranked is None:
        ranked = ranked_neighbors(g, center, sim)
    bridges = ranked[:2]
    if not bridges:
        return Subgraph(center=center, triples=[], members={center}, path_kind=MULTIHOP)

    adjacent = [g.neighbors(bridge, "both") for bridge in bridges]
    candidates = {n for pairs in adjacent for n, _ in pairs} - {center, *bridges}
    second_hop = sorted(candidates, key=lambda e: (-sim(center, e), e))[:k]

    # A bridge's triples to the center or to a chosen leaf are the path triples.
    ends = {center, *second_hop}
    triples = {t for pairs in adjacent for n, t in pairs if n in ends}
    sg = Subgraph(
        center=center,
        triples=sorted(triples, key=lambda t: t.key),
        members={center, *bridges, *second_hop},
        path_kind=MULTIHOP,
    )
    sg.validate()
    return sg


def personalization_vector(center: str) -> dict[str, float]:
    """All teleport mass on the query entity."""
    return {center: 1.0}


def personalized_pagerank(
    g: KnowledgeGraph, p: dict[str, float], cfg: PageRankConfig | None = None
) -> PageRankResult:
    """Iterate S(v) <- (1-d) p(v) + d * sum_u_in w_uv / W_u * S(u).

    Out-edge weights are normalized per source node; rank mass of
    dangling nodes is redistributed according to p, which keeps the
    scores a probability distribution on every iteration. Stops when the
    L1 change drops below the tolerance; otherwise returns the last
    iterate flagged as non-converged.
    """
    cfg = cfg or PageRankConfig()
    if len(g.entities) == 0:
        raise ValidationError("graph must be non-empty")
    ids, pos, src, dst, norm_w, dangling = g.compiled()
    n = len(ids)

    pvec = np.zeros(n)
    for entity, mass in p.items():
        if entity not in pos:
            raise ValidationError(f"personalization entity {entity!r} not in graph")
        if not mass >= 0:
            raise ValidationError("personalization entries must be >= 0")
        pvec[pos[entity]] = mass
    if abs(pvec.sum() - 1.0) > 1e-9:
        raise ValidationError("personalization vector must sum to 1")

    # Off the support of p the update (1-d)*0 + d*(x + m*0) is exactly
    # d*x (x >= 0 and finite), so only the support takes the full formula.
    d = cfg.damping
    support = np.flatnonzero(pvec)
    p_support = pvec[support]
    teleport = (1.0 - d) * p_support
    dangling_nodes = np.flatnonzero(dangling)
    scores = pvec.copy()
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        incoming = np.bincount(dst, weights=scores[src] * norm_w, minlength=n)
        dangling_mass = float(scores[dangling_nodes].sum())
        # Not in place: an edgeless graph's bincount is int64 zeros.
        new_scores = d * incoming
        new_scores[support] = teleport + d * (incoming[support] + dangling_mass * p_support)
        delta = float(np.abs(new_scores - scores).sum())
        scores = new_scores
        if delta < cfg.tolerance:
            converged = True
            break
    return PageRankResult(
        scores=PageRankScores(ids, pos, scores),
        converged=converged,
        iterations=iterations,
    )


def pagerank_subgraph(
    g: KnowledgeGraph, center: str, k: int, cfg: PageRankConfig | None = None
) -> Subgraph:
    """Center plus the k highest-ranked entities, with all triples among them."""
    if center not in g:
        raise NotFoundError(f"unknown entity: {center!r}")
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    result = personalized_pagerank(g, personalization_vector(center), cfg)
    ids, pos, *_ = g.compiled()
    ranks = -result.scores.array
    ranks[pos[center]] = np.inf
    members = {center, *(ids[i] for i in smallest_first(ranks, min(k, len(ids) - 1)))}
    triples = [g.triples[i] for m in members for i in g.out_adj[m] if g.triples[i].tail in members]
    sg = Subgraph(
        center=center,
        triples=sorted(set(triples), key=lambda t: t.key),
        members=members,
        path_kind=PAGERANK,
        node_scores=result.scores,
    )
    sg.validate()
    return sg


def dump_subgraph(sg: Subgraph) -> str:
    """Debug dump: one header line, then one triple per line (JSON)."""
    header: dict = {
        "center": sg.center,
        "path_kind": sg.path_kind,
        "members": sorted(sg.members),
    }
    if sg.node_scores is not None:
        header["scores"] = {e: sg.node_scores[e] for e in sorted(sg.node_scores)}
    lines = [json.dumps(header, sort_keys=True)]
    for t in sg.sorted_triples():
        row: dict = {"head": t.head, "relation": t.relation, "tail": t.tail, "weight": t.weight}
        if t.source_chunk is not None:
            row["source_chunk"] = t.source_chunk
        lines.append(json.dumps(row, sort_keys=True))
    return "\n".join(lines) + "\n"


def similarity_from_index(index, embed: Callable[[str], np.ndarray]) -> SimilarityProvider:
    """Similarity provider backed by an entity VectorIndex.

    Entities missing from the index are embedded from their id text on
    the fly, so freshly added nodes still score. Each entity's vector
    (validated by ``VectorIndex.add`` or here) and its norm are computed
    once per provider.
    """
    memo: dict[str, tuple[np.ndarray, np.float64]] = {}

    def normed(e: str) -> tuple[np.ndarray, np.float64]:
        hit = memo.get(e)
        if hit is None:
            v = index.entries[e] if e in index else as_vector(embed(e))
            hit = memo[e] = (v, vector_norm(v))
        return hit

    def sim(a: str, b: str) -> float:
        return cosine_from_norms(*normed(a), *normed(b))

    return sim
