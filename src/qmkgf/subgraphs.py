"""Candidate subgraph construction around a mapped query entity.

Three paths are built per entity: the one-hop neighborhood filtered by
similarity, a two-hop expansion through the two strongest neighbors, and
an importance-based neighborhood ranked by PageRank personalized on the
entity alone. Neighborhoods ignore edge direction (recall matters more
than edge orientation here); PageRank follows edge direction and weights.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotFoundError, ValidationError
from .kg import JSON_ENCODER, KnowledgeGraph, Triple
from .vectors import cosine_from_norms, smallest_first, vector_norm

SimilarityProvider = Callable[[str, str], float]

ONEHOP = "onehop"
MULTIHOP = "multihop"
PAGERANK = "pagerank"
FUSED = "fused"
PATH_KINDS = (ONEHOP, MULTIHOP, PAGERANK, FUSED)


@dataclass
class Subgraph:
    """A centre, its members and their triples, held in key order."""

    center: str
    triples: list[Triple]
    members: set[str]
    path_kind: str

    def __post_init__(self) -> None:
        self.triples = sorted(self.triples, key=Triple.key.fget)

    @cached_property
    def serialized(self) -> str:
        """Each triple's "h r t" in key order, joined by "; "; built on first use,
        so the triples must not change after it."""
        return "; ".join(t.text() for t in self.triples)

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


@dataclass(frozen=True)
class PageRankConfig:
    damping: float = 0.85
    max_iters: int = 100
    tolerance: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.damping < 1.0:
            raise ValidationError(f"damping must be in (0, 1), got {self.damping}")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if not 0.0 < self.tolerance < math.inf:
            raise ValidationError(f"tolerance must be finite and > 0, got {self.tolerance!r}")


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
    out_ids = {g.triples[i].tail for i in g.out_adj.get(center, ())}
    ids = out_ids.union(g.triples[i].head for i in g.in_adj.get(center, ())) - {center}
    return sorted(ids, key=lambda e: (-sim(center, e), e))


def _checked_ranking(g: KnowledgeGraph, center: str, k: int, sim, ranked) -> list[str]:
    """The builders' prologue: check ``center`` and ``k``, then ``ranked`` or its default."""
    if center not in g:
        raise NotFoundError(f"unknown entity: {center!r}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return ranked_neighbors(g, center, sim) if ranked is None else ranked


def one_hop_subgraph(
    g: KnowledgeGraph, center: str, k: int, sim: SimilarityProvider,
    ranked: list[str] | None = None,
) -> Subgraph:
    """Center plus its top-k most similar immediate neighbors.

    ``ranked`` is ``ranked_neighbors(g, center, sim)`` when the caller
    already has it.
    """
    ranked = _checked_ranking(g, center, k, sim, ranked)
    chosen = ranked[:k]
    # The center's triples to a chosen neighbour are the path triples.
    leaves = set(chosen)
    triples = {t for n, t in g.neighbors(center) if n in leaves}
    sg = Subgraph(
        center=center,
        triples=triples,
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
    ranked = _checked_ranking(g, center, k, sim, ranked)
    bridges = ranked[:2]
    if not bridges:
        return Subgraph(center=center, triples=[], members={center}, path_kind=MULTIHOP)

    adjacent = [g.neighbors(bridge) for bridge in bridges]
    candidates = {n for pairs in adjacent for n, _ in pairs} - {center, *bridges}
    second_hop = sorted(candidates, key=lambda e: (-sim(center, e), e))[:k]

    # A bridge's triples to the center or to a chosen leaf are the path triples.
    ends = {center, *second_hop}
    triples = {t for pairs in adjacent for n, t in pairs if n in ends}
    sg = Subgraph(
        center=center,
        triples=triples,
        members={center, *bridges, *second_hop},
        path_kind=MULTIHOP,
    )
    sg.validate()
    return sg


def personalized_pagerank(
    g: KnowledgeGraph, center: str, cfg: PageRankConfig | None = None,
    top: int | None = None,
) -> PageRankResult:
    """Iterate S(v) <- (1-d) [v = center] + d * sum_u_in w_uv / W_u * S(u).

    Out-edge weights are normalized per source node; teleport mass and the
    rank mass of dangling nodes go to ``center`` (NotFoundError if unknown),
    which keeps the scores a probability distribution on every iteration.
    Stops when the L1 change drops below the tolerance; otherwise returns
    the last iterate flagged as non-converged.

    With ``top`` in (0, entities other than the centre), it also stops once
    the ``top`` highest-scored of those entities are certain: when the
    ``top``-th and next score are more than ``delta * d / (1 - d)`` plus a
    rounding bound apart (the map is an L1 contraction by d, so that bounds
    a member's fall plus a non-member's rise over every later iterate), or
    when the next score is 0 and no entity gained mass since the last check.
    It returns that iterate, ``converged=True`` (top set final) and the iterations run.
    """
    cfg = cfg or PageRankConfig()
    if center not in g:
        raise NotFoundError(f"unknown entity: {center!r}")
    ids, pos, src, dst, norm_w, dangling = g.compiled()
    n = len(ids)
    c = pos[center]

    # Off the centre the update (1-d)*0 + d*(x + m*0) is exactly d*x
    # (x >= 0 and finite), so only the centre takes the full formula.
    d = cfg.damping
    dangling_nodes = np.flatnonzero(dangling)
    slack = 2 * cfg.max_iters * (len(src) + n) * np.finfo(float).eps / (1.0 - d)
    next_check = math.inf  # checking every iteration costs about what it saves
    reached = -1  # nonzero scores at the last check, counted while the next score is 0
    scores = np.zeros(n)
    scores[c] = 1.0
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        flow = scores[src]
        flow *= norm_w
        # astype: an edgeless graph's bincount is int64 zeros.
        new_scores = np.bincount(dst, weights=flow, minlength=n).astype(float, copy=False)
        dangling_mass = float(scores[dangling_nodes].sum())
        incoming = new_scores[c]
        new_scores *= d
        new_scores[c] = (1.0 - d) + d * (incoming + dangling_mass)
        diff = new_scores - scores
        delta = float(np.abs(diff, out=diff).sum())
        scores = new_scores
        if delta < cfg.tolerance:
            converged = True
            break
        radius = delta * d / (1.0 - d) + slack
        if 0 < (top or 0) < n - 1 and radius <= next_check:
            ranked = scores.copy()
            ranked[c] = -np.inf  # below every other score, so never picked
            ranked.partition(n - top - 1)
            gap = ranked[n - top:].min() - ranked[n - top - 1]
            # The nonzero set only grows, so if its size holds every zero stays zero.
            closed = ranked[n - top - 1] == 0 and reached == (reached := np.count_nonzero(scores))
            if gap > radius or closed:  # strict: no tie can straddle the boundary
                converged = True
                break
            next_check = max(gap, radius / 4)
    return PageRankResult(
        scores=PageRankScores(ids, pos, scores),
        converged=converged,
        iterations=iterations,
    )


def pagerank_subgraph(
    g: KnowledgeGraph, center: str, k: int, cfg: PageRankConfig | None = None
) -> Subgraph:
    """Center plus the k highest-ranked entities (ties to the smaller id),
    with all triples among them. PageRank stops once those k are certain."""
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    result = personalized_pagerank(g, center, cfg, top=k)
    ids, pos, *_ = g.compiled()
    ranks = -result.scores.array
    ranks[pos[center]] = np.inf
    members = {center, *(ids[i] for i in smallest_first(ranks, min(k, len(ids) - 1)))}
    triples = {g.triples[i] for m in members for i in g.out_adj[m] if g.triples[i].tail in members}
    sg = Subgraph(
        center=center,
        triples=triples,
        members=members,
        path_kind=PAGERANK,
    )
    sg.validate()
    return sg


def dump_subgraph(sg: Subgraph, scores: Mapping[str, float] | None = None) -> str:
    """Debug dump: one header line, then one triple per line (JSON). The
    header carries ``scores``, such as a PageRank result's, when given."""
    header: dict = {
        "center": sg.center,
        "path_kind": sg.path_kind,
        "members": sorted(sg.members),
    }
    if scores is not None:
        header["scores"] = {e: scores[e] for e in sorted(scores)}
    lines = [JSON_ENCODER.encode(header)]
    lines += [t.json_line() for t in sg.triples]
    return "\n".join(lines) + "\n"


def similarity_from_index(index) -> SimilarityProvider:
    """Cosine of two entities' vectors in an entity VectorIndex, the only
    source of entity vectors. An entity the index lacks raises
    ValidationError naming it on every use. Building the provider calls
    ``index.frozen()``, which raises for a zero or overflowing stored
    vector. Each entity's norm is computed once per provider, which must
    not outlive the index's current entries.
    """
    index.frozen()
    memo: dict[str, tuple[np.ndarray, np.float64]] = {}

    def normed(e: str) -> tuple[np.ndarray, np.float64]:
        hit = memo.get(e)
        if hit is None:
            if e not in index:
                raise ValidationError(f"entity {e!r} has no vector in the entity index")
            v = index.entries[e]
            hit = memo[e] = (v, vector_norm(v))
        return hit

    def sim(a: str, b: str) -> float:
        return cosine_from_norms(*(memo.get(a) or normed(a)), *(memo.get(b) or normed(b)))

    return sim
