"""End-to-end retrieval flow: entities -> subgraphs -> fusion -> expansion
-> retrieve -> rerank -> generate.

Each query runs the same stages: extract potential entities, map them to
graph entities through the entity vector index, build the three
candidate subgraphs per mapped entity, score them with the attention
reward model, fuse, expand the query with the fused graph's entities /
relations / triples, retrieve the top hits of the query and of every
expansion item in one pass over the document index, rerank their union,
and hand the top chunks to the generation client. Every stage's output is
recorded in a JSON-friendly trace; with stub clients and a fixed seed
the trace is byte-reproducible.

Queries from which no graph entity can be resolved fall back to plain
retrieve + rerank on the bare query (flagged in the trace).

The candidate subgraphs depend on the graph, the entity index and the
subgraph settings, not on the query, so ``memoized_candidates`` builds each
centre's once per graph and keeps them on the graph until it changes (at
most one entry per graph entity). Everything downstream of them (reward
scores, fusion, expansion, retrieval) runs afresh for every query.

Embeddings go through a memo that lives for one query only. Each stage
sends the texts the memo lacks in one ``client.embed_many`` call: the query
and extracted entities, every candidate subgraph's serialization, the
triples fusion scores, then the expansion items. So a query makes at most
four embedding round trips, and a fallback query one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import PipelineConfig
from .errors import GenerationError, ModelServiceError, NotFoundError, ParseError, ValidationError
from .fusion import FusionConfig, FusionResult, ScoredSubgraph, fuse, triples_to_score
from .kg import KnowledgeGraph, Triple, read_jsonl
from .reward import AttentionParams, score as rm_score, serialize_subgraph
from .subgraphs import (
    FUSED,
    PageRankConfig,
    Subgraph,
    multi_hop_subgraph,
    one_hop_subgraph,
    pagerank_subgraph,
    ranked_neighbors,
    similarity_from_index,
)
from .vectors import VectorIndex, cosine, top_k, top_k_union

SEPARATOR = "[SEP]"

ANSWER_PROMPT = (
    "Answer the question using the numbered context passages. "
    "If the context does not contain the answer, say so.\n\n"
    "Question: {question}\n\n"
    "Context:\n{context}\n"
)

NO_CONTEXT_MARKER = "[no context]"


@dataclass(frozen=True)
class Chunk:
    id: str
    text: str


@dataclass
class ExpandedQuery:
    base: str
    items: list[str] = field(default_factory=list)


@dataclass
class RankedChunks:
    items: list[tuple[Chunk, float]]
    cutoff: int
    used_fallback: bool = False

    def ids(self) -> list[str]:
        return [chunk.id for chunk, _ in self.items]


@dataclass
class RetrievalIndices:
    entities: VectorIndex
    documents: VectorIndex
    chunks: dict[str, Chunk]


@dataclass
class QmkgfResult:
    answer: str
    ranked: RankedChunks
    trace: dict


class _QueryEmbeddings:
    """One query's text -> vector memo: ``prefetch`` sends the texts it lacks
    in one ``client.embed_many`` call; a lookup it cannot answer sends one."""

    def __init__(self, client):
        self.client = client
        self.vectors: dict[str, np.ndarray] = {}

    def prefetch(self, texts) -> None:
        missing = list(dict.fromkeys(t for t in texts if t not in self.vectors))
        if missing:
            self.vectors.update(zip(missing, self.client.embed_many(missing)))

    def __call__(self, text: str) -> np.ndarray:
        if text not in self.vectors:
            self.prefetch([text])
        return self.vectors[text]


def load_corpus(path: str) -> dict[str, Chunk]:
    """Read a line-delimited {"id", "text"} corpus file."""
    chunks: dict[str, Chunk] = {}
    for lineno, row in read_jsonl(path):
        if (
            not isinstance(row.get("id"), str)
            or not isinstance(row.get("text"), str)
            or not row["text"]
        ):
            raise ParseError("expected {id, text} with non-empty text", line=lineno)
        if row["id"] in chunks:
            raise ParseError(f"duplicate chunk id {row['id']!r}", line=lineno)
        chunks[row["id"]] = Chunk(id=row["id"], text=row["text"])
    return chunks


def build_entity_index(g: KnowledgeGraph, embedder, dim: int) -> VectorIndex:
    index = VectorIndex(dim, kind="entity")
    for entity_id in sorted(g.entities):
        index.add(entity_id, embedder(g.entities[entity_id].name))
    return index


def build_document_index(chunks: dict[str, Chunk], embedder, dim: int) -> VectorIndex:
    index = VectorIndex(dim, kind="document")
    for chunk_id in sorted(chunks):
        index.add(chunk_id, embedder(chunks[chunk_id].text))
    return index


def extract_query_entities(query: str, client) -> list[str]:
    """Client-extracted entity strings, deduplicated, first occurrence kept."""
    if not query or not query.strip():
        raise ValidationError("query must be non-empty")
    seen: list[str] = []
    for entity in client.extract_entities(query):
        if entity and entity not in seen:
            seen.append(entity)
    return seen


def map_entity(entity_text: str, ent_index: VectorIndex, embedder) -> tuple[str, float]:
    """Nearest graph entity to the extracted string, by embedding cosine."""
    if len(ent_index) == 0:
        raise ValidationError("entity index is empty")
    hits = top_k(ent_index, embedder(entity_text), 1)
    return hits[0]


def expand_query(query: str, fused: Subgraph | None) -> ExpandedQuery:
    """One retrieval item per fused-subgraph entity, relation, and triple.

    A fused subgraph without triples carries no information beyond the
    query itself, so it expands to nothing (base-only retrieval).
    """
    items: list[str] = []
    seen: set[str] = set()
    if fused is not None and fused.triples:
        parts = (
            fused.entity_names()
            + fused.relation_labels()
            + [t.text() for t in fused.sorted_triples()]
        )
        for part in parts:
            rendered = f"{query} {SEPARATOR} {part}"
            if rendered not in seen:
                seen.add(rendered)
                items.append(rendered)
    return ExpandedQuery(base=query, items=items)


def retrieve(
    eq: ExpandedQuery,
    doc_index: VectorIndex,
    chunks: dict[str, Chunk],
    embedder,
    per_item_k: int,
) -> list[Chunk]:
    """Union (by chunk id) of the top-k hits of the base query and of every
    item, in id order: all of them are embedded, then scored against the
    document index in blocks, each exactly as ``top_k`` would score it."""
    if len(doc_index) == 0:
        raise ValidationError("document index is empty")
    if per_item_k < 1:
        raise ValidationError(f"per_item_k must be >= 1, got {per_item_k}")
    vectors = [embedder(text) for text in [eq.base, *eq.items]]
    collected = top_k_union(doc_index, vectors, per_item_k)
    missing = [cid for cid in collected if cid not in chunks]
    if missing:
        raise NotFoundError(f"chunks missing from corpus: {missing}")
    return [chunks[cid] for cid in collected]


def rerank_chunks(query: str, doc: list[Chunk], client, k: int) -> RankedChunks:
    """Client-scored ordering of the candidate set, truncated to k.

    If the rerank call fails, falls back to embedding-cosine ordering
    and flags the result.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    ordered = sorted(doc, key=lambda c: c.id)
    if not ordered:
        return RankedChunks(items=[], cutoff=k)
    used_fallback = False
    try:
        scores = client.rerank(query, [c.text for c in ordered])
        if len(scores) != len(ordered):
            raise ModelServiceError("rerank returned wrong number of scores")
    except ModelServiceError:
        q_vec, *vecs = client.embed_many([query, *(c.text for c in ordered)])
        scores = [cosine(q_vec, vec) for vec in vecs]
        used_fallback = True
    ranked = sorted(zip(ordered, scores), key=lambda pair: (-pair[1], pair[0].id))
    return RankedChunks(
        items=[(chunk, float(s)) for chunk, s in ranked[:k]],
        cutoff=k,
        used_fallback=used_fallback,
    )


def build_prompt(query: str, ranked: RankedChunks) -> str:
    if ranked.items:
        context = "\n".join(
            f"{i}. {chunk.text}" for i, (chunk, _) in enumerate(ranked.items, start=1)
        )
    else:
        context = NO_CONTEXT_MARKER
    return ANSWER_PROMPT.format(question=query, context=context)


def generate_answer(query: str, ranked: RankedChunks, client) -> str:
    prompt = build_prompt(query, ranked)
    try:
        return client.generate(prompt)
    except Exception as exc:
        raise GenerationError(f"generation failed: {exc}", prompt=prompt) from exc


def _union_fused(parts: list[Subgraph], center: str) -> Subgraph:
    merged: dict[tuple, Triple] = {}
    members: set[str] = {center}
    for part in parts:
        members |= part.members
        for t in part.triples:
            merged.setdefault(t.key, t)
    triples = [merged[key] for key in sorted(merged)]
    for t in triples:
        members.add(t.head)
        members.add(t.tail)
    return Subgraph(center=center, triples=triples, members=members, path_kind=FUSED)


def candidate_subgraphs(kg: KnowledgeGraph, center: str, cfg: PipelineConfig, sim) -> list[Subgraph]:
    """The one-hop, multi-hop and PageRank candidates around ``center``."""
    pr_cfg = PageRankConfig(
        damping=cfg.damping,
        max_iters=cfg.pagerank_max_iters,
        tolerance=cfg.pagerank_tolerance,
    )
    ranked = ranked_neighbors(kg, center, sim)
    return [
        one_hop_subgraph(kg, center, cfg.K, sim, ranked),
        multi_hop_subgraph(kg, center, cfg.K, sim, ranked),
        pagerank_subgraph(kg, center, cfg.K, pr_cfg),
    ]


def memoized_candidates(
    kg: KnowledgeGraph, centers: list[str], entities: VectorIndex, cfg: PipelineConfig, embed
) -> list[list[Subgraph]]:
    """``candidate_subgraphs`` of each centre, ranked by similarity over
    ``entities``, built once per graph.

    The memo lives on ``kg``, which drops it on every mutation. It belongs
    to the entity index's current ``frozen()`` snapshot and the subgraph
    settings; a call with another owner starts it afresh. It holds one
    entry per centre, without the PageRank ``node_scores``, and every call
    returns those entries, so callers share them and must not mutate them.
    ``embed`` only embeds graph entities missing from the index, which
    shipped indices never lack.
    """
    snapshot = entities.frozen()
    params = (cfg.K, cfg.damping, cfg.pagerank_max_iters, cfg.pagerank_tolerance)
    memo = kg.candidate_memo
    if memo is None or memo[0] is not snapshot or memo[1] != params:
        memo = kg.candidate_memo = (snapshot, params, {})
    entries: dict[str, list[Subgraph]] = memo[2]
    sim = similarity_from_index(entities, embed)
    for center in centers:
        if center not in entries:
            built = candidate_subgraphs(kg, center, cfg, sim)
            entries[center] = [replace(sg, node_scores=None) for sg in built]
    return [entries[center] for center in centers]


def fusion_config(cfg: PipelineConfig) -> FusionConfig:
    """A fixed threshold when ``cfg.tau`` is set, else one derived per subgraph set."""
    return FusionConfig(cfg.strategy, cfg.tau)


def run_qmkgf(
    query: str,
    kg: KnowledgeGraph,
    indices: RetrievalIndices,
    params: AttentionParams,
    cfg: PipelineConfig,
    client,
) -> QmkgfResult:
    """Run the full pipeline for one query and record a stage-by-stage trace."""
    trace: dict = {"query": query, "fallback": False}

    entities = extract_query_entities(query, client)
    trace["entities"] = entities
    embed = _QueryEmbeddings(client)
    embed.prefetch([query, *(entities if len(indices.entities) else [])])

    mapped: list[dict] = []
    for entity_text in entities:
        if len(indices.entities) == 0:
            break
        entity_id, sim = map_entity(entity_text, indices.entities, embed)
        mapped.append({"extracted": entity_text, "entity": entity_id, "score": sim})
    # Keep one pipeline per distinct mapped entity, in extraction order.
    centers: list[str] = []
    for m in mapped:
        if m["entity"] in kg and m["entity"] not in centers:
            centers.append(m["entity"])
    trace["mapped"] = mapped

    fused: Subgraph | None = None
    if not centers:
        trace["fallback"] = True
        trace["per_entity"] = []
    else:
        q_vec = np.asarray(embed(query), dtype=np.float64)
        fusion_cfg = fusion_config(cfg)
        candidates = memoized_candidates(kg, centers, indices.entities, cfg, embed)
        embed.prefetch(serialize_subgraph(sg) for parts in candidates for sg in parts)
        scored_parts = [
            [ScoredSubgraph(subgraph=sg, score=rm_score(query, sg, params, embed)) for sg in parts]
            for parts in candidates
        ]
        embed.prefetch(t.text() for s in scored_parts for t in triples_to_score(s, cfg.strategy))
        per_entity = []
        fused_parts: list[Subgraph] = []
        for center, scored in zip(centers, scored_parts):
            result: FusionResult = fuse(scored, q_vec, fusion_cfg, embed)
            fused_parts.append(result.fused)
            per_entity.append(
                {
                    "entity": center,
                    "scores": {
                        s.subgraph.path_kind: float(s.score) for s in scored
                    },
                    "subgraph_sizes": {
                        s.subgraph.path_kind: len(s.subgraph.triples) for s in scored
                    },
                    "base_kind": result.base_kind,
                    "threshold": float(result.threshold_used),
                    "selected": [t.key for t in result.selected],
                    "fused_triples": [t.key for t in result.fused.sorted_triples()],
                }
            )
        trace["per_entity"] = per_entity
        fused = _union_fused(fused_parts, centers[0])

    eq = expand_query(query, fused)
    trace["expanded_items"] = eq.items
    embed.prefetch(eq.items)

    doc = retrieve(eq, indices.documents, indices.chunks, embed, cfg.per_item_k)
    trace["doc_ids"] = [chunk.id for chunk in doc]

    ranked = rerank_chunks(query, doc, client, cfg.k)
    trace["ranked"] = [{"id": chunk.id, "score": s} for chunk, s in ranked.items]
    trace["rerank_fallback"] = ranked.used_fallback

    answer = generate_answer(query, ranked, client)
    trace["answer"] = answer
    return QmkgfResult(answer=answer, ranked=ranked, trace=trace)
