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
subgraph settings, not on the query, so ``build_centres`` builds each
centre's once per graph and keeps them on the graph until it changes (at
most one entry per graph entity), with the embedding and norm of every
text of theirs a strategy can read. Every query resolves that memo once
(``graph_memo``), which checks that the graph and entity index agree,
before any service call, and hands it to ``build_centres``; the query's
``QueryEmbeddings`` reads its store from the start, as do reward scores and
entity-name mappings; fusion, expansion and retrieval run for every query.

A query's texts are embedded in ``build_centres`` batches, one
``client.embed_many`` call each. Extracted strings usually name the
entities they map to, so the first batch carries the query, its entities,
the texts of the new centres they name and every expansion item those
centres, new or stored, can yield. Only a centre the names missed takes a
second batch. So a query makes one or two round trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import PipelineConfig
from .errors import GenerationError, ModelServiceError, NotFoundError, ParseError, ValidationError
from .fusion import FusionResult, ScoredSubgraph, fuse, fused_subgraph
from .kg import KnowledgeGraph, read_jsonl
from .reward import AttentionParams, checked_query, logit_scale, score as rm_score
from .subgraphs import (
    SimilarityProvider,
    Subgraph,
    multi_hop_subgraph,
    one_hop_subgraph,
    pagerank_subgraph,
    ranked_neighbors,
    similarity_from_index,
)
from .vectors import VectorIndex, cosine, normed, normed_block, top_k, top_k_union

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


StoredRow = tuple[tuple, int]  # ((vectors, norms), row) of the batch that stored a text


class QueryEmbeddings:
    """One query's text -> vector memo, over ``graph``, the graph memo's
    store of graph-derived texts that outlives the query (``GraphMemo.pairs``).
    The store keeps each text as its row of the ``normed_block`` of the batch
    that stored it, so ``normed`` reads the vector and norm ``vectors.normed``
    gives, bit for bit.

    ``prefetch``, the store's one writer, checks each text against it once,
    sends the rest, ``stored`` then ``transient``, in one ``embed_many`` call
    and stores ``stored``. A lookup the store misses sends its one text."""

    def __init__(self, client, graph: dict[str, StoredRow]):
        self.client = client
        self.vectors: dict[str, np.ndarray] = {}
        self.graph = graph

    def prefetch(self, stored=(), transient=()) -> None:
        stored = [t for t in dict.fromkeys(stored) if t not in self.graph]
        batch = dict.fromkeys([*stored, *[t for t in transient if t not in self.graph]])
        missing = [t for t in batch if t not in self.vectors]
        if missing:
            self.vectors.update(zip(missing, self.client.embed_many(missing)))
        if stored:
            vectors = [self.vectors[t] for t in stored]
            # One at a time, a bad vector raises; good ones that do not stack keep their pairs.
            block = normed_block(vectors) or tuple(zip(*map(normed, vectors)))
            self.graph.update((text, (block, row)) for row, text in enumerate(stored))

    def __call__(self, text: str) -> np.ndarray:
        ref = self.graph.get(text)
        if ref is not None:
            (vectors, _), row = ref
            return vectors[row]
        if text not in self.vectors:
            [self.vectors[text]] = self.client.embed_many([text])
        return self.vectors[text]

    def normed(self, text: str) -> tuple[np.ndarray, np.float64]:
        """``vectors.normed`` of the embedding of ``text``, read from the store when it holds it."""
        ref = self.graph.get(text)
        if ref is None:
            return normed(self(text))
        (vectors, norms), row = ref
        return vectors[row], norms[row]


def load_corpus(path: str) -> dict[str, Chunk]:
    """Read a line-delimited {"id", "text"} corpus file."""
    chunks: dict[str, Chunk] = {}
    for lineno, row in read_jsonl(path):
        if (
            not isinstance(row.get("id"), str)
            or not isinstance(row.get("text"), str)
            or not row["id"]
            or not row["text"]
        ):
            raise ParseError("expected {id, text} with non-empty id and text", line=lineno)
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
    """Client-extracted entity strings, not blank, deduplicated, first occurrence kept."""
    if not query or not query.strip():
        raise ValidationError("query must be non-empty")
    return list(dict.fromkeys(e for e in client.extract_entities(query) if e.strip()))


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
    parts: list[str] = []
    if fused is not None and fused.triples:
        parts = fused.entity_names() + fused.relation_labels() + [t.text() for t in fused.triples]
    return ExpandedQuery(base=query, items=expansion_items(query, parts))


def expansion_items(query: str, parts) -> list[str]:
    """The retrieval item of each distinct expansion part, in order."""
    prefix = f"{query} {SEPARATOR} "
    return [prefix + part for part in dict.fromkeys(parts)]


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
        return RankedChunks(items=[])
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


def candidate_subgraphs(kg: KnowledgeGraph, center: str, cfg: PipelineConfig, sim) -> list[Subgraph]:
    """The one-hop, multi-hop and PageRank candidates around ``center``."""
    ranked = ranked_neighbors(kg, center, sim)
    return [
        one_hop_subgraph(kg, center, cfg.K, sim, ranked),
        multi_hop_subgraph(kg, center, cfg.K, sim, ranked),
        pagerank_subgraph(kg, center, cfg.K, cfg.pagerank),
    ]


class GraphMemo(NamedTuple):
    """What queries derive from the graph alone: each centre's candidates, the
    similarity that ranks them (index vectors only), their reward scores and
    texts' ``normed`` embeddings, and each extracted entity name's mapping."""

    snapshot: tuple  # the entity index's ``frozen()`` snapshot
    params: tuple  # (K, PageRankConfig)
    candidates: dict[str, list[Subgraph]]
    client: object  # the model client the embeddings came from
    sim: SimilarityProvider  # ``similarity_from_index`` over the snapshot
    pairs: dict[str, StoredRow]  # graph-derived text -> its ``normed`` row
    names: dict[str, str]  # entity name -> the smallest id with it, which a tie maps to
    reward: AttentionParams  # the reward model the scores came from
    scale: float  # its ``logit_scale``: inf re-scores every stored centre
    scores: dict[str, tuple[list[float], float]]  # centre -> (scores, largest K/V row norm)
    mapped: dict[str, tuple[str, float]]  # a name in ``names`` -> ``map_entity``'s (id, score)


def graph_memo(
    kg: KnowledgeGraph, entities: VectorIndex, cfg: PipelineConfig, client, reward
) -> GraphMemo:
    """The graph's memo, kept on ``kg``, which drops it on every mutation.
    It belongs to the entity index's current ``frozen()`` snapshot, the
    subgraph settings, one client and one reward model; a call with another
    owner starts it afresh. A centre is in it only with all of its texts; its
    entries and reward model are shared: do not mutate them. It assumes that
    the client embeds each text deterministically, whatever batch carries it.
    Starting afresh checks the stored vectors (``frozen()``), then raises
    ValidationError naming the smallest id that only the graph or only the
    index holds; a memo that is still valid checks nothing.
    """
    snapshot = entities.frozen()
    params = (cfg.K, cfg.pagerank)
    memo = kg.candidate_memo
    stale = memo is None or memo.snapshot is not snapshot or memo.client is not client
    if stale or memo.reward is not reward or memo.params != params:
        require_same_ids("entity", "graph", kg.entities.keys(), "entity index", set(snapshot[0]))
        sim = similarity_from_index(entities)
        names = {kg.entities[e].name: e for e in reversed(snapshot[0])}  # the smallest id last
        memo = kg.candidate_memo = GraphMemo(
            snapshot, params, {}, client, sim, {}, names, reward, logit_scale(reward), {}, {}
        )
    return memo


def require_same_ids(kind: str, name: str, ids, other: str, other_ids) -> None:
    """Raise ValidationError naming the smallest id only one of two id sets holds."""
    differ = ids ^ other_ids
    if differ:
        has, lacks = (name, other) if min(differ) in ids else (other, name)
        raise ValidationError(f"{kind} {min(differ)!r} is in the {has} but not in the {lacks}")


def build_centres(
    query: str, kg: KnowledgeGraph, centers: list[str], memo: GraphMemo, cfg: PipelineConfig,
    embed: QueryEmbeddings, also=(),
) -> None:
    """Build the centres missing from ``memo`` in one ``embed.prefetch``
    batch, which stores the built candidates' serializations and triple
    texts. For ``embed`` alone it carries ``query``, ``also`` and the
    expansion items of every part the fusion of any of ``centers`` can
    yield: the centres and each candidate triple's endpoints, relation and
    text. A centre is stored once that batch is in."""
    built = {
        c: candidate_subgraphs(kg, c, cfg, memo.sim) for c in centers if c not in memo.candidates
    }
    new = [sg for parts in built.values() for sg in parts]
    candidates = [built[c] if c in built else memo.candidates[c] for c in centers]
    triples = {id(t): t for sgs in candidates for sg in sgs for t in sg.triples}.values()
    texts = [*(sg.serialized for sg in new), *(t.text() for sg in new for t in sg.triples)]
    superset = [*centers, *[p for t in triples for p in (t.head, t.tail, t.relation, t.text())]]
    embed.prefetch(texts, [query, *also, *expansion_items(query, superset)])
    memo.candidates.update(built)


def score_and_fuse(
    query: str, centers: list[str], memo: GraphMemo, cfg: PipelineConfig, embed: QueryEmbeddings,
) -> list[tuple[list[ScoredSubgraph], FusionResult]]:
    """Each centre's candidate subgraphs, scored against ``query`` by the
    memo's reward model, and their fusion. ``embed`` is the query's memo over
    the graph memo's store, after ``build_centres`` sent the texts read here.
    A stored score is the forward's while ``max|q|`` times ``memo.scale`` and
    its largest K/V row norm is finite (so is each logit, and each weight is 1);
    otherwise ``rm_score`` runs."""
    q_vec = checked_query(memo.reward, embed(query))  # raises the forward's shape error
    q_max, scored_parts = float(abs(q_vec).max()), []
    for center in centers:
        parts, (scores, k_norm) = memo.candidates[center], memo.scores.get(center, (None, 0.0))
        if scores is None or not q_max * memo.scale * k_norm < np.inf:  # NaN fails it too
            scores = [rm_score(query, sg, memo.reward, embed) for sg in parts]
            memo.scores[center] = scores, float(max(embed.normed(sg.serialized)[1] for sg in parts))
        scored_parts.append([ScoredSubgraph(subgraph=sg, score=s) for sg, s in zip(parts, scores)])
    return [(scored, fuse(scored, q_vec, cfg.fusion, embed)) for scored in scored_parts]


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

    memo = graph_memo(kg, indices.entities, cfg, client, params)  # mismatches fail before any call
    entities = extract_query_entities(query, client)
    trace["entities"] = entities
    mappable = entities if len(indices.entities) else []  # an empty index maps nothing
    embed = QueryEmbeddings(client, memo.pairs)
    # Build the centres the strings name with the query's batch; a stored mapping needs no vector.
    guessed = [memo.names[e] for e in mappable if e in memo.names]
    unmapped = [e for e in mappable if e not in memo.mapped]
    build_centres(query, kg, guessed, memo, cfg, embed, unmapped)

    mapped: list[dict] = []
    for entity_text in mappable:
        hit = memo.mapped.get(entity_text) or map_entity(entity_text, indices.entities, embed)
        if entity_text in memo.names:
            memo.mapped[entity_text] = hit
        entity_id, sim = hit
        mapped.append({"extracted": entity_text, "entity": entity_id, "score": sim})
    # Keep one pipeline per distinct mapped entity, in extraction order.
    centers = list(dict.fromkeys(m["entity"] for m in mapped))
    trace["mapped"] = mapped
    missed = [c for c in centers if c not in guessed]
    if missed:
        build_centres(query, kg, missed, memo, cfg, embed)

    fused: Subgraph | None = None
    if not centers:
        trace["fallback"] = True
        trace["per_entity"] = []
    else:
        fused_per_centre = score_and_fuse(query, centers, memo, cfg, embed)
        trace["per_entity"] = [
            {
                "entity": center,
                "scores": {s.subgraph.path_kind: float(s.score) for s in scored},
                "subgraph_sizes": {
                    s.subgraph.path_kind: len(s.subgraph.triples) for s in scored
                },
                "base_kind": result.base_kind,
                "threshold": float(result.threshold_used),
                "selected": [t.key for t in result.selected],
                "fused_triples": [t.key for t in result.fused.triples],
            }
            for center, (scored, result) in zip(centers, fused_per_centre)
        ]
        # One subgraph for expansion: every centre and its fused triples.
        triples = [t for _, result in fused_per_centre for t in result.fused.triples]
        fused = fused_subgraph(centers[0], triples, centers)

    eq = expand_query(query, fused)
    trace["expanded_items"] = eq.items

    doc = retrieve(eq, indices.documents, indices.chunks, embed, cfg.per_item_k)
    trace["doc_ids"] = [chunk.id for chunk in doc]

    ranked = rerank_chunks(query, doc, client, cfg.k)
    trace["ranked"] = [{"id": chunk.id, "score": s} for chunk, s in ranked.items]
    trace["rerank_fallback"] = ranked.used_fallback

    answer = generate_answer(query, ranked, client)
    trace["answer"] = answer
    return QmkgfResult(answer=answer, ranked=ranked, trace=trace)
