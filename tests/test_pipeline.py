import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from qmkgf import pipeline
from qmkgf.clients import StubModelClient
from qmkgf.config import PipelineConfig
from qmkgf.errors import (
    GenerationError,
    ModelServiceError,
    NotFoundError,
    UndefinedSimilarityError,
    ValidationError,
)
from qmkgf.kg import KnowledgeGraph, Triple
from qmkgf.pipeline import (
    NO_CONTEXT_MARKER,
    Chunk,
    ExpandedQuery,
    RankedChunks,
    RetrievalIndices,
    build_document_index,
    build_entity_index,
    build_prompt,
    candidate_subgraphs,
    expand_query,
    extract_query_entities,
    fusion_config,
    generate_answer,
    map_entity,
    rerank_chunks,
    retrieve,
    run_qmkgf,
)
from qmkgf.reward import init_params
from qmkgf.subgraphs import (
    PageRankConfig,
    Subgraph,
    multi_hop_subgraph,
    one_hop_subgraph,
    pagerank_subgraph,
    similarity_from_index,
)
from qmkgf.vectors import VectorIndex, cosine, top_k

DIM = 64


def _client(**kwargs) -> StubModelClient:
    kwargs.setdefault("dim", DIM)
    kwargs.setdefault("seed", 0)
    return StubModelClient(**kwargs)


def _chunks(*texts) -> dict:
    return {f"c{i}": Chunk(id=f"c{i}", text=t) for i, t in enumerate(texts)}


# ---------------------------------------------------------------------------
# entity extraction + mapping
# ---------------------------------------------------------------------------

def test_extract_entities_stub_table():
    client = _client(entity_table={"Paris trip": ["Paris"]})
    assert extract_query_entities("Paris trip", client) == ["Paris"]


def test_extract_entities_empty_result_is_valid():
    client = _client(entity_table={"nothing here": []})
    assert extract_query_entities("nothing here", client) == []


def test_extract_entities_deduplicates_preserving_order():
    client = _client(entity_table={"q": ["B", "A", "B", "A"]})
    assert extract_query_entities("q", client) == ["B", "A"]


def test_extract_entities_rejects_empty_query():
    with pytest.raises(ValidationError):
        extract_query_entities("   ", _client())


def test_map_entity_exact_name_match():
    client = _client()
    index = VectorIndex(DIM, kind="entity")
    for name in ("paris", "london"):
        index.add(name, client.embed(name))
    entity, sim = map_entity("paris", index, client.embed)
    assert entity == "paris"
    assert sim == pytest.approx(1.0, abs=1e-9)


def test_map_entity_matches_argmax_oracle():
    client = _client()
    index = VectorIndex(DIM, kind="entity")
    index.add("blue lake", client.embed("blue lake"))
    index.add("rock quarry", client.embed("rock quarry"))
    query_vec = client.embed("lake")
    expected = max(
        index.entries, key=lambda e: (cosine(index.get(e), query_vec), e)
    )
    got, _ = map_entity("lake", index, client.embed)
    assert got == expected
    assert map_entity("lake", index, client.embed) == map_entity("lake", index, client.embed)


def test_map_entity_empty_index():
    with pytest.raises(ValidationError):
        map_entity("x", VectorIndex(DIM, kind="entity"), _client().embed)


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

def _fused(*keys, center=None) -> Subgraph:
    triples = [Triple(h, r, t) for h, r, t in keys]
    members = {e for t in triples for e in (t.head, t.tail)}
    center = center or sorted(members)[0]
    members.add(center)
    return Subgraph(center=center, triples=triples, members=members, path_kind="fused")


def test_expand_query_counts_items():
    fused = _fused(("a", "r1", "b"))
    eq = expand_query("my question", fused)
    # 2 entities + 1 relation + 1 triple
    assert len(eq.items) == 4
    assert eq.base == "my question"
    assert all(item.startswith("my question [SEP] ") for item in eq.items)


def test_expand_query_empty_subgraph():
    assert expand_query("q", None).items == []
    # No triples -> nothing to expand with, even though the center is a member.
    lone = Subgraph(center="x", triples=[], members={"x"}, path_kind="fused")
    assert expand_query("q", lone).items == []


def test_expand_query_duplicate_relations_collapse():
    fused = _fused(("a", "r", "b"), ("b", "r", "c"))
    eq = expand_query("q", fused)
    # 3 entities + 1 relation + 2 triples
    assert len(eq.items) == 6


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------

def _mini_corpus(client):
    chunks = _chunks(
        "bluelake hosts sailing races",
        "granite cliffs rise over the bay",
        "market stalls sell woven baskets",
        "observatory tracks winter stars",
    )
    doc_index = build_document_index(chunks, client.embed, DIM)
    return chunks, doc_index


def test_retrieve_single_item_identical_to_base_is_idempotent():
    client = _client()
    chunks, doc_index = _mini_corpus(client)
    base = retrieve(ExpandedQuery("bluelake races"), doc_index, chunks, client.embed, 2)
    both = retrieve(
        ExpandedQuery("bluelake races", items=["bluelake races"]),
        doc_index,
        chunks,
        client.embed,
        2,
    )
    assert {c.id for c in base} == {c.id for c in both}


def test_retrieve_unions_disjoint_item_results():
    client = _client()
    chunks = _chunks("xx one", "xx two", "xx three", "yy one", "yy two")
    doc_index = build_document_index(chunks, client.embed, DIM)
    eq = ExpandedQuery("xx", items=["yy"])
    got = retrieve(eq, doc_index, chunks, client.embed, 3)
    base_ids = {cid for cid, _ in top_k(doc_index, client.embed("xx"), 3)}
    item_ids = {cid for cid, _ in top_k(doc_index, client.embed("yy"), 3)}
    assert {c.id for c in got} == base_ids | item_ids


def test_retrieve_matches_per_item_top_k_oracle():
    client = _client(seed=5)
    chunks = _chunks(*[f"doc number {i} about topic{i % 7}" for i in range(20)])
    doc_index = build_document_index(chunks, client.embed, DIM)
    eq = ExpandedQuery("topic1 details", items=["topic2 details", "topic3 info"])
    got = {c.id for c in retrieve(eq, doc_index, chunks, client.embed, 4)}
    expected = set()
    for text in ["topic1 details", "topic2 details", "topic3 info"]:
        expected |= {cid for cid, _ in top_k(doc_index, client.embed(text), 4)}
    assert got == expected


def test_retrieve_monotone_superset_of_base():
    client = _client(seed=9)
    chunks, doc_index = _mini_corpus(client)
    base = {c.id for c in retrieve(ExpandedQuery("stars"), doc_index, chunks, client.embed, 2)}
    expanded = {
        c.id
        for c in retrieve(
            ExpandedQuery("stars", items=["baskets", "cliffs"]),
            doc_index,
            chunks,
            client.embed,
            2,
        )
    }
    assert expanded >= base


def test_retrieve_matches_the_per_item_top_k_loop_with_ties_and_duplicates():
    # Chunk texts repeat, so their vectors and scores tie exactly, and the
    # per-item cut falls inside tied groups.
    client = _client(seed=3)
    texts = ["alpha harbour", "beta quarry", "gamma orchard", "delta mill"]
    chunks = {f"c{i:02d}": Chunk(f"c{i:02d}", texts[(7 * i) % 4]) for i in range(16)}
    doc_index = build_document_index(chunks, client.embed, DIM)
    items = ["alpha quarry", "gamma", "alpha quarry", "delta harbour mill", "beta"]
    for per_item_k in (1, 2, 3, 5, 16, 40):
        for eq in (ExpandedQuery("harbour"), ExpandedQuery("harbour", items=items)):
            expected = set()
            for text in [eq.base, *eq.items]:
                expected |= {cid for cid, _ in top_k(doc_index, client.embed(text), per_item_k)}
            got = retrieve(eq, doc_index, chunks, client.embed, per_item_k)
            assert [c.id for c in got] == sorted(expected)


def test_retrieve_raises_the_first_failing_item_error():
    client = _client()
    chunks, doc_index = _mini_corpus(client)
    vectors = {"base": client.embed("stars"), "ok": client.embed("cliffs"),
               "zero": np.zeros(DIM), "short": np.ones(DIM - 1)}
    eq = ExpandedQuery("base", items=["ok", "zero", "short"])
    with pytest.raises(UndefinedSimilarityError, match="zero query vector"):
        retrieve(eq, doc_index, chunks, vectors.__getitem__, 2)
    eq = ExpandedQuery("base", items=["ok", "short", "zero"])
    with pytest.raises(ValidationError, match=f"expected dimension {DIM}, got {DIM - 1}"):
        retrieve(eq, doc_index, chunks, vectors.__getitem__, 2)


def test_retrieve_reports_hits_missing_from_the_corpus():
    client = _client()
    chunks, doc_index = _mini_corpus(client)
    del chunks["c1"], chunks["c3"]
    with pytest.raises(NotFoundError, match=r"\['c1', 'c3'\]"):
        retrieve(ExpandedQuery("stars"), doc_index, chunks, client.embed, 4)


def test_retrieve_empty_index_rejected():
    client = _client()
    with pytest.raises(ValidationError):
        retrieve(ExpandedQuery("q"), VectorIndex(DIM), {}, client.embed, 3)


# ---------------------------------------------------------------------------
# rerank
# ---------------------------------------------------------------------------

def test_rerank_stub_scores_and_cutoff():
    chunks = list(_chunks("first text", "second text").values())
    client = _client(
        rerank_table={("q", "first text"): 0.2, ("q", "second text"): 0.9}
    )
    ranked = rerank_chunks("q", chunks, client, 1)
    assert ranked.ids() == ["c1"]
    assert not ranked.used_fallback


def test_rerank_keeps_all_when_k_large():
    chunks = list(_chunks("a b", "c d", "e f").values())
    ranked = rerank_chunks("q", chunks, _client(), 50)
    assert len(ranked.items) == 3
    scores = [s for _, s in ranked.items]
    assert scores == sorted(scores, reverse=True)


def test_rerank_order_matches_sort_oracle():
    rng = np.random.default_rng(14)
    texts = [f"text {i}" for i in range(10)]
    chunks = list(_chunks(*texts).values())
    table = {("q", c.text): float(rng.uniform(0, 1)) for c in chunks}
    client = _client(rerank_table=table)
    ranked = rerank_chunks("q", chunks, client, 10)
    expected = sorted(chunks, key=lambda c: (-table[("q", c.text)], c.id))
    assert ranked.ids() == [c.id for c in expected]


def test_rerank_falls_back_to_cosine_on_client_failure():
    class FailingRerank(StubModelClient):
        def rerank(self, query, texts):
            raise ModelServiceError("rerank down")

        def embed_many(self, texts):
            self.embed_batches.append(list(texts))
            return super().embed_many(texts)

    chunks = list(_chunks("alpha words", "beta words", "gamma alpha").values())
    client = FailingRerank(dim=DIM)
    client.embed_batches = []
    ranked = rerank_chunks("alpha", chunks, client, 2)
    assert ranked.used_fallback
    assert ranked.ids()[0] == "c0"  # shares the token with the query
    # One round trip for the query and every candidate.
    assert client.embed_batches == [["alpha", "alpha words", "beta words", "gamma alpha"]]
    # The same cosines, bit for bit, as embedding each text on its own.
    q_vec = client.embed("alpha")
    cosines = {
        c.id: float(q_vec @ v / (np.linalg.norm(q_vec) * np.linalg.norm(v)))
        for c in chunks
        for v in [client.embed(c.text)]
    }
    oracle = sorted(cosines.items(), key=lambda pair: (-pair[1], pair[0]))[:2]
    assert [(c.id, s) for c, s in ranked.items] == oracle


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_generate_echo_returns_constructed_prompt():
    chunks = list(_chunks("context one").values())
    ranked = RankedChunks(items=[(chunks[0], 1.0)], cutoff=5)
    answer = generate_answer("why?", ranked, _client())
    assert "Question: why?" in answer
    assert "1. context one" in answer


def test_generate_empty_ranked_set_has_marker():
    ranked = RankedChunks(items=[], cutoff=5)
    prompt = build_prompt("why?", ranked)
    assert NO_CONTEXT_MARKER in prompt
    assert "no context" in prompt
    answer = generate_answer("why?", ranked, _client())
    assert NO_CONTEXT_MARKER in answer


def test_generate_table_mapping_exact_answer():
    ranked = RankedChunks(items=[], cutoff=5)
    prompt = build_prompt("why?", ranked)
    client = _client(generate_table={prompt: "because."})
    assert generate_answer("why?", ranked, client) == "because."


def test_generate_failure_carries_prompt():
    class FailingGenerate(StubModelClient):
        def generate(self, prompt):
            raise ModelServiceError("llm down")

    ranked = RankedChunks(items=[], cutoff=5)
    with pytest.raises(GenerationError) as exc:
        generate_answer("why?", ranked, FailingGenerate(dim=DIM))
    assert "Question: why?" in exc.value.prompt


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("query, a, b, c, error", [
    # Chunk a is parallel to the query, but the query's norm overflows.
    (1e200, 1.0, 1e200, 0.0, ValidationError),
    (1.0, 1.0, 1e200, 1.0, ValidationError),
    (1.0, 1.0, 2.0, 0.0, UndefinedSimilarityError),
])
def test_rerank_fallback_rejects_overflowing_or_zero_embeddings(query, a, b, c, error):
    class Replies(StubModelClient):
        def rerank(self, query, texts):
            raise ModelServiceError("rerank down")

        def embed_many(self, texts):
            fills = {"q": query, "text a": a, "text b": b, "text c": c}
            return [np.full(4, fills[t]) for t in texts]

    chunks = [Chunk("a", "text a"), Chunk("b", "text b"), Chunk("c", "text c")]
    with pytest.raises(error):
        rerank_chunks("q", chunks, Replies(dim=4), 3)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def _toy_world():
    """Tiny corpus where 'farlake' is only reachable from 'hilltown' via the KG."""
    g = KnowledgeGraph()
    g.add_triple(Triple("hilltown", "overlooks", "greenvalley"))
    g.add_triple(Triple("greenvalley", "drains_into", "farlake"))
    g.add_triple(Triple("quarry", "ships", "granite"))

    chunks = {
        "gold": Chunk("gold", "farlake swarms with silver trout every autumn"),
        "near": Chunk("near", "hilltown holds a lantern parade"),
        # Distractors share weak tokens with the query so base-only
        # retrieval deterministically prefers them over the gold chunk.
        "off1": Chunk("off1", "deep sea fish live in cold water"),
        "off2": Chunk("off2", "what people eat near the mill"),
        "off3": Chunk("off3", "fish markets open on what days people live by"),
    }
    client = _client(
        entity_table={
            "what fish live near hilltown": ["hilltown"],
            "tell me about nothing": [],
        },
        rerank_table={("what fish live near hilltown", chunks["gold"].text): 5.0},
    )
    ent_index = build_entity_index(g, client.embed, DIM)
    doc_index = build_document_index(chunks, client.embed, DIM)
    indices = RetrievalIndices(entities=ent_index, documents=doc_index, chunks=chunks)
    params = init_params(DIM, heads=4, seed=0)
    cfg = PipelineConfig(stub=True, heads=4, per_item_k=2, k=3)
    return g, indices, params, cfg, client


def test_run_qmkgf_expansion_reaches_two_hop_chunk():
    g, indices, params, cfg, client = _toy_world()
    query = "what fish live near hilltown"
    result = run_qmkgf(query, g, indices, params, cfg, client)
    assert "gold" in [c.id for c, _ in result.ranked.items]
    assert not result.trace["fallback"]
    # Base-only retrieval misses the gold chunk (no shared tokens).
    base_only = retrieve(
        ExpandedQuery(query), indices.documents, indices.chunks, client.embed, cfg.per_item_k
    )
    assert "gold" not in {c.id for c in base_only}


def test_run_qmkgf_zero_entities_falls_back_to_plain_path():
    g, indices, params, cfg, client = _toy_world()
    result = run_qmkgf("tell me about nothing", g, indices, params, cfg, client)
    assert result.trace["fallback"] is True
    assert result.trace["expanded_items"] == []
    # Identical to plain retrieve + rerank + generate on the base query.
    doc = retrieve(
        ExpandedQuery("tell me about nothing"),
        indices.documents,
        indices.chunks,
        client.embed,
        cfg.per_item_k,
    )
    ranked = rerank_chunks("tell me about nothing", doc, client, cfg.k)
    assert result.ranked.ids() == ranked.ids()
    assert result.answer == generate_answer("tell me about nothing", ranked, client)


def test_run_qmkgf_trace_is_bit_reproducible():
    g, indices, params, cfg, client = _toy_world()
    query = "what fish live near hilltown"
    first = run_qmkgf(query, g, indices, params, cfg, client)
    second = run_qmkgf(query, g, indices, params, cfg, client)
    assert json.dumps(first.trace, sort_keys=True) == json.dumps(second.trace, sort_keys=True)


def test_run_qmkgf_multi_entity_union():
    g, indices, params, cfg, client = _toy_world()
    client.entity_table["hilltown and quarry news"] = ["hilltown", "quarry"]
    result = run_qmkgf("hilltown and quarry news", g, indices, params, cfg, client)
    assert len(result.trace["per_entity"]) == 2
    fused_keys = {
        tuple(k) for entry in result.trace["per_entity"] for k in entry["fused_triples"]
    }
    items = result.trace["expanded_items"]
    # Expansion draws from the union of both entities' fused subgraphs.
    assert any("quarry" in item for item in items)
    assert any("hilltown" in item for item in items)
    assert fused_keys  # both pipelines contributed triples


def test_run_qmkgf_reaches_top_k_and_retrieve_through_the_pipeline_globals(monkeypatch):
    # The benchmark's vectors.top_k and pipeline.retrieve spans patch these
    # module globals; a pipeline that bypasses them leaves the spans silent.
    calls = {"top_k": 0, "retrieve": 0}
    for name in calls:
        original = getattr(pipeline, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    g, indices, params, cfg, client = _toy_world()
    result = pipeline.run_qmkgf("what fish live near hilltown", g, indices, params, cfg, client)
    assert not result.trace["fallback"]
    assert calls["top_k"] >= 1
    assert calls["retrieve"] == 1


def test_run_qmkgf_trace_records_all_stages():
    g, indices, params, cfg, client = _toy_world()
    result = run_qmkgf("what fish live near hilltown", g, indices, params, cfg, client)
    trace = result.trace
    for key in (
        "query",
        "entities",
        "mapped",
        "per_entity",
        "expanded_items",
        "doc_ids",
        "ranked",
        "answer",
    ):
        assert key in trace
    entry = trace["per_entity"][0]
    assert set(entry["scores"]) == {"onehop", "multihop", "pagerank"}
    assert entry["base_kind"] in {"onehop", "multihop", "pagerank"}


def test_candidate_subgraphs_rank_the_centre_neighbours_once():
    client = _client()
    g = KnowledgeGraph()
    for i in range(6):
        g.add_triple(Triple("hub", "r", f"n{i}"))
        g.add_triple(Triple(f"n{i}", "s", f"m{i}"))
        g.add_triple(Triple(f"m{i}", "t", f"n{(i + 1) % 6}"))
    base = similarity_from_index(build_entity_index(g, client.embed, DIM), client.embed)
    calls = []

    def sim(a, b):
        calls.append((a, b))
        return base(a, b)

    cfg = PipelineConfig(stub=True, K=3)
    candidates = candidate_subgraphs(g, "hub", cfg, sim)
    together = len(calls)
    calls.clear()
    pr_cfg = PageRankConfig(cfg.damping, cfg.pagerank_max_iters, cfg.pagerank_tolerance)
    assert candidates == [
        one_hop_subgraph(g, "hub", 3, sim),
        multi_hop_subgraph(g, "hub", 3, sim),
        pagerank_subgraph(g, "hub", 3, pr_cfg),
    ]
    # The builders on their own each rank the six neighbours of the hub.
    assert together == len(calls) - 6


def test_candidate_subgraphs_and_fusion_config_follow_the_config():
    g, indices, _, _, client = _toy_world()
    sim = similarity_from_index(indices.entities, client.embed)
    cfg = PipelineConfig(stub=True, K=2, damping=0.5, pagerank_max_iters=3)
    candidates = candidate_subgraphs(g, "hilltown", cfg, sim)
    assert [sg.path_kind for sg in candidates] == ["onehop", "multihop", "pagerank"]
    expected = pagerank_subgraph(g, "hilltown", 2, PageRankConfig(0.5, 3, cfg.pagerank_tolerance))
    assert candidates[2].node_scores == expected.node_scores
    assert fusion_config(cfg).tau is None
    fixed = fusion_config(PipelineConfig(stub=True, tau=0.3, strategy="top5_fusion"))
    assert (fixed.tau, fixed.strategy) == (0.3, "top5_fusion")


# ---------------------------------------------------------------------------
# per-graph candidate memo
# ---------------------------------------------------------------------------

REPEAT_QUERIES = {
    "what fish live near hilltown": ["hilltown"],
    "hilltown and quarry news": ["hilltown", "quarry"],
    "quarry first then hilltown": ["quarry", "hilltown"],
    "which roads leave hilltown": ["hilltown"],
    "tell me about nothing": [],
}


def _repeat_world():
    """The toy world plus a wider neighbourhood around 'hilltown', which
    every query but one reaches; K=2 leaves the similarity ranking and
    PageRank a choice."""
    g, indices, params, cfg, client = _toy_world()
    for name in ("ashgrove", "brookside", "cedarfield"):
        g.add_triple(Triple("hilltown", "borders", name))
        g.add_triple(Triple(name, "feeds", "farlake"))
    g.add_triple(Triple("farlake", "feeds", "quarry"))
    client.entity_table.update(REPEAT_QUERIES)
    indices.entities = build_entity_index(g, client.embed, DIM)
    cfg.K = 2
    return g, indices, params, cfg, client


def _copy_graph(g: KnowledgeGraph) -> KnowledgeGraph:
    """The same graph, rebuilt call by call in the same order, that has
    never answered a query."""
    fresh = KnowledgeGraph()
    for entity in g.entities.values():
        fresh.add_entity(entity.id, entity.name)
    for triple in g.triples:
        fresh.add_triple(triple)
    return fresh


def _trace(query, g, indices, params, cfg, client) -> str:
    return json.dumps(run_qmkgf(query, g, indices, params, cfg, client).trace, sort_keys=True)


@pytest.mark.parametrize("strategy", ["rm_fusion", "all_fusion", "top5_fusion"])
def test_run_qmkgf_warm_memo_traces_equal_a_fresh_graph(strategy):
    g, indices, params, cfg, client = _repeat_world()
    cfg.strategy = strategy
    for _ in range(2):
        for query in REPEAT_QUERIES:
            fresh = _copy_graph(g)
            assert _trace(query, g, indices, params, cfg, client) == _trace(
                query, fresh, indices, params, cfg, client
            ), query
    assert g.candidate_memo is not None


def _change(g, indices, cfg, client, change):
    if change == "add_triple":
        g.add_triple(Triple("hilltown", "hosts", "granite"))
    elif change == "add_entity":
        # Isolated, and first by id among the nodes PageRank scores zero.
        g.add_entity("aaa_outpost")
    elif change == "index_add":
        indices.entities.add("cedarfield", client.embed("hilltown fish"))
    elif change == "K":
        cfg.K = 3
    elif change == "damping":
        cfg.damping = 0.2


@pytest.mark.parametrize("change", ["add_triple", "add_entity", "index_add", "K", "damping"])
def test_run_qmkgf_after_a_change_matches_a_fresh_graph(change):
    g, indices, params, cfg, client = _repeat_world()
    for query in REPEAT_QUERIES:
        run_qmkgf(query, g, indices, params, cfg, client)
    before = dict(g.candidate_memo[2])
    _change(g, indices, cfg, client, change)
    after = [_trace(q, g, indices, params, cfg, client) for q in REPEAT_QUERIES]
    fresh = _copy_graph(g)
    assert after == [_trace(q, fresh, indices, params, cfg, client) for q in REPEAT_QUERIES]
    assert g.candidate_memo[2] != before  # the change reaches the candidates


def test_memo_entries_equal_fresh_candidates_without_scores():
    g, indices, params, cfg, client = _repeat_world()
    for strategy in ("rm_fusion", "all_fusion", "top5_fusion"):
        cfg.strategy = strategy
        for query in REPEAT_QUERIES:
            run_qmkgf(query, g, indices, params, cfg, client)
    snapshot, _, entries = g.candidate_memo
    assert snapshot is indices.entities.frozen()
    assert set(entries) == {"hilltown", "quarry"}
    sim = similarity_from_index(indices.entities, client.embed)
    owned = {id(t) for t in g.triples}
    for center, parts in entries.items():
        fresh = candidate_subgraphs(g, center, cfg, sim)
        assert fresh[2].node_scores is not None
        assert all(sg.node_scores is None for sg in parts)
        assert parts == [replace(sg, node_scores=None) for sg in fresh]
        # The graph's own triples, not copies.
        assert all(id(t) in owned for sg in parts for t in sg.triples)
    # Merging a triple replaces it in the graph and empties the memo.
    g.add_triple(Triple("hilltown", "borders", "ashgrove", weight=4.0))
    assert g.candidate_memo is None


def test_threads_sharing_a_graph_get_the_traces_of_a_fresh_graph():
    g, indices, params, cfg, client = _repeat_world()
    expected = {
        q: _trace(q, _copy_graph(g), indices, params, cfg, client) for q in REPEAT_QUERIES
    }
    queries = list(REPEAT_QUERIES) * 6
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(_trace, q, g, indices, params, cfg, client) for q in queries
            ]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [expected[q] for q in queries]
    sim = similarity_from_index(indices.entities, client.embed)
    for center, parts in g.candidate_memo[2].items():
        assert parts == [replace(sg, node_scores=None)
                         for sg in candidate_subgraphs(g, center, cfg, sim)]


def test_run_qmkgf_builds_a_centre_once_through_the_pipeline_globals(monkeypatch):
    # The benchmark's subgraph spans patch these module globals, and its
    # never-fired check needs a miss to reach them.
    calls = {"one_hop_subgraph": 0, "multi_hop_subgraph": 0, "pagerank_subgraph": 0}
    for name in calls:
        original = getattr(pipeline, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    g, indices, params, cfg, client = _repeat_world()
    pipeline.run_qmkgf("what fish live near hilltown", g, indices, params, cfg, client)
    assert calls == dict.fromkeys(calls, 1)
    pipeline.run_qmkgf("which roads leave hilltown", g, indices, params, cfg, client)
    assert calls == dict.fromkeys(calls, 1)
    pipeline.run_qmkgf("hilltown and quarry news", g, indices, params, cfg, client)
    assert calls == dict.fromkeys(calls, 2)
