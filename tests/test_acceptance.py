"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import qmkgf
from qmkgf.clients import StubModelClient
from qmkgf.config import PipelineConfig
from qmkgf.fusion import FusionConfig, ScoredSubgraph, fuse, select_max, triple_similarity
from qmkgf.kg import KnowledgeGraph, Triple
from qmkgf.metrics import bleu_1, retrieval_metrics, rouge_1, rouge_l
from qmkgf.pipeline import (
    Chunk,
    ExpandedQuery,
    RetrievalIndices,
    build_document_index,
    build_entity_index,
    rerank_chunks,
    retrieve,
    run_qmkgf,
)
from qmkgf.reward import (
    RMExample,
    RMTrainingExample,
    grad_check,
    init_params,
    score,
    train_rm,
)
from qmkgf.subgraphs import (
    PageRankConfig,
    Subgraph,
    multi_hop_subgraph,
    one_hop_subgraph,
    pagerank_subgraph,
    personalized_pagerank,
)


def _passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def _random_weighted_graph(rng: random.Random, max_nodes: int = 50) -> KnowledgeGraph:
    g = KnowledgeGraph()
    n = rng.randint(2, max_nodes)
    names = [f"v{i:02d}" for i in range(n)]
    for name in names:
        g.add_entity(name)
    for _ in range(rng.randint(1, 4 * n)):
        h, t = rng.choice(names), rng.choice(names)
        g.add_triple(Triple(h, f"r{rng.randint(0, 3)}", t, weight=rng.uniform(0.1, 5.0)))
    return g


def _dense_ppr_oracle(g: KnowledgeGraph, center: str, damping: float) -> dict:
    """Independent dense-matrix power iteration, run to 1e-14."""
    ids = sorted(g.entities)
    pos = {e: i for i, e in enumerate(ids)}
    n = len(ids)
    T = np.zeros((n, n))
    for t in g.triples:
        T[pos[t.head], pos[t.tail]] += t.weight
    row_sums = T.sum(axis=1)
    dangling = row_sums == 0
    T[~dangling] /= row_sums[~dangling, None]
    pvec = np.zeros(n)
    pvec[pos[center]] = 1.0
    s = pvec.copy()
    for _ in range(100000):
        s_new = (1 - damping) * pvec + damping * (T.T @ s + s[dangling].sum() * pvec)
        if np.abs(s_new - s).sum() < 1e-14:
            s = s_new
            break
        s = s_new
    return {e: float(s[pos[e]]) for e in ids}


def test_criterion_1_pagerank_matches_power_iteration_oracle():
    start = time.monotonic()
    rng = random.Random(1001)
    cfg = PageRankConfig(damping=0.85, max_iters=100000, tolerance=1e-13)
    for _ in range(25):
        g = _random_weighted_graph(rng)
        center = rng.choice(sorted(g.entities))
        result = personalized_pagerank(g, {center: 1.0}, cfg)
        oracle = _dense_ppr_oracle(g, center, 0.85)
        l1 = sum(abs(result.scores[e] - oracle[e]) for e in oracle)
        assert l1 < 1e-8, f"L1 distance {l1}"
        assert abs(sum(result.scores.values()) - 1.0) < 1e-6
    # Explicit dangling-node graph.
    g = KnowledgeGraph()
    g.add_triple(Triple("a", "r", "sink"))
    g.add_triple(Triple("a", "r", "b"))
    result = personalized_pagerank(g, {"a": 1.0}, cfg)
    oracle = _dense_ppr_oracle(g, "a", 0.85)
    assert sum(abs(result.scores[e] - oracle[e]) for e in oracle) < 1e-8
    assert abs(sum(result.scores.values()) - 1.0) < 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _passed(1, "pagerank oracle agreement")


def test_criterion_2_attention_gradient_check():
    start = time.monotonic()
    for seed in range(20):
        params = init_params(8, heads=2, seed=seed)
        rng = np.random.default_rng(10000 + seed)
        ex = RMExample(
            query_vec=rng.standard_normal(8),
            kgs=rng.standard_normal(8),
            target=float(rng.uniform(0, 1)),
        )
        err = grad_check(params, ex, 1e-5)
        assert err < 1e-4, f"seed {seed}: rel err {err}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _passed(2, "attention gradient check")


def _hash_sim(a: str, b: str) -> float:
    key = (a, b) if a <= b else (b, a)
    return random.Random(f"{key[0]}~{key[1]}").random()


def test_criterion_4_subgraph_oracles():
    rng = random.Random(4004)
    pr_cfg = PageRankConfig(max_iters=100000, tolerance=1e-13)
    for _ in range(50):
        g = _random_weighted_graph(rng, max_nodes=14)
        center = rng.choice(sorted(g.entities))
        k = rng.randint(1, 5)

        # one-hop: brute-force neighbor sort
        sg = one_hop_subgraph(g, center, k, _hash_sim)
        neighbors = {t.tail for t in g.triples if t.head == center} | {
            t.head for t in g.triples if t.tail == center
        }
        neighbors.discard(center)
        expected = set(sorted(neighbors, key=lambda e: (-_hash_sim(center, e), e))[:k])
        assert sg.members == {center, *expected}

        # pagerank: brute-force top-k of the oracle scores
        pr_sg = pagerank_subgraph(g, center, k, pr_cfg)
        oracle = _dense_ppr_oracle(g, center, 0.85)
        pr_expected = sorted(
            (e for e in oracle if e != center), key=lambda e: (-oracle[e], e)
        )[:k]
        assert pr_sg.members == {center, *pr_expected}

        # multi-hop: exhaustive 2-hop path enumeration
        mh = multi_hop_subgraph(g, center, k, _hash_sim)
        bridges = sorted(neighbors, key=lambda e: (-_hash_sim(center, e), e))[:2]
        second = set()
        for b in bridges:
            second |= {t.tail for t in g.triples if t.head == b}
            second |= {t.head for t in g.triples if t.tail == b}
        second -= {center, *bridges}
        chosen = sorted(second, key=lambda e: (-_hash_sim(center, e), e))[:k]
        assert mh.members == {center, *bridges, *chosen}
    _passed(4, "subgraph construction oracles")


def test_criterion_5_fusion_contract():
    rng = random.Random(5005)
    embed = StubModelClient(dim=64, seed=5).embed
    names = [f"node{i}" for i in range(10)]
    for trial in range(60):
        subgraphs = []
        for kind in ("onehop", "multihop", "pagerank"):
            keys = sorted(
                {
                    (rng.choice(names), f"rel{rng.randint(0, 4)}", rng.choice(names))
                    for _ in range(rng.randint(0, 6))
                }
            )
            triples = [Triple(*key) for key in keys]
            members = {"node0"} | {e for t in triples for e in (t.head, t.tail)}
            subgraphs.append(
                Subgraph(center="node0", triples=triples, members=members, path_kind=kind)
            )
        scored = [ScoredSubgraph(sg, rng.random()) for sg in subgraphs]
        q_vec = embed("query about " + rng.choice(names))
        cfg = FusionConfig(strategy="rm_fusion")  # threshold derived per trial
        result = fuse(scored, q_vec, cfg, embed)

        base = select_max(scored).subgraph
        assert {t.key for t in result.fused.triples} >= {t.key for t in base.triples}
        for t in result.selected:
            assert triple_similarity(t, q_vec, embed) >= result.threshold_used

    # all_fusion is independent of presentation order
    fixed = [
        ScoredSubgraph(
            Subgraph(
                center="node0",
                triples=[Triple("node0", "r", "node1"), Triple("node1", "r", "node2")],
                members={"node0", "node1", "node2"},
                path_kind="onehop",
            ),
            0.8,
        ),
        ScoredSubgraph(
            Subgraph(
                center="node0",
                triples=[Triple("node3", "r", "node4")],
                members={"node0", "node3", "node4"},
                path_kind="multihop",
            ),
            0.5,
        ),
        ScoredSubgraph(
            Subgraph(
                center="node0",
                triples=[Triple("node5", "r", "node6")],
                members={"node0", "node5", "node6"},
                path_kind="pagerank",
            ),
            0.2,
        ),
    ]
    cfg = FusionConfig(strategy="all_fusion")
    reference = fuse(fixed, embed("q"), cfg, embed)
    for perm in itertools.permutations(fixed):
        result = fuse(list(perm), embed("q"), cfg, embed)
        assert {t.key for t in result.fused.triples} == {
            t.key for t in reference.fused.triples
        }
    _passed(5, "fusion contract")


def test_criterion_6_reward_model_separability_and_reproducibility():
    embed = StubModelClient(dim=16, seed=6).embed
    examples = [
        RMTrainingExample("where does the river bend", "river bends_at stonegap", 1.0),
        RMTrainingExample("where does the river bend", "bakery sells rye loaves", 0.0),
        RMTrainingExample("who tends the orchard", "gardener tends orchard", 1.0),
        RMTrainingExample("who tends the orchard", "miners dig deep shafts", 0.0),
    ]
    params = train_rm(examples, epochs=500, lr=0.5, embedder=embed, seed=60, heads=4)

    def to_subgraph(text: str) -> Subgraph:
        h, r, t = text.split(" ", 2)  # tail may contain spaces; bag embedding is unaffected
        return Subgraph(
            center=h, triples=[Triple(h, r, t)], members={h, t}, path_kind="pagerank"
        )

    by_query: dict = {}
    for ex in examples:
        by_query.setdefault(ex.query, {})[ex.target] = ex.subgraph_text
    for query, pair in by_query.items():
        good = score(query, to_subgraph(pair[1.0]), params, embed)
        bad = score(query, to_subgraph(pair[0.0]), params, embed)
        assert good > bad, f"{query}: {good} <= {bad}"

    again = train_rm(examples, epochs=500, lr=0.5, embedder=embed, seed=60, heads=4)
    for name in ("w_q", "w_k", "w_v", "w_o", "head_w"):
        assert np.array_equal(getattr(params, name), getattr(again, name))
    assert params.head_b == again.head_b
    _passed(6, "reward model separability and reproducibility")


# ---------------------------------------------------------------------------
# constructed end-to-end corpus: 20 queries over 50 chunks, 10 of them
# answerable only through a 2-hop graph path
# ---------------------------------------------------------------------------

def _build_recall_world():
    g = KnowledgeGraph()
    chunks: dict[str, Chunk] = {}
    queries = []  # (query, gold_id, kg_dependent)
    entity_table: dict[str, list[str]] = {}
    rerank_table: dict[tuple[str, str], float] = {}

    for i in range(10):
        a, b, z = f"keystone{i}", f"midpoint{i}", f"farpoint{i}"
        g.add_triple(Triple(a, "near", b))
        g.add_triple(Triple(b, "is_famous_for", z))
        query = f"what is {a} famous for"
        gold_id = f"kg_gold_{i}"
        # Shares tokens with the 2-hop expansion items but none with the query.
        gold_text = f"{z} fairs show {z} pottery and {z} glasswork"
        chunks[gold_id] = Chunk(gold_id, gold_text)
        queries.append((query, gold_id, True))
        entity_table[query] = [a]
        rerank_table[(query, gold_text)] = 5.0

    for j in range(10):
        e, o = f"easytown{j}", f"outpost{j}"
        g.add_triple(Triple(e, "near", o))
        query = f"describe the markets of {e}"
        gold_id = f"easy_gold_{j}"
        gold_text = f"{e} markets sell copper pans beside {e} spice stalls"
        chunks[gold_id] = Chunk(gold_id, gold_text)
        queries.append((query, gold_id, False))
        entity_table[query] = [e]
        rerank_table[(query, gold_text)] = 5.0

    # Fillers use per-chunk unique tokens so no pair of chunks is correlated.
    for n in range(30):
        chunks[f"filler_{n:02d}"] = Chunk(
            f"filler_{n:02d}",
            f"relic{n} rests beneath plinth{n} inside alcove{n} hall{n}",
        )

    dim = 512
    client = StubModelClient(
        dim=dim, seed=7, entity_table=entity_table, rerank_table=rerank_table
    )
    ent_index = build_entity_index(g, client.embed, dim)
    doc_index = build_document_index(chunks, client.embed, dim)
    indices = RetrievalIndices(entities=ent_index, documents=doc_index, chunks=chunks)
    params = init_params(dim, heads=32, seed=7)
    cfg = PipelineConfig(stub=True, dim=dim, heads=32, seed=7)
    return g, indices, params, cfg, client, queries


def test_criterion_7_end_to_end_recall_lift():
    start = time.monotonic()
    g, indices, params, cfg, client, queries = _build_recall_world()
    assert len(indices.chunks) == 50
    assert len(queries) == 20

    kg_dependent_base_hits = []
    for query, gold_id, kg_dependent in queries:
        result = run_qmkgf(query, g, indices, params, cfg, client)
        hit, _, _, _ = retrieval_metrics(result.ranked.ids(), {gold_id}, 10)
        assert hit == 1.0, f"pipeline missed gold for {query!r}"

        if kg_dependent:
            base_doc = retrieve(
                ExpandedQuery(query), indices.documents, indices.chunks,
                client.embed, cfg.per_item_k,
            )
            base_ranked = rerank_chunks(query, base_doc, client, cfg.k)
            base_hit, _, _, _ = retrieval_metrics(base_ranked.ids(), {gold_id}, 10)
            kg_dependent_base_hits.append(base_hit)

    base_rate = sum(kg_dependent_base_hits) / len(kg_dependent_base_hits)
    assert base_rate <= 0.5, f"base-only hit rate {base_rate} on 2-hop queries"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _passed(7, f"end-to-end recall lift (base-only hit rate {base_rate:.1f})")


def test_criterion_8_metric_identities_and_monotonicity():
    text = "an identical sentence for every metric"
    assert rouge_1(text, text) == 1.0
    assert rouge_l(text, text) == 1.0
    assert bleu_1(text, text) == 1.0

    # Hand-count oracles, reproduced to 1e-9.
    assert abs(rouge_1("the cat sat", "the cat") - 0.8) < 1e-9
    assert abs(bleu_1("the cat", "the cat sat") - math.exp(-0.5)) < 1e-9
    assert abs(rouge_l("beta alpha", "alpha beta") - 0.5) < 1e-9

    rng = random.Random(8008)
    ids = [f"c{i}" for i in range(15)]
    checked = 0
    while checked < 1000:
        ranking = ids[:]
        rng.shuffle(ranking)
        gold = set(rng.sample(ids, rng.randint(1, 5)))
        k = rng.randint(1, 15)
        positions = [i for i, cid in enumerate(ranking) if cid in gold and i > 0]
        if not positions:
            continue
        i = rng.choice(positions)
        before = retrieval_metrics(ranking, gold, k)
        ranking[i - 1], ranking[i] = ranking[i], ranking[i - 1]
        after = retrieval_metrics(ranking, gold, k)
        assert all(a >= b - 1e-12 for a, b in zip(after, before))
        checked += 1
    _passed(8, "metric identities and monotonicity")


def test_criterion_9_cli_trace_is_byte_identical(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    rows = [
        {"id": "d1", "text": "Ashford lies beside Birchwood"},
        {"id": "d2", "text": "Birchwood guards Cedarfall"},
        {"id": "d3", "text": "granite barges float downstream"},
    ]
    corpus.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    kg_path = tmp_path / "kg.jsonl"
    artifacts = tmp_path / "artifacts"

    # The child runs with cwd=tmp_path, where a relative PYTHONPATH entry
    # such as "src" no longer resolves; put the directory holding the
    # package this process imported first, so the CLI under test is the
    # same code (an installed copy cannot shadow it either).
    package_root = str(Path(qmkgf.__file__).resolve().parent.parent)
    pythonpath = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    base_env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}

    def run(args, **extra_env):
        proc = subprocess.run(
            [sys.executable, "-m", "qmkgf", *args],
            capture_output=True,
            cwd=tmp_path,
            env={**base_env, **extra_env},
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    run(["build-kg", str(corpus), str(kg_path), "--stub", "--seed", "7"])
    run(["index", str(kg_path), str(corpus), str(artifacts), "--stub", "--seed", "7"])
    # Each query run gets its own hash seed, so byte-identity holds across
    # string-hash randomisation even when the parent pins PYTHONHASHSEED.
    outputs = {
        run(
            ["query", "what guards Cedarfall", "--artifacts", str(artifacts),
             "--stub", "--seed", "7", "--trace"],
            PYTHONHASHSEED=hash_seed,
        )
        for hash_seed in ("0", "1", "2")
    }
    assert len(outputs) == 1, "trace output differed across runs"
    _passed(9, "stub-mode query trace byte-identical")


def test_criterion_10_shipped_defaults():
    cfg = PipelineConfig()
    assert cfg.K == 10
    assert cfg.heads == 32
    assert cfg.damping == 0.85
    assert cfg.temperature == 0.0
    _passed(10, "shipped configuration defaults")
