import random

import numpy as np
import pytest

from qmkgf.errors import NotFoundError, UndefinedSimilarityError, ValidationError
from qmkgf.kg import KnowledgeGraph, Triple
from qmkgf.subgraphs import (
    PageRankConfig,
    Subgraph,
    dump_subgraph,
    multi_hop_subgraph,
    one_hop_subgraph,
    pagerank_subgraph,
    personalization_vector,
    personalized_pagerank,
    ranked_neighbors,
    similarity_from_index,
)
from qmkgf.vectors import VectorIndex, cosine


def _hash_sim(a: str, b: str) -> float:
    """Deterministic pseudo-random similarity in [0, 1], symmetric."""
    key = (a, b) if a <= b else (b, a)
    return random.Random(f"{key[0]}|{key[1]}").random()


def dense_ppr_oracle(g: KnowledgeGraph, p: dict, damping: float, iters: int = 5000,
                     tol: float = 1e-14) -> dict:
    """Independent oracle: dense transition matrix plus explicit power iteration."""
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
    for e, mass in p.items():
        pvec[pos[e]] = mass
    s = pvec.copy()
    for _ in range(iters):
        s_new = (1 - damping) * pvec + damping * (T.T @ s + s[dangling].sum() * pvec)
        if np.abs(s_new - s).sum() < tol:
            s = s_new
            break
        s = s_new
    return {e: float(s[pos[e]]) for e in ids}


def _random_graph(rng: random.Random, max_nodes: int = 12, max_edges: int = 40) -> KnowledgeGraph:
    g = KnowledgeGraph()
    names = [f"n{i:02d}" for i in range(rng.randint(2, max_nodes))]
    for name in names:
        g.add_entity(name)
    for _ in range(rng.randint(1, max_edges)):
        h, t = rng.choice(names), rng.choice(names)
        g.add_triple(Triple(h, f"r{rng.randint(0, 2)}", t, weight=rng.uniform(0.2, 4.0)))
    return g


# ---------------------------------------------------------------------------
# one-hop
# ---------------------------------------------------------------------------

def test_one_hop_star_k_exceeds_degree():
    g = KnowledgeGraph()
    for leaf in ("a", "b", "c"):
        g.add_triple(Triple("e", "r", leaf))
    sg = one_hop_subgraph(g, "e", 10, _hash_sim)
    assert sg.members == {"e", "a", "b", "c"}
    assert sg.path_kind == "onehop"
    assert len(sg.triples) == 3


def test_one_hop_selects_highest_similarity_neighbors():
    g = KnowledgeGraph()
    for leaf in ("a", "b", "c", "d", "f"):
        g.add_triple(Triple("e", "r", leaf))
    sg = one_hop_subgraph(g, "e", 2, _hash_sim)
    # Brute-force oracle: sort all neighbors by similarity, take 2.
    expected = sorted(("a", "b", "c", "d", "f"), key=lambda x: (-_hash_sim("e", x), x))[:2]
    assert sg.members == {"e", *expected}


def test_one_hop_isolated_center():
    g = KnowledgeGraph()
    g.add_entity("e")
    sg = one_hop_subgraph(g, "e", 5, _hash_sim)
    assert sg.members == {"e"}
    assert sg.triples == []


def test_one_hop_uses_both_directions():
    g = KnowledgeGraph()
    g.add_triple(Triple("x", "r", "e"))
    g.add_triple(Triple("e", "r", "y"))
    sg = one_hop_subgraph(g, "e", 10, _hash_sim)
    assert sg.members == {"e", "x", "y"}


def test_one_hop_unknown_entity():
    g = KnowledgeGraph()
    g.add_entity("a")
    with pytest.raises(NotFoundError):
        one_hop_subgraph(g, "zz", 3, _hash_sim)


def test_one_hop_matches_brute_force_on_random_graphs():
    rng = random.Random(99)
    for _ in range(50):
        g = _random_graph(rng)
        center = rng.choice(sorted(g.entities))
        k = rng.randint(1, 6)
        sg = one_hop_subgraph(g, center, k, _hash_sim)
        neighbor_ids = {t.tail for t in g.triples if t.head == center} | {
            t.head for t in g.triples if t.tail == center
        }
        neighbor_ids.discard(center)
        expected = set(
            sorted(neighbor_ids, key=lambda e: (-_hash_sim(center, e), e))[:k]
        )
        assert sg.members == {center, *expected}
        # Path triples: every triple joining the center to a chosen neighbour.
        path_triples = [
            t for t in g.triples
            if (t.head == center and t.tail in expected) or (t.tail == center and t.head in expected)
        ]
        assert sg.triples == sorted(path_triples, key=lambda t: t.key)
        sg.validate()


# ---------------------------------------------------------------------------
# multi-hop
# ---------------------------------------------------------------------------

def test_multi_hop_single_chain():
    g = KnowledgeGraph()
    g.add_triple(Triple("e", "r", "a"))
    g.add_triple(Triple("a", "r", "b"))
    sg = multi_hop_subgraph(g, "e", 10, _hash_sim)
    assert sg.members == {"e", "a", "b"}
    assert {t.key for t in sg.triples} == {("e", "r", "a"), ("a", "r", "b")}


def test_multi_hop_single_neighbor_used_as_sole_bridge():
    g = KnowledgeGraph()
    g.add_triple(Triple("e", "r", "only"))
    g.add_triple(Triple("only", "r", "x"))
    g.add_triple(Triple("only", "r", "y"))
    sg = multi_hop_subgraph(g, "e", 10, _hash_sim)
    assert sg.members == {"e", "only", "x", "y"}


def test_multi_hop_isolated_center_degenerate():
    g = KnowledgeGraph()
    g.add_entity("e")
    sg = multi_hop_subgraph(g, "e", 4, _hash_sim)
    assert sg.members == {"e"}
    assert sg.triples == []


def _multi_hop_oracle(g: KnowledgeGraph, center: str, k: int, sim) -> set:
    """Exhaustive 2-hop path enumeration under the bridge selection rule."""
    neighbors = {t.tail for t in g.triples if t.head == center} | {
        t.head for t in g.triples if t.tail == center
    }
    neighbors.discard(center)
    bridges = sorted(neighbors, key=lambda e: (-sim(center, e), e))[:2]
    if not bridges:
        return {center}
    second = set()
    for b in bridges:
        second |= {t.tail for t in g.triples if t.head == b}
        second |= {t.head for t in g.triples if t.tail == b}
    second -= {center, *bridges}
    chosen = sorted(second, key=lambda e: (-sim(center, e), e))[:k]
    return {center, *bridges, *chosen}


def test_multi_hop_two_level_tree_matches_path_oracle():
    g = KnowledgeGraph()
    for i, mid in enumerate(("m1", "m2", "m3")):
        g.add_triple(Triple("e", "r", mid))
        for j in range(3):
            g.add_triple(Triple(mid, "r", f"leaf{i}{j}"))
    sg = multi_hop_subgraph(g, "e", 2, _hash_sim)
    assert sg.members == _multi_hop_oracle(g, "e", 2, _hash_sim)
    sg.validate()


def test_multi_hop_matches_oracle_on_random_graphs():
    rng = random.Random(314)
    for _ in range(50):
        g = _random_graph(rng)
        center = rng.choice(sorted(g.entities))
        k = rng.randint(1, 5)
        sg = multi_hop_subgraph(g, center, k, _hash_sim)
        assert sg.members == _multi_hop_oracle(g, center, k, _hash_sim)
        # Triples lie on center-bridge or bridge-leaf connections only.
        for t in sg.triples:
            ends = {t.head, t.tail}
            assert ends <= sg.members
        sg.validate()


def test_multi_hop_triples_are_exactly_the_path_triples_on_random_graphs():
    """Every triple joining the center to a bridge or a bridge to a chosen
    leaf, in key order, found by scanning the whole triple list."""
    rng = random.Random(2718)
    for _ in range(80):
        g = _random_graph(rng, max_edges=60)
        center = rng.choice(sorted(g.entities))
        k = rng.randint(1, 6)
        sg = multi_hop_subgraph(g, center, k, _hash_sim)
        neighbors = {t.tail for t in g.triples if t.head == center}
        neighbors |= {t.head for t in g.triples if t.tail == center}
        neighbors.discard(center)
        bridges = set(sorted(neighbors, key=lambda e: (-_hash_sim(center, e), e))[:2])
        leaves = sg.members - bridges - {center}
        on_path = [
            t for t in g.triples
            if any({t.head, t.tail} == {b, end} for b in bridges for end in leaves | {center})
        ]
        assert sg.triples == sorted(on_path, key=lambda t: t.key)


# ---------------------------------------------------------------------------
# personalization + pagerank
# ---------------------------------------------------------------------------

def test_personalization_vector_point_mass():
    p = personalization_vector("A")
    assert p == {"A": 1.0}
    assert sum(p.values()) == 1.0
    assert p.get("B", 0.0) == 0.0


def test_pagerank_single_node_no_edges():
    g = KnowledgeGraph()
    g.add_entity("solo")
    result = personalized_pagerank(g, personalization_vector("solo"))
    assert result.scores == {"solo": pytest.approx(1.0, abs=1e-9)}
    assert result.converged


def test_pagerank_two_node_cycle_matches_oracle():
    g = KnowledgeGraph()
    g.add_triple(Triple("A", "r", "B"))
    g.add_triple(Triple("B", "r", "A"))
    cfg = PageRankConfig(damping=0.85, max_iters=10000, tolerance=1e-12)
    result = personalized_pagerank(g, personalization_vector("A"), cfg)
    oracle = dense_ppr_oracle(g, {"A": 1.0}, 0.85)
    for e in oracle:
        assert result.scores[e] == pytest.approx(oracle[e], abs=1e-10)


def test_pagerank_scores_sum_to_one_on_random_graphs():
    rng = random.Random(2718)
    for _ in range(30):
        g = _random_graph(rng)
        center = rng.choice(sorted(g.entities))
        result = personalized_pagerank(g, personalization_vector(center))
        assert sum(result.scores.values()) == pytest.approx(1.0, abs=1e-6)
        assert all(s >= 0.0 for s in result.scores.values())


def test_pagerank_dangling_mass_redistributed():
    g = KnowledgeGraph()
    g.add_triple(Triple("A", "r", "sink"))  # sink has no out-edges
    cfg = PageRankConfig(max_iters=10000, tolerance=1e-12)
    result = personalized_pagerank(g, personalization_vector("A"), cfg)
    oracle = dense_ppr_oracle(g, {"A": 1.0}, 0.85)
    assert sum(result.scores.values()) == pytest.approx(1.0, abs=1e-9)
    for e in oracle:
        assert result.scores[e] == pytest.approx(oracle[e], abs=1e-10)


def test_pagerank_low_damping_concentrates_on_center():
    rng = random.Random(5)
    g = KnowledgeGraph()
    names = [f"n{i}" for i in range(8)]
    # strongly connected ring plus chords, uniform weights
    for i, name in enumerate(names):
        g.add_triple(Triple(name, "r", names[(i + 1) % len(names)], weight=1.0))
        g.add_triple(Triple(name, "r", names[(i + 3) % len(names)], weight=1.0))
    _ = rng
    cfg = PageRankConfig(damping=0.05, max_iters=1000, tolerance=1e-12)
    result = personalized_pagerank(g, personalization_vector("n0"), cfg)
    assert all(result.scores["n0"] >= s for s in result.scores.values())


def test_pagerank_nonconverged_flagged():
    g = KnowledgeGraph()
    g.add_triple(Triple("A", "r", "B"))
    g.add_triple(Triple("B", "r", "A"))
    cfg = PageRankConfig(max_iters=1, tolerance=1e-15)
    result = personalized_pagerank(g, personalization_vector("A"), cfg)
    assert not result.converged
    assert result.iterations == 1


def test_pagerank_empty_graph_rejected():
    with pytest.raises(ValidationError):
        personalized_pagerank(KnowledgeGraph(), {"A": 1.0})


def test_pagerank_personalization_must_sum_to_one():
    g = KnowledgeGraph()
    g.add_entity("A")
    with pytest.raises(ValidationError):
        personalized_pagerank(g, {"A": 0.5})


# ---------------------------------------------------------------------------
# pagerank subgraph
# ---------------------------------------------------------------------------

def test_pagerank_subgraph_star_includes_whole_star():
    g = KnowledgeGraph()
    for leaf in ("a", "b", "c"):
        g.add_triple(Triple("e", "r", leaf))
    sg = pagerank_subgraph(g, "e", 5)
    assert sg.members == {"e", "a", "b", "c"}
    assert len(sg.triples) == 3


def test_pagerank_subgraph_k_zero_center_only():
    g = KnowledgeGraph()
    g.add_triple(Triple("e", "r", "a"))
    sg = pagerank_subgraph(g, "e", 0)
    assert sg.members == {"e"}
    assert sg.triples == []


def test_pagerank_subgraph_matches_oracle_top_k():
    rng = random.Random(1618)
    for _ in range(20):
        g = _random_graph(rng, max_nodes=10, max_edges=25)
        center = rng.choice(sorted(g.entities))
        cfg = PageRankConfig(max_iters=10000, tolerance=1e-13)
        sg = pagerank_subgraph(g, center, 3, cfg)
        oracle = dense_ppr_oracle(g, {center: 1.0}, 0.85)
        expected = sorted(
            (e for e in oracle if e != center), key=lambda e: (-oracle[e], e)
        )[:3]
        assert sg.members == {center, *expected}
        sg.validate()
    assert sg.node_scores is not None
    assert sum(sg.node_scores.values()) == pytest.approx(1.0, abs=1e-6)


def _assert_ppr_matches_oracle(g: KnowledgeGraph, center: str) -> None:
    cfg = PageRankConfig(max_iters=10000, tolerance=1e-13)
    result = personalized_pagerank(g, personalization_vector(center), cfg)
    oracle = dense_ppr_oracle(g, {center: 1.0}, 0.85)
    assert result.scores.keys() == oracle.keys()
    for e in oracle:
        assert result.scores[e] == pytest.approx(oracle[e], abs=1e-10)
    sg = pagerank_subgraph(g, center, 2, cfg)
    expected = sorted((e for e in oracle if e != center), key=lambda e: (-oracle[e], e))[:2]
    assert sg.members == {center, *expected}
    assert sg.node_scores == result.scores


def test_pagerank_follows_graph_changes_after_a_run():
    g = KnowledgeGraph()
    g.add_triple(Triple("A", "r", "B"))
    g.add_triple(Triple("A", "r", "C"))
    g.add_triple(Triple("C", "r", "A"))
    _assert_ppr_matches_oracle(g, "A")
    g.add_triple(Triple("B", "r", "D", weight=2.0))
    _assert_ppr_matches_oracle(g, "A")
    g.add_entity("isolated")
    _assert_ppr_matches_oracle(g, "A")
    _assert_ppr_matches_oracle(g, "isolated")
    # A merge that raises A -r-> B's weight shifts A's out-edge shares.
    before = personalized_pagerank(g, personalization_vector("A")).scores
    g.add_triple(Triple("A", "r", "B", weight=5.0))
    _assert_ppr_matches_oracle(g, "A")
    assert personalized_pagerank(g, personalization_vector("A")).scores["B"] > before["B"]


def test_pagerank_subgraph_tied_leaves_chosen_by_ascending_id():
    g = KnowledgeGraph()
    leaves = ["q", "c", "m", "a", "x"]
    for leaf in leaves:
        g.add_triple(Triple("e", "r", leaf))
        g.add_triple(Triple(leaf, "r", "e"))
    sg = pagerank_subgraph(g, "e", 2)
    assert len({sg.node_scores[leaf] for leaf in leaves}) == 1
    assert sg.members == {"e", "a", "c"}
    assert sg.sorted_triples() == [
        Triple("a", "r", "e"), Triple("c", "r", "e"), Triple("e", "r", "a"), Triple("e", "r", "c"),
    ]


def test_dump_subgraph_format():
    g = KnowledgeGraph()
    g.add_triple(Triple("a", "r", "b", weight=2.0))
    sg = one_hop_subgraph(g, "a", 3, _hash_sim)
    dump = dump_subgraph(sg)
    lines = dump.strip().split("\n")
    assert '"center": "a"' in lines[0]
    assert '"path_kind": "onehop"' in lines[0]
    assert len(lines) == 2


def test_subgraph_validate_rejects_breaches():
    bad = Subgraph(center="x", triples=[], members={"y"}, path_kind="onehop")
    with pytest.raises(ValidationError):
        bad.validate()
    stray = Subgraph(
        center="x",
        triples=[Triple("a", "r", "b")],
        members={"x", "a", "b"},
        path_kind="onehop",
    )
    with pytest.raises(ValidationError):
        stray.validate()  # a-b not reachable from x


# ---------------------------------------------------------------------------
# exact-work PageRank against the full-vector power loop
# ---------------------------------------------------------------------------

def full_update_ppr(g: KnowledgeGraph, p: dict, cfg: PageRankConfig):
    """Bitwise oracle: the power loop that updates every node with the full
    formula, sums dangling mass through a boolean mask and returns a dict.
    Returns (scores, converged, iterations)."""
    ids, pos, src, dst, norm_w, dangling = g.compiled()
    n = len(ids)
    pvec = np.zeros(n)
    for entity, mass in p.items():
        pvec[pos[entity]] = mass
    d = cfg.damping
    scores = pvec.copy()
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        incoming = np.bincount(dst, weights=scores[src] * norm_w, minlength=n)
        dangling_mass = float(scores[dangling].sum())
        new_scores = (1.0 - d) * pvec + d * (incoming + dangling_mass * pvec)
        delta = float(np.abs(new_scores - scores).sum())
        scores = new_scores
        if delta < cfg.tolerance:
            converged = True
            break
    return dict(zip(ids, scores.tolist())), converged, iterations


def _assert_bitwise_equal_to_full_update(g: KnowledgeGraph, p: dict, cfg: PageRankConfig) -> None:
    expected, converged, iterations = full_update_ppr(g, p, cfg)
    result = personalized_pagerank(g, p, cfg)
    assert {e: s.hex() for e, s in result.scores.items()} == {
        e: s.hex() for e, s in expected.items()
    }
    assert (result.converged, result.iterations) == (converged, iterations)


def _random_personalization(rng: random.Random, g: KnowledgeGraph, size: int) -> dict:
    chosen = rng.sample(sorted(g.entities), min(size, len(g.entities)))
    if len(chosen) == 1:
        return {chosen[0]: 1.0}
    # Dyadic masses sum to exactly 1.0.
    masses = [0.5 ** (i + 1) for i in range(len(chosen) - 1)]
    masses.append(masses[-1])
    return dict(zip(chosen, masses))


def test_ppr_is_bitwise_equal_to_full_update_oracle():
    rng = random.Random(4242)
    dangling_graphs = 0
    for trial in range(120):
        g = _random_graph(rng, max_nodes=14, max_edges=30)
        dangling_graphs += int(g.compiled()[5].any())
        p = _random_personalization(rng, g, rng.randint(1, 4))
        cfg = PageRankConfig(
            damping=rng.choice([0.5, 0.85, 0.95]),
            max_iters=rng.choice([1, 3, 100]),
            tolerance=rng.choice([1e-8, 1e-13]),
        )
        _assert_bitwise_equal_to_full_update(g, p, cfg)
    assert dangling_graphs > 30


def test_ppr_dangling_nodes_and_multi_entry_p_bitwise():
    g = KnowledgeGraph()
    g.add_triple(Triple("A", "r", "B", weight=2.0))
    g.add_triple(Triple("A", "r", "sink1"))
    g.add_triple(Triple("B", "r", "sink2", weight=0.5))
    g.add_triple(Triple("B", "r", "A"))
    g.add_entity("isolated")
    cfg = PageRankConfig(max_iters=1000, tolerance=1e-13)
    for p in ({"A": 1.0}, {"sink1": 1.0}, {"isolated": 1.0},
              {"A": 0.5, "sink2": 0.25, "isolated": 0.25}, {"A": 0.5, "B": 0.5, "sink1": 0.0}):
        _assert_bitwise_equal_to_full_update(g, p, cfg)


@pytest.mark.parametrize("names", [["solo"], ["a", "b", "c"]])
def test_ppr_edgeless_graphs_bitwise(names):
    # bincount over no edges returns int64 zeros; the update must still
    # produce float scores equal to the full formula's.
    g = KnowledgeGraph()
    for name in names:
        g.add_entity(name)
    cfg = PageRankConfig()
    _assert_bitwise_equal_to_full_update(g, {names[0]: 1.0}, cfg)
    if len(names) == 3:
        _assert_bitwise_equal_to_full_update(g, {"a": 0.5, "c": 0.5}, cfg)
    result = personalized_pagerank(g, {names[0]: 1.0}, cfg)
    assert result.scores.array.dtype == np.float64
    sg = pagerank_subgraph(g, names[0], 2, cfg)
    assert sg.members == set(names)
    assert sg.triples == []


def test_ppr_rejects_nan_personalization_mass():
    g = KnowledgeGraph()
    g.add_triple(Triple("A", "r", "B"))
    with pytest.raises(ValidationError):
        personalized_pagerank(g, {"A": float("nan"), "B": 1.0})


def test_ppr_scores_are_a_read_only_sorted_mapping():
    g = KnowledgeGraph()
    for h, t in (("m", "b"), ("b", "z"), ("z", "m"), ("m", "a")):
        g.add_triple(Triple(h, "r", t))
    cfg = PageRankConfig(max_iters=200, tolerance=1e-12)
    result = personalized_pagerank(g, {"m": 1.0}, cfg)
    expected, _, _ = full_update_ppr(g, {"m": 1.0}, cfg)
    scores = result.scores
    assert len(scores) == 4
    assert list(scores) == ["a", "b", "m", "z"]
    assert scores == expected and expected == scores
    assert dict(scores) == expected
    assert all(type(s) is float for s in scores.values())
    assert "m" in scores and "ghost" not in scores
    with pytest.raises(KeyError):
        scores["ghost"]
    with pytest.raises(TypeError):
        scores["m"] = 0.0  # type: ignore[index]
    with pytest.raises(ValueError):
        scores.array[0] = 0.0
    # A later mutation of the graph does not change an earlier result.
    g.add_triple(Triple("a", "r", "new"))
    assert dict(scores) == expected and len(scores) == 4


def test_pagerank_subgraph_dump_bytes_match_dict_scores():
    rng = random.Random(99)
    cfg = PageRankConfig(max_iters=100, tolerance=1e-8)
    for _ in range(15):
        g = _random_graph(rng, max_nodes=12, max_edges=25)
        center = rng.choice(sorted(g.entities))
        sg = pagerank_subgraph(g, center, 3, cfg)
        expected, _, _ = full_update_ppr(g, {center: 1.0}, cfg)
        as_dict = Subgraph(sg.center, sg.triples, sg.members, sg.path_kind, node_scores=expected)
        assert dump_subgraph(sg).encode() == dump_subgraph(as_dict).encode()


# ---------------------------------------------------------------------------
# ranking once and the similarity memo
# ---------------------------------------------------------------------------

def test_builders_given_ranked_neighbors_match_their_own_ranking():
    rng = random.Random(77)
    for _ in range(20):
        g = _random_graph(rng, max_nodes=12, max_edges=30)
        center = rng.choice(sorted(g.entities))
        ranked = ranked_neighbors(g, center, _hash_sim)
        for build in (one_hop_subgraph, multi_hop_subgraph):
            assert build(g, center, 3, _hash_sim, ranked) == build(g, center, 3, _hash_sim)


def _index_of(vectors: dict) -> VectorIndex:
    index = VectorIndex(len(next(iter(vectors.values()))), kind="entity")
    for key, vec in vectors.items():
        index.add(key, vec)
    return index


def test_similarity_from_index_is_bitwise_cosine():
    rng = np.random.default_rng(8)
    vectors = {f"e{i}": rng.standard_normal(16) * rng.uniform(1e-3, 1e3) for i in range(12)}
    vectors["twin"] = vectors["e0"] * 3.0
    embedded = {"fresh": rng.standard_normal(16)}
    calls = []

    def embed(text):
        calls.append(text)
        return embedded[text]

    sim = similarity_from_index(_index_of(vectors), embed)
    everything = {**vectors, **embedded}
    for a in everything:
        for b in everything:
            assert sim(a, b).hex() == cosine(everything[a], everything[b]).hex()
    assert calls == ["fresh"]


def test_similarity_from_index_raises_on_every_use_of_a_bad_vector():
    vectors = {"ok": np.ones(3), "zero": np.zeros(3), "huge": np.full(3, 1e200)}
    embedded = {"short": np.ones(2), "nan": np.array([1.0, float("nan"), 0.0])}
    sim = similarity_from_index(_index_of(vectors), embedded.__getitem__)
    for _ in range(2):
        with pytest.raises(UndefinedSimilarityError):
            sim("ok", "zero")
        with pytest.raises(ValidationError, match="overflows"):
            sim("huge", "ok")
        with pytest.raises(ValidationError, match="dimension mismatch"):
            sim("ok", "short")
        with pytest.raises(ValidationError, match="finite"):
            sim("nan", "ok")
