import random

import numpy as np
import pytest

from qmkgf.errors import NotFoundError, UndefinedSimilarityError, ValidationError
from qmkgf.kg import KnowledgeGraph, Triple, save as save_kg
from qmkgf.subgraphs import (
    PageRankConfig,
    Subgraph,
    dump_subgraph,
    multi_hop_subgraph,
    one_hop_subgraph,
    pagerank_subgraph,
    personalized_pagerank,
    ranked_neighbors,
    similarity_from_index,
)
from qmkgf.vectors import cosine
from test_vectors import index_from


def _hash_sim(a: str, b: str) -> float:
    """Deterministic pseudo-random similarity in [0, 1], symmetric."""
    key = (a, b) if a <= b else (b, a)
    return random.Random(f"{key[0]}|{key[1]}").random()


def dense_ppr_oracle(g: KnowledgeGraph, p: dict, damping: float, iters: int = 5000) -> dict:
    """Independent oracle: dense transition matrix plus explicit power
    iteration, until one step moves the scores by less than 1e-14 (L1) or
    after ``iters`` steps. The acceptance criteria use it too."""
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
        if np.abs(s_new - s).sum() < 1e-14:
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
# pagerank
# ---------------------------------------------------------------------------

def test_pagerank_single_node_no_edges():
    g = KnowledgeGraph()
    g.add_entity("solo")
    result = personalized_pagerank(g, "solo")
    assert result.scores == {"solo": pytest.approx(1.0, abs=1e-9)}
    assert result.converged


def test_pagerank_two_node_cycle_matches_oracle():
    g = KnowledgeGraph()
    g.add_triple(Triple("A", "r", "B"))
    g.add_triple(Triple("B", "r", "A"))
    cfg = PageRankConfig(damping=0.85, max_iters=10000, tolerance=1e-12)
    result = personalized_pagerank(g, "A", cfg)
    oracle = dense_ppr_oracle(g, {"A": 1.0}, 0.85)
    for e in oracle:
        assert result.scores[e] == pytest.approx(oracle[e], abs=1e-10)


def test_pagerank_scores_sum_to_one_on_random_graphs():
    rng = random.Random(2718)
    for _ in range(30):
        g = _random_graph(rng)
        center = rng.choice(sorted(g.entities))
        result = personalized_pagerank(g, center)
        assert sum(result.scores.values()) == pytest.approx(1.0, abs=1e-6)
        assert all(s >= 0.0 for s in result.scores.values())


def test_pagerank_dangling_mass_redistributed():
    g = KnowledgeGraph()
    g.add_triple(Triple("A", "r", "sink"))  # sink has no out-edges
    cfg = PageRankConfig(max_iters=10000, tolerance=1e-12)
    result = personalized_pagerank(g, "A", cfg)
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
    result = personalized_pagerank(g, "n0", cfg)
    assert all(result.scores["n0"] >= s for s in result.scores.values())


def test_pagerank_nonconverged_flagged():
    g = KnowledgeGraph()
    g.add_triple(Triple("A", "r", "B"))
    g.add_triple(Triple("B", "r", "A"))
    cfg = PageRankConfig(max_iters=1, tolerance=1e-15)
    result = personalized_pagerank(g, "A", cfg)
    assert not result.converged
    assert result.iterations == 1


def test_pagerank_empty_graph_rejected():
    with pytest.raises(NotFoundError, match="unknown entity: 'A'"):
        personalized_pagerank(KnowledgeGraph(), "A")


def test_pagerank_unknown_centre_raises_not_found():
    g = KnowledgeGraph()
    g.add_triple(Triple("A", "r", "B"))
    with pytest.raises(NotFoundError, match=r"^unknown entity: 'X'$"):
        personalized_pagerank(g, "X")
    with pytest.raises(NotFoundError, match=r"^unknown entity: 'X'$"):
        pagerank_subgraph(g, "X", 2)


def test_ppr_keeps_the_mass_of_out_weights_whose_sum_overflows():
    def graph(weight):
        g = KnowledgeGraph()
        for tail in ("B", "C"):
            g.add_triple(Triple("A", "r", tail, weight))
            g.add_triple(Triple(tail, "r", "A", 1.0))
        g.add_triple(Triple("D", "r", "B", 0.3))  # a finite total keeps its bits
        g.add_triple(Triple("D", "r", "C", 0.7))
        return g

    huge, unit = graph(1e308), graph(1.0)
    assert huge.compiled()[4].tobytes() == unit.compiled()[4].tobytes()
    for center in ("A", "D"):
        got, want = personalized_pagerank(huge, center), personalized_pagerank(unit, center)
        assert got.scores.array.tobytes() == want.scores.array.tobytes()
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert personalized_pagerank(huge, "A").scores["B"] > 0.0


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
    scores = personalized_pagerank(g, center, cfg).scores
    assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)


def _assert_ppr_matches_oracle(g: KnowledgeGraph, center: str) -> None:
    cfg = PageRankConfig(max_iters=10000, tolerance=1e-13)
    result = personalized_pagerank(g, center, cfg)
    oracle = dense_ppr_oracle(g, {center: 1.0}, 0.85)
    assert result.scores.keys() == oracle.keys()
    for e in oracle:
        assert result.scores[e] == pytest.approx(oracle[e], abs=1e-10)
    sg = pagerank_subgraph(g, center, 2, cfg)
    expected = sorted((e for e in oracle if e != center), key=lambda e: (-oracle[e], e))[:2]
    assert sg.members == {center, *expected}
    scores = result.scores
    ranked = sorted((e for e in scores if e != center), key=lambda e: (-scores[e], e))
    assert sg.members == {center, *ranked[:2]}


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
    before = personalized_pagerank(g, "A").scores
    g.add_triple(Triple("A", "r", "B", weight=5.0))
    _assert_ppr_matches_oracle(g, "A")
    assert personalized_pagerank(g, "A").scores["B"] > before["B"]


def test_pagerank_subgraph_tied_leaves_chosen_by_ascending_id():
    g = KnowledgeGraph()
    leaves = ["q", "c", "m", "a", "x"]
    for leaf in leaves:
        g.add_triple(Triple("e", "r", leaf))
        g.add_triple(Triple(leaf, "r", "e"))
    sg = pagerank_subgraph(g, "e", 2)
    scores = personalized_pagerank(g, "e").scores
    assert len({scores[leaf] for leaf in leaves}) == 1
    assert sg.members == {"e", "a", "c"}
    assert sg.triples == [
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


def test_a_triple_has_the_same_line_in_a_graph_file_and_a_subgraph_dump():
    t = Triple("a", "r", "b", weight=2.5, source_chunk="c1")
    g = KnowledgeGraph().add_triple(t)
    sg = Subgraph(center="a", triples=[t], members={"a", "b"}, path_kind="onehop")
    line = '{"head": "a", "relation": "r", "source_chunk": "c1", "tail": "b", "weight": 2.5}'
    assert save_kg(g).decode().splitlines()[1:] == dump_subgraph(sg).splitlines()[1:] == [line]


def test_subgraph_holds_its_triples_in_key_order():
    triples = [Triple("a", "r", "b"), Triple("a", "s", "b"), Triple("b", "r", "a")]
    sg = Subgraph(center="a", triples=triples[::-1], members={"a", "b"}, path_kind="fused")
    assert sg.triples == triples


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


def _assert_bitwise_equal_to_full_update(
    g: KnowledgeGraph, center: str, cfg: PageRankConfig, top: int | None = None
) -> bool:
    """A run's scores are the oracle's after as many iterations; without
    ``top`` its convergence flag is the oracle's too. Returns whether the
    run with ``top`` stopped before the tolerance did."""
    result = personalized_pagerank(g, center, cfg, top=top)
    run = cfg if top is None else PageRankConfig(cfg.damping, result.iterations, cfg.tolerance)
    expected, converged, iterations = full_update_ppr(g, {center: 1.0}, run)
    assert {e: s.hex() for e, s in result.scores.items()} == {
        e: s.hex() for e, s in expected.items()
    }
    assert result.iterations == iterations
    assert result.converged == converged or top is not None
    return result.converged and not converged


def test_ppr_is_bitwise_equal_to_full_update_oracle():
    rng = random.Random(4242)
    dangling_graphs = settled = 0
    for trial in range(120):
        g = _random_graph(rng, max_nodes=14, max_edges=30)
        dangling_graphs += int(g.compiled()[5].any())
        center = rng.choice(sorted(g.entities))
        cfg = PageRankConfig(
            damping=rng.choice([0.5, 0.85, 0.95]),
            max_iters=rng.choice([1, 3, 100]),
            tolerance=rng.choice([1e-8, 1e-13]),
        )
        _assert_bitwise_equal_to_full_update(g, center, cfg)
        settled += _assert_bitwise_equal_to_full_update(g, center, cfg, top=rng.randint(1, 3))
    assert dangling_graphs > 30 and settled > 20


def test_ppr_dangling_nodes_and_multi_entry_p_bitwise():
    # Every entity as the centre: one with out-edges, dangling ones
    # (sink1, sink2) and an isolated one, with and without the settled stop.
    g = KnowledgeGraph()
    g.add_triple(Triple("A", "r", "B", weight=2.0))
    g.add_triple(Triple("A", "r", "sink1"))
    g.add_triple(Triple("B", "r", "sink2", weight=0.5))
    g.add_triple(Triple("B", "r", "A"))
    g.add_entity("isolated")
    cfg = PageRankConfig(max_iters=1000, tolerance=1e-13)
    for center in sorted(g.entities):
        for top in (None, 1, 2):
            _assert_bitwise_equal_to_full_update(g, center, cfg, top)


@pytest.mark.parametrize("names", [["solo"], ["a", "b", "c"]])
def test_ppr_edgeless_graphs_bitwise(names):
    # bincount over no edges returns int64 zeros; the update must still
    # produce float scores equal to the full formula's.
    g = KnowledgeGraph()
    for name in names:
        g.add_entity(name)
    cfg = PageRankConfig()
    for center in names:
        for top in (None, 1):
            _assert_bitwise_equal_to_full_update(g, center, cfg, top)
    result = personalized_pagerank(g, names[0], cfg)
    assert result.scores.array.dtype == np.float64
    sg = pagerank_subgraph(g, names[0], 2, cfg)
    assert sg.members == set(names)
    assert sg.triples == []


def test_ppr_scores_are_a_read_only_sorted_mapping():
    g = KnowledgeGraph()
    for h, t in (("m", "b"), ("b", "z"), ("z", "m"), ("m", "a")):
        g.add_triple(Triple(h, "r", t))
    cfg = PageRankConfig(max_iters=200, tolerance=1e-12)
    result = personalized_pagerank(g, "m", cfg)
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
        scores = personalized_pagerank(g, center, cfg).scores
        assert dump_subgraph(sg, scores).encode() == dump_subgraph(sg, expected).encode()


# ---------------------------------------------------------------------------
# the settled stop (``top``) against the run to tolerance
# ---------------------------------------------------------------------------

def _top_others(result, center: str, k: int) -> set:
    """The k highest-scored entities other than the centre, ties to the smaller id."""
    scores = result.scores
    return set(sorted((e for e in scores if e != center), key=lambda e: (-scores[e], e))[:k])


def _settle_graph(rng: random.Random) -> tuple[KnowledgeGraph, str]:
    """20-300 nodes in one to three disconnected parts, some never a head
    (dangling), plus a hub whose fresh leaves tie: each has the same one
    edge in and out. Returns the graph and the hub."""
    g = KnowledgeGraph()
    names = [f"n{i:03d}" for i in range(rng.randint(20, 300))]
    for name in names:
        g.add_entity(name)
    parts = rng.randint(1, 3)
    groups = [names[i::parts] for i in range(parts)]
    part_of = {name: groups[i % parts] for i, name in enumerate(names)}
    heads = [name for name in names if rng.random() < 0.85]
    for _ in range(len(names) * rng.randint(1, 3)):
        h = rng.choice(heads)
        g.add_triple(Triple(h, f"r{rng.randint(0, 2)}", rng.choice(part_of[h]),
                            weight=rng.choice([0.5, 1.0, 2.0, rng.uniform(0.2, 4.0)])))
    hub = rng.choice(heads)
    for i in range(rng.randint(2, 6)):
        g.add_triple(Triple(hub, "leaf", f"leaf{i}", weight=3.0))
        g.add_triple(Triple(f"leaf{i}", "back", hub, weight=1.0))
    return g, hub


def test_settled_stop_picks_the_top_k_of_the_full_run_on_random_graphs():
    rng = random.Random(1729)
    settled_early = unconverged = boundary_ties = 0
    for trial in range(240):
        g, hub = _settle_graph(rng)
        cfg = PageRankConfig(damping=rng.choice([0.5, 0.85, 0.95]),
                             max_iters=rng.choice([8, 40, 200]))
        k = rng.randint(1, 12)
        center = hub if trial % 3 == 0 else rng.choice(sorted(g.entities))
        full = personalized_pagerank(g, center, cfg)
        settled = personalized_pagerank(g, center, cfg, top=k)
        expected = _top_others(full, center, k)
        assert _top_others(settled, center, k) == expected, trial
        assert pagerank_subgraph(g, center, k, cfg).members == {center, *expected}, trial
        assert settled.iterations <= full.iterations
        assert settled.converged or (settled.iterations, full.converged) == (cfg.max_iters, False)
        settled_early += settled.iterations < full.iterations
        unconverged += not full.converged
        ranked = sorted(full.scores[e] for e in full.scores if e != center)
        boundary_ties += k < len(ranked) and ranked[-k] == ranked[-k - 1]
    assert settled_early > 60 and unconverged > 20 and boundary_ties > 20


@pytest.mark.parametrize("k", [0, 4, 5, 50])
def test_settled_stop_is_skipped_when_top_leaves_no_choice(k):
    # Five entities: the centre and four others, so k >= 4 takes them all.
    g = KnowledgeGraph()
    for h, t, w in (("c", "a", 1.0), ("c", "b", 3.0), ("b", "d", 1.0), ("d", "c", 2.0)):
        g.add_triple(Triple(h, "r", t, weight=w))
    g.add_entity("e")
    cfg = PageRankConfig()
    full = personalized_pagerank(g, "c", cfg)
    got = personalized_pagerank(g, "c", cfg, top=k)
    assert got.scores.array.tobytes() == full.scores.array.tobytes()
    assert (got.iterations, got.converged) == (full.iterations, full.converged)
    assert pagerank_subgraph(g, "c", k, cfg).members == {"c", *_top_others(full, "c", k)}


def test_settled_stop_around_an_isolated_centre_keeps_the_smallest_ids():
    # Every other score is exactly zero, a tie no gap separates.
    g = KnowledgeGraph()
    for h, t in (("b", "a"), ("a", "d"), ("d", "b")):
        g.add_triple(Triple(h, "r", t))
    g.add_entity("iso")
    full = personalized_pagerank(g, "iso")
    settled = personalized_pagerank(g, "iso", top=2)
    assert (settled.iterations, settled.converged) == (full.iterations, full.converged)
    assert pagerank_subgraph(g, "iso", 2).members == {"iso", "a", "b"}


def test_settled_stop_ignores_a_support_entity_between_the_kth_and_next_score():
    # The centre s sends four times as much to y as to l, but l keeps what
    # it gets (a self-loop) and y passes it on, so y still leads l at
    # iteration 5. s ends between them, so the gap that settles the top 1
    # is l's lead over y, first wide enough at iteration 20 of 84. A check
    # that ranked the centre too would read l's smaller lead over s and
    # stop only at iteration 26.
    g = KnowledgeGraph()
    for h, t, w in (("s", "l", 2.0), ("s", "y", 8.0), ("l", "l", 1.0), ("y", "s", 1.0),
                    ("y", "x", 2.0), ("x", "c", 1.0)):
        g.add_triple(Triple(h, "r", t, weight=w))
    cfg = PageRankConfig()
    early = personalized_pagerank(g, "s", PageRankConfig(max_iters=5))
    full = personalized_pagerank(g, "s", cfg)
    assert early.scores["y"] > early.scores["l"]
    assert full.scores["l"] > full.scores["s"] > full.scores["y"]
    settled = personalized_pagerank(g, "s", cfg, top=1)
    assert settled.converged and (settled.iterations, full.iterations) == (20, 84)
    assert _top_others(settled, "s", 1) == _top_others(full, "s", 1) == {"l"}
    assert pagerank_subgraph(g, "s", 1, cfg).members == {"s", "l"}


def test_settled_stop_waits_for_a_late_overtaker():
    # x is reached only through c -> h -> x and feeds itself, so it passes
    # l, c's heaviest direct neighbour, only at iteration 18. At iteration
    # 7 l still leads by more than that iteration's L1 change, so a stop
    # without the d / (1 - d) factor in its radius would pick l.
    g = KnowledgeGraph()
    for h, t, w in (("c", "h", 4.0), ("c", "l", 16.0), ("h", "x", 2.0), ("x", "x", 8.0),
                    ("l", "l", 1.0), ("l", "c", 2.0)):
        g.add_triple(Triple(h, "r", t, weight=w))
    cfg = PageRankConfig()
    early = personalized_pagerank(g, "c", PageRankConfig(max_iters=7))
    full = personalized_pagerank(g, "c", cfg)
    assert early.scores["l"] > early.scores["x"] and full.scores["x"] > full.scores["l"]
    settled = personalized_pagerank(g, "c", cfg, top=1)
    assert settled.converged and 18 < settled.iterations < full.iterations
    assert pagerank_subgraph(g, "c", 1, cfg).members == {"c", "x"}


def test_settled_stop_when_the_centre_reaches_at_most_k_others():
    # c and a form a 2-cycle beside isolated entities. Every other score
    # stays exactly 0, so the k-th and next outside scores tie at 0 and no
    # gap opens, while the cycle's own scores oscillate past max_iters. No
    # entity gains mass after iteration 1, so the zeros are final.
    g = KnowledgeGraph()
    g.add_triple(Triple("c", "r", "a"))
    g.add_triple(Triple("a", "r", "c"))
    for name in ("z1", "z2", "z3"):
        g.add_entity(name)
    cfg = PageRankConfig()
    full = personalized_pagerank(g, "c", cfg)
    assert (full.iterations, full.converged) == (cfg.max_iters, False)
    for k in (1, 2, 3):
        settled = personalized_pagerank(g, "c", cfg, top=k)
        assert settled.converged and settled.iterations <= 12, k
        assert _top_others(settled, "c", k) == _top_others(full, "c", k)
        assert pagerank_subgraph(g, "c", k, cfg).members == {"c", *_top_others(full, "c", k)}
    assert pagerank_subgraph(g, "c", 3, cfg).members == {"c", "a", "z1", "z2"}


def test_settled_stop_on_a_zero_next_score_waits_for_the_reach_to_close():
    # c -> x5 -> x4 -> ... -> x1: after iteration 1 only x5 has mass, so
    # the next outside score is 0, but x4 gains mass at iteration 2. A stop
    # on that zero alone would fill the top-k with the smallest ids (x1).
    g = KnowledgeGraph()
    chain = ["c", "x5", "x4", "x3", "x2", "x1"]
    for h, t in zip(chain, chain[1:]):
        g.add_triple(Triple(h, "r", t))
    cfg = PageRankConfig()
    full = personalized_pagerank(g, "c", cfg)
    for k in (1, 2, 3, 4):
        settled = personalized_pagerank(g, "c", cfg, top=k)
        assert settled.converged and settled.iterations <= full.iterations, k
        assert _top_others(settled, "c", k) == _top_others(full, "c", k) == set(chain[1 : k + 1])
        assert pagerank_subgraph(g, "c", k, cfg).members == set(chain[: k + 1])


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


def test_similarity_from_index_is_bitwise_cosine():
    rng = np.random.default_rng(8)
    vectors = {f"e{i}": rng.standard_normal(16) * rng.uniform(1e-3, 1e3) for i in range(12)}
    vectors["twin"] = vectors["e0"] * 3.0
    sim = similarity_from_index(index_from(vectors))
    for a in vectors:
        for b in vectors:
            assert sim(a, b).hex() == cosine(vectors[a], vectors[b]).hex()
    # No entity is embedded on the fly: one the index lacks is named.
    for pair in (("fresh", "e0"), ("e0", "fresh")):
        with pytest.raises(ValidationError, match="'fresh' has no vector in the entity index"):
            sim(*pair)


def test_similarity_from_index_raises_on_every_use_of_a_bad_vector():
    ok = {"ok": np.ones(3), "other": np.arange(3.0)}
    # A bad stored vector is named when the provider is built.
    with pytest.raises(UndefinedSimilarityError, match="stored vector 'zero' is zero"):
        similarity_from_index(index_from({**ok, "zero": np.zeros(3)}))
    with pytest.raises(ValidationError, match="stored vector 'huge' is too large"):
        similarity_from_index(index_from({**ok, "huge": np.full(3, 1e200)}))
    sim = similarity_from_index(index_from(ok))
    for _ in range(2):
        for pair in (("ok", "missing"), ("missing", "other")):
            with pytest.raises(ValidationError, match="entity 'missing' has no vector"):
                sim(*pair)
    assert sim("ok", "other") == cosine(ok["ok"], ok["other"])
