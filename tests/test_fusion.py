import itertools
import random

import numpy as np
import pytest

from qmkgf.clients import StubModelClient
from qmkgf.errors import ThresholdError, ValidationError
from qmkgf.fusion import (
    FusionConfig,
    ScoredSubgraph,
    compute_threshold,
    fuse,
    select_max,
    triple_similarity,
)
from qmkgf.kg import Triple
from qmkgf.reward import serialize_subgraph
from qmkgf.subgraphs import Subgraph
from qmkgf.vectors import cosine

EMBED = StubModelClient(dim=32, seed=0).embed


def _sg(kind: str, center: str, *keys) -> Subgraph:
    triples = [Triple(h, r, t) for h, r, t in keys]
    members = {center} | {e for t in triples for e in (t.head, t.tail)}
    return Subgraph(center=center, triples=triples, members=members, path_kind=kind)


def _scored(one=0.5, multi=0.5, pr=0.5, center="c"):
    return [
        ScoredSubgraph(_sg("onehop", center, (center, "r", "a")), one),
        ScoredSubgraph(_sg("multihop", center, (center, "r", "a"), ("a", "r", "b")), multi),
        ScoredSubgraph(_sg("pagerank", center, ("x", "r", "y")), pr),
    ]


def test_select_max_picks_highest_score():
    scored = _scored(one=0.9, multi=0.3, pr=0.5)
    assert select_max(scored).subgraph.path_kind == "onehop"
    scored = _scored(one=0.1, multi=0.3, pr=0.5)
    assert select_max(scored).subgraph.path_kind == "pagerank"


def test_select_max_tie_breaks_by_kind_priority():
    assert select_max(_scored(0.4, 0.4, 0.4)).subgraph.path_kind == "onehop"
    assert select_max(_scored(0.1, 0.4, 0.4)).subgraph.path_kind == "multihop"


def test_select_max_matches_brute_force_on_random_scores():
    rng = random.Random(77)
    priority = {"onehop": 0, "multihop": 1, "pagerank": 2}
    for _ in range(200):
        scores = [rng.choice([0.1, 0.25, 0.5, 0.75]) for _ in range(3)]
        scored = _scored(*scores)
        got = select_max(scored)
        best = max(s.score for s in scored)
        expected = min(
            (s for s in scored if s.score == best),
            key=lambda s: priority[s.subgraph.path_kind],
        )
        assert got is expected


def test_select_max_requires_all_three_kinds():
    scored = _scored()[:2]
    with pytest.raises(ValidationError):
        select_max(scored)
    duplicated = _scored()
    duplicated[2] = duplicated[0]
    with pytest.raises(ValidationError):
        select_max(duplicated)


def test_compute_threshold_identical_embeddings():
    sg = _sg("onehop", "c", ("c", "r", "a"))
    q_vec = EMBED(serialize_subgraph(sg))
    assert compute_threshold(sg, q_vec, EMBED) == pytest.approx(1.0, abs=1e-12)


def test_compute_threshold_matches_cosine_oracle():
    sg = _sg("onehop", "c", ("c", "likes", "apples"))
    q_vec = EMBED("what does c like")
    expected = cosine(EMBED("c likes apples"), q_vec)
    assert compute_threshold(sg, q_vec, EMBED) == pytest.approx(expected, abs=1e-12)


def test_compute_threshold_zero_embedding_raises():
    sg = _sg("onehop", "c", ("c", "r", "a"))

    def zero_embed(text):
        return np.zeros(4)

    with pytest.raises(ThresholdError):
        compute_threshold(sg, np.ones(4), zero_embed)


def test_triple_similarity_identity_and_determinism():
    t = Triple("alpha", "beta", "gamma")
    q_vec = EMBED("alpha beta gamma")
    assert triple_similarity(t, q_vec, EMBED) == pytest.approx(1.0, abs=1e-12)
    other = EMBED("unrelated words here")
    assert triple_similarity(t, other, EMBED) == triple_similarity(t, other, EMBED)


def test_triple_similarity_ordering_matches_cosine_oracle():
    q_vec = EMBED("tell me about rivers")
    triples = [
        Triple("rivers", "flow_into", "seas"),
        Triple("mountains", "made_of", "rock"),
        Triple("me", "tell", "about"),
    ]
    sims = [triple_similarity(t, q_vec, EMBED) for t in triples]
    oracle = [cosine(EMBED(t.text()), q_vec) for t in triples]
    assert sorted(range(3), key=lambda i: -sims[i]) == sorted(range(3), key=lambda i: -oracle[i])


# ---------------------------------------------------------------------------
# fuse
# ---------------------------------------------------------------------------

def test_fuse_no_candidate_meets_threshold():
    scored = [
        ScoredSubgraph(_sg("onehop", "c", ("c", "r", "a")), 0.9),
        ScoredSubgraph(_sg("multihop", "c", ("far", "away", "stuff")), 0.2),
        ScoredSubgraph(_sg("pagerank", "c", ("other", "distant", "things")), 0.1),
    ]
    cfg = FusionConfig(strategy="rm_fusion", tau=1.0)
    q_vec = EMBED("some query")
    result = fuse(scored, q_vec, cfg, EMBED)
    assert {t.key for t in result.fused.triples} == {("c", "r", "a")}
    assert result.selected == []
    assert result.base_kind == "onehop"


def test_fuse_all_fusion_of_disjoint_subgraphs():
    scored = [
        ScoredSubgraph(
            _sg("onehop", "c", ("c", "r", "a"), ("c", "r", "b"), ("c", "r", "d")), 0.9
        ),
        ScoredSubgraph(_sg("multihop", "c", ("m1", "r", "m2"), ("m2", "r", "m3")), 0.5),
        ScoredSubgraph(_sg("pagerank", "c", ("p1", "r", "p2"), ("p2", "r", "p3")), 0.4),
    ]
    cfg = FusionConfig(strategy="all_fusion")
    result = fuse(scored, EMBED("anything"), cfg, EMBED)
    assert len(result.fused.triples) == 7
    assert result.threshold_used == -1.0


def test_fuse_rm_selected_matches_exhaustive_filter_oracle():
    rng = random.Random(404)
    names = [f"e{i}" for i in range(12)]
    for _ in range(25):
        subgraphs = []
        for kind in ("onehop", "multihop", "pagerank"):
            keys = {
                (rng.choice(names), f"rel{rng.randint(0, 5)}", rng.choice(names))
                for _ in range(rng.randint(1, 6))
            }
            subgraphs.append(_sg(kind, "e0", *sorted(keys)))
        scores = [rng.random() for _ in range(3)]
        scored = [ScoredSubgraph(sg, s) for sg, s in zip(subgraphs, scores)]
        q_vec = EMBED("query about " + rng.choice(names))
        cfg = FusionConfig(strategy="rm_fusion")
        result = fuse(scored, q_vec, cfg, EMBED)

        base = select_max(scored).subgraph
        lower = [s.subgraph for s in scored if s.subgraph is not base]
        candidates = {t.key: t for sg in lower for t in sg.triples}
        expected = {
            key
            for key, t in candidates.items()
            if triple_similarity(t, q_vec, EMBED) >= result.threshold_used
        }
        assert {t.key for t in result.selected} == expected
        # Base triples always survive.
        assert {t.key for t in result.fused.triples} >= {t.key for t in base.triples}


def test_fuse_respects_fixed_tau_fallback_when_derivation_fails():
    scored = [
        ScoredSubgraph(_sg("onehop", "c"), 0.9),  # empty -> empty serialization
        ScoredSubgraph(_sg("multihop", "c", ("a", "r", "b")), 0.5),
        ScoredSubgraph(_sg("pagerank", "c", ("x", "r", "y")), 0.1),
    ]

    def embed(text):
        if text == "":
            return np.zeros(32)
        return EMBED(text)

    cfg = FusionConfig(strategy="rm_fusion", tau=-1.0)
    result = fuse(scored, EMBED("query"), cfg, embed)
    assert result.threshold_used == -1.0
    assert len(result.fused.triples) == 2  # everything admitted at tau = -1

    cfg_no_fallback = FusionConfig(strategy="rm_fusion")
    with pytest.raises(ThresholdError):
        fuse(scored, EMBED("query"), cfg_no_fallback, embed)


def test_fuse_all_fusion_order_independent():
    scored = _scored(0.9, 0.5, 0.1)
    cfg = FusionConfig(strategy="all_fusion")
    q_vec = EMBED("q")
    baseline = fuse(scored, q_vec, cfg, EMBED)
    for perm in itertools.permutations(scored):
        result = fuse(list(perm), q_vec, cfg, EMBED)
        assert {t.key for t in result.fused.triples} == {
            t.key for t in baseline.fused.triples
        }


def test_fuse_top5_limits_per_source():
    keys_a = [(f"a{i}", "r", f"b{i}") for i in range(8)]
    keys_b = [(f"c{i}", "r", f"d{i}") for i in range(7)]
    keys_c = [(f"x{i}", "r", f"y{i}") for i in range(6)]
    scored = [
        ScoredSubgraph(_sg("onehop", "c", *keys_a), 0.9),
        ScoredSubgraph(_sg("multihop", "c", *keys_b), 0.5),
        ScoredSubgraph(_sg("pagerank", "c", *keys_c), 0.1),
    ]
    cfg = FusionConfig(strategy="top5_fusion")
    result = fuse(scored, EMBED("query"), cfg, EMBED)
    fused_keys = {t.key for t in result.fused.triples}
    # All 8 base triples survive, plus at most 5 from each lower subgraph.
    assert fused_keys >= set(keys_a)
    assert len(fused_keys & set(keys_b)) <= 5
    assert len(fused_keys & set(keys_c)) <= 5
    assert len(result.selected) <= 15


def test_fuse_is_idempotent():
    scored = _scored(0.9, 0.5, 0.1)
    cfg = FusionConfig(strategy="rm_fusion")
    q_vec = EMBED("q about c and a")
    first = fuse(scored, q_vec, cfg, EMBED)

    empty_multi = _sg("multihop", first.fused.center)
    empty_pr = _sg("pagerank", first.fused.center)
    refused = fuse(
        [
            ScoredSubgraph(
                Subgraph(
                    center=first.fused.center,
                    triples=first.fused.triples,
                    members=first.fused.members,
                    path_kind="onehop",
                ),
                0.9,
            ),
            ScoredSubgraph(empty_multi, 0.1),
            ScoredSubgraph(empty_pr, 0.1),
        ],
        q_vec,
        cfg,
        EMBED,
    )
    assert {t.key for t in refused.fused.triples} == {t.key for t in first.fused.triples}


def test_fusion_config_validation():
    with pytest.raises(ValidationError):
        FusionConfig(strategy="bogus")
    with pytest.raises(ValidationError):
        FusionConfig(tau=2.0)


def test_fused_members_are_endpoint_union_plus_center():
    scored = _scored(0.1, 0.2, 0.9)  # pagerank wins; its triples exclude center
    cfg = FusionConfig(strategy="rm_fusion", tau=1.1 - 0.1)
    result = fuse(scored, EMBED("zzz"), cfg, EMBED)
    expected_members = {"c"} | {
        e for t in result.fused.triples for e in (t.head, t.tail)
    }
    assert result.fused.members == expected_members
    assert result.fused.path_kind == "fused"
