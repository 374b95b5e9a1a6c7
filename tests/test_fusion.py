import itertools
import random
import zlib

import numpy as np
import pytest

from qmkgf.clients import StubModelClient
from qmkgf.errors import ThresholdError, UndefinedSimilarityError, ValidationError
from qmkgf.fusion import (
    FusionConfig,
    FusionResult,
    ScoredSubgraph,
    compute_threshold,
    fuse,
    fused_subgraph,
    select_max,
    similarity,
)
from qmkgf.kg import Triple
from qmkgf.pipeline import QueryEmbeddings
from qmkgf.subgraphs import Subgraph
from qmkgf.vectors import cosine, normed

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
    q_vec = EMBED(sg.serialized)
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
    assert similarity(t.text(), normed(q_vec), EMBED) == pytest.approx(1.0, abs=1e-12)
    other = normed(EMBED("unrelated words here"))
    assert similarity(t.text(), other, EMBED) == similarity(t.text(), other, EMBED)


def test_triple_similarity_ordering_matches_cosine_oracle():
    q_vec = EMBED("tell me about rivers")
    triples = [
        Triple("rivers", "flow_into", "seas"),
        Triple("mountains", "made_of", "rock"),
        Triple("me", "tell", "about"),
    ]
    sims = [similarity(t.text(), normed(q_vec), EMBED) for t in triples]
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
            if similarity(t.text(), normed(q_vec), EMBED) >= result.threshold_used
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


# ---------------------------------------------------------------------------
# scoring through stored (vector, norm) pairs
# ---------------------------------------------------------------------------

class _TableClient:
    """A model client whose ``embed_many`` looks each text up in ``embed``."""

    def __init__(self, embed):
        self.embed = embed

    def embed_many(self, texts):
        return [self.embed(t) for t in texts]


def test_similarity_from_stored_norms_is_bitwise_cosine():
    rng = np.random.default_rng(21)
    base = rng.standard_normal(32)
    table = {f"t{i}": rng.standard_normal(32) * rng.uniform(1e-3, 1e3) for i in range(40)}
    # Near ties: the same direction at other scales, and nudges in the last bits.
    table.update({f"s{i}": base * (1.0 + i * 2.0**-50) for i in range(10)})
    table.update({f"n{i}": base + rng.standard_normal(32) * 1e-14 for i in range(10)})
    stored = QueryEmbeddings(_TableClient(table.__getitem__), {})
    stored.prefetch(stored=table)
    for q_vec in (base, base * 3.0, rng.standard_normal(32) * 1e5):
        q = normed(q_vec)
        for text, vec in table.items():
            want = cosine(vec, q_vec).hex()
            assert similarity(text, q, stored).hex() == want, text
            assert similarity(text, q, table.__getitem__).hex() == want, text


@pytest.mark.parametrize("strategy", ["rm_fusion", "all_fusion", "top5_fusion"])
def test_fuse_through_stored_pairs_equals_fuse_through_the_embedder(strategy):
    rng = random.Random(5)
    names = [f"n{i}" for i in range(12)]
    for _ in range(20):
        parts = [
            _sg(kind, "c", *{(rng.choice(names), "r", rng.choice(names)) for _ in range(6)})
            for kind in ("onehop", "multihop", "pagerank")
        ]
        scored = [ScoredSubgraph(sg, rng.choice([0.2, 0.5, 0.8])) for sg in parts]
        cfg = FusionConfig(strategy=strategy)
        q_vec = EMBED(" ".join(rng.sample(names, 3)))
        want = fuse(scored, q_vec, cfg, EMBED)
        got = fuse(scored, q_vec, cfg, QueryEmbeddings(_TableClient(EMBED), {}))
        assert got == want
        assert got.threshold_used.hex() == want.threshold_used.hex()


@pytest.mark.parametrize(
    "bad, error, message",
    [
        (np.zeros(32), UndefinedSimilarityError, "zero"),
        (np.full(32, 1e200), ValidationError, "overflows"),
    ],
)
@pytest.mark.parametrize("stored", [False, True])
def test_fuse_raises_for_a_triple_that_embeds_to_zero_or_overflows(bad, error, message, stored):
    scored = _scored(0.9, 0.5, 0.1)  # onehop wins; "x r y" of pagerank is scored

    def embed(text):
        return bad if text == "x r y" else EMBED(text)

    embedder = QueryEmbeddings(_TableClient(embed), {}) if stored else embed
    with pytest.raises(error, match=message):
        fuse(scored, EMBED("query"), FusionConfig(strategy="rm_fusion"), embedder)


def _reference_fuse(scored, q_vec, cfg, embedder):
    """``fuse`` as it was written before its one-branch-per-strategy form."""

    def dedup(triples):
        seen = {}
        for t in triples:
            seen.setdefault(t.key, t)
        return list(seen.values())

    base = select_max(scored)
    others = [s.subgraph for s in scored if s.subgraph is not base.subgraph]
    threshold = -1.0
    to_score = []
    if cfg.strategy == "rm_fusion":
        threshold = cfg.tau
        if threshold is None:
            threshold = compute_threshold(base.subgraph, q_vec, embedder)
        to_score = sorted(dedup(t for sg in others for t in sg.triples), key=Triple.key.fget)
    elif cfg.strategy == "top5_fusion":
        to_score = dedup(t for s in scored for t in s.subgraph.triples)
    q = normed(q_vec) if to_score else None
    sims = {t.key: similarity(t.text(), q, embedder) for t in to_score}

    if cfg.strategy == "all_fusion":
        selected = sorted(dedup(t for sg in others for t in sg.triples), key=Triple.key.fget)
    elif cfg.strategy == "top5_fusion":
        selected = []
        seen = set()
        for sg in [base.subgraph, *others]:
            ranked = sorted(dedup(sg.triples), key=lambda t: (-sims[t.key], t.key))
            for t in ranked[:5]:
                if t.key not in seen:
                    seen.add(t.key)
                    selected.append(t)
    else:
        selected = [t for t in to_score if sims[t.key] >= threshold]
    return FusionResult(
        fused=fused_subgraph(base.subgraph.center, [*base.subgraph.triples, *selected]),
        base_kind=base.subgraph.path_kind,
        threshold_used=threshold,
        selected=selected,
    )


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # both sides must raise the same error
        return type(exc), str(exc)


def _random_subgraph(rng, kind, names, shared):
    size = rng.choice([0, 0, 1, 4, 12])  # often empty, so losers are empty too
    keys = [(rng.choice(names), rng.choice("rs"), rng.choice(names)) for _ in range(size)]
    keys += rng.sample(shared, rng.randint(0, len(shared)) if size else 0)  # in other sources too
    triples = [Triple(*key, source_chunk=rng.choice([None, "d"])) for key in keys]
    # Duplicate keys inside one source, told apart by their weight.
    triples += [Triple(*t.key, weight=3.0) for t in rng.sample(triples, len(triples) // 3)]
    return Subgraph(center="c", triples=triples, members={"c"}, path_kind=kind)


@pytest.mark.parametrize("tau", [None, -1.0, 0.0, 0.3])
@pytest.mark.parametrize("strategy", ["rm_fusion", "all_fusion", "top5_fusion"])
def test_fuse_equals_its_reference_on_random_subgraphs(strategy, tau):
    rng = random.Random(f"{strategy}{tau}")
    names = [f"n{i}" for i in range(8)]
    vectors = [EMBED(f"v{i}") for i in range(6)]  # few vectors for many texts, so sims tie
    cfg = FusionConfig(strategy=strategy, tau=tau)
    for _ in range(150):
        shared = [(rng.choice(names), "r", rng.choice(names)) for _ in range(4)]
        scored = [
            ScoredSubgraph(_random_subgraph(rng, kind, names, shared), rng.choice([0.2, 0.5, 0.8]))
            for kind in ("onehop", "multihop", "pagerank")
        ]
        # A zero query has no cosine; a NaN one fails ``normed``, which runs only with a triple.
        q_vec = rng.choice([*vectors, np.zeros(32), np.full(32, np.nan)])
        calls = {"reference": [], "fuse": []}

        def recording(side):
            def embed(text):
                calls[side].append(text)
                return vectors[zlib.crc32(text.encode()) % len(vectors)]
            return embed

        want = _outcome(lambda: _reference_fuse(scored, q_vec, cfg, recording("reference")))
        got = _outcome(lambda: fuse(scored, q_vec, cfg, recording("fuse")))
        assert got == want
        assert calls["fuse"] == calls["reference"]
        if isinstance(want, FusionResult):
            assert got.threshold_used.hex() == want.threshold_used.hex()
