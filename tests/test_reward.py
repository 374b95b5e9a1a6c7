import warnings

import numpy as np
import pytest

from qmkgf.errors import ParseError, ValidationError
from qmkgf.kg import Triple
from qmkgf.reward import (
    AttentionParams,
    RMExample,
    RMTrainingExample,
    attention_forward,
    grad_check,
    init_params,
    load_params,
    max_relative_error,
    numeric_grads,
    project_qkv,
    rm_example_grads,
    rm_mse,
    save_params,
    score,
    serialize_subgraph,
    train_rm,
)
from qmkgf.subgraphs import Subgraph


def _identity_params(dim: int, heads: int = 1) -> AttentionParams:
    return AttentionParams(
        w_q=np.eye(dim),
        w_k=np.eye(dim),
        w_v=np.eye(dim),
        w_o=np.eye(dim),
        head_w=np.zeros(dim),
        head_b=0.0,
        heads=heads,
    )


def _subgraph(*keys) -> Subgraph:
    triples = [Triple(h, r, t) for h, r, t in keys]
    members = {e for t in triples for e in (t.head, t.tail)} or {"x"}
    center = sorted(members)[0]
    return Subgraph(center=center, triples=triples, members=members, path_kind="pagerank")


def _bag_embedder(dim: int = 8, seed: int = 0):
    # Token-bag embeddings: insensitive to triple ordering, which mirrors
    # how serialized subgraphs are embedded in the pipeline.
    from qmkgf.clients import StubModelClient

    return StubModelClient(dim=dim, seed=seed).embed


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_serialize_empty_subgraph():
    assert serialize_subgraph(_subgraph()) == ""


def test_serialize_single_triple():
    assert serialize_subgraph(_subgraph(("A", "knows", "B"))) == "A knows B"


def test_serialize_is_order_independent():
    a = _subgraph(("A", "r", "B"), ("C", "r", "D"))
    b = _subgraph(("C", "r", "D"), ("A", "r", "B"))
    assert serialize_subgraph(a) == serialize_subgraph(b) == "A r B; C r D"


# ---------------------------------------------------------------------------
# projections and forward pass
# ---------------------------------------------------------------------------

def test_project_qkv_identity_matrices():
    params = _identity_params(4)
    q = np.array([1.0, 2.0, 3.0, 4.0])
    kgs = np.array([4.0, 3.0, 2.0, 1.0])
    Q, K, V = project_qkv(q, kgs, params)
    np.testing.assert_array_equal(Q, q)
    np.testing.assert_array_equal(K, kgs)
    np.testing.assert_array_equal(V, kgs)


def test_project_qkv_zero_value_matrix():
    params = _identity_params(4)
    params.w_v = np.zeros((4, 4))
    _, _, V = project_qkv(np.ones(4), np.ones(4), params)
    np.testing.assert_array_equal(V, np.zeros(4))


def test_project_qkv_matches_naive_matmul_oracle():
    rng = np.random.default_rng(0)
    params = init_params(4, heads=2, seed=1)
    q = rng.standard_normal(4)
    kgs = rng.standard_normal(4)
    Q, K, V = project_qkv(q, kgs, params)

    def naive(vec, mat):
        return np.array([sum(vec[i] * mat[i, j] for i in range(4)) for j in range(4)])

    np.testing.assert_allclose(Q, naive(q, params.w_q), atol=1e-12)
    np.testing.assert_allclose(K, naive(kgs, params.w_k), atol=1e-12)
    np.testing.assert_allclose(V, naive(kgs, params.w_v), atol=1e-12)


def test_project_qkv_dimension_mismatch():
    params = _identity_params(4)
    with pytest.raises(ValidationError):
        project_qkv(np.ones(3), np.ones(4), params)


def test_attention_single_position_softmax_is_one():
    # One K/V position: softmax over a single logit is 1, so out = V @ W_O.
    params = init_params(6, heads=3, seed=2)
    rng = np.random.default_rng(3)
    q = rng.standard_normal(6)
    kgs = rng.standard_normal(6)
    out = attention_forward(q, kgs, params)
    expected = (kgs @ params.w_v) @ params.w_o
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_attention_zero_kgs_identity_params():
    params = _identity_params(4, heads=1)
    out = attention_forward(np.ones(4), np.zeros(4), params)
    np.testing.assert_array_equal(out, np.zeros(4))


def test_attention_matches_hand_rolled_reference():
    """h=2, d=4, multi-position: independent forward-pass oracle."""
    params = init_params(4, heads=2, seed=5)
    rng = np.random.default_rng(6)
    q_vec = rng.standard_normal(4)
    rows = rng.standard_normal((3, 4))

    got = attention_forward(q_vec, rows, params)

    # Reference: explicit per-head computation, scaled by sqrt(d/h).
    Q = q_vec @ params.w_q
    K = rows @ params.w_k
    V = rows @ params.w_v
    outputs = []
    for head in range(2):
        sl = slice(head * 2, head * 2 + 2)
        logits = np.array([K[i, sl] @ Q[sl] for i in range(3)]) / np.sqrt(2.0)
        weights = np.exp(logits - logits.max())
        weights /= weights.sum()
        outputs.append(sum(weights[i] * V[i, sl] for i in range(3)))
    expected = np.concatenate(outputs) @ params.w_o
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_attention_softmax_rows_sum_to_one_multi_position():
    params = init_params(8, heads=4, seed=7)
    rng = np.random.default_rng(8)
    q_vec = rng.standard_normal(8)
    rows = rng.standard_normal((5, 8))
    Q = q_vec @ params.w_q
    K = rows @ params.w_k
    for head in range(4):
        sl = slice(head * 2, head * 2 + 2)
        logits = K[:, sl] @ Q[sl] / np.sqrt(2.0)
        weights = np.exp(logits - logits.max())
        weights /= weights.sum()
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_single_position_attention_is_exactly_the_value_path():
    # The softmax weight of one position is exactly 1.0, so the head-batched
    # forward returns (kgs W_V) W_O bit for bit at the shipped d=64, h=32.
    rng = np.random.default_rng(4)
    for seed in range(10):
        params = init_params(64, heads=32, seed=seed)
        q, kgs = rng.standard_normal(64), rng.standard_normal(64)
        np.testing.assert_array_equal(
            attention_forward(q, kgs, params), (kgs @ params.w_v) @ params.w_o
        )


def test_heads_must_divide_dim():
    params = _identity_params(4, heads=3)
    with pytest.raises(ValidationError):
        attention_forward(np.ones(4), np.ones(4), params)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def test_score_zero_head_is_half():
    params = _identity_params(8, heads=2)
    sg = _subgraph(("A", "r", "B"))
    assert score("any query", sg, params, _bag_embedder()) == 0.5


def test_score_deterministic():
    params = init_params(8, heads=2, seed=11)
    sg = _subgraph(("A", "r", "B"), ("B", "r", "C"))
    embed = _bag_embedder()
    first = score("who is A", sg, params, embed)
    second = score("who is A", sg, params, embed)
    assert first == second


def test_score_strictly_inside_unit_interval():
    rng = np.random.default_rng(12)
    embed = _bag_embedder()
    sg = _subgraph(("A", "r", "B"))
    for seed in range(20):
        params = init_params(8, heads=2, seed=seed)
        params.head_b = float(rng.uniform(-30, 30))
        s = score("q", sg, params, embed)
        assert 0.0 < s < 1.0


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def _random_example(dim: int, seed: int) -> RMExample:
    rng = np.random.default_rng(seed)
    return RMExample(
        query_vec=rng.standard_normal(dim),
        kgs=rng.standard_normal(dim),
        target=float(rng.uniform(0, 1)),
    )


def test_grad_check_default_mode():
    for seed in range(5):
        params = init_params(8, heads=2, seed=seed)
        ex = _random_example(8, seed + 100)
        assert grad_check(params, ex, 1e-5) < 1e-4


def test_grad_check_multi_position_rows():
    # Multi-position K/V exercises the softmax backward incl. W_Q / W_K.
    rng = np.random.default_rng(17)
    for seed in range(5):
        params = init_params(8, heads=2, seed=seed)
        ex = RMExample(
            query_vec=rng.standard_normal(8),
            kgs=rng.standard_normal((4, 8)),
            target=float(rng.uniform(0, 1)),
        )
        assert grad_check(params, ex, 1e-5) < 1e-4


def test_non_finite_reward_logit_raises_without_warnings():
    # Entries of 1e160 overflow the attention logit to inf; the softmax would
    # then turn the score into NaN, which must surface as an input error.
    params = init_params(4, heads=2)
    huge = np.full(4, 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="too large"):
            score("q", _subgraph(("A", "r", "B")), params, lambda text: huge)
        for kgs in (huge, np.stack([huge, -huge])):
            with pytest.raises(ValidationError, match="too large"):
                rm_example_grads(params, RMExample(query_vec=huge, kgs=kgs, target=0.5))
        with pytest.raises(ValidationError, match="too large"):
            train_rm(_toy_examples(), epochs=1, lr=0.1, embedder=lambda text: huge, heads=2)


def test_grad_check_detects_perturbed_gradient():
    params = init_params(8, heads=2, seed=3)
    ex = _random_example(8, 33)
    _, analytic = rm_example_grads(params, ex)
    numeric = numeric_grads(params, ex, 1e-5)
    analytic["head_b"] = analytic["head_b"] + 0.05  # deliberate corruption
    assert max_relative_error(analytic, numeric) > 1e-2


def test_grad_check_epsilon_bounds():
    params = init_params(4, heads=2, seed=0)
    ex = _random_example(4, 1)
    with pytest.raises(ValidationError):
        grad_check(params, ex, 0.0)
    with pytest.raises(ValidationError):
        grad_check(params, ex, 0.5)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _toy_examples() -> list[RMTrainingExample]:
    return [
        RMTrainingExample("where is riverland", "riverland beside bluelake; bluelake fed_by springs", 1.0),
        RMTrainingExample("where is riverland", "dusty quarry stores gravel", 0.0),
        RMTrainingExample("who rules stonefort", "stonefort ruled_by ironcouncil; ironcouncil elects wardens", 1.0),
        RMTrainingExample("who rules stonefort", "meadow bees gather pollen", 0.0),
    ]


def test_train_zero_epochs_returns_seeded_init():
    embed = _bag_embedder()
    params = train_rm(_toy_examples(), epochs=0, lr=0.1, embedder=embed, seed=7, heads=2)
    expected = init_params(8, heads=2, seed=7)
    np.testing.assert_array_equal(params.w_q, expected.w_q)
    np.testing.assert_array_equal(params.head_w, expected.head_w)
    assert params.head_b == expected.head_b


def test_train_loss_decreases_over_windows():
    embed = _bag_embedder()
    history: list[float] = []
    train_rm(
        _toy_examples(),
        epochs=500,
        lr=0.5,
        embedder=embed,
        seed=1,
        heads=2,
        callback=lambda e, loss: history.append(loss),
    )
    windows = [sum(history[i : i + 50]) / 50 for i in range(0, 500, 50)]
    for earlier, later in zip(windows, windows[1:]):
        assert later <= earlier + 1e-12


def test_train_final_mse_not_above_initial():
    embed = _bag_embedder()
    examples = _toy_examples()
    embedded = [
        RMExample(
            query_vec=embed(ex.query), kgs=embed(ex.subgraph_text), target=ex.target
        )
        for ex in examples
    ]
    initial = rm_mse(init_params(8, heads=2, seed=5), embedded)
    params = train_rm(examples, epochs=100, lr=0.5, embedder=embed, seed=5, heads=2)
    assert rm_mse(params, embedded) <= initial


def test_train_is_bit_reproducible():
    embed = _bag_embedder()
    a = train_rm(_toy_examples(), epochs=50, lr=0.5, embedder=embed, seed=9, heads=2)
    b = train_rm(_toy_examples(), epochs=50, lr=0.5, embedder=embed, seed=9, heads=2)
    for name in ("w_q", "w_k", "w_v", "w_o", "head_w"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.head_b == b.head_b


def test_trained_model_orders_labeled_subgraphs():
    embed = _bag_embedder()
    examples = _toy_examples()
    params = train_rm(examples, epochs=500, lr=0.5, embedder=embed, seed=2, heads=2)

    def sg_from_text(text: str) -> Subgraph:
        triples = []
        for segment in text.split("; "):
            h, r, t = segment.split(" ", 2)
            triples.append(Triple(h, r, t.replace(" ", "_")))
        members = {e for tr in triples for e in (tr.head, tr.tail)}
        return Subgraph(center=sorted(members)[0], triples=triples,
                        members=members, path_kind="pagerank")

    by_query: dict = {}
    for ex in examples:
        by_query.setdefault(ex.query, {})[ex.target] = ex.subgraph_text
    for query, pair in by_query.items():
        good = score(query, sg_from_text(pair[1.0]), params, embed)
        bad = score(query, sg_from_text(pair[0.0]), params, embed)
        assert good > bad


def test_train_rejects_empty_set():
    with pytest.raises(ValidationError):
        train_rm([], epochs=1, lr=0.1, embedder=_bag_embedder())


def test_training_example_target_range():
    with pytest.raises(ValidationError):
        RMTrainingExample("q", "sg", 1.5)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_params_round_trip_float32():
    params = init_params(8, heads=4, seed=21)
    params.head_b = 0.125  # representable in float32
    loaded = load_params(save_params(params))
    assert loaded.heads == 4
    assert loaded.dim == 8
    np.testing.assert_allclose(loaded.w_q, params.w_q, atol=1e-6)
    np.testing.assert_allclose(loaded.head_w, params.head_w, atol=1e-6)
    assert loaded.head_b == 0.125


def test_params_bytes_deterministic():
    a = save_params(init_params(8, heads=2, seed=4))
    b = save_params(init_params(8, heads=2, seed=4))
    assert a == b


def test_load_params_rejects_corrupt_input():
    with pytest.raises(ParseError):
        load_params(b"WRONG" + b"\x00" * 32)
    good = save_params(init_params(4, heads=2, seed=0))
    with pytest.raises(ParseError):
        load_params(good[:-3])
