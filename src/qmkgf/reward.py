"""Query-aware attention scorer for (query, subgraph) pairs.

The query and serialized-subgraph embeddings are projected to Q/K/V,
run through multi-head scaled dot-product attention, and squashed to a
scalar in (0, 1) by a linear head plus sigmoid. Scoring and training
embed the serialized subgraph as a single K/V position, where the
softmax collapses to 1 and the query projections carry no gradient, so
the query does not change the score. The forward and backward passes
also take (n, d) K/V rows, which the gradient checks exercise.

Per-head logits are scaled by sqrt(d/h), the head dimension.

Parameter persistence (QRMW, little-endian): magic b"QRMW", uint32
version, uint32 d, uint32 h, then row-major float32 for W_Q, W_K, W_V,
W_O, the d linear-head weights, and the scalar bias.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParseError, ValidationError
from .kg import read_jsonl
from .subgraphs import Subgraph

QRMW_MAGIC = b"QRMW"
QRMW_VERSION = 1

DEFAULT_HEADS = 32

PARAM_GROUPS = ("w_q", "w_k", "w_v", "w_o", "head_w", "head_b")

Embedder = Callable[[str], np.ndarray]


@dataclass
class AttentionParams:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    head_w: np.ndarray
    head_b: float
    heads: int

    @property
    def dim(self) -> int:
        return self.w_q.shape[0]

    def validate(self) -> None:
        d = self.dim
        for name in ("w_q", "w_k", "w_v", "w_o"):
            m = getattr(self, name)
            if m.shape != (d, d):
                raise ValidationError(f"{name} must be {d}x{d}, got {m.shape}")
            if not np.all(np.isfinite(m)):
                raise ValidationError(f"{name} has non-finite entries")
        if self.head_w.shape != (d,):
            raise ValidationError(f"head_w must have shape ({d},)")
        if not np.all(np.isfinite(self.head_w)) or not np.isfinite(self.head_b):
            raise ValidationError("linear head has non-finite entries")
        if self.heads < 1 or d % self.heads != 0:
            raise ValidationError(f"heads ({self.heads}) must divide dim ({d})")

    def copy(self) -> "AttentionParams":
        return AttentionParams(
            w_q=self.w_q.copy(),
            w_k=self.w_k.copy(),
            w_v=self.w_v.copy(),
            w_o=self.w_o.copy(),
            head_w=self.head_w.copy(),
            head_b=self.head_b,
            heads=self.heads,
        )


def init_params(dim: int, heads: int = DEFAULT_HEADS, seed: int = 0) -> AttentionParams:
    """Seeded uniform(-1/sqrt(d), 1/sqrt(d)) initialization, zero bias."""
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(dim)
    params = AttentionParams(
        w_q=rng.uniform(-bound, bound, (dim, dim)),
        w_k=rng.uniform(-bound, bound, (dim, dim)),
        w_v=rng.uniform(-bound, bound, (dim, dim)),
        w_o=rng.uniform(-bound, bound, (dim, dim)),
        head_w=rng.uniform(-bound, bound, dim),
        head_b=0.0,
        heads=heads,
    )
    params.validate()
    return params


def serialize_subgraph(sg: Subgraph) -> str:
    """Deterministic text form: triples sorted by key, "h r t" joined by "; "."""
    return "; ".join(t.text() for t in sg.sorted_triples())


def project_qkv(
    q_vec: np.ndarray, kgs: np.ndarray, params: AttentionParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-vector projections Q = q W_Q, K = kgs W_K, V = kgs W_V.

    ``kgs`` may be a single d-vector or an (n, d) matrix of per-triple
    embeddings; K and V keep its shape.
    """
    d = params.dim
    q_vec = np.asarray(q_vec, dtype=np.float64)
    kgs = np.asarray(kgs, dtype=np.float64)
    if q_vec.shape != (d,):
        raise ValidationError(f"query vector must have shape ({d},), got {q_vec.shape}")
    if kgs.shape[-1] != d:
        raise ValidationError(f"subgraph vectors must have last dim {d}, got {kgs.shape}")
    return q_vec @ params.w_q, kgs @ params.w_k, kgs @ params.w_v


def _forward(params: AttentionParams, q_vec: np.ndarray, kgs: np.ndarray) -> dict:
    """Multi-head attention over all heads at once, then the linear head.

    ``kgs`` with shape (d,) is one K/V position; shape (n, d) attends over
    n positions. Q is viewed as (h, dh) and K, V as (n, h, dh), so the
    logits, the softmax along the position axis and the head outputs are
    whole-array operations. Returns the cache the backward pass reads.
    Raises ValidationError when the reward logit is not finite.
    """
    params.validate()
    h = params.heads
    dh = params.dim // h
    with np.errstate(over="ignore", invalid="ignore"):
        q, k, v = project_qkv(q_vec, kgs, params)
        q = q.reshape(h, dh)
        k = k.reshape(-1, h, dh)
        v = v.reshape(-1, h, dh)
        logits = (k * q).sum(axis=2) / np.sqrt(dh)
        e = np.exp(logits - logits.max(axis=0))
        weights = e / e.sum(axis=0)
        heads_out = (weights[:, :, None] * v).sum(axis=0).reshape(-1)
        attn = heads_out @ params.w_o
        z = float(params.head_w @ attn + params.head_b)
    if not np.isfinite(z):
        raise ValidationError("input vector too large: the reward logit is not finite")
    return {
        "q": q,
        "k": k,
        "v": v,
        "weights": weights,
        "heads_out": heads_out,
        "attn": attn,
        "p": _sigmoid(z),
    }


def attention_forward(
    q_vec: np.ndarray, kgs: np.ndarray, params: AttentionParams
) -> np.ndarray:
    """Multi-head attention output (a d-vector).

    ``kgs`` with shape (d,) is treated as one K/V position; shape (n, d)
    attends over n positions.
    """
    return _forward(params, q_vec, kgs)["attn"]


def score(
    query: str,
    sg: Subgraph,
    params: AttentionParams,
    embedder: Embedder,
) -> float:
    """Reward in (0, 1): sigmoid(linear(attention(q, kgs)))."""
    return _forward(params, embedder(query), embedder(serialize_subgraph(sg)))["p"]


def _sigmoid(z: float) -> float:
    if z >= 0:
        return float(1.0 / (1.0 + np.exp(-z)))
    e = np.exp(z)
    return float(e / (1.0 + e))


# ---------------------------------------------------------------------------
# Training: MSE regression of the sigmoid score against [0, 1] targets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RMTrainingExample:
    """Textual training row, as stored in the JSONL training file."""

    query: str
    subgraph_text: str
    target: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.target <= 1.0:
            raise ValidationError(f"target must be in [0, 1], got {self.target}")


@dataclass
class RMExample:
    """Embedded training row: vectors ready for the forward pass."""

    query_vec: np.ndarray
    kgs: np.ndarray  # (d,) single-position or (n, d) multi-position
    target: float


def rm_example_grads(
    params: AttentionParams, ex: RMExample
) -> tuple[float, dict[str, np.ndarray | float]]:
    """Squared error of one example and its gradients per parameter group."""
    cache = _forward(params, ex.query_vec, ex.kgs)
    p = cache["p"]
    loss = (p - ex.target) ** 2

    dz = 2.0 * (p - ex.target) * p * (1.0 - p)
    d_attn = dz * params.head_w
    q, k, v, w = cache["q"], cache["k"], cache["v"], cache["weights"]
    n, h, dh = k.shape
    scale = np.sqrt(dh)
    d_heads = (params.w_o @ d_attn).reshape(h, dh)
    dw = (v * d_heads).sum(axis=2)
    # softmax backward along the position axis: dl = w * (dw - w.dw)
    dl = w * (dw - (w * dw).sum(axis=0))
    dq = (k * dl[:, :, None]).sum(axis=0).reshape(-1) / scale
    dk = (dl[:, :, None] * q).reshape(n, -1) / scale
    dv = (w[:, :, None] * d_heads).reshape(n, -1)

    kgs = np.atleast_2d(ex.kgs)
    grads: dict[str, np.ndarray | float] = {
        "w_q": np.outer(ex.query_vec, dq),
        "w_k": kgs.T @ dk,
        "w_v": kgs.T @ dv,
        "w_o": np.outer(cache["heads_out"], d_attn),
        "head_w": dz * cache["attn"],
        "head_b": float(dz),
    }
    return loss, grads


def rm_loss_and_grads(
    params: AttentionParams, examples: list[RMExample]
) -> tuple[float, dict[str, np.ndarray | float]]:
    """Mean squared error over examples and mean gradients."""
    if not examples:
        raise ValidationError("examples must be non-empty")
    total = 0.0
    acc: dict[str, np.ndarray | float] = {
        "w_q": np.zeros_like(params.w_q),
        "w_k": np.zeros_like(params.w_k),
        "w_v": np.zeros_like(params.w_v),
        "w_o": np.zeros_like(params.w_o),
        "head_w": np.zeros_like(params.head_w),
        "head_b": 0.0,
    }
    for ex in examples:
        loss, grads = rm_example_grads(params, ex)
        total += loss
        for name in PARAM_GROUPS:
            acc[name] = acc[name] + grads[name]
    n = len(examples)
    return total / n, {name: acc[name] / n for name in PARAM_GROUPS}


def rm_mse(params: AttentionParams, examples: list[RMExample]) -> float:
    loss, _ = rm_loss_and_grads(params, examples)
    return loss


def train_rm(
    examples: list[RMTrainingExample],
    epochs: int,
    lr: float,
    embedder: Embedder,
    seed: int = 0,
    heads: int = DEFAULT_HEADS,
    callback: Callable[[int, float], None] | None = None,
) -> AttentionParams:
    """Full-batch gradient descent on the mean squared error.

    Deterministic given the seed. Returns the best iterate seen, so the
    final training MSE never exceeds the initial one. Zero epochs
    returns the seeded initialization untouched.
    """
    if not examples:
        raise ValidationError("training set must be non-empty")
    embedded = [
        RMExample(
            query_vec=np.asarray(embedder(ex.query), dtype=np.float64),
            kgs=np.asarray(embedder(ex.subgraph_text), dtype=np.float64),
            target=ex.target,
        )
        for ex in examples
    ]
    dim = embedded[0].query_vec.shape[0]
    params = init_params(dim, heads=heads, seed=seed)
    if epochs == 0:
        return params

    best = params.copy()
    best_loss, grads = rm_loss_and_grads(params, embedded)
    if callback is not None:
        callback(0, best_loss)
    for epoch in range(1, epochs + 1):
        params = AttentionParams(
            w_q=params.w_q - lr * grads["w_q"],
            w_k=params.w_k - lr * grads["w_k"],
            w_v=params.w_v - lr * grads["w_v"],
            w_o=params.w_o - lr * grads["w_o"],
            head_w=params.head_w - lr * grads["head_w"],
            head_b=params.head_b - lr * grads["head_b"],
            heads=params.heads,
        )
        loss, grads = rm_loss_and_grads(params, embedded)
        if loss <= best_loss:
            best_loss = loss
            best = params.copy()
        if callback is not None:
            callback(epoch, loss)
    return best


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

def numeric_grads(
    params: AttentionParams, ex: RMExample, epsilon: float
) -> dict[str, np.ndarray | float]:
    """Central finite differences of the example loss for every parameter."""

    def loss_at(p: AttentionParams) -> float:
        return (_forward(p, ex.query_vec, ex.kgs)["p"] - ex.target) ** 2

    out: dict[str, np.ndarray | float] = {}
    for name in ("w_q", "w_k", "w_v", "w_o", "head_w"):
        base = getattr(params, name)
        grad = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            probe = params.copy()
            getattr(probe, name)[idx] = base[idx] + epsilon
            hi = loss_at(probe)
            getattr(probe, name)[idx] = base[idx] - epsilon
            lo = loss_at(probe)
            grad[idx] = (hi - lo) / (2.0 * epsilon)
        out[name] = grad
    probe = params.copy()
    probe.head_b = params.head_b + epsilon
    hi = loss_at(probe)
    probe.head_b = params.head_b - epsilon
    lo = loss_at(probe)
    out["head_b"] = (hi - lo) / (2.0 * epsilon)
    return out


def max_relative_error(
    analytic: dict[str, np.ndarray | float], numeric: dict[str, np.ndarray | float]
) -> float:
    worst = 0.0
    for name in PARAM_GROUPS:
        a = np.atleast_1d(np.asarray(analytic[name], dtype=np.float64))
        n = np.atleast_1d(np.asarray(numeric[name], dtype=np.float64))
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-12)
        rel = np.abs(a - n) / denom
        # Ignore comparisons where both sides are numerically zero.
        rel[(np.abs(a) < 1e-12) & (np.abs(n) < 1e-12)] = 0.0
        if rel.size:
            worst = max(worst, float(rel.max()))
    return worst


def grad_check(params: AttentionParams, ex: RMExample, epsilon: float) -> float:
    """Max relative error between analytic and finite-difference gradients."""
    if not 0.0 < epsilon <= 1e-2:
        raise ValidationError(f"epsilon must be in (0, 1e-2], got {epsilon}")
    if params.dim == 0:
        return 0.0
    _, analytic = rm_example_grads(params, ex)
    numeric = numeric_grads(params, ex, epsilon)
    return max_relative_error(analytic, numeric)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_params(params: AttentionParams) -> bytes:
    params.validate()
    out = bytearray()
    out += QRMW_MAGIC
    out += struct.pack("<III", QRMW_VERSION, params.dim, params.heads)
    for name in ("w_q", "w_k", "w_v", "w_o", "head_w"):
        out += np.ascontiguousarray(getattr(params, name), dtype="<f4").tobytes()
    out += struct.pack("<f", params.head_b)
    return bytes(out)


def load_params(data: bytes) -> AttentionParams:
    if len(data) < 16 or data[:4] != QRMW_MAGIC:
        raise ParseError("not a QRMW file (bad magic)")
    version, d, h = struct.unpack_from("<III", data, 4)
    if version != QRMW_VERSION:
        raise ParseError(f"unsupported QRMW version {version}")
    expected = 16 + 4 * (4 * d * d + d + 1)
    if len(data) != expected:
        raise ParseError(f"QRMW file has {len(data)} bytes, expected {expected}")
    offset = 16

    def take(count: int) -> np.ndarray:
        nonlocal offset
        arr = np.frombuffer(data[offset : offset + 4 * count], dtype="<f4").astype(np.float64)
        offset += 4 * count
        return arr

    params = AttentionParams(
        w_q=take(d * d).reshape(d, d),
        w_k=take(d * d).reshape(d, d),
        w_v=take(d * d).reshape(d, d),
        w_o=take(d * d).reshape(d, d),
        head_w=take(d),
        head_b=float(take(1)[0]),
        heads=h,
    )
    params.validate()
    return params


def load_rm_training_file(path: str) -> list[RMTrainingExample]:
    """Read line-delimited {"query": str, "subgraph": str, "score": number} rows."""
    examples = []
    for lineno, row in read_jsonl(path):
        if (
            not isinstance(row.get("query"), str)
            or not isinstance(row.get("subgraph"), str)
            or isinstance(row.get("score"), bool)
            or not isinstance(row.get("score"), (int, float))
        ):
            raise ParseError("expected {query, subgraph, score} record", line=lineno)
        try:
            examples.append(
                RMTrainingExample(
                    query=row["query"],
                    subgraph_text=row["subgraph"],
                    target=float(row["score"]),
                )
            )
        except ValidationError as exc:
            raise ParseError(str(exc), line=lineno) from exc
    return examples
