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

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ParseError, ValidationError
from .kg import is_number, read_jsonl
from .subgraphs import Subgraph
from .vectors import pack_header, unpack_header

QRMW_MAGIC = b"QRMW"
QRMW_VERSION = 1

DEFAULT_HEADS = 32

# The parameter groups in QRMW order, each with its number of axes of
# length d: W_Q, W_K, W_V and W_O are d x d, the linear head has d
# weights and a scalar bias.
PARAM_GROUPS = {"w_q": 2, "w_k": 2, "w_v": 2, "w_o": 2, "head_w": 1, "head_b": 0}

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

    def check_shapes(self) -> None:
        """The cheap structural half of ``validate``, run on every forward."""
        d = self.dim
        for name, shape in _group_shapes(d).items():
            got = np.shape(getattr(self, name))
            if got != shape:
                raise ValidationError(f"{name} must have shape {shape}, got {got}")
        if self.heads < 1 or d % self.heads != 0:
            raise ValidationError(f"heads ({self.heads}) must divide dim ({d})")

    def validate(self) -> None:
        """Shapes plus finite entries; run when parameters are created,
        loaded, saved or updated by a training step."""
        self.check_shapes()
        for name in PARAM_GROUPS:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValidationError(f"{name} has non-finite entries")


def _group_shapes(dim: int) -> dict[str, tuple[int, ...]]:
    """Each parameter group's shape, in QRMW order; the bias's is ()."""
    return {name: (dim,) * axes for name, axes in PARAM_GROUPS.items()}


def init_params(dim: int, heads: int = DEFAULT_HEADS, seed: int = 0) -> AttentionParams:
    """Seeded uniform(-1/sqrt(d), 1/sqrt(d)) initialization, zero bias.

    The groups draw from one generator in QRMW order; the bias draws nothing.
    """
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(dim)
    groups = {
        name: rng.uniform(-bound, bound, shape) if shape else 0.0
        for name, shape in _group_shapes(dim).items()
    }
    params = AttentionParams(**groups, heads=heads)
    params.validate()
    return params


def checked_query(params: AttentionParams, q_vec: np.ndarray) -> np.ndarray:
    """``q_vec`` as the forward reads it, after its shape check."""
    q_vec = np.asarray(q_vec, dtype=np.float64)
    if q_vec.shape != (params.dim,):
        raise ValidationError(f"query vector must have shape ({params.dim},), got {q_vec.shape}")
    return q_vec


def logit_scale(params: AttentionParams) -> float:
    """2 dh times W_Q's largest column |.|-sum and W_K's largest column norm; half of it,
    times max|q| and a K/V row's norm, bounds that row's logits. inf for wrong shapes."""
    try:
        params.check_shapes()
    except ValidationError:
        return math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.abs(params.w_q).sum(axis=0).max() * np.sqrt(np.square(params.w_k).sum(axis=0)).max()
        return float(2 * (params.dim // params.heads) * w)


def _forward(params: AttentionParams, q_vec: np.ndarray, kgs: np.ndarray) -> dict:
    """Multi-head attention over all heads at once, then the linear head.

    ``kgs`` with shape (d,) is one K/V position; shape (n, d) attends over
    n positions. Q = q W_Q is viewed as (h, dh) and K = kgs W_K, V = kgs W_V
    as (n, h, dh), so the logits, the softmax along the position axis and
    the head outputs are whole-array operations. Returns the cache the
    backward pass reads, with the attention output ``attn`` and reward ``p``.
    Raises ValidationError on a vector of the wrong dimension, or when the
    reward logit is not finite, which also catches parameters made
    non-finite after their validation.
    """
    params.check_shapes()
    q_vec = checked_query(params, q_vec)
    d = params.dim
    h = params.heads
    dh = d // h
    kgs = np.asarray(kgs, dtype=np.float64)
    if kgs.shape[-1] != d:
        raise ValidationError(f"subgraph vectors must have last dim {d}, got {kgs.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        q = (q_vec @ params.w_q).reshape(h, dh)
        k = (kgs @ params.w_k).reshape(-1, h, dh)
        v = (kgs @ params.w_v).reshape(-1, h, dh)
        logits = (k * q).sum(axis=2) / np.sqrt(dh)
        e = np.exp(logits - logits.max(axis=0))
        weights = e / e.sum(axis=0)
        heads_out = (weights[:, :, None] * v).sum(axis=0).reshape(-1)
        attn = heads_out @ params.w_o
        z = float(params.head_w @ attn + params.head_b)
    if not np.isfinite(z):
        raise ValidationError(
            "input vector too large or parameters non-finite: the reward logit is not finite"
        )
    return {
        "q": q,
        "k": k,
        "v": v,
        "weights": weights,
        "heads_out": heads_out,
        "attn": attn,
        "p": _sigmoid(z),
    }


def score(
    query: str,
    sg: Subgraph,
    params: AttentionParams,
    embedder: Embedder,
) -> float:
    """Reward in (0, 1): sigmoid(linear(attention(q, kgs)))."""
    return _forward(params, embedder(query), embedder(sg.serialized))["p"]


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
        if not self.query.strip():
            raise ValidationError("query must be non-empty")
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
    acc: dict[str, np.ndarray | float] = dict.fromkeys(PARAM_GROUPS, 0.0)
    for ex in examples:
        loss, grads = rm_example_grads(params, ex)
        total += loss
        for name in PARAM_GROUPS:
            acc[name] = acc[name] + grads[name]
    n = len(examples)
    return total / n, {name: acc[name] / n for name in PARAM_GROUPS}


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
    final training MSE never exceeds the initial one; with zero epochs
    that is the seeded initialization. ``callback`` gets epoch 0's loss
    first, the initialization's.
    """
    if not examples:
        raise ValidationError("training set must be non-empty")
    if epochs < 0:
        raise ValidationError(f"epochs must be >= 0, got {epochs}")
    if not 0.0 < lr < math.inf:
        raise ValidationError(f"learning rate must be finite and > 0, got {lr!r}")
    embedded = [
        RMExample(
            query_vec=np.asarray(embedder(ex.query), dtype=np.float64),
            kgs=np.asarray(embedder(ex.subgraph_text), dtype=np.float64),
            target=ex.target,
        )
        for ex in examples
    ]
    dim = embedded[0].query_vec.shape[0]
    best = params = init_params(dim, heads=heads, seed=seed)
    best_loss, grads = rm_loss_and_grads(params, embedded)
    if callback is not None:
        callback(0, best_loss)
    for epoch in range(1, epochs + 1):
        # Each step makes new arrays, so earlier iterates stay as they were.
        params = replace(
            params, **{name: getattr(params, name) - lr * grads[name] for name in PARAM_GROUPS}
        )
        params.validate()
        loss, grads = rm_loss_and_grads(params, embedded)
        if loss <= best_loss:
            best_loss, best = loss, params
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
    for name in PARAM_GROUPS:
        base = np.asarray(getattr(params, name), dtype=np.float64)
        values = base.copy()  # the probe's copy of this group, nudged one entry at a time
        probe = replace(params, **{name: values})
        grad = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            values[idx] = base[idx] + epsilon
            hi = loss_at(probe)
            values[idx] = base[idx] - epsilon
            lo = loss_at(probe)
            values[idx] = base[idx]
            grad[idx] = (hi - lo) / (2.0 * epsilon)
        out[name] = grad if grad.ndim else float(grad)
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
    out = bytearray(pack_header(QRMW_MAGIC, QRMW_VERSION, params.dim, params.heads))
    for name in PARAM_GROUPS:
        with np.errstate(over="ignore"):
            values = np.asarray(getattr(params, name), dtype="<f4")
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"{name} has entries too large for float32")
        out += values.tobytes()
    return bytes(out)


def load_params(data: bytes) -> AttentionParams:
    d, h = unpack_header(data, QRMW_MAGIC, QRMW_VERSION)
    shapes = _group_shapes(d)
    expected = 16 + 4 * sum(math.prod(shape) for shape in shapes.values())
    if len(data) != expected:
        raise ParseError(f"QRMW file has {len(data)} bytes, expected {expected}")
    groups: dict[str, np.ndarray | float] = {}
    offset = 16
    for name, shape in shapes.items():
        count = math.prod(shape)
        values = np.frombuffer(data, dtype="<f4", count=count, offset=offset).astype(np.float64)
        groups[name] = values.reshape(shape) if shape else float(values[0])
        offset += 4 * count
    params = AttentionParams(**groups, heads=h)
    params.validate()
    return params


def load_rm_training_file(path: str) -> list[RMTrainingExample]:
    """Read line-delimited {"query": str, "subgraph": str, "score": number} rows."""
    examples = []
    for lineno, row in read_jsonl(path):
        if (
            not isinstance(row.get("query"), str)
            or not isinstance(row.get("subgraph"), str)
            or not is_number(row.get("score"))
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
        except (OverflowError, ValidationError) as exc:  # an integer score past the float range
            raise ParseError(str(exc), line=lineno) from exc
    return examples
