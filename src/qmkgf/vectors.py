"""Dense-vector storage and cosine top-k search.

The index is a flat (exhaustive) store: every query scans all entries.
That is the right trade-off at the corpus sizes this package targets and
keeps results exactly reproducible; ties are always broken by ascending
id.

Each index caches its entries frozen into (sorted ids, stacked matrix,
row norms), built on the first search and reused by every later one;
``VectorIndex.add`` drops the cache, so the next search rebuilds it.
``top_k`` is the one-query case of ``cosine_block``, which scores a block
of queries against that matrix; ``top_k_union`` selects from such blocks
the ids in any query's top k, each query's scores and ties exactly as
``top_k`` gives them.

Persistence format (QVEC, little-endian):

    magic   4 bytes  b"QVEC"
    version uint32   1
    dim     uint32
    count   uint32
    then per record: id_len uint32, id utf-8 bytes, dim float32 values

The ids are distinct and nothing follows the last record.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import ParseError, UndefinedSimilarityError, ValidationError

QVEC_MAGIC = b"QVEC"
QVEC_VERSION = 1

# ``top_k_union`` scores as many queries at a time as fit in this many bytes
# (at least one). Blocks below glibc's default mmap threshold (128 KiB) reuse
# heap memory; larger ones were mapped afresh for every query, which raised
# doc_heavy's peak RSS by about 2 MiB.
BLOCK_BYTES = 128_000


def as_vector(values, dimension: int | None = None) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"expected a 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("vector entries must be finite")
    if dimension is not None and arr.shape[0] != dimension:
        raise ValidationError(f"expected dimension {dimension}, got {arr.shape[0]}")
    return arr


class VectorIndex:
    """Map of id -> fixed-dimension embedding with cosine search."""

    def __init__(self, dimension: int, kind: str = "document"):
        if dimension < 1:
            raise ValidationError(f"dimension must be >= 1, got {dimension}")
        if kind not in ("entity", "document"):
            raise ValidationError(f"kind must be entity|document, got {kind!r}")
        self.dimension = dimension
        self.kind = kind
        self.entries: dict[str, np.ndarray] = {}
        self._frozen: tuple[list[str], np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def add(self, key: str, values) -> None:
        if not key:
            raise ValidationError("index id must be non-empty")
        self.entries[key] = as_vector(values, self.dimension)
        self._frozen = None

    def frozen(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """(sorted ids, one row per id, row norms), cached until the next add."""
        if self._frozen is None:
            ids = self.ids()
            matrix = np.stack([self.entries[i] for i in ids])
            with np.errstate(over="ignore"):
                norms = np.linalg.norm(matrix, axis=1)
            if not np.isfinite(norms).all():
                bad = ids[int(np.argmin(np.isfinite(norms)))]
                raise ValidationError(f"stored vector {bad!r} is too large: its norm overflows")
            self._frozen = (ids, matrix, norms)
        return self._frozen

    def get(self, key: str) -> np.ndarray:
        return self.entries[key]

    def ids(self) -> list[str]:
        return sorted(self.entries)


def cosine(a, b) -> float:
    """cos(a, b) = a.b / (|a||b|), clipped into [-1, 1]."""
    va = as_vector(a)
    vb = as_vector(b)
    return cosine_from_norms(va, vector_norm(va), vb, vector_norm(vb))


def vector_norm(v: np.ndarray) -> np.float64:
    """Euclidean norm; inf when it overflows (checked by the caller)."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(v)


def cosine_from_norms(va: np.ndarray, na: np.float64, vb: np.ndarray, nb: np.float64) -> float:
    """``cosine`` of validated vectors given their ``vector_norm``s."""
    if va.shape[0] != vb.shape[0]:
        raise ValidationError(f"dimension mismatch: {va.shape[0]} vs {vb.shape[0]}")
    if not (math.isfinite(na) and math.isfinite(nb)):
        raise ValidationError("vector too large: its norm overflows")
    if na == 0.0 or nb == 0.0:
        raise UndefinedSimilarityError("cosine undefined for a zero vector")
    # Same value as np.clip into [-1, 1], at a tenth of its call cost.
    return float(min(max(np.dot(va, vb) / (na * nb), -1.0), 1.0))


def top_k(index: VectorIndex, query, k: int) -> list[tuple[str, float]]:
    """Top-k entries by cosine to ``query``, descending, ties by id."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if len(index) == 0:
        return []
    ids, scores = cosine_block(index, [query])
    return [(ids[i], float(scores[0, i])) for i in smallest_first(-scores[0], k)]


def top_k_union(index: VectorIndex, queries: list, k: int) -> list[str]:
    """Sorted ids in the top k of at least one query: the union of each
    query's ``top_k`` ids, scored a block of queries at a time."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if len(index) == 0 or not queries:
        return []
    rows = max(1, BLOCK_BYTES // (8 * len(index)))
    hit = np.zeros(len(index), dtype=bool)
    for start in range(0, len(queries), rows):
        ids, scores = cosine_block(index, queries[start : start + rows])
        np.negative(scores, out=scores)
        hit |= smallest_mask(scores, k).any(axis=0)
    return [ids[i] for i in np.flatnonzero(hit)]


def cosine_block(index: VectorIndex, queries: list) -> tuple[list[str], np.ndarray]:
    """Sorted ids and the clipped cosine of every stored vector to each
    query, one row per query.

    No bit of a row depends on the other queries: its scores come from one
    ``matrix @ q`` and its norm from ``sqrt(q.dot(q))`` (which is what
    ``np.linalg.norm`` computes for a vector), never from a matrix product
    over the block, which orders its sums differently. A failing block
    raises what checking its queries one at a time raises first, with the
    stored vectors checked after the first query.
    """
    block, qnorms = _query_block(queries, index.dimension)
    if block is None:
        _checked_query(queries[0], index.dimension)
        _checked_rows(index)
        for query in queries[1:]:
            _checked_query(query, index.dimension)
        raise AssertionError("a query failed the block checks but passes alone")
    ids, matrix, norms = _checked_rows(index)
    scores = np.empty((len(block), len(ids)))
    for row, q, qn in zip(scores, block, qnorms):
        np.matmul(matrix, q, out=row)
        row /= norms * qn
    np.clip(scores, -1.0, 1.0, out=scores)
    return ids, scores


def _query_block(queries: list, dimension: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The queries stacked and their norms, or (None, None) if any fails
    ``_checked_query``."""
    try:
        block = np.array(queries, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None, None
    if block.ndim != 2 or block.shape[1] != dimension or not np.isfinite(block).all():
        return None, None
    with np.errstate(over="ignore"):
        qnorms = np.sqrt([q.dot(q) for q in block])
    if not (np.isfinite(qnorms).all() and qnorms.all()):
        return None, None
    return block, qnorms


def _checked_query(query, dimension: int) -> None:
    q = as_vector(query, dimension)
    qn = vector_norm(q)
    if not np.isfinite(qn):
        raise ValidationError("query vector too large: its norm overflows")
    if qn == 0.0:
        raise UndefinedSimilarityError("cosine undefined for a zero query vector")


def _checked_rows(index: VectorIndex) -> tuple[list[str], np.ndarray, np.ndarray]:
    ids, matrix, norms = index.frozen()
    if np.any(norms == 0.0):
        bad = ids[int(np.argmin(norms))]
        raise UndefinedSimilarityError(f"stored vector {bad!r} is zero")
    return ids, matrix, norms


def smallest_mask(values: np.ndarray, k: int) -> np.ndarray:
    """Mask of each row's ``min(k, row length)`` smallest values; of the
    values tied at the k-th, the ones at the lowest positions."""
    n = values.shape[1]
    if k >= n:
        return np.ones(values.shape, dtype=bool)
    if k == 0:
        return np.zeros(values.shape, dtype=bool)
    kth = np.partition(values, k - 1, axis=1)[:, k - 1 : k]
    mask = values <= kth
    if (mask.sum(axis=1) > k).any():
        tied = values == kth
        room = k - (values < kth).sum(axis=1, keepdims=True)
        mask &= ~tied | (np.cumsum(tied, axis=1) <= room)
    return mask


def smallest_first(values: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``min(k, len(values))`` smallest values, ascending,
    ties by position: the first k of a stable sort, without sorting it all."""
    candidates = np.flatnonzero(smallest_mask(values[np.newaxis], k)[0])
    return candidates[np.argsort(values[candidates], kind="stable")]


# ---------------------------------------------------------------------------
# QVEC persistence
# ---------------------------------------------------------------------------

def save_index(index: VectorIndex) -> bytes:
    out = bytearray()
    out += QVEC_MAGIC
    out += struct.pack("<III", QVEC_VERSION, index.dimension, len(index))
    for key in index.ids():
        encoded = key.encode("utf-8")
        out += struct.pack("<I", len(encoded))
        out += encoded
        out += index.entries[key].astype("<f4").tobytes()
    return bytes(out)


def load_index(data: bytes, kind: str = "document") -> VectorIndex:
    if len(data) < 16 or data[:4] != QVEC_MAGIC:
        raise ParseError("not a QVEC file (bad magic)")
    version, dimension, count = struct.unpack_from("<III", data, 4)
    if version != QVEC_VERSION:
        raise ParseError(f"unsupported QVEC version {version}")
    index = VectorIndex(dimension, kind=kind)
    offset = 16
    for n in range(count):
        if offset + 4 > len(data):
            raise ParseError(f"truncated QVEC file at record {n}")
        (id_len,) = struct.unpack_from("<I", data, offset)
        offset += 4
        end = offset + id_len + 4 * dimension
        if end > len(data):
            raise ParseError(f"truncated QVEC file at record {n}")
        try:
            key = data[offset : offset + id_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"corrupt id in QVEC record {n}") from exc
        if key in index:
            raise ParseError(f"duplicate id {key!r} in QVEC record {n}")
        offset += id_len
        values = np.frombuffer(data[offset : offset + 4 * dimension], dtype="<f4")
        offset += 4 * dimension
        index.add(key, values.astype(np.float64))
    if offset != len(data):
        raise ParseError(f"{len(data) - offset} unexpected bytes after the last QVEC record")
    return index
