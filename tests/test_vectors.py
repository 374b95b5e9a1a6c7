import struct
import warnings

import numpy as np
import pytest

from qmkgf import vectors
from qmkgf.errors import ParseError, UndefinedSimilarityError, ValidationError
from qmkgf.reward import init_params, load_params, save_params
from qmkgf.vectors import (
    VectorIndex,
    as_vector,
    cosine,
    cosine_block,
    load_index,
    save_index,
    top_k,
    top_k_union,
)


def test_cosine_identical_unit_vectors():
    assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0


def test_cosine_orthogonal():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_direct_arithmetic_oracle():
    # dot = 4, norms sqrt(5) * sqrt(5) = 5
    assert cosine([1.0, 2.0], [2.0, 1.0]) == pytest.approx(4.0 / 5.0, abs=1e-12)


def test_cosine_is_clipped_into_unit_interval():
    # dot(v, v) / (|v| |v|) rounds to 1.0000000000000002 for this vector.
    v = [-0.7322673547034516, -0.5442589828573099, -0.31630015636915454]
    assert cosine(v, v) == 1.0
    assert cosine(v, [-x for x in v]) == -1.0


def test_cosine_zero_vector_rejected():
    with pytest.raises(UndefinedSimilarityError):
        cosine([0.0, 0.0], [1.0, 0.0])


def test_cosine_dimension_mismatch():
    with pytest.raises(ValidationError):
        cosine([1.0, 0.0], [1.0, 0.0, 0.0])


def test_cosine_symmetry_and_scale_invariance():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = rng.standard_normal(8)
        b = rng.standard_normal(8)
        assert abs(cosine(a, b) - cosine(b, a)) < 1e-12
        lam = float(rng.uniform(0.01, 100.0))
        assert abs(cosine(lam * a, b) - cosine(a, b)) < 1e-9


def index_from(vectors: dict) -> VectorIndex:
    """An index holding ``vectors`` (id -> vector), all of one dimension."""
    dim = len(next(iter(vectors.values())))
    index = VectorIndex(dim)
    for key, vec in vectors.items():
        index.add(key, vec)
    return index


def test_top_k_larger_than_index_returns_all_sorted():
    index = index_from({"a": [1.0, 0.0], "b": [0.0, 1.0]})
    hits = top_k(index, [1.0, 0.1], 10)
    assert [h[0] for h in hits] == ["a", "b"]


def test_top_k_exact_match_first():
    index = index_from({"a": [0.3, 0.7], "b": [1.0, 0.0]})
    hits = top_k(index, [0.3, 0.7], 1)
    assert hits[0][0] == "a"
    assert hits[0][1] == pytest.approx(1.0, abs=1e-12)


def test_top_k_empty_index():
    assert top_k(VectorIndex(2), [1.0, 0.0], 3) == []


def test_top_k_requires_positive_k():
    with pytest.raises(ValidationError):
        top_k(index_from({"a": [1.0, 0.0]}), [1.0, 0.0], 0)


def test_top_k_matches_exhaustive_sort_oracle():
    rng = np.random.default_rng(11)
    index = VectorIndex(6)
    for i in range(50):
        index.add(f"id{i:02d}", rng.standard_normal(6))
    query = rng.standard_normal(6)
    got = top_k(index, query, 5)
    # Oracle: score every entry, sort, truncate.
    scored = [(key, cosine(index.entries[key], query)) for key in index.entries]
    scored.sort(key=lambda p: (-p[1], p[0]))
    expected = scored[:5]
    assert [g[0] for g in got] == [e[0] for e in expected]
    for g, e in zip(got, expected):
        assert g[1] == pytest.approx(e[1], abs=1e-12)


def test_top_k_full_order_consistent_with_pairwise_cosine():
    rng = np.random.default_rng(12)
    index = VectorIndex(4)
    for i in range(20):
        index.add(f"v{i}", rng.standard_normal(4))
    query = rng.standard_normal(4)
    order = top_k(index, query, len(index))
    for (id_a, score_a), (id_b, score_b) in zip(order, order[1:]):
        assert score_a >= score_b - 1e-12
        assert cosine(index.entries[id_a], query) >= cosine(index.entries[id_b], query) - 1e-12


def _sort_oracle(index: VectorIndex, query, k: int) -> list[tuple[str, float]]:
    """Exhaustive top-k: score every stored row, sort all by (-score, id)."""
    ids = sorted(index.entries)
    matrix = np.stack([index.entries[i] for i in ids])
    q = np.asarray(query, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1) * np.linalg.norm(q)
    scores = np.clip(matrix @ q / norms, -1.0, 1.0)
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return [(ids[i], float(scores[i])) for i in order[:k]]


def test_top_k_ties_across_k_boundary_match_sort_oracle():
    rng = np.random.default_rng(14)
    bases = rng.standard_normal((5, 6))
    names = [f"d{i:02d}" for i in range(20)]
    rng.shuffle(names)
    index = VectorIndex(6)
    # Four exact copies of each base vector under scattered ids, so every
    # score is tied four ways and most k cut through a tied group.
    for n, name in enumerate(names):
        index.add(name, bases[n % 5])
    for _ in range(10):
        query = rng.standard_normal(6)
        for k in range(1, len(index) + 2):
            assert top_k(index, query, k) == _sort_oracle(index, query, k)


def test_top_k_sees_vectors_added_after_a_search():
    index = index_from({"a": [1.0, 0.5], "b": [0.0, 1.0]})
    query = [1.0, 0.0]
    assert [h[0] for h in top_k(index, query, 3)] == ["a", "b"]
    index.add("c", [1.0, 0.0])
    assert top_k(index, query, 3) == _sort_oracle(index, query, 3)
    assert [h[0] for h in top_k(index, query, 3)] == ["c", "a", "b"]
    index.add("b", [2.0, 0.0])
    assert top_k(index, query, 3) == _sort_oracle(index, query, 3)
    assert [h[0] for h in top_k(index, query, 3)] == ["b", "c", "a"]


def test_first_search_makes_each_entry_its_row_of_the_frozen_matrix():
    rng = np.random.default_rng(17)
    stored = VectorIndex(6)
    for i in range(5):
        stored.add(f"e{i}", rng.standard_normal(6))
    index = load_index(save_index(stored))
    loaded = {key: vec.copy() for key, vec in index.entries.items()}
    top_k(index, rng.standard_normal(6), 2)
    ids, matrix, _ = index.frozen()
    for row, key in enumerate(ids):
        assert np.shares_memory(index.entries[key], matrix)
        assert index.entries[key].tobytes() == matrix[row].tobytes() == loaded[key].tobytes()


def test_empty_index_freezes_to_an_empty_matrix():
    ids, matrix, norms = VectorIndex(3).frozen()
    assert (ids, matrix.shape, norms.shape) == ([], (0, 3), (0,))


def test_add_after_a_search_refreezes_with_the_new_row():
    index = index_from({"a": [1.0, 0.0], "c": [0.0, 1.0]})
    top_k(index, [1.0, 1.0], 1)
    before = index.frozen()
    index.add("b", [3.0, 4.0])
    assert top_k(index, [3.0, 4.0], 1) == [("b", 1.0)]
    ids, matrix, norms = index.frozen()
    assert index.frozen() is not before
    assert ids == ["a", "b", "c"]
    assert matrix.tolist() == [[1.0, 0.0], [3.0, 4.0], [0.0, 1.0]]
    assert norms.tolist() == [1.0, 5.0, 1.0]
    assert all(np.shares_memory(index.entries[key], matrix) for key in ids)


def test_top_k_stored_zero_vector_raises_on_every_call():
    index = index_from({"a": [1.0, 0.0], "z": [0.0, 0.0]})
    for _ in range(2):
        with pytest.raises(UndefinedSimilarityError, match="'z'"):
            top_k(index, [1.0, 0.0], 1)


# Block sizes in bytes: one query per block, a few per block, and the default.
@pytest.fixture(params=[1, 400, vectors.BLOCK_BYTES])
def block_bytes(request, monkeypatch):
    monkeypatch.setattr(vectors, "BLOCK_BYTES", request.param)
    return request.param


def _union_oracle(index: VectorIndex, queries: list, k: int) -> list[str]:
    """The union of every query's exhaustive top-k, in id order."""
    return sorted({key for q in queries for key, _ in _sort_oracle(index, q, k)})


def _tied_index(rng, n_bases: int = 5, copies: int = 4, dim: int = 6) -> VectorIndex:
    """Exact copies of a few base vectors under scattered ids, so every
    score is tied ``copies`` ways and most k cut through a tied group."""
    bases = rng.standard_normal((n_bases, dim))
    names = [f"d{i:02d}" for i in range(n_bases * copies)]
    rng.shuffle(names)
    index = VectorIndex(dim)
    for n, name in enumerate(names):
        index.add(name, bases[n % n_bases])
    return index


def test_top_k_union_matches_per_query_sort_oracle_with_ties_at_the_boundary(block_bytes):
    rng = np.random.default_rng(21)
    index = _tied_index(rng)
    for _ in range(10):
        queries = list(rng.standard_normal((int(rng.integers(2, 9)), 6)))
        for k in range(1, len(index) + 2):
            assert top_k_union(index, queries, k) == _union_oracle(index, queries, k)


def test_top_k_union_matches_per_query_sort_oracle_on_random_indices(block_bytes):
    rng = np.random.default_rng(22)
    for _ in range(30):
        dim = int(rng.integers(1, 12))
        index = VectorIndex(dim)
        for i in range(int(rng.integers(1, 60))):
            index.add(f"v{i:03d}", rng.standard_normal(dim))
        queries = list(rng.standard_normal((int(rng.integers(1, 12)), dim)))
        k = int(rng.integers(1, len(index) + 3))
        assert top_k_union(index, queries, k) == _union_oracle(index, queries, k)


def test_top_k_union_k_at_least_the_index_size_returns_every_id():
    rng = np.random.default_rng(23)
    index = _tied_index(rng)
    queries = list(rng.standard_normal((3, 6)))
    for k in (len(index), len(index) + 1, 10 * len(index)):
        assert top_k_union(index, queries, k) == index.ids()


def test_top_k_union_duplicate_and_single_queries(block_bytes):
    rng = np.random.default_rng(24)
    index = _tied_index(rng)
    a, b = rng.standard_normal((2, 6))
    for k in (1, 3, 6):
        assert top_k_union(index, [a, a, b, a], k) == _union_oracle(index, [a, b], k)
        assert top_k_union(index, [b], k) == sorted(key for key, _ in top_k(index, b, k))
    assert top_k_union(index, [], 3) == []
    assert top_k_union(VectorIndex(6), [a], 3) == []
    with pytest.raises(ValidationError, match="k must be >= 1"):
        top_k_union(index, [a], 0)


def test_cosine_block_rows_are_bitwise_the_lone_query_scores():
    # A matrix product over the whole block would sum in another order and
    # differ from the per-query scores in the last bits.
    rng = np.random.default_rng(25)
    index = VectorIndex(64)
    for i in range(200):
        index.add(f"v{i:03d}", rng.standard_normal(64))
    queries = list(rng.standard_normal((30, 64)))
    ids, scores = cosine_block(index, queries)
    assert ids == index.ids()
    matrix = np.stack([index.entries[i] for i in ids])
    norms = np.linalg.norm(matrix, axis=1)
    for q, row in zip(queries, scores):
        expected = np.clip(matrix @ q / (norms * np.linalg.norm(q)), -1.0, 1.0)
        assert np.array_equal(row, expected)


def _raised(call) -> tuple[type, str]:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception) as exc:
            call()
    return exc.type, str(exc.value)


def _per_query_loop(index: VectorIndex, queries: list, k: int) -> None:
    """The checks the per-item ``top_k`` loop made before scoring, written
    out: each query's own, then the stored vectors'."""
    for q in queries:
        v = as_vector(q, index.dimension)
        with np.errstate(over="ignore"):
            qn = np.linalg.norm(v)
        if not np.isfinite(qn):
            raise ValidationError("query vector too large: its norm overflows")
        if qn == 0.0:
            raise UndefinedSimilarityError("cosine undefined for a zero query vector")
        ids, _, norms = index.frozen()
        if np.any(norms == 0.0):
            raise UndefinedSimilarityError(f"stored vector {ids[int(np.argmin(norms))]!r} is zero")


_BAD_QUERIES = {
    "zero": [0.0, 0.0, 0.0],
    "norm overflows": [1e200, 1e200, 1.0],
    "not finite": [1.0, float("nan"), 0.0],
    "infinite": [1.0, float("-inf"), 0.0],
    "wrong dimension": [1.0, 0.0],
    "not 1-d": [[1.0, 0.0, 0.0]],
    "not numeric": ["a", "b", "c"],
}


@pytest.mark.parametrize("kind", sorted(_BAD_QUERIES))
def test_top_k_union_raises_what_the_per_query_loop_raises(kind, block_bytes):
    index = index_from({"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0], "c": [0.0, 0.0, 1.0]})
    good = [[1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [0.5, 0.5, 0.5]]
    for j in (1, 2, 3):
        # Two bad queries: the first in query order decides.
        queries = [*good[:j], _BAD_QUERIES[kind], *good[j:], _BAD_QUERIES["zero"]]
        expected = _raised(lambda: _per_query_loop(index, queries, 2))
        assert _raised(lambda: top_k_union(index, queries, 2)) == expected
        assert expected[0] in (ValidationError, UndefinedSimilarityError, ValueError)
    bad = [_BAD_QUERIES[kind]]
    assert _raised(lambda: top_k(index, bad[0], 2)) == _raised(lambda: _per_query_loop(index, bad, 2))


@pytest.mark.parametrize("stored, match", [([0.0, 0.0, 0.0], "'z' is zero"),
                                           ([1e200, 1e200, 0.0], "'z' is too large")])
def test_top_k_union_checks_stored_vectors_after_the_first_query_on_every_call(
    stored, match, block_bytes
):
    index = index_from({"a": [1.0, 0.0, 0.0], "z": stored})
    good, bad = [1.0, 2.0, 3.0], [1.0, 0.0]
    for queries in ([good, good], [good, bad], [bad, good], [good, *_BAD_QUERIES.values()]):
        expected = _raised(lambda: _per_query_loop(index, queries, 1))
        for _ in range(2):
            assert _raised(lambda: top_k_union(index, queries, 1)) == expected
            assert _raised(lambda: top_k(index, queries[0], 1)) == _raised(
                lambda: _per_query_loop(index, queries[:1], 1))
    # A stored-vector failure wins over every query but the first.
    assert match in _raised(lambda: top_k_union(index, [good, bad], 1))[1]
    assert "expected dimension" in _raised(lambda: top_k_union(index, [bad, good], 1))[1]


def test_qvec_round_trip():
    rng = np.random.default_rng(13)
    index = VectorIndex(5, kind="entity")
    for i in range(7):
        index.add(f"ent-{i}", rng.standard_normal(5))
    loaded = load_index(save_index(index), kind="entity")
    assert loaded.dimension == 5
    assert loaded.ids() == index.ids()
    for key in index.entries:
        # float32 storage: round trip to float32 precision
        np.testing.assert_allclose(loaded.entries[key], index.entries[key], atol=1e-6)


def test_qvec_rejects_bad_magic_and_truncation():
    with pytest.raises(ParseError):
        load_index(b"NOPE" + b"\x00" * 20)
    index = VectorIndex(3)
    index.add("a", [1.0, 2.0, 3.0])
    index.add("b", [4.0, 5.0, 6.0])
    data = save_index(index)
    with pytest.raises(ParseError):
        load_index(data[:-4])
    with pytest.raises(ParseError, match="unexpected bytes"):
        load_index(data + b"\x00")
    # A header claiming 3 records whose third repeats the first id.
    record_a = data[16 : 16 + 4 + 1 + 3 * 4]
    repeated = data[:12] + (3).to_bytes(4, "little") + data[16:] + record_a
    with pytest.raises(ParseError, match="duplicate id 'a'"):
        load_index(repeated)


def test_qvec_names_the_record_with_an_empty_id_and_rejects_dimension_zero():
    index = VectorIndex(3)
    index.add("a", [1.0, 2.0, 3.0])
    index.add("b", [4.0, 5.0, 6.0])
    data = save_index(index)
    # Record 1 ('b') starts after the header and record 0: 4 + 1 + 3 * 4 bytes.
    nameless = data[:33] + struct.pack("<I", 0) + data[33 + 4 + 1 :]
    with pytest.raises(ParseError) as exc:
        load_index(nameless)
    assert str(exc.value) == "empty id in QVEC record 1"
    with pytest.raises(ParseError) as exc:
        load_index(data[:8] + struct.pack("<II", 0, 0))
    assert str(exc.value) == "QVEC dimension must be >= 1, got 0"


@pytest.mark.parametrize("name, load, data", [
    ("QVEC", load_index, save_index(index_from({"a": [1.0, 2.0]}))),
    ("QRMW", load_params, save_params(init_params(2, heads=1, seed=0))),
], ids=["QVEC", "QRMW"])
def test_qvec_and_qrmw_share_one_header_reader_and_its_messages(name, load, data):
    load(data)
    cases = [
        (b"QVEX" + data[4:], f"not a {name} file (bad magic)"),
        (data[:15], f"not a {name} file (bad magic)"),
        (data[:4] + struct.pack("<I", 2) + data[8:], f"unsupported {name} version 2"),
        (data[:8] + struct.pack("<I", 0) + data[12:], f"{name} dimension must be >= 1, got 0"),
    ]
    for bad, message in cases:
        with pytest.raises(ParseError) as exc:
            load(bad)
        assert str(exc.value) == message


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_qvec_names_the_record_holding_a_non_finite_value(value):
    index = VectorIndex(3)
    index.add("a", [1.0, 2.0, 3.0])
    index.add("b", [4.0, 5.0, 6.0])
    data = bytearray(save_index(index))
    # Record 1 ('b') starts after the header and record 0: 4 + 1 + 3 * 4 bytes.
    struct.pack_into("<f", data, 16 + 17 + 4 + 1 + 4, value)
    with pytest.raises(ParseError) as exc:
        load_index(bytes(data))
    assert str(exc.value) == "non-finite value in QVEC record 1 ('b')"


def _reference_load_index(data: bytes, kind: str = "document") -> VectorIndex:
    """Reference reader: one record at a time, each vector checked as it is added."""
    dimension, count = vectors.unpack_header(data, vectors.QVEC_MAGIC, vectors.QVEC_VERSION)
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
        if not key:
            raise ParseError(f"empty id in QVEC record {n}")
        if key in index:
            raise ParseError(f"duplicate id {key!r} in QVEC record {n}")
        offset += id_len
        values = np.frombuffer(data[offset : offset + 4 * dimension], dtype="<f4")
        offset += 4 * dimension
        try:
            with np.errstate(invalid="ignore"):  # a signalling NaN warns in the cast
                index.add(key, values.astype(np.float64))
        except ValidationError:
            if not np.isfinite(values).all():
                raise ParseError(f"non-finite value in QVEC record {n} ({key!r})") from None
            raise
    if offset != len(data):
        raise ParseError(f"{len(data) - offset} unexpected bytes after the last QVEC record")
    return index


def _load_outcome(load, data: bytes):
    """The loaded index as (kind, dimension, ids, entries, file bytes), or the error's
    class, message and cause class."""
    try:
        index = load(data, kind="entity")
    except ParseError as exc:
        return type(exc), str(exc), type(exc.__cause__)
    entries = [(key, value.dtype, value.tobytes()) for key, value in index.entries.items()]
    return index.kind, index.dimension, index.ids(), sorted(entries), save_index(index)


NON_FINITE_F4 = [0x7FC00000, 0x7F800000, 0xFF800000, 0x7F800001]  # NaN, inf, -inf, signalling NaN


def _corrupted(rng: np.random.Generator, index: VectorIndex) -> bytes:
    """``index``'s QVEC file with up to five faults: records repeated or given
    a non-finite value, then bytes cut, appended or flipped, the count
    overwritten, the first id's length changed or its first byte broken."""
    records = [struct.pack("<I", len(key.encode())) + key.encode()
               + index.entries[key].astype("<f4").tobytes() for key in index.ids()]
    for _ in range(rng.integers(0, 3) if records else 0):
        n = int(rng.integers(len(records)))
        if rng.random() < 0.5:
            records.insert(int(rng.integers(len(records) + 1)), records[n])
        else:
            record = bytearray(records[n])
            at = len(record) - 4 * int(rng.integers(1, index.dimension + 1))
            struct.pack_into("<I", record, at, int(rng.choice(NON_FINITE_F4)))
            records[n] = bytes(record)
    data = bytearray(vectors.pack_header(b"QVEC", 1, index.dimension, len(records)))
    data += b"".join(records)
    for _ in range(rng.integers(0, 3)):
        op = rng.integers(6)
        if op == 0 and len(data) > 16:
            data = data[: rng.integers(16, len(data))]
        elif op == 1:
            data += rng.bytes(int(rng.integers(1, 12)))
        elif op == 2 and len(data) > 16:
            data[rng.integers(16, len(data))] = rng.integers(256)
        elif op == 3:
            struct.pack_into("<I", data, 12, int(rng.integers(0, 9)))
        elif op == 4 and len(data) >= 20:
            struct.pack_into("<I", data, 16, int(rng.choice([0, 1, 2, 2**31])))
        elif op == 5 and len(data) > 20:
            data[20] = 0xFF  # not UTF-8 as an id's first byte
    return bytes(data)


QVEC_FAULTS = (
    "truncated", "corrupt id", "empty id", "duplicate id", "non-finite", "unexpected bytes"
)


def test_load_index_gives_what_the_per_record_reader_gives_on_corrupted_files():
    rng = np.random.default_rng(35)
    kinds = set()
    for trial in range(3000):
        dim = int(rng.integers(1, 5))
        ids = ["a", "b", "é", "x" * int(rng.integers(1, 4)), f"id-{trial}", "\U0001f600"]
        index = VectorIndex(dim)
        for key in rng.choice(ids, size=int(rng.integers(0, 6))):
            index.add(str(key), rng.standard_normal(dim) * rng.choice([1e-30, 1.0, 1e30]))
        data = _corrupted(rng, index)
        expected = _load_outcome(_reference_load_index, data)
        assert _load_outcome(load_index, data) == expected, data
        fault = "loaded" if len(expected) == 5 else next(f for f in QVEC_FAULTS if f in expected[1])
        kinds.add(fault)
    assert kinds == {"loaded", *QVEC_FAULTS}


def test_load_index_names_the_first_faulty_record_whatever_its_fault():
    index = index_from({"a": [1.0, 2.0], "b": [3.0, 4.0], "c": [5.0, 6.0]})
    data = save_index(index)
    size = 4 + 1 + 2 * 4  # every record: id length, a one-byte id, two float32 values
    records = [data[16 + size * n : 16 + size * (n + 1)] for n in range(3)]
    nan_b = records[1][:5] + struct.pack("<ff", 3.0, float("nan"))
    dup_a_as_c = records[2][:4] + b"a" + records[2][5:]
    with pytest.raises(ParseError) as exc:
        load_index(data[:16] + records[0] + nan_b + dup_a_as_c)
    assert str(exc.value) == "non-finite value in QVEC record 1 ('b')"
    dup_a_as_b = records[1][:4] + b"a" + records[1][5:]
    nan_c = records[2][:5] + struct.pack("<ff", float("inf"), 6.0)
    with pytest.raises(ParseError) as exc:
        load_index(data[:16] + records[0] + dup_a_as_b + nan_c)
    assert str(exc.value) == "duplicate id 'a' in QVEC record 1"
    with pytest.raises(ParseError) as exc:
        load_index(data[:16] + records[0] + records[1][:4] + b"\xff" + records[1][5:])
    assert str(exc.value) == "corrupt id in QVEC record 1"
    assert isinstance(exc.value.__cause__, UnicodeDecodeError)


def test_index_validates_dimension_and_finiteness():
    index = VectorIndex(3)
    with pytest.raises(ValidationError):
        index.add("a", [1.0, 2.0])
    with pytest.raises(ValidationError):
        index.add("a", [1.0, float("nan"), 3.0])


# Entries above about 1e154 are finite, but their squared norm overflows.
_HUGE = [1e200, 1e200]


def test_cosine_rejects_a_norm_that_overflows():
    with pytest.raises(ValidationError):
        cosine(_HUGE, [1.0, 1.0])
    with pytest.raises(ValidationError):
        cosine([1.0, 1.0], _HUGE)
    # Just below the overflow, the cosine is still defined and exact.
    assert cosine([1e150, 1e150], [1e150, 1e150]) == pytest.approx(1.0, abs=1e-12)


def test_top_k_rejects_a_query_norm_that_overflows():
    index = index_from({"a": [1.0, 0.0], "b": [0.0, 1.0]})
    with pytest.raises(ValidationError):
        top_k(index, _HUGE, 2)


def test_top_k_rejects_a_stored_norm_that_overflows_on_every_call():
    index = index_from({"a": [1.0, 0.0], "huge": _HUGE})
    for _ in range(2):
        with pytest.raises(ValidationError, match="huge"):
            top_k(index, [1.0, 1.0], 2)
    index.add("huge", [1.0, 1.0])
    assert top_k(index, [1.0, 1.0], 1)[0][0] == "huge"
