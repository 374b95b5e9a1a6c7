import json
import math
import random

import pytest

from qmkgf.errors import NotFoundError, ParseError, ValidationError
from qmkgf.kg import (
    KnowledgeGraph,
    Triple,
    ingest_extraction,
    load,
    save,
)


def _rebuild_adjacency(g: KnowledgeGraph):
    """Independent oracle: adjacency recomputed from the triple list alone."""
    out = {e: set() for e in g.entities}
    into = {e: set() for e in g.entities}
    for t in g.triples:
        out[t.head].add((t.tail, t))
        into[t.tail].add((t.head, t))
    return out, into


def test_add_triple_to_empty_graph():
    g = KnowledgeGraph()
    g.add_triple(Triple("A", "knows", "B", weight=1.0))
    assert set(g.entities) == {"A", "B"}
    assert len(g.triples) == 1


def test_duplicate_triples_merge_with_max_weight():
    g = KnowledgeGraph()
    g.add_triple(Triple("A", "knows", "B", weight=1.0))
    g.add_triple(Triple("A", "knows", "B", weight=2.0))
    assert len(g.triples) == 1
    assert g.triples[0].weight == 2.0
    # Merging never lowers the stored weight.
    g.add_triple(Triple("A", "knows", "B", weight=0.5))
    assert g.triples[0].weight == 2.0


def test_adjacency_matches_rebuild_oracle():
    g = KnowledgeGraph()
    g.add_triple(Triple("A", "r1", "B"))
    g.add_triple(Triple("B", "r2", "C"))
    out, into = _rebuild_adjacency(g)
    assert {g.triples[i] for i in g.out_adj["A"]} == {t for _, t in out["A"]}
    assert {g.triples[i] for i in g.in_adj["C"]} == {t for _, t in into["C"]}
    assert g.out_adj["C"] == []


@pytest.mark.parametrize("bad", ["", "  "])
def test_add_triple_rejects_empty_fields(bad):
    g = KnowledgeGraph()
    with pytest.raises(ValidationError):
        g.add_triple(Triple(bad, "r", "B"))
    with pytest.raises(ValidationError):
        g.add_triple(Triple("A", bad, "B"))
    with pytest.raises(ValidationError):
        g.add_triple(Triple("A", "r", bad))


def test_add_triple_rejects_nonpositive_weight():
    g = KnowledgeGraph()
    with pytest.raises(ValidationError):
        g.add_triple(Triple("A", "r", "B", weight=0.0))


@pytest.mark.parametrize(
    "weight", [math.inf, math.nan, 10**400], ids=["inf", "nan", "401-digit-int"]
)
def test_add_triple_rejects_non_finite_weight(weight):
    g = KnowledgeGraph()
    with pytest.raises(ValidationError):
        g.add_triple(Triple("A", "r", "B", weight=weight))
    assert len(g) == 0


def test_neighbors_out_direction():
    g = KnowledgeGraph()
    g.add_triple(Triple("A", "r", "B"))
    g.add_triple(Triple("A", "r", "C"))
    assert {n for n, _ in g.neighbors("A", "out")} == {"B", "C"}


def test_neighbors_isolated_node_empty():
    g = KnowledgeGraph()
    g.add_entity("X")
    for direction in ("out", "in", "both"):
        assert g.neighbors("X", direction) == []


def test_neighbors_both_is_union():
    g = KnowledgeGraph()
    g.add_triple(Triple("A", "r", "B"))
    g.add_triple(Triple("C", "r", "A"))
    assert {n for n, _ in g.neighbors("A", "both")} == {"B", "C"}


def test_neighbors_unknown_entity():
    g = KnowledgeGraph()
    with pytest.raises(NotFoundError):
        g.neighbors("ghost", "out")


def test_neighbors_matches_brute_force_on_random_graphs():
    rng = random.Random(1234)
    for trial in range(20):
        g = KnowledgeGraph()
        names = [f"n{i}" for i in range(rng.randint(2, 25))]
        for _ in range(rng.randint(1, 200)):
            h, t = rng.choice(names), rng.choice(names)
            g.add_triple(Triple(h, f"r{rng.randint(0, 3)}", t, weight=rng.uniform(0.1, 5)))
        out, into = _rebuild_adjacency(g)
        for e in g.entities:
            assert set(g.neighbors(e, "out")) == out[e]
            assert set(g.neighbors(e, "in")) == into[e]
            assert set(g.neighbors(e, "both")) == out[e] | into[e]


def test_ingest_counts_valid_rows():
    g = KnowledgeGraph()
    rows = [
        {"head": "A", "relation": "r", "tail": "B"},
        {"head": "B", "relation": "r", "tail": "C", "weight": 2.5},
        {"head": "C", "relation": "r", "tail": "A", "source_chunk": "c1"},
    ]
    _, report = ingest_extraction(g, rows)
    assert report.as_dict() == {"added": 3, "merged": 0, "rejected": 0}


def test_ingest_rejects_malformed_rows_without_aborting():
    g = KnowledgeGraph()
    rows = [
        {"head": "A", "relation": "", "tail": "B"},
        {"head": "A", "relation": "r", "tail": "B"},
        {"head": "A", "tail": "B"},
        {"head": "A", "relation": "r", "tail": "B", "weight": -1},
        "not a dict",
    ]
    _, report = ingest_extraction(g, rows)
    assert report.added == 1
    assert report.rejected == 4


# JSON weights that json.loads accepts but that are not a finite float:
# inf, nan, a literal that rounds to inf, and an int too large for a float.
NON_FINITE_JSON_WEIGHTS = ["Infinity", "-Infinity", "NaN", "1e400", "1" + "0" * 400]
NON_FINITE_IDS = ["Infinity", "-Infinity", "NaN", "1e400", "401-digit-int"]


def _triple_line(weight: str) -> str:
    return '{"head": "A", "relation": "r", "tail": "B", "weight": %s}' % weight


@pytest.mark.parametrize("weight", NON_FINITE_JSON_WEIGHTS, ids=NON_FINITE_IDS)
def test_ingest_rejects_non_finite_weight(weight):
    rows = [json.loads(_triple_line(weight)), {"head": "B", "relation": "r", "tail": "C"}]
    g, report = ingest_extraction(KnowledgeGraph(), rows)
    assert report.as_dict() == {"added": 1, "merged": 0, "rejected": 1}
    assert [t.key for t in g.triples] == [("B", "r", "C")]


@pytest.mark.parametrize("weight", NON_FINITE_JSON_WEIGHTS, ids=NON_FINITE_IDS)
def test_load_rejects_non_finite_weight_naming_line(weight):
    g = KnowledgeGraph()
    g.add_triple(Triple("B", "r", "C"))
    data = save(g) + (_triple_line(weight) + "\n").encode("utf-8")
    with pytest.raises(ParseError) as exc:
        load(data)
    assert exc.value.line == 3


def test_ingest_merges_identical_rows():
    g = KnowledgeGraph()
    rows = [
        {"head": "A", "relation": "r", "tail": "B"},
        {"head": "A", "relation": "r", "tail": "B"},
    ]
    _, report = ingest_extraction(g, rows)
    # Must agree with add_triple semantics: one stored triple, one merge.
    assert len(g.triples) == 1
    assert report.added == 1
    assert report.merged == 1


def test_save_load_round_trip_empty():
    g = KnowledgeGraph()
    assert load(save(g)) == g


def test_save_load_round_trip_two_triples():
    g = KnowledgeGraph()
    g.add_triple(Triple("A", "knows", "B", weight=1.5, source_chunk="c9"))
    g.add_triple(Triple("B", "likes", "C"))
    g.add_entity("lonely")
    g2 = load(save(g))
    assert g2 == g
    assert g2.entities["lonely"].name == "lonely"


def test_save_load_round_trip_random_graphs():
    rng = random.Random(7)
    for _ in range(10):
        g = KnowledgeGraph()
        for _ in range(rng.randint(0, 60)):
            g.add_triple(
                Triple(
                    f"n{rng.randint(0, 15)}",
                    f"r{rng.randint(0, 4)}",
                    f"n{rng.randint(0, 15)}",
                    weight=round(rng.uniform(0.1, 3.0), 6),
                )
            )
        assert load(save(g)) == g


def test_load_truncated_file_names_line():
    g = KnowledgeGraph()
    g.add_triple(Triple("A", "r", "B"))
    data = save(g)
    truncated = data[: len(data) - 5]
    with pytest.raises(ParseError) as exc:
        load(truncated)
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)


def test_load_rejects_bad_header():
    with pytest.raises(ParseError) as exc:
        load(b'{"format": "something-else", "version": 1}\n')
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        load(b"")


def test_load_extraction_file_round_trip(tmp_path):
    import json

    path = tmp_path / "records.jsonl"
    rows = [
        {"head": "A", "relation": "r", "tail": "B", "weight": 2.0},
        {"head": "B", "relation": "r", "tail": "C", "source_chunk": "c3"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    from qmkgf.kg import load_extraction_file

    records = load_extraction_file(str(path))
    g, report = ingest_extraction(KnowledgeGraph(), records)
    assert report.added == 2
    assert g.triples[0].weight == 2.0
    assert g.triples[1].source_chunk == "c3"


def test_load_extraction_file_invalid_json_names_line(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"head": "A", "relation": "r", "tail": "B"}\n{broken\n')
    from qmkgf.kg import load_extraction_file

    with pytest.raises(ParseError) as exc:
        load_extraction_file(str(path))
    assert exc.value.line == 2


def _jsonl_readers():
    from qmkgf.kg import load_extraction_file
    from qmkgf.metrics import load_eval_file
    from qmkgf.pipeline import load_corpus
    from qmkgf.reward import load_rm_training_file

    return [
        (load_corpus, lambda i: {"id": f"c{i}", "text": "some text"}),
        (load_extraction_file, lambda i: {"head": "A", "relation": "r", "tail": f"B{i}"}),
        (load_rm_training_file, lambda i: {"query": "q", "subgraph": "A r B", "score": 0.5}),
        (load_eval_file, lambda i: {"query": "q", "reference": "r", "gold_chunks": []}),
    ]


@pytest.mark.parametrize(
    "reader, row", _jsonl_readers(), ids=lambda v: getattr(v, "__name__", "")
)
def test_jsonl_readers_skip_blank_lines_and_name_the_bad_line(tmp_path, reader, row):
    path = tmp_path / "rows.jsonl"
    first, second = json.dumps(row(1)), json.dumps(row(2))
    path.write_text(f"{first}\n  \n{second}\n")
    assert len(reader(str(path))) == 2
    for bad, message in (("{broken", "invalid JSON"), ("[1, 2]", "JSON object"), ("7", "JSON object")):
        path.write_text(f"{first}\n\n{bad}\n")
        with pytest.raises(ParseError, match=message) as exc:
            reader(str(path))
        assert exc.value.line == 3


def test_source_chunk_kept_from_first_row():
    g = KnowledgeGraph()
    g.add_triple(Triple("A", "r", "B", weight=1.0, source_chunk="c1"))
    g.add_triple(Triple("A", "r", "B", weight=2.0, source_chunk="c2"))
    assert g.triples[0].source_chunk == "c1"
    assert g.triples[0].weight == 2.0
