import gc
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from qmkgf.errors import NotFoundError, ParseError, ValidationError
from qmkgf.kg import (
    JSON_ENCODER,
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


@pytest.mark.parametrize("fields, message", [
    (("", "r", "B"), "triple head must be non-empty"),
    (("A", " ", "B"), "triple relation must be non-empty"),
    (("A", "r", ""), "triple tail must be non-empty"),
    (("A", "r", "B", 0.0), "triple weight must be finite and > 0, got 0.0"),
    (("A", "r", "B", math.nan), "triple weight must be finite and > 0, got nan"),
    (("A", "r", "B", math.inf), "triple weight must be finite and > 0, got inf"),
], ids=["head", "relation", "tail", "zero", "nan", "inf"])
def test_constructing_an_invalid_triple_raises(fields, message):
    with pytest.raises(ValidationError) as exc:
        Triple(*fields)
    assert str(exc.value) == message


def test_neighbors_isolated_node_empty():
    g = KnowledgeGraph()
    g.add_entity("X")
    assert g.out_adj["X"] == [] and g.in_adj["X"] == []
    assert g.neighbors("X") == []


def test_neighbors_both_is_union():
    g = KnowledgeGraph()
    g.add_triple(Triple("A", "r", "B"))
    g.add_triple(Triple("C", "r", "A"))
    assert {n for n, _ in g.neighbors("A")} == {"B", "C"}


def test_neighbors_unknown_entity():
    g = KnowledgeGraph()
    with pytest.raises(NotFoundError):
        g.neighbors("ghost")


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
            assert {(g.triples[i].tail, g.triples[i]) for i in g.out_adj[e]} == out[e]
            assert {(g.triples[i].head, g.triples[i]) for i in g.in_adj[e]} == into[e]
            both = out[e] | into[e]
            assert g.neighbors(e) == sorted(both, key=lambda p: (p[0], p[1].key))


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


def _dict_row(t: Triple) -> str:
    """Reference writer: the row as a dict through ``JSON_ENCODER``."""
    row = dict(head=t.head, relation=t.relation, tail=t.tail, weight=t.weight)
    if t.source_chunk is not None:
        row["source_chunk"] = t.source_chunk
    return JSON_ENCODER.encode(row)


def _dict_save(g: KnowledgeGraph) -> bytes:
    """Reference ``save`` built on ``_dict_row``."""
    lines = [JSON_ENCODER.encode({"format": "qmkgf-kg", "version": 1})]
    referenced = {t.head for t in g.triples} | {t.tail for t in g.triples}
    for entity_id in sorted(g.entities):
        entity = g.entities[entity_id]
        if entity_id not in referenced or entity.name != entity.id:
            lines.append(JSON_ENCODER.encode({"entity": {"id": entity.id, "name": entity.name}}))
    lines += [_dict_row(t) for t in sorted(g.triples, key=lambda t: t.key)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_triple_rows_are_the_bytes_of_the_dict_writer_on_random_graphs():
    pieces = ["a", "Z", "7", '"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", " ",
              "\u00e9", "\u4e2d", "\u2028", "\ud7ff", "\U0001f600", "\U0010ffff"]
    weights = [5e-324, 0.1, 1.7976931348623157e308, 3, True, np.float64(0.1), np.float64(2.5e-7)]
    rng = random.Random(11)
    names = [rng.choice(pieces[:3]) + "".join(rng.choices(pieces, k=rng.randint(0, 6)))
             for _ in range(40)]
    for _ in range(20):
        g = KnowledgeGraph()
        for _ in range(rng.randint(0, 50)):
            weight = rng.choice(weights + [rng.uniform(1e-3, 1e3)])
            chunk = rng.choice([None, rng.choice(names)])
            g.add_triple(Triple(rng.choice(names), rng.choice(names), rng.choice(names),
                                weight=weight, source_chunk=chunk))
        g.add_entity(rng.choice(pieces[:3]) + "\U0001f600 lonely", name='"named" \\ \u00e9')
        assert [t.json_line() for t in g.triples] == [_dict_row(t) for t in g.triples]
        assert save(g) == _dict_save(g)


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


KG_HEADER = json.dumps({"format": "qmkgf-kg", "version": 1})


def kg_load(path):
    """``load`` of a graph file, as the CLI reads one."""
    with open(path, "rb") as fh:
        return load(fh.read()).triples


@pytest.mark.parametrize("name", [5, [], "", "  "], ids=["int", "list", "empty", "blank"])
def test_load_names_the_line_of_an_entity_name_that_is_not_a_non_blank_string(name):
    with pytest.raises(ValidationError, match="non-blank string"):
        KnowledgeGraph().add_entity("A", name)
    data = f'{KG_HEADER}\n{json.dumps({"entity": {"id": "A", "name": name}})}\n'.encode()
    with pytest.raises(ParseError, match="entity name must be a non-blank string") as exc:
        load(data)
    assert exc.value.line == 2


@pytest.mark.parametrize("first, named", [
    ({"head": "A", "relation": "r", "tail": "B"}, "A"),
    ({"entity": {"id": "A", "name": "Able"}}, "Able"),
], ids=["after_a_triple", "after_an_entity_row"])
def test_load_names_the_line_of_an_entity_row_that_renames_an_entity(first, named):
    g = KnowledgeGraph()
    g.add_entity("A", named)
    g.add_entity("A", named)  # the same name again, or none, keeps the entity
    assert g.add_entity("A").name == named
    with pytest.raises(ValidationError, match=f"entity 'A' is already named '{named}'"):
        g.add_entity("A", "Al")
    rows = [first, {"entity": {"id": "A", "name": named}}, {"entity": {"id": "A", "name": "Al"}}]
    data = "\n".join([KG_HEADER, *map(json.dumps, rows)]).encode()
    with pytest.raises(ParseError, match=f"entity 'A' is already named '{named}'") as exc:
        load(data)
    assert exc.value.line == 4


def test_load_corpus_names_the_line_of_an_empty_id(tmp_path):
    from qmkgf.pipeline import load_corpus

    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "c1", "text": "a"}\n{"id": "", "text": "b"}\n')
    with pytest.raises(ParseError, match="non-empty id") as exc:
        load_corpus(str(path))
    assert exc.value.line == 2


def _jsonl_readers():
    from qmkgf import metrics
    from qmkgf.pipeline import load_corpus
    from qmkgf.reward import load_rm_training_file

    def load_eval_file(path):  # the rows name no gold chunk, so no corpus ids are needed
        return metrics.load_eval_file(path, ())

    # Each row holds a raw U+2028, which str.splitlines would take for a line end.
    return [
        (load_corpus, lambda i: {"id": f"c{i}", "text": "some\u2028text"}),
        (load_rm_training_file, lambda i: {"query": "q\u2028", "subgraph": "A r B", "score": 0.5}),
        (load_eval_file, lambda i: {"query": "q\u2028", "reference": "r", "gold_chunks": []}),
        (kg_load, lambda i: {"head": f"A{i}\u2028", "relation": "r", "tail": "B"}),
    ]


@pytest.mark.parametrize(
    "reader, row", _jsonl_readers(), ids=lambda v: getattr(v, "__name__", "")
)
def test_jsonl_readers_skip_blank_lines_and_name_the_bad_line(tmp_path, reader, row):
    path = tmp_path / "rows.jsonl"
    # A graph file starts with its header line, which moves every row down one.
    header = [KG_HEADER] if reader is kg_load else []
    shift = len(header)

    def write(*lines: str, tail: bytes = b"") -> None:
        path.write_bytes("".join(f"{line}\n" for line in [*header, *lines]).encode() + tail)

    first, second = (json.dumps(row(i), ensure_ascii=False) for i in (1, 2))
    write(first, "  ", second)
    assert len(reader(str(path))) == 2
    for bad, message in (("{broken", "invalid JSON"), ("[1, 2]", "JSON object"), ("7", "JSON object")):
        write(first, "", bad)
        with pytest.raises(ParseError, match=message) as exc:
            reader(str(path))
        assert exc.value.line == 3 + shift
    write(first, "", tail=b'{"id": "caf\xe9"}\n')
    with pytest.raises(ParseError, match="not valid UTF-8") as exc:
        reader(str(path))
    assert exc.value.line == 3 + shift


@pytest.mark.parametrize(
    "reader, row", _jsonl_readers(), ids=lambda v: getattr(v, "__name__", "")
)
def test_jsonl_readers_name_the_line_of_an_integer_past_the_digit_limit(tmp_path, reader, row):
    path = tmp_path / "rows.jsonl"
    header = [KG_HEADER] if reader is kg_load else []
    rows = [json.dumps(row(1)), '{"n": %s}' % ("1" * 5001)]
    path.write_text("".join(f"{line}\n" for line in [*header, *rows]))
    with pytest.raises(ParseError, match=r"invalid JSON: Exceeds the limit \(4300 digits\)") as exc:
        reader(str(path))
    assert exc.value.line == 2 + len(header)


def _reference_row(raw: str, lineno: int) -> dict:
    """Reference row parser: ``json.loads`` with the ``ParseError`` wrapping."""
    try:
        value = json.loads(raw)
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}", line=lineno) from exc
    if not isinstance(value, dict):
        raise ParseError("expected a JSON object", line=lineno)
    return value


def _outcome(parse, raw: str, lineno: int):
    """The value ``parse`` returns, or its ParseError's message, line and cause class."""
    try:
        return "value", parse(raw, lineno)
    except ParseError as exc:
        return "error", str(exc), exc.line, type(exc.__cause__)


def _random_json(rng: random.Random, depth: int = 0):
    leaves = [None, True, False, 0, -7, 10**20, 0.5, -1e-300, 1.7976931348623157e308, "",
              "café", "\u2028 \t\n\x0b\u00a0", '"\\/', "\U0001f600", "\ud800"]
    kind = rng.randrange(4 if depth < 3 else 1)
    if kind == 0:
        return rng.choice(leaves)
    if kind == 1:
        return [_random_json(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {rng.choice(["a", "head", "é", "", " k"]) + str(i): _random_json(rng, depth + 1)
            for i in range(rng.randint(0, 4))}


JSON_SPACE = [" ", "\t", "\n", "\r", "\r\n", " \t\r\n"]
OTHER_SPACE = ["\x0b", "\x0c", "\u00a0", "\u2028", "\ufeff", "\x00"]
EDGE_ROWS = [
    *(f'{pad}{{"a": 1}}' for pad in JSON_SPACE),
    *(f'{{"a": 1}}{pad}' for pad in JSON_SPACE),
    *(f'{pad}{{"a": 1}}' for pad in OTHER_SPACE),
    *(f'{{"a": 1}}{pad}' for pad in OTHER_SPACE),
    '\ufeff{"a": 1}', '\ufeff {"a": 1}', '{"a": 1} {"b": 2}', '{}{}', '{"a": 1}x', '{"a": 1},',
    '{"a": 1}\n{"b": 2}', "[1, 2]", "[]", "7", "-0.5", '"s"', "true", "null", "",
    '{"w": NaN}', '{"w": -Infinity}', '{"w": Infinity}\n', "NaN", '{"n": %s}' % ("1" * 5001),
    "1" * 5001, '{"n": %s} x' % ("1" * 5001), "{broken", '{"a": }', "{'a': 1}", '{"a": 1',
    '{"a": "\x01"}', '{"a": "\\ud800"}', '{"a": 1}\u2028', ' {"a": 1} x',
]


def test_the_row_parser_gives_what_json_loads_gives_on_edge_and_random_rows():
    from qmkgf.kg import _parse_json_line

    rng = random.Random(35)
    rows = list(EDGE_ROWS)
    for _ in range(400):
        value = _random_json(rng)
        row = json.dumps(value if rng.random() < 0.3 else {"v": value},
                         ensure_ascii=rng.random() < 0.5, indent=rng.choice([None, 0, 2]))
        before, after = (rng.choice(["", "", *JSON_SPACE, *OTHER_SPACE]) for _ in range(2))
        rows.append(before + row + after)
    for lineno, raw in enumerate(rows, start=1):
        assert _outcome(_parse_json_line, raw, lineno) == _outcome(_reference_row, raw, lineno), raw


@pytest.mark.parametrize("lines, message, line", [
    ([b'{"head": "A", "relation": "r", "tail": "B"}', b"{broken", b"", b'{"id": "caf\xe9"}'],
     "invalid JSON: Expecting property name enclosed in double quotes", 3),
    ([b'{"head": "A", "relation": "r", "tail": "B"}', b'{"id": "caf\xe9"}', b"", b"{broken"],
     "not valid UTF-8: invalid continuation byte", 3),
    ([b'{"head": "caf\xc3', b'", "relation": "r", "tail": "B"}'],
     "not valid UTF-8: unexpected end of data", 2),
], ids=["json-before-utf8", "utf8-before-json", "character-cut-at-a-line-end"])
def test_load_names_the_first_bad_line_and_its_own_reason(lines, message, line):
    with pytest.raises(ParseError) as exc:
        load(b"\n".join([KG_HEADER.encode(), *lines]) + b"\n")
    assert str(exc.value) == f"line {line}: {message}" and exc.value.line == line


def test_valid_rows_are_read_without_json_loads(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a valid row went to json.loads")

    pieces = ["a", "Z", '"', "\\", "\x00", "\n", "\t", " ", "é", "\u2028", "\U0001f600"]
    rng = random.Random(5)
    g = KnowledgeGraph()
    for _ in range(60):
        # Stripped on load, so no name starts or ends in whitespace.
        g.add_triple(Triple(*(f"n{''.join(rng.choices(pieces, k=3))}z" for _ in range(3)),
                            weight=rng.choice([0.25, 3, rng.uniform(0.1, 3.0)]),
                            source_chunk=rng.choice([None, "cé"])))
    g.add_entity("lonely", name="Lone é")
    data = save(g)
    path = tmp_path / "rows.jsonl"
    monkeypatch.setattr("qmkgf.kg.json.loads", refuse)
    assert load(data) == g
    for reader, row in _jsonl_readers():
        header = [KG_HEADER] if reader is kg_load else []
        lines = [*header, *(json.dumps(row(i), ensure_ascii=False) for i in (1, 2))]
        for end in ("\n", "\r\n"):
            path.write_bytes("".join(line + end for line in lines).encode())
            assert len(reader(str(path))) == 2


def test_source_chunk_kept_from_first_row():
    g = KnowledgeGraph()
    g.add_triple(Triple("A", "r", "B", weight=1.0, source_chunk="c1"))
    g.add_triple(Triple("A", "r", "B", weight=2.0, source_chunk="c2"))
    assert g.triples[0].source_chunk == "c1"
    assert g.triples[0].weight == 2.0


def _shared_names(g: KnowledgeGraph) -> dict[str, set[int]]:
    """Each string value in the graph's triples and entity ids -> the ids of its objects."""
    objects: dict[str, set[int]] = {}
    values = [v for t in g.triples for v in (t.head, t.relation, t.tail, t.source_chunk) if v]
    for value in [*values, *g.entities, *(e.id for e in g.entities.values())]:
        objects.setdefault(value, set()).add(id(value))
    return objects


# Names longer than one character: CPython shares one-character strings anyway.
SHARED_ROWS = [
    {"entity": {"id": "lonely", "name": "lonely"}},
    {"entity": {"id": "alpha", "name": "Alpha Town"}},
    {"head": " alpha", "relation": "knows", "tail": "bravo", "source_chunk": "chunk-1"},
    {"head": "bravo", "relation": "knows ", "tail": "charlie", "source_chunk": "chunk-1"},
    {"head": "charlie", "relation": "likes", "tail": "alpha", "source_chunk": "chunk-2"},
    {"head": "alpha", "relation": "likes", "tail": "lonely", "source_chunk": "chunk-2"},
]


def test_load_shares_one_string_per_name_with_the_entity_rows():
    g = load("\n".join([KG_HEADER, *map(json.dumps, SHARED_ROWS)]).encode())
    assert len(g) == 4 and g.entities["alpha"].name == "Alpha Town"
    assert {value: len(ids) for value, ids in _shared_names(g).items()} == dict.fromkeys(
        ["alpha", "bravo", "charlie", "lonely", "knows", "likes", "chunk-1", "chunk-2"], 1
    )


def test_ingest_shares_one_string_per_name_with_the_graph_entities():
    g = KnowledgeGraph()
    g.add_entity(json.loads('"lonely"'))
    records = [json.loads(json.dumps(row)) for row in SHARED_ROWS[2:]]
    _, report = ingest_extraction(g, records)
    assert report.as_dict() == {"added": 4, "merged": 0, "rejected": 0}
    assert all(len(ids) == 1 for ids in _shared_names(g).values())
    assert set(_shared_names(g)) == {
        "alpha", "bravo", "charlie", "lonely", "knows", "likes", "chunk-1", "chunk-2"
    }


def test_triples_and_entities_keep_no_instance_dict():
    g = load(save(KnowledgeGraph().add_triple(Triple("A", "r", "B", source_chunk="c1"))))
    for record in [*g.triples, *g.entities.values()]:
        assert not hasattr(record, "__dict__")
    assert g.triples[0].key == ("A", "r", "B")


def test_a_write_after_load_merges_an_existing_key_and_appends_a_new_one():
    g = load("\n".join([KG_HEADER, *map(json.dumps, SHARED_ROWS)]).encode())
    g.add_triple(Triple("alpha", "knows", "bravo", weight=3.0, source_chunk="chunk-9"))
    g.add_triple(Triple("alpha", "knows", "bravo", weight=0.5))
    assert len(g) == 4
    merged = [t for t in g.triples if t.key == ("alpha", "knows", "bravo")]
    assert [(t.weight, t.source_chunk) for t in merged] == [(3.0, "chunk-1")]
    g.add_triple(Triple("bravo", "likes", "delta"))
    assert len(g) == 5 and g.triples[4].key == ("bravo", "likes", "delta")
    assert g.out_adj["bravo"] == [1, 4] and g.in_adj["delta"] == [4]


def test_load_merges_a_duplicate_triple_row():
    rows = [
        {"head": "A", "relation": "r", "tail": "B", "weight": 1.0, "source_chunk": "c1"},
        {"head": "B", "relation": "r", "tail": "C"},
        {"head": "A", "relation": "r", "tail": "B", "weight": 2.5, "source_chunk": "c2"},
    ]
    g = load("\n".join([KG_HEADER, *map(json.dumps, rows)]).encode())
    assert [(t.key, t.weight, t.source_chunk) for t in g.triples] == [
        (("A", "r", "B"), 2.5, "c1"), (("B", "r", "C"), 1.0, None)
    ]
    assert g.out_adj["A"] == [0] and g.in_adj["B"] == [0]


# What a loaded graph keeps per triple, on the graph below: about 230 bytes
# with one shared string per name, slotted records and no key index, about
# 590 without them.
MAX_BYTES_PER_TRIPLE = 350


def test_a_loaded_graph_keeps_under_its_memory_budget_per_triple():
    rng = random.Random(31)
    records = [
        {
            "head": f"entity-{rng.randrange(1250):05d}",
            "relation": f"relation-{rng.randrange(20):02d}",
            "tail": f"entity-{rng.randrange(1250):05d}",
            "weight": round(rng.uniform(0.1, 3.0), 3),
            "source_chunk": f"chunk-{rng.randrange(200):04d}",
        }
        for _ in range(5000)
    ]
    data = save(ingest_extraction(KnowledgeGraph(), records)[0])
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = load(data)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert len(g) == 5000
    assert kept / len(g) < MAX_BYTES_PER_TRIPLE
