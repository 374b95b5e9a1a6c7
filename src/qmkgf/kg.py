"""Knowledge-graph triple store with adjacency indices.

The graph is directed and weighted. Triples are deduplicated by
(head, relation, tail); re-adding an existing triple keeps the maximum
weight, so ingestion is idempotent.

Persistence format (line-delimited JSON, UTF-8):

    {"format": "qmkgf-kg", "version": 1}                      <- header
    {"entity": {"id": "A", "name": "A"}}                      <- optional
    {"head": "A", "relation": "knows", "tail": "B", "weight": 1.0}
    ...

Triple rows use the same schema as extraction-record files, so a bare
extraction file (without the header) can be ingested directly via
``ingest_extraction``. Entity rows are only written for entities that
could not be reconstructed from the triples alone (isolated nodes or
display names that differ from the id); without them, save/load would
not round-trip.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterable, Iterator

import numpy as np

from .errors import NotFoundError, ParseError, ValidationError

KG_FORMAT = "qmkgf-kg"
KG_VERSION = 1

TripleKey = tuple[str, str, str]
CompiledGraph = tuple[list[str], dict[str, int], np.ndarray, np.ndarray, np.ndarray, np.ndarray]
# Weights must lie in (0, MAX_WEIGHT]: that rejects inf, nan and ints too
# large to convert to a float.
MAX_WEIGHT = sys.float_info.max
# What ``json.dumps(value, sort_keys=True)`` builds afresh on every call.
JSON_ENCODER = json.JSONEncoder(sort_keys=True)
_DECODER = json.JSONDecoder()  # ``json.loads``' own decoder settings


@dataclass(frozen=True, slots=True)
class Entity:
    id: str
    name: str


@dataclass(frozen=True, slots=True)
class Triple:
    """A weighted (head, relation, tail) edge; constructing one raises
    ValidationError for a blank field or a weight outside (0, MAX_WEIGHT]."""

    head: str
    relation: str
    tail: str
    weight: float = 1.0
    source_chunk: str | None = None

    def __post_init__(self) -> None:
        for label, value in (("head", self.head), ("relation", self.relation), ("tail", self.tail)):
            if not value or not value.strip():
                raise ValidationError(f"triple {label} must be non-empty")
        if not 0.0 < self.weight <= MAX_WEIGHT:
            raise ValidationError(f"triple weight must be finite and > 0, got {self.weight!r}")

    key = property(attrgetter("head", "relation", "tail"), doc="(head, relation, tail)")

    def text(self) -> str:
        """Surface form used for embedding and serialization."""
        return f"{self.head} {self.relation} {self.tail}"

    def json_line(self) -> str:
        """The triple's row in a graph file or subgraph dump, byte for byte
        what ``JSON_ENCODER`` writes for the row as a dict; ``_record_to_triple``
        reads it."""
        q = encode_basestring_ascii  # what ``JSON_ENCODER`` applies to a str
        weight = self.weight
        weight = float.__repr__(weight) if type(weight) is float else JSON_ENCODER.encode(weight)
        chunk = "" if self.source_chunk is None else f'"source_chunk": {q(self.source_chunk)}, '
        return (f'{{"head": {q(self.head)}, "relation": {q(self.relation)}, '
                f'{chunk}"tail": {q(self.tail)}, "weight": {weight}}}')


@dataclass
class IngestReport:
    added: int = 0
    merged: int = 0
    rejected: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"added": self.added, "merged": self.merged, "rejected": self.rejected}


class KnowledgeGraph:
    """Entities plus weighted directed triples with in/out adjacency.

    Adjacency maps entity id -> list of indices into ``triples``; both
    maps are kept exactly consistent with the triple list at all times.
    The key -> index map only serves writes: ``load`` drops it, and the
    first write after that rebuilds it from ``triples``.
    ``compiled()`` caches the graph as arrays for PageRank, and
    ``candidate_memo`` holds what callers derive from the graph (the
    pipeline's ``GraphMemo``); adding an entity or a triple, or merging
    one, drops both. The graph is not thread-safe under
    mutation; build it first, then share it read-only.
    """

    def __init__(self) -> None:
        self.entities: dict[str, Entity] = {}
        self.triples: list[Triple] = []
        self.out_adj: dict[str, list[int]] = {}
        self.in_adj: dict[str, list[int]] = {}
        self._by_key: dict[TripleKey, int] | None = {}
        self._compiled: CompiledGraph | None = None
        self.candidate_memo: tuple | None = None

    def __len__(self) -> int:
        return len(self.triples)

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self.entities

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return self.entities == other.entities and sorted(
            self.triples, key=lambda t: t.key
        ) == sorted(other.triples, key=lambda t: t.key)

    def add_entity(self, entity_id: str, name: str | None = None) -> Entity:
        if not entity_id or not entity_id.strip():
            raise ValidationError("entity id must be non-empty")
        if name is not None and (not isinstance(name, str) or not name.strip()):
            raise ValidationError(f"entity name must be a non-blank string, got {name!r}")
        existing = self.entities.get(entity_id)
        if existing is not None:
            if name is not None and name != existing.name:
                raise ValidationError(f"entity {entity_id!r} is already named {existing.name!r}")
            return existing
        entity = Entity(id=entity_id, name=name if name is not None else entity_id)
        self.entities[entity_id] = entity
        self._compiled = self.candidate_memo = None
        self.out_adj.setdefault(entity_id, [])
        self.in_adj.setdefault(entity_id, [])
        return entity

    def add_triple(self, triple: Triple) -> "KnowledgeGraph":
        self._upsert(triple)
        return self

    def _upsert(self, triple: Triple) -> bool:
        """Insert or merge one triple. Returns True if newly added."""
        self._compiled = self.candidate_memo = None
        if self._by_key is None:
            self._by_key = {t.key: i for i, t in enumerate(self.triples)}
        key = triple.key
        existing_idx = self._by_key.get(key)
        if existing_idx is not None:
            old = self.triples[existing_idx]
            self.triples[existing_idx] = replace(
                old, weight=max(old.weight, triple.weight),
                source_chunk=old.source_chunk or triple.source_chunk,
            )
            return False

        for endpoint in (triple.head, triple.tail):
            if endpoint not in self.entities:  # ``Triple`` has checked it is not blank
                self.add_entity(endpoint)
        idx = len(self.triples)
        self.triples.append(triple)
        self._by_key[key] = idx
        self.out_adj[triple.head].append(idx)
        self.in_adj[triple.tail].append(idx)
        return True

    def neighbors(self, entity_id: str) -> list[tuple[str, Triple]]:
        """Adjacent entities of ``entity_id`` in either direction, each with
        its connecting triple: (tail, t) for an out-triple and (head, t) for
        an in-triple. The result is sorted by (neighbor id, triple key) so
        iteration order is stable.
        """
        if entity_id not in self.entities:
            raise NotFoundError(f"unknown entity: {entity_id!r}")
        pairs: set[tuple[str, Triple]] = set()
        for idx in self.out_adj.get(entity_id, []):
            t = self.triples[idx]
            pairs.add((t.tail, t))
        for idx in self.in_adj.get(entity_id, []):
            t = self.triples[idx]
            pairs.add((t.head, t))
        return sorted(pairs, key=lambda p: (p[0], p[1].key))

    def compiled(self) -> CompiledGraph:
        """(sorted ids, id -> position, edge sources, edge targets, edge
        weights divided by their source's out-weight, mask of nodes with
        no out-edges), in triple order; cached until the next mutation."""
        if self._compiled is None:
            ids = sorted(self.entities)
            pos = {e: i for i, e in enumerate(ids)}
            src = np.array([pos[t.head] for t in self.triples], dtype=np.intp)
            dst = np.array([pos[t.tail] for t in self.triples], dtype=np.intp)
            weights = np.array([t.weight for t in self.triples], dtype=np.float64)
            out_totals = np.bincount(src, weights=weights, minlength=len(ids))
            huge = ~np.isfinite(out_totals)  # a sum past the float range: scale by the largest
            if huge.any():
                largest = np.zeros(len(ids))
                np.maximum.at(largest, src, weights)
                weights = np.where(huge[src], weights / largest[src], weights)
                out_totals = np.bincount(src, weights=weights, minlength=len(ids))
            self._compiled = (ids, pos, src, dst, weights / out_totals[src], out_totals == 0.0)
        return self._compiled


def ingest_extraction(
    g: KnowledgeGraph, records: list[dict]
) -> tuple[KnowledgeGraph, IngestReport]:
    """Add extraction records to ``g``, skipping malformed rows.

    A record needs non-empty string head/relation/tail; weight defaults
    to 1.0 and must be a positive number if present. Bad rows are
    counted as rejected, never abort the batch. The added triples share
    one string per distinct name with each other and ``g``'s entities.
    """
    report = IngestReport()
    names = dict(zip(g.entities, g.entities))
    for record in records:
        triple = _record_to_triple(record, names)
        if triple is None:
            report.rejected += 1
            continue
        if g._upsert(triple):
            report.added += 1
        else:
            report.merged += 1
    return g, report


def is_number(value: object) -> bool:
    """Whether ``value`` is a JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _record_to_triple(record: object, names: dict[str, str]) -> Triple | None:
    """The triple a record describes, fields stripped, each string the one
    ``names`` maps it to (added if new); None for a record of the wrong JSON
    types, a weight that overflows a float, or one ``Triple`` rejects."""
    if not isinstance(record, dict):
        return None
    head = record.get("head")
    relation = record.get("relation")
    tail = record.get("tail")
    weight = record.get("weight", 1.0)
    if not (isinstance(head, str) and isinstance(relation, str) and isinstance(tail, str)
            and is_number(weight)):
        return None
    source_chunk = record.get("source_chunk")
    if source_chunk is not None and not isinstance(source_chunk, str):
        return None
    share = names.setdefault
    head, relation, tail = head.strip(), relation.strip(), tail.strip()
    head, relation, tail = share(head, head), share(relation, relation), share(tail, tail)
    if source_chunk is not None:
        source_chunk = share(source_chunk, source_chunk)
    try:
        return Triple(head, relation, tail, float(weight), source_chunk)
    except (OverflowError, ValidationError):
        return None


def save(g: KnowledgeGraph) -> bytes:
    """Serialize a graph; ``load(save(g)) == g`` for any graph content."""
    lines = [JSON_ENCODER.encode({"format": KG_FORMAT, "version": KG_VERSION})]
    referenced = {t.head for t in g.triples} | {t.tail for t in g.triples}
    for entity_id in sorted(g.entities):
        entity = g.entities[entity_id]
        if entity_id not in referenced or entity.name != entity.id:
            lines.append(JSON_ENCODER.encode({"entity": {"id": entity.id, "name": entity.name}}))
    lines += [triple.json_line() for triple in sorted(g.triples, key=Triple.key.fget)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def load(data: bytes) -> KnowledgeGraph:
    """Parse a graph saved by :func:`save`; duplicate triple rows merge.
    Its triples and entities share one string per distinct name.

    Raises ParseError naming the offending line on any malformed input.
    """
    try:  # UTF-8 puts no byte 0x0A inside a character, so the lines are the same
        rows = _jsonl_rows(data.decode("utf-8").split("\n"))
    except UnicodeDecodeError:  # decode line by line, so the first bad line is named
        rows = _jsonl_rows(_decoded(data.split(b"\n")))
    lineno, header = next(rows, (None, None))
    if lineno != 1:
        raise ParseError(f"expected the {KG_FORMAT} header", line=1)
    if header.get("format") != KG_FORMAT:
        raise ParseError(f"bad header, expected format {KG_FORMAT!r}", line=1)
    if header.get("version") != KG_VERSION:
        raise ParseError(f"unsupported version {header.get('version')!r}", line=1)

    g = KnowledgeGraph()
    names: dict[str, str] = {}  # one str per distinct name, for this graph alone
    for lineno, row in rows:
        if "entity" in row:
            ent = row["entity"]
            if not isinstance(ent, dict) or not isinstance(ent.get("id"), str):
                raise ParseError("malformed entity row", line=lineno)
            try:
                g.add_entity(names.setdefault(ent["id"], ent["id"]), ent.get("name"))
            except ValidationError as exc:
                raise ParseError(str(exc), line=lineno) from exc
            continue
        triple = _record_to_triple(row, names)
        if triple is None:
            raise ParseError(f"malformed triple row: {json.dumps(row)}", line=lineno)
        g._upsert(triple)
    g._by_key = None  # most graphs are only read; the first write rebuilds it
    return g


def _parse_json_line(raw: str, lineno: int) -> dict:
    """The object on one line: parsed once when ``raw_decode`` reads it whole,
    up to JSON whitespace, else by ``json.loads``, whose value or error it is."""
    try:
        value, end = _DECODER.raw_decode(raw)
    except ValueError:
        end = 0  # no value is empty, so the row goes to ``json.loads``
    if not end or raw[end:].strip(" \t\n\r"):
        try:
            value = json.loads(raw)
        except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
            raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}", line=lineno) from exc
    if not isinstance(value, dict):
        raise ParseError("expected a JSON object", line=lineno)
    return value


def _decoded(lines: Iterable[bytes]) -> Iterator[str]:
    """Each line decoded from UTF-8; raises ParseError naming the first one
    that is not UTF-8, when the consumer reaches it."""
    for lineno, data in enumerate(lines, start=1):
        try:
            yield data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc.reason}", line=lineno) from exc


def _jsonl_rows(lines: Iterable[str]) -> Iterator[tuple[int, dict]]:
    """Yield (1-based line number, object) for each non-blank line; ``lines``
    are split at "\\n" only, so a U+2028 inside a JSON string stays in its row.
    Raises ParseError naming the line on invalid JSON or a non-object row."""
    for lineno, raw in enumerate(lines, start=1):
        if raw.strip():
            yield lineno, _parse_json_line(raw, lineno)


def read_jsonl(path: str) -> Iterator[tuple[int, dict]]:
    """(line number, object) per non-blank line of a file; see ``_decoded``, ``_jsonl_rows``."""
    with open(path, "rb") as fh:
        yield from _jsonl_rows(_decoded(fh))
