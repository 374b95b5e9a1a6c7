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
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NotFoundError, ParseError, ValidationError

KG_FORMAT = "qmkgf-kg"
KG_VERSION = 1

TripleKey = tuple[str, str, str]
CompiledGraph = tuple[list[str], dict[str, int], np.ndarray, np.ndarray, np.ndarray, np.ndarray]
# Weights must lie in (0, MAX_WEIGHT]: that rejects inf, nan and ints too
# large to convert to a float.
MAX_WEIGHT = sys.float_info.max


@dataclass(frozen=True)
class Entity:
    id: str
    name: str


@dataclass(frozen=True)
class Triple:
    head: str
    relation: str
    tail: str
    weight: float = 1.0
    source_chunk: str | None = None

    @property
    def key(self) -> TripleKey:
        return (self.head, self.relation, self.tail)

    def text(self) -> str:
        """Surface form used for embedding and serialization."""
        return f"{self.head} {self.relation} {self.tail}"


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
    ``compiled()`` caches the graph as arrays for PageRank, and
    ``candidate_memo`` holds what callers derive per entity (the
    pipeline's candidate subgraphs); adding an entity or a triple, or
    merging one, drops both. The graph is not thread-safe under
    mutation; build it first, then share it read-only.
    """

    def __init__(self) -> None:
        self.entities: dict[str, Entity] = {}
        self.triples: list[Triple] = []
        self.out_adj: dict[str, list[int]] = {}
        self.in_adj: dict[str, list[int]] = {}
        self._by_key: dict[TripleKey, int] = {}
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
        existing = self.entities.get(entity_id)
        if existing is not None:
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
        for label, value in (
            ("head", triple.head),
            ("relation", triple.relation),
            ("tail", triple.tail),
        ):
            if not value or not value.strip():
                raise ValidationError(f"triple {label} must be non-empty")
        if not 0.0 < triple.weight <= MAX_WEIGHT:
            raise ValidationError(f"triple weight must be finite and > 0, got {triple.weight!r}")

        self._compiled = self.candidate_memo = None
        existing_idx = self._by_key.get(triple.key)
        if existing_idx is not None:
            old = self.triples[existing_idx]
            self.triples[existing_idx] = Triple(
                head=old.head,
                relation=old.relation,
                tail=old.tail,
                weight=max(old.weight, triple.weight),
                source_chunk=old.source_chunk or triple.source_chunk,
            )
            return False

        self.add_entity(triple.head)
        self.add_entity(triple.tail)
        idx = len(self.triples)
        self.triples.append(triple)
        self._by_key[triple.key] = idx
        self.out_adj[triple.head].append(idx)
        self.in_adj[triple.tail].append(idx)
        return True

    def neighbors(self, entity_id: str, direction: str = "both") -> list[tuple[str, Triple]]:
        """Adjacent entities of ``entity_id`` with their connecting triples.

        ``direction`` is "out", "in", or "both" (union). The result is
        sorted by (neighbor id, relation) so iteration order is stable.
        """
        if entity_id not in self.entities:
            raise NotFoundError(f"unknown entity: {entity_id!r}")
        if direction not in ("out", "in", "both"):
            raise ValidationError(f"direction must be out|in|both, got {direction!r}")

        pairs: set[tuple[str, Triple]] = set()
        if direction in ("out", "both"):
            for idx in self.out_adj.get(entity_id, []):
                t = self.triples[idx]
                pairs.add((t.tail, t))
        if direction in ("in", "both"):
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
            self._compiled = (ids, pos, src, dst, weights / out_totals[src], out_totals == 0.0)
        return self._compiled


def ingest_extraction(
    g: KnowledgeGraph, records: list[dict]
) -> tuple[KnowledgeGraph, IngestReport]:
    """Add extraction records to ``g``, skipping malformed rows.

    A record needs non-empty string head/relation/tail; weight defaults
    to 1.0 and must be a positive number if present. Bad rows are
    counted as rejected, never abort the batch.
    """
    report = IngestReport()
    for record in records:
        triple = _record_to_triple(record)
        if triple is None:
            report.rejected += 1
            continue
        if g._upsert(triple):
            report.added += 1
        else:
            report.merged += 1
    return g, report


def _record_to_triple(record: object) -> Triple | None:
    if not isinstance(record, dict):
        return None
    head = record.get("head")
    relation = record.get("relation")
    tail = record.get("tail")
    if not all(isinstance(v, str) and v.strip() for v in (head, relation, tail)):
        return None
    weight = record.get("weight", 1.0)
    if isinstance(weight, bool) or not isinstance(weight, (int, float)):
        return None
    if not 0.0 < weight <= MAX_WEIGHT:
        return None
    source_chunk = record.get("source_chunk")
    if source_chunk is not None and not isinstance(source_chunk, str):
        return None
    return Triple(
        head=head.strip(),
        relation=relation.strip(),
        tail=tail.strip(),
        weight=float(weight),
        source_chunk=source_chunk,
    )


def save(g: KnowledgeGraph) -> bytes:
    """Serialize a graph; ``load(save(g)) == g`` for any graph content."""
    lines = [json.dumps({"format": KG_FORMAT, "version": KG_VERSION}, sort_keys=True)]
    referenced = {t.head for t in g.triples} | {t.tail for t in g.triples}
    for entity_id in sorted(g.entities):
        entity = g.entities[entity_id]
        if entity_id not in referenced or entity.name != entity.id:
            lines.append(
                json.dumps({"entity": {"id": entity.id, "name": entity.name}}, sort_keys=True)
            )
    for triple in sorted(g.triples, key=lambda t: t.key):
        row: dict = {
            "head": triple.head,
            "relation": triple.relation,
            "tail": triple.tail,
            "weight": triple.weight,
        }
        if triple.source_chunk is not None:
            row["source_chunk"] = triple.source_chunk
        lines.append(json.dumps(row, sort_keys=True))
    return ("\n".join(lines) + "\n").encode("utf-8")


def load(data: bytes) -> KnowledgeGraph:
    """Parse a graph saved by :func:`save`.

    Raises ParseError naming the offending line on any malformed input.
    """
    try:
        text = data.decode("utf-8", errors="strict")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc.reason}", line=1) from exc
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input, expected qmkgf-kg header", line=1)

    header = _parse_json_line(lines[0], 1)
    if header.get("format") != KG_FORMAT:
        raise ParseError(f"bad header, expected format {KG_FORMAT!r}", line=1)
    if header.get("version") != KG_VERSION:
        raise ParseError(f"unsupported version {header.get('version')!r}", line=1)

    g = KnowledgeGraph()
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        row = _parse_json_line(raw, lineno)
        if "entity" in row:
            ent = row["entity"]
            if not isinstance(ent, dict) or not isinstance(ent.get("id"), str):
                raise ParseError("malformed entity row", line=lineno)
            try:
                g.add_entity(ent["id"], ent.get("name"))
            except ValidationError as exc:
                raise ParseError(str(exc), line=lineno) from exc
            continue
        triple = _record_to_triple(row)
        if triple is None:
            raise ParseError(f"malformed triple row: {raw.strip()!r}", line=lineno)
        g._upsert(triple)
    return g


def _parse_json_line(raw: str, lineno: int) -> dict:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from exc
    if not isinstance(value, dict):
        raise ParseError("expected a JSON object", line=lineno)
    return value


def read_jsonl(path: str) -> Iterator[tuple[int, dict]]:
    """Yield (1-based line number, object) for each non-blank line of a JSONL file.

    Raises ParseError naming the line on invalid JSON or a non-object row.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if raw.strip():
                yield lineno, _parse_json_line(raw, lineno)


def load_extraction_file(path: str) -> list[dict]:
    """Read a line-delimited extraction-record file (no header)."""
    return [row for _, row in read_jsonl(path)]
