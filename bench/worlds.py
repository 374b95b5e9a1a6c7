"""Seeded synthetic worlds for the benchmark.

A world is what a deployment would hand the program: a corpus of
chunks, extraction records for the knowledge graph, and labelled query
rows ({query, reference, gold_chunks}) split into disjoint warm-up,
timed and traced lists. Everything is drawn from one ``random.Random``
seeded by the workload seed, so the same seed gives byte-identical
inputs.

Entity names are single capitalised tokens ("Brandor412") and every
other word is lower case, so the stub client extracts exactly the
entities a query names, and a query without a capitalised token takes
the pipeline's fallback path.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

_ONSETS = "b br c d dr f g gr h k kr l m n p pr r s st t tr v w z".split()
_VOWELS = "a e i o u ae ai ou".split()
_CODAS = "n r l s th nd rk m x".split()

RELATIONS = [
    "borders", "supplies", "founded", "trades_with", "governs", "hosts",
    "rivals", "serves", "funds", "mentors", "employs", "owns", "visits",
    "builds", "repairs", "guards", "studies", "ships_to", "allies_with",
    "succeeds",
]


# Skew of query-centre popularity: centres repeat, yet no single centre
# dominates a run, so per-seed means stay representative.
ZIPF_EXPONENT = 0.3


def _syllable(rng: random.Random) -> str:
    return rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)


def entity_names(rng: random.Random, n: int) -> list[str]:
    """``n`` distinct single-token capitalised names."""
    return [(_syllable(rng) + _syllable(rng)).capitalize() + str(i) for i in range(n)]


def filler_vocabulary(rng: random.Random, n: int) -> list[str]:
    words: set[str] = set()
    while len(words) < n:
        words.add(_syllable(rng) + rng.choice(_VOWELS))
    return sorted(words)


def zipf_weights(n: int, exponent: float) -> list[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(n)]


@dataclass
class World:
    chunks: list[dict]                 # {"id", "text"}
    records: list[dict]                # extraction records (head, relation, tail, weight)
    warmup: list[dict]                 # query rows
    timed: list[dict]
    traced: list[dict]
    properties: dict = field(default_factory=dict)

    def digest(self) -> str:
        """sha256 of every generated input, for checking seed determinism."""
        h = hashlib.sha256()
        for part in (self.chunks, self.records, self.warmup, self.timed, self.traced):
            h.update(json.dumps(part, sort_keys=True).encode("utf-8"))
        return h.hexdigest()


def _row(query: str, gold: list[str], chunk_text: dict[str, str], **tags) -> dict:
    gold = sorted(set(gold))
    return {
        "query": query,
        "reference": chunk_text[gold[0]],
        "gold_chunks": gold,
        **tags,
    }


def _chain_records(stub, chunks: list[dict]) -> list[dict]:
    """Triples the stub extracts from each chunk, as ``qmkgf build-kg`` does."""
    records = []
    for chunk in chunks:
        for record in stub.extract_triples(chunk["text"]):
            record["source_chunk"] = chunk["id"]
            records.append(record)
    return records


def _properties(world: World) -> dict:
    timed = world.timed
    centres_seen: set[str] = set()
    repeats = 0
    for row in timed:
        if row["entities"] and row["entities"][0] in centres_seen:
            repeats += 1
        centres_seen.update(row["entities"][:1])
    n = len(timed)
    return {
        "extraction_records": len(world.records),
        "chunks": len(world.chunks),
        "timed_queries_generated": n,
        "entities_per_query": round(sum(len(r["entities"]) for r in timed) / n, 3),
        "repeat_share": round(repeats / n, 3),
        "fallback_share": round(sum(1 for r in timed if not r["entities"]) / n, 3),
        "two_hop_only_share": round(sum(1 for r in timed if r["two_hop"]) / n, 3),
    }


def _split(rows: list[dict], n_warmup: int, n_traced: int) -> tuple[list, list, list]:
    """Warm-up, timed and traced lists; no warm-up query text recurs later,
    so warm-up cannot pre-answer a measured query."""
    traced = rows[n_warmup:n_warmup + n_traced]
    timed = rows[n_warmup + n_traced:]
    later = {r["query"] for r in traced + timed}
    warmup = [r for r in rows[:n_warmup] if r["query"] not in later]
    return warmup, timed, traced


def doc_heavy(seed: int, stub) -> World:
    """A large corpus, stub-extracted into a mid-sized graph.

    Most chunks chain six entities between two copies of a topic word,
    so the stub extracts five "related_to" triples from each.
    150 keystone structures (Keystone - Midpoint - Farpoint,
    each link in its own chunk, plus a gold chunk naming only the
    Farpoint) give queries whose gold chunk shares no entity with the
    query: they are answerable only through the 2-hop path. Query
    centres follow a Zipf law, so centres repeat. Every block of 20
    queries holds 2 fallback queries (no entity, so no graph stage
    runs), 9 two-hop, 4 direct one-entity and 5 direct two-entity
    queries, so every prefix of the timed list has the same mix.
    """
    n_planted, n_free, n_queries = 150, 600, 1600
    rng = random.Random(f"doc_heavy:{seed}")
    vocab = filler_vocabulary(rng, 300)
    n_entities = 3 * n_planted + n_free
    n_chunks = 3 * n_planted + (5 * n_free + 2 * n_planted) // 6
    names = entity_names(rng, n_entities)
    planted_names = names[: 3 * n_planted]
    free_names = names[3 * n_planted:]
    attributes = [w + "ic" for w in filler_vocabulary(rng, n_planted)]

    chunks: list[dict] = []
    chunk_entities: dict[str, list[str]] = {}

    def add_chunk(entities: list[str], text: str) -> str:
        cid = f"d{len(chunks):05d}"
        chunks.append({"id": cid, "text": text})
        chunk_entities[cid] = entities
        return cid

    keystones = []
    for i in range(n_planted):
        k, m, f = planted_names[3 * i: 3 * i + 3]
        o1, o2 = rng.sample(free_names, 2)
        w1, w2, w3 = rng.sample(vocab, 3)
        attr = attributes[i]
        add_chunk([k, m], f"{w1} {k} {m} {w2}")
        add_chunk([m, f, o1, o2], f"{w3} {m} {f} {o1} {o2} {w3}")
        gold = add_chunk([f], f"{f} {attr} {f} {attr} {f}")
        keystones.append((f"what {attr} made {k} famous", k, gold))

    # Ordinary chunks: every free entity appears in exactly five of them,
    # so query cost depends little on which centre is drawn. Each
    # keystone also appears in two, so a two-hop query expands about as
    # far as a one-entity direct query.
    cameos = [k for _, k, _ in keystones for _ in range(2)]
    rng.shuffle(cameos)
    pool: list[str] = []
    for _ in range(5):
        pool.extend(rng.sample(free_names, len(free_names)))
    topic_of: dict[str, str] = {}
    while len(chunks) < n_chunks:
        topic = f"topic{len(chunks)}"
        if cameos:
            ents = [pool.pop() for _ in range(5)] + [cameos.pop()]
            rng.shuffle(ents)
        else:
            ents = [pool.pop() for _ in range(6)]
        ents = list(dict.fromkeys(ents))
        topic_of[add_chunk(ents, f"{topic} {' '.join(ents)} {topic}")] = topic
    records = _chain_records(stub, chunks)

    chunk_text = {c["id"]: c["text"] for c in chunks}
    mentions: dict[str, list[str]] = {}
    for cid in topic_of:
        for e in chunk_entities[cid]:
            mentions.setdefault(e, []).append(cid)
    direct_pool = sorted(mentions)
    rng.shuffle(direct_pool)
    direct_weights = zipf_weights(len(direct_pool), ZIPF_EXPONENT)
    rng.shuffle(keystones)
    keystone_weights = zipf_weights(len(keystones), ZIPF_EXPONENT)
    topic_chunks = sorted(topic_of)

    def make(kind: str) -> dict:
        if kind == "fallback":
            cid = rng.choice(topic_chunks)
            return _row(f"about {topic_of[cid]}", [cid], chunk_text, entities=[], two_hop=False)
        if kind == "two_hop":
            query, k, gold = rng.choices(keystones, weights=keystone_weights)[0]
            return _row(query, [gold], chunk_text, entities=[k], two_hop=True)
        a = rng.choices(direct_pool, weights=direct_weights)[0]
        if kind == "direct1":
            return _row(f"about {a}", mentions[a], chunk_text, entities=[a], two_hop=False)
        b = rng.choice([e for e in chunk_entities[rng.choice(mentions[a])] if e != a])
        gold = [c for c in mentions[a] if b in chunk_entities[c]]
        return _row(f"{a} and {b}", gold, chunk_text, entities=[a, b], two_hop=False)

    block = ["fallback"] * 2 + ["two_hop"] * 9 + ["direct1"] * 4 + ["direct2"] * 5
    rows = []
    while len(rows) < n_queries:
        rng.shuffle(block)
        rows.extend(make(kind) for kind in block)
    warmup, timed, traced = _split(rows, 60, 40)
    world = World(chunks, records, warmup, timed, traced)
    world.properties = _properties(world)
    return world


def graph_heavy(seed: int, stub) -> World:
    """A large weighted graph from generated extraction records, a small corpus.

    Heads are uniform and tails Zipf-skewed, so the graph has hubs and
    dangling nodes as extracted graphs do. Each chunk profiles three main
    entities, each named twice, among two others. Every query names one
    main entity, so no centre appears twice across the warm-up, timed and
    traced lists (repeat share 0).
    """
    n_entities, n_triples, n_chunks = 8000, 32000, 200
    rng = random.Random(f"graph_heavy:{seed}")
    vocab = filler_vocabulary(rng, 300)
    names = entity_names(rng, n_entities)
    tail_order = names[:]
    rng.shuffle(tail_order)
    tail_cum = _cumulative(zipf_weights(n_entities, 0.6))

    records = []
    seen: set[tuple[str, str, str]] = set()
    while len(records) < n_triples:
        head = rng.choice(names)
        tail = rng.choices(tail_order, cum_weights=tail_cum)[0]
        relation = rng.choice(RELATIONS)
        if head == tail or (head, relation, tail) in seen:
            continue
        seen.add((head, relation, tail))
        records.append({"head": head, "relation": relation, "tail": tail,
                        "weight": round(rng.uniform(0.1, 1.0), 3)})

    chunks, rows = [], []
    for i in range(n_chunks):
        m1, m2, m3 = names[3 * i: 3 * i + 3]
        b, c = rng.sample(names[3 * n_chunks:], 2)
        w1, w2 = rng.sample(vocab, 2)
        text = f"{m1} {w1} {m2} {b} {m1} {m3} {c} {w2} {m2} {m3}"
        chunks.append({"id": f"g{i:04d}", "text": text})
        rows.extend(_row(f"facts on {m}", [f"g{i:04d}"], {f"g{i:04d}": text},
                         entities=[m], two_hop=False) for m in (m1, m2, m3))
    rng.shuffle(rows)
    warmup, timed, traced = _split(rows, 10, 24)
    world = World(chunks, records, warmup, timed, traced)
    world.properties = _properties(world)
    return world


def _cumulative(weights: list[float]) -> list[float]:
    total = 0.0
    out = []
    for w in weights:
        total += w
        out.append(total)
    return out


WORKLOADS = {"doc_heavy": doc_heavy, "graph_heavy": graph_heavy}
