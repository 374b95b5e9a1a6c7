"""Golden digests of the pipeline's output on the two benchmark worlds.

Each world is built from ``bench/worlds.py`` at seed 41 with the stub
client, straight into memory, and its rows are run under every strategy,
once per test session (``build_world``, behind the session fixture
``golden_world`` in ``conftest.py``); ``test_metrics.py`` scores the same
results. The test compares, with the checked-in ``golden_traces.json``:

- per strategy, one sha256 over the ``run_qmkgf`` traces of the first
  warm-up and timed rows, in order;
- per subgraph kind, one sha256 over the ``inspect-subgraph`` dumps of
  the five highest-degree entities.

On the same worlds it also checks that ``pagerank_subgraph``'s settled
PageRank picks the members of a run to the tolerance, in fewer
iterations.

A change that moves any ranking, score or fused triple by one bit fails
here. Such a change regenerates the file with
``PYTHONPATH=src python tests/test_golden.py`` and says in CHANGES.md
why the outputs changed. A mismatch on another host with unchanged code
(other BLAS last bits, say) is a finding to report, not a reason to
loosen or skip the check.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qmkgf import pipeline as pipe
from qmkgf import subgraphs
from qmkgf.cli import inspect_subgraph
from qmkgf.clients import StubModelClient
from qmkgf.config import PipelineConfig
from qmkgf.fusion import STRATEGIES
from qmkgf.kg import KnowledgeGraph, ingest_extraction
from qmkgf.reward import AttentionParams, init_params

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_traces.json"
REGENERATE = "PYTHONPATH=src python tests/test_golden.py"
SEED = 41
DIM = 64
ROWS = {"doc_heavy": 150, "graph_heavy": 100}
KINDS = (subgraphs.ONEHOP, subgraphs.MULTIHOP, subgraphs.PAGERANK, subgraphs.FUSED)
TOP_ENTITIES = 5
SETTLE_ENTITIES = 100


def _bench_worlds():
    spec = importlib.util.spec_from_file_location("bench_worlds", ROOT / "bench" / "worlds.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it executes
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@dataclass
class GoldenWorld:
    """One bench world at the golden seed and every row's ``run_qmkgf``
    result under each strategy, in row order."""

    name: str
    graph: KnowledgeGraph
    indices: pipe.RetrievalIndices
    params: AttentionParams
    stub: StubModelClient
    rows: list[dict]
    results: dict[str, list[pipe.QmkgfResult]]
    timed_from: int  # the index in ``rows`` of the first timed row


def build_world(name: str) -> GoldenWorld:
    """The one builder of a golden world: for the checks (through the
    session fixture ``golden_world`` in ``conftest.py``) and for ``main``."""
    stub = StubModelClient(dim=DIM, seed=0)
    world = _bench_worlds().WORKLOADS[name](SEED, stub)
    graph, _ = ingest_extraction(KnowledgeGraph(), world.records)
    chunks = {c["id"]: pipe.Chunk(id=c["id"], text=c["text"]) for c in world.chunks}
    indices = pipe.RetrievalIndices(
        entities=pipe.build_entity_index(graph, stub.embed, DIM),
        documents=pipe.build_document_index(chunks, stub.embed, DIM),
        chunks=chunks,
    )
    params = init_params(DIM, heads=32, seed=0)
    rows = (world.warmup + world.timed)[: ROWS[name]]
    results = {}
    for strategy in STRATEGIES:
        cfg = PipelineConfig(stub=True, strategy=strategy)
        results[strategy] = [
            pipe.run_qmkgf(row["query"], graph, indices, params, cfg, stub) for row in rows
        ]
    return GoldenWorld(name, graph, indices, params, stub, rows, results, len(world.warmup))


def trace_digests(world: GoldenWorld) -> dict[str, str]:
    out = {}
    for strategy, results in world.results.items():
        h = hashlib.sha256()
        for result in results:
            h.update(json.dumps(result.trace, sort_keys=True).encode())
        out[strategy] = h.hexdigest()
    return out


def dump_digests(world: GoldenWorld) -> dict:
    """What ``inspect-subgraph --kind <kind>`` prints for each top entity."""
    graph = world.graph
    degree = {e: len(graph.out_adj[e]) + len(graph.in_adj[e]) for e in graph.entities}
    top = sorted(degree, key=lambda e: (-degree[e], e))[:TOP_ENTITIES]
    args = (graph, world.indices, world.params, PipelineConfig(stub=True), world.stub)
    hashes = {kind: hashlib.sha256() for kind in KINDS}
    for entity in top:
        for kind, h in hashes.items():
            h.update(inspect_subgraph(entity, kind, *args).encode())
    return {"entities": top, **{kind: h.hexdigest() for kind, h in hashes.items()}}


def _load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _host_note(golden: dict) -> str:
    return (f"golden file written with numpy {golden['numpy']}, running numpy "
            f"{np.__version__}; regenerate only for a declared output change: {REGENERATE}")


def test_run_qmkgf_traces_match_the_golden_digests(golden_world):
    golden = _load_golden()
    assert len(golden_world.rows) == ROWS[golden_world.name]
    assert trace_digests(golden_world) == golden["traces"][golden_world.name], _host_note(golden)


def test_inspect_subgraph_dumps_match_the_golden_digests(golden_world):
    golden = _load_golden()
    assert dump_digests(golden_world) == golden["dumps"][golden_world.name], _host_note(golden)


def test_pagerank_subgraph_settles_on_the_full_runs_members_in_fewer_iterations(
    golden_world, monkeypatch
):
    # Keeps the settled stop from going dead, or wrong, on the bench worlds.
    graph = golden_world.graph
    cfg = PipelineConfig(stub=True)
    unpatched = subgraphs.personalized_pagerank
    settled = []

    def recorded(*args, **kwargs):  # pagerank_subgraph calls through the module global
        settled.append(unpatched(*args, **kwargs))
        return settled[-1]

    monkeypatch.setattr(subgraphs, "personalized_pagerank", recorded)
    ids = sorted(graph.entities)
    entities = ids[:: len(ids) // SETTLE_ENTITIES][:SETTLE_ENTITIES]
    full_iterations = 0
    for entity in entities:
        members = subgraphs.pagerank_subgraph(graph, entity, cfg.K, cfg.pagerank).members
        full = unpatched(graph, entity, cfg.pagerank)
        ranks = -full.scores.array
        ranks[ids.index(entity)] = np.inf
        assert members == {entity, *(ids[i] for i in np.argsort(ranks, kind="stable")[: cfg.K])}
        full_iterations += full.iterations
    assert len(settled) == len(entities) and all(r.converged for r in settled)
    assert sum(r.iterations for r in settled) < 0.8 * full_iterations, golden_world.name


def main() -> int:
    golden = {"regenerate": REGENERATE, "numpy": np.__version__, "seed": SEED, "rows": ROWS,
              "traces": {}, "dumps": {}}
    for name in sorted(ROWS):
        world = build_world(name)
        golden["traces"][name] = trace_digests(world)
        golden["dumps"][name] = dump_digests(world)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
