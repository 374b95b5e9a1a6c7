#!/usr/bin/env python3
"""qmkgf benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload doc_heavy --seed 1 --seconds 20 --trace 0

Generates the workload's synthetic world from ``--seed``, then runs the
program's own write and read paths on it, in stub mode at the shipped
``PipelineConfig`` defaults:

1. ingest   in a child process, so that its memory stays out of
            ``peak_rss_mb``: extraction records -> kg.ingest_extraction ->
            kg.save, then the entity and document indices ->
            vectors.save_index (repeated, median reported); the child
            leaves the artifacts and the query rows on disk;
2. set-up   artifacts on disk -> kg.load, pipeline.load_corpus, two
            vectors.load_index, reward.init_params (repeated, median);
3. warm-up  queries drawn apart from the measured ones;
4. with ``--trace 0``: a closed loop of one client for ``--seconds``
   seconds (at least 100 queries, so p90 has 10 samples beyond it), each
   row running run_qmkgf plus metrics.score_example as ``qmkgf eval``
   does;
   with ``--trace 1``: a fixed list of queries, each run once plain and
   once with spans patched onto the functions the pipeline calls, plus
   a check that the counted service calls equal the HTTP requests
   ``HttpModelClient`` sends for the same queries.

Every reported time is scaled to one fixed host speed by
``probes.HostSpeed``, which times a reference loop before and after each
measured interval; the raw median query time and the median scale factor
are printed beside the result.

Every query's output is checked. The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; earlier lines give
the workload's properties, per-phase counts, an output digest and, with
``--trace 0``, the retrieval recall@10 and MRR of the timed rows. The
exit code is 0 only if every operation succeeded and passed its checks.
"""

from __future__ import annotations

import os
import sys

# One client thread; BLAS may use at most the cores this process may run on.
_CORES = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _CORES

import argparse
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH_DIR), str(SRC)]

import probes  # noqa: E402
import worlds  # noqa: E402
from qmkgf import clients as clients_mod  # noqa: E402
from qmkgf import config as config_mod  # noqa: E402
from qmkgf import kg as kg_mod  # noqa: E402
from qmkgf import metrics as metrics_mod  # noqa: E402
from qmkgf import pipeline as pipe  # noqa: E402
from qmkgf import reward as reward_mod  # noqa: E402
from qmkgf import subgraphs as subgraphs_mod  # noqa: E402
from qmkgf import vectors as vectors_mod  # noqa: E402

MIN_TIMED = 100          # p90 needs at least 10 samples beyond it
# Minimum repeats and seconds of each timed step; see repeat(). Ingest
# repeats are fewest (about 1 s each on graph_heavy), so they run longest.
INGEST_REPEATS, INGEST_SECONDS = 3, 12.0
SETUP_REPEATS, SETUP_SECONDS = 5, 6.0
INGEST_TIMEOUT_S = 150
HTTP_CHECK_QUERIES = 2
# run_qmkgf's own remainder, outside every traced stage, may take at most
# this share of the traced query time; more means work moved into code
# the benchmark does not trace.
MAX_OTHER_SHARE = 0.10
TRACE_KEYS = (
    "query", "fallback", "entities", "mapped", "per_entity", "expanded_items",
    "doc_ids", "ranked", "rerank_fallback", "answer",
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Phase:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @classmethod
    def from_dict(cls, counts: dict) -> "Phase":
        phase = cls()
        phase.attempted, phase.failed = counts["attempted"], counts["failed"]
        phase.errors = counts.get("errors", [])
        return phase

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def as_dict(self) -> dict:
        out = {"attempted": self.attempted, "succeeded": self.attempted - self.failed,
               "failed": self.failed}
        if self.errors:
            out["errors"] = self.errors
        return out


def check_result(result, row: dict, k: int, corpus: dict) -> list[str]:
    """Problems with one query's output; empty when it is well formed."""
    problems = []
    ids = result.ranked.ids()
    scores = [s for _, s in result.ranked.items]
    if len(ids) > k:
        problems.append(f"{len(ids)} ranked ids > k={k}")
    if len(set(ids)) != len(ids):
        problems.append("duplicate ranked ids")
    if any(cid not in corpus for cid in ids):
        problems.append("ranked id not in corpus")
    if not all(math.isfinite(s) for s in scores):
        problems.append("non-finite score")
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("scores not descending")
    if not isinstance(result.answer, str) or not result.answer.strip():
        problems.append("empty answer")
    missing = [key for key in TRACE_KEYS if key not in result.trace]
    if missing:
        problems.append(f"trace lacks {missing}")
    elif result.trace["fallback"] != (not row["entities"]):
        problems.append(f"fallback={result.trace['fallback']} for entities {row['entities']}")
    return problems


def run_query(row, state, phase: Phase, run=None):
    """One query through ``run`` (default run_qmkgf); None if it failed."""
    graph, indices, params, cfg, client = state
    phase.attempted += 1
    try:
        result = (run or pipe.run_qmkgf)(row["query"], graph, indices, params, cfg, client)
    except Exception as exc:  # a query that raises counts as failed
        phase.fail(f"{row['query']!r}: {type(exc).__name__}: {exc}")
        return None
    problems = check_result(result, row, cfg.k, indices.chunks)
    if problems:
        phase.fail(f"{row['query']!r}: {'; '.join(problems)}")
        return None
    return result


def score(result, row, cfg):
    return metrics_mod.score_example(
        answer=result.answer,
        reference=row["reference"],
        ranked_ids=result.ranked.ids(),
        gold_ids=set(row["gold_chunks"]),
        k=cfg.k,
    )


def digest_update(h, row, result) -> None:
    h.update(json.dumps([row["query"], result.ranked.ids(), result.answer]).encode("utf-8"))


# ---------------------------------------------------------------------------
# ingest and set-up
# ---------------------------------------------------------------------------

def ingest(world, work: Path, cfg, client, phase: Phase) -> dict:
    """Write path, once; returns its stage times in seconds."""
    phase.attempted += 1
    chunks = {c["id"]: pipe.Chunk(id=c["id"], text=c["text"]) for c in world.chunks}
    t0 = time.perf_counter()
    graph, report = kg_mod.ingest_extraction(kg_mod.KnowledgeGraph(), world.records)
    t1 = time.perf_counter()
    (work / "kg.jsonl").write_bytes(kg_mod.save(graph))
    t2 = time.perf_counter()
    ent_index = pipe.build_entity_index(graph, client.embed, cfg.dim)
    doc_index = pipe.build_document_index(chunks, client.embed, cfg.dim)
    t3 = time.perf_counter()
    (work / "entities.qvec").write_bytes(vectors_mod.save_index(ent_index))
    (work / "documents.qvec").write_bytes(vectors_mod.save_index(doc_index))
    t4 = time.perf_counter()
    if report.rejected or len(ent_index) != len(graph.entities) or len(doc_index) != len(chunks):
        phase.fail(f"ingest: {report.as_dict()}, {len(ent_index)} entity and "
                   f"{len(doc_index)} document vectors")
    return {"ingest_s": t4 - t0, "kg.ingest_s": t1 - t0, "kg.save_s": t2 - t1,
            "pipeline.build_index_s": t3 - t2, "vectors.save_index_s": t4 - t3}


def setup(work: Path, cfg, phase: Phase):
    """Artifacts on disk to ready to query; returns (stage times, graph, indices, params)."""
    phase.attempted += 1
    t0 = time.perf_counter()
    graph = kg_mod.load((work / "kg.jsonl").read_bytes())
    t1 = time.perf_counter()
    chunks = pipe.load_corpus(str(work / "corpus.jsonl"))
    t2 = time.perf_counter()
    ent_index = vectors_mod.load_index((work / "entities.qvec").read_bytes(), kind="entity")
    doc_index = vectors_mod.load_index((work / "documents.qvec").read_bytes(), kind="document")
    t3 = time.perf_counter()
    params = reward_mod.init_params(cfg.dim, heads=cfg.heads, seed=cfg.seed)
    t4 = time.perf_counter()
    indices = pipe.RetrievalIndices(entities=ent_index, documents=doc_index, chunks=chunks)
    times = {"setup_s": t4 - t0, "kg.load_s": t1 - t0, "pipeline.load_corpus_s": t2 - t1,
             "vectors.load_index_s": t3 - t2}
    return times, graph, indices, params


def repeat(step, minimum: int, seconds: float) -> dict:
    """Median of each time ``step`` returns, scaled to the reference host
    speed. The first call fills caches and is not counted; then ``step``
    runs at least ``minimum`` times and for at least ``seconds``."""
    gc.collect()
    step()
    speed = probes.HostSpeed()
    runs: list[dict] = []
    start = time.perf_counter()
    while len(runs) < minimum or time.perf_counter() - start < seconds:
        gc.collect()
        speed.start()
        times = step()
        factor = speed.scale()
        runs.append({name: seconds * factor for name, seconds in times.items()})
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}


def ingest_child(args) -> int:
    """The ingest phase, run in its own process: generate the world, time
    the write path, and leave the artifacts, the query rows and the results
    in ``args.ingest_to`` for the parent."""
    work = Path(args.ingest_to)
    cfg = config_mod.PipelineConfig(stub=True)
    stub = clients_mod.StubModelClient(dim=cfg.dim, seed=cfg.seed)
    world = worlds.WORKLOADS[args.workload](args.seed, stub)
    (work / "corpus.jsonl").write_text(
        "".join(json.dumps(c, sort_keys=True) + "\n" for c in world.chunks), encoding="utf-8")
    phase = Phase()
    times = repeat(lambda: ingest(world, work, cfg, stub, phase), INGEST_REPEATS, INGEST_SECONDS)
    (work / "world.json").write_text(json.dumps({
        "inputs_sha256": world.digest(),
        "properties": world.properties,
        "triples": len({(r["head"], r["relation"], r["tail"]) for r in world.records}),
        "chunks": len(world.chunks),
        "warmup": world.warmup, "timed": world.timed, "traced": world.traced,
        "times": times,
        "phase": phase.as_dict(),
    }), encoding="utf-8")
    return 0


def run_ingest(args, work: Path) -> dict:
    """Run the ingest phase in a child process and read what it left."""
    child = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--ingest-to", str(work)]
    try:
        done = subprocess.run(child, stdout=subprocess.DEVNULL, timeout=INGEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"ingest took longer than {INGEST_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise BenchError(f"ingest process exited with code {done.returncode}")
    return json.loads((work / "world.json").read_text(encoding="utf-8"))


def prepare(args, work: Path, cfg, stub, phases: dict):
    """Ingest, then set up from the artifacts; returns the world's rows and
    properties, the median stage times and the loaded artifacts."""
    world = run_ingest(args, work)
    phases["ingest"] = Phase.from_dict(world["phase"])
    loaded = []

    def one_setup():
        loaded.clear()
        times, *artifacts = setup(work, cfg, phases["setup"])
        loaded.extend(artifacts)
        return times

    times = {**world["times"], **repeat(one_setup, SETUP_REPEATS, SETUP_SECONDS)}
    graph, indices, _ = loaded
    if len(graph.triples) != world["triples"]:
        phases["setup"].fail("loaded graph lost triples")
    if len(indices.chunks) != world["chunks"] or len(indices.entities) != len(graph.entities):
        phases["setup"].fail("loaded artifacts do not match the ingested ones")
    # The model service outlives the CLI processes that call it, so it has
    # already embedded what ingest sent it.
    for entity in graph.entities.values():
        stub.embed(entity.name)
    for chunk in indices.chunks.values():
        stub.embed(chunk.text)
    return world, times, loaded


# ---------------------------------------------------------------------------
# measured phases
# ---------------------------------------------------------------------------

def timed_loop(rows, state, seconds: float, phase: Phase) -> tuple[dict, dict]:
    """Closed loop, one client, untraced: the end-to-end metrics. Every
    row's time is scaled to the reference host speed."""
    cfg, client = state[3], state[4]
    query_ms, row_ms, raw_ms, recall, mrr = [], [], [], [], []
    fixed_calls = 0
    digest = hashlib.sha256()
    speed = probes.HostSpeed()
    gc.collect()
    deadline = time.perf_counter() + seconds
    speed.start()
    for i, row in enumerate(rows):
        if i >= MIN_TIMED and time.perf_counter() >= deadline:
            break
        calls_before = client.total_calls()
        t0 = time.perf_counter_ns()
        result = run_query(row, state, phase)
        t1 = time.perf_counter_ns()
        if result is None:
            speed.start()
            continue
        report = score(result, row, cfg)
        t2 = time.perf_counter_ns()
        factor = speed.scale()
        raw_ms.append((t1 - t0) / 1e6)
        query_ms.append((t1 - t0) / 1e6 * factor)
        row_ms.append((t2 - t0) / 1e6 * factor)
        # Quality, counts and the digest cover a fixed prefix, so they
        # repeat exactly for a seed, however fast the host is.
        if i < MIN_TIMED:
            recall.append(report.recall_at_k)
            mrr.append(report.mrr_at_k)
            fixed_calls += client.total_calls() - calls_before
            digest_update(digest, row, result)
    if phase.attempted < MIN_TIMED:
        raise BenchError(f"only {phase.attempted} timed queries generated, need {MIN_TIMED}")
    if len(query_ms) < 2:
        raise BenchError(f"fewer than two timed queries succeeded: {phase.errors[:2]}")
    metrics = {
        "query_ms_p50": (statistics.median(query_ms), "ms"),
        "query_ms_p90": (statistics.quantiles(query_ms, n=10)[8], "ms"),
        "eval_rows_per_s": (len(row_ms) / (sum(row_ms) / 1e3), "rows/s"),
        "service_calls_per_query": (fixed_calls / MIN_TIMED, "count"),
    }
    summary = {
        "outputs_sha256": digest.hexdigest(),
        "timed_queries": len(query_ms),
        "raw_query_ms_p50": statistics.median(raw_ms),
        "host_speed_factor_p50": statistics.median(speed.factors),
        "recall_at_10": statistics.fmean(recall),
        "mrr": statistics.fmean(mrr),
    }
    return metrics, summary


def _count_rows(counters, args, result):
    counters["top_k.rows"] += len(args[0])


def _count_ppr(counters, args, result):
    counters["ppr.runs"] += 1
    counters["ppr.iterations"] += result.iterations
    counters["ppr.converged"] += int(result.converged)
    counters["ppr.nodes"] += len(result.scores)


def _count_candidates(counters, args, result):
    counters["candidate_triples"] += len(result.triples)


def _count_fusion(counters, args, result):
    offered = {t.key for s in args[0] if s.subgraph.path_kind != result.base_kind
               for t in s.subgraph.triples}
    counters["fusion.offered"] += len(offered)
    counters["fusion.admitted"] += len(result.selected)


# (module, attribute the pipeline calls, span name, counter hook)
TRACE_TARGETS = [
    (pipe, "extract_query_entities", "pipeline.extract", None),
    (pipe, "map_entity", "pipeline.map", None),
    (pipe, "one_hop_subgraph", "subgraphs.onehop", _count_candidates),
    (pipe, "multi_hop_subgraph", "subgraphs.multihop", _count_candidates),
    (pipe, "pagerank_subgraph", "subgraphs.pagerank", _count_candidates),
    (subgraphs_mod, "personalized_pagerank", "subgraphs.ppr", _count_ppr),
    (pipe, "rm_score", "reward.score", None),
    (pipe, "fuse", "fusion.fuse", _count_fusion),
    (pipe, "expand_query", "pipeline.expand", None),
    (pipe, "retrieve", "pipeline.retrieve", None),
    (pipe, "rerank_chunks", "pipeline.rerank", None),
    (pipe, "generate_answer", "pipeline.generate", None),
    (pipe, "top_k", "vectors.top_k", _count_rows),
]
CLIENT_SPANS = ("clients.embed", "clients.rerank", "clients.generate", "clients.extract")
# Every span must fire on a workload with a non-fallback query; with only
# fallback queries, the graph stages are skipped.
EXPECTED_SPANS = tuple(span for _, _, span, _ in TRACE_TARGETS) + CLIENT_SPANS
FALLBACK_SPANS = (
    "pipeline.extract", "pipeline.expand", "pipeline.retrieve", "pipeline.rerank",
    "pipeline.generate", "vectors.top_k", *CLIENT_SPANS,
)
SELF_TIME_SPANS = EXPECTED_SPANS + ("pipeline.other", "metrics.score_example")


def traced_loop(rows, state, phase: Phase) -> tuple[dict, str, list]:
    """Each traced row runs once plain and once traced, in alternating order."""
    graph, indices, params, cfg, client = state
    tracer = probes.Tracer()
    missing = [f"{m.__name__}.{attr}" for m, attr, _, _ in TRACE_TARGETS if not hasattr(m, attr)]
    if missing:
        raise BenchError(f"cannot trace {missing}: the pipeline no longer has them")
    self_ns, calls, counters = Counter(), Counter(), Counter()
    plain_ms, traced_ms, distinct_shares = [], [], []
    fallback = centres = expansion = candidates = 0
    digest = hashlib.sha256()
    outputs = []
    n = 0

    def traced_run(*args):
        return tracer.timed("pipeline.other", pipe.run_qmkgf, args, {})

    speed = probes.HostSpeed()
    gc.collect()
    for i, row in enumerate(rows):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            speed.start()
            if not traced:
                t0 = time.perf_counter_ns()
                plain = run_query(row, state, phase)
                t1 = time.perf_counter_ns()
                if plain is not None:
                    plain_ms.append((t1 - t0) / 1e6 * speed.scale())
                continue
            tracer.reset()
            client.tracer = tracer
            try:
                with probes.Patched(tracer, TRACE_TARGETS):
                    result = run_query(row, state, phase, run=traced_run)
                    query_ns = tracer.root_ns
                    if result is not None:
                        tracer.timed("metrics.score_example", score, (result, row, cfg), {})
            finally:
                client.tracer = None
            if result is None:
                continue
            factor = speed.scale()
            traced_ms.append(query_ns / 1e6 * factor)
            n += 1
            self_ns.update({span: ns * factor for span, ns in tracer.self_ns.items()})
            calls.update(tracer.calls)
            counters.update(tracer.counters)
            if tracer.embed_texts:
                distinct_shares.append(len(set(tracer.embed_texts)) / len(tracer.embed_texts))
            trace = result.trace
            fallback += int(trace["fallback"])
            centres += len(trace["per_entity"])
            expansion += len(trace["expanded_items"])
            candidates += len(trace["doc_ids"])
            digest_update(digest, row, result)
            outputs.append((row, result.ranked.ids(), result.answer))
    if n == 0 or not plain_ms:
        raise BenchError(f"no traced query succeeded: {phase.errors[:2]}")

    expected = FALLBACK_SPANS if fallback == n else EXPECTED_SPANS
    silent = [name for name in expected if calls[name] == 0]
    if silent:
        raise BenchError(f"spans never fired: {silent}; the pipeline no longer calls "
                         f"the functions the benchmark traces")
    other_share = self_ns["pipeline.other"] / (sum(traced_ms) * 1e6)
    if other_share > MAX_OTHER_SHARE:
        raise BenchError(f"run_qmkgf's untraced remainder takes {other_share:.0%} of the "
                         f"traced query time, more than {MAX_OTHER_SHARE:.0%}: trace the "
                         f"functions that work moved into")

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{span}.self_ms": (self_ns[span] / n / 1e6, "ms") for span in SELF_TIME_SPANS}
    for span in ("vectors.top_k", "reward.score", *CLIENT_SPANS):
        out[f"{span}.calls_per_query"] = (calls[span] / n, "count")
    out.update({
        "vectors.top_k.rows_scanned_per_query": (counters["top_k.rows"] / n, "count"),
        "subgraphs.ppr.iterations_mean": (ratio(counters["ppr.iterations"], counters["ppr.runs"]), "count"),
        "subgraphs.ppr.converged_share": (ratio(counters["ppr.converged"], counters["ppr.runs"]), "ratio"),
        "subgraphs.ppr.nodes_per_call": (ratio(counters["ppr.nodes"], counters["ppr.runs"]), "count"),
        "subgraphs.candidate_triples_per_center": (ratio(counters["candidate_triples"], centres), "count"),
        "fusion.admitted_share": (ratio(counters["fusion.admitted"], counters["fusion.offered"]), "ratio"),
        "clients.embed.distinct_share": (statistics.fmean(distinct_shares) if distinct_shares else 0.0, "ratio"),
        "clients.errors": (client.errors, "count"),
        "pipeline.centers_per_query": (centres / n, "count"),
        "pipeline.expansion_items_per_query": (expansion / n, "count"),
        "pipeline.candidate_chunks_per_query": (candidates / n, "count"),
        "pipeline.fallback_share": (fallback / n, "ratio"),
        "trace.query_ms_p50": (statistics.median(traced_ms), "ms"),
        "trace.overhead_ms": (statistics.median(traced_ms) - statistics.median(plain_ms), "ms"),
        "trace.plain_query_ms_p50": (statistics.median(plain_ms), "ms"),
    })
    return out, digest.hexdigest(), outputs


def http_check(state, outputs, phase: Phase) -> None:
    """Counted calls must equal the requests HttpModelClient sends for the
    same queries, and the HTTP path must give the same rankings."""
    graph, indices, params, cfg, client = state
    with probes.StubServer(client.inner) as server:
        http = clients_mod.HttpModelClient(server.url, temperature=cfg.temperature)
        http.session.trust_env = False      # never route localhost through a proxy
        counted = probes.CountingClient(http)
        try:
            for row, ids, answer in outputs[:HTTP_CHECK_QUERIES]:
                before_calls, before_requests = counted.total_calls(), server.requests
                result = run_query(row, (graph, indices, params, cfg, counted), phase)
                if result is None:
                    continue
                sent = server.requests - before_requests
                made = counted.total_calls() - before_calls
                if sent != made:
                    phase.fail(f"{row['query']!r}: {made} counted calls, {sent} HTTP requests")
                elif (result.ranked.ids(), result.answer) != (ids, answer):
                    phase.fail(f"{row['query']!r}: HTTP client output differs from stub")
        finally:
            http.session.close()


# ---------------------------------------------------------------------------

def emit(line: dict) -> None:
    print(json.dumps(line, sort_keys=True), flush=True)


def run(args) -> int:
    package = Path(pipe.__file__).resolve().parent.parent
    if package != SRC:
        raise BenchError(f"imported qmkgf from {package}, not from this checkout's {SRC}")
    cfg = config_mod.PipelineConfig(stub=True)
    cfg.validate()
    # One long-lived stub service for the queries, as a hosted model
    # service outlives the CLI processes that call it.
    client = probes.CountingClient(clients_mod.StubModelClient(dim=cfg.dim, seed=cfg.seed))
    phase_names = ["ingest", "setup", "warmup", "traced" if args.trace else "timed"]
    phases = {name: Phase() for name in phase_names}
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        world, times, (graph, indices, params) = prepare(args, work, cfg, client.inner, phases)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass        # another run is still using it
    state = (graph, indices, params, cfg, client)
    emit({"workload": args.workload, "seed": args.seed, "inputs_sha256": world["inputs_sha256"],
          "properties": {**world["properties"], "entities": len(graph.entities),
                         "triples": len(graph.triples)}})

    for row in world["warmup"]:
        run_query(row, state, phases["warmup"])

    if args.trace:
        metrics, digest, outputs = traced_loop(world["traced"], state, phases["traced"])
        http_check(state, outputs, phases["traced"])
        for name, seconds in times.items():
            if name not in ("ingest_s", "setup_s"):
                metrics[name] = (seconds, "s")
        summary = {"outputs_sha256": digest}
    else:
        metrics, summary = timed_loop(world["timed"], state, args.seconds, phases["timed"])
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics.update({
            "setup_s": (times["setup_s"], "s"),
            "ingest_s": (times["ingest_s"], "s"),
            "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
        })

    attempted = sum(p.attempted for p in phases.values())
    failed = sum(p.failed for p in phases.values())
    emit({"phases": {name: p.as_dict() for name, p in phases.items()}, **summary})
    emit({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    })
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(worlds.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ingest-to", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    try:
        return ingest_child(args) if args.ingest_to else run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
