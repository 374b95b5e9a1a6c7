"""Command-line entry point: build, index, train, query, eval, inspect.

Exit codes are stable: 0 success, 1 runtime failure, 2 usage or input
error. All commands accept --stub for fully offline deterministic runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import shutil
import sys
from pathlib import Path

from . import kg as kg_mod
from . import metrics as metrics_mod
from . import pipeline as pipe
from . import reward, subgraphs, vectors
from .clients import HttpModelClient, StubModelClient
from .config import PipelineConfig, load_config
from .errors import NotFoundError, ParseError, QmkgfError, ValidationError
from .fusion import STRATEGIES

logger = logging.getLogger(__name__)

KG_FILE = "kg.jsonl"
CORPUS_FILE = "corpus.jsonl"
ENTITY_VECTORS_FILE = "entities.qvec"
DOCUMENT_VECTORS_FILE = "documents.qvec"
RM_PARAMS_FILE = "rm.qrmw"
# Texts per /embed POST when `index` and `train-rm` embed their inputs.
EMBED_BATCH = 256


def _make_client(cfg: PipelineConfig):
    """The stub or the HTTP client. Like a hosted model's, the stub's vectors
    do not move with ``cfg.seed``, which seeds only the reward model."""
    if cfg.stub:
        return StubModelClient(dim=cfg.dim)
    return HttpModelClient(cfg.service_url, temperature=cfg.temperature)


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """The config file overlaid with every config flag given; an unset
    flag parses to None, which leaves the file's value or the default."""
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    overrides = {name: value for name, value in vars(args).items() if name in fields}
    return load_config(args.config, overrides)


def _batched_embedder(client, texts: list[str]):
    """An embedder for ``texts`` alone. Its first call embeds each distinct
    text, EMBED_BATCH per ``embed_many``, so bad arguments fail before any."""
    vectors: dict = {}

    def embed(text: str):
        if not vectors:
            distinct = list(dict.fromkeys(texts))
            for start in range(0, len(distinct), EMBED_BATCH):
                batch = distinct[start : start + EMBED_BATCH]
                vectors.update(zip(batch, client.embed_many(batch)))
        return vectors[text]

    return embed


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such file: {path}")
    return p


def cmd_build_kg(args: argparse.Namespace, cfg: PipelineConfig, client) -> int:
    chunks = pipe.load_corpus(str(_require_file(args.corpus)))
    records = []
    for chunk_id in sorted(chunks):
        for record in client.extract_triples(chunks[chunk_id].text):
            if isinstance(record, dict):
                record.setdefault("source_chunk", chunk_id)
            records.append(record)
    graph, report = kg_mod.ingest_extraction(kg_mod.KnowledgeGraph(), records)
    Path(args.out).write_bytes(kg_mod.save(graph))
    print(
        f"entities={len(graph.entities)} triples={len(graph.triples)} "
        f"added={report.added} merged={report.merged} rejected={report.rejected}"
    )
    return 0


def cmd_index(args: argparse.Namespace, cfg: PipelineConfig, client) -> int:
    kg_path = _require_file(args.kg)
    corpus_path = _require_file(args.corpus)
    graph = kg_mod.load(kg_path.read_bytes())
    chunks = pipe.load_corpus(str(corpus_path))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    texts = [e.name for e in graph.entities.values()] + [c.text for c in chunks.values()]
    embedded = _batched_embedder(client, texts)
    dim = len(embedded(texts[0])) if texts else cfg.dim  # the service's, not the config's
    ent_index = pipe.build_entity_index(graph, embedded, dim)
    doc_index = pipe.build_document_index(chunks, embedded, dim)
    (out_dir / ENTITY_VECTORS_FILE).write_bytes(vectors.save_index(ent_index))
    (out_dir / DOCUMENT_VECTORS_FILE).write_bytes(vectors.save_index(doc_index))
    # Keep the artifacts directory self-contained for query/eval.
    shutil.copyfile(kg_path, out_dir / KG_FILE)
    shutil.copyfile(corpus_path, out_dir / CORPUS_FILE)
    print(f"entity_vectors={len(ent_index)} document_vectors={len(doc_index)} dim={dim}")
    return 0


def cmd_train_rm(args: argparse.Namespace, cfg: PipelineConfig, client) -> int:
    examples = reward.load_rm_training_file(str(_require_file(args.training)))
    history: list[float] = []
    texts = [t for ex in examples for t in (ex.query, ex.subgraph_text)]
    params = reward.train_rm(
        examples,
        epochs=args.epochs,
        lr=args.lr,
        embedder=_batched_embedder(client, texts),
        seed=cfg.seed,
        heads=cfg.heads,
        callback=lambda epoch, loss: history.append(loss),
    )
    Path(args.out).write_bytes(reward.save_params(params))
    print(f"initial_mse={history[0]:.6f} final_mse={min(history):.6f} epochs={args.epochs}")
    return 0


def _load_artifacts(artifacts: str, cfg: PipelineConfig):
    root = Path(artifacts)
    graph = kg_mod.load(_require_file(str(root / KG_FILE)).read_bytes())
    chunks = pipe.load_corpus(str(_require_file(str(root / CORPUS_FILE))))
    ent_index = vectors.load_index(
        _require_file(str(root / ENTITY_VECTORS_FILE)).read_bytes(), kind="entity"
    )
    doc_index = vectors.load_index(
        _require_file(str(root / DOCUMENT_VECTORS_FILE)).read_bytes(), kind="document"
    )
    if ent_index.dimension != doc_index.dimension:
        raise ValidationError(
            f"{root / ENTITY_VECTORS_FILE} has dimension {ent_index.dimension} but "
            f"{root / DOCUMENT_VECTORS_FILE} has {doc_index.dimension}"
        )
    if cfg.stub and cfg.dim != ent_index.dimension:  # else a graph query fails after its calls
        raise ValidationError(
            f"{root / ENTITY_VECTORS_FILE} has dimension {ent_index.dimension} but dim is {cfg.dim}"
        )
    # Else a chunk is never retrieved, or fails only the queries reaching it.
    pipe.require_same_ids("chunk", "corpus", chunks.keys(), "document index", doc_index.entries)
    rm_path = root / RM_PARAMS_FILE
    if rm_path.is_file():
        params = reward.load_params(rm_path.read_bytes())
        if params.dim != ent_index.dimension:
            raise ValidationError(
                f"{rm_path} has dimension {params.dim} but the vector indices have "
                f"{ent_index.dimension}"
            )
    else:
        params = reward.init_params(ent_index.dimension, heads=cfg.heads, seed=cfg.seed)
    indices = pipe.RetrievalIndices(entities=ent_index, documents=doc_index, chunks=chunks)
    return graph, indices, params


def cmd_query(args: argparse.Namespace, cfg: PipelineConfig, client) -> int:
    graph, indices, params = _load_artifacts(args.artifacts, cfg)
    result = pipe.run_qmkgf(args.question, graph, indices, params, cfg, client)
    print(result.answer)
    if args.trace:
        print(json.dumps(result.trace, indent=2, sort_keys=True))
    return 0


def cmd_eval(args: argparse.Namespace, cfg: PipelineConfig, client) -> int:
    graph, indices, params = _load_artifacts(args.artifacts, cfg)
    rows = metrics_mod.load_eval_file(str(_require_file(args.eval_file)), indices.chunks)
    if not rows:
        raise ValidationError("eval file contains no examples")

    reports = []
    for row in rows:
        result = pipe.run_qmkgf(row["query"], graph, indices, params, cfg, client)
        reports.append(
            metrics_mod.score_example(
                answer=result.answer,
                reference=row["reference"],
                ranked_ids=result.ranked.ids(),
                gold_ids=set(row["gold_chunks"]),
                k=cfg.k,
            )
        )
    labeled = [(str(i), rep) for i, rep in enumerate(reports, start=1)]
    aggregate = metrics_mod.aggregate_reports(reports)
    labeled.append(("mean", aggregate))
    print(metrics_mod.format_report_table(labeled))
    print(json.dumps({"aggregate": aggregate.as_dict()}, indent=2, sort_keys=True))
    return 0


def inspect_subgraph(entity: str, kind: str, graph, indices, params, cfg, client) -> str:
    """What ``inspect-subgraph`` prints for ``entity``'s ``kind`` subgraph. ``fused``
    runs the query path, the entity as the query; an unknown entity fails before any call."""
    memo = pipe.graph_memo(graph, indices.entities, cfg, client, params)
    scores = None
    if kind == subgraphs.FUSED:
        embed = pipe.QueryEmbeddings(client, memo.pairs)
        pipe.build_centres(entity, graph, [entity], memo, cfg, embed)
        [(_, result)] = pipe.score_and_fuse(entity, [entity], memo, cfg, embed)
        sg = result.fused
    else:
        candidates = pipe.candidate_subgraphs(graph, entity, cfg, memo.sim)
        sg = next(c for c in candidates if c.path_kind == kind)
        if kind == subgraphs.PAGERANK:
            scores = subgraphs.personalized_pagerank(graph, entity, cfg.pagerank).scores
    return subgraphs.dump_subgraph(sg, scores)


def cmd_inspect_subgraph(args: argparse.Namespace, cfg: PipelineConfig, client) -> int:
    graph, indices, params = _load_artifacts(args.artifacts, cfg)
    sys.stdout.write(inspect_subgraph(args.entity, args.kind, graph, indices, params, cfg, client))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="config file (or $QMKGF_CONFIG)")
    common.add_argument(
        "--stub", action="store_true", default=None, help="use in-process deterministic stubs"
    )
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--k", type=int, default=None, help="rerank cutoff")
    common.add_argument("--K", type=int, default=None, help="subgraph size")
    common.add_argument("--heads", type=int, default=None)
    common.add_argument("--dim", type=int, default=None, help="the stub's vector size")
    common.add_argument("--strategy", choices=STRATEGIES, default=None)
    common.add_argument("--tau", type=float, default=None)
    common.add_argument("--per-item-k", dest="per_item_k", type=int, default=None)
    common.add_argument("--service-url", dest="service_url", default=None)

    parser = argparse.ArgumentParser(prog="qmkgf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-kg", parents=[common], help="extract triples into a graph file")
    p.add_argument("corpus")
    p.add_argument("out")
    p.set_defaults(func=cmd_build_kg)

    p = sub.add_parser("index", parents=[common], help="embed entities and chunks into QVEC files")
    p.add_argument("kg")
    p.add_argument("corpus")
    p.add_argument("out")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("train-rm", parents=[common], help="train the attention reward model")
    p.add_argument("training")
    p.add_argument("out")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=1e-5)
    p.set_defaults(func=cmd_train_rm)

    p = sub.add_parser("query", parents=[common], help="answer one question")
    p.add_argument("question")
    p.add_argument("--artifacts", required=True)
    p.add_argument("--trace", action="store_true", help="print the full pipeline trace")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", parents=[common], help="run the metric suite over an eval file")
    p.add_argument("eval_file")
    p.add_argument("--artifacts", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect-subgraph", parents=[common], help="dump one subgraph")
    p.add_argument("entity")
    p.add_argument("--kind", choices=["onehop", "multihop", "pagerank", "fused"], required=True)
    p.add_argument("--artifacts", required=True)
    p.set_defaults(func=cmd_inspect_subgraph)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        code = args.func(args, cfg, _make_client(cfg))
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader left, as in `qmkgf ... | head`: exit 1 quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
        return 1
    except Exception as exc:
        usage = isinstance(exc, (FileNotFoundError, ParseError, ValidationError, NotFoundError)) or (
            isinstance(exc, OSError) and exc.filename is not None  # a path that is a directory, say
        )
        if not usage and not isinstance(exc, QmkgfError):
            logger.exception("unhandled failure")
        print(f"error: {exc}", file=sys.stderr)
        return 2 if usage else 1


if __name__ == "__main__":
    sys.exit(main())
