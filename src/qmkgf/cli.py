"""Command-line entry point: build, index, train, query, eval, inspect.

Exit codes are stable: 0 success, 1 runtime failure, 2 usage or input
error. All commands accept --stub for fully offline deterministic runs.
"""

from __future__ import annotations

import argparse
import json
import logging
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
from .fusion import STRATEGIES, ScoredSubgraph, fuse

logger = logging.getLogger(__name__)

KG_FILE = "kg.jsonl"
CORPUS_FILE = "corpus.jsonl"
ENTITY_VECTORS_FILE = "entities.qvec"
DOCUMENT_VECTORS_FILE = "documents.qvec"
RM_PARAMS_FILE = "rm.qrmw"


def _make_client(cfg: PipelineConfig):
    if cfg.stub or cfg.service_url is None:
        return StubModelClient(dim=cfg.dim, seed=cfg.seed)
    return HttpModelClient(cfg.service_url, temperature=cfg.temperature)


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    overrides = {
        "K": getattr(args, "K", None),
        "k": getattr(args, "k", None),
        "per_item_k": getattr(args, "per_item_k", None),
        "heads": getattr(args, "heads", None),
        "dim": getattr(args, "dim", None),
        "strategy": getattr(args, "strategy", None),
        "tau": getattr(args, "tau", None),
        "seed": getattr(args, "seed", None),
        "service_url": getattr(args, "service_url", None),
    }
    if getattr(args, "stub", False):
        overrides["stub"] = True
    return load_config(args.config, overrides)


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such file: {path}")
    return p


def cmd_build_kg(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    client = _make_client(cfg)
    chunks = pipe.load_corpus(str(_require_file(args.corpus)))
    graph = kg_mod.KnowledgeGraph()
    total = kg_mod.IngestReport()
    for chunk_id in sorted(chunks):
        records = client.extract_triples(chunks[chunk_id].text)
        for record in records:
            if isinstance(record, dict):
                record.setdefault("source_chunk", chunk_id)
        _, report = kg_mod.ingest_extraction(graph, records)
        total.added += report.added
        total.merged += report.merged
        total.rejected += report.rejected
    Path(args.out).write_bytes(kg_mod.save(graph))
    print(
        f"entities={len(graph.entities)} triples={len(graph.triples)} "
        f"added={total.added} merged={total.merged} rejected={total.rejected}"
    )
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    client = _make_client(cfg)
    kg_path = _require_file(args.kg)
    corpus_path = _require_file(args.corpus)
    graph = kg_mod.load(kg_path.read_bytes())
    chunks = pipe.load_corpus(str(corpus_path))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ent_index = pipe.build_entity_index(graph, client.embed, cfg.dim)
    doc_index = pipe.build_document_index(chunks, client.embed, cfg.dim)
    (out_dir / ENTITY_VECTORS_FILE).write_bytes(vectors.save_index(ent_index))
    (out_dir / DOCUMENT_VECTORS_FILE).write_bytes(vectors.save_index(doc_index))
    # Keep the artifacts directory self-contained for query/eval.
    shutil.copyfile(kg_path, out_dir / KG_FILE)
    shutil.copyfile(corpus_path, out_dir / CORPUS_FILE)
    print(f"entity_vectors={len(ent_index)} document_vectors={len(doc_index)} dim={cfg.dim}")
    return 0


def cmd_train_rm(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    client = _make_client(cfg)
    examples = reward.load_rm_training_file(str(_require_file(args.training)))
    if not examples:
        raise ValidationError("training file contains no examples")
    history: list[float] = []
    params = reward.train_rm(
        examples,
        epochs=args.epochs,
        lr=args.lr,
        embedder=client.embed,
        seed=cfg.seed,
        heads=cfg.heads,
        callback=lambda epoch, loss: history.append(loss),
    )
    Path(args.out).write_bytes(reward.save_params(params))
    if history:
        print(f"initial_mse={history[0]:.6f} final_mse={min(history):.6f} epochs={args.epochs}")
    else:
        print(f"initial_mse=nan final_mse=nan epochs={args.epochs}")
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
    rm_path = root / RM_PARAMS_FILE
    if rm_path.is_file():
        params = reward.load_params(rm_path.read_bytes())
    else:
        params = reward.init_params(cfg.dim, heads=cfg.heads, seed=cfg.seed)
    indices = pipe.RetrievalIndices(entities=ent_index, documents=doc_index, chunks=chunks)
    return graph, indices, params


def cmd_query(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    client = _make_client(cfg)
    graph, indices, params = _load_artifacts(args.artifacts, cfg)
    result = pipe.run_qmkgf(args.question, graph, indices, params, cfg, client)
    print(result.answer)
    if args.trace:
        print(json.dumps(result.trace, indent=2, sort_keys=True))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    client = _make_client(cfg)
    rows = metrics_mod.load_eval_file(str(_require_file(args.eval_file)))
    if not rows:
        raise ValidationError("eval file contains no examples")
    graph, indices, params = _load_artifacts(args.artifacts, cfg)

    reports = []
    for row in rows:
        result = pipe.run_qmkgf(row["query"], graph, indices, params, cfg, client)
        reports.append(
            metrics_mod.score_example(
                answer=result.answer,
                reference=row["reference"],
                ranked_ids=result.ranked.ids(),
                gold_ids={str(g) for g in row["gold_chunks"]},
                k=cfg.k,
            )
        )
    labeled = [(str(i), rep) for i, rep in enumerate(reports, start=1)]
    aggregate = metrics_mod.aggregate_reports(reports)
    labeled.append(("mean", aggregate))
    print(metrics_mod.format_report_table(labeled))
    print(json.dumps({"aggregate": aggregate.as_dict()}, indent=2, sort_keys=True))
    return 0


def cmd_inspect_subgraph(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    client = _make_client(cfg)
    graph, indices, params = _load_artifacts(args.artifacts, cfg)
    if args.entity not in graph:
        raise NotFoundError(f"unknown entity: {args.entity!r}")
    sim = subgraphs.similarity_from_index(indices.entities, client.embed)
    candidates = pipe.candidate_subgraphs(graph, args.entity, cfg, sim)
    if args.kind == "fused":  # fused view anchored on the entity itself as the query
        scored = [
            ScoredSubgraph(sg, reward.score(args.entity, sg, params, client.embed))
            for sg in candidates
        ]
        sg = fuse(scored, client.embed(args.entity), pipe.fusion_config(cfg), client.embed).fused
    else:
        sg = next(c for c in candidates if c.path_kind == args.kind)
    sys.stdout.write(subgraphs.dump_subgraph(sg))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="config file (or $QMKGF_CONFIG)")
    common.add_argument("--stub", action="store_true", help="use in-process deterministic stubs")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--k", type=int, default=None, help="rerank cutoff")
    common.add_argument("--K", type=int, default=None, help="subgraph size")
    common.add_argument("--heads", type=int, default=None)
    common.add_argument("--dim", type=int, default=None)
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
        return args.func(args)
    except (FileNotFoundError, ParseError, ValidationError, NotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QmkgfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        logger.exception("unhandled failure")
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
