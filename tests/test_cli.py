import hashlib
import json
import random
import warnings

import pytest

from qmkgf.cli import main
from qmkgf.kg import KnowledgeGraph, Triple, save as save_kg
from qmkgf.kg import load as load_kg
from qmkgf.reward import load_params
from qmkgf.vectors import load_index


def _write_corpus(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _write_corpus(
        path,
        [
            {"id": "d1", "text": "Ashford lies beside Birchwood"},
            {"id": "d2", "text": "Birchwood guards Cedarfall"},
            {"id": "d3", "text": "granite barges float downstream"},
        ],
    )
    return path


@pytest.fixture()
def artifacts(tmp_path, corpus_file):
    kg_path = tmp_path / "kg.jsonl"
    out_dir = tmp_path / "artifacts"
    assert main(["build-kg", str(corpus_file), str(kg_path), "--stub"]) == 0
    assert main(["index", str(kg_path), str(corpus_file), str(out_dir), "--stub"]) == 0
    return out_dir


def test_build_kg_stub_corpus(tmp_path, corpus_file, capsys):
    out = tmp_path / "kg.jsonl"
    assert main(["build-kg", str(corpus_file), str(out), "--stub"]) == 0
    printed = capsys.readouterr().out
    assert "entities=" in printed and "triples=" in printed
    graph = load_kg(out.read_bytes())
    assert "Ashford" in graph
    assert "Cedarfall" in graph
    # source chunks recorded from the originating doc
    assert all(t.source_chunk in {"d1", "d2", "d3"} for t in graph.triples)


def test_build_kg_empty_corpus(tmp_path):
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("")
    out = tmp_path / "kg.jsonl"
    assert main(["build-kg", str(corpus), str(out), "--stub"]) == 0
    assert len(load_kg(out.read_bytes()).triples) == 0


def test_build_kg_missing_file_exit_2(tmp_path):
    assert main(["build-kg", str(tmp_path / "ghost.jsonl"), str(tmp_path / "o"), "--stub"]) == 2


def test_index_writes_qvec_files(artifacts):
    ent = load_index((artifacts / "entities.qvec").read_bytes(), kind="entity")
    doc = load_index((artifacts / "documents.qvec").read_bytes())
    assert len(ent) >= 3
    assert len(doc) == 3
    assert (artifacts / "kg.jsonl").is_file()
    assert (artifacts / "corpus.jsonl").is_file()


def test_index_reruns_byte_identical(tmp_path, corpus_file):
    kg_path = tmp_path / "kg.jsonl"
    main(["build-kg", str(corpus_file), str(kg_path), "--stub"])
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["index", str(kg_path), str(corpus_file), str(out_a), "--stub"])
    main(["index", str(kg_path), str(corpus_file), str(out_b), "--stub"])
    for name in ("entities.qvec", "documents.qvec"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_index_corrupt_kg_exit_2(tmp_path, corpus_file, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json at all\n")
    assert main(["index", str(bad), str(corpus_file), str(tmp_path / "o"), "--stub"]) == 2
    assert "error" in capsys.readouterr().err


def _write_training(path):
    rows = [
        {"query": "where is ashford", "subgraph": "ashford beside birchwood", "score": 1.0},
        {"query": "where is ashford", "subgraph": "granite floats downstream", "score": 0.0},
        {"query": "who guards cedarfall", "subgraph": "birchwood guards cedarfall", "score": 1.0},
        {"query": "who guards cedarfall", "subgraph": "barges carry stone", "score": 0.0},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


def test_train_rm_decreases_mse(tmp_path, capsys):
    training = tmp_path / "rm.jsonl"
    _write_training(training)
    out = tmp_path / "rm.qrmw"
    rc = main(
        ["train-rm", str(training), str(out), "--stub", "--epochs", "200",
         "--lr", "0.5", "--dim", "16", "--heads", "4"]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    initial = float(printed.split("initial_mse=")[1].split()[0])
    final = float(printed.split("final_mse=")[1].split()[0])
    assert final < initial
    params = load_params(out.read_bytes())
    assert params.dim == 16


def test_train_rm_seed_fixed_identical_bytes(tmp_path):
    training = tmp_path / "rm.jsonl"
    _write_training(training)
    out_a = tmp_path / "a.qrmw"
    out_b = tmp_path / "b.qrmw"
    args = ["--stub", "--epochs", "20", "--lr", "0.5", "--dim", "16", "--heads", "4",
            "--seed", "5"]
    main(["train-rm", str(training), str(out_a), *args])
    main(["train-rm", str(training), str(out_b), *args])
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize("flags, message", [
    (["--epochs", "-2"], "epochs must be >= 0, got -2"),
    (["--lr", "inf"], "learning rate must be finite and > 0, got inf"),
    (["--lr", "nan"], "learning rate must be finite and > 0, got nan"),
    (["--lr", "0"], "learning rate must be finite and > 0, got 0.0"),
])
def test_train_rm_rejects_bad_epochs_or_lr_without_warnings(tmp_path, capsys, flags, message):
    training = tmp_path / "rm.jsonl"
    _write_training(training)
    out = tmp_path / "rm.qrmw"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["train-rm", str(training), str(out), "--stub", "--dim", "16", "--heads", "4",
                   *flags])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_train_rm_empty_file_is_error(tmp_path):
    training = tmp_path / "rm.jsonl"
    training.write_text("")
    assert main(["train-rm", str(training), str(tmp_path / "o"), "--stub"]) == 2


def test_query_prints_answer_and_trace(artifacts, capsys):
    rc = main(
        ["query", "what lies beside Ashford", "--artifacts", str(artifacts), "--stub",
         "--trace", "--seed", "7"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Question: what lies beside Ashford" in out
    trace = json.loads(out[out.index("{") :])
    assert trace["query"] == "what lies beside Ashford"
    assert trace["entities"] == ["Ashford"]
    assert trace["per_entity"]


def test_query_strategy_flag_changes_trace(artifacts, capsys):
    main(["query", "Birchwood facts", "--artifacts", str(artifacts), "--stub", "--trace"])
    rm_out = capsys.readouterr().out
    main(
        ["query", "Birchwood facts", "--artifacts", str(artifacts), "--stub", "--trace",
         "--strategy", "all_fusion"]
    )
    all_out = capsys.readouterr().out
    rm_trace = json.loads(rm_out[rm_out.index("{") :])
    all_trace = json.loads(all_out[all_out.index("{") :])
    rm_entry = rm_trace["per_entity"][0]
    all_entry = all_trace["per_entity"][0]
    assert all_entry["threshold"] == -1.0
    assert rm_entry["threshold"] != -1.0


def test_query_unknown_flag_usage_error(artifacts):
    with pytest.raises(SystemExit) as exc:
        main(["query", "q", "--artifacts", str(artifacts), "--stub", "--bogus"])
    assert exc.value.code == 2


def test_eval_command(artifacts, tmp_path, capsys):
    eval_file = tmp_path / "eval.jsonl"
    rows = [
        {"query": "Ashford news", "reference": "whatever", "gold_chunks": ["d1"]},
        {"query": "Cedarfall news", "reference": "whatever", "gold_chunks": ["d2"]},
    ]
    eval_file.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert main(["eval", str(eval_file), "--artifacts", str(artifacts), "--stub"]) == 0
    out = capsys.readouterr().out
    assert "rouge1" in out
    assert '"aggregate"' in out


@pytest.mark.parametrize("name", ["entities.qvec", "documents.qvec"])
def test_query_and_eval_reject_a_qvec_with_trailing_bytes(artifacts, tmp_path, capsys, name):
    path = artifacts / name
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    eval_file = tmp_path / "eval.jsonl"
    eval_file.write_text(json.dumps({"query": "q", "reference": "r", "gold_chunks": []}) + "\n")
    assert main(["query", "Ashford news", "--artifacts", str(artifacts), "--stub"]) == 2
    assert main(["eval", str(eval_file), "--artifacts", str(artifacts), "--stub"]) == 2
    assert "unexpected bytes after the last QVEC record" in capsys.readouterr().err


def test_eval_empty_file_is_error(artifacts, tmp_path):
    eval_file = tmp_path / "eval.jsonl"
    eval_file.write_text("")
    assert main(["eval", str(eval_file), "--artifacts", str(artifacts), "--stub"]) == 2


def test_eval_reference_equal_to_answer_scores_one(artifacts, tmp_path, capsys):
    # First run captures the stub answer, second scores against it.
    main(["query", "Ashford news", "--artifacts", str(artifacts), "--stub"])
    answer = capsys.readouterr().out.rstrip("\n")
    eval_file = tmp_path / "eval.jsonl"
    eval_file.write_text(
        json.dumps({"query": "Ashford news", "reference": answer, "gold_chunks": ["d1"]}) + "\n"
    )
    main(["eval", str(eval_file), "--artifacts", str(artifacts), "--stub"])
    out = capsys.readouterr().out
    aggregate = json.loads(out[out.index("{") :])["aggregate"]
    assert aggregate["rouge1"] == 1.0


def test_inspect_subgraph_onehop_isolated(artifacts, tmp_path, corpus_file, capsys):
    # granite/barges chunk produces no capitalized entities, so add one.
    rc = main(
        ["inspect-subgraph", "Ashford", "--kind", "onehop", "--artifacts", str(artifacts),
         "--stub"]
    )
    assert rc == 0
    header = json.loads(capsys.readouterr().out.split("\n")[0])
    assert header["center"] == "Ashford"
    assert header["path_kind"] == "onehop"


def test_inspect_subgraph_pagerank_scores_sum_to_one(artifacts, capsys):
    rc = main(
        ["inspect-subgraph", "Birchwood", "--kind", "pagerank", "--artifacts",
         str(artifacts), "--stub"]
    )
    assert rc == 0
    header = json.loads(capsys.readouterr().out.split("\n")[0])
    assert abs(sum(header["scores"].values()) - 1.0) < 1e-6


def test_inspect_subgraph_unknown_entity_exit_2(artifacts):
    assert (
        main(["inspect-subgraph", "Ghost", "--kind", "onehop", "--artifacts",
              str(artifacts), "--stub"])
        == 2
    )


def test_inspect_subgraph_fused(artifacts, capsys):
    rc = main(
        ["inspect-subgraph", "Birchwood", "--kind", "fused", "--artifacts",
         str(artifacts), "--stub"]
    )
    assert rc == 0
    header = json.loads(capsys.readouterr().out.split("\n")[0])
    assert header["path_kind"] == "fused"


def _pagerank_world(tmp_path):
    """Artifacts over a seeded 40-entity graph with sinks and an isolated node."""
    rng = random.Random(606)
    names = [f"Place{i:02d}" for i in range(40)]
    g = KnowledgeGraph()
    g.add_entity("Lonely")
    for _ in range(110):
        head, tail = rng.choice(names[:30]), rng.choice(names)
        g.add_triple(Triple(head, f"rel{rng.randint(0, 3)}", tail, weight=rng.uniform(0.1, 5.0)))
    kg_path = tmp_path / "pr_kg.jsonl"
    kg_path.write_bytes(save_kg(g))
    corpus = tmp_path / "pr_corpus.jsonl"
    _write_corpus(corpus, [{"id": "c1", "text": "Place01 borders Place02"}])
    out_dir = tmp_path / "pr_artifacts"
    assert main(["index", str(kg_path), str(corpus), str(out_dir), "--stub"]) == 0
    return out_dir


# sha256 of `inspect-subgraph <entity> --kind pagerank` stdout, captured from
# the full-vector power loop that returned a dict of scores. Place35 has no
# out-edges and Lonely no edges at all.
PAGERANK_DUMP_SHA256 = {
    "Place00": "8cc676df77e7c40ea1c8ee53ccecc33363996dad736fa26255292daf37981eaf",
    "Place17": "16d07a743027ad5203990f7afa119cc35490e939bce7a25785578ad2e9a37367",
    "Place35": "30a94d00db9459782fa161628074079eb2223f9f5bef2852ae27bfc179ee5ce4",
    "Lonely": "736c19ca8fd8a8f686b537c42283b3596ce19fb2a1562d94c9ce00cd237f0212",
}


def test_inspect_subgraph_pagerank_bytes_are_unchanged(tmp_path, capsys):
    artifacts = _pagerank_world(tmp_path)
    capsys.readouterr()
    for entity, digest in PAGERANK_DUMP_SHA256.items():
        rc = main(["inspect-subgraph", entity, "--kind", "pagerank", "--artifacts",
                   str(artifacts), "--stub"])
        assert rc == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, entity
