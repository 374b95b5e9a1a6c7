import hashlib
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qmkgf
from qmkgf.cli import _config_from_args, build_parser, main
from qmkgf.clients import StubModelClient
from qmkgf.kg import KnowledgeGraph, Triple, save as save_kg
from qmkgf.kg import load as load_kg
from qmkgf.reward import init_params, load_params, save_params
from qmkgf.vectors import VectorIndex, load_index, save_index
from test_clients import _serving, _StubHandler
from test_readme import README


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


def test_config_flags_override_the_file_and_unset_flags_keep_it(tmp_path):
    path = tmp_path / "qmkgf.conf"
    path.write_text("stub = true\nK = 3\nk = 4\n")
    args = build_parser().parse_args([
        "query", "q", "--artifacts", "a", "--config", str(path), "--k", "7", "--heads", "4",
        "--dim", "16", "--strategy", "all_fusion", "--tau", "0.5", "--per-item-k", "2",
        "--seed", "9", "--service-url", "http://localhost:1",
    ])
    cfg = _config_from_args(args)
    assert (cfg.stub, cfg.K, cfg.k, cfg.heads, cfg.dim, cfg.strategy, cfg.tau) == (
        True, 3, 7, 4, 16, "all_fusion", 0.5)
    assert (cfg.per_item_k, cfg.seed, cfg.service_url) == (2, 9, "http://localhost:1")


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


def test_build_kg_prints_the_ingest_totals_over_every_chunk(tmp_path, monkeypatch, capsys):
    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    corpus = tmp_path / "corpus.jsonl"
    _write_corpus(corpus, [{"id": "d1", "text": "first"}, {"id": "d2", "text": "second"}])
    repeated = {"head": "A", "relation": "r", "tail": "B"}
    _StubHandler.stub = StubModelClient(dim=64, seed=0, triple_table={
        "first": [repeated, {"head": "", "relation": "r", "tail": "C"}],
        "second": [repeated, {"head": "B", "relation": "s", "tail": "C"}],
    })
    _StubHandler.requests = []
    out = tmp_path / "kg.jsonl"
    with _serving(_StubHandler) as url:
        assert main(["build-kg", str(corpus), str(out), "--service-url", url]) == 0
    assert capsys.readouterr().out == "entities=3 triples=2 added=2 merged=1 rejected=1\n"
    assert [path for path, _ in _StubHandler.requests] == ["/extract", "/extract"]
    graph = load_kg(out.read_bytes())
    assert {t.key: t.source_chunk for t in graph.triples} == {
        ("A", "r", "B"): "d1", ("B", "s", "C"): "d2"}


def test_build_kg_over_http_counts_records_that_are_not_objects(tmp_path, monkeypatch, capsys):
    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    corpus = tmp_path / "corpus.jsonl"
    _write_corpus(corpus, [{"id": "d1", "text": "first"}])
    records = [1, "x", None, {"head": "A", "relation": "r", "tail": "B"}]
    _StubHandler.stub = SimpleNamespace(extract_triples=lambda text: records)
    _StubHandler.requests = []
    out = tmp_path / "kg.jsonl"
    with _serving(_StubHandler) as url:
        assert main(["build-kg", str(corpus), str(out), "--service-url", url]) == 0
    assert capsys.readouterr().out == "entities=2 triples=1 added=1 merged=0 rejected=3\n"


def test_build_kg_empty_corpus(tmp_path):
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("")
    out = tmp_path / "kg.jsonl"
    assert main(["build-kg", str(corpus), str(out), "--stub"]) == 0
    assert len(load_kg(out.read_bytes()).triples) == 0


def test_build_kg_missing_file_exit_2(tmp_path):
    assert main(["build-kg", str(tmp_path / "ghost.jsonl"), str(tmp_path / "o"), "--stub"]) == 2


def test_build_kg_names_the_line_of_an_integer_past_the_digit_limit(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    rows = ['{"id": "d1", "text": "a"}', '{"id": "d2", "text": "b", "n": %s}' % ("1" * 5001)]
    corpus.write_text("".join(f"{row}\n" for row in rows))
    assert main(["build-kg", str(corpus), str(tmp_path / "kg.jsonl"), "--stub"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: line 2: invalid JSON: Exceeds the limit")
    assert err.count("\n") == 1


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


def test_index_names_the_line_of_an_entity_name_that_is_not_a_string(tmp_path, corpus_file, capsys):
    bad = tmp_path / "kg.jsonl"
    bad.write_text('{"format": "qmkgf-kg", "version": 1}\n{"entity": {"id": "A", "name": 5}}\n')
    assert main(["index", str(bad), str(corpus_file), str(tmp_path / "o"), "--stub"]) == 2
    err = "error: line 2: entity name must be a non-blank string, got 5\n"
    assert capsys.readouterr() == ("", err)


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


def test_train_rm_zero_epochs_reports_the_initial_mse_and_writes_the_init(tmp_path, capsys):
    training = tmp_path / "rm.jsonl"
    _write_training(training)
    out = tmp_path / "rm.qrmw"
    argv = ["train-rm", str(training), str(out), "--stub", "--epochs", "0", "--dim", "16",
            "--heads", "4", "--seed", "3"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    initial = float(printed.split("initial_mse=")[1].split()[0])
    final = float(printed.split("final_mse=")[1].split()[0])
    assert math.isfinite(initial) and final == initial
    assert out.read_bytes() == save_params(init_params(16, heads=4, seed=3))


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


def test_train_rm_rejects_a_negative_seed(tmp_path, capsys):
    training = tmp_path / "rm.jsonl"
    _write_training(training)
    out = tmp_path / "rm.qrmw"
    rc = main(["train-rm", str(training), str(out), "--stub", "--dim", "16", "--heads", "4",
               "--seed", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_train_rm_empty_file_is_error(tmp_path):
    training = tmp_path / "rm.jsonl"
    training.write_text("")
    assert main(["train-rm", str(training), str(tmp_path / "o"), "--stub"]) == 2


def test_train_rm_empty_file_names_the_empty_training_set(tmp_path, capsys):
    training = tmp_path / "rm.jsonl"
    training.write_text("")
    assert main(["train-rm", str(training), str(tmp_path / "o"), "--stub"]) == 2
    assert capsys.readouterr().err == "error: training set must be non-empty\n"


def test_train_rm_rejects_a_blank_query_naming_the_line_before_any_embed(
    tmp_path, capsys, monkeypatch
):
    # An empty subgraph stays valid: an isolated centre's candidate serializes to it.
    training = tmp_path / "rm.jsonl"
    rows = [{"query": "Ashford", "subgraph": "", "score": 0.5},
            {"query": "  ", "subgraph": "", "score": 0.5}]
    argv = ["train-rm", str(training), str(tmp_path / "rm.qrmw"), "--stub", "--dim", "16",
            "--heads", "4"]
    training.write_text(json.dumps(rows[0]) + "\n")
    assert main(argv) == 0
    capsys.readouterr()
    calls = _recorded_calls(monkeypatch)
    training.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: line 2: query must be non-empty\n")
    assert calls == []


def test_train_rm_names_the_line_of_a_score_too_large_for_a_float(tmp_path, capsys):
    training = tmp_path / "rm.jsonl"
    training.write_text(
        '{"query": "q", "subgraph": "s", "score": 1.0}\n'
        '{"query": "q", "subgraph": "s", "score": %s}\n' % ("1" * 401)
    )
    assert main(["train-rm", str(training), str(tmp_path / "rm.qrmw"), "--stub"]) == 2
    assert capsys.readouterr() == ("", "error: line 2: int too large to convert to float\n")


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


def test_seed_does_not_move_the_stub_embedding_space(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    _write_corpus(corpus, [
        {"id": "c1", "text": "Northgate Bridge spans the Silverrun River"},
        {"id": "c2", "text": "Silverrun River powers the Old Mill"},
        {"id": "c3", "text": "the Old Mill grinds barley for local bakeries"},
    ])
    kg_path, artifacts = tmp_path / "kg.jsonl", tmp_path / "artifacts"
    assert main(["build-kg", str(corpus), str(kg_path), "--stub", "--seed", "0"]) == 0
    assert main(["index", str(kg_path), str(corpus), str(artifacts), "--stub", "--seed", "0"]) == 0
    capsys.readouterr()
    mapped = []
    for seed in ("0", "5"):
        argv = ["query", "what does the Silverrun power", "--artifacts", str(artifacts), "--stub"]
        assert main([*argv, "--trace", "--seed", seed]) == 0
        out = capsys.readouterr().out
        mapped.append(json.loads(out[out.index("{") :])["mapped"])
    [hit] = mapped[0]
    assert (hit["extracted"], hit["entity"]) == ("Silverrun", "Silverrun")
    assert hit["score"] == pytest.approx(1.0)
    assert mapped[1] == mapped[0]


def test_query_rejects_a_negative_seed(artifacts, tmp_path, capsys):
    assert not (artifacts / "rm.qrmw").exists()  # so the query would seed the reward model
    argv = ["query", "what lies beside Ashford", "--artifacts", str(artifacts), "--stub"]
    assert main([*argv, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    config = tmp_path / "qmkgf.conf"
    config.write_text("seed = -3\n")
    assert main([*argv, "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -3\n"


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


def test_query_into_a_closed_pipe_exits_1_with_nothing_on_stderr(artifacts):
    # As `qmkgf query ... | head -1` once head has exited: the read end is
    # closed before the child writes anything.
    package_root = str(Path(qmkgf.__file__).resolve().parent.parent)
    pythonpath = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    proc = subprocess.Popen(
        [sys.executable, "-m", "qmkgf", "query", "what guards Cedarfall",
         "--artifacts", str(artifacts), "--stub", "--trace"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)},
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err.decode()) == (1, "")


@pytest.mark.parametrize("command", [
    ["query", "q", "--artifacts", "{artifacts}", "--config", "{tmp}"],
    ["build-kg", "{tmp}/corpus.jsonl", "{tmp}"],
    ["index", "{tmp}/kg.jsonl", "{tmp}/corpus.jsonl", "{tmp}/corpus.jsonl"],
], ids=["config-is-a-directory", "graph-out-is-a-directory", "index-out-is-a-file"])
def test_a_path_of_the_wrong_kind_is_an_input_error(artifacts, tmp_path, command):
    argv = [a.format(artifacts=artifacts, tmp=tmp_path) for a in command]
    package_root = str(Path(qmkgf.__file__).resolve().parent.parent)
    pythonpath = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    proc = subprocess.run(
        [sys.executable, "-m", "qmkgf", *argv, "--stub"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and str(tmp_path) in proc.stderr


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


def test_query_rejects_indices_of_two_dimensions(artifacts, capsys):
    small = VectorIndex(16, kind="document")
    small.add("d1", np.ones(16))
    (artifacts / "documents.qvec").write_bytes(save_index(small))
    assert main(["query", "Ashford news", "--artifacts", str(artifacts), "--stub"]) == 2
    err = capsys.readouterr().err
    assert "entities.qvec has dimension 64" in err and "documents.qvec has 16" in err


def test_query_rejects_a_reward_model_of_another_dimension(artifacts, capsys):
    (artifacts / "rm.qrmw").write_bytes(save_params(init_params(8, heads=2, seed=0)))
    # A fallback query too: it never scores a subgraph.
    for question in ("where is Ashford", "what is news"):
        assert main(["query", question, "--artifacts", str(artifacts), "--stub"]) == 2
        assert "rm.qrmw has dimension 8 but the vector indices have 64" in capsys.readouterr().err


def test_query_rejects_a_reward_model_of_dimension_zero(artifacts, capsys):
    (artifacts / "rm.qrmw").write_bytes(
        b"QRMW" + struct.pack("<III", 1, 0, 1) + struct.pack("<f", 0.0)
    )
    assert main(["query", "what is news", "--artifacts", str(artifacts), "--stub"]) == 2
    assert "QRMW dimension must be >= 1" in capsys.readouterr().err


def test_eval_rejects_gold_ids_that_are_not_strings(artifacts, tmp_path, capsys):
    eval_file = tmp_path / "eval.jsonl"
    rows = [
        {"query": "Ashford news", "reference": "whatever", "gold_chunks": ["d1"]},
        {"query": "Ashford news", "reference": "whatever", "gold_chunks": [None, 1, {"x": 1}]},
    ]
    eval_file.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert main(["eval", str(eval_file), "--artifacts", str(artifacts), "--stub"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: line 2: gold_chunks must hold chunk id strings\n"
    assert captured.out == ""


def _recorded_calls(monkeypatch) -> list:
    """The names of the stub client's service methods, as they are called."""
    calls = []
    for method in ("extract_entities", "embed", "embed_many", "rerank", "generate"):
        monkeypatch.setattr(StubModelClient, method, lambda self, *a, m=method: calls.append(m))
    return calls


def test_eval_rejects_a_blank_query_naming_the_line_before_any_call(
    artifacts, tmp_path, capsys, monkeypatch
):
    calls = _recorded_calls(monkeypatch)
    eval_file = tmp_path / "eval.jsonl"
    rows = [
        {"query": "Ashford news", "reference": "whatever", "gold_chunks": ["d1"]},
        {"query": "   ", "reference": "whatever", "gold_chunks": ["d1"]},
    ]
    eval_file.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert main(["eval", str(eval_file), "--artifacts", str(artifacts), "--stub"]) == 2
    assert capsys.readouterr() == ("", "error: line 2: query must be non-empty\n")
    assert calls == []


def test_eval_rejects_a_gold_chunk_the_corpus_lacks_naming_the_line_before_any_call(
    artifacts, tmp_path, capsys, monkeypatch
):
    calls = _recorded_calls(monkeypatch)
    eval_file = tmp_path / "eval.jsonl"
    rows = [
        {"query": "Ashford news", "reference": "whatever", "gold_chunks": []},
        {"query": "Ashford news", "reference": "whatever", "gold_chunks": ["d2", "d9"]},
    ]
    eval_file.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert main(["eval", str(eval_file), "--artifacts", str(artifacts), "--stub"]) == 2
    assert capsys.readouterr() == ("", "error: line 2: gold chunk 'd9' is not in the corpus\n")
    assert calls == []


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


@pytest.mark.parametrize("kind", ["onehop", "multihop", "pagerank", "fused"])
def test_inspect_subgraph_unknown_entity_fails_before_any_request(
    artifacts, capsys, monkeypatch, kind
):
    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    argv = ["inspect-subgraph", "Nowhere", "--kind", kind, "--artifacts", str(artifacts)]
    _StubHandler.stub = StubModelClient(dim=64, seed=0)
    _StubHandler.requests = []
    with _serving(_StubHandler) as url:
        assert main([*argv, "--service-url", url]) == 2
    assert capsys.readouterr() == ("", "error: unknown entity: 'Nowhere'\n")
    assert _StubHandler.requests == []


def test_inspect_subgraph_fused(artifacts, capsys):
    rc = main(
        ["inspect-subgraph", "Birchwood", "--kind", "fused", "--artifacts",
         str(artifacts), "--stub"]
    )
    assert rc == 0
    header = json.loads(capsys.readouterr().out.split("\n")[0])
    assert header["path_kind"] == "fused"


def test_query_and_inspect_fused_reject_a_zero_entity_vector(artifacts, capsys):
    path = artifacts / "entities.qvec"
    index = load_index(path.read_bytes(), kind="entity")
    index.add("Zero", np.zeros(index.dimension))  # in the index only, so no centre reaches it
    path.write_bytes(save_index(index))
    inspect = ["inspect-subgraph", "Birchwood", "--kind", "fused"]
    for argv in (["query", "where is Birchwood"], inspect):
        assert main([*argv, "--artifacts", str(artifacts), "--stub"]) == 2
        assert capsys.readouterr().err == "error: stored vector 'Zero' is zero\n"


def test_inspect_fused_runs_on_an_empty_entity_index(artifacts, capsys):
    # An empty index beside a non-empty graph is a mismatch, not an index to run on.
    (artifacts / "entities.qvec").write_bytes(save_index(VectorIndex(64, kind="entity")))
    argv = ["inspect-subgraph", "Birchwood", "--kind", "fused", "--artifacts", str(artifacts)]
    assert main([*argv, "--stub"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: entity 'Ashford' is in the graph but not in the entity index\n"
    assert captured.out == ""


def _readme_corpus() -> list[dict]:
    """The rows of the walkthrough's ``corpus.jsonl``, read from README."""
    heredoc = r"cat > corpus\.jsonl <<'EOF'\n(.*?)\nEOF\n"
    [body] = re.findall(heredoc, README.read_text("utf-8"), re.S)
    return [json.loads(line) for line in body.splitlines()]


README_CORPUS = _readme_corpus()


@pytest.fixture()
def readme_artifacts(tmp_path):
    """Stub artifacts of README's walkthrough corpus, and an eval file."""
    corpus, kg_path, out_dir = tmp_path / "corpus.jsonl", tmp_path / "kg.jsonl", tmp_path / "art"
    _write_corpus(corpus, README_CORPUS)
    assert main(["build-kg", str(corpus), str(kg_path), "--stub"]) == 0
    assert main(["index", str(kg_path), str(corpus), str(out_dir), "--stub"]) == 0
    row = {"query": "what does the Silverrun power", "reference": "r", "gold_chunks": ["c2"]}
    (tmp_path / "eval.jsonl").write_text(json.dumps(row) + "\n")
    return out_dir


def test_index_over_http_sends_one_embed_post_for_the_readme_corpus(tmp_path, capsys, monkeypatch):
    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    corpus, kg_path = tmp_path / "corpus.jsonl", tmp_path / "kg.jsonl"
    _write_corpus(corpus, README_CORPUS)
    assert main(["build-kg", str(corpus), str(kg_path), "--stub"]) == 0
    assert main(["index", str(kg_path), str(corpus), str(tmp_path / "stub"), "--stub"]) == 0
    capsys.readouterr()
    _StubHandler.stub = StubModelClient(dim=64, seed=0)
    _StubHandler.requests = []
    with _serving(_StubHandler) as url:
        argv = ["index", str(kg_path), str(corpus), str(tmp_path / "http"), "--service-url", url]
        assert main(argv) == 0
    assert capsys.readouterr().out == "entity_vectors=6 document_vectors=3 dim=64\n"
    [(path, payload)] = _StubHandler.requests
    assert path == "/embed" and len(payload["texts"]) == 9
    for name in ("entities.qvec", "documents.qvec"):
        assert (tmp_path / "http" / name).read_bytes() == (tmp_path / "stub" / name).read_bytes()


def test_http_index_and_query_take_the_dimension_from_the_service(tmp_path, capsys, monkeypatch):
    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    corpus, kg_path, out = tmp_path / "corpus.jsonl", tmp_path / "kg.jsonl", tmp_path / "http"
    _write_corpus(corpus, README_CORPUS)
    assert main(["build-kg", str(corpus), str(kg_path), "--stub"]) == 0
    capsys.readouterr()
    _StubHandler.stub = StubModelClient(dim=32, seed=0)
    _StubHandler.requests = []
    with _serving(_StubHandler) as url:  # no --dim, so the config's is 64
        assert main(["index", str(kg_path), str(corpus), str(out), "--service-url", url]) == 0
        assert capsys.readouterr().out == "entity_vectors=6 document_vectors=3 dim=32\n"
        argv = ["query", "what does the Silverrun power", "--artifacts", str(out), "--trace"]
        assert main([*argv, "--service-url", url]) == 0
    printed = capsys.readouterr().out
    trace = json.loads(printed[printed.index("{") :])
    assert not trace["fallback"] and trace["per_entity"]


def test_http_heads_must_divide_the_services_dimension_not_dim(tmp_path, capsys, monkeypatch):
    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    corpus, kg_path, out = tmp_path / "corpus.jsonl", tmp_path / "kg.jsonl", tmp_path / "http"
    _write_corpus(corpus, README_CORPUS)
    assert main(["build-kg", str(corpus), str(kg_path), "--stub"]) == 0
    _StubHandler.stub = StubModelClient(dim=48, seed=0)
    with _serving(_StubHandler) as url:
        assert main(["index", str(kg_path), str(corpus), str(out), "--service-url", url]) == 0
        argv = ["query", "what does the Silverrun power", "--artifacts", str(out)]
        capsys.readouterr()
        assert main([*argv, "--service-url", url, "--heads", "12"]) == 0  # 12 does not divide 64
        capsys.readouterr()
        _StubHandler.requests = []
        assert main([*argv, "--service-url", url, "--heads", "5"]) == 2
    assert capsys.readouterr() == ("", "error: heads (5) must divide dim (48)\n")
    assert _StubHandler.requests == []


def test_stub_query_of_another_dimension_exits_2_before_any_call(artifacts, capsys, monkeypatch):
    calls = []
    for method in ("extract_entities", "embed", "embed_many", "rerank", "generate"):
        monkeypatch.setattr(StubModelClient, method, lambda self, *a, m=method: calls.append(m))
    argv = ["query", "where is Ashford", "--artifacts", str(artifacts), "--stub", "--dim", "32"]
    assert main(argv) == 2
    path = artifacts / "entities.qvec"
    assert capsys.readouterr().err == f"error: {path} has dimension 64 but dim is 32\n"
    assert calls == []


def test_train_rm_over_http_sends_one_embed_post_per_256_distinct_texts(tmp_path, monkeypatch):
    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    training = tmp_path / "rm.jsonl"
    # 200 distinct queries, each twice, and 400 distinct subgraph texts.
    rows = [{"query": f"where is place{i % 200}", "subgraph": f"place{i} lies beside river",
             "score": (i % 3) / 2} for i in range(400)]
    training.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    args = ["--epochs", "3", "--lr", "0.5", "--dim", "16", "--heads", "4"]
    assert main(["train-rm", str(training), str(tmp_path / "stub.qrmw"), "--stub", *args]) == 0
    _StubHandler.stub = StubModelClient(dim=16, seed=0)
    _StubHandler.requests = []
    with _serving(_StubHandler) as url:
        argv = ["train-rm", str(training), str(tmp_path / "http.qrmw"), "--service-url", url]
        assert main([*argv, *args, "--lr", "0"]) == 2  # a bad argument fails before any POST
        assert _StubHandler.requests == []
        assert main([*argv, *args]) == 0
    assert [path for path, _ in _StubHandler.requests] == ["/embed"] * 3  # ceil(600 / 256)
    sent = [text for _, payload in _StubHandler.requests for text in payload["texts"]]
    assert [len(p["texts"]) for _, p in _StubHandler.requests] == [256, 256, 88]
    assert sorted(sent) == sorted({t for r in rows for t in (r["query"], r["subgraph"])})
    assert (tmp_path / "http.qrmw").read_bytes() == (tmp_path / "stub.qrmw").read_bytes()


def _commands_reading_artifacts(artifacts) -> list[list[str]]:
    """Every command that reads the graph and the entity index: a query
    with an entity, one without (the fallback path), eval, and each kind
    of inspect-subgraph."""
    return [
        ["query", "what does the Silverrun power"],
        ["query", "what is ground here"],
        ["eval", str(artifacts.parent / "eval.jsonl")],
        *(["inspect-subgraph", "Silverrun", "--kind", kind]
          for kind in ("onehop", "multihop", "pagerank", "fused")),
    ]


def _drop_silverrun(artifacts) -> None:
    graph = load_kg((artifacts / "kg.jsonl").read_bytes())
    kept = KnowledgeGraph()
    for t in graph.triples:
        if "Silverrun" not in (t.head, t.tail):
            kept.add_triple(t)
    assert set(kept.entities) == set(graph.entities) - {"Silverrun"}
    (artifacts / "kg.jsonl").write_bytes(save_kg(kept))


@pytest.mark.parametrize("case, message", [
    ("graph_gains_an_entity", "entity 'Zephyrlake' is in the graph but not in the entity index"),
    ("graph_loses_an_entity", "entity 'Silverrun' is in the entity index but not in the graph"),
    ("corpus_gains_a_chunk", "chunk 'c4' is in the corpus but not in the document index"),
    ("corpus_loses_a_chunk", "chunk 'c2' is in the document index but not in the corpus"),
], ids=["graph_gains_an_entity", "graph_loses_an_entity", "corpus_gains_a_chunk",
        "corpus_loses_a_chunk"])
def test_mismatched_graph_and_entity_index_exit_2_before_any_service_call(
    readme_artifacts, capsys, monkeypatch, case, message
):
    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    artifacts = readme_artifacts
    if case == "graph_gains_an_entity":  # a triple added to kg.jsonl after `index`
        with open(artifacts / "kg.jsonl", "a") as fh:
            fh.write(json.dumps({"head": "Silverrun", "relation": "feeds", "tail": "Zephyrlake"}))
    elif case == "graph_loses_an_entity":
        _drop_silverrun(artifacts)
    elif case == "corpus_gains_a_chunk":  # a chunk added to corpus.jsonl after `index`
        with open(artifacts / "corpus.jsonl", "a") as fh:
            fh.write(json.dumps({"id": "c4", "text": "the Silverrun floods the Old Mill"}) + "\n")
    else:  # the chunk that answers the query with an entity
        _write_corpus(artifacts / "corpus.jsonl", [c for c in README_CORPUS if c["id"] != "c2"])
    capsys.readouterr()
    _StubHandler.stub = StubModelClient(dim=64, seed=0)
    _StubHandler.requests = []
    with _serving(_StubHandler) as url:
        for argv in _commands_reading_artifacts(artifacts):
            for client in (["--stub"], ["--service-url", url]):
                assert main([*argv, "--artifacts", str(artifacts), *client]) == 2, argv
                assert capsys.readouterr() == ("", f"error: {message}\n"), argv
    assert _StubHandler.requests == []


@pytest.mark.parametrize("kind", ["onehop", "multihop", "pagerank"])
def test_inspect_subgraph_names_a_zero_entity_vector(readme_artifacts, capsys, kind):
    path = readme_artifacts / "entities.qvec"
    index = load_index(path.read_bytes(), kind="entity")
    index.add("Silverrun", np.zeros(index.dimension))
    path.write_bytes(save_index(index))
    argv = ["inspect-subgraph", "River", "--kind", kind, "--artifacts", str(readme_artifacts)]
    assert main([*argv, "--stub"]) == 2
    assert capsys.readouterr().err == "error: stored vector 'Silverrun' is zero\n"


def _inspect_fused_triples(out: str) -> list[list[str]]:
    return [[row["head"], row["relation"], row["tail"]]
            for row in map(json.loads, out.splitlines()[1:])]


@pytest.mark.parametrize("strategy", ["rm_fusion", "all_fusion", "top5_fusion"])
def test_inspect_subgraph_fused_shows_what_query_fuses(artifacts, capsys, monkeypatch, strategy):
    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    entity = "Birchwood"
    assert main(["query", entity, "--artifacts", str(artifacts), "--stub", "--trace",
                 "--strategy", strategy]) == 0
    out = capsys.readouterr().out
    trace = json.loads(out[out.index("{") :])
    assert [m["entity"] for m in trace["mapped"]] == [entity]
    # The same path over HTTP: the entity, then the texts of its candidates.
    _StubHandler.stub = StubModelClient(dim=64, seed=0)
    _StubHandler.requests = []
    with _serving(_StubHandler) as url:
        assert main(["inspect-subgraph", entity, "--kind", "fused", "--artifacts",
                     str(artifacts), "--strategy", strategy, "--service-url", url]) == 0
    fused = trace["per_entity"][0]["fused_triples"]
    assert _inspect_fused_triples(capsys.readouterr().out) == fused
    assert sum(path == "/embed" for path, _ in _StubHandler.requests) <= 3


@pytest.mark.parametrize("kind, posts", [
    ("onehop", 0), ("multihop", 0), ("pagerank", 0), ("fused", 1),
])
def test_http_inspect_subgraph_embeds_only_for_fused(artifacts, capsys, monkeypatch, kind, posts):
    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    argv = ["inspect-subgraph", "Birchwood", "--kind", kind, "--artifacts", str(artifacts)]
    assert main([*argv, "--stub"]) == 0
    want = capsys.readouterr().out
    _StubHandler.stub = StubModelClient(dim=64, seed=0)
    _StubHandler.requests = []
    with _serving(_StubHandler) as url:
        assert main([*argv, "--service-url", url]) == 0
    assert capsys.readouterr().out == want
    assert [path for path, _ in _StubHandler.requests].count("/embed") == posts


@pytest.mark.parametrize("command", ["build-kg", "train-rm", "eval", "--config"])
def test_non_utf8_input_exits_2_naming_the_line(artifacts, tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    if command == "build-kg":
        bad.write_bytes(b'{"id": "d1", "text": "Ashford"}\n{"id": "d2", "text": "caf\xe9"}\n')
        argv = ["build-kg", str(bad), str(tmp_path / "kg.jsonl"), "--stub"]
    elif command == "train-rm":
        bad.write_bytes(b'{"query": "q", "subgraph": "A r B", "score": 1.0}\n\xff\n')
        argv = ["train-rm", str(bad), str(tmp_path / "rm.qrmw"), "--stub"]
    elif command == "eval":
        bad.write_bytes(b'{"query": "q", "reference": "r", "gold_chunks": []}\n\xff\n')
        argv = ["eval", str(bad), "--artifacts", str(artifacts), "--stub"]
    else:
        bad.write_bytes(b"K = 5\nstrategy = caf\xe9\n")
        argv = ["query", "q", "--artifacts", str(artifacts), "--stub", "--config", str(bad)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "not valid UTF-8" in err
    assert ("bad.txt:2:" if command == "--config" else "line 2:") in err


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
