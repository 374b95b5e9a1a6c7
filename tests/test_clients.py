import dataclasses
import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from qmkgf.clients import (
    ENTITY_EXTRACTION_PROMPT,
    TRIPLE_EXTRACTION_PROMPT,
    HttpModelClient,
    StubModelClient,
)
from qmkgf.errors import ModelServiceError
from qmkgf.pipeline import Chunk, rerank_chunks, run_qmkgf
from qmkgf.vectors import cosine
from test_pipeline import _toy_world


# ---------------------------------------------------------------------------
# stub client
# ---------------------------------------------------------------------------

def test_stub_embed_deterministic_and_unit_norm():
    client = StubModelClient(dim=16, seed=3)
    a = client.embed("some text here")
    b = client.embed("some text here")
    np.testing.assert_array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-9)


def test_stub_embed_same_seed_same_vectors_across_instances():
    a = StubModelClient(dim=8, seed=7).embed("hello world")
    b = StubModelClient(dim=8, seed=7).embed("hello world")
    np.testing.assert_array_equal(a, b)
    c = StubModelClient(dim=8, seed=8).embed("hello world")
    assert not np.array_equal(a, c)


def test_stub_embed_token_overlap_raises_similarity():
    client = StubModelClient(dim=64, seed=0)
    base = client.embed("blue lake shore")
    related = client.embed("blue lake cabin")
    unrelated = client.embed("quartz mine dust")
    assert cosine(base, related) > cosine(base, unrelated)


def test_stub_embed_order_invariant_bag():
    client = StubModelClient(dim=16, seed=1)
    np.testing.assert_allclose(
        client.embed("alpha beta gamma"), client.embed("gamma alpha beta"), atol=1e-12
    )


def test_stub_embed_empty_text_nonzero():
    client = StubModelClient(dim=8, seed=0)
    vec = client.embed("")
    assert np.linalg.norm(vec) > 0


def test_stub_entity_table_and_heuristic():
    client = StubModelClient(entity_table={"Paris trip": ["Paris"]})
    assert client.extract_entities("Paris trip") == ["Paris"]
    # Heuristic fallback: capitalized tokens, deduplicated, in order.
    assert client.extract_entities("Alice met Bob and Alice again") == ["Alice", "Bob"]
    assert client.extract_entities("nothing capitalized") == []


def test_stub_triples_chain_consecutive_entities():
    client = StubModelClient()
    records = client.extract_triples("Alice met Bob near Carol")
    assert records == [
        {"head": "Alice", "relation": "related_to", "tail": "Bob", "weight": 1.0},
        {"head": "Bob", "relation": "related_to", "tail": "Carol", "weight": 1.0},
    ]


def test_stub_generate_echo_and_table():
    client = StubModelClient(generate_table={"known prompt": "known answer"})
    assert client.generate("known prompt") == "known answer"
    assert client.generate("anything else") == "anything else"


def test_stub_rerank_table_overrides_cosine():
    client = StubModelClient(rerank_table={("q", "special"): 9.0})
    scores = client.rerank("q", ["special", "q"])
    assert scores[0] == 9.0
    assert scores[1] == pytest.approx(1.0, abs=1e-9)  # identical token bag


def test_extraction_prompts_have_text_slot():
    assert "{text}" in ENTITY_EXTRACTION_PROMPT
    assert "{text}" in TRIPLE_EXTRACTION_PROMPT


# ---------------------------------------------------------------------------
# HTTP client against a live in-process server
# ---------------------------------------------------------------------------

def _send_json(handler: BaseHTTPRequestHandler, body) -> None:
    data = json.dumps(body).encode()
    handler.send_response(200)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", str(len(data)))
    handler.end_headers()
    handler.wfile.write(data)


class _Handler(BaseHTTPRequestHandler):
    calls: list = []
    fail_rerank = False
    embed_reply = None  # when set, the /embed reply body, whatever was sent
    rerank_reply = None  # likewise for /rerank

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        _Handler.calls.append((self.path, payload))
        if self.path == "/embed" and _Handler.embed_reply is not None:
            body = _Handler.embed_reply
        elif self.path == "/embed":
            body = {"vectors": [[float(len(t)), 1.0] for t in payload["texts"]]}
        elif self.path == "/generate":
            body = {"text": f"echo:{payload['prompt']}@t={payload['temperature']}"}
        elif self.path == "/rerank" and _Handler.rerank_reply is not None:
            body = _Handler.rerank_reply
        elif self.path == "/rerank":
            if _Handler.fail_rerank:
                self.send_response(500)
                self.end_headers()
                return
            body = {"scores": [float(i) for i, _ in enumerate(payload["texts"])]}
        elif self.path == "/extract":
            if payload["mode"] == "entities":
                body = {"entities": ["E1", "E2"]}
            else:
                body = {"records": [{"head": "E1", "relation": "r", "tail": "E2"}]}
        else:
            self.send_response(404)
            self.end_headers()
            return
        _send_json(self, body)

    def log_message(self, *args):
        pass


@contextmanager
def _serving(handler):
    """Base URL of an in-process server running ``handler``."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    # A short poll interval lets shutdown() return without a half-second wait.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


@pytest.fixture()
def http_client():
    _Handler.calls = []
    _Handler.fail_rerank = False
    _Handler.embed_reply = None
    _Handler.rerank_reply = None
    with _serving(_Handler) as url:
        yield HttpModelClient(url, temperature=0.0)


def test_http_embed_wire_format(http_client):
    vec = http_client.embed("hello")
    np.testing.assert_array_equal(vec, np.array([5.0, 1.0]))
    path, payload = _Handler.calls[-1]
    assert path == "/embed"
    assert payload == {"texts": ["hello"]}


def test_http_embed_many_is_one_request(http_client):
    vecs = http_client.embed_many(["a", "bb", "ccc"])
    np.testing.assert_array_equal(np.stack(vecs), [[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]])
    assert _Handler.calls == [("/embed", {"texts": ["a", "bb", "ccc"]})]


@pytest.mark.parametrize(
    "reply",
    [
        {},                                           # no vectors
        {"vectors": "1.0, 2.0"},                      # not a list
        {"vectors": [[1.0, 2.0]]},                    # one vector for two texts
        {"vectors": [[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]},
        {"vectors": [[1.0, float("nan")], [1.0, 2.0]]},
        {"vectors": [[1.0, 2.0], [float("inf"), 2.0]]},
        {"vectors": [[1.0, 2.0], [-float("inf"), 2.0]]},
        {"vectors": [["1.0", 2.0], [1.0, 2.0]]},      # a string entry
        {"vectors": [[1.0, 2.0], [True, 2.0]]},       # a boolean entry
        {"vectors": [[1.0, None], [1.0, 2.0]]},
        {"vectors": [[1.0, 2.0], [10**400, 2.0]]},   # overflows a float
        {"vectors": [[], []]},                        # empty vectors
        {"vectors": [1.0, 2.0]},                      # vectors not lists
        {"vectors": [{"x": 1.0}, [1.0, 2.0]]},
        {"vectors": [[1.0, 2.0], [1.0, 2.0, 3.0]]},   # different lengths
    ],
)
def test_http_bad_embed_reply_is_a_service_error(http_client, reply):
    _Handler.embed_reply = reply
    with pytest.raises(ModelServiceError):
        http_client.embed_many(["a", "b"])


def test_http_embed_accepts_integer_entries(http_client):
    _Handler.embed_reply = {"vectors": [[1, 2.5]]}
    np.testing.assert_array_equal(http_client.embed("a"), [1.0, 2.5])


def test_http_generate_sends_temperature(http_client):
    text = http_client.generate("prompt body")
    assert text == "echo:prompt body@t=0.0"
    path, payload = _Handler.calls[-1]
    assert path == "/generate"
    assert payload == {"prompt": "prompt body", "temperature": 0.0}


def test_http_rerank_wire_format(http_client):
    scores = http_client.rerank("q", ["a", "b", "c"])
    assert scores == [0.0, 1.0, 2.0]
    path, payload = _Handler.calls[-1]
    assert path == "/rerank"
    assert payload == {"query": "q", "texts": ["a", "b", "c"]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "scores",
    [
        [float("nan"), 0.5, 1.0],
        [0.5, float("inf"), 1.0],
        [0.5, 1.0, -float("inf")],
        ["0.5", 0.5, 1.0],             # a string entry
        [True, 0.5, 1.0],              # a boolean entry
        [None, 0.5, 1.0],
        [float("nan"), 0.5, "inf"],
        [10**400, 0.5, 1.0],           # overflows a float
    ],
)
def test_http_bad_rerank_reply_is_a_service_error_and_reranking_falls_back(http_client, scores):
    _Handler.rerank_reply = {"scores": scores}
    texts = ["a", "bb", "ccc"]
    with pytest.raises(ModelServiceError):
        http_client.rerank("q", texts)
    chunks = [Chunk(f"c{i}", text) for i, text in enumerate(texts)]
    ranked = rerank_chunks("q", chunks, http_client, 3)
    assert ranked.used_fallback
    # The embedding-cosine order: /embed maps a text to [len(text), 1].
    assert ranked.ids() == ["c0", "c1", "c2"]


def test_http_rerank_accepts_integer_scores(http_client):
    _Handler.rerank_reply = {"scores": [1, 2.5, 0]}
    assert http_client.rerank("q", ["a", "b", "c"]) == [1.0, 2.5, 0.0]


def test_http_extract_both_modes(http_client):
    assert http_client.extract_entities("text") == ["E1", "E2"]
    assert _Handler.calls[-1][1] == {"text": "text", "mode": "entities"}
    records = http_client.extract_triples("text")
    assert records == [{"head": "E1", "relation": "r", "tail": "E2"}]
    assert _Handler.calls[-1][1] == {"text": "text", "mode": "triples"}


def test_http_error_status_raises(http_client):
    _Handler.fail_rerank = True
    with pytest.raises(ModelServiceError):
        http_client.rerank("q", ["a"])


def test_http_unreachable_server_raises():
    client = HttpModelClient("http://127.0.0.1:9", timeout=0.2)
    with pytest.raises(ModelServiceError):
        client.embed("x")


# ---------------------------------------------------------------------------
# service round trips of a whole query over HTTP
# ---------------------------------------------------------------------------

class _StubHandler(BaseHTTPRequestHandler):
    """Replies as ``stub`` does and records every request."""

    stub: StubModelClient
    requests: list = []

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        _StubHandler.requests.append((self.path, payload))
        stub = _StubHandler.stub
        if self.path == "/embed":
            body = {"vectors": [stub.embed(t).tolist() for t in payload["texts"]]}
        elif self.path == "/generate":
            body = {"text": stub.generate(payload["prompt"])}
        elif self.path == "/rerank":
            body = {"scores": stub.rerank(payload["query"], payload["texts"])}
        elif payload["mode"] == "entities":
            body = {"entities": stub.extract_entities(payload["text"])}
        else:
            body = {"records": stub.extract_triples(payload["text"])}
        _send_json(self, body)

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("strategy", ["rm_fusion", "top5_fusion", "all_fusion"])
def test_http_query_round_trips(strategy):
    g, indices, params, cfg, stub = _toy_world()
    stub.entity_table["hilltown and quarry news"] = ["hilltown", "quarry"]
    cfg = dataclasses.replace(cfg, strategy=strategy)
    queries = [
        ("what fish live near hilltown", False),
        ("hilltown and quarry news", False),
        ("tell me about nothing", True),
    ]
    _StubHandler.stub = stub
    with _serving(_StubHandler) as url:
        http = HttpModelClient(url)
        http.session.trust_env = False
        for query, fallback in queries:
            _StubHandler.requests = []
            got = run_qmkgf(query, g, indices, params, cfg, http)
            sent = _StubHandler.requests
            want = run_qmkgf(query, g, indices, params, cfg, stub)
            assert got.trace["fallback"] is fallback
            # extract, embed batches, rerank, generate
            if fallback:
                assert len(sent) == 4
            else:
                assert len(sent) <= 7
            embedded = [t for path, body in sent if path == "/embed" for t in body["texts"]]
            assert len(embedded) == len(set(embedded))
            assert (got.ranked.ids(), got.answer) == (want.ranked.ids(), want.answer)
            assert json.dumps(got.trace, sort_keys=True) == json.dumps(want.trace, sort_keys=True)
