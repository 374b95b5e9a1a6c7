"""Counting client, span recorder and host-speed probe the benchmark
wraps around qmkgf.

All live in the benchmark, outside the program: the client wrapper sits
at the model-service interface, and spans are patched onto the module
attributes the pipeline really calls, then restored.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np

# The reference loop's time at the speed benchmark times are scaled to:
# its time on an unloaded core of a 2-vCPU Intel Xeon host at 2.0 GHz.
REFERENCE_MS = 2.3


def client_family(method: str) -> str:
    """Layer name for a client method: embed_* -> embed, extract_* -> extract."""
    for prefix in ("embed", "extract"):
        if method.startswith(prefix):
            return prefix
    return method


class CountingClient:
    """Forwards every public method of a model client and counts each call.

    Each forwarded call is one request for ``HttpModelClient``, so the
    counts are service round trips. Calls the wrapped client makes on
    itself (the stub's ``rerank`` embeds internally) do not pass through
    here and are not counted. With a tracer attached, each call is also a
    span, and the texts sent to ``embed*`` methods are recorded.
    """

    def __init__(self, inner):
        self.inner = inner
        self._methods: dict[str, object] = {}
        self.calls: Counter = Counter()
        self.errors = 0
        self.tracer: Tracer | None = None

    def __getattr__(self, name: str):
        attr = getattr(self.inner, name)
        if name.startswith("_") or not callable(attr):
            return attr
        method = self._methods.get(name)
        if method is None:
            method = self._methods[name] = self._counted(name, attr)
        return method

    def _counted(self, name: str, fn):
        family = client_family(name)
        span = f"clients.{family}"

        def call(*args, **kwargs):
            self.calls[family] += 1
            tracer = self.tracer
            try:
                if tracer is None:
                    return fn(*args, **kwargs)
                if family == "embed" and args:
                    texts = [args[0]] if isinstance(args[0], str) else list(args[0])
                    tracer.embed_texts.extend(texts)
                return tracer.timed(span, fn, args, kwargs)
            except Exception:
                self.errors += 1
                raise

        return call

    def total_calls(self) -> int:
        return sum(self.calls.values())


class Tracer:
    """Self time and call count per span name, plus per-call counters.

    A span's self time is its duration minus the durations of the spans
    it directly encloses, so the self times of one query sum exactly to
    the root span's duration.
    """

    def __init__(self) -> None:
        self._child_ns: list[int] = []
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.embed_texts: list[str] = []
        self.root_ns = 0

    def reset(self) -> None:
        self.self_ns.clear()
        self.calls.clear()
        self.counters.clear()
        self.embed_texts.clear()

    def timed(self, name: str, fn, args, kwargs, after=None):
        self._child_ns.append(0)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter_ns() - start
            self.self_ns[name] += duration - self._child_ns.pop()
            self.calls[name] += 1
            if self._child_ns:
                self._child_ns[-1] += duration
            else:
                self.root_ns = duration
        if after is not None:
            after(self.counters, args, result)
        return result

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            return self.timed(name, fn, args, kwargs, after)

        return traced


class Patched:
    """Context manager that replaces module attributes with traced wrappers."""

    def __init__(self, tracer: Tracer, targets):
        self.tracer = tracer
        self.targets = targets      # (module, attribute, span name, after hook)
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patched":
        for module, attr, span, after in self.targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.tracer.wrap(span, original, after))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class StubServer:
    """Local HTTP server speaking the model-service wire protocol, backed by
    a stub client, that counts the requests it receives."""

    def __init__(self, stub):
        self.stub = stub
        self.requests = 0
        self._server: HTTPServer | None = None
        self._thread: threading.Thread | None = None

    def _reply(self, path: str, body: dict) -> dict:
        stub = self.stub
        if path == "/embed":
            return {"vectors": [stub.embed(text).tolist() for text in body["texts"]]}
        if path == "/generate":
            return {"text": stub.generate(body["prompt"])}
        if path == "/rerank":
            return {"scores": stub.rerank(body["query"], body["texts"])}
        if path == "/extract" and body.get("mode") == "entities":
            return {"entities": stub.extract_entities(body["text"])}
        if path == "/extract":
            return {"records": stub.extract_triples(body["text"])}
        raise KeyError(path)

    def __enter__(self) -> "StubServer":
        owner = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True
            timeout = 30

            def do_POST(self):
                owner.requests += 1
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                try:
                    data, status = json.dumps(owner._reply(self.path, body)).encode(), 200
                except KeyError:
                    data, status = b"{}", 404
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._server.server_port}"
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=30)


class HostSpeed:
    """Scales measured intervals to one fixed host speed.

    A shared host runs a process at a speed that changes under it: on
    the 2-vCPU Xeon host this was tuned on, the reference loop below took
    either about 2.3 ms or 3.7-4.2 ms, switching within seconds, and the
    share of slow time changed over minutes, so raw times of identical
    work differed by up to 80% between runs. The loop runs before and
    after each measured interval; the interval, scaled by REFERENCE_MS
    over the mean of the two loop times, is what it would have taken at
    the speed where the loop takes REFERENCE_MS. The loop mixes a numpy
    product with a Python sort and dict updates, as the pipeline's hot
    paths do.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((1000, 64))
        self._vector = rng.standard_normal(64)
        self._last_ns = 0
        self.factors: list[float] = []

    def _loop_ns(self) -> int:
        start = time.perf_counter_ns()
        totals: dict[int, float] = {}
        for _ in range(4):
            scores = self._matrix @ self._vector
            for j in sorted(range(len(scores)), key=lambda j: (-scores[j], j))[:10]:
                totals[j] = totals.get(j, 0.0) + float(scores[j])
        return time.perf_counter_ns() - start

    def start(self) -> None:
        """Probe the speed before the first interval."""
        self._last_ns = self._loop_ns()

    def scale(self) -> float:
        """Factor for the interval since the last probe; probes again, so
        the next interval starts from here."""
        before, self._last_ns = self._last_ns, self._loop_ns()
        factor = REFERENCE_MS * 1e6 / ((before + self._last_ns) / 2)
        self.factors.append(factor)
        return factor
