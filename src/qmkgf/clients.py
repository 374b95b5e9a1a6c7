"""Model-service clients: a deterministic stub and an HTTP client.

Everything that would normally hit a hosted model (embedding,
generation, reranking, entity/triple extraction) goes through a single
client interface (``embed``, ``embed_many``, ``generate``, ``rerank``,
``extract_entities``, ``extract_triples``). The stub implementation is fully deterministic given
its seed, so the whole pipeline runs offline and reproducibly; the HTTP
client speaks the wire protocol below.

``embed_many(texts)`` embeds many texts at once. Each HTTP client call is
exactly one POST, so ``embed_many`` is one round trip for all its texts, and
``embed(text)`` is ``embed_many([text])[0]``. An ``/embed`` reply must hold
one non-empty list of finite numbers per text, all of one length, and a
``/rerank`` reply one finite number per text, or the call raises
``ModelServiceError``.

Wire protocol (JSON bodies, all POST):

    /embed    {"texts": [str]}                   -> {"vectors": [[float]]}
    /generate {"prompt": str, "temperature": f}  -> {"text": str}
    /rerank   {"query": str, "texts": [str]}     -> {"scores": [float]}
    /extract  {"text": str, "mode": "entities"}  -> {"entities": [str]}
    /extract  {"text": str, "mode": "triples"}   -> {"records": [{...}]}

No prompt is sent: README's wire-protocol section gives the extraction
prompt templates an ``/extract`` server is expected to run.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

from .errors import ModelServiceError
from .kg import is_number


class StubModelClient:
    """In-process deterministic stand-in for all model services.

    Embeddings are bags of seeded per-token hash vectors, so texts that
    share tokens land close in cosine space and identical texts embed
    identically. Extraction, generation, and reranking consult optional
    lookup tables first and fall back to simple deterministic rules:
    capitalized tokens as entities, consecutive entities chained into
    "related_to" triples, prompt echo for generation, and hash-embedding
    cosine for reranking.
    """

    def __init__(
        self,
        dim: int = 64,
        seed: int = 0,
        entity_table: dict[str, list[str]] | None = None,
        triple_table: dict[str, list[dict]] | None = None,
        generate_table: dict[str, str] | None = None,
        rerank_table: dict[tuple[str, str], float] | None = None,
    ):
        self.dim = dim
        self.seed = seed
        self.entity_table = entity_table or {}
        self.triple_table = triple_table or {}
        self.generate_table = generate_table or {}
        self.rerank_table = rerank_table or {}
        self._token_cache: dict[str, np.ndarray] = {}

    def _token_vector(self, token: str) -> np.ndarray:
        cached = self._token_cache.get(token)
        if cached is not None:
            return cached
        digest = hashlib.blake2b(
            f"{self.seed}\x1f{token}".encode("utf-8"), digest_size=8
        ).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "little"))
        vec = rng.standard_normal(self.dim)
        vec /= np.linalg.norm(vec)
        self._token_cache[token] = vec
        return vec

    def embed(self, text: str) -> np.ndarray:
        tokens = re.findall(r"[0-9a-z]+", text.lower())
        if not tokens:
            tokens = ["\x00empty"]  # placeholder so blank text is still embeddable
        total = np.zeros(self.dim)
        for token in tokens:
            total += self._token_vector(token)
        norm = np.linalg.norm(total)
        if norm == 0.0:
            return self._token_vector("\x00empty").copy()
        return total / norm

    def embed_many(self, texts: list[str]) -> list[np.ndarray]:
        return [self.embed(t) for t in texts]

    def generate(self, prompt: str) -> str:
        return self.generate_table.get(prompt, prompt)

    def rerank(self, query: str, texts: list[str]) -> list[float]:
        q_vec = self.embed(query)
        scores = []
        for text in texts:
            override = self.rerank_table.get((query, text))
            if override is not None:
                scores.append(float(override))
            else:
                scores.append(float(np.dot(q_vec, self.embed(text))))
        return scores

    def extract_entities(self, text: str) -> list[str]:
        if text in self.entity_table:
            return list(self.entity_table[text])
        seen = []
        for token in re.findall(r"\b[A-Z][A-Za-z0-9_]*\b", text):
            if token not in seen:
                seen.append(token)
        return seen

    def extract_triples(self, text: str) -> list[dict]:
        if text in self.triple_table:
            return [dict(r) for r in self.triple_table[text]]
        entities = self.extract_entities(text)
        return [
            {"head": a, "relation": "related_to", "tail": b, "weight": 1.0}
            for a, b in zip(entities, entities[1:])
        ]


def _finite_array(path: str, what: str, values: list) -> np.ndarray:
    """``values`` as float64, or ``ModelServiceError`` when they are ragged,
    beyond the float range or not finite."""
    try:
        array = np.array(values, dtype=np.float64)
    except (ValueError, OverflowError) as exc:
        raise ModelServiceError(f"{path} response {what} are unusable: {exc}") from exc
    if not np.isfinite(array).all():
        raise ModelServiceError(f"{path} response {what} must be finite")
    return array


class HttpModelClient:
    """Client for a model service speaking the module-level wire protocol."""

    def __init__(self, base_url: str, temperature: float = 0.0, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.temperature = temperature
        self.timeout = timeout
        import requests  # here, so that stub and offline runs never load the HTTP stack

        self.session = requests.Session()

    def _post(self, path: str, payload: dict) -> dict:
        import requests

        url = f"{self.base_url}{path}"
        try:
            response = self.session.post(url, json=payload, timeout=self.timeout)
        except requests.RequestException as exc:
            raise ModelServiceError(f"POST {url} failed: {exc}") from exc
        if response.status_code != 200:
            raise ModelServiceError(f"POST {url} returned {response.status_code}")
        try:
            body = response.json()
        except ValueError as exc:
            raise ModelServiceError(f"POST {url} returned non-JSON body") from exc
        if not isinstance(body, dict):
            raise ModelServiceError(f"POST {url} returned non-object body")
        return body

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: list[str]) -> list[np.ndarray]:
        body = self._post("/embed", {"texts": list(texts)})
        vectors = body.get("vectors")
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise ModelServiceError("/embed response vectors do not match texts")
        if not all(isinstance(v, list) and v and all(map(is_number, v)) for v in vectors):
            raise ModelServiceError("/embed response vectors must be non-empty lists of numbers")
        return list(_finite_array("/embed", "vectors", vectors))

    def generate(self, prompt: str) -> str:
        body = self._post("/generate", {"prompt": prompt, "temperature": self.temperature})
        text = body.get("text")
        if not isinstance(text, str):
            raise ModelServiceError("/generate response missing text")
        return text

    def rerank(self, query: str, texts: list[str]) -> list[float]:
        body = self._post("/rerank", {"query": query, "texts": texts})
        scores = body.get("scores")
        if not isinstance(scores, list) or len(scores) != len(texts):
            raise ModelServiceError("/rerank response scores do not match texts")
        if not all(map(is_number, scores)):
            raise ModelServiceError("/rerank response scores must be numbers")
        return _finite_array("/rerank", "scores", scores).tolist()

    def extract_entities(self, text: str) -> list[str]:
        body = self._post("/extract", {"text": text, "mode": "entities"})
        entities = body.get("entities")
        if not isinstance(entities, list) or not all(isinstance(e, str) for e in entities):
            raise ModelServiceError("/extract response entities must be a list of strings")
        return entities

    def extract_triples(self, text: str) -> list[dict]:
        """The records as sent; ``kg.ingest_extraction`` rejects malformed ones."""
        body = self._post("/extract", {"text": text, "mode": "triples"})
        records = body.get("records")
        if not isinstance(records, list):
            raise ModelServiceError("/extract response missing records")
        return records
