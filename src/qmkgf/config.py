"""Runtime configuration: defaults, the key = value config file, and merging.

Defaults bake in the settings the pipeline is tuned for: subgraph size
K=10, rerank cutoff k=10, 32 attention heads, damping 0.85, and
generation temperature 0.0. Flags override file values; file values
override defaults. The config path falls back to the QMKGF_CONFIG
environment variable when no --config flag is given.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .errors import ValidationError
from .fusion import STRATEGIES

ENV_CONFIG = "QMKGF_CONFIG"


@dataclass
class PipelineConfig:
    K: int = 10                     # one-hop / multi-hop / pagerank subgraph size
    k: int = 10                     # rerank cutoff
    per_item_k: int = 5             # chunks retrieved per expansion item
    heads: int = 32                 # attention heads in the reward model
    dim: int = 64                   # embedding / attention dimension
    damping: float = 0.85           # pagerank damping factor
    pagerank_max_iters: int = 100
    pagerank_tolerance: float = 1e-8
    temperature: float = 0.0        # generation temperature
    strategy: str = "rm_fusion"
    tau: float | None = None        # fixed fusion threshold override
    seed: int = 0
    stub: bool = False
    service_url: str | None = None

    def validate(self) -> None:
        if self.K < 1 or self.k < 1 or self.per_item_k < 1:
            raise ValidationError("K, k, and per_item_k must be >= 1")
        if self.heads < 1 or self.dim < 1 or self.dim % self.heads != 0:
            raise ValidationError("heads must be >= 1 and divide dim")
        if not 0.0 < self.damping < 1.0:
            raise ValidationError("damping must be in (0, 1)")
        if self.pagerank_max_iters < 1 or not self.pagerank_tolerance > 0:
            raise ValidationError("pagerank_max_iters >= 1 and tolerance > 0 required")
        if self.temperature < 0.0:
            raise ValidationError("temperature must be >= 0")
        if self.strategy not in STRATEGIES:
            raise ValidationError(f"unknown strategy {self.strategy!r}")
        if self.tau is not None and not -1.0 <= self.tau <= 1.0:
            raise ValidationError("tau must be in [-1, 1]")
        if not self.stub and self.service_url is None:
            raise ValidationError("service_url required unless stub mode is on")


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}


def parse_config_file(path: str) -> dict:
    """Parse "key = value" lines; '#' starts a comment, blank lines skipped."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _FIELD_TYPES:
                raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _coerce(key, value, f"{path}:{lineno}")
    return values


def _coerce(key: str, value: str, where: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        if kind == "bool":
            if value.lower() in ("true", "1", "yes", "on"):
                return True
            if value.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(value)
        if kind in ("float | None", "str | None"):
            if value.lower() in ("none", ""):
                return None
            return float(value) if kind == "float | None" else value
        return value
    except ValueError as exc:
        raise ValidationError(f"{where}: bad value for {key}: {value!r}") from exc


def load_config(
    config_path: str | None = None, overrides: dict | None = None
) -> PipelineConfig:
    """Defaults, overlaid with the config file, overlaid with explicit overrides."""
    values: dict = {}
    path = config_path or os.environ.get(ENV_CONFIG)
    if path:
        values.update(parse_config_file(path))
    for key, value in (overrides or {}).items():
        if value is not None:
            if key not in _FIELD_TYPES:
                raise ValidationError(f"unknown config key {key!r}")
            values[key] = value
    cfg = PipelineConfig(**values)
    cfg.validate()
    return cfg
