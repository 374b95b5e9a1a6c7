"""Runtime configuration: defaults, the key = value config file, and merging.

Defaults bake in the settings the pipeline is tuned for: subgraph size
K=10, rerank cutoff k=10, 32 attention heads, damping 0.85, and
generation temperature 0.0. Flags override file values; file values
override defaults. The config path falls back to the QMKGF_CONFIG
environment variable when no --config flag is given.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

from .errors import ValidationError
from .fusion import FusionConfig
from .subgraphs import PageRankConfig

ENV_CONFIG = "QMKGF_CONFIG"


@dataclass
class PipelineConfig:
    K: int = 10                     # one-hop / multi-hop / pagerank subgraph size
    k: int = 10                     # rerank cutoff
    per_item_k: int = 5             # chunks retrieved per expansion item
    heads: int = 32                 # attention heads in the reward model
    dim: int = 64                   # embedding / attention dimension
    damping: float = PageRankConfig.damping
    pagerank_max_iters: int = PageRankConfig.max_iters
    pagerank_tolerance: float = PageRankConfig.tolerance
    temperature: float = 0.0        # generation temperature
    strategy: str = FusionConfig.strategy
    tau: float | None = None        # fixed fusion threshold override
    seed: int = 0
    stub: bool = False
    service_url: str | None = None

    @property
    def pagerank(self) -> PageRankConfig:
        return PageRankConfig(self.damping, self.pagerank_max_iters, self.pagerank_tolerance)

    @property
    def fusion(self) -> FusionConfig:
        """A fixed threshold when ``tau`` is set, else one derived per subgraph set."""
        return FusionConfig(self.strategy, self.tau)

    def validate(self) -> None:
        for key in ("K", "k", "per_item_k", "heads", "dim"):
            if getattr(self, key) < 1:
                raise ValidationError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.stub and self.dim % self.heads:
            raise ValidationError(f"heads ({self.heads}) must divide dim ({self.dim})")
        _ = self.pagerank, self.fusion  # their constructors check the stage settings
        if not 0.0 <= self.temperature < math.inf:
            raise ValidationError(f"temperature must be finite and >= 0, got {self.temperature!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not self.stub and self.service_url is None:
            raise ValidationError("service_url required unless stub mode is on")


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}


def parse_config_file(path: str) -> dict:
    """Parse "key = value" lines; '#' starts a comment, blank lines skipped."""
    values: dict = {}
    with open(path, "rb") as fh:
        for lineno, data in enumerate(fh, start=1):
            try:
                raw = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: not valid UTF-8: {exc.reason}") from exc
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
