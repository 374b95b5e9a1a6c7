import pytest

from qmkgf.config import ENV_CONFIG, PipelineConfig, load_config, parse_config_file
from qmkgf.errors import ValidationError
from qmkgf.fusion import STRATEGIES


def test_shipped_defaults():
    cfg = PipelineConfig()
    assert cfg.K == 10
    assert cfg.heads == 32
    assert cfg.damping == 0.85
    assert cfg.temperature == 0.0
    assert cfg.k == 10
    assert cfg.per_item_k == 5
    assert cfg.strategy == "rm_fusion"
    assert cfg.tau is None


def test_parse_config_file(tmp_path):
    path = tmp_path / "qmkgf.conf"
    path.write_text(
        """
        # retrieval settings
        K = 5
        k = 20
        damping = 0.9   # pagerank
        strategy = all_fusion
        tau = 0.25
        stub = true
        """
    )
    values = parse_config_file(str(path))
    assert values == {
        "K": 5,
        "k": 20,
        "damping": 0.9,
        "strategy": "all_fusion",
        "tau": 0.25,
        "stub": True,
    }


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("mystery = 1\n")
    with pytest.raises(ValidationError):
        parse_config_file(str(path))


def test_parse_config_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("K = many\n")
    with pytest.raises(ValidationError):
        parse_config_file(str(path))


def test_load_config_flag_overrides_file(tmp_path):
    path = tmp_path / "qmkgf.conf"
    path.write_text("K = 5\nstub = true\n")
    cfg = load_config(str(path), {"K": 7})
    assert cfg.K == 7
    assert cfg.stub is True


def test_load_config_env_fallback(tmp_path, monkeypatch):
    path = tmp_path / "qmkgf.conf"
    path.write_text("k = 3\nstub = true\n")
    monkeypatch.setenv(ENV_CONFIG, str(path))
    cfg = load_config(None, {})
    assert cfg.k == 3


def test_validate_requires_stub_or_service_url(monkeypatch):
    monkeypatch.delenv(ENV_CONFIG, raising=False)
    with pytest.raises(ValidationError):
        load_config(None, {})
    cfg = load_config(None, {"stub": True})
    assert cfg.stub
    cfg = load_config(None, {"service_url": "http://localhost:9999"})
    assert cfg.service_url == "http://localhost:9999"


def test_validate_heads_must_divide_dim():
    with pytest.raises(ValidationError):
        load_config(None, {"stub": True, "dim": 10, "heads": 4})


def test_validate_tau_range():
    with pytest.raises(ValidationError):
        load_config(None, {"stub": True, "tau": 1.5})


def test_validate_accepts_exactly_the_fusion_strategies():
    for name in STRATEGIES:
        assert load_config(None, {"stub": True, "strategy": name}).strategy == name
    with pytest.raises(ValidationError):
        load_config(None, {"stub": True, "strategy": "max_fusion"})
