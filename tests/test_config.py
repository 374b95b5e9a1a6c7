import pytest

from qmkgf.cli import main
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
    with pytest.raises(ValidationError, match=r"^heads \(4\) must divide dim \(10\)$"):
        load_config(None, {"stub": True, "dim": 10, "heads": 4})


@pytest.mark.parametrize("key", ["K", "k", "per_item_k", "heads", "dim"])
def test_validate_names_the_size_that_is_below_one(key):
    with pytest.raises(ValidationError, match=rf"^{key} must be >= 1, got 0$"):
        load_config(None, {"stub": True, key: 0})


def test_validate_tau_range():
    with pytest.raises(ValidationError):
        load_config(None, {"stub": True, "tau": 1.5})


def test_validate_accepts_exactly_the_fusion_strategies():
    for name in STRATEGIES:
        assert load_config(None, {"stub": True, "strategy": name}).strategy == name
    with pytest.raises(ValidationError):
        load_config(None, {"stub": True, "strategy": "max_fusion"})


NON_FINITE_MESSAGES = {
    "pagerank_tolerance": "tolerance must be finite and > 0",
    "temperature": "temperature must be finite and >= 0",
}


@pytest.mark.parametrize("key, value", [
    ("pagerank_tolerance", "nan"),
    ("pagerank_tolerance", "inf"),
    ("pagerank_tolerance", "-inf"),
    ("temperature", "nan"),
    ("temperature", "inf"),
])
def test_validate_rejects_non_finite_tolerance_and_temperature(tmp_path, capsys, key, value):
    message = NON_FINITE_MESSAGES[key]
    with pytest.raises(ValidationError, match=message):
        load_config(None, {"stub": True, key: float(value)})
    path = tmp_path / "qmkgf.conf"
    path.write_text(f"{key} = {value}\n")
    with pytest.raises(ValidationError, match=message):
        load_config(str(path), {"stub": True})
    # Config is checked before any input file is read.
    argv = ["build-kg", str(tmp_path / "corpus.jsonl"), str(tmp_path / "kg.jsonl"), "--stub",
            "--config", str(path)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_stage_configs_are_built_once_per_setting_and_checked_again_after_a_change():
    cfg = load_config(None, {"stub": True})
    cfg.damping, cfg.tau = 0.5, 0.25
    assert (cfg.pagerank.damping, cfg.fusion.tau) == (0.5, 0.25)
    cfg.tau = 0.0
    assert str(cfg.fusion.tau) == "0.0"
    cfg.tau = -0.0  # equal to 0.0, but traced as -0.0
    assert str(cfg.fusion.tau) == "-0.0"
    cfg.damping = 1.0
    with pytest.raises(ValidationError, match=r"^damping must be in \(0, 1\), got 1.0$"):
        cfg.validate()
    with pytest.raises(ValidationError, match="damping"):
        cfg.pagerank
    cfg.damping, cfg.strategy = 0.85, "max_fusion"
    assert cfg.pagerank.damping == 0.85
    with pytest.raises(ValidationError, match="unknown fusion strategy"):
        cfg.validate()
