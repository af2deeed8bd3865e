"""Configuration file parsing and validation tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pvae
from pvae.config import RunConfig, load_config, parse_config_text
from pvae.diploss import LossWeights


class TestDefaults:
    def test_full_scale_values(self):
        cfg = RunConfig()
        assert (cfg.hidden_dim, cfg.latent_dim) == (512, 128)
        assert (cfg.max_epochs, cfg.patience, cfg.batch_size) == (500, 20, 128)
        assert cfg.lr == 1e-4 and cfg.segment_len == 64
        assert (cfg.beta, cfg.lambda_od, cfg.lambda_d) == (1.0, 0.0, 0.0)
        assert (cfg.snr_lo, cfg.snr_hi) == (-10.0, 15.0)

    def test_loss_weights_mapping(self):
        cfg = RunConfig(beta=0.0, lambda_od=1e4, lambda_d=1e2)
        assert cfg.loss_weights() == LossWeights(0.0, 1e4, 1e2)

    def test_with_seed(self):
        assert RunConfig().with_seed(9).seed == 9


class TestParsing:
    def test_keys_comments_blanks(self):
        cfg = parse_config_text("""
            # desk topology
            hidden_dim = 64
            latent_dim = 16   # inline comment
            lr = 5e-4

            seed = 3
        """)
        assert cfg.hidden_dim == 64 and cfg.latent_dim == 16
        assert cfg.lr == 5e-4 and cfg.seed == 3
        assert cfg.max_epochs == 500          # untouched default

    def test_string_value(self):
        assert parse_config_text("data_dir = /tmp/d").data_dir == "/tmp/d"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("hidden = 64")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2")

    def test_bad_int_rejected(self):
        with pytest.raises(ValueError, match="bad int"):
            parse_config_text("hidden_dim = sixty-four")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("hidden_dim 64")

    def test_error_names_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("seed = 1\nwhat = 64")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("hidden_dim = 32\nbeta = 0.0\n")
        cfg = load_config(path)
        assert cfg.hidden_dim == 32 and cfg.beta == 0.0


class TestTrainingValues:
    def test_defaults_valid(self):
        cfg = parse_config_text("")
        assert (cfg.max_epochs, cfg.patience, cfg.batch_size) == (500, 20, 128)
        assert cfg.lr == 1e-4 and cfg.segment_len == 64

    @pytest.mark.parametrize("key, value", [
        ("max_epochs", "0"), ("patience", "0"), ("batch_size", "0"),
        ("lr", "0.0"), ("segment_len", "0"), ("val_fraction", "1.0"),
        ("lr", "nan")])
    def test_bad_values_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must"):
            parse_config_text(f"{key} = {value}")

    @pytest.mark.parametrize("key, value", [
        ("hidden_dim", "0"), ("latent_dim", "0"), ("n_speech", "0"), ("n_noise", "0"),
        ("n_eval", "0"), ("hidden_dim", "-3"), ("duration_s", "0.0"), ("duration_s", "-1.5"),
        ("duration_s", "inf"), ("duration_s", "nan")])
    def test_bad_topology_and_data_values_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must"):
            parse_config_text(f"{key} = {value}")

    def test_smallest_topology_and_data_values_accepted(self):
        cfg = parse_config_text("hidden_dim = 1\nlatent_dim = 1\nn_speech = 1\n"
                                "n_noise = 1\nn_eval = 1\nduration_s = 0.1")
        assert (cfg.hidden_dim, cfg.n_eval, cfg.duration_s) == (1, 1, 0.1)

    def test_patience_must_undercut_epochs(self):
        with pytest.raises(ValueError, match="^patience must be smaller than max_epochs"):
            parse_config_text("max_epochs = 10\npatience = 10")


def test_config_does_not_import_pipeline():
    """The training loops depend on the config, never the other way round."""
    src = str(Path(pvae.__file__).resolve().parent.parent)
    code = "import sys, pvae.config; print('pvae.pipeline' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"
