"""Configuration file parsing and validation tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        # a 0.1 s clip yields (1600 - 512) // 256 + 1 = 5 STFT frames
        cfg = parse_config_text("hidden_dim = 1\nlatent_dim = 1\nn_speech = 1\n"
                                "n_noise = 1\nn_eval = 1\nduration_s = 0.1\nsegment_len = 5")
        assert (cfg.hidden_dim, cfg.n_eval, cfg.duration_s) == (1, 1, 0.1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            parse_config_text("seed = -1")

    def test_negative_seed_override_rejected(self):
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            RunConfig().with_seed(-1)

    def test_patience_must_undercut_epochs(self):
        with pytest.raises(ValueError, match="^patience must be smaller than max_epochs"):
            parse_config_text("max_epochs = 10\npatience = 10")


class TestSegmentFitsClip:
    """With `data_dir` empty, one synthesized clip of `duration_s` must yield
    at least `segment_len` STFT frames, (round(duration_s * 16000) - 512) // 256 + 1."""

    @pytest.mark.parametrize("text", [
        "duration_s = 0.7\nsegment_len = 42",
        "duration_s = 0.7\ndata_dir = /data",          # WAV clips are not synthesized
        "duration_s = 2.8e14"],                          # 4.48e18 samples, under 2**62
        ids=["longest-segment", "data-dir", "under-sample-cap"])
    def test_accepted(self, text):
        parse_config_text(text)

    @pytest.mark.parametrize("text, message", [
        ("duration_s = 1e307", "duration_s must give fewer than 2**62 samples at 16000 Hz, "
                               "got 1e+307"),
        ("duration_s = 2.9e14", "duration_s must give fewer than 2**62 samples at 16000 Hz, "
                                "got 290000000000000.0"),
        ("duration_s = 1e307\ndata_dir = /data", "duration_s must give fewer than 2**62 "
                                                 "samples at 16000 Hz, got 1e+307")],
        ids=["huge-duration", "over-sample-cap", "data-dir"])
    def test_overflowing_duration_rejected(self, text, message):
        # the sample count round(duration_s * 16000) must fit, even when the
        # clips come from data_dir: evaluation still synthesizes its clips
        with pytest.raises(ValueError) as info:
            parse_config_text(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", [
        ("duration_s = 0.7", "segment_len must not exceed the 42 frames of one "
                             "duration_s = 0.7 clip, got 64"),
        ("duration_s = 0.7\nsegment_len = 43", "segment_len must not exceed the 42 frames "
                                               "of one duration_s = 0.7 clip, got 43"),
        ("duration_s = 0.01\nsegment_len = 1", "segment_len must not exceed the 0 frames "
                                               "of one duration_s = 0.01 clip, got 1")],
        ids=["default-segment", "one-frame-over", "clip-shorter-than-a-frame"])
    def test_rejected_naming_both_keys(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_config_text(text)
        assert str(info.value) == message


class TestLossAndSnrValues:
    @pytest.mark.parametrize("text, message", [
        ("beta = -1", "beta must be finite and >= 0, got -1.0"),
        ("lambda_od = nan", "lambda_od must be finite and >= 0, got nan"),
        ("lambda_d = inf", "lambda_d must be finite and >= 0, got inf"),
        ("lr = inf", "lr must be finite and positive, got inf"),
        ("snr_eval = nan", "snr_eval must be finite, got nan"),
        ("snr_lo = -inf", "snr_lo must be finite, got -inf"),
        ("snr_hi = inf", "snr_hi must be finite, got inf"),
        ("snr_lo = 10\nsnr_hi = -10", "snr_lo must not exceed snr_hi, got 10.0 > -10.0")],
        ids=["beta", "lambda_od", "lambda_d", "lr", "snr_eval", "snr_lo", "snr_hi", "snr_order"])
    def test_rejected_naming_key(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_config_text(text)
        assert str(info.value) == message

    def test_edge_values_accepted(self):
        cfg = parse_config_text("beta = 0\nlambda_od = 0\nsnr_lo = 3\nsnr_hi = 3\n"
                                "snr_eval = -30")
        assert (cfg.beta, cfg.snr_lo, cfg.snr_hi, cfg.snr_eval) == (0.0, 3.0, 3.0, -30.0)


DESK_TEXT = (Path(__file__).resolve().parent.parent / "configs" / "desk.cfg").read_text()


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_fuzz_edited_desk_config_parses_or_raises_value_error(data):
    """Up to three splices into `configs/desk.cfg` (delete a few characters,
    insert a few): parsing returns a `RunConfig` or raises `ValueError`."""
    text = DESK_TEXT
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        pos = data.draw(st.integers(0, len(text)), label="position")
        cut = data.draw(st.integers(0, 4), label="cut")
        insert = data.draw(st.text(st.sampled_from("0123456789-+.eE_=#naifx \n\t\x00\u00e9"),
                                   max_size=4), label="insert")
        text = text[:pos] + insert + text[pos + cut:]
    try:
        parse_config_text(text)
    except ValueError:
        pass


def test_config_does_not_import_pipeline():
    """The training loops depend on the config, never the other way round."""
    src = str(Path(pvae.__file__).resolve().parent.parent)
    code = "import sys, pvae.config; print('pvae.pipeline' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"
