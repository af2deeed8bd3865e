"""Command-line integration tests on a micro configuration.

Every run here uses width 8 / latent 4, 2 epochs, and sub-second clips so
the full command chain stays fast; the desk-scale experiment lives in the
acceptance suite.
"""

import json
import wave

import numpy as np
import pytest

import pvae.checkpoint
import pvae.cli
from pvae.checkpoint import save_checkpoint, save_vae
from pvae.cli import MIN_EVAL_SAMPLES, evaluate_bundle, main
from pvae.datagen import mix_at_snr
from pvae.diploss import SETTINGS
from pvae.dsp import SAMPLE_RATE, Waveform, load_wav, save_wav
from pvae.nsvae import NsvaeModel
from pvae.pipeline import ModelBundle, enhance_details, load_bundle, save_bundle
from pvae.vae import VaeModel

MICRO_CFG = """
hidden_dim = 8
latent_dim = 4
max_epochs = 2
patience = 1
batch_size = 4
lr = 1e-3
segment_len = 16
n_speech = 3
n_noise = 3
n_eval = 2
duration_s = 0.7
seed = 5
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "micro.cfg"
    path.write_text(MICRO_CFG)
    return str(path)


def run(*argv):
    return main(list(argv))


def frame_rate(path):
    with wave.open(str(path), "rb") as reader:
        return reader.getframerate()


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert run() == 1

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run("synth-data", "--nope", str(tmp_path)) == 1

    def test_missing_required_flag_is_usage_error(self, tmp_path):
        assert run("pretrain", "--out", str(tmp_path)) == 1

    def test_runtime_failure_is_two(self, tmp_path):
        missing = str(tmp_path / "nope.ckpt")
        wav = str(tmp_path / "x.wav")
        assert run("enhance", "--bundle", missing, "--in", wav,
                   "--out", str(tmp_path / "y.wav")) == 2

    def test_bad_settings_is_usage_error(self, cfg_file, tmp_path):
        assert run("ablation", "--config", cfg_file, "--settings", "9",
                   "--out", str(tmp_path / "a")) == 1
        assert run("ablation", "--config", cfg_file, "--settings", "x",
                   "--out", str(tmp_path / "a")) == 1

    def test_repeated_setting_is_usage_error(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "a"
        assert run("ablation", "--config", cfg_file, "--settings", "3,1,3",
                   "--out", str(out)) == 1
        assert "repeats setting 3" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_file_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense_key = 1\n")
        assert run("synth-data", "--config", str(bad),
                   "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("source", ["file", "flag"])
    def test_negative_seed_rejected_before_manifest(self, tmp_path, capsys, source):
        cfg = tmp_path / "micro.cfg"
        cfg.write_text(MICRO_CFG.replace("seed = 5", "seed = -1") if source == "file"
                       else MICRO_CFG)
        flag = ["--seed", "-1"] if source == "flag" else []
        out = tmp_path / "pre"
        assert run("pretrain", "--role", "speech", "--config", str(cfg), *flag,
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not out.exists()

    def test_segment_longer_than_clip_rejected_before_manifest(self, tmp_path, capsys):
        cfg = tmp_path / "long.cfg"
        cfg.write_text(MICRO_CFG.replace("segment_len = 16", "segment_len = 64"))
        out = tmp_path / "abl"
        assert run("ablation", "--config", str(cfg), "--settings", "1",
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == ("error: segment_len must not exceed the 42 frames "
                                           "of one duration_s = 0.7 clip, got 64\n")
        assert not out.exists()

    def test_overflowing_duration_rejected_before_manifest(self, tmp_path, capsys):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(MICRO_CFG.replace("duration_s = 0.7", "duration_s = 1e307")
                       .replace("n_speech = 3", "n_speech = 1").replace("n_noise = 3", "n_noise = 1"))
        out = tmp_path / "data"
        assert run("synth-data", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == ("error: duration_s must give fewer than 2**62 "
                                           "samples at 16000 Hz, got 1e+307\n")
        assert not out.exists()


class TestSynthData:
    def test_writes_wavs_and_manifest(self, cfg_file, tmp_path):
        out = tmp_path / "data"
        assert run("synth-data", "--config", cfg_file, "--out", str(out)) == 0
        speech = sorted((out / "speech").glob("*.wav"))
        noise = sorted((out / "noise").glob("*.wav"))
        assert len(speech) == 3 and len(noise) == 3
        assert frame_rate(speech[0]) == SAMPLE_RATE
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth-data"
        assert manifest["seed"] == 5
        assert manifest["config"]["hidden_dim"] == 8
        assert "package" in manifest["versions"]

    def test_two_runs_byte_identical(self, cfg_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("synth-data", "--config", cfg_file, "--out", str(a)) == 0
        assert run("synth-data", "--config", cfg_file, "--out", str(b)) == 0
        for pa in sorted(a.rglob("*.wav")):
            pb = b / pa.relative_to(a)
            assert pa.read_bytes() == pb.read_bytes()

    def test_seed_flag_overrides_config(self, cfg_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("synth-data", "--config", cfg_file, "--out", str(a))
        run("synth-data", "--config", cfg_file, "--seed", "99", "--out", str(b))
        wa = (a / "speech" / "speech_000.wav").read_bytes()
        wb = (b / "speech" / "speech_000.wav").read_bytes()
        assert wa != wb
        assert json.loads((b / "manifest.json").read_text())["seed"] == 99


class TestTrainingChain:
    def test_full_chain(self, cfg_file, tmp_path):
        pre = tmp_path / "pre"
        assert run("pretrain", "--role", "speech", "--config", cfg_file,
                   "--out", str(pre)) == 0
        assert run("pretrain", "--role", "noise", "--config", cfg_file,
                   "--out", str(pre)) == 0
        ckpt_s = pre / "speech_vae.ckpt"
        ckpt_n = pre / "noise_vae.ckpt"
        assert ckpt_s.exists() and ckpt_n.exists()
        log = (pre / "speech_vae_log.csv").read_text().splitlines()
        assert log[0] == "epoch,train_loss,val_loss"
        assert len(log) >= 2

        ns = tmp_path / "ns"
        assert run("train-nsvae", "--config", cfg_file, "--cvae", str(ckpt_s),
                   "--nvae", str(ckpt_n), "--out", str(ns)) == 0
        bundle_path = ns / "bundle.ckpt"
        assert bundle_path.exists()
        bundle = load_bundle(bundle_path)
        assert bundle.cvae.latent_dim == 4

        data = tmp_path / "data"
        run("synth-data", "--config", cfg_file, "--out", str(data))
        noisy = next((data / "speech").glob("*.wav"))
        out_wav = tmp_path / "enhanced" / "clean.wav"
        assert run("enhance", "--bundle", str(bundle_path), "--in", str(noisy),
                   "--out", str(out_wav)) == 0
        assert frame_rate(out_wav) == SAMPLE_RATE and len(load_wav(out_wav)) > 0

        ev = tmp_path / "eval"
        assert run("evaluate", "--config", cfg_file, "--bundle",
                   str(bundle_path), "--out", str(ev)) == 0
        lines = (ev / "metrics.csv").read_text().splitlines()
        assert lines[0] == "clip_id,si_snr_noisy,si_snr_enhanced,lsd_noisy,lsd_enhanced"
        assert len(lines) == 1 + 2
        summary = json.loads((ev / "summary.json").read_text())
        assert summary["statistic"] == "mean +- standard error"
        assert "mean" in summary["si_snr_enhanced"]

        viz = tmp_path / "viz"
        assert run("latent-viz", "--config", cfg_file, "--bundle",
                   str(bundle_path), "--out", str(viz)) == 0
        assert (viz / "latents.csv").read_text().startswith("frame,label,pc1,pc2")
        assert (viz / "latents.svg").read_text().startswith("<svg")
        sep = json.loads((viz / "separation.json").read_text())
        assert set(sep) == {"centroid_distance", "mean_within_spread", "ratio"}

    def test_role_mismatch_rejected(self, cfg_file, tmp_path):
        pre = tmp_path / "pre"
        run("pretrain", "--role", "noise", "--config", cfg_file,
            "--out", str(pre))
        ckpt = str(pre / "noise_vae.ckpt")
        assert run("train-nsvae", "--config", cfg_file, "--cvae", ckpt,
                   "--nvae", ckpt, "--out", str(tmp_path / "ns")) == 2


class TestTrainNsvaeInputs:
    """Each pretrained checkpoint is read once and must hold a VAE of the
    flag's role; an error names the flag."""

    @pytest.fixture()
    def ckpts(self, tmp_path):
        rng = np.random.default_rng(1)
        paths = {name: str(tmp_path / f"{name}.ckpt")
                 for name in ("speech", "noise", "nsvae", "bundle")}
        bundle = ModelBundle(cvae=VaeModel(257, 8, 4, "speech", rng=rng, dtype=np.float32),
                             nvae=VaeModel(257, 8, 4, "noise", rng=rng, dtype=np.float32),
                             nsvae=NsvaeModel(257, 8, 4, rng=rng, dtype=np.float32))
        save_vae(paths["speech"], bundle.cvae, SETTINGS[2])
        save_vae(paths["noise"], bundle.nvae, SETTINGS[4])
        save_bundle(paths["bundle"], bundle)
        # a lone NSVAE, a kind that no command writes
        save_checkpoint(paths["nsvae"], dict(bundle.nsvae.config(), kind="nsvae"),
                        {name: p.data for name, p in bundle.nsvae.named_parameters().items()})
        return paths

    @pytest.mark.parametrize("cvae, nvae, message", [
        ("nsvae", "noise", "--cvae: expected a speech VAE checkpoint, got kind 'nsvae'"),
        ("noise", "noise", "--cvae: expected a speech VAE checkpoint, got role 'noise'"),
        ("speech", "nsvae", "--nvae: expected a noise VAE checkpoint, got kind 'nsvae'"),
        ("speech", "speech", "--nvae: expected a noise VAE checkpoint, got role 'speech'"),
        ("bundle", "noise", "--cvae: expected a speech VAE checkpoint, got kind 'bundle'"),
        ("speech", "bundle", "--nvae: expected a noise VAE checkpoint, got kind 'bundle'"),
    ], ids=["cvae-nsvae", "cvae-noise", "nvae-nsvae", "nvae-speech", "cvae-bundle", "nvae-bundle"])
    def test_wrong_checkpoint_names_flag(self, ckpts, cfg_file, tmp_path, capsys,
                                         cvae, nvae, message):
        assert run("train-nsvae", "--config", cfg_file, "--cvae", ckpts[cvae],
                   "--nvae", ckpts[nvae], "--out", str(tmp_path / "ns")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_each_file_read_once_with_its_weights(self, ckpts, cfg_file, tmp_path,
                                                  monkeypatch):
        reads = []
        load = pvae.checkpoint.load_checkpoint

        def counting(path):
            reads.append(str(path))
            return load(path)

        monkeypatch.setattr(pvae.checkpoint, "load_checkpoint", counting)
        out = tmp_path / "ns"
        assert run("train-nsvae", "--config", cfg_file, "--cvae", ckpts["speech"],
                   "--nvae", ckpts["noise"], "--out", str(out)) == 0
        assert reads == [ckpts["speech"], ckpts["noise"]]
        bundle = load_bundle(out / "bundle.ckpt")
        assert (bundle.cvae_weights, bundle.nvae_weights) == (SETTINGS[2], SETTINGS[4])


class TestAblation:
    def test_single_setting_run(self, cfg_file, tmp_path):
        out = tmp_path / "abl"
        assert run("ablation", "--config", cfg_file, "--settings", "3",
                   "--out", str(out)) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0].startswith("setting,beta,lambda_od,lambda_d,")
        assert len(lines) == 2
        assert lines[1].startswith("3,0.000000,")
        sdir = out / "setting_3"
        for name in ("bundle.ckpt", "metrics.csv", "latents.csv",
                     "latents.svg", "summary.json", "nsvae_log.csv",
                     "speech_vae_log.csv", "noise_vae_log.csv"):
            assert (sdir / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["settings"] == [3]


class TestDataDir:
    """`data_dir` replaces the synthesized training clips with the WAVs under
    its `speech/` and `noise/` directories."""

    def data_cfg(self, tmp_path, data):
        path = tmp_path / "data.cfg"
        path.write_text(MICRO_CFG + f"data_dir = {data}\n")
        return str(path)

    def test_ablation_reads_every_wav(self, cfg_file, tmp_path, monkeypatch):
        data = tmp_path / "data"
        assert run("synth-data", "--config", cfg_file, "--out", str(data)) == 0
        reads = []

        def recording(path):
            reads.append(path)
            return load_wav(path)

        monkeypatch.setattr(pvae.cli, "load_wav", recording)
        assert run("ablation", "--config", self.data_cfg(tmp_path, data),
                   "--settings", "3", "--out", str(tmp_path / "abl")) == 0
        assert sorted(reads) == sorted(data.rglob("*.wav"))

    def test_empty_speech_dir_is_runtime_error(self, cfg_file, tmp_path, capsys):
        data = tmp_path / "data"
        assert run("synth-data", "--config", cfg_file, "--out", str(data)) == 0
        for wav in (data / "speech").glob("*.wav"):
            wav.unlink()
        assert run("ablation", "--config", self.data_cfg(tmp_path, data),
                   "--settings", "3", "--out", str(tmp_path / "abl")) == 2
        assert capsys.readouterr().err == f"error: no WAV files under {data / 'speech'}\n"

    def run_with_bad_wav(self, cfg_file, tmp_path, capsys, write):
        data = tmp_path / "data"
        assert run("synth-data", "--config", cfg_file, "--out", str(data)) == 0
        bad = data / "noise" / "zz_bad.wav"
        write(bad)
        assert run("ablation", "--config", self.data_cfg(tmp_path, data),
                   "--settings", "3", "--out", str(tmp_path / "abl")) == 2
        return bad, capsys.readouterr().err

    def test_clip_shorter_than_a_frame_is_named(self, cfg_file, tmp_path, capsys):
        bad, err = self.run_with_bad_wav(cfg_file, tmp_path, capsys,
                                         lambda path: save_wav(path, Waveform(np.zeros(100))))
        assert err == f"error: {bad}: 100 samples, fewer than one 512-sample frame\n"

    def test_wav_format_error_is_named(self, cfg_file, tmp_path, capsys):
        def eight_khz(path):
            with wave.open(str(path), "wb") as writer:
                writer.setnchannels(1)
                writer.setsampwidth(2)
                writer.setframerate(8000)
                writer.writeframes(np.zeros(4000, dtype="<i2").tobytes())

        bad, err = self.run_with_bad_wav(cfg_file, tmp_path, capsys, eight_khz)
        assert err == f"error: {bad}: sample_rate: expected 16000 Hz, got 8000\n"


class TestEvaluateShortClips:
    """A clip must keep one STFT frame after both edges are trimmed."""

    def triple_and_result(self, n):
        rng = np.random.default_rng(n)
        bundle = ModelBundle(
            cvae=VaeModel(257, 8, 4, "speech", rng=rng, dtype=np.float32),
            nvae=VaeModel(257, 8, 4, "noise", rng=rng, dtype=np.float32),
            nsvae=NsvaeModel(257, 8, 4, rng=rng, dtype=np.float32))
        triple = mix_at_snr(Waveform(0.1 * rng.standard_normal(n)),
                            Waveform(0.1 * rng.standard_normal(n)), 0.0, rng)
        return triple, enhance_details(bundle, triple.mixture)

    @pytest.mark.parametrize("n, enhanced", [(560, 512), (800, 768)])
    def test_rejected_naming_clip_and_lengths(self, n, enhanced):
        triple, result = self.triple_and_result(n)
        assert len(result.enhanced) == enhanced
        with pytest.raises(ValueError, match=f"clip_000: enhanced clip has {enhanced} "
                                             f"samples, fewer than the 1024 "):
            evaluate_bundle([triple], [result])

    def test_minimum_length_evaluated(self):
        triple, result = self.triple_and_result(MIN_EVAL_SAMPLES)
        (row,) = evaluate_bundle([triple], [result])
        assert all(np.isfinite(v) for k, v in row.items() if k != "clip_id")
