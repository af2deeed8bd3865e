"""Training-loop, enhancement, and bundle round-trip tests.

These run real (tiny) training jobs: hidden width 8, latent 4, sub-second
clips. Trend assertions compare epoch-window means rather than demanding
monotonicity.
"""

import re

import numpy as np
import pytest
from oracles import elbo_loss
from test_parallel import set_cores

import pvae.autodiff as ad
from pvae.autodiff import NumericError, Tensor
from pvae.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from pvae.config import RunConfig
from pvae.datagen import mix_at_snr, synth_dataset
from pvae.diploss import LossWeights
from pvae.dsp import (FRAME_LEN, HOP, Spectrogram, Waveform, istft, lps, lps_to_magnitude,
                      stft, wiener_mask)
from pvae.nsvae import NsvaeModel
from pvae.pipeline import (CHUNK_FRAMES, ModelBundle, _run_training, enhance,
                           enhance_details, load_bundle, make_segments, pretrain_vae,
                           save_bundle, train_nsvae, waveform_to_lps,
                           write_training_log)
from pvae.vae import VaeModel, reparameterize


def tiny_cfg(**kw):
    base = dict(hidden_dim=8, latent_dim=4, max_epochs=12, patience=10,
                batch_size=4, lr=1e-3, seed=7, segment_len=16)
    base.update(kw)
    return RunConfig(**base)


ELBO = LossWeights()


def clips(kind, n, seed, dur=0.7):
    return synth_dataset(kind, n, dur, np.random.default_rng(seed))


def tiny_bundle(seed=0, hidden_dim=8, latent_dim=4):
    rng = np.random.default_rng(seed)
    cvae = VaeModel(input_dim=257, hidden_dim=hidden_dim, latent_dim=latent_dim,
                    role="speech", rng=rng, dtype=np.float32)
    nvae = VaeModel(input_dim=257, hidden_dim=hidden_dim, latent_dim=latent_dim,
                    role="noise", rng=rng, dtype=np.float32)
    ns = NsvaeModel(input_dim=257, hidden_dim=hidden_dim, latent_dim=latent_dim,
                    rng=rng, dtype=np.float32)
    return ModelBundle(cvae=cvae, nvae=nvae, nsvae=ns)


class TestSegments:
    def test_chop_and_drop_tail(self):
        seq = np.arange(10 * 3, dtype=float).reshape(10, 3)
        segs = make_segments([seq], 4)
        assert segs.shape == (2, 4, 3)
        np.testing.assert_array_equal(segs[0], seq[:4])
        np.testing.assert_array_equal(segs[1], seq[4:8])

    def test_multiple_sequences_pool(self):
        a = np.ones((8, 2))
        b = np.zeros((5, 2))
        assert make_segments([a, b], 4).shape == (3, 4, 2)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="segment"):
            make_segments([np.ones((3, 2))], 4)

    def test_waveform_to_lps_shape(self):
        w = Waveform(np.random.default_rng(0).standard_normal(4096) * 0.1)
        seq = waveform_to_lps(w)
        n = (4096 - FRAME_LEN) // HOP + 1
        assert seq.shape == (n, 257)


class _ConstLossModel:
    """One-parameter stand-in whose loss never depends on the data."""

    def __init__(self):
        self.w = Tensor(np.ones(3), requires_grad=True)

    def named_parameters(self):
        return {"w": self.w}


class TestLoopMechanics:
    def test_early_stop_after_patience_flat_epochs(self):
        model = _ConstLossModel()

        def batch_loss(idx, rng):
            return ad.mul(ad.tsum(ad.square(model.w)), 0.0)

        cfg = tiny_cfg(max_epochs=50, patience=3)
        log = _run_training(model, batch_loss, np.zeros((8, 1, 1)), cfg)
        # epoch 1 improves on +inf, then exactly `patience` flat epochs
        assert len(log) == 1 + cfg.patience

    def test_runs_all_epochs_when_improving(self):
        model = _ConstLossModel()

        def batch_loss(idx, rng):
            return ad.tsum(ad.square(model.w))

        cfg = tiny_cfg(max_epochs=6, patience=5, lr=1e-2)
        log = _run_training(model, batch_loss, np.zeros((8, 1, 1)), cfg)
        assert len(log) == 6
        assert log[-1][2] < log[0][2]


class TestPretrain:
    def test_loss_trend_decreases(self):
        cfg = tiny_cfg(max_epochs=15, patience=14)
        model, log = pretrain_vae("speech", clips("speech", 6, 11), cfg, ELBO)
        train = [r[1] for r in log]
        assert np.mean(train[-3:]) < np.mean(train[:3])

    def test_log_shape_and_best_val_restored(self):
        cfg = tiny_cfg()
        model, log = pretrain_vae("noise", clips("noise", 6, 12), cfg, ELBO)
        assert all(len(r) == 3 for r in log)
        epochs = [r[0] for r in log]
        assert epochs == list(range(1, len(log) + 1))
        assert model.dtype == np.float32

    def test_default_weights_match_reference_elbo_run_bitwise(self):
        """With beta=1 and both lambdas 0 the objective IS the ELBO, so a
        run under the configurable loss must equal a plain-ELBO run to the
        last bit."""
        data = clips("speech", 5, 13)
        cfg = tiny_cfg(max_epochs=4, patience=3)
        m_dip, log_dip = pretrain_vae("speech", data, cfg, LossWeights(beta=1.0))

        segments = make_segments([waveform_to_lps(w) for w in data],
                                 cfg.segment_len).astype(np.float32)
        m_ref = VaeModel(input_dim=257, hidden_dim=8, latent_dim=4,
                         role="speech", rng=np.random.default_rng(cfg.seed),
                         dtype=np.float32)
        log_ref = _run_training(
            m_ref, lambda idx, rng: elbo_loss(m_ref, segments[idx], rng),
            segments, cfg)

        assert log_dip == log_ref
        p_dip, p_ref = m_dip.named_parameters(), m_ref.named_parameters()
        for name in p_dip:
            assert p_dip[name].data.tobytes() == p_ref[name].data.tobytes()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            pretrain_vae("speech", [], tiny_cfg(), ELBO)

    def test_same_seed_rerun_bit_identical(self):
        data = clips("speech", 5, 14)
        cfg = tiny_cfg(max_epochs=3, patience=2)
        m1, log1 = pretrain_vae("speech", data, cfg, ELBO)
        m2, log2 = pretrain_vae("speech", data, cfg, ELBO)
        assert log1 == log2
        for n, p in m1.named_parameters().items():
            assert p.data.tobytes() == m2.named_parameters()[n].data.tobytes()


def make_triples(n, seed):
    rng = np.random.default_rng(seed)
    speech = synth_dataset("speech", n, 0.7, rng)
    noise = synth_dataset("noise", n, 0.7, rng)
    return [mix_at_snr(s, v, 0.0, rng) for s, v in zip(speech, noise)]


class TestTrainNsvae:
    def pretrained_pair(self, seed=21):
        cfg = tiny_cfg(max_epochs=2, patience=1, seed=seed)
        cvae, _ = pretrain_vae("speech", clips("speech", 4, seed), cfg, ELBO)
        nvae, _ = pretrain_vae("noise", clips("noise", 4, seed + 1), cfg, ELBO)
        return cvae, nvae

    def test_loss_trend_and_frozen_targets(self):
        cvae, nvae = self.pretrained_pair()
        before = {("c", n): p.data.copy() for n, p in cvae.named_parameters().items()}
        before.update({("n", n): p.data.copy() for n, p in nvae.named_parameters().items()})

        cfg = tiny_cfg(max_epochs=10, patience=9)
        ns, log = train_nsvae(cvae, nvae, make_triples(4, 31), cfg)
        train = [r[1] for r in log]
        assert np.mean(train[-3:]) < np.mean(train[:3])

        after = {("c", n): p.data for n, p in cvae.named_parameters().items()}
        after.update({("n", n): p.data for n, p in nvae.named_parameters().items()})
        for key, arr in before.items():
            assert arr.tobytes() == after[key].tobytes()

    def test_latent_dim_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        cvae = VaeModel(input_dim=257, hidden_dim=8, latent_dim=4,
                        role="speech", rng=rng, dtype=np.float32)
        nvae = VaeModel(input_dim=257, hidden_dim=8, latent_dim=6,
                        role="noise", rng=rng, dtype=np.float32)
        with pytest.raises(ValueError, match="latent"):
            train_nsvae(cvae, nvae, make_triples(2, 32), tiny_cfg())

    def test_empty_triples_rejected(self):
        cvae, nvae = self.pretrained_pair(23)
        with pytest.raises(ValueError, match="triples"):
            train_nsvae(cvae, nvae, [], tiny_cfg())

    def test_same_seed_rerun_log_identical(self):
        cvae, nvae = self.pretrained_pair(24)
        triples = make_triples(3, 33)
        cfg = tiny_cfg(max_epochs=3, patience=2)
        _, log1 = train_nsvae(cvae, nvae, triples, cfg)
        _, log2 = train_nsvae(cvae, nvae, triples, cfg)
        assert log1 == log2


class TestEnhance:
    def noisy(self, seed=41):
        rng = np.random.default_rng(seed)
        s = synth_dataset("speech", 1, 0.7, rng)[0]
        v = synth_dataset("noise", 1, 0.7, rng)[0]
        return mix_at_snr(s, v, 0.0, rng).mixture

    def test_output_length_matches_framing(self):
        bundle = tiny_bundle()
        noisy = self.noisy()
        out = enhance(bundle, noisy)
        n_frames = (len(noisy) - FRAME_LEN) // HOP + 1
        assert len(out) == (n_frames - 1) * HOP + FRAME_LEN

    def test_mask_strictly_inside_unit_interval(self):
        res = enhance_details(tiny_bundle(), self.noisy())
        assert np.all(res.mask > 0) and np.all(res.mask < 1)

    def test_output_spectrum_never_exceeds_noisy(self):
        noisy = self.noisy()
        res = enhance_details(tiny_bundle(), noisy)
        noisy_mag = np.abs(stft(noisy).frames)
        out_mag = np.abs(stft(noisy).frames * res.mask)
        assert np.all(out_mag <= noisy_mag)

    def test_deterministic_and_stateless_across_calls(self):
        bundle = tiny_bundle()
        a, b = self.noisy(41), self.noisy(42)
        first = enhance(bundle, b).samples
        enhance(bundle, a)                      # must not leak GRU state
        second = enhance(bundle, b).samples
        assert first.tobytes() == second.tobytes()

    def test_sampled_inference_differs_from_mean(self):
        bundle = tiny_bundle()
        noisy = self.noisy()
        mean_out = enhance(bundle, noisy)
        samp_out = enhance(bundle, noisy,
                           rng=np.random.default_rng(5))
        assert not np.array_equal(mean_out.samples, samp_out.samples)

    def test_latents_returned_per_frame(self):
        noisy = self.noisy()
        res = enhance_details(tiny_bundle(), noisy)
        n_frames = (len(noisy) - FRAME_LEN) // HOP + 1
        assert res.z_speech.shape == (n_frames, 4)
        assert res.z_noise.shape == (n_frames, 4)


def whole_clip(bundle, noisy, rng=None):
    """(samples, mask, z_speech, z_noise) of `nsvae.encode`, then `cvae.decode`
    and `nvae.decode`, each over the whole clip."""
    spec = stft(noisy)
    with ad.no_grad():
        qx, qv = bundle.nsvae.encode(lps(spec.frames).T)
        if rng is None:
            z_x, z_v = qx.mu, qv.mu
        else:
            z_x, z_v = reparameterize(qx, rng), reparameterize(qv, rng)
        x_mag = lps_to_magnitude(bundle.cvae.decode(z_x).mu.data.T)
        v_mag = lps_to_magnitude(bundle.nvae.decode(z_v).mu.data.T)
    mask = wiener_mask(x_mag, v_mag)
    return istft(Spectrogram(mask * spec.frames)).samples, mask, z_x.data, z_v.data


def clip_of(n_frames, seed=0):
    samples = np.random.default_rng(seed).standard_normal((n_frames - 1) * HOP + FRAME_LEN)
    return Waveform(0.1 * samples)


class TestChunkedEnhance:
    """`enhance_details` runs over chunks of `CHUNK_FRAMES` frames, its stacked
    products on the worker thread on two cores, and gives the bytes of a
    whole-clip call on one core and on two."""

    @pytest.fixture(scope="class")
    def bundles(self):
        return {"h64": tiny_bundle(6, hidden_dim=64, latent_dim=16),
                "wide": tiny_bundle(7, hidden_dim=512, latent_dim=128)}

    @pytest.mark.parametrize("width", ["h64", "wide"])
    @pytest.mark.parametrize("sampled", [False, True], ids=["mean", "sampled"])
    @pytest.mark.parametrize("n_frames", [1, CHUNK_FRAMES - 1, CHUNK_FRAMES, CHUNK_FRAMES + 1,
                                          3 * CHUNK_FRAMES + 8])
    def test_bytes_of_a_whole_clip_call(self, bundles, width, sampled, n_frames,
                                        monkeypatch, stage_threads):
        bundle, noisy = bundles[width], clip_of(n_frames, n_frames)
        expected = whole_clip(bundle, noisy, np.random.default_rng(3) if sampled else None)
        n_chunks = -(-n_frames // CHUNK_FRAMES)
        for cores, thread in ((1, "MainThread"), (2, "pvae-frames")):
            set_cores(monkeypatch, cores)
            stage_threads.clear()
            res = enhance_details(bundle, noisy, np.random.default_rng(3) if sampled else None)
            got = (res.enhanced.samples, res.mask, res.z_speech, res.z_noise)
            assert [a.tobytes() == b.tobytes() for a, b in zip(got, expected)] == [True] * 4
            assert len(stage_threads) == 3 * n_chunks
            assert {name.split("_")[0] for name, _ in stage_threads} == {thread}

    def test_means_skip_the_variance_heads(self):
        """NaN variance heads leave posterior-mean enhancement as it was; the
        sampled path still reads the encoder's variances."""
        bundle, noisy = tiny_bundle(10), clip_of(CHUNK_FRAMES + 5)
        expected = enhance(bundle, noisy).samples
        for head in (bundle.nsvae.head_logvar_x, bundle.nsvae.head_logvar_v,
                     bundle.cvae.dec_logvar, bundle.nvae.dec_logvar):
            head.weight.data = np.full_like(head.weight.data, np.nan)
        assert enhance(bundle, noisy).samples.tobytes() == expected.tobytes()
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="^encode frame 0: "):
            enhance(bundle, noisy, np.random.default_rng(0))

    @staticmethod
    def plant_overflow(feeder, layer, inputs, first):
        """Make `layer` overflow float32 first at a frame at or after `first`.
        Its bias and its weights but one, w[i, 0] = -2**e, become 0, so that
        its output column 0 is -inputs[:, i] * 2**e exactly: 0 after the ReLU
        until the product overflows. `feeder`, the ReLU layer that makes
        `inputs`, is scaled by a power of two, which scales them exactly, so
        that 2**e fits float32."""
        x = inputs.astype(np.float64)
        for i in range(x.shape[1]):
            before, during = x[:first, i].max(), x[first:first + CHUNK_FRAMES, i].max()
            power = np.floor(np.log2(during)) if during > 0 else -np.inf
            if 2.0 ** power > before:      # products overflow from inputs >= 2**power
                scale = 2.0 ** max(0.0, 1.0 - power)
                for p in (feeder.weight, feeder.bias):
                    p.data = (p.data * scale).astype(p.data.dtype)
                w = np.zeros_like(layer.weight.data)
                w[i, 0] = -(2.0 ** 128) / (2.0 ** power * scale)
                layer.weight.data, layer.bias.data = w, np.zeros_like(layer.bias.data)
                return
        raise AssertionError("no input grows in the second chunk")

    @pytest.mark.parametrize("where", ["trunk", "speech decoder", "noise decoder"])
    def test_numeric_error_in_a_worker_stage(self, where, monkeypatch, stage_threads):
        """An overflow in the trunk (a chunk ahead of the recurrences) or in a
        decoder FC layer (behind them) at a frame of the second chunk gives the
        message of a whole-clip call, and no stage outlives the call."""
        bundle = tiny_bundle(8, hidden_dim=64, latent_dim=16)
        rng = np.random.default_rng(41)
        noisy = mix_at_snr(synth_dataset("speech", 1, 3.0, rng)[0],
                           synth_dataset("noise", 1, 3.0, rng)[0], 0.0, rng).mixture
        quiet = noisy.samples.copy()
        quiet[:(CHUNK_FRAMES + 6) * HOP] *= 0.01
        noisy = Waveform(quiet)
        y = Tensor(lps(stft(noisy).frames).T.astype(np.float32))
        with ad.no_grad():
            if where == "trunk":
                feeder, layer = bundle.nsvae.trunk.fc[:2]
                inputs = feeder(y, 1)
            else:
                qx, qv = bundle.nsvae.encode(y.data)
                vae, z = (bundle.cvae, qx.mu) if where == "speech decoder" else (bundle.nvae, qv.mu)
                feeder, layer = vae.dec_fc[:2]
                inputs = feeder(vae.dec_gru(z, 1), 1)
        self.plant_overflow(feeder, layer, inputs.data, CHUNK_FRAMES)

        with np.errstate(over="ignore"), pytest.raises(NumericError) as whole:
            whole_clip(bundle, noisy)
        frame = int(re.match(r"(?:en|de)code frame (\d+): linear_seq: ", str(whole.value))[1])
        assert CHUNK_FRAMES <= frame < 2 * CHUNK_FRAMES
        for cores in (1, 2):
            set_cores(monkeypatch, cores)
            stage_threads.clear()
            with np.errstate(over="ignore"), pytest.raises(NumericError) as chunked:
                enhance_details(bundle, noisy)
            assert str(chunked.value) == str(whole.value)
            assert stage_threads and all(future.done() for _, future in stage_threads)


class TestBundleIo:
    def test_round_trip_bit_exact(self, tmp_path):
        bundle = tiny_bundle(3)
        path = tmp_path / "b.ckpt"
        save_bundle(path, bundle)
        loaded = load_bundle(path)
        for attr in ("cvae", "nvae", "nsvae"):
            p1 = getattr(bundle, attr).named_parameters()
            p2 = getattr(loaded, attr).named_parameters()
            assert set(p1) == set(p2)
            for n in p1:
                assert p1[n].data.tobytes() == p2[n].data.tobytes()
        assert loaded.cvae.role == "speech" and loaded.nvae.role == "noise"
        assert loaded.cvae_weights == bundle.cvae_weights

    def test_round_trip_preserves_enhancement_bytes(self, tmp_path):
        bundle = tiny_bundle(4)
        rng = np.random.default_rng(50)
        noisy = mix_at_snr(synth_dataset("speech", 1, 0.7, rng)[0],
                           synth_dataset("noise", 1, 0.7, rng)[0], 0.0, rng).mixture
        save_bundle(tmp_path / "b.ckpt", bundle)
        out1 = enhance(bundle, noisy).samples
        out2 = enhance(load_bundle(tmp_path / "b.ckpt"), noisy).samples
        assert out1.tobytes() == out2.tobytes()

    def test_latent_dim_disagreement_rejected(self):
        rng = np.random.default_rng(0)
        cvae = VaeModel(input_dim=257, hidden_dim=8, latent_dim=4,
                        role="speech", rng=rng, dtype=np.float32)
        nvae = VaeModel(input_dim=257, hidden_dim=8, latent_dim=4,
                        role="noise", rng=rng, dtype=np.float32)
        ns = NsvaeModel(input_dim=257, hidden_dim=8, latent_dim=6, rng=rng,
                        dtype=np.float32)
        with pytest.raises(ValueError, match="latent"):
            ModelBundle(cvae=cvae, nvae=nvae, nsvae=ns)

    def test_role_mixup_rejected(self):
        rng = np.random.default_rng(0)
        mk = lambda role: VaeModel(input_dim=257, hidden_dim=8, latent_dim=4,
                                   role=role, rng=rng, dtype=np.float32)
        ns = NsvaeModel(input_dim=257, hidden_dim=8, latent_dim=4, rng=rng,
                        dtype=np.float32)
        with pytest.raises(ValueError, match="speech"):
            ModelBundle(cvae=mk("noise"), nvae=mk("noise"), nsvae=ns)


class TestBundleErrors:
    """A malformed bundle raises `CheckpointError` naming the config section
    or the full tensor name."""

    def edited(self, tmp_path, edit):
        path = tmp_path / "b.ckpt"
        save_bundle(path, tiny_bundle(5))
        config, tensors = load_checkpoint(path)
        edit(config, tensors)
        save_checkpoint(path, config, tensors)
        return path

    def test_parameter_names_are_prefixed_by_model(self):
        bundle = tiny_bundle()
        assert list(bundle.named_parameters()) == [
            f"{prefix}.{name}" for prefix, model in
            (("cvae", bundle.cvae), ("nvae", bundle.nvae), ("nsvae", bundle.nsvae))
            for name in model.named_parameters()]

    @pytest.mark.parametrize("edit, message", [
        (lambda config: config.pop("nsvae"), r"^config: no 'nsvae' section$"),
        (lambda config: config["cvae"].pop("role"), r"^config: 'cvae' section lacks \['role'\]$"),
    ], ids=["no-section", "no-key"])
    def test_model_section_named(self, tmp_path, edit, message):
        path = self.edited(tmp_path, lambda config, _: edit(config))
        with pytest.raises(CheckpointError, match=message):
            load_bundle(path)

    def test_unknown_loss_weight_named(self, tmp_path):
        path = self.edited(tmp_path, lambda config, _: config["cvae_weights"].update(gamma=1.0))
        with pytest.raises(CheckpointError, match="^config: 'cvae_weights' section: .*gamma"):
            load_bundle(path)

    def test_wrong_shape_names_full_tensor(self, tmp_path):
        def edit(_, tensors):
            tensors["nvae.enc.fc0.weight"] = tensors["nvae.enc.fc0.weight"][:-1]

        with pytest.raises(CheckpointError,
                           match=r"^tensor nvae\.enc\.fc0\.weight: shape \(256, 8\)"):
            load_bundle(self.edited(tmp_path, edit))

    def test_missing_tensor_names_full_tensor(self, tmp_path):
        path = self.edited(tmp_path, lambda _, tensors: tensors.pop("cvae.enc.mu.bias"))
        with pytest.raises(CheckpointError, match=r"missing \['cvae\.enc\.mu\.bias'\]"):
            load_bundle(path)


class TestTrainingLog:
    def test_csv_header_and_round_trip(self, tmp_path):
        log = [(1, 1.5, 2.5), (2, 1.25, 2.25)]
        path = tmp_path / "log.csv"
        write_training_log(path, log)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        parsed = [line.split(",") for line in lines[1:]]
        assert [(int(e), float(t), float(v)) for e, t, v in parsed] == log
