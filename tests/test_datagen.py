"""Synthetic data and SNR mixing tests.

SNR oracle: achieved SNR is recomputed from the returned triple as
10*log10(P_speech / P_noise) and compared against the request.
"""

import hashlib

import numpy as np
import pytest

from pvae.datagen import MixTriple, mix_at_snr, synth_dataset
from pvae.dsp import SAMPLE_RATE, Waveform, lps, stft


def achieved_snr_db(triple):
    p_s = np.mean(triple.speech.samples ** 2)
    p_n = np.mean(triple.noise.samples ** 2)
    return 10.0 * np.log10(p_s / p_n)


def tone(freq, n=8000, amp=0.3):
    t = np.arange(n) / SAMPLE_RATE
    return Waveform(amp * np.sin(2 * np.pi * freq * t))


class TestMixAtSnr:
    @pytest.mark.parametrize("snr", [-10.0, -5.0, 0.0, 5.0, 15.0])
    def test_requested_snr_is_achieved(self, rng, snr):
        s = tone(220.0)
        n = Waveform(0.1 * rng.standard_normal(8000))
        triple = mix_at_snr(s, n, snr, rng)
        assert abs(achieved_snr_db(triple) - snr) < 0.01

    def test_zero_snr_means_equal_power(self, rng):
        s = tone(300.0)
        n = Waveform(0.25 * rng.standard_normal(8000))
        triple = mix_at_snr(s, n, 0.0, rng)
        p_s = np.mean(triple.speech.samples ** 2)
        p_n = np.mean(triple.noise.samples ** 2)
        assert abs(p_s - p_n) / p_s < 1e-6

    def test_ten_db_means_power_ratio_ten(self, rng):
        s = tone(300.0)
        n = Waveform(0.25 * rng.standard_normal(8000))
        triple = mix_at_snr(s, n, 10.0, rng)
        p_s = np.mean(triple.speech.samples ** 2)
        p_n = np.mean(triple.noise.samples ** 2)
        assert abs(p_s / p_n - 10.0) / 10.0 < 1e-6

    def test_mixture_is_sum(self, rng):
        triple = mix_at_snr(tone(150.0), Waveform(rng.standard_normal(9000)),
                            3.0, rng)
        np.testing.assert_allclose(
            triple.mixture.samples,
            triple.speech.samples + triple.noise.samples, atol=1e-12)

    def test_peak_limited_even_for_hot_input(self, rng):
        s = Waveform(0.98 * np.sin(2 * np.pi * 100 * np.arange(8000) / SAMPLE_RATE))
        n = Waveform(0.9 * rng.standard_normal(8000))
        triple = mix_at_snr(s, n, -10.0, rng)
        assert np.max(np.abs(triple.mixture.samples)) <= 0.99 + 1e-12
        # the limiter must not disturb the achieved SNR
        assert abs(achieved_snr_db(triple) + 10.0) < 0.01

    def test_quiet_mix_is_not_rescaled(self, rng):
        s = tone(200.0, amp=0.1)
        n = Waveform(0.05 * rng.standard_normal(8000))
        triple = mix_at_snr(s, n, 0.0, rng)
        np.testing.assert_array_equal(triple.speech.samples, s.samples)

    def test_noise_longer_than_speech_is_cropped(self, rng):
        s = tone(180.0, n=4000)
        n = Waveform(0.2 * rng.standard_normal(50000))
        triple = mix_at_snr(s, n, 0.0, rng)
        assert len(triple.noise) == 4000

    @pytest.mark.parametrize("snr", [-5.0, 0.0, 10.0])
    def test_noise_shorter_than_speech_is_looped(self, rng, snr):
        clip = 0.1 * rng.standard_normal(1500)
        triple = mix_at_snr(tone(180.0, n=4000), Waveform(clip), snr, rng)
        assert len(triple.noise) == 4000
        assert abs(achieved_snr_db(triple) - snr) < 1e-9
        # the noise is one scaled 4000-sample window of the clip played in a loop
        windows = np.lib.stride_tricks.sliding_window_view(np.tile(clip, 3), 4000)
        got = triple.noise.samples
        hits = [k for k, w in enumerate(windows)
                if np.allclose(got[0] / w[0] * w, got, rtol=1e-12, atol=0)]
        assert len(hits) == 1

    def test_long_enough_noise_keeps_its_bytes(self):
        # a synthetic triple whose noise outlasts its speech: the same draw
        # and the same bytes as before looping was added
        rng = np.random.default_rng(5)
        s = synth_dataset("speech", 1, 0.5, rng)[0]
        v = synth_dataset("noise", 1, 0.7, rng)[0]
        triple = mix_at_snr(s, v, 3.0, np.random.default_rng(9))
        digest = hashlib.sha256()
        for w in (triple.speech, triple.noise, triple.mixture):
            digest.update(w.samples.tobytes())
        assert digest.hexdigest() == (
            "5f7f711e7c1f4976a75e5babd41a4329a1bcf3b566068955be6f00fc46d56fe8")

    def test_empty_noise_rejected(self, rng):
        with pytest.raises(ValueError, match="noise clip is empty"):
            mix_at_snr(tone(180.0, n=4000), Waveform(np.zeros(0)), 0.0, rng)

    def test_zero_energy_speech_rejected(self, rng):
        with pytest.raises(ValueError, match="speech"):
            mix_at_snr(Waveform(np.zeros(4000)),
                       Waveform(0.1 * rng.standard_normal(4000)), 0.0, rng)

    def test_zero_energy_noise_rejected(self, rng):
        with pytest.raises(ValueError, match="noise"):
            mix_at_snr(tone(180.0, n=4000), Waveform(np.zeros(4000)), 0.0, rng)

    def test_deterministic_given_seed(self):
        s = tone(140.0)
        n = Waveform(np.random.default_rng(7).standard_normal(20000) * 0.2)
        a = mix_at_snr(s, n, 2.0, np.random.default_rng(42))
        b = mix_at_snr(s, n, 2.0, np.random.default_rng(42))
        np.testing.assert_array_equal(a.mixture.samples, b.mixture.samples)

    def test_triple_validates_consistency(self):
        s = tone(140.0, n=4000)
        with pytest.raises(ValueError, match="mixture"):
            MixTriple(speech=s, noise=s, mixture=s, snr_db=0.0)


def spectral_fraction_below(x, freq_hz):
    spec = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(len(x), d=1.0 / SAMPLE_RATE)
    return spec[freqs < freq_hz].sum() / spec.sum()


def mean_lps(w):
    return lps(stft(w).frames).mean(axis=1)


class TestSynthDataset:
    def test_counts_lengths_and_range(self, rng):
        clips = synth_dataset("speech", 5, 1.0, rng)
        assert len(clips) == 5
        for c in clips:
            assert len(c) == SAMPLE_RATE
            assert np.max(np.abs(c.samples)) <= 0.5 + 1e-12

    def test_deterministic_given_seed(self):
        a = synth_dataset("noise", 3, 0.5, np.random.default_rng(9))
        b = synth_dataset("noise", 3, 0.5, np.random.default_rng(9))
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.samples, cb.samples)

    def test_speech_energy_concentrated_low(self, rng):
        for c in synth_dataset("speech", 20, 1.0, rng):
            assert spectral_fraction_below(c.samples, 4000.0) >= 0.60

    def test_clips_are_distinct(self, rng):
        clips = synth_dataset("speech", 4, 0.5, rng)
        for i in range(len(clips)):
            for j in range(i + 1, len(clips)):
                assert not np.array_equal(clips[i].samples, clips[j].samples)

    def test_nearest_centroid_classifier_separates(self):
        rng = np.random.default_rng(1234)
        speech = synth_dataset("speech", 30, 1.0, rng)
        noise = synth_dataset("noise", 30, 1.0, rng)
        feats = np.array([mean_lps(c) for c in speech + noise])
        labels = np.array([0] * 30 + [1] * 30)
        correct = 0
        for i in range(len(feats)):          # leave-one-out
            keep = np.arange(len(feats)) != i
            c0 = feats[keep & (labels == 0)].mean(axis=0)
            c1 = feats[keep & (labels == 1)].mean(axis=0)
            pred = 0 if np.linalg.norm(feats[i] - c0) < np.linalg.norm(feats[i] - c1) else 1
            correct += pred == labels[i]
        assert correct / len(feats) >= 0.95

    def test_bad_kind_rejected(self, rng):
        with pytest.raises(ValueError, match="kind"):
            synth_dataset("music", 1, 1.0, rng)

    def test_bad_count_rejected(self, rng):
        with pytest.raises(ValueError, match="positive"):
            synth_dataset("speech", 0, 1.0, rng)
