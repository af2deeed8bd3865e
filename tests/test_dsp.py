"""STFT/iSTFT, LPS, masking, and WAV ingestion tests.

The STFT is checked against a brute-force O(F*K) DFT written independently
here, so the fft-backed implementation never validates itself.
"""

import wave

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pvae import dsp, new_file
from pvae.dsp import (FRAME_LEN, HOP, F_BINS, Spectrogram, Waveform,
                      WavFormatError)


def brute_force_frame(samples, window):
    """Naive windowed DFT of one frame, bins 0..F-1."""
    out = np.zeros(F_BINS, dtype=np.complex128)
    wx = window * samples
    for f in range(F_BINS):
        for k in range(FRAME_LEN):
            out[f] += wx[k] * np.exp(-2j * np.pi * f * k / FRAME_LEN)
    return out


class TestHannWindow:
    def test_len4_values(self):
        np.testing.assert_allclose(dsp.hann_window(4), [0.0, 0.5, 1.0, 0.5], atol=1e-15)

    def test_len2_values(self):
        np.testing.assert_allclose(dsp.hann_window(2), [0.0, 1.0], atol=1e-15)

    def test_cola_identity_len512_bitwise(self):
        w = dsp.hann_window(512)
        assert np.all(w[:256] + w[256:] == 1.0)

    def test_half_fold_stays_on_cos_formula(self):
        w = dsp.hann_window(512)
        literal = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(512) / 512)
        np.testing.assert_allclose(w, literal, atol=1e-15)

    @pytest.mark.parametrize("bad", [0, 1, 3, 511])
    def test_rejects_odd_or_small(self, bad):
        with pytest.raises(ValueError):
            dsp.hann_window(bad)


class TestStft:
    def test_frame_geometry(self):
        wav = Waveform(np.zeros(16000))
        spec = dsp.stft(wav)
        assert spec.frames.shape[0] == 257
        assert spec.n_frames == (16000 - 512) // 256 + 1

    def test_partial_tail_dropped(self):
        spec = dsp.stft(Waveform(np.zeros(512 + 255)))
        assert spec.n_frames == 1

    def test_zero_in_zero_out(self):
        spec = dsp.stft(Waveform(np.zeros(2048)))
        assert np.all(spec.frames == 0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            dsp.stft(Waveform(np.zeros(511)))

    def test_matches_brute_force_dft(self, rng):
        x = rng.normal(size=1200)
        spec = dsp.stft(Waveform(x))
        w = dsp.hann_window(FRAME_LEN)
        for n in [0, spec.n_frames - 1]:
            seg = x[n * HOP: n * HOP + FRAME_LEN]
            np.testing.assert_allclose(spec.frames[:, n], brute_force_frame(seg, w),
                                       atol=1e-9)

    def test_matches_per_frame_loop_bitwise(self, rng):
        x = rng.normal(size=4000)
        w = dsp.hann_window(FRAME_LEN)
        spec = dsp.stft(Waveform(x))
        loop = np.stack([np.fft.rfft(w * x[n * HOP: n * HOP + FRAME_LEN])
                         for n in range(spec.n_frames)], axis=1)
        assert spec.frames.tobytes() == loop.tobytes()

    def test_prefix_frames_bit_identical(self, rng):
        # the dsp half of the causality contract: appending samples never
        # moves the frames already computed
        x = rng.normal(size=64000)
        full = dsp.stft(Waveform(x)).frames
        for n in (512, 4000, 40000):
            prefix = dsp.stft(Waveform(x[:n])).frames
            assert prefix.tobytes() == full[:, :prefix.shape[1]].tobytes()

    def test_sinusoid_concentrates_at_its_bin(self):
        # Hann kernel spreads a bin-centered line over 3 bins with relative
        # amplitudes (1/4, 1/2, 1/4): exactly 2/3 of the power sits in the
        # center bin and all of it within the 3-bin mainlobe.
        bin_freq = 8 * 16000 / 512.0
        n = np.arange(16000)
        x = np.sin(2 * np.pi * bin_freq * n / 16000)
        spec = dsp.stft(Waveform(x))
        power = np.abs(spec.frames) ** 2
        total = power.sum(axis=0)
        assert np.all(power.argmax(axis=0) == 8)
        np.testing.assert_allclose(power[8] / total, 2.0 / 3.0, rtol=1e-9)
        assert np.all(power[7:10].sum(axis=0) / total >= 0.99)

    def test_linearity(self, rng):
        x, y = rng.normal(size=3000), rng.normal(size=3000)
        a, b = 2.3, -0.7
        lhs = dsp.stft(Waveform(a * x + b * y)).frames
        rhs = a * dsp.stft(Waveform(x)).frames + b * dsp.stft(Waveform(y)).frames
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


class TestIstft:
    def test_round_trip_interior(self, rng):
        x = rng.normal(size=5000)
        rec = dsp.istft(dsp.stft(Waveform(x))).samples
        interior = slice(HOP, len(rec) - HOP)
        err = np.abs(rec[interior] - x[interior])
        scale = np.maximum(np.abs(x[interior]), 1e-12)
        assert np.max(err / scale) <= 1e-6

    def test_zero_spectrogram(self):
        spec = Spectrogram(np.zeros((257, 5), dtype=np.complex128))
        assert np.all(dsp.istft(spec).samples == 0)

    def test_sinusoid_rms_preserved(self):
        n = np.arange(8192)
        x = 0.5 * np.sin(2 * np.pi * 440.0 * n / 16000)
        rec = dsp.istft(dsp.stft(Waveform(x))).samples
        interior = slice(HOP, len(rec) - HOP)
        rms_in = np.sqrt(np.mean(x[interior] ** 2))
        rms_out = np.sqrt(np.mean(rec[interior] ** 2))
        assert abs(rms_out - rms_in) / rms_in <= 1e-6

    def test_output_length_matches_covered_span(self):
        spec = dsp.stft(Waveform(np.zeros(1000)))
        out = dsp.istft(spec)
        assert len(out) == (spec.n_frames - 1) * HOP + FRAME_LEN


class TestLps:
    def test_unit_magnitude_gives_zero(self):
        frame = np.ones(257, dtype=np.complex128)
        np.testing.assert_array_equal(dsp.lps(frame), np.zeros(257))

    def test_power_100_gives_2(self):
        frame = np.full(257, 10.0 + 0j)
        np.testing.assert_allclose(dsp.lps(frame), np.full(257, 2.0), rtol=1e-12)

    def test_zero_clamps_to_minus_12(self):
        np.testing.assert_array_equal(dsp.lps(np.zeros(257, dtype=np.complex128)),
                                      np.full(257, -12.0))

    def test_batch_shape_preserved(self, rng):
        frames = rng.normal(size=(257, 9)) + 1j * rng.normal(size=(257, 9))
        assert dsp.lps(frames).shape == (257, 9)


class TestLpsToMagnitude:
    def test_zero_gives_one(self):
        assert dsp.lps_to_magnitude(np.zeros(3)).tolist() == [1.0, 1.0, 1.0]

    def test_two_gives_ten(self):
        np.testing.assert_allclose(dsp.lps_to_magnitude(np.array([2.0])), [10.0])

    def test_pathological_input_clamped(self):
        out = dsp.lps_to_magnitude(np.array([100.0, -100.0]))
        np.testing.assert_allclose(out, [1e20, 1e-20])
        assert np.all(np.isfinite(out))

    def test_roundtrip_identity_on_clamped_power(self, rng):
        s = rng.normal(size=257) + 1j * rng.normal(size=257)
        s[:5] = 0.0  # exercise the floor
        mag = dsp.lps_to_magnitude(dsp.lps(s))
        np.testing.assert_allclose(mag ** 2, np.maximum(np.abs(s) ** 2, 1e-12),
                                   rtol=1e-9)


class TestApplyMask:
    def test_equal_magnitudes_halve(self, rng):
        y = rng.normal(size=257) + 1j * rng.normal(size=257)
        m = np.full(257, 2.5)
        np.testing.assert_allclose(dsp.wiener_mask(m, m) * y, 0.5 * y, rtol=1e-12)

    def test_three_to_one_ratio(self):
        y = np.full(4, 2.0 + 2.0j)
        out = dsp.wiener_mask(np.full(4, 3.0), np.full(4, 1.0)) * y
        np.testing.assert_allclose(out, 0.75 * y, rtol=1e-12)

    def test_mask_strictly_inside_unit_interval(self, rng):
        x = dsp.lps_to_magnitude(rng.normal(size=(257, 7)) * 4)
        v = dsp.lps_to_magnitude(rng.normal(size=(257, 7)) * 4)
        mask = dsp.wiener_mask(x, v)
        assert np.all(mask > 0) and np.all(mask < 1)

    def test_output_never_exceeds_input_magnitude(self, rng):
        y = rng.normal(size=(257, 5)) + 1j * rng.normal(size=(257, 5))
        x = dsp.lps_to_magnitude(rng.normal(size=(257, 5)))
        v = dsp.lps_to_magnitude(rng.normal(size=(257, 5)))
        out = dsp.wiener_mask(x, v) * y
        assert np.all(np.abs(out) <= np.abs(y))

    def test_nonpositive_magnitude_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            dsp.wiener_mask(np.array([1.0, 0.0, 1, 1]), np.ones(4))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"^wiener_mask: shape mismatch \(4,\), \(5,\)$"):
            dsp.wiener_mask(np.ones(4), np.ones(5))


class TestWavIO:
    def test_round_trip(self, tmp_path, rng):
        x = np.clip(rng.normal(scale=0.2, size=4000), -0.999, 0.999)
        path = tmp_path / "a.wav"
        dsp.save_wav(path, Waveform(x))
        back = dsp.load_wav(path)
        with wave.open(str(path), "rb") as reader:
            assert reader.getframerate() == 16000
        np.testing.assert_allclose(back.samples, x, atol=1.0 / 32768)

    def _write(self, path, channels=1, width=2, rate=16000, n=100):
        with wave.open(str(path), "wb") as w:
            w.setnchannels(channels)
            w.setsampwidth(width)
            w.setframerate(rate)
            w.writeframes(b"\x00" * (n * width * channels))

    def test_rejects_stereo_naming_field(self, tmp_path):
        p = tmp_path / "st.wav"
        self._write(p, channels=2)
        with pytest.raises(WavFormatError, match="channels"):
            dsp.load_wav(p)

    def test_rejects_8bit_naming_field(self, tmp_path):
        p = tmp_path / "b8.wav"
        self._write(p, width=1)
        with pytest.raises(WavFormatError, match="sample_width"):
            dsp.load_wav(p)

    def test_rejects_wrong_rate_naming_field(self, tmp_path):
        p = tmp_path / "r8.wav"
        self._write(p, rate=8000)
        with pytest.raises(WavFormatError, match="sample_rate"):
            dsp.load_wav(p)

    def test_rejects_non_wav_bytes(self, tmp_path):
        p = tmp_path / "junk.wav"
        p.write_bytes(b"not a riff file at all, nope")
        with pytest.raises(WavFormatError, match="container"):
            dsp.load_wav(p)

    @pytest.mark.parametrize("cut", [1, 2])
    def test_rejects_cut_data_naming_field(self, tmp_path, wav40, cut):
        p = tmp_path / "cut.wav"
        p.write_bytes(wav40[:-cut])
        with pytest.raises(WavFormatError, match=rf"^data: header declares 40 frames "
                                                 rf"\(80 bytes\), the file holds {80 - cut} bytes$"):
            dsp.load_wav(p)

    def test_rejects_chunk_past_end_naming_field(self, tmp_path, wav40):
        edited = bytearray(wav40)
        edited[16] = 0x7f                   # fmt chunk size 127 overruns the file
        p = tmp_path / "overrun.wav"
        p.write_bytes(bytes(edited))
        with pytest.raises(WavFormatError, match="^container: a chunk size runs past the end"):
            dsp.load_wav(p)


@pytest.fixture(scope="module")
def wav40(tmp_path_factory):
    """The bytes of a 40-sample WAV written by `save_wav` (124 bytes)."""
    path = tmp_path_factory.mktemp("wav") / "clip.wav"
    dsp.save_wav(path, Waveform(np.linspace(-0.5, 0.5, 40)))
    return path.read_bytes()


@settings(derandomize=True, max_examples=500, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_edited_wav_loads_or_raises_wav_format_error(wav40, tmp_path, data):
    """One byte replaced, or the file cut to any length: `load_wav` returns
    or raises `WavFormatError`, never another exception."""
    if data.draw(st.booleans(), label="cut"):
        edited = wav40[:data.draw(st.integers(0, len(wav40) - 1), label="length")]
    else:
        pos = data.draw(st.integers(0, len(wav40) - 1), label="position")
        value = data.draw(st.integers(0, 255).filter(lambda v: v != wav40[pos]), label="value")
        edited = wav40[:pos] + bytes([value]) + wav40[pos + 1:]
    path = tmp_path / "fuzz.wav"
    with new_file(path, "wb") as fh:
        fh.write(edited)
    try:
        dsp.load_wav(path)
    except WavFormatError:
        pass


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=700, max_value=4000))
def test_property_round_trip(seed, n):
    r = np.random.default_rng(seed)
    x = r.normal(size=n)
    rec = dsp.istft(dsp.stft(Waveform(x))).samples
    interior = slice(HOP, len(rec) - HOP)
    np.testing.assert_allclose(rec[interior], x[interior], rtol=1e-6, atol=1e-9)


def test_istft_matches_per_frame_loop_bitwise():
    # the per-frame overlap-add the vectorised istft replaced
    def loop(spec):
        window = dsp.hann_window(FRAME_LEN)
        out_len = (spec.n_frames - 1) * HOP + FRAME_LEN
        acc, norm = np.zeros(out_len), np.zeros(out_len)
        for n in range(spec.n_frames):
            seg = np.fft.irfft(spec.frames[:, n], n=FRAME_LEN)
            acc[n * HOP:n * HOP + FRAME_LEN] += window * seg
            norm[n * HOP:n * HOP + FRAME_LEN] += window * window
        out = np.zeros(out_len)
        covered = norm > 0
        out[covered] = acc[covered] / norm[covered]
        return out

    r = np.random.default_rng(8)
    for n in (512, 700, 4000, 16000):
        spec = dsp.stft(Waveform(r.normal(size=n)))
        # a mask-like gain, so the frames are no longer an exact STFT
        spec.frames = spec.frames * r.uniform(0.0, 1.0, size=spec.frames.shape)
        assert dsp.istft(spec).samples.tobytes() == loop(spec).tobytes()
