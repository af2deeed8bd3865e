"""Time-frequency front-end: STFT analysis/synthesis, log-power spectra,
and the real-valued Wiener mask.

Conventions, fixed throughout the package:
  frame_len 512 samples (32 ms at 16 kHz), hop 256 (50% overlap),
  periodic Hann analysis window, F = 257 one-sided bins.
Trailing samples that do not fill a full frame are dropped; synthesis
returns exactly the covered sample span.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

from . import new_file

SAMPLE_RATE = 16000
FRAME_LEN = 512
HOP = 256
F_BINS = FRAME_LEN // 2 + 1

POWER_FLOOR = 1e-12          # |.|^2 floor before log10; -120 dB
LPS_EXP_CLAMP = 20.0         # clamp on the base-10 exponent in lps_to_magnitude


class WavFormatError(ValueError):
    """Rejected audio input; message names the offending header field."""


@dataclass
class Waveform:
    """Mono samples at SAMPLE_RATE."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"waveform must be 1-d, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")

    def __len__(self):
        return len(self.samples)


@dataclass
class Spectrogram:
    """One-sided complex STFT, bins x frames, at FRAME_LEN and HOP."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 2 or self.frames.shape[0] != F_BINS:
            raise ValueError(
                f"spectrogram must be ({F_BINS}, N), got {self.frames.shape}")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[1]


def hann_window(length: int) -> np.ndarray:
    """Periodic Hann: w[k] = 0.5 - 0.5 cos(2 pi k / length).

    The periodic form (denominator `length`, not `length - 1`) makes the
    50%-overlap constant-overlap-add identity hold; the second half is
    built as 1 - w[k] (its exact mathematical value) rather than through a
    second cos evaluation, so w[k] + w[k + len/2] == 1.0 to the last bit.
    """
    if length < 2 or length % 2 != 0:
        raise ValueError(f"hann_window: length must be even and >= 2, got {length}")
    k = np.arange(length // 2)
    half = 0.5 - 0.5 * np.cos(2.0 * np.pi * k / length)
    return np.concatenate([half, 1.0 - half])


def stft(wav: Waveform | np.ndarray) -> Spectrogram:
    """Windowed one-sided DFT frames; a partial trailing frame is dropped."""
    x = wav.samples if isinstance(wav, Waveform) else np.asarray(wav, dtype=np.float64)
    if len(x) < FRAME_LEN:
        raise ValueError(f"stft: need at least {FRAME_LEN} samples, got {len(x)}")
    segs = np.lib.stride_tricks.sliding_window_view(x, FRAME_LEN)[::HOP]
    frames = np.fft.rfft(segs * hann_window(FRAME_LEN), axis=1)
    return Spectrogram(np.ascontiguousarray(frames.T))


def istft(spec: Spectrogram) -> Waveform:
    """Weighted overlap-add inverse, normalized by the summed squared window.

    Reconstruction is exact (up to rounding) wherever the window-power sum is
    positive; samples it never covers (only x[0] at these settings) come back
    as zero.
    """
    n_frames = spec.n_frames
    window = hann_window(FRAME_LEN)
    out_len = (n_frames + 1) * HOP
    segs = np.fft.irfft(spec.frames.T, n=FRAME_LEN, axis=1) * window
    acc = np.zeros(out_len)
    norm = np.zeros(out_len)
    # HOP == FRAME_LEN / 2: frame n covers blocks n and n + 1. Frame n - 1's
    # second half goes in before frame n's first half, as in a frame loop
    # (with two terms onto zero, the sum is the same in either order).
    for buf, parts in ((acc, segs), (norm, np.broadcast_to(window * window, segs.shape))):
        later = buf[HOP:].reshape(n_frames, HOP)
        later += parts[:, HOP:]
        earlier = buf[:-HOP].reshape(n_frames, HOP)
        earlier += parts[:, :HOP]
    covered = norm > 0
    out = np.zeros(out_len)
    out[covered] = acc[covered] / norm[covered]
    return Waveform(out)


def lps(frames: np.ndarray) -> np.ndarray:
    """Log-power spectrum log10(max(|.|^2, floor)); works per frame or batch."""
    power = np.abs(np.asarray(frames)) ** 2
    return np.log10(np.maximum(power, POWER_FLOOR))


def lps_to_magnitude(values: np.ndarray) -> np.ndarray:
    """Invert LPS to magnitude, 10^(v/2), exponent clamped to +/-20.

    The clamp keeps untrained-model outputs finite in 32-bit arithmetic.
    """
    exponent = np.clip(np.asarray(values, dtype=np.float64) / 2.0,
                       -LPS_EXP_CLAMP, LPS_EXP_CLAMP)
    return 10.0 ** exponent


def wiener_mask(x_mag: np.ndarray, v_mag: np.ndarray) -> np.ndarray:
    """Wiener-like magnitude mask |X| / (|X| + |V|), applied as X_hat = mask * Y.

    Both magnitudes must be strictly positive, which the exponent clamp in
    lps_to_magnitude guarantees; the mask then lies in (0, 1).
    """
    if x_mag.shape != v_mag.shape:
        raise ValueError(f"wiener_mask: shape mismatch {x_mag.shape}, {v_mag.shape}")
    if np.any(x_mag <= 0) or np.any(v_mag <= 0):
        raise ValueError("wiener_mask: magnitudes must be strictly positive")
    return x_mag / (x_mag + v_mag)


# ---------------------------------------------------------------------------
# WAV ingestion / export: RIFF, mono, 16-bit PCM, 16 kHz only
# ---------------------------------------------------------------------------

def load_wav(path) -> Waveform:
    """Read a mono 16-bit 16 kHz PCM WAV file, normalized to [-1, 1).

    Any other layout is rejected with a message naming the offending field.
    """
    try:
        reader = wave.open(str(path), "rb")
    except (wave.Error, EOFError) as exc:
        raise WavFormatError(f"container: not a readable RIFF/WAVE file ({exc})") from exc
    except RuntimeError:            # `wave` seeking past the end of the RIFF chunk
        raise WavFormatError("container: a chunk size runs past the end of the file") from None
    with reader:
        if reader.getcomptype() != "NONE":
            raise WavFormatError(
                f"compression: expected PCM ('NONE'), got {reader.getcomptype()!r}")
        if reader.getnchannels() != 1:
            raise WavFormatError(
                f"channels: expected mono (1), got {reader.getnchannels()}")
        if reader.getsampwidth() != 2:
            raise WavFormatError(
                f"sample_width: expected 16-bit (2 bytes), got {reader.getsampwidth()} bytes")
        if reader.getframerate() != SAMPLE_RATE:
            raise WavFormatError(
                f"sample_rate: expected {SAMPLE_RATE} Hz, got {reader.getframerate()}")
        n_frames = reader.getnframes()
        raw = reader.readframes(n_frames)
    if len(raw) != 2 * n_frames:
        raise WavFormatError(f"data: header declares {n_frames} frames ({2 * n_frames} bytes), "
                             f"the file holds {len(raw)} bytes")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples)


def save_wav(path, wav: Waveform) -> None:
    """Write 16-bit mono PCM; samples are clipped to [-1, 1) before scaling."""
    ints = np.clip(np.round(wav.samples * 32768.0), -32768, 32767).astype("<i2")
    with new_file(path, "wb") as fh, wave.open(fh, "wb") as writer:
        writer.setnchannels(1)
        writer.setsampwidth(2)
        writer.setframerate(SAMPLE_RATE)
        writer.writeframes(ints.tobytes())
