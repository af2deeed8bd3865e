"""Synthetic desk-scale audio: harmonic pseudo-speech, filtered pseudo-noise,
and SNR-controlled mixing.

The two clip families are deliberately easy to tell apart spectrally
(harmonic stacks below ~2.5 kHz vs broadband/filtered noise) so that latent
separation effects are attributable to the models, not to data ambiguity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import SAMPLE_RATE, Waveform


@dataclass
class MixTriple:
    """Aligned (speech, noise, mixture) at a known SNR, peak-safe."""

    speech: Waveform
    noise: Waveform
    mixture: Waveform
    snr_db: float

    def __post_init__(self):
        n = len(self.speech)
        if len(self.noise) != n or len(self.mixture) != n:
            raise ValueError("mix triple signals must be equal length")
        if not np.allclose(self.mixture.samples,
                           self.speech.samples + self.noise.samples, atol=1e-9):
            raise ValueError("mixture must equal speech + noise")


def mix_at_snr(speech: Waveform, noise: Waveform, snr_db: float,
               rng: np.random.Generator) -> MixTriple:
    """Scale a random noise crop so speech/noise power hits snr_db exactly.

    A noise clip shorter than the speech is looped (tiled end to end) to at
    least its length first. The mixture is peak-limited to 0.99 with one
    shared gain applied to all three signals, which leaves the SNR untouched.
    """
    s = speech.samples
    if len(noise) == 0:
        raise ValueError("noise clip is empty")
    looped = np.tile(noise.samples, -(-len(s) // len(noise)))
    start = int(rng.integers(0, len(looped) - len(s) + 1))
    n = looped[start:start + len(s)]

    p_s = float(np.mean(s * s))
    p_n = float(np.mean(n * n))
    if p_s == 0.0:
        raise ValueError("speech has zero energy")
    if p_n == 0.0:
        raise ValueError("noise crop has zero energy")

    alpha = np.sqrt(p_s / (p_n * 10.0 ** (snr_db / 10.0)))
    n_scaled = alpha * n
    mix = s + n_scaled

    peak = float(np.max(np.abs(mix)))
    gain = min(1.0, 0.99 / peak) if peak > 0 else 1.0
    return MixTriple(speech=Waveform(gain * s), noise=Waveform(gain * n_scaled),
                     mixture=Waveform(gain * mix), snr_db=snr_db)


def _speech_like(n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Harmonic stack with drifting f0 in [100, 300] Hz and a slow envelope."""
    t = np.arange(n_samples) / SAMPLE_RATE
    f0_a, f0_b = rng.uniform(100.0, 300.0, size=2)
    f0 = f0_a + (f0_b - f0_a) * (t / t[-1])          # linear drift
    phase = 2.0 * np.pi * np.cumsum(f0) / SAMPLE_RATE
    x = np.zeros(n_samples)
    n_partials = int(rng.integers(5, 9))
    for k in range(1, n_partials + 1):
        x += (1.0 / k) * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
    # syllable-rate amplitude modulation, kept strictly positive
    env_rate = rng.uniform(1.5, 4.0)
    env = 0.55 + 0.45 * np.sin(2 * np.pi * env_rate * t + rng.uniform(0, 2 * np.pi))
    x *= env
    return 0.5 * x / np.max(np.abs(x))


def _noise_like(n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """White, pink, or band-passed Gaussian noise, one variant per clip."""
    white = rng.standard_normal(n_samples)
    variant = rng.integers(0, 3)
    if variant == 0:
        x = white
    else:
        spec = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(n_samples, d=1.0 / SAMPLE_RATE)
        if variant == 1:
            shape = np.ones_like(freqs)
            shape[1:] = 1.0 / np.sqrt(freqs[1:])     # pink: power ~ 1/f
            shape[0] = 0.0
        else:
            lo = rng.uniform(300.0, 3000.0)
            hi = lo + rng.uniform(500.0, 4000.0)
            shape = ((freqs >= lo) & (freqs <= hi)).astype(float)
        x = np.fft.irfft(spec * shape, n=n_samples)
    return 0.5 * x / np.max(np.abs(x))


def synth_dataset(kind: str, count: int, duration_s: float,
                  rng: np.random.Generator) -> list[Waveform]:
    """Deterministic clip set; kind is "speech" or "noise"."""
    if kind not in ("speech", "noise"):
        raise ValueError(f"kind must be 'speech' or 'noise', got {kind!r}")
    if count < 1 or duration_s <= 0:
        raise ValueError("count and duration must be positive")
    n_samples = int(round(duration_s * SAMPLE_RATE))
    make = _speech_like if kind == "speech" else _noise_like
    return [Waveform(make(n_samples, rng)) for _ in range(count)]
