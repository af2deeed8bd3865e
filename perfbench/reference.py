"""Independent reference for the benchmark's output checks.

Uses only numpy, zlib and json; nothing from `pvae` is imported, so a fault
in the package cannot hide by showing up on both sides of a comparison.

- `read_checkpoint`: the container layout from the `pvae.checkpoint`
  docstring, CRC-32 first, then magic, version, JSON config and the named
  float32 tensors.
- `enhance`: the float32 forward of the NSVAE trunk and heads and of the two
  pretrained decoders, with the GRU gate equations from the
  `pvae.nn.GruLayer` docstring, then the mask chain: STFT, the ratio mask
  |X| / (|X| + |V|), weighted overlap-add.
- `si_snr`: scale-invariant SNR from its definition.

Frame-local layers run as one matmul over all frames, and only the
recurrent product h @ U stays inside the time loop, so the arithmetic order
differs from the package's per-frame graph: agreement is expected to
float32 rounding, not bit for bit.
"""

from __future__ import annotations

import json
import zlib

import numpy as np

FRAME_LEN = 512
HOP = 256
POWER_FLOOR = 1e-12
EXP_CLAMP = 20.0
N_FC = 3


class CheckpointFormatError(ValueError):
    """A checkpoint the reference reader cannot accept."""


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(config, {name: float32 array}) from a PVAE checkpoint file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12:
        raise CheckpointFormatError("file too short")
    body = blob[:-4]
    stored = int(np.frombuffer(blob, "<u4", 1, len(blob) - 4)[0])
    if zlib.crc32(body) & 0xFFFFFFFF != stored:
        raise CheckpointFormatError("CRC-32 mismatch")
    if body[:4] != b"PVAE":
        raise CheckpointFormatError("bad magic")
    pos = 4

    def u(dtype, count=1):
        nonlocal pos
        size = np.dtype(dtype).itemsize * count
        if pos + size > len(body):
            raise CheckpointFormatError(f"truncated at byte {pos}")
        out = np.frombuffer(body, dtype, count, pos)
        pos += size
        return out

    def raw(n):
        nonlocal pos
        if pos + n > len(body):
            raise CheckpointFormatError(f"truncated at byte {pos}")
        out = body[pos:pos + n]
        pos += n
        return out

    u("<u4")                                  # format version
    config = json.loads(raw(int(u("<u4")[0])).decode("utf-8"))
    tensors = {}
    for _ in range(int(u("<u4")[0])):
        name = raw(int(u("<u2")[0])).decode("utf-8")
        rank = int(u("<u1")[0])
        shape = tuple(int(d) for d in u("<u4", rank))
        count = int(np.prod(shape, dtype=np.int64)) if rank else 1
        tensors[name] = u("<f4", count).reshape(shape).astype(np.float32)
    if pos != len(body):
        raise CheckpointFormatError(f"{len(body) - pos} trailing bytes")
    return config, tensors


# ---------------------------------------------------------------------------
# float32 forward
# ---------------------------------------------------------------------------

def _linear(t, prefix, x, relu):
    y = x @ t[f"{prefix}.weight"] + t[f"{prefix}.bias"]
    return np.maximum(y, np.float32(0)) if relu else y


def _sigmoid(a):
    return np.float32(1) / (np.float32(1) + np.exp(-a))


def _gru(t, prefix, xs):
    """r = s(xW_r + hU_r + b_r), z = s(xW_z + hU_z + b_z),
    h~ = tanh(xW_h + (r*h)U_h + b_h), h' = (1-z)h + z h~, h_0 = 0."""
    g = {k: t[f"{prefix}.{k}"] for k in
         ("W_r", "W_z", "W_h", "U_r", "U_z", "U_h", "b_r", "b_z", "b_h")}
    xr, xz, xh = xs @ g["W_r"], xs @ g["W_z"], xs @ g["W_h"]
    u_rz = np.concatenate([g["U_r"], g["U_z"]], axis=1)
    hidden = g["U_h"].shape[0]
    h = np.zeros((1, hidden), dtype=np.float32)
    out = np.empty((xs.shape[0], hidden), dtype=np.float32)
    for n in range(xs.shape[0]):
        hu = h @ u_rz
        r = _sigmoid(xr[n] + hu[:, :hidden] + g["b_r"])
        z = _sigmoid(xz[n] + hu[:, hidden:] + g["b_z"])
        cand = np.tanh(xh[n] + (r * h) @ g["U_h"] + g["b_h"])
        h = (np.float32(1) - z) * h + z * cand
        out[n] = h[0]
    return out


def nsvae_means(t, y):
    """Posterior means (z_speech, z_noise) of the noisy encoder, (T, L)."""
    h = y
    for i in range(N_FC):
        h = _linear(t, f"nsvae.trunk.fc{i}", h, relu=True)
    h = _gru(t, "nsvae.trunk.gru", h)
    wide = _linear(t, "nsvae.trunk.wide", h, relu=True)
    return (_linear(t, "nsvae.head.mu_x", wide, relu=False),
            _linear(t, "nsvae.head.mu_v", wide, relu=False))


def decoder_mean(t, prefix, z):
    """Decoder likelihood mean (T, F) of a pretrained VAE."""
    h = _gru(t, f"{prefix}.dec.gru", z)
    for i in range(N_FC):
        h = _linear(t, f"{prefix}.dec.fc{i}", h, relu=True)
    return _linear(t, f"{prefix}.dec.mu", h, relu=False)


# ---------------------------------------------------------------------------
# mask chain
# ---------------------------------------------------------------------------

def hann():
    """Periodic Hann window of FRAME_LEN samples."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME_LEN) / FRAME_LEN)


def stft(x):
    """(N, F) one-sided spectra of full frames; a partial tail is dropped."""
    x = np.asarray(x, dtype=np.float64)
    frames = np.lib.stride_tricks.sliding_window_view(x, FRAME_LEN)[::HOP]
    return np.fft.rfft(frames * hann(), axis=1)


def wola(spec):
    """Weighted overlap-add of (N, F) spectra, normalized by sum(w^2)."""
    n = spec.shape[0]
    w = hann()
    segs = np.fft.irfft(spec, n=FRAME_LEN, axis=1) * w
    out_len = (n - 1) * HOP + FRAME_LEN
    acc = np.zeros(out_len)
    norm = np.zeros(out_len)
    for i in range(n):
        acc[i * HOP:i * HOP + FRAME_LEN] += segs[i]
        norm[i * HOP:i * HOP + FRAME_LEN] += w * w
    out = np.zeros(out_len)
    np.divide(acc, norm, out=out, where=norm > 0)
    return out


def enhance(t, noisy):
    """Reference enhancement of one waveform with a bundle's tensors.

    Returns (samples, mask (N, F), z_speech, z_noise).
    """
    spec = stft(noisy)
    y = np.log10(np.maximum(np.abs(spec) ** 2, POWER_FLOOR)).astype(np.float32)
    zx, zv = nsvae_means(t, y)
    x_lps = decoder_mean(t, "cvae", zx).astype(np.float64)
    v_lps = decoder_mean(t, "nvae", zv).astype(np.float64)
    x_mag = 10.0 ** np.clip(x_lps / 2.0, -EXP_CLAMP, EXP_CLAMP)
    v_mag = 10.0 ** np.clip(v_lps / 2.0, -EXP_CLAMP, EXP_CLAMP)
    mask = x_mag / (x_mag + v_mag)
    return wola(mask * spec), mask, zx, zv


def si_snr(estimate, reference):
    """10 log10(|a r|^2 / |e - a r|^2), zero-mean signals, a = <e,r>/<r,r>."""
    e = np.asarray(estimate, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    e = e - e.mean()
    r = r - r.mean()
    target = (e @ r) / (r @ r) * r
    return float(10.0 * np.log10((target @ target) / ((e - target) @ (e - target))))
