"""Evaluation metrics and latent-space geometry.

SI-SNR is the headline enhancement metric; log-spectral distance is a
spectral proxy reported alongside it. Latent structure is summarized two
ways: separation statistics computed in the full latent space, and a 2-D
PCA projection (the top two eigenvectors of the population covariance,
from `np.linalg.eigh`) used only for visual export.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import new_file, write_csv
from .dsp import Waveform, lps, stft

SI_SNR_SENTINEL_DB = 150.0


def _samples(x) -> np.ndarray:
    arr = np.asarray(getattr(x, "samples", x), dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d signal, got shape {arr.shape}")
    return arr


def si_snr(estimate, reference) -> float:
    """Scale-invariant SNR in dB.

    Both signals are zero-meaned, the estimate is projected onto the
    reference, and the projection/residual power ratio is returned. Zero
    residual energy maps to a +150 dB sentinel (and zero projection energy
    to -150 dB) so comparisons stay finite. The energies are `np.sum` of
    products, not `np.dot`: BLAS splits a long dot product across its
    threads, which would make the bytes depend on the thread count.
    """
    e, r = _samples(estimate), _samples(reference)
    if e.shape != r.shape:
        raise ValueError(f"length mismatch: {e.shape} vs {r.shape}")
    r = r - np.mean(r)
    rr = float(np.sum(r * r))
    if rr == 0.0:
        raise ValueError("reference has zero energy")
    e = e - np.mean(e)
    s_t = (np.sum(e * r) / rr) * r
    err = e - s_t
    p_t = float(np.sum(s_t * s_t))
    p_e = float(np.sum(err * err))
    if p_e == 0.0:
        return SI_SNR_SENTINEL_DB
    if p_t == 0.0:
        return -SI_SNR_SENTINEL_DB
    return 10.0 * np.log10(p_t / p_e)


def log_spectral_distance(estimate, reference) -> float:
    """Mean over frames of the per-frame RMS of 10*(lps_est - lps_ref)."""
    e, r = _samples(estimate), _samples(reference)
    if e.shape != r.shape:
        raise ValueError(f"length mismatch: {e.shape} vs {r.shape}")
    diff = 10.0 * (lps(stft(Waveform(e)).frames) - lps(stft(Waveform(r)).frames))
    return float(np.mean(np.sqrt(np.mean(diff * diff, axis=0))))


# ---------------------------------------------------------------------------
# Latent clouds and separation
# ---------------------------------------------------------------------------

@dataclass
class LatentCloud:
    points: np.ndarray            # (N, L)
    label: str                    # "speech" or "noise"

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[0] == 0:
            raise ValueError(f"cloud needs (N, L) points, got {self.points.shape}")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("cloud points must be finite")
        if self.label not in ("speech", "noise"):
            raise ValueError(f"label must be 'speech' or 'noise', got {self.label!r}")


def _points(x) -> np.ndarray:
    return np.asarray(getattr(x, "points", x), dtype=np.float64)


def separation_stats(speech, noise) -> dict:
    """Centroid distance over mean within-cloud RMS spread, full latent dim.

    Deliberately projection-free: a 2-D rendering can exaggerate or hide
    separation, the acceptance statistic should not depend on it.
    """
    a, b = _points(speech), _points(noise)
    if a.size == 0 or b.size == 0:
        raise ValueError("clouds must be non-empty")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dim mismatch: {a.shape[1]} vs {b.shape[1]}")
    ca, cb = a.mean(axis=0), b.mean(axis=0)
    distance = float(np.sqrt(np.sum((ca - cb) ** 2)))
    spread_a = float(np.sqrt(np.mean(np.sum((a - ca) ** 2, axis=1))))
    spread_b = float(np.sqrt(np.mean(np.sum((b - cb) ** 2, axis=1))))
    spread = 0.5 * (spread_a + spread_b)
    return {"centroid_distance": distance, "mean_within_spread": spread,
            "ratio": distance / spread if spread > 0 else np.inf}


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

@dataclass
class PcaModel:
    mean: np.ndarray              # (L,)
    components: np.ndarray        # (2, L), orthonormal rows
    explained_variance: np.ndarray  # (2,), descending

    def __post_init__(self):
        gram = self.components @ self.components.T
        if not np.allclose(gram, np.eye(2), atol=1e-9):
            raise ValueError("components must be orthonormal")
        if self.explained_variance[0] < self.explained_variance[1] - 1e-12:
            raise ValueError("explained_variance must be descending")


def pca_fit(points) -> PcaModel:
    """Top-2 principal axes of a point set (population covariance)."""
    if isinstance(points, (list, tuple)):
        pts = np.concatenate([_points(p) for p in points], axis=0)
    else:
        pts = _points(points)
    n, dim = pts.shape
    if n < 3:
        raise ValueError(f"PCA needs at least 3 points, got {n}")
    if dim < 2:
        raise ValueError(f"PCA needs dimension >= 2, got {dim}")
    mean = pts.mean(axis=0)
    centered = pts - mean
    cov = centered.T @ centered / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:2]
    components = eigvecs[:, order].T.copy()
    for row in components:          # deterministic sign: peak entry positive
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaModel(mean=mean, components=components,
                    explained_variance=np.maximum(eigvals[order], 0.0))


def pca_transform(model: PcaModel, points) -> np.ndarray:
    pts = _points(points)
    return (pts - model.mean) @ model.components.T


# ---------------------------------------------------------------------------
# Exports: latent CSV + standalone SVG scatter, metrics CSV
# ---------------------------------------------------------------------------

_CLOUD_COLORS = {"speech": "#1f77b4", "noise": "#d62728"}
SVG_SIZE = 480                  # px, width and height of the latent scatter


def write_latent_csv(path, clouds: list[LatentCloud], pca: PcaModel) -> None:
    write_csv(path, ["frame", "label", "pc1", "pc2"],
              ([i, cloud.label, f"{p1:.6f}", f"{p2:.6f}"] for cloud in clouds
               for i, (p1, p2) in enumerate(pca_transform(pca, cloud))))


def write_latent_svg(path, clouds: list[LatentCloud], pca: PcaModel) -> None:
    """Standalone scatter of the 2-D projection, one color per label."""
    projs = [pca_transform(pca, c) for c in clouds]
    allp = np.concatenate(projs, axis=0)
    lo = allp.min(axis=0)
    hi = allp.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad, plot = 46, SVG_SIZE - 2 * 46

    def sx(v):
        return pad + plot * (v - lo[0]) / span[0]

    def sy(v):
        return pad + plot * (hi[1] - v) / span[1]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
        f'<rect x="{pad}" y="{pad}" width="{plot}" height="{plot}" '
        'fill="none" stroke="#888"/>',
        f'<text x="{SVG_SIZE / 2:.0f}" y="{SVG_SIZE - 12}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">PC 1</text>',
        f'<text x="14" y="{SVG_SIZE / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 14 {SVG_SIZE / 2:.0f})">PC 2</text>',
    ]
    for cloud, proj in zip(clouds, projs):
        color = _CLOUD_COLORS[cloud.label]
        for p1, p2 in proj:
            parts.append(f'<circle cx="{sx(p1):.2f}" cy="{sy(p2):.2f}" '
                         f'r="2.2" fill="{color}" fill-opacity="0.65"/>')
    for i, label in enumerate(sorted({c.label for c in clouds})):
        y = pad + 16 + 18 * i
        parts.append(f'<circle cx="{pad + 12}" cy="{y - 4}" r="4" '
                     f'fill="{_CLOUD_COLORS[label]}"/>')
        parts.append(f'<text x="{pad + 22}" y="{y}" font-family="sans-serif" '
                     f'font-size="12">{label}</text>')
    parts.append("</svg>")
    with new_file(path) as fh:
        fh.write("\n".join(parts) + "\n")


def write_metrics_csv(path, rows: list[dict]) -> None:
    """rows carry clip_id plus noisy/enhanced SI-SNR and LSD values."""
    cols = ["clip_id", "si_snr_noisy", "si_snr_enhanced", "lsd_noisy",
            "lsd_enhanced"]
    write_csv(path, cols, ([row["clip_id"]] + [f"{row[c]:.6f}" for c in cols[1:]]
                           for row in rows))
