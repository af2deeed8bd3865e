"""Disentangling loss: batch covariance of posterior means, the
off-diagonal/diagonal penalty, and the combined training objective.

The regularizer acts on Cov(mu) only (the cheap variant of the two in
circulation); the full total covariance, diag(mean var) + Cov(mu), lives
with the tests as a Monte-Carlo check of `mean_covariance`.

Weight setting grid used by the ablation (beta, lambda_od, lambda_d):
  (1) (1, 0,    0)    plain VAE
  (2) (1, 1e4,  1e2)  VAE + disentangling penalty
  (3) (0, 0,    0)    reconstruction only, no KL
  (4) (0, 1e4,  1e2)  no KL, with penalty
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import vae as vae_mod
from .autodiff import Tensor
from .vae import VaeModel


@dataclass(frozen=True)
class LossWeights:
    beta: float = 1.0
    lambda_od: float = 0.0
    lambda_d: float = 0.0

    def __post_init__(self):
        for name in ("beta", "lambda_od", "lambda_d"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


# the four ablation settings, numbered as in reports
SETTINGS = {
    1: LossWeights(beta=1.0, lambda_od=0.0, lambda_d=0.0),
    2: LossWeights(beta=1.0, lambda_od=1e4, lambda_d=1e2),
    3: LossWeights(beta=0.0, lambda_od=0.0, lambda_d=0.0),
    4: LossWeights(beta=0.0, lambda_od=1e4, lambda_d=1e2),
}


def mean_covariance(m: Tensor) -> Tensor:
    """Population covariance (1/B) sum (mu_b - mean)(mu_b - mean)^T of a
    (B, L) matrix of posterior means.

    The batch axis is treated as i.i.d. draws regardless of which utterance
    a frame came from.
    """
    if m.data.ndim != 2:
        raise ValueError(f"expected a (batch, L) matrix, got shape {m.data.shape}")
    n = m.data.shape[0]
    if n < 2:
        raise ValueError(f"mean_covariance: need a batch of >= 2, got {n}")
    mu_bar = ad.tmean(m, axis=0)
    centered = ad.sub(m, ad.broadcast_rows(mu_bar, n))
    return ad.mul(ad.matmul(ad.transpose(centered), centered), 1.0 / n)


def dip_regularizer(c: Tensor, w: LossWeights) -> Tensor:
    """lambda_od * sum_{i != j} C_ij^2 + lambda_d * sum_i (C_ii - 1)^2."""
    if c.data.ndim != 2 or c.data.shape[0] != c.data.shape[1]:
        raise ValueError(f"dip_regularizer: expected square matrix, got {c.data.shape}")
    dim = c.data.shape[0]
    eye = np.eye(dim, dtype=c.data.dtype)
    off_mask = Tensor(1.0 - eye)
    diag_mask = Tensor(eye)
    off_term = ad.tsum(ad.square(ad.mul(c, off_mask)))
    diag_term = ad.tsum(ad.square(ad.mul(ad.sub(c, Tensor(eye)), diag_mask)))
    return ad.add(ad.mul(off_term, w.lambda_od), ad.mul(diag_term, w.lambda_d))


def dip_total_loss(model: VaeModel, batch: np.ndarray, w: LossWeights,
                   rng: np.random.Generator) -> Tensor:
    """Per-frame mean NLL + beta * KL + covariance penalty, to minimize.

    Zero-weight terms are skipped rather than multiplied by zero, so the
    (beta=1, lambdas=0) case is the plain ELBO objective bit for bit, and
    beta=0 never even touches the KL in the graph.
    """
    if np.asarray(batch).size == 0:
        raise ValueError("dip_total_loss: empty batch")
    nll_mean, kl_mean, mu_stack = vae_mod.forward_terms(model, batch, rng)
    loss = nll_mean
    if w.beta == 1.0:
        loss = ad.add(loss, kl_mean)
    elif w.beta != 0.0:
        loss = ad.add(loss, ad.mul(kl_mean, w.beta))
    if w.lambda_od != 0.0 or w.lambda_d != 0.0:
        if mu_stack.data.shape[0] < 2:
            raise ValueError("dip_total_loss: covariance penalty needs >= 2 frames")
        loss = ad.add(loss, dip_regularizer(mean_covariance(mu_stack), w))
    return loss
