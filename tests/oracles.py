"""Reference forms the tests check the training losses against: numpy
closed forms of the log-likelihood and the two KL terms, the plain ELBO
that `dip_total_loss(beta=1)` must reduce to, and the total covariance of
the latent posterior that the Monte-Carlo oracle of criterion 2 samples."""

import numpy as np

from pvae import autodiff as ad
from pvae.autodiff import Tensor
from pvae.diploss import mean_covariance
from pvae.vae import GaussianParams, VaeModel, forward_terms


def gaussian_log_likelihood(s: np.ndarray, mu: np.ndarray, var: np.ndarray) -> float:
    """log N(s; mu, diag var) = -1/2 sum[ log(2 pi var) + (s-mu)^2/var ]."""
    if s.shape != mu.shape:
        raise ValueError(f"log-likelihood: shape mismatch {s.shape} vs {mu.shape}")
    if np.any(var <= 0):
        raise ValueError("log-likelihood: variance must be positive")
    return float(-0.5 * np.sum(np.log(2.0 * np.pi * var) + (s - mu) ** 2 / var))


def kl_to_standard_normal(mu: np.ndarray, var: np.ndarray) -> float:
    """KL( N(mu, diag var) || N(0, I) ) = 1/2 sum(mu^2 + var - log var - 1)."""
    if np.any(var <= 0):
        raise ValueError("kl: variance must be positive")
    return float(0.5 * np.sum(mu * mu + var - np.log(var) - 1.0))


def kl_diag_gaussians(mu1: np.ndarray, var1: np.ndarray,
                      mu2: np.ndarray, var2: np.ndarray) -> float:
    """KL( N(mu1, var1) || N(mu2, var2) ), both diagonal.

    = 1/2 sum_i [ log(var2_i/var1_i) + (var1_i + (mu1_i - mu2_i)^2)/var2_i - 1 ]
    """
    if mu1.shape != mu2.shape:
        raise ValueError(f"kl: shape mismatch {mu1.shape} vs {mu2.shape}")
    if np.any(var1 <= 0) or np.any(var2 <= 0):
        raise ValueError("kl: variances must be positive")
    return float(0.5 * np.sum(np.log(var2 / var1)
                              + (var1 + (mu1 - mu2) ** 2) / var2 - 1.0))


def elbo_loss(model: VaeModel, batch: np.ndarray, rng: np.random.Generator) -> Tensor:
    """Negated single-sample ELBO, averaged per frame (a minimization target)."""
    if np.asarray(batch).size == 0:
        raise ValueError("elbo_loss: empty batch")
    nll_mean, kl_mean, _ = forward_terms(model, batch, rng)
    return ad.add(nll_mean, kl_mean)


def total_covariance(params: GaussianParams) -> Tensor:
    """diag(mean var) + Cov(mu): the covariance of z pooled over the batch."""
    cov_mu = mean_covariance(params.mu)
    dim = cov_mu.data.shape[0]
    eye = Tensor(np.eye(dim, dtype=cov_mu.data.dtype))
    mean_var = ad.tmean(params.var, axis=0)
    return ad.add(cov_mu, ad.mul(eye, ad.broadcast_rows(mean_var, dim)))
