"""Noisy-speech encoder with two posterior heads and its KL-matching loss.

The model sees only noisy LPS frames and predicts, per frame, a Gaussian
posterior over the speech latent and one over the noise latent. It is
trained purely by matching those posteriors (in closed-form KL) to the
posteriors that the frozen pretrained models assign to the clean speech
and the noise that made up the mixture. No decoder exists here: at
inference the pretrained decoders consume this encoder's latents.

The model is built on the same skeleton as the pretrained VAEs: the shared
`nn.EncoderTrunk` and `gaussian_head`, run on whole time-major stacks.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .vae import FrameModel, GaussianParams, VaeModel, gaussian_head, stack_time_major


class NsvaeModel(FrameModel):
    """Encoder trunk, a widening FC, and four parallel linear heads."""

    def __init__(self, input_dim: int = 257, hidden_dim: int = 512,
                 latent_dim: int = 128, rng: np.random.Generator | None = None,
                 dtype=np.float64):
        super().__init__(input_dim, hidden_dim, latent_dim, rng, dtype)
        fc = partial(nn.LinearLayer, rng=rng, dtype=dtype)
        h = hidden_dim
        self.fc_wide = fc(h, 2 * h, "relu")
        self.head_mu_x = fc(2 * h, latent_dim)
        self.head_logvar_x = fc(2 * h, latent_dim)
        self.head_mu_v = fc(2 * h, latent_dim)
        self.head_logvar_v = fc(2 * h, latent_dim)

    def layers(self) -> list[tuple[str, nn.Module]]:
        return [("trunk", self.trunk), ("trunk.wide", self.fc_wide),
                ("head.mu_x", self.head_mu_x), ("head.logvar_x", self.head_logvar_x),
                ("head.mu_v", self.head_mu_v), ("head.logvar_v", self.head_logvar_v)]

    def encode_batch(self, y_stack: Tensor, n_batch: int) -> tuple[GaussianParams, GaussianParams]:
        """Dual posteriors (speech, noise) for a time-major (T*B, F) stack of
        noisy frames."""
        with nn.stage("encode", n_batch):
            return self.heads(self.trunk(y_stack, n_batch), n_batch)

    def heads(self, h: Tensor, n_batch: int,
              variances: bool = True) -> tuple[GaussianParams, GaussianParams]:
        """The encoder after its trunk, over a (T*B, hidden) stack of the trunk's
        states: (speech, noise); without `variances` only the means (var None)."""
        wide = self.fc_wide(h, n_batch)
        return tuple(gaussian_head(wide, mu, logvar if variances else None, n_batch)
                     for mu, logvar in ((self.head_mu_x, self.head_logvar_x),
                                        (self.head_mu_v, self.head_logvar_v)))


def kl_diag_sum(mu1: Tensor, var1: Tensor, mu2: Tensor, var2: Tensor) -> Tensor:
    """Differentiable summed KL; gradients flow through the first argument."""
    ratio = ad.mul(ad.add(var1, ad.square(ad.sub(mu1, mu2))), ad.reciprocal(var2))
    logs = ad.sub(ad.log(var2), ad.log(var1))
    return ad.mul(ad.tsum(ad.sub(ad.add(logs, ratio), 1.0)), 0.5)


def permutation_loss(ns: NsvaeModel, cvae: VaeModel, nvae: VaeModel,
                     y: np.ndarray, x: np.ndarray, v: np.ndarray) -> Tensor:
    """Per-frame mean of KL(q(zx|y) || q(zx|x)) + KL(q(zv|y) || q(zv|v)).

    `y`, `x`, `v` are aligned (B, T, F) LPS batches of the mixture and its
    two components. The pretrained encoders provide constant targets; only
    NSVAE parameters receive gradients.
    """
    y, x, v = (np.asarray(a) for a in (y, x, v))
    if not (y.shape == x.shape == v.shape):
        raise ValueError(f"aligned batches required, got {y.shape}, {x.shape}, {v.shape}")
    if cvae.latent_dim != ns.latent_dim or nvae.latent_dim != ns.latent_dim:
        raise ValueError(
            f"latent dims disagree: nsvae {ns.latent_dim}, "
            f"cvae {cvae.latent_dim}, nvae {nvae.latent_dim}")
    n_batch = y.shape[0]

    qx_y, qv_y = ns.encode_batch(Tensor(stack_time_major(y, ns.dtype)), n_batch)
    with ad.no_grad():
        tx = cvae.encode_batch(Tensor(stack_time_major(x, cvae.dtype)), n_batch)
        tv = nvae.encode_batch(Tensor(stack_time_major(v, nvae.dtype)), n_batch)

    n_frames = y.shape[0] * y.shape[1]
    total = ad.add(kl_diag_sum(qx_y.mu, qx_y.var, tx.mu, tx.var),
                   kl_diag_sum(qv_y.mu, qv_y.var, tv.mu, tv.var))
    return ad.mul(total, 1.0 / n_frames)
