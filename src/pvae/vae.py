"""Gaussian VAE over log-power-spectrum frames.

One model class serves both roles (clean speech and noise); the role flag
only selects training data. The encoder maps each F-bin frame to a diagonal
Gaussian over an L-dim latent, causally via the shared `nn.EncoderTrunk`
(FC stack + GRU) and a `gaussian_head`; the decoder mirrors the encoder in
reverse and emits a diagonal Gaussian over F bins. `FrameModel` holds what
this model and `nsvae.NsvaeModel` share.

Batched sequences are laid out time-major: a (B, T, F) batch becomes a
(T*B, F) matrix whose row t*B + b is frame t of sequence b. Every layer runs
on the whole stack at once; the same code serves training and inference.
`decode_tail` is the decoder after its GRU, so that enhancement can run the
decoder over chunks of frames (`pipeline.enhance_details`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor

VAR_FLOOR = 1e-6
LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class GaussianParams:
    """Diagonal Gaussian (mu, var) as graph Tensors; var is floored at VAR_FLOOR,
    or None where only the means were computed."""

    mu: Tensor
    var: Tensor | None


def reparameterize(q: GaussianParams, rng: np.random.Generator) -> Tensor:
    """A draw z = mu + sqrt(var) * epsilon, epsilon ~ N(0, I) from `rng`."""
    return draw(q, rng.standard_normal(q.mu.data.shape).astype(q.mu.data.dtype))


def draw(q: GaussianParams, eps: np.ndarray) -> Tensor:
    """z = mu + sqrt(var) * eps for standard-normal draws `eps`."""
    return ad.add(q.mu, ad.mul(ad.sqrt(q.var), Tensor(eps)))


def gaussian_head(h: Tensor, mu_head: nn.LinearLayer, logvar_head: nn.LinearLayer | None,
                  n_batch: int) -> GaussianParams:
    """Diagonal Gaussian (mu, var) from two linear heads; var is floored.
    Without `logvar_head` only the means are computed and var is None."""
    mu = mu_head(h, n_batch)
    if logvar_head is None:
        return GaussianParams(mu, None)
    return GaussianParams(mu, ad.clamp_min(ad.exp(logvar_head(h, n_batch)), VAR_FLOOR))


class FrameModel(nn.Module):
    """What the VAE and the NSVAE share: dimensions, the encoder trunk, the
    single-sequence `encode`, and a `config()` of exactly the constructor
    arguments in `CONFIG_KEYS`, so `type(model)(**model.config())` rebuilds
    the topology."""

    CONFIG_KEYS = ("input_dim", "hidden_dim", "latent_dim")

    def __init__(self, input_dim: int, hidden_dim: int, latent_dim: int,
                 rng: np.random.Generator | None, dtype):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.latent_dim = latent_dim
        self.dtype = np.dtype(dtype)
        self.trunk = nn.EncoderTrunk(input_dim, hidden_dim, rng, dtype)

    def config(self) -> dict:
        return {key: getattr(self, key) for key in self.CONFIG_KEYS}

    def sequence(self, frames: np.ndarray) -> Tensor:
        """One (T, F) sequence of input frames in the model's dtype."""
        arr = frames.astype(self.dtype, copy=False)
        if arr.ndim != 2 or arr.shape[1] != self.input_dim:
            raise ValueError(f"encode: expected (T, {self.input_dim}), got {arr.shape}")
        return Tensor(arr)

    def encode(self, frames: np.ndarray):
        """Single sequence (T, F) -> per-frame posteriors, causal."""
        return self.encode_batch(self.sequence(frames), n_batch=1)


class VaeModel(FrameModel):
    """Encoder (trunk + 2 linear heads) and a mirrored decoder (GRU + 3 FC-ReLU
    + 2 linear heads)."""

    CONFIG_KEYS = FrameModel.CONFIG_KEYS + ("role",)

    def __init__(self, input_dim: int = 257, hidden_dim: int = 512,
                 latent_dim: int = 128, role: str = "speech",
                 rng: np.random.Generator | None = None, dtype=np.float64):
        if role not in ("speech", "noise"):
            raise ValueError(f"role must be 'speech' or 'noise', got {role!r}")
        super().__init__(input_dim, hidden_dim, latent_dim, rng, dtype)
        self.role = role
        fc = partial(nn.LinearLayer, rng=rng, dtype=dtype)
        h = hidden_dim
        self.enc_mu = fc(h, latent_dim)
        self.enc_logvar = fc(h, latent_dim)
        self.dec_gru = nn.GruLayer(latent_dim, h, rng=rng, dtype=dtype)
        self.dec_fc = [fc(h, h, "relu") for _ in range(3)]
        self.dec_mu = fc(h, input_dim)
        self.dec_logvar = fc(h, input_dim)

    def layers(self) -> list[tuple[str, nn.Module]]:
        return ([("enc", self.trunk), ("enc.mu", self.enc_mu),
                 ("enc.logvar", self.enc_logvar), ("dec.gru", self.dec_gru)]
                + [(f"dec.fc{i}", layer) for i, layer in enumerate(self.dec_fc)]
                + [("dec.mu", self.dec_mu), ("dec.logvar", self.dec_logvar)])

    def encode_batch(self, x_stack: Tensor, n_batch: int) -> GaussianParams:
        """Posterior parameters for a time-major (T*B, F) frame stack.

        GRU state starts at zero: callers are responsible for feeding whole
        segments, never continuations.
        """
        with nn.stage("encode", n_batch):
            return gaussian_head(self.trunk(x_stack, n_batch), self.enc_mu, self.enc_logvar,
                                 n_batch)

    def decode_batch(self, z_stack: Tensor, n_batch: int) -> GaussianParams:
        """Likelihood parameters for a time-major (T*B, L) latent stack."""
        with nn.stage("decode", n_batch):
            return self.decode_tail(self.dec_gru(z_stack, n_batch), n_batch)

    def decode_tail(self, h: Tensor, n_batch: int, variances: bool = True) -> GaussianParams:
        """The decoder after its GRU, over a (T*B, hidden) stack of its states;
        without `variances` only the means (var None)."""
        for layer in self.dec_fc:
            h = layer(h, n_batch)
        return gaussian_head(h, self.dec_mu, self.dec_logvar if variances else None, n_batch)

    def decode(self, z: Tensor) -> GaussianParams:
        """Single latent sequence (T, L) -> per-frame likelihood parameters."""
        if z.data.ndim != 2 or z.data.shape[1] != self.latent_dim:
            raise ValueError(f"decode: expected (T, {self.latent_dim}), got {z.data.shape}")
        return self.decode_batch(z, n_batch=1)


# ---------------------------------------------------------------------------
# tensor-path loss terms
# ---------------------------------------------------------------------------

def gaussian_nll_sum(s: Tensor, mu: Tensor, var: Tensor) -> Tensor:
    """Summed negative log-likelihood, differentiable through mu and var."""
    quad = ad.mul(ad.square(ad.sub(s, mu)), ad.reciprocal(var))
    core = ad.add(ad.tsum(ad.log(var)), ad.tsum(quad))
    const = 0.5 * LOG_2PI * s.data.size
    return ad.add(ad.mul(core, 0.5), const)


def kl_std_normal_sum(mu: Tensor, var: Tensor) -> Tensor:
    """Summed KL to the standard-normal prior, differentiable."""
    terms = ad.sub(ad.add(ad.square(mu), var), ad.add(ad.log(var), 1.0))
    return ad.mul(ad.tsum(terms), 0.5)


def stack_time_major(batch: np.ndarray, dtype) -> np.ndarray:
    """(B, T, F) -> (T*B, F) with row t*B + b holding frame t of sequence b."""
    if batch.ndim != 3:
        raise ValueError(f"stack_time_major: expected a (B, T, F) batch, got shape {batch.shape}")
    b, t, f = batch.shape
    return np.ascontiguousarray(batch.transpose(1, 0, 2).reshape(t * b, f)).astype(dtype, copy=False)


def forward_terms(model: VaeModel, batch: np.ndarray, rng: np.random.Generator):
    """One stochastic forward pass over a (B, T, F) batch; returns per-frame mean
    NLL and KL plus the posterior-mean stack (for covariance regularizers downstream).
    """
    batch = np.asarray(batch)
    x = Tensor(stack_time_major(batch, model.dtype))
    n_batch = batch.shape[0]
    q = model.encode_batch(x, n_batch)
    p = model.decode_batch(reparameterize(q, rng), n_batch)
    n_frames = x.data.shape[0]
    inv = 1.0 / n_frames
    nll_mean = ad.mul(gaussian_nll_sum(x, p.mu, p.var), inv)
    kl_mean = ad.mul(kl_std_normal_sum(q.mu, q.var), inv)
    return nll_mean, kl_mean, q.mu

