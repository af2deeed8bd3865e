"""End-to-end orchestration: segment preparation, the three training loops
with early stopping, bundle serialization, and waveform-in/waveform-out
enhancement.

Enhancement runs the encoder and both decoders over the clip in chunks of
`CHUNK_FRAMES` frames, carrying the three GRU states from chunk to chunk.
The caller runs the GRU recurrences; the worker of `parallel` runs each
chunk's stacked products, as tasks of one `parallel.Tasks` block: the
trunk's FC layers and GRU input projections a chunk ahead of the caller,
and the heads, the latents and the decoders' products behind it. Every layer makes the same per-frame BLAS calls as one call over
the whole clip, so the bytes are those of `nsvae.encode` followed by
`cvae.decode` and `nvae.decode`.

Training runs in `checkpoint.MODEL_DTYPE` (float32) so that checkpoints
round-trip bit-exactly; all loops are deterministic functions of (seed,
config, dataset). The loops read their settings from the one `RunConfig`;
only the pretraining loss weights travel separately, because they are what
the ablation varies per setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import CHECKPOINT_FORMAT_VERSION, autodiff as ad, nn, parallel, write_csv
from .autodiff import Tensor
from .checkpoint import (MODEL_DTYPE, CheckpointError, load_checkpoint, load_parameters,
                         new_model, save_checkpoint, stored_weights)
from .config import RunConfig
from .datagen import MixTriple
from .diploss import LossWeights, dip_total_loss
from .dsp import Spectrogram, Waveform, istft, lps, lps_to_magnitude, stft, wiener_mask
from .nn import Adam, Module, clip_grad_norm
from .nsvae import NsvaeModel, permutation_loss
from .vae import VaeModel, draw


@dataclass
class ModelBundle(Module):
    """The three trained models, whose parameters it names `cvae.*`, `nvae.*`
    and `nsvae.*`, and each VAE's loss weights; latent dimensions must agree."""

    cvae: VaeModel
    nvae: VaeModel
    nsvae: NsvaeModel
    cvae_weights: LossWeights = field(default_factory=LossWeights)
    nvae_weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        dims = {name: model.latent_dim for name, model in self.layers()}
        if len(set(dims.values())) != 1:
            raise ValueError(f"latent dims disagree: {dims}")
        if self.cvae.role != "speech" or self.nvae.role != "noise":
            raise ValueError("bundle wants a speech cvae and a noise nvae")

    def layers(self) -> list[tuple[str, Module]]:
        return [("cvae", self.cvae), ("nvae", self.nvae), ("nsvae", self.nsvae)]


# ---------------------------------------------------------------------------
# Segment preparation
# ---------------------------------------------------------------------------

def waveform_to_lps(w: Waveform) -> np.ndarray:
    """Frame-major (T, F) log-power sequence for one clip."""
    return lps(stft(w).frames).T


def make_segments(seqs: list[np.ndarray], segment_len: int) -> np.ndarray:
    """Chop (T, F) sequences into non-overlapping (N, segment_len, F) blocks.

    Tail frames that do not fill a block are dropped; the GRU state is
    implicitly reset at every block boundary because forward passes always
    start from the zero state.
    """
    out = []
    for seq in seqs:
        n_blocks = seq.shape[0] // segment_len
        for i in range(n_blocks):
            out.append(seq[i * segment_len:(i + 1) * segment_len])
    if not out:
        raise ValueError(
            f"no clip provides even one {segment_len}-frame segment")
    return np.stack(out)


def _split(n: int, val_fraction: float, rng: np.random.Generator):
    if n < 2:
        raise ValueError("need at least 2 segments for a train/val split")
    perm = rng.permutation(n)
    n_val = min(max(1, int(round(n * val_fraction))), n - 1)
    return perm[n_val:], perm[:n_val]


# ---------------------------------------------------------------------------
# Generic epoch loop
# ---------------------------------------------------------------------------

def _run_training(model, batch_loss, segments, cfg: RunConfig):
    """Adam + gradient clipping + patience-based early stopping.

    batch_loss(indices, rng) -> scalar loss Tensor over those segments.
    Loads the best-validation weights back into `model` and returns the log,
    a list of (epoch, train, val).
    """
    split_rng = np.random.default_rng(cfg.seed + 1)
    shuffle_rng = np.random.default_rng(cfg.seed + 2)
    eps_rng = np.random.default_rng(cfg.seed + 3)
    train_idx, val_idx = _split(len(segments), cfg.val_fraction, split_rng)

    params = model.named_parameters()
    opt = Adam(list(params.values()), lr=cfg.lr)
    log: list[tuple[int, float, float]] = []
    best_val = np.inf
    best_params = {n: p.data.copy() for n, p in params.items()}
    bad_epochs = 0

    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_idx))
        total, count = 0.0, 0
        for lo in range(0, len(order), cfg.batch_size):
            chunk = train_idx[order[lo:lo + cfg.batch_size]]
            loss = batch_loss(chunk, eps_rng)
            opt.zero_grad()
            ad.backward(loss)
            clip_grad_norm(list(params.values()), 5.0)
            opt.step()
            total += loss.item() * len(chunk)
            count += len(chunk)
        train_loss = total / count

        # fresh generator each epoch: identical validation draws keep the
        # early-stopping signal comparable across epochs
        val_rng = np.random.default_rng(cfg.seed + 4)
        with ad.no_grad():
            vtotal = 0.0
            for lo in range(0, len(val_idx), cfg.batch_size):
                chunk = val_idx[lo:lo + cfg.batch_size]
                vtotal += batch_loss(chunk, val_rng).item() * len(chunk)
            val_loss = vtotal / len(val_idx)

        log.append((epoch, train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_params = {n: p.data.copy() for n, p in params.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break

    for name, p in params.items():
        p.data = best_params[name]
    return log


# ---------------------------------------------------------------------------
# Training entry points
# ---------------------------------------------------------------------------

def pretrain_vae(role: str, dataset: list[Waveform], cfg: RunConfig,
                 weights: LossWeights):
    """Train one VAE of `cfg`'s width on clean clips of its role under the
    loss `weights`; returns (model, log)."""
    if not dataset:
        raise ValueError("dataset is empty")
    segments = make_segments([waveform_to_lps(w) for w in dataset],
                             cfg.segment_len).astype(MODEL_DTYPE)
    model = VaeModel(input_dim=segments.shape[2], hidden_dim=cfg.hidden_dim,
                     latent_dim=cfg.latent_dim, role=role,
                     rng=np.random.default_rng(cfg.seed), dtype=MODEL_DTYPE)

    def batch_loss(idx, rng):
        return dip_total_loss(model, segments[idx], weights, rng)

    log = _run_training(model, batch_loss, segments, cfg)
    return model, log


def train_nsvae(cvae: VaeModel, nvae: VaeModel, triples: list[MixTriple],
                cfg: RunConfig):
    """Match NSVAE posteriors to the frozen pretrained ones; (model, log).

    The NSVAE takes its width and latent size from `cvae`, whose posteriors
    it must match.
    """
    if not triples:
        raise ValueError("no training triples")
    if cvae.latent_dim != nvae.latent_dim:
        raise ValueError(
            f"latent dims disagree: {cvae.latent_dim} vs {nvae.latent_dim}")
    cvae.freeze()
    nvae.freeze()

    seqs = [(waveform_to_lps(t.mixture), waveform_to_lps(t.speech),
             waveform_to_lps(t.noise)) for t in triples]
    y = make_segments([s[0] for s in seqs], cfg.segment_len).astype(MODEL_DTYPE)
    x = make_segments([s[1] for s in seqs], cfg.segment_len).astype(MODEL_DTYPE)
    v = make_segments([s[2] for s in seqs], cfg.segment_len).astype(MODEL_DTYPE)

    model = NsvaeModel(input_dim=y.shape[2], hidden_dim=cvae.hidden_dim,
                       latent_dim=cvae.latent_dim,
                       rng=np.random.default_rng(cfg.seed), dtype=MODEL_DTYPE)

    def batch_loss(idx, rng):
        return permutation_loss(model, cvae, nvae, y[idx], x[idx], v[idx])

    log = _run_training(model, batch_loss, y, cfg)
    return model, log


# ---------------------------------------------------------------------------
# Enhancement
# ---------------------------------------------------------------------------

@dataclass
class EnhanceResult:
    enhanced: Waveform
    mask: np.ndarray              # (F, N) in (0, 1)
    z_speech: np.ndarray          # (T, L) latents fed to the decoders
    z_noise: np.ndarray


CHUNK_FRAMES = 64       # frames per chunk of the enhancement chain


def enhance_details(bundle: ModelBundle, noisy: Waveform,
                    rng: np.random.Generator | None = None) -> EnhanceResult:
    """Masked enhancement with the mask and the latents exposed for analysis.

    Without `rng` the decoders see the posterior means, so the output is a
    deterministic function of `bundle` and `noisy`; with `rng` each latent is
    drawn from its posterior through the reparameterization, the speech
    draws of the whole clip first, then the noise draws.
    """
    spec = stft(noisy)
    ns = bundle.nsvae
    y = ns.sequence(lps(spec.frames).T).data
    eps = None if rng is None else tuple(
        rng.standard_normal((len(y), ns.latent_dim)).astype(ns.dtype) for _ in range(2))
    (z_x, z_v), (x_mu, v_mu) = _encode_decode(bundle, y, eps)
    mask = wiener_mask(lps_to_magnitude(x_mu.T), lps_to_magnitude(v_mu.T))
    return EnhanceResult(enhanced=istft(Spectrogram(mask * spec.frames)), mask=mask,
                         z_speech=z_x, z_noise=z_v)


def _encode_decode(bundle: ModelBundle, y: np.ndarray,
                   eps: tuple[np.ndarray, np.ndarray] | None):
    """([z_x, z_v], [x_mu, v_mu]) of the (T, F) noisy sequence `y`, chunk by
    chunk: the latents, which are the posterior means or, given the speech
    and noise draws `eps`, (T, L) each, the reparameterized samples; and the
    decoders' means. A stage's `NumericError` names the clip frame."""
    ns, decoders = bundle.nsvae, (bundle.cvae, bundle.nvae)
    spans = [(lo, min(lo + CHUNK_FRAMES, len(y))) for lo in range(0, len(y), CHUNK_FRAMES)]
    z = [np.empty((len(y), ns.latent_dim), ns.dtype) for _ in decoders]
    means = [np.empty((len(y), d.input_dim), d.dtype) for d in decoders]

    # the worker's stages; `no_grad` holds per thread, so each enters it
    def front(k):           # the trunk's FC layers and GRU input projections
        lo, hi = spans[k]
        with ad.no_grad(), nn.stage("encode", 1, lo):
            return ns.trunk.gru.project(ns.trunk.front(Tensor(y[lo:hi]), 1), 1)

    def heads(k, h):        # the latents and the decoders' GRU input projections
        lo, hi = spans[k]
        with ad.no_grad():
            with nn.stage("encode", 1, lo):
                posteriors = ns.heads(Tensor(h), 1, variances=eps is not None)
            projections = []
            for q, d, zs, e in zip(posteriors, decoders, z, eps or (None, None)):
                zs[lo:hi] = (q.mu if e is None else draw(q, e[lo:hi])).data
                projections.append(d.dec_gru.project(Tensor(zs[lo:hi]), 1))
            return projections

    def tails(k, hs):       # the decoders' FC layers and mean heads
        lo, hi = spans[k]
        with ad.no_grad(), nn.stage("decode", 1, lo):
            for d, h, out in zip(decoders, hs, means):
                out[lo:hi] = d.decode_tail(Tensor(h), 1, variances=False).mu.data

    # step k: the worker runs heads(k-1), front(k+1) and tails(k-2) in that
    # order while this thread runs the encoder's recurrence over chunk k and
    # then, once heads(k-1) is done, the decoders' over chunk k-1
    n = len(spans)
    enc_h = ns.trunk.gru.initial_state(1).data
    dec_h = [d.dec_gru.initial_state(1).data for d in decoders]
    enc_states = dec_states = None      # of the last chunk each recurrence ran
    with parallel.Tasks() as tasks:
        fronts, latents = {0: tasks.start(partial(front, 0))}, {}
        for k in range(n + 2):
            if 1 <= k <= n:
                latents[k - 1] = tasks.start(partial(heads, k - 1, enc_states))
            if k + 1 < n:
                fronts[k + 1] = tasks.start(partial(front, k + 1))
            if k >= 2:
                tasks.start(partial(tails, k - 2, dec_states))
            if k < n:
                projection = fronts.pop(k).result()
                with nn.stage("encode", 1, spans[k][0]):
                    hs = ns.trunk.gru.recur(projection, enc_h)
                enc_h, enc_states = hs[-1], hs[1:, 0]
            if 1 <= k <= n:
                projections = latents.pop(k - 1).result()
                with nn.stage("decode", 1, spans[k - 1][0]):
                    hs = [d.dec_gru.recur(p, h) for d, p, h in zip(decoders, projections, dec_h)]
                dec_h, dec_states = [h[-1] for h in hs], [h[1:, 0] for h in hs]
    return z, means


def enhance(bundle: ModelBundle, noisy: Waveform,
            rng: np.random.Generator | None = None) -> Waveform:
    """The enhanced waveform of `enhance_details`; `rng` selects sampled latents."""
    return enhance_details(bundle, noisy, rng).enhanced


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_training_log(path, log) -> None:
    write_csv(path, ["epoch", "train_loss", "val_loss"],
              ([epoch, repr(float(train)), repr(float(val))] for epoch, train, val in log))


def save_bundle(path, bundle: ModelBundle) -> None:
    config = {
        "kind": "bundle",
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "cvae_weights": vars(bundle.cvae_weights),
        "nvae_weights": vars(bundle.nvae_weights),
        **{name: model.config() for name, model in bundle.layers()},
    }
    save_checkpoint(path, config, {name: p.data for name, p in bundle.named_parameters().items()})


def load_bundle(path) -> ModelBundle:
    config, tensors = load_checkpoint(path)
    if config.get("kind") != "bundle":
        raise CheckpointError(
            f"config: expected a bundle, got kind {config.get('kind')!r}")
    models = {name: new_model(cls, config.get(name), name) for name, cls in
              (("cvae", VaeModel), ("nvae", VaeModel), ("nsvae", NsvaeModel))}
    weights = {key: stored_weights(config, key) for key in ("cvae_weights", "nvae_weights")}
    try:
        bundle = ModelBundle(**models, **weights)
    except ValueError as exc:
        raise CheckpointError(f"config: {exc}") from None
    return load_parameters(bundle, tensors, path)
