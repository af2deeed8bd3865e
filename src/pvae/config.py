"""Flat `key = value` run configuration.

One file drives every command: topology, training hyperparameters, loss
weights, synthetic-data sizing, and the seed. Defaults are the full-scale
values; desk-scale runs override the topology and dataset keys. `RunConfig`
is the one config object: the training loops read it directly, and it checks
its topology, training, loss-weight and data values when built, naming the key
of a rejected value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .diploss import LossWeights
from .dsp import FRAME_LEN, HOP, SAMPLE_RATE

MAX_SAMPLES = 2.0 ** 62        # a clip's sample count stays an int64 well clear of overflow


@dataclass
class RunConfig:
    # topology
    hidden_dim: int = 512
    latent_dim: int = 128
    # training
    max_epochs: int = 500
    patience: int = 20
    batch_size: int = 128
    lr: float = 1e-4
    segment_len: int = 64
    val_fraction: float = 0.2
    seed: int = 0
    # pretraining loss
    beta: float = 1.0
    lambda_od: float = 0.0
    lambda_d: float = 0.0
    # synthetic data
    n_speech: int = 40
    n_noise: int = 40
    n_eval: int = 8
    duration_s: float = 2.5
    snr_lo: float = -10.0
    snr_hi: float = 15.0
    snr_eval: float = 0.0
    # optional WAV ingestion root with speech/ and noise/ subdirectories;
    # empty means synthesize
    data_dir: str = ""

    def __post_init__(self):
        for key in ("hidden_dim", "latent_dim", "max_epochs", "patience", "batch_size",
                    "segment_len", "n_speech", "n_noise", "n_eval"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1, got {getattr(self, key)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.duration_s < math.inf:
            raise ValueError(f"duration_s must be finite and positive, got {self.duration_s}")
        if not self.duration_s * SAMPLE_RATE < MAX_SAMPLES:
            raise ValueError(f"duration_s must give fewer than 2**62 samples at {SAMPLE_RATE} Hz, "
                             f"got {self.duration_s}")
        if not self.data_dir:
            # STFT frames of one synthesized clip
            samples = round(self.duration_s * SAMPLE_RATE)
            frames = max((samples - FRAME_LEN) // HOP + 1, 0)
            if self.segment_len > frames:
                raise ValueError(f"segment_len must not exceed the {frames} frames of one "
                                 f"duration_s = {self.duration_s} clip, got {self.segment_len}")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if self.patience >= self.max_epochs:
            raise ValueError(f"patience must be smaller than max_epochs, got "
                             f"{self.patience} >= {self.max_epochs}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must lie in (0, 1), got {self.val_fraction}")
        self.loss_weights()          # LossWeights names a rejected weight by its key
        for key in ("snr_lo", "snr_hi", "snr_eval"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if self.snr_lo > self.snr_hi:
            raise ValueError(f"snr_lo must not exceed snr_hi, got {self.snr_lo} > {self.snr_hi}")

    def loss_weights(self) -> LossWeights:
        return LossWeights(beta=self.beta, lambda_od=self.lambda_od,
                           lambda_d=self.lambda_d)

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=seed)


def parse_config_text(text: str) -> RunConfig:
    """Parse `key = value` lines; `#` starts a comment, blanks are skipped."""
    types = {f.name: f.type for f in fields(RunConfig)}
    casts = {"int": int, "float": float, "str": str}
    seen: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in types:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            seen[key] = casts[types[key]](value)
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: bad {types[key]} for {key!r}: {value!r}") from exc
    return RunConfig(**seen)


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config_text(fh.read())
