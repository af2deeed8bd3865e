"""Self-describing binary checkpoints.

Layout (all integers little-endian):

    magic  b"PVAE"
    u32    format version
    u32    config length, then that many bytes of JSON (sorted keys, utf-8)
    u32    tensor count
    per tensor, in sorted name order:
        u16  name length, then the utf-8 name
        u8   rank
        u32  per-dimension sizes
        f32  payload, C order
    u32    CRC-32 of every preceding byte

Tensors are stored as float32 regardless of the in-memory training dtype, so
a save/load round trip is bit-exact exactly when the model runs in float32.
Models are therefore loaded, and trained, in `MODEL_DTYPE`.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

from . import CHECKPOINT_FORMAT_VERSION
from .diploss import LossWeights
from .nsvae import NsvaeModel
from .vae import VaeModel

MAGIC = b"PVAE"
MODEL_DTYPE = np.float32


class CheckpointError(ValueError):
    """Malformed checkpoint; the message names the failing section."""


def save_checkpoint(path, config: dict, tensors: dict[str, np.ndarray]) -> None:
    parts = [MAGIC, struct.pack("<I", CHECKPOINT_FORMAT_VERSION)]
    cfg = json.dumps(config, sort_keys=True).encode("utf-8")
    parts.append(struct.pack("<I", len(cfg)))
    parts.append(cfg)
    parts.append(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        # asarray keeps rank-0 arrays rank 0 (ascontiguousarray would not)
        arr = np.asarray(tensors[name], dtype=np.float32)
        if not arr.flags.c_contiguous:
            arr = arr.copy()
        nb = name.encode("utf-8")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    blob = b"".join(parts)
    blob += struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)
    with open(path, "wb") as fh:
        fh.write(blob)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, section: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"{section}: truncated at byte {self.pos}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, section: str) -> int:
        return struct.unpack("<I", self.take(4, section))[0]


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise CheckpointError("checksum: file too short to carry one")
    stored = struct.unpack("<I", blob[-4:])[0]
    actual = zlib.crc32(blob[:-4]) & 0xFFFFFFFF
    if stored != actual:
        raise CheckpointError(
            f"checksum: stored {stored:#010x} != computed {actual:#010x}")

    r = _Reader(blob[:-4])
    if r.take(4, "magic") != MAGIC:
        raise CheckpointError("magic: not a PVAE checkpoint")
    version = r.u32("version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"version: {version} unsupported (expected {CHECKPOINT_FORMAT_VERSION})")
    cfg_len = r.u32("config")
    try:
        config = json.loads(r.take(cfg_len, "config").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"config: invalid JSON ({exc})") from exc

    tensors: dict[str, np.ndarray] = {}
    n_tensors = r.u32("tensor table")
    for i in range(n_tensors):
        sec = f"tensor {i}"
        name_len = struct.unpack("<H", r.take(2, sec))[0]
        name = r.take(name_len, sec).decode("utf-8")
        rank = struct.unpack("<B", r.take(1, sec))[0]
        shape = struct.unpack(f"<{rank}I", r.take(4 * rank, sec))
        count = math.prod(shape)
        data = np.frombuffer(r.take(4 * count, f"{sec} ({name}) data"),
                             dtype="<f4").reshape(shape)
        tensors[name] = data.astype(np.float32)
    if r.pos != len(r.blob):
        raise CheckpointError(
            f"trailing data: {len(r.blob) - r.pos} unexpected bytes")
    return config, tensors


MODEL_KINDS = {"vae": VaeModel, "nsvae": NsvaeModel}


def load_parameters(module, tensors: dict[str, np.ndarray], path):
    """Bind `tensors` to `module`'s parameters, whose names they must match
    exactly, each cast to its parameter's dtype; returns `module`."""
    params = module.named_parameters()
    missing = sorted(set(params) - set(tensors))
    extra = sorted(set(tensors) - set(params))
    if missing or extra:
        raise CheckpointError(
            f"tensor table: mismatched names in {path} "
            f"(missing {missing[:3]}, unexpected {extra[:3]})")
    for name, p in params.items():
        arr = tensors[name]
        if arr.shape != p.data.shape:
            raise CheckpointError(
                f"tensor {name}: shape {arr.shape} != model {p.data.shape}")
        p.data = arr.astype(p.data.dtype)
    return module


def new_model(cls, config: dict, section: str = "model"):
    """`cls(dtype=MODEL_DTYPE, **config)`, reading only `cls.CONFIG_KEYS`;
    errors name `config` as `section`."""
    if not isinstance(config, dict):
        raise CheckpointError(f"config: no {section!r} section")
    missing = [key for key in cls.CONFIG_KEYS if key not in config]
    if missing:
        raise CheckpointError(f"config: {section!r} section lacks {missing}")
    return cls(dtype=MODEL_DTYPE, **{key: config[key] for key in cls.CONFIG_KEYS})


def build_model(cls, config: dict, tensors: dict[str, np.ndarray], path):
    """A new `cls` model from `config` holding `tensors`."""
    return load_parameters(new_model(cls, config), tensors, path)


def stored_weights(config: dict, key: str) -> LossWeights:
    """The `LossWeights` stored under `key`, the defaults when there are none."""
    try:
        return LossWeights(**(config.get(key) or {}))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"config: {key!r} section: {exc}") from None


def save_model(path, model, extra_config: dict | None = None) -> None:
    kind = "nsvae" if isinstance(model, NsvaeModel) else "vae"
    config = dict(model.config(), kind=kind, **(extra_config or {}))
    save_checkpoint(path, config, {name: p.data for name, p in model.named_parameters().items()})


def load_model(path):
    config, tensors = load_checkpoint(path)
    kind = config.get("kind")
    cls = MODEL_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise CheckpointError(f"config: unknown model kind {kind!r}")
    return build_model(cls, config, tensors, path)
