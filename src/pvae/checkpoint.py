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

Two kinds are written: a `vae` (one pretrained VAE and its loss weights,
through `save_vae` and `load_vae` here) and a `bundle` (the three trained
models, through `pipeline.save_bundle` and `pipeline.load_bundle`).

Tensors are stored as float32 regardless of the in-memory training dtype, so
a save/load round trip is bit-exact exactly when the model runs in float32.
Models are therefore loaded, and trained, in `MODEL_DTYPE`.

A save streams each part to the file and folds it into the checksum as it
goes. A load reads the file once, hands out read-only views of its bytes,
and binds them into a model built without drawing weights (all zeros),
copying each tensor once. A config that is not a JSON object or does not
describe a model, a tensor name that is not UTF-8, and a stored weight that
is not finite raise `CheckpointError` naming the section or tensor.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

from . import CHECKPOINT_FORMAT_VERSION, new_file
from .diploss import LossWeights
from .vae import FrameModel, VaeModel

MAGIC = b"PVAE"
MODEL_DTYPE = np.float32


class CheckpointError(ValueError):
    """Malformed checkpoint; the message names the failing section."""


class WrongModelError(CheckpointError):
    """A checkpoint of another kind or role than the one asked for."""


def save_checkpoint(path, config: dict, tensors: dict[str, np.ndarray]) -> None:
    cfg = json.dumps(config, sort_keys=True).encode("utf-8")
    with new_file(path, "wb") as fh:
        crc = 0

        def write(part) -> None:
            nonlocal crc
            fh.write(part)
            crc = zlib.crc32(part, crc)

        write(MAGIC + struct.pack("<II", CHECKPOINT_FORMAT_VERSION, len(cfg)))
        write(cfg)
        write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            # asarray keeps rank-0 arrays rank 0 (ascontiguousarray would not)
            arr = np.asarray(tensors[name], dtype=np.float32)
            nb = name.encode("utf-8")
            write(struct.pack(f"<H{len(nb)}sB{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape))
            write(arr.tobytes())
        fh.write(struct.pack("<I", crc))


class _Reader:
    def __init__(self, view: memoryview):
        self.view = view
        self.pos = 0

    def take(self, n: int, section: str) -> memoryview:
        if self.pos + n > len(self.view):
            raise CheckpointError(f"{section}: truncated at byte {self.pos}")
        out = self.view[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, section: str) -> int:
        return struct.unpack("<I", self.take(4, section))[0]


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(config, {name: tensor}); each tensor is a read-only float32 view of
    the file's bytes."""
    with open(path, "rb") as fh:
        view = memoryview(fh.read())
    if len(view) < 4:
        raise CheckpointError("checksum: file too short to carry one")
    stored = struct.unpack("<I", view[-4:])[0]
    actual = zlib.crc32(view[:-4])
    if stored != actual:
        raise CheckpointError(
            f"checksum: stored {stored:#010x} != computed {actual:#010x}")

    r = _Reader(view[:-4])
    if r.take(4, "magic") != MAGIC:
        raise CheckpointError("magic: not a PVAE checkpoint")
    version = r.u32("version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"version: {version} unsupported (expected {CHECKPOINT_FORMAT_VERSION})")
    cfg_len = r.u32("config")
    try:
        config = json.loads(str(r.take(cfg_len, "config"), "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"config: invalid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise CheckpointError(f"config: expected a JSON object, got {type(config).__name__}")

    tensors: dict[str, np.ndarray] = {}
    n_tensors = r.u32("tensor table")
    for i in range(n_tensors):
        sec = f"tensor {i}"
        name_len = struct.unpack("<H", r.take(2, sec))[0]
        try:
            name = str(r.take(name_len, sec), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{sec}: name is not UTF-8 ({exc})") from None
        rank = struct.unpack("<B", r.take(1, sec))[0]
        shape = struct.unpack(f"<{rank}I", r.take(4 * rank, sec))
        data = np.frombuffer(r.take(4 * math.prod(shape), f"{sec} ({name}) data"),
                             dtype="<f4")
        try:
            tensors[name] = data.reshape(shape)
        except ValueError as exc:       # over 64 dimensions, or 0 by a huge size
            raise CheckpointError(f"{sec}: rank-{rank} shape of {name!r} ({exc})") from None
    if r.pos != len(r.view):
        raise CheckpointError(
            f"trailing data: {len(r.view) - r.pos} unexpected bytes")
    return config, tensors


def load_parameters(module, tensors: dict[str, np.ndarray], path):
    """Bind `tensors` to `module`'s parameters, whose names they must match
    exactly, each copied once into its parameter's dtype; returns `module`."""
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
        if not np.isfinite(arr).all():
            raise CheckpointError(f"tensor {name}: non-finite values")
        p.data = arr.astype(p.data.dtype)
    return module


def new_model(cls, config: dict, section: str = "model"):
    """An undrawn (all-zero) `cls(dtype=MODEL_DTYPE, **config)`, reading only
    `cls.CONFIG_KEYS`; errors name `config` as `section`."""
    if not isinstance(config, dict):
        raise CheckpointError(f"config: no {section!r} section")
    missing = [key for key in cls.CONFIG_KEYS if key not in config]
    if missing:
        raise CheckpointError(f"config: {section!r} section lacks {missing}")
    for key in FrameModel.CONFIG_KEYS:
        if type(config[key]) is not int or config[key] < 1:
            raise CheckpointError(f"config: {section!r} section: {key} must be a "
                                  f"positive integer, got {config[key]!r}")
    try:
        return cls(dtype=MODEL_DTYPE, **{key: config[key] for key in cls.CONFIG_KEYS})
    except ValueError as exc:
        raise CheckpointError(f"config: {section!r} section: {exc}") from None


def stored_weights(config: dict, key: str) -> LossWeights:
    """The `LossWeights` stored under `key`, the defaults when there are none."""
    try:
        return LossWeights(**(config.get(key) or {}))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"config: {key!r} section: {exc}") from None


def save_vae(path, model: VaeModel, weights: LossWeights) -> None:
    """Write `model` as a `vae` checkpoint with the loss `weights` it was trained under."""
    save_checkpoint(path, dict(model.config(), kind="vae", loss_weights=vars(weights)),
                    {name: p.data for name, p in model.named_parameters().items()})


def load_vae(path, role: str) -> tuple[VaeModel, LossWeights]:
    """The `role` VAE that `save_vae` wrote to `path`, and its loss weights."""
    config, tensors = load_checkpoint(path)
    if config.get("kind") != "vae":
        raise WrongModelError(f"expected a {role} VAE checkpoint, got kind {config.get('kind')!r}")
    model = new_model(VaeModel, config)
    if model.role != role:
        raise WrongModelError(f"expected a {role} VAE checkpoint, got role {model.role!r}")
    return load_parameters(model, tensors, path), stored_weights(config, "loss_weights")
