"""Checkpoint container tests.

Byte-layout oracle: a two-tensor checkpoint is assembled by hand with the
struct module and compared against save_checkpoint output; corruption tests
flip one byte at a time and expect the checksum (or a named section) to
object.
"""

import json
import struct
import zlib

import numpy as np
import pytest

from pvae import CHECKPOINT_FORMAT_VERSION
from pvae.checkpoint import (CheckpointError, load_checkpoint, load_model,
                             save_checkpoint, save_model)
from pvae.nsvae import NsvaeModel
from pvae.vae import VaeModel


def hand_blob(config, tensors):
    parts = [b"PVAE", struct.pack("<I", CHECKPOINT_FORMAT_VERSION)]
    cfg = json.dumps(config, sort_keys=True).encode()
    parts += [struct.pack("<I", len(cfg)), cfg, struct.pack("<I", len(tensors))]
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype=np.float32)
        parts += [struct.pack("<H", len(name)), name.encode(),
                  struct.pack("<B", arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
    blob = b"".join(parts)
    return blob + struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)


class TestContainer:
    def test_bytes_match_hand_assembled_layout(self, tmp_path):
        config = {"alpha": 1, "beta": [2, 3]}
        tensors = {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                   "b": np.array([1.5, -2.5], dtype=np.float32)}
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, config, tensors)
        assert path.read_bytes() == hand_blob(config, tensors)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        tensors = {"a": rng.standard_normal((4, 5)).astype(np.float32),
                   "s": np.float32(2.25).reshape(())}
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"k": "v"}, tensors)
        config, loaded = load_checkpoint(path)
        assert config == {"k": "v"}
        assert set(loaded) == {"a", "s"}
        for name in tensors:
            assert loaded[name].tobytes() == tensors[name].tobytes()
            assert loaded[name].shape == tensors[name].shape

    def test_zero_tensor_checkpoint_valid(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        save_checkpoint(path, {}, {})
        config, tensors = load_checkpoint(path)
        assert config == {} and tensors == {}

    def test_every_single_byte_corruption_detected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"n": 1}, {"w": np.ones((2, 2), np.float32)})
        blob = bytearray(path.read_bytes())
        bad = tmp_path / "bad.ckpt"
        for pos in range(len(blob)):
            corrupted = bytearray(blob)
            corrupted[pos] ^= 0xFF
            bad.write_bytes(bytes(corrupted))
            with pytest.raises(CheckpointError):
                load_checkpoint(bad)

    def test_checksum_error_names_section(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {}, {"w": np.ones(3, np.float32)})
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_wrong_magic_named(self, tmp_path):
        blob = hand_blob({}, {})
        blob = b"XXXX" + blob[4:]
        blob = blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]) & 0xFFFFFFFF)
        path = tmp_path / "m.ckpt"
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_wrong_version_named(self, tmp_path):
        blob = hand_blob({}, {})
        blob = blob[:4] + struct.pack("<I", 99) + blob[8:]
        blob = blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]) & 0xFFFFFFFF)
        path = tmp_path / "v.ckpt"
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncation_named(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {}, {"w": np.ones((8, 8), np.float32)})
        blob = path.read_bytes()[:40]
        blob = blob + struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_overflowing_shape_header_named(self, tmp_path):
        # 8 dimensions of 2^31 wrap an int64 element count to 0
        body = hand_blob({}, {})[:-8] + struct.pack("<I", 1)
        body += struct.pack("<H", 1) + b"w" + struct.pack("<B", 8)
        body += struct.pack("<8I", *[2 ** 31] * 8)
        blob = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        path = tmp_path / "o.ckpt"
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match="tensor 0"):
            load_checkpoint(path)

    def test_trailing_garbage_named(self, tmp_path):
        body = hand_blob({}, {})[:-4] + b"\x00\x00\x00\x00"
        blob = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        path = tmp_path / "t.ckpt"
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)


class TestModelIo:
    def test_vae_round_trip_bit_exact_in_float32(self, tmp_path):
        rng = np.random.default_rng(11)
        m = VaeModel(input_dim=9, hidden_dim=6, latent_dim=4, role="noise",
                     rng=rng, dtype=np.float32)
        path = tmp_path / "vae.ckpt"
        save_model(path, m)
        m2 = load_model(path)
        assert isinstance(m2, VaeModel) and m2.role == "noise"
        p1, p2 = m.named_parameters(), m2.named_parameters()
        assert set(p1) == set(p2)
        for name in p1:
            assert p1[name].data.tobytes() == p2[name].data.tobytes(), name

    def test_nsvae_round_trip_bit_exact_in_float32(self, tmp_path):
        rng = np.random.default_rng(12)
        m = NsvaeModel(input_dim=9, hidden_dim=6, latent_dim=4, rng=rng,
                       dtype=np.float32)
        path = tmp_path / "ns.ckpt"
        save_model(path, m)
        m2 = load_model(path)
        assert isinstance(m2, NsvaeModel)
        p1, p2 = m.named_parameters(), m2.named_parameters()
        for name in p1:
            assert p1[name].data.tobytes() == p2[name].data.tobytes(), name

    def test_loaded_model_reproduces_outputs(self, tmp_path):
        rng = np.random.default_rng(13)
        m = VaeModel(input_dim=7, hidden_dim=5, latent_dim=3, rng=rng,
                     dtype=np.float32)
        save_model(tmp_path / "m.ckpt", m)
        m2 = load_model(tmp_path / "m.ckpt")
        x = np.random.default_rng(0).standard_normal((4, 7)).astype(np.float32)
        q1, q2 = m.encode(x), m2.encode(x)
        assert q1.mu_array.tobytes() == q2.mu_array.tobytes()
        assert q1.var_array.tobytes() == q2.var_array.tobytes()

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "k.ckpt"
        save_checkpoint(path, {"kind": "mlp"}, {})
        with pytest.raises(CheckpointError, match="kind"):
            load_model(path)

    def test_missing_tensor_rejected(self, tmp_path):
        m = VaeModel(input_dim=5, hidden_dim=4, latent_dim=2,
                     rng=np.random.default_rng(1), dtype=np.float32)
        tensors = {n: p.data for n, p in m.named_parameters().items()}
        tensors.pop("enc.mu.bias")
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, dict(m.config(), kind="vae"), tensors)
        with pytest.raises(CheckpointError, match="enc.mu.bias"):
            load_model(path)
