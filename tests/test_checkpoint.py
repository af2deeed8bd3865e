"""Checkpoint container tests.

Byte-layout oracle: a two-tensor checkpoint is assembled by hand with the
struct module and compared against save_checkpoint output; corruption tests
flip one byte at a time and expect the checksum (or a named section) to
object.
"""

import json
import struct
import tracemalloc
import zlib
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pvae.cli
from pvae import CHECKPOINT_FORMAT_VERSION, new_file
from pvae.checkpoint import CheckpointError, load_checkpoint, load_vae, save_checkpoint, save_vae
from pvae.diploss import SETTINGS, LossWeights
from pvae.nsvae import NsvaeModel
from pvae.pipeline import ModelBundle, load_bundle, save_bundle
from pvae.vae import VaeModel


# the VAE reader, for the tests that run every reader
load_speech_vae = partial(load_vae, role="speech")


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


def with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def tiny_bundle():
    """A bundle whose every dimension, the NSVAE's 2H included, is one digit."""
    kw = dict(input_dim=7, hidden_dim=4, latent_dim=3, rng=np.random.default_rng(7),
              dtype=np.float32)
    return ModelBundle(cvae=VaeModel(role="speech", **kw), nvae=VaeModel(role="noise", **kw),
                       nsvae=NsvaeModel(**kw))


def saved_parameters(module):
    return {name: p.data.tobytes() for name, p in module.named_parameters().items()}


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
            with new_file(bad, "wb") as fh:
                fh.write(bytes(corrupted))
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

    @pytest.mark.parametrize("shape", [(0, 2 ** 32 - 1, 2 ** 32 - 1), (0,) * 65],
                             ids=["zero-by-huge", "rank-65"])
    def test_unrepresentable_empty_shape_named(self, tmp_path, shape):
        body = hand_blob({}, {})[:-8] + struct.pack("<I", 1)
        body += struct.pack("<H", 1) + b"w" + struct.pack(f"<B{len(shape)}I", len(shape), *shape)
        path = tmp_path / "e.ckpt"
        path.write_bytes(with_crc(body))
        with pytest.raises(CheckpointError, match="^tensor 0: rank-"):
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
        save_vae(path, m, SETTINGS[4])
        m2, weights = load_vae(path, "noise")
        assert isinstance(m2, VaeModel) and m2.role == "noise"
        assert weights == SETTINGS[4]
        p1, p2 = m.named_parameters(), m2.named_parameters()
        assert set(p1) == set(p2)
        for name in p1:
            assert p1[name].data.tobytes() == p2[name].data.tobytes(), name

    def test_loaded_model_reproduces_outputs(self, tmp_path):
        rng = np.random.default_rng(13)
        m = VaeModel(input_dim=7, hidden_dim=5, latent_dim=3, rng=rng,
                     dtype=np.float32)
        save_vae(tmp_path / "m.ckpt", m, LossWeights())
        m2, _ = load_vae(tmp_path / "m.ckpt", "speech")
        x = np.random.default_rng(0).standard_normal((4, 7)).astype(np.float32)
        q1, q2 = m.encode(x), m2.encode(x)
        assert q1.mu.data.tobytes() == q2.mu.data.tobytes()
        assert q1.var.data.tobytes() == q2.var.data.tobytes()

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "k.ckpt"
        save_checkpoint(path, {"kind": "mlp"}, {})
        with pytest.raises(CheckpointError, match="kind"):
            load_vae(path, "speech")

    def test_missing_tensor_rejected(self, tmp_path):
        m = VaeModel(input_dim=5, hidden_dim=4, latent_dim=2,
                     rng=np.random.default_rng(1), dtype=np.float32)
        tensors = {n: p.data for n, p in m.named_parameters().items()}
        tensors.pop("enc.mu.bias")
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, dict(m.config(), kind="vae"), tensors)
        with pytest.raises(CheckpointError, match="enc.mu.bias"):
            load_vae(path, "speech")


class TestMalformedInput:
    """A malformed file raises `CheckpointError` whose message starts with the
    config section or the tensor it failed on."""

    def vae_file(self, tmp_path, **changes):
        m = VaeModel(input_dim=9, hidden_dim=8, latent_dim=4, role="speech",
                     rng=np.random.default_rng(2), dtype=np.float32)
        path = tmp_path / "vae.ckpt"
        tensors = {n: p.data for n, p in m.named_parameters().items()}
        save_checkpoint(path, dict(m.config(), kind="vae", **changes), tensors)
        return path

    @pytest.mark.parametrize("load", [load_speech_vae, load_bundle], ids=["model", "bundle"])
    def test_config_not_an_object(self, tmp_path, load):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, [1, 2], {})
        with pytest.raises(CheckpointError, match="^config: expected a JSON object, got list"):
            load(path)

    def test_config_not_an_object_for_train_nsvae(self, tmp_path, capsys):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, [1, 2], {})
        assert pvae.cli.main(["train-nsvae", "--cvae", str(path), "--nvae", str(path),
                              "--out", str(tmp_path / "ns")]) == 2
        assert capsys.readouterr().err == "error: config: expected a JSON object, got list\n"

    def test_tensor_name_not_utf8(self, tmp_path):
        body = hand_blob({}, {})[:-8] + struct.pack("<I", 1)
        body += struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<BI", 1, 1)
        body += np.float32(1).tobytes()
        path = tmp_path / "n.ckpt"
        path.write_bytes(with_crc(body))
        with pytest.raises(CheckpointError, match="^tensor 0: name is not UTF-8"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", ["8", 0, -3, 8.0, None], ids=repr)
    def test_dimension_not_a_positive_integer(self, tmp_path, value):
        path = self.vae_file(tmp_path, hidden_dim=value)
        with pytest.raises(CheckpointError, match="^config: 'model' section: hidden_dim "
                                                  "must be a positive integer"):
            load_vae(path, "speech")

    def test_unknown_role(self, tmp_path):
        path = self.vae_file(tmp_path, role="music")
        with pytest.raises(CheckpointError, match="^config: 'model' section: role must be"):
            load_vae(path, "speech")

    def test_bundle_latent_dims_disagree(self, tmp_path):
        path = tmp_path / "b.ckpt"
        bundle = tiny_bundle()
        save_bundle(path, bundle)
        config, tensors = load_checkpoint(path)
        config["nvae"]["latent_dim"] = 5
        save_checkpoint(path, config, tensors)
        with pytest.raises(CheckpointError,
                           match="^config: latent dims disagree: .*'nvae': 5"):
            load_bundle(path)

    def test_non_finite_weight_named(self, tmp_path):
        bundle = tiny_bundle()
        bundle.nvae.trunk.fc[0].weight.data[1, 2] = np.nan
        path = tmp_path / "b.ckpt"
        save_bundle(path, bundle)
        with pytest.raises(CheckpointError,
                           match=r"^tensor nvae\.enc\.fc0\.weight: non-finite values$"):
            load_bundle(path)


class TestOneCopy:
    def test_loads_draw_nothing(self, tmp_path, monkeypatch):
        bundle = tiny_bundle()
        save_bundle(tmp_path / "b.ckpt", bundle)
        save_vae(tmp_path / "m.ckpt", bundle.cvae, bundle.cvae_weights)

        def no_draws(*args, **kwargs):
            raise AssertionError("a load drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        assert saved_parameters(load_bundle(tmp_path / "b.ckpt")) == saved_parameters(bundle)
        model, _ = load_vae(tmp_path / "m.ckpt", "speech")
        assert saved_parameters(model) == saved_parameters(bundle.cvae)

    def test_each_byte_copied_once(self, tmp_path):
        kw = dict(input_dim=257, hidden_dim=64, latent_dim=16,
                  rng=np.random.default_rng(4), dtype=np.float32)
        bundle = ModelBundle(cvae=VaeModel(role="speech", **kw),
                             nvae=VaeModel(role="noise", **kw), nsvae=NsvaeModel(**kw))
        path = tmp_path / "b.ckpt"
        peaks = {}
        for name, call in (("save", lambda: save_bundle(path, bundle)),
                           ("load", lambda: load_bundle(path))):
            tracemalloc.start()
            try:
                call()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        size = path.stat().st_size
        assert peaks["save"] <= 1.0 * size
        assert peaks["load"] <= 2.5 * size


class TestFuzz:
    """One byte replaced anywhere, checksum recomputed: a load either
    succeeds or raises `CheckpointError`. With every dimension a single
    digit no edit can ask for a large model (a config edit yields at most
    two digits; a shape edit too large for the file is a truncation)."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        bundle = tiny_bundle()
        save_vae(root / "m.ckpt", bundle.cvae, bundle.cvae_weights)
        save_bundle(root / "b.ckpt", bundle)
        return {load_speech_vae: (root / "m.ckpt").read_bytes(),
                load_bundle: (root / "b.ckpt").read_bytes()}

    @pytest.mark.parametrize("load", [load_speech_vae, load_bundle], ids=["model", "bundle"])
    @settings(derandomize=True, max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_byte_edit_loads_or_raises_checkpoint_error(self, files, tmp_path, load, data):
        blob = files[load]
        pos = data.draw(st.integers(0, len(blob) - 5), label="position")
        value = data.draw(st.integers(0, 255).filter(lambda v: v != blob[pos]), label="value")
        edited = bytearray(blob[:-4])
        edited[pos] = value
        path = tmp_path / "fuzz.ckpt"
        with new_file(path, "wb") as fh:
            fh.write(with_crc(bytes(edited)))
        try:
            load(path)
        except CheckpointError:
            pass
