"""Checkpoint binary format: bitwise round-trips, integrity checking, and
size arithmetic."""
import os
import struct
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segnext.analysis import count_params
from segnext.checkpoint import (MAGIC, VERSION, CheckpointError,
                                load_checkpoint, save_checkpoint)
from segnext.config import RunConfig, TrainParams
from segnext.encoder import preset
from segnext.model import build_model
from segnext.train import adamw_step, init_optim
from segnext.tensor import GradTape, Tensor, backward
from segnext import blocks, initializers, ops

MICRO = preset("mscan-micro")


@pytest.fixture()
def model():
    return build_model(MICRO, seed=17)


def stepped_optimizer(model, steps=2):
    """Optimizer with nonzero moments from a couple of real updates."""
    params = model.parameters()
    optim = init_optim(params)
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(scale=0.4, size=(1, 3, 32, 32)).astype(np.float32))
    for _ in range(steps):
        with GradTape() as tape:
            out = model.forward(x, training=True)
            loss = ops.mean_all(ops.mul(out, out))
        grads = backward(tape, loss)
        adamw_step(params, grads, optim, lr=1e-3)
    return optim


class TestRoundTrip:
    def test_parameters_and_buffers_bitwise(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path).model
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert a.name == b.name
            assert a.decay == b.decay
            np.testing.assert_array_equal(a.tensor.data, b.tensor.data)
        for a, b in zip(model.buffers(), loaded.buffers()):
            assert a.name == b.name
            np.testing.assert_array_equal(a.array, b.array)

    def test_rebuild_reproduces_factorization_seed(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path).model
        assert loaded.seed == model.seed
        assert loaded.decoder.seed == model.decoder.seed
        x = Tensor(np.random.default_rng(1).normal(
            scale=0.3, size=(1, 3, 32, 32)).astype(np.float32))
        np.testing.assert_array_equal(model.forward(x).data,
                                      loaded.forward(x).data)

    def test_optimizer_state_round_trips(self, model, tmp_path):
        optim = stepped_optimizer(model)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, optim=optim)
        got = load_checkpoint(path).optim
        assert got is not None
        assert got.t == optim.t
        assert got.weight_decay == optim.weight_decay
        for name in optim.m:
            np.testing.assert_array_equal(got.m[name], optim.m[name])
            np.testing.assert_array_equal(got.v[name], optim.v[name])

    def test_without_optimizer_loads_none(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        assert load_checkpoint(path).optim is None

    def test_save_load_save_byte_identical(self, model, tmp_path):
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(model, p1, optim=stepped_optimizer(model))
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded.model, p2, optim=loaded.optim,
                        run_cfg=loaded.run_cfg)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("variant", ["a", "b", "c"])
    def test_every_decoder_variant_round_trips_bitwise(self, variant, tmp_path):
        model = build_model(replace(MICRO, decoder_variant=variant), seed=23)
        rng = np.random.default_rng(2)
        for b in model.buffers():  # away from the fresh-build statistics
            b.array += rng.random(b.array.shape).astype(b.array.dtype)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path).model
        x = Tensor(rng.normal(scale=0.3, size=(1, 3, 64, 64)).astype(np.float32))
        assert model.forward(x).data.tobytes() == loaded.forward(x).data.tobytes()
        for a, b in zip(model.parameters(), loaded.parameters(), strict=True):
            assert (a.name, a.tensor.data.tobytes()) == (b.name, b.tensor.data.tobytes())
        for a, b in zip(model.buffers(), loaded.buffers(), strict=True):
            assert (a.name, a.array.tobytes()) == (b.name, b.array.tobytes())
        assert getattr(loaded.decoder, "seed", None) == getattr(model.decoder, "seed", None)

    def test_load_draws_no_random_init(self, model, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random init")

        for module in (initializers, blocks):
            monkeypatch.setattr(module, "trunc_normal", no_draw)
            monkeypatch.setattr(module, "fan_out_normal", no_draw)
        loaded = load_checkpoint(path).model
        for a, b in zip(model.parameters(), loaded.parameters(), strict=True):
            np.testing.assert_array_equal(a.tensor.data, b.tensor.data)

    def test_run_config_snapshot_preserved(self, model, tmp_path):
        rc = RunConfig(model=MICRO, train=TrainParams(iters=7), seed=99)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, run_cfg=rc)
        got = load_checkpoint(path).run_cfg
        assert got.train.iters == 7
        assert got.seed == 99
        assert got.model == MICRO


class TestIntegrity:
    def test_single_byte_corruption_detected(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        # flip one bit in the middle of the parameter payload
        raw[len(raw) // 2] ^= 0x40
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncation_detected(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 3])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch_refused_with_message(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        header = struct.unpack("<IIQ", raw[4:20])
        assert header[0] == VERSION
        raw[4:20] = struct.pack("<IIQ", VERSION + 1, *header[1:])
        import zlib
        raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[:-4])) & 0xFFFFFFFF)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("flags", [0x2, 0x3, 0x80000000])
    def test_unknown_flags_under_valid_crc_rejected(self, model, tmp_path, flags):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", flags)
        raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[:-4])) & 0xFFFFFFFF)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="flags"):
            load_checkpoint(path)

    @pytest.mark.parametrize("target", ["config", "param_name"])
    def test_invalid_utf8_under_valid_crc_rejected(self, model, tmp_path, target):
        import zlib
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        (cfg_len,) = struct.unpack("<I", raw[20:24])
        # First byte of the config text, or of the first parameter's name
        # (after the config, the parameter count and the name length).
        at = 24 if target == "config" else 24 + cfg_len + 4 + 2
        raw[at] = 0xFF  # never valid in UTF-8
        raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[:-4])) & 0xFFFFFFFF)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="UTF-8"):
            load_checkpoint(path)

    def test_invalid_config_under_valid_crc_rejected(self, model, tmp_path):
        import zlib
        from segnext.encoder import ConfigError
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[24:26] = b"xx"  # valid UTF-8, but "xx" replaces the "[m" of "[model]"
        raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[:-4])) & 0xFFFFFFFF)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="not a valid config") as info:
            load_checkpoint(path)
        assert isinstance(info.value.__cause__, ConfigError)

    def test_config_of_an_unbuildable_model_under_valid_crc_rejected(self, model, tmp_path):
        # 10**15 channels cannot be allocated anywhere, so building the model
        # that the config text describes raises MemoryError.
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        (cfg_len,) = struct.unpack("<I", raw[20:24])
        cfg = raw[24:24 + cfg_len].replace(b"channels = 8,16,32,64",
                                           b"channels = 8,16,32,1000000000000000")
        assert len(cfg) > cfg_len
        body = raw[:20] + struct.pack("<I", len(cfg)) + cfg + raw[24 + cfg_len:-4]
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(CheckpointError, match="too large to build"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,old,new,rule", [
        ("lr", b"6e-05", b"-1", "positive"), ("power", b"1.0", b"nan", "positive"),
        ("weight_decay", b"0.01", b"nan", ">= 0"), ("checkpoint_interval", b"500", b"-1", ">= 0"),
    ], ids=["lr", "power", "weight_decay", "checkpoint_interval"])
    def test_config_with_out_of_range_train_value_rejected(self, model, tmp_path,
                                                           key, old, new, rule):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        (cfg_len,) = struct.unpack("<I", raw[20:24])
        cfg = raw[24:24 + cfg_len]
        line = b"\n" + key.encode() + b" = "
        assert line + old + b"\n" in cfg
        cfg = cfg.replace(line + old + b"\n", line + new + b"\n")
        body = raw[:20] + struct.pack("<I", len(cfg)) + cfg + raw[24 + cfg_len:-4]
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(CheckpointError, match=f"not a valid config: {key} must be {rule}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("slot,value", [(0, 0.8), (1, 0.99), (2, 1e-6)],
                             ids=["beta1", "beta2", "eps"])
    def test_other_adam_constants_under_valid_crc_rejected(self, model, tmp_path,
                                                           slot, value):
        # The optimizer header (t, beta1, beta2, eps, weight decay, reserved)
        # precedes the two float32 moments of every parameter.
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, optim=stepped_optimizer(model, steps=1))
        raw = bytearray(path.read_bytes())
        header = len(raw) - 4 - 8 * count_params(model) - struct.calcsize("<Qddddd")
        at = header + 8 + 8 * slot
        assert struct.unpack("<Qddd", raw[header:header + 32])[1:] == (0.9, 0.999, 1e-8)
        raw[at:at + 8] = struct.pack("<d", value)
        raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[:-4])) & 0xFFFFFFFF)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="Adam betas and eps"):
            load_checkpoint(path)

    def test_magic_bytes_lead_the_file(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        assert path.read_bytes()[:4] == MAGIC == b"SGNX"


class TestSize:
    def test_file_size_tracks_param_count(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        payload = count_params(model) * 4
        # header + names + buffers + config snapshot ride on top
        assert payload < path.stat().st_size < payload * 1.05

    def test_save_streams_the_tables(self, tmp_path):
        # The file is written table by table, the CRC accumulated over the
        # parts: no image of the whole file is built in memory.
        big = build_model(preset("segnext-t"), seed=1)
        sizes = [e.tensor.data.nbytes for e in big.parameters()]
        assert sum(sizes) >= 8 * 2**20
        tracemalloc.start()
        try:
            save_checkpoint(big, tmp_path / "t.ckpt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20 + max(sizes)

    def test_atomic_write_leaves_no_temp_files(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        save_checkpoint(model, path)  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_failed_replace_keeps_old_file_and_no_temp(self, model, tmp_path,
                                                        monkeypatch):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"old checkpoint")

        def fail_replace(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(os, "replace", fail_replace)
        with pytest.raises(OSError, match="simulated"):
            save_checkpoint(model, path)
        assert path.read_bytes() == b"old checkpoint"
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    """A micro checkpoint with optimizer state, as bytes."""
    model = build_model(MICRO, seed=17)
    path = tmp_path_factory.mktemp("valid") / "m.ckpt"
    save_checkpoint(model, path, stepped_optimizer(model, steps=1))
    return path.read_bytes()


@st.composite
def mutated_checkpoint(draw, valid: bytes) -> bytes:
    """``valid`` with a few bytes replaced, inserted or deleted, mostly in the
    header, the config text and the first table entries, where the reader
    branches, and some truncated. Most get a recomputed CRC, so that the
    reader goes past its checksum."""
    buf = bytearray(valid)
    (cfg_len,) = struct.unpack("<I", valid[20:24])
    head = 24 + cfg_len + 64
    for _ in range(draw(st.integers(1, 4))):
        lo, hi = draw(st.sampled_from([(4, head), (0, len(buf)), (len(buf) - 64, len(buf))]))
        pos = draw(st.integers(max(0, lo), max(0, min(hi, len(buf)) - 1)))
        byte = draw(st.sampled_from([0, 1, 2, 4, 10, 32, 44, 48, 49, 57, 61, 91, 93, 255])
                    | st.integers(0, 255))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "insert" or not buf:
            buf.insert(pos, byte)
        elif op == "replace":
            buf[pos] = byte
        else:
            del buf[pos]
    if draw(st.integers(0, 3)) == 0:
        buf = buf[:draw(st.integers(0, len(buf)))]
    if len(buf) >= 8 and draw(st.integers(0, 3)):
        buf[-4:] = struct.pack("<I", zlib.crc32(bytes(buf[:-4])) & 0xFFFFFFFF)
    return bytes(buf)


class TestFuzzedReader:
    """Mutated and truncated checkpoints either load or raise
    ``CheckpointError``; nothing else escapes."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_load_checkpoint_raises_only_its_error(self, valid_checkpoint,
                                                  tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzzed.ckpt"
        path.write_bytes(data.draw(mutated_checkpoint(valid_checkpoint)))
        try:
            loaded = load_checkpoint(path)
        except CheckpointError:
            return
        assert isinstance(loaded.run_cfg, RunConfig)
