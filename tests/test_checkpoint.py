"""Checkpoint binary format: bitwise round-trips, integrity checking, and
size arithmetic."""
import os
import struct

import numpy as np
import pytest

from segnext.analysis import count_params
from segnext.checkpoint import (MAGIC, VERSION, CheckpointError,
                                load_checkpoint, save_checkpoint)
from segnext.config import RunConfig, TrainParams
from segnext.encoder import preset
from segnext.model import build_model
from segnext.train import adamw_step, init_optim
from segnext.tensor import GradTape, Tensor, backward
from segnext import ops

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
        assert got.betas == optim.betas
        assert got.eps == optim.eps
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
