"""Binary checkpoints: magic "SGNX", version, config snapshot, named
parameter and buffer tables (float32 little-endian), optional optimizer
state, and a trailing CRC32. Writes are atomic (temp file then rename)."""
from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, parse_config, serialize_config
from .encoder import ConfigError
from .imagefile import atomic_write
from .model import SegModel, build_model
from .train import OptimState

MAGIC = b"SGNX"
VERSION = 1

_FLAG_OPTIM = 1


class CheckpointError(RuntimeError):
    pass


def _pack_array(out: bytearray, name: str, arr: np.ndarray) -> None:
    nb = name.encode("utf-8")
    out += struct.pack("<H", len(nb))
    out += nb
    out += struct.pack("<B", arr.ndim)
    out += struct.pack(f"<{arr.ndim}I", *arr.shape)
    out += np.ascontiguousarray(arr, dtype="<f4").tobytes()


def _utf8(raw: memoryview, what: str) -> str:
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{what} is not valid UTF-8: {exc}") from None


class _Reader:
    def __init__(self, buf: memoryview) -> None:
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise CheckpointError("truncated checkpoint")
        chunk = self.buf[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self) -> tuple[str, np.ndarray]:
        """Name and a read-only view of the next array in the buffer."""
        (name_len,) = self.unpack("<H")
        name = _utf8(self.take(name_len), "array name")
        (ndim,) = self.unpack("<B")
        return name, self.floats(self.unpack(f"<{ndim}I"))

    def floats(self, shape: tuple[int, ...]) -> np.ndarray:
        """Read-only view of the next little-endian float32 table of ``shape``."""
        return np.frombuffer(self.take(4 * math.prod(shape)), dtype="<f4").reshape(shape)


def save_checkpoint(model: SegModel, path, optim: OptimState | None = None,
                    run_cfg: RunConfig | None = None) -> None:
    if run_cfg is None:
        run_cfg = RunConfig(model=model.cfg, seed=model.seed)
    out = bytearray()
    out += MAGIC
    flags = _FLAG_OPTIM if optim is not None else 0
    out += struct.pack("<IIQ", VERSION, flags, model.seed)
    cfg_bytes = serialize_config(run_cfg).encode("utf-8")
    out += struct.pack("<I", len(cfg_bytes))
    out += cfg_bytes
    params, buffers = model.registry()
    out += struct.pack("<I", len(params))
    for e in params:
        _pack_array(out, e.name, e.tensor.data)
    out += struct.pack("<I", len(buffers))
    for b in buffers:
        _pack_array(out, b.name, b.array)
    if optim is not None:
        out += struct.pack("<Qddddd", optim.t, optim.betas[0], optim.betas[1],
                           optim.eps, optim.weight_decay, 0.0)
        for e in params:
            out += np.ascontiguousarray(optim.m[e.name], dtype="<f4").tobytes()
            out += np.ascontiguousarray(optim.v[e.name], dtype="<f4").tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)) & 0xFFFFFFFF)

    atomic_write(path, out)


@dataclass
class LoadedCheckpoint:
    model: SegModel
    optim: OptimState | None
    run_cfg: RunConfig


def load_checkpoint(path) -> LoadedCheckpoint:
    with open(os.fspath(path), "rb") as fh:
        raw = fh.read()
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise CheckpointError("not a model checkpoint (bad magic bytes)")
    if len(raw) < 8:
        raise CheckpointError("truncated checkpoint")
    body = memoryview(raw)[:-4]
    stored_crc = struct.unpack("<I", raw[-4:])[0]
    actual_crc = zlib.crc32(body) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise CheckpointError(
            f"checksum mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
        )
    r = _Reader(body)
    r.take(4)  # magic
    version, flags, model_seed = r.unpack("<IIQ")
    if version != VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version}; this build reads version {VERSION}"
        )
    (cfg_len,) = r.unpack("<I")
    cfg_text = _utf8(r.take(cfg_len), "config text")
    try:
        run_cfg = parse_config(cfg_text)
    except ConfigError as exc:
        raise CheckpointError(f"config text is not a valid config: {exc}") from exc

    # Every weight is overwritten below, so nothing is drawn for it.
    model = build_model(run_cfg.model, int(model_seed), init=False)
    params, buffers = model.registry()
    (n_params,) = r.unpack("<I")
    if n_params != len(params):
        raise CheckpointError(
            f"parameter table holds {n_params} entries, model expects {len(params)}"
        )
    for e in params:
        name, data = r.array()
        if name != e.name:
            raise CheckpointError(f"parameter order mismatch: {name!r} vs {e.name!r}")
        if data.shape != e.tensor.data.shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {data.shape}, expected {e.tensor.data.shape}"
            )
        e.tensor.data[...] = data
    (n_buffers,) = r.unpack("<I")
    if n_buffers != len(buffers):
        raise CheckpointError(
            f"buffer table holds {n_buffers} entries, model expects {len(buffers)}"
        )
    for b in buffers:
        name, data = r.array()
        if name != b.name or data.shape != b.array.shape:
            raise CheckpointError(f"buffer table mismatch at {name!r}")
        b.array[...] = data

    optim = None
    if flags & _FLAG_OPTIM:
        t, b1, b2, eps, wd, _ = r.unpack("<Qddddd")
        optim = OptimState(betas=(b1, b2), eps=eps, weight_decay=wd, t=int(t))
        for e in params:
            optim.m[e.name] = r.floats(e.tensor.data.shape).astype(np.float32)
            optim.v[e.name] = r.floats(e.tensor.data.shape).astype(np.float32)
    if r.pos != len(r.buf):
        raise CheckpointError(f"{len(r.buf) - r.pos} unexpected trailing bytes")
    return LoadedCheckpoint(model, optim, run_cfg)
