"""Binary checkpoints: magic "SGNX", version, config snapshot, named
parameter and buffer tables (float32 little-endian), optional optimizer
state, and a trailing CRC32. Writes are atomic (temp file then rename)."""
from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .config import RunConfig, parse_config, serialize_config
from .encoder import ConfigError
from .imagefile import atomic_write
from .model import SegModel, build_model
from .train import ADAM_BETAS, ADAM_EPS, OptimState

MAGIC = b"SGNX"
VERSION = 1

_FLAG_OPTIM = 1


class CheckpointError(RuntimeError):
    pass


def _array_parts(name: str, arr: np.ndarray) -> Iterator[bytes | np.ndarray]:
    nb = name.encode("utf-8")
    yield struct.pack(f"<H{len(nb)}sB{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape)
    yield np.ascontiguousarray(arr, dtype="<f4")


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


def _body_parts(model: SegModel, optim: OptimState | None,
                run_cfg: RunConfig) -> Iterator[bytes | np.ndarray]:
    """The checkpoint's bytes up to the CRC, as a sequence of buffers: the
    tables are the arrays themselves, never copied into one file image."""
    cfg_bytes = serialize_config(run_cfg).encode("utf-8")
    flags = _FLAG_OPTIM if optim is not None else 0
    yield MAGIC + struct.pack("<IIQI", VERSION, flags, model.seed, len(cfg_bytes)) + cfg_bytes
    params, buffers = model.registry()
    yield struct.pack("<I", len(params))
    for e in params:
        yield from _array_parts(e.name, e.tensor.data)
    yield struct.pack("<I", len(buffers))
    for b in buffers:
        yield from _array_parts(b.name, b.array)
    if optim is not None:
        yield struct.pack("<Qddddd", optim.t, *ADAM_BETAS, ADAM_EPS,
                          optim.weight_decay, 0.0)
        for e in params:
            yield np.ascontiguousarray(optim.m[e.name], dtype="<f4")
            yield np.ascontiguousarray(optim.v[e.name], dtype="<f4")


def _with_crc(parts: Iterator[bytes | np.ndarray]) -> Iterator[bytes | np.ndarray]:
    """``parts``, then the CRC32 of their bytes, accumulated as they pass."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
        yield part
    yield struct.pack("<I", crc)


def save_checkpoint(model: SegModel, path, optim: OptimState | None = None,
                    run_cfg: RunConfig | None = None) -> None:
    if run_cfg is None:
        run_cfg = RunConfig(model=model.cfg, seed=model.seed)
    atomic_write(path, _with_crc(_body_parts(model, optim, run_cfg)))


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
    if flags & ~_FLAG_OPTIM:
        raise CheckpointError(f"unknown checkpoint flags {flags & ~_FLAG_OPTIM:#x}")
    (cfg_len,) = r.unpack("<I")
    cfg_text = _utf8(r.take(cfg_len), "config text")
    try:
        run_cfg = parse_config(cfg_text)
    except ConfigError as exc:
        raise CheckpointError(f"config text is not a valid config: {exc}") from exc

    # Every weight is overwritten below, so nothing is drawn for it.
    try:
        model = build_model(run_cfg.model, int(model_seed), init=False)
    except MemoryError as exc:
        raise CheckpointError(f"config describes a model too large to build: {exc}") from None
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
        if (b1, b2, eps) != (*ADAM_BETAS, ADAM_EPS):
            raise CheckpointError(f"Adam betas and eps {b1}, {b2}, {eps} are not this build's")
        optim = OptimState(wd, t=int(t))
        for e in params:
            optim.m[e.name] = r.floats(e.tensor.data.shape).astype(np.float32)
            optim.v[e.name] = r.floats(e.tensor.data.shape).astype(np.float32)
    if r.pos != len(r.buf):
        raise CheckpointError(f"{len(r.buf) - r.pos} unexpected trailing bytes")
    return LoadedCheckpoint(model, optim, run_cfg)
