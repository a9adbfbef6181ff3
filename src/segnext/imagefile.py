"""Binary Netpbm I/O: P6 (PPM) for color images, P5 (PGM) for label and
prediction maps. Maxval is fixed at 255; writes are atomic."""
from __future__ import annotations

import contextlib
import os
import tempfile
from typing import Iterable

import numpy as np

from .tensor import Tensor

# Refuse absurd headers before allocating: 2^26 pixels is a 256-megabyte
# float image, far beyond anything this tool processes.
MAX_PIXELS = 1 << 26


class ImageFormatError(ValueError):
    pass


# The process umask, which os.umask can only read by setting it; new files
# get the mode a plain open() would give them.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def atomic_write(path, parts: Iterable) -> None:
    """Write the buffers of ``parts`` (bytes, or C-contiguous arrays), in
    order, to ``path`` through a unique temp file in the same directory and
    a rename, so ``path`` holds the old bytes or the new ones; the temp file
    is removed if the write or the rename raises. ``parts`` may be a
    generator: each buffer is written as it comes."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{os.path.basename(path)}.", suffix=".tmp",
                               dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_UMASK)
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _read_tokens(buf: bytes, count: int) -> tuple[list[bytes], int]:
    """First `count` whitespace-separated header tokens, skipping `#`
    comments; returns the tokens and the offset one byte past the last
    whitespace that terminated the final token."""
    tokens: list[bytes] = []
    i = 0
    n = len(buf)
    while len(tokens) < count:
        while i < n and buf[i:i + 1].isspace():
            i += 1
        if i < n and buf[i] == ord("#"):
            while i < n and buf[i] not in (10, 13):
                i += 1
            continue
        start = i
        while i < n and not buf[i:i + 1].isspace():
            i += 1
        if start == i:
            raise ImageFormatError("malformed header: ran out of tokens")
        tokens.append(buf[start:i])
        if len(tokens) == count:
            if i >= n:
                raise ImageFormatError("malformed header: missing payload")
            i += 1  # exactly one whitespace byte separates header and payload
    return tokens, i


def _check_size(w: int, h: int) -> None:
    """The size rule that readers and writers share: at least one pixel
    either way, at most ``MAX_PIXELS`` in all."""
    if w < 1 or h < 1:
        raise ImageFormatError(f"invalid dimensions {w}x{h}")
    if w * h > MAX_PIXELS:
        raise ImageFormatError(f"image {w}x{h} exceeds the {MAX_PIXELS}-pixel limit")


def _parse_header(buf: bytes, magic: bytes):
    tokens, offset = _read_tokens(buf, 4)
    if tokens[0] != magic:
        raise ImageFormatError(
            f"bad magic {tokens[0]!r}, expected {magic.decode()}"
        )
    try:
        w, h, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise ImageFormatError(f"non-numeric header fields {tokens[1:]}") from None
    _check_size(w, h)
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval}, only 255 is handled")
    return w, h, offset


def write_ppm(path, image) -> None:
    """Image as 3xHxW or 1x3xHxW float in [0,1], or HxWx3 uint8."""
    arr = image.data if isinstance(image, Tensor) else np.asarray(image)
    if arr.ndim == 4 and arr.shape[0] == 1:
        arr = arr[0]
    planar = arr.ndim == 3 and arr.shape[0] == 3 and np.issubdtype(arr.dtype, np.floating)
    if not planar and (arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8):
        raise ImageFormatError(
            f"cannot write shape {arr.shape} dtype {arr.dtype} as a color image"
        )
    h, w = arr.shape[1:] if planar else arr.shape[:2]
    _check_size(w, h)
    if planar:
        arr = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8).transpose(1, 2, 0)
    atomic_write(path, (b"P6\n%d %d\n255\n" % (w, h), np.ascontiguousarray(arr)))


def _read_netpbm(path, magic: bytes, channels: int) -> np.ndarray:
    """The HxWx``channels`` uint8 payload of a binary Netpbm file."""
    with open(os.fspath(path), "rb") as fh:
        buf = fh.read()
    w, h, offset = _parse_header(buf, magic)
    need = w * h * channels
    payload = buf[offset:offset + need]
    if len(payload) < need:
        raise ImageFormatError(
            f"payload holds {len(payload)} bytes, header promises {need}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, channels)


def read_ppm(path) -> Tensor:
    """Returns a 1x3xHxW float32 tensor scaled to [0,1]."""
    arr = _read_netpbm(path, b"P6", 3)
    img = (arr.astype(np.float32) / 255.0).transpose(2, 0, 1)
    return Tensor(np.ascontiguousarray(img[None]))


def write_pgm(path, labels: np.ndarray) -> None:
    """Label/prediction map HxW with values 0..255 (255 = ignore)."""
    arr = np.asarray(labels)
    if arr.ndim != 2:
        raise ImageFormatError(f"label map must be 2-D, got shape {arr.shape}")
    h, w = arr.shape
    _check_size(w, h)
    if np.issubdtype(arr.dtype, np.integer):
        if arr.min() < 0 or arr.max() > 255:
            raise ImageFormatError("label values must lie in [0, 255]")
        arr = arr.astype(np.uint8)
    if arr.dtype != np.uint8:
        raise ImageFormatError(f"label map must be integer-typed, got {arr.dtype}")
    atomic_write(path, (b"P5\n%d %d\n255\n" % (w, h), np.ascontiguousarray(arr)))


def read_pgm(path) -> np.ndarray:
    """Returns an HxW int64 map; the value 255 passes through unchanged."""
    return _read_netpbm(path, b"P5", 1)[..., 0].astype(np.int64)
