"""Synthetic segmentation data: strip-and-blob scenes with pixel-exact labels.

Scenes hold a background class plus one thin strip and one large elliptical
blob per foreground class. Strips are 2-4 px wide, at least half the image
long, in one of four orientations (horizontal, vertical, two diagonals).
Blobs carry most of each class's area. Every class renders with its own
color; pixel noise keeps the task nontrivial.
"""
from __future__ import annotations

import colorsys
from dataclasses import dataclass

import numpy as np

from . import ops
from .tensor import Tensor

IGNORE_INDEX = 255

# Per-pixel Gaussian color noise, standard deviation in [0,1] units.
NOISE_SIGMA = 0.02

_ORIENTATIONS = ("horizontal", "vertical", "diag_down", "diag_up")


@dataclass
class SegSample:
    """One image-label pair. Image is 1x3xHxW in [0,1]; label is HxW int."""

    image: Tensor
    label: np.ndarray

    def __post_init__(self) -> None:
        n, c, h, w = self.image.shape
        if n != 1 or c != 3:
            raise ValueError(f"image must be 1x3xHxW, got {tuple(self.image.shape)}")
        if self.label.shape != (h, w):
            raise ValueError(
                f"label shape {self.label.shape} does not match image {h}x{w}"
            )
        if not np.issubdtype(self.label.dtype, np.integer):
            raise ValueError(f"label must be integer-typed, got {self.label.dtype}")


def class_palette(num_classes: int) -> np.ndarray:
    """Distinct mean colors, shape (num_classes, 3): dark background, then
    evenly spaced hues for the foreground classes."""
    pal = np.empty((num_classes, 3), dtype=np.float32)
    pal[0] = (0.18, 0.18, 0.18)
    for c in range(1, num_classes):
        hue = (c - 1) / max(num_classes - 1, 1)
        pal[c] = colorsys.hsv_to_rgb(hue, 0.75, 0.85)
    return pal


def _paint_strip(label: np.ndarray, rng: np.random.Generator, cls: int) -> None:
    size = label.shape[0]
    width = int(rng.integers(2, 5))
    # Lengths sit just above the half-image minimum so strips stay thin
    # accents rather than dominating class area.
    length = int(rng.integers(size // 2, size // 2 + size // 8))
    orient = _ORIENTATIONS[int(rng.integers(0, 4))]
    if orient == "horizontal":
        r0 = int(rng.integers(0, size - width + 1))
        c0 = int(rng.integers(0, size - length + 1))
        label[r0:r0 + width, c0:c0 + length] = cls
    elif orient == "vertical":
        r0 = int(rng.integers(0, size - length + 1))
        c0 = int(rng.integers(0, size - width + 1))
        label[r0:r0 + length, c0:c0 + width] = cls
    else:
        # Diagonal: stamp a width x width square along the diagonal walk.
        span = size - length - width
        r0 = int(rng.integers(0, span + 1))
        if orient == "diag_down":
            c0 = int(rng.integers(0, span + 1))
            for t in range(length):
                label[r0 + t:r0 + t + width, c0 + t:c0 + t + width] = cls
        else:
            c0 = int(rng.integers(length - 1, size - width + 1))
            for t in range(length):
                label[r0 + t:r0 + t + width, c0 - t:c0 - t + width] = cls


def _paint_blob(label: np.ndarray, rng: np.random.Generator, cls: int) -> None:
    """Large elliptical blob, possibly clipped at the frame edge. Placement
    retries to keep blobs of different classes from swallowing each other
    (best of a bounded number of tries)."""
    size = label.shape[0]
    best = None
    best_overlap = None
    occupied = label != 0
    yy, xx = np.ogrid[:size, :size]
    for _ in range(40):
        ry = float(rng.uniform(size / 4.5, size / 3.05))
        rx = float(rng.uniform(size / 4.5, size / 3.05))
        cy = float(rng.uniform(0.15 * size, 0.85 * size))
        cx = float(rng.uniform(0.15 * size, 0.85 * size))
        mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
        overlap = np.count_nonzero(mask & occupied) / np.count_nonzero(mask)
        if best is None or overlap < best_overlap:
            best, best_overlap = mask, overlap
        if overlap <= 0.03:
            break
    label[best] = cls


def _paint_scene(label: np.ndarray, rng: np.random.Generator,
                 num_classes: int) -> None:
    """All strips first, then all blobs, in class order. Blobs are painted
    last so the area-dominant shapes stay unoccluded."""
    for cls in range(1, num_classes):
        _paint_strip(label, rng, cls)
    for cls in range(1, num_classes):
        _paint_blob(label, rng, cls)


def target_mix(num_classes: int, size: int) -> np.ndarray:
    """Design class-pixel fractions, shape (num_classes,), summing to 1.

    Estimated by running the label painter itself over a fixed probe seed,
    so the target tracks the painter exactly instead of relying on a
    closed-form overlap model. Deterministic for given arguments.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if size < 64:
        raise ValueError(f"size must be >= 64, got {size}")
    rng = np.random.default_rng(np.random.SeedSequence(20240601))
    counts = np.zeros(num_classes, dtype=np.int64)
    scenes = 64
    for _ in range(scenes):
        label = np.zeros((size, size), dtype=np.int64)
        _paint_scene(label, rng, num_classes)
        counts += np.bincount(label.ravel(), minlength=num_classes)
    return counts / (scenes * size * size)


def synth_dataset(seed: int, n: int, size: int, num_classes: int) -> list[SegSample]:
    """Deterministic list of n scenes. Same seed, same bytes."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if size < 64:
        raise ValueError(f"size must be >= 64, got {size}")
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    palette = class_palette(num_classes)
    samples = []
    for _ in range(n):
        label = np.zeros((size, size), dtype=np.int64)
        _paint_scene(label, rng, num_classes)
        img = palette[label].transpose(2, 0, 1)
        img = img + rng.normal(0.0, NOISE_SIGMA, img.shape)
        img = np.clip(img, 0.0, 1.0).astype(np.float32)
        samples.append(SegSample(Tensor(img[None]), label))
    return samples


def _nearest_indices(out_n: int, in_n: int) -> np.ndarray:
    """Source index of each output sample on one axis of a nearest resize."""
    # Pixel-center mapping, rounded: floor(src + 0.5) with src = (d+0.5)*s - 0.5.
    src = np.floor((np.arange(out_n) + 0.5) * (in_n / out_n))
    return np.clip(src, 0, in_n - 1).astype(np.int64)


def augment(s: SegSample, rng: np.random.Generator, crop: int) -> SegSample:
    """Random horizontal flip, scale in [0.5, 2], and crop to crop x crop.

    Draw order is fixed: flip coin, scale factor, crop row, crop column.
    The image scales bilinearly, the label by nearest neighbor; when the
    scaled scene is smaller than the crop, the image pads with zeros and
    the label with the ignore value, on the bottom and right. Only the
    crop window of the scaled scene is computed.
    """
    if crop < 1:
        raise ValueError(f"crop must be >= 1, got {crop}")
    img = s.image.data[0]
    label = s.label
    if rng.random() < 0.5:
        img = img[:, :, ::-1]
        label = label[:, ::-1]
    factor = float(rng.uniform(0.5, 2.0))
    h, w = label.shape
    oh = max(1, round(h * factor))
    ow = max(1, round(w * factor))
    # The window is drawn in the padded scaled frame; its part inside the
    # scaled scene is rows [r0, r1) and columns [c0, c1).
    r0 = int(rng.integers(0, max(crop, oh) - crop + 1))
    c0 = int(rng.integers(0, max(crop, ow) - crop + 1))
    r1, c1 = min(r0 + crop, oh), min(c0 + crop, ow)
    # At an unchanged size the matrices are identities and copy exactly.
    rh = ops._resize_matrix(oh, h, img.dtype)[r0:r1]
    rw = ops._resize_matrix(ow, w, img.dtype)[c0:c1]
    ry, rx = _nearest_indices(oh, h)[r0:r1], _nearest_indices(ow, w)[c0:c1]
    out_img = np.zeros((3, crop, crop), dtype=img.dtype)
    out_img[:, : r1 - r0, : c1 - c0] = np.matmul(np.matmul(rh, img), rw.T)
    out_label = np.full((crop, crop), IGNORE_INDEX, dtype=label.dtype)
    out_label[: r1 - r0, : c1 - c0] = label[ry[:, None], rx[None, :]]
    return SegSample(Tensor(out_img[None]), out_label)
