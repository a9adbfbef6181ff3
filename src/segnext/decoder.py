"""Segmentation heads: the factorization-based default and two baselines.

Variant "c" (default) aggregates the last three encoder stages on the
stride-8 grid, projects to the decoder width, rectifies, low-rank
reconstructs each item's flattened C-by-HW feature matrix with
multiplicative-update NMF (gradients unrolled through the iterations), adds
the rectified features back, classifies, and upsamples to the input size.
When stage 1 is included (an ablation), aggregation moves to the stride-4
grid so the added low-level detail is actually used at its own resolution.
The update rule is written once, as taped ops in ``_nmf_steps``; the head
and the matrix-level ``nmf_factorize`` both run it.

Variant "a" is a pure 1x1-projection design: project each stage, resize all
four to stride 4, concatenate, fuse, classify. Variant "b" is a heavy head
on the last stage only: two 3x3 conv+BN+GELU layers at stride 32, then
classify.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .blocks import BatchNorm, ConvLayer, conv, make_conv, make_norm, norm
from .encoder import EncoderFeatures, ModelConfig
from .ops import ConvSpec
from .tensor import ShapeError, Tensor, scope

# Damping added to multiplicative-update denominators. Keeps 0/0 out of the
# updates while preserving monotone descent (each coordinate moves a fraction
# of the exact update toward the majorizer's minimum).
NMF_EPS = 1e-6


def _nmf_init(rng_seed: int, c: int, rank: int, hw: int, dtype):
    """Uniform-(0,1] factor init; bases drawn before codes."""
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    bases = (1.0 - rng.random((c, rank))).astype(dtype)
    codes = (1.0 - rng.random((rank, hw))).astype(dtype)
    return bases, codes


def nmf_factorize(x: np.ndarray, rank: int, iters: int, seed: int):
    """Multiplicative-update NMF of a non-negative C-by-HW matrix.

    Returns (bases, codes, residuals) where residuals holds the Frobenius
    reconstruction error before any update and after each half-step (codes
    update, then bases update), 2*iters + 1 values in total. An input that
    is neither float32 nor float64 is factorized as its float64 copy.
    """
    if x.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {x.shape}")
    if x.dtype not in (np.float32, np.float64):
        x = x.astype(np.float64)
    if not np.isfinite(x).all():
        raise ValueError("factorization input must be finite")
    if np.any(x < 0):
        raise ValueError("factorization input must be non-negative")
    c, hw = x.shape
    if rank < 1 or rank > min(c, hw):
        raise ValueError(f"rank must be in [1, min{c, hw}], got {rank}")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    residuals = []
    for w, h in _nmf_steps(Tensor(x[None, None]), rank, iters, seed):
        residuals.append(float(np.linalg.norm(x - w.data[0, 0] @ h.data[0, 0])))
    return w.data[0, 0], h.data[0, 0], residuals


def nmf_reconstruct(x: np.ndarray, rank: int, iters: int, seed: int) -> np.ndarray:
    """Low-rank reconstruction bases @ codes after ``iters`` update rounds."""
    w, h, _ = nmf_factorize(x, rank, iters, seed)
    return w @ h


def _nmf_steps(x: Tensor, rank: int, iters: int, seed: int):
    """The multiplicative updates over a batched (N, 1, C, HW) tensor.

    Yields the factors (W, H) after the seeded init, which is a constant
    tiled over the batch, and after each half-step: codes, then bases. Under
    a tape, gradients flow through the unrolled updates into ``x``.
    """
    n, _, c, hw = x.shape
    w0, h0 = _nmf_init(seed, c, rank, hw, x.dtype)
    w = Tensor(np.broadcast_to(w0, (n, 1, c, rank)).copy())
    h = Tensor(np.broadcast_to(h0, (n, 1, rank, hw)).copy())
    yield w, h
    for _ in range(iters):
        wt = ops.mat_transpose(w)
        numer = ops.matmul(wt, x)
        denom = ops.add_scalar(ops.matmul(ops.matmul(wt, w), h), NMF_EPS)
        h = ops.div(ops.mul(h, numer), denom)
        yield w, h
        ht = ops.mat_transpose(h)
        numer = ops.matmul(x, ht)
        denom = ops.add_scalar(ops.matmul(w, ops.matmul(h, ht)), NMF_EPS)
        w = ops.div(ops.mul(w, numer), denom)
        yield w, h


@scope("decoder.nmf")
def _nmf_reconstruct_tensor(x: Tensor, rank: int, iters: int, seed: int) -> Tensor:
    """Tape-recorded NMF reconstruction W @ H of a batched (N, 1, C, HW) tensor."""
    if x.shape[1] != 1:
        raise ShapeError(f"expected shape (N, 1, C, HW), got {tuple(x.shape)}")
    for w, h in _nmf_steps(x, rank, iters, seed):
        pass
    return ops.matmul(w, h)


@dataclass
class HamParams:
    """Variant "c": aggregate, factorize, classify."""

    pre_proj: ConvLayer
    post_proj: ConvLayer
    classifier: ConvLayer
    rank: int
    iters: int
    seed: int
    include_stage1: bool = False

    def logits(self, feats: EncoderFeatures, training: bool) -> Tensor:
        maps = list(feats.maps) if self.include_stage1 else list(feats.maps[1:])
        x = conv(_gather(maps), self.pre_proj)
        x = ops.relu(x)
        n, c, h, w = x.shape
        recon = _nmf_reconstruct_tensor(
            ops.reshape(x, (n, 1, c, h * w)), self.rank, self.iters, self.seed
        )
        y = conv(ops.reshape(recon, (n, c, h, w)), self.post_proj)
        x = ops.add(x, y)
        return conv(x, self.classifier)


@dataclass
class MlpDecoderParams:
    """Variant "a": per-stage projections, fused at stride 4."""

    projs: list[ConvLayer]
    fuse: ConvLayer
    classifier: ConvLayer

    def logits(self, feats: EncoderFeatures, training: bool) -> Tensor:
        projected = [conv(m, layer) for m, layer in zip(feats.maps, self.projs)]
        x = conv(_gather(projected), self.fuse)
        return conv(x, self.classifier)


@dataclass
class CoreDecoderParams:
    """Variant "b": refinement of the last stage only."""

    refine1: ConvLayer
    refine_norm1: BatchNorm
    refine2: ConvLayer
    refine_norm2: BatchNorm
    classifier: ConvLayer

    def logits(self, feats: EncoderFeatures, training: bool) -> Tensor:
        x = ops.gelu(norm(conv(feats.f4, self.refine1), self.refine_norm1, training))
        x = ops.gelu(norm(conv(x, self.refine2), self.refine_norm2, training))
        return conv(x, self.classifier)


# Each variant's ``logits(feats, training)`` classifies on its own grid;
# decoder_forward upsamples the result to the input extent.
DecoderParams = HamParams | MlpDecoderParams | CoreDecoderParams


def build_decoder(cfg: ModelConfig, seed: int, dtype=np.float32,
                  init: bool = True) -> DecoderParams:
    """``init=False`` leaves conv weights zero; the NMF seed is still drawn."""
    stream = np.random.default_rng(np.random.SeedSequence(seed))
    rng = stream if init else None
    chans = cfg.channels
    dim = cfg.decoder_dim
    k = cfg.num_classes
    if cfg.decoder_variant == "a":
        return MlpDecoderParams(
            projs=[make_conv(rng, ConvSpec(dim, c, (1, 1)), dtype) for c in chans],
            fuse=make_conv(rng, ConvSpec(dim, 4 * dim, (1, 1)), dtype),
            classifier=make_conv(rng, ConvSpec(k, dim, (1, 1)), dtype),
        )
    if cfg.decoder_variant == "b":
        return CoreDecoderParams(
            refine1=make_conv(rng, ConvSpec(dim, chans[3], (3, 3)), dtype),
            refine_norm1=make_norm(dim, dtype),
            refine2=make_conv(rng, ConvSpec(dim, dim, (3, 3)), dtype),
            refine_norm2=make_norm(dim, dtype),
            classifier=make_conv(rng, ConvSpec(k, dim, (1, 1)), dtype),
        )
    cat = sum(chans[1:]) if not cfg.include_stage1_in_decoder else sum(chans)
    # The factor init draws from the builder stream so different build seeds
    # decorrelate, but stays frozen per model thereafter.
    nmf_seed = int(stream.integers(0, 2**31 - 1))
    return HamParams(
        pre_proj=make_conv(rng, ConvSpec(dim, cat, (1, 1)), dtype),
        post_proj=make_conv(rng, ConvSpec(dim, dim, (1, 1)), dtype),
        classifier=make_conv(rng, ConvSpec(k, dim, (1, 1)), dtype),
        rank=cfg.ham_rank,
        iters=cfg.ham_iters,
        seed=nmf_seed,
        include_stage1=cfg.include_stage1_in_decoder,
    )


def _check_batch(feats: EncoderFeatures) -> int:
    ns = {t.shape[0] for t in feats.maps}
    if len(ns) != 1:
        raise ShapeError(f"feature maps disagree on batch size: {sorted(ns)}")
    return ns.pop()


def _gather(maps: list[Tensor]) -> Tensor:
    """Resize ``maps`` onto the first entry's grid and concatenate."""
    _, _, gh, gw = maps[0].shape
    resized = [maps[0]] + [ops.bilinear_resize(m, gh, gw) for m in maps[1:]]
    return ops.concat_channels(resized)


@scope("decoder")
def decoder_forward(feats: EncoderFeatures, p: DecoderParams, training: bool = False) -> Tensor:
    """Logits of ``p``'s variant, upsampled to the input extent."""
    _check_batch(feats)
    return ops.bilinear_resize(p.logits(feats, training), feats.input_h, feats.input_w)
