"""Multi-scale convolutional attention and the encoder building block.

The attention unit computes, for input features F:

    base = depthwise_5x5(F)
    Att  = conv_1x1(base + branch_7(base) + branch_11(base) + branch_21(base))
    Out  = Att * F          (elementwise)

where each branch is a depthwise (1,k)-then-(k,1) strip pair and the bare
``base`` term is the identity branch. The single-branch variant used by the
large-kernel ablation keeps only the 21-strip pair and drops the identity
term.

The building block wraps the attention unit in a pre-norm residual pair:

    x1  = x + ls1 * attn_out(msca(gelu(attn_in(bn1(x)))))
    out = x1 + ls2 * project(gelu(dw3x3(expand(bn2(x1)))))

with learnable per-channel layer scales ls1/ls2.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import ops
from .initializers import fan_out_normal, trunc_normal
from .ops import ConvSpec
from .tensor import ShapeError, Tensor, recording

LAYER_SCALE_INIT = 1e-2
STRIP_KERNELS = (7, 11, 21)
# Every batch norm's epsilon and running-statistics momentum.
BN_EPS = 1e-5
BN_MOMENTUM = 0.1

# Bytes of one block of FFN hidden channels at inference. A block's
# expansion, depthwise and GELU outputs are the FFN's only hidden-width
# arrays, so no hidden-size tensor (16.8 MB in segnext-t's first stage at
# 512x512) is ever made.
_FFN_BLOCK_BYTES = 2 << 20


@dataclass
class ConvLayer:
    spec: ConvSpec
    weight: Tensor
    bias: Tensor | None


@dataclass
class BatchNorm:
    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray


class StripPair(NamedTuple):
    """A (1,k) horizontal then (k,1) vertical depthwise strip."""

    h: ConvLayer
    v: ConvLayer


@dataclass
class MscaParams:
    """Weights of one attention unit over C channels.

    ``branches`` holds depthwise strip pairs; three pairs with k = 7/11/21 in
    multi-scale mode, a single k = 21 pair otherwise.
    """

    local_dw: ConvLayer
    branches: list[StripPair]
    channel_mix: ConvLayer

    @property
    def multi_scale(self) -> bool:
        return len(self.branches) > 1


@dataclass
class BlockParams:
    norm1: BatchNorm
    attn_in: ConvLayer
    attn: MscaParams
    attn_out: ConvLayer
    norm2: BatchNorm
    ffn_expand: ConvLayer
    ffn_dw: ConvLayer
    ffn_project: ConvLayer
    layer_scale1: Tensor
    layer_scale2: Tensor


def conv(x: Tensor, layer: ConvLayer) -> Tensor:
    return ops.conv2d(x, layer.weight, layer.bias, layer.spec)


def norm(x: Tensor, bn: BatchNorm, training: bool) -> Tensor:
    return ops.batchnorm2d(
        x, bn.gamma, bn.beta, bn.running_mean, bn.running_var, BN_EPS, training, BN_MOMENTUM
    )


def make_conv(rng: np.random.Generator | None, spec: ConvSpec, dtype=np.float32) -> ConvLayer:
    """Initialized conv layer: truncated normal for 1x1, fan-out normal else;
    zero weights without a generator, for a checkpoint to overwrite."""
    shape = spec.weight_shape
    if rng is None:
        w = np.zeros(shape, dtype=dtype)
    elif spec.kernel == (1, 1):
        w = trunc_normal(rng, shape, std=0.02, dtype=dtype)
    else:
        w = fan_out_normal(rng, shape, groups=spec.groups, dtype=dtype)
    weight = Tensor(w, requires_grad=True)
    bias = None
    if spec.bias:
        bias = Tensor(np.zeros((1, spec.out_channels, 1, 1), dtype=dtype), requires_grad=True)
    return ConvLayer(spec, weight, bias)


def make_norm(channels: int, dtype=np.float32) -> BatchNorm:
    return BatchNorm(
        gamma=Tensor(np.ones((1, channels, 1, 1), dtype=dtype), requires_grad=True),
        beta=Tensor(np.zeros((1, channels, 1, 1), dtype=dtype), requires_grad=True),
        running_mean=np.zeros(channels, dtype=dtype),
        running_var=np.ones(channels, dtype=dtype),
    )


def _dw(channels: int, kernel: tuple[int, int]) -> ConvSpec:
    return ConvSpec(channels, channels, kernel, groups=channels)


def make_msca(rng: np.random.Generator | None, channels: int, multi_scale: bool = True,
              dtype=np.float32) -> MscaParams:
    kernels = STRIP_KERNELS if multi_scale else STRIP_KERNELS[-1:]
    branches = [
        StripPair(
            make_conv(rng, _dw(channels, (1, k)), dtype),
            make_conv(rng, _dw(channels, (k, 1)), dtype),
        )
        for k in kernels
    ]
    return MscaParams(
        local_dw=make_conv(rng, _dw(channels, (5, 5)), dtype),
        branches=branches,
        channel_mix=make_conv(rng, ConvSpec(channels, channels, (1, 1)), dtype),
    )


def make_block(rng: np.random.Generator | None, channels: int, expansion: int,
               multi_scale: bool = True, dtype=np.float32) -> BlockParams:
    hidden = channels * expansion
    ls = np.full((1, channels, 1, 1), LAYER_SCALE_INIT, dtype=dtype)
    return BlockParams(
        norm1=make_norm(channels, dtype),
        attn_in=make_conv(rng, ConvSpec(channels, channels, (1, 1)), dtype),
        attn=make_msca(rng, channels, multi_scale, dtype),
        attn_out=make_conv(rng, ConvSpec(channels, channels, (1, 1)), dtype),
        norm2=make_norm(channels, dtype),
        ffn_expand=make_conv(rng, ConvSpec(hidden, channels, (1, 1)), dtype),
        ffn_dw=make_conv(rng, _dw(hidden, (3, 3)), dtype),
        ffn_project=make_conv(rng, ConvSpec(channels, hidden, (1, 1)), dtype),
        layer_scale1=Tensor(ls.copy(), requires_grad=True),
        layer_scale2=Tensor(ls.copy(), requires_grad=True),
    )


def msca_forward(f: Tensor, p: MscaParams) -> Tensor:
    """Attention reweighting: multi-branch aggregation then elementwise gate."""
    if f.shape[1] != p.local_dw.spec.in_channels:
        raise ShapeError(
            f"input has {f.shape[1]} channels, attention params expect "
            f"{p.local_dw.spec.in_channels}"
        )
    base = conv(f, p.local_dw)
    if p.multi_scale:
        att = base
        for horiz, vert in p.branches:
            att = ops.add(att, conv(conv(base, horiz), vert))
    else:
        horiz, vert = p.branches[0]
        att = conv(conv(base, horiz), vert)
    att = conv(att, p.channel_mix)
    return ops.mul(att, f)


def _attention_sub_block(x: Tensor, p: BlockParams) -> Tensor:
    y = ops.gelu(conv(x, p.attn_in))
    y = msca_forward(y, p.attn)
    return conv(y, p.attn_out)


def _ffn_layers(p: BlockParams, c0: int, c1: int) -> tuple[ConvLayer, ConvLayer, ConvLayer]:
    """The FFN's layers restricted to hidden channels ``c0:c1``; the
    projection leaves out its bias, which the sum of the blocks adds once."""
    def hidden_rows(layer: ConvLayer, **spec) -> ConvLayer:
        return ConvLayer(replace(layer.spec, **spec), Tensor(layer.weight.data[c0:c1]),
                         Tensor(layer.bias.data[:, c0:c1]))

    cb = c1 - c0
    project = p.ffn_project
    return (
        hidden_rows(p.ffn_expand, out_channels=cb),
        hidden_rows(p.ffn_dw, out_channels=cb, in_channels=cb, groups=cb),
        ConvLayer(replace(project.spec, in_channels=cb, bias=False),
                  Tensor(project.weight.data[:, c0:c1]), None),
    )


def _ffn_sub_block(x: Tensor, p: BlockParams) -> Tensor:
    # Without a tape the hidden channels run one block of about
    # _FFN_BLOCK_BYTES at a time, each block's projection summed into one
    # output, so no hidden-size tensor exists. A tape, or a hidden tensor
    # that fits in one block (an empty batch, say), runs the layers whole.
    hidden = p.ffn_dw.spec.out_channels
    n, _, h, w = x.shape
    step = hidden
    if not recording():
        step = min(hidden, max(1, _FFN_BLOCK_BYTES // max(1, n * h * w * x.data.itemsize)))
    out = None
    for c0 in range(0, hidden, step):
        expand, dw, project = ((p.ffn_expand, p.ffn_dw, p.ffn_project) if step == hidden
                               else _ffn_layers(p, c0, min(c0 + step, hidden)))
        y = conv(x, expand)
        y = conv(y, dw)
        y = ops.gelu(y)
        y = conv(y, project)
        if out is None:
            out = y
        else:
            out.data += y.data
    if step < hidden:
        out.data += p.ffn_project.bias.data
    return out


def block_forward(x: Tensor, p: BlockParams, training: bool = False,
                  drop_path: float = 0.0, rng: np.random.Generator | None = None) -> Tensor:
    """Pre-norm residual block; ``drop_path`` randomly skips residual branches
    per sample during training (rate 0 disables and consumes no randomness)."""
    if not p.attn.multi_scale:
        raise ShapeError("block_forward requires multi-scale attention params; "
                         "use large_kernel_block_forward for the single-branch variant")
    return _block_forward(x, p, training, drop_path, rng)


def large_kernel_block_forward(x: Tensor, p: BlockParams, training: bool = False,
                               drop_path: float = 0.0,
                               rng: np.random.Generator | None = None) -> Tensor:
    """Ablation block: single 21-strip attention branch, no identity sum."""
    if p.attn.multi_scale:
        raise ShapeError("large_kernel_block_forward requires single-branch attention params")
    return _block_forward(x, p, training, drop_path, rng)


def _residual(x: Tensor, y: Tensor, layer_scale: Tensor, training: bool,
              drop_path: float, rng: np.random.Generator | None) -> Tensor:
    """``x`` plus the branch ``y`` times its layer scale and, in training
    with ``drop_path`` > 0, a per-sample keep gate drawn from ``rng``."""
    y = ops.scale(y, layer_scale)
    if training and drop_path > 0.0:
        if rng is None:
            raise ValueError("drop_path > 0 in training mode needs an rng")
        n = x.shape[0]
        keep = (rng.random(n) >= drop_path).astype(x.data.dtype) / (1.0 - drop_path)
        y = ops.scale(y, Tensor(keep.reshape(n, 1, 1, 1)))
    return ops.add(x, y)


def _block_forward(x: Tensor, p: BlockParams, training: bool,
                   drop_path: float, rng: np.random.Generator | None) -> Tensor:
    y = _attention_sub_block(norm(x, p.norm1, training), p)
    x = _residual(x, y, p.layer_scale1, training, drop_path, rng)
    y = _ffn_sub_block(norm(x, p.norm2, training), p)
    return _residual(x, y, p.layer_scale2, training, drop_path, rng)
