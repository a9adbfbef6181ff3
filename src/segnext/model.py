"""Assembled segmentation model and its flat parameter registry.

The registry is an ordered list of named entries, one per learnable tensor,
walked in construction order. Entry order is the contract for optimizer
state and checkpoint layout. Non-learnable normalization statistics are
exposed separately as buffers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .blocks import BatchNorm, BlockParams, ConvLayer, MscaParams
from .decoder import (
    CoreDecoderParams,
    DecoderParams,
    HamParams,
    MlpDecoderParams,
    build_decoder,
    decoder_forward,
)
from .encoder import Encoder, ModelConfig, build_encoder, encoder_forward
from .initializers import trunc_normal
from .tensor import Tensor


@dataclass
class ParamEntry:
    name: str
    tensor: Tensor
    decay: bool  # weight-decay eligible (conv/linear weights only)


@dataclass
class BufferEntry:
    name: str
    array: np.ndarray


def _conv_entries(prefix: str, layer: ConvLayer) -> Iterator[ParamEntry]:
    yield ParamEntry(f"{prefix}.weight", layer.weight, decay=True)
    if layer.bias is not None:
        yield ParamEntry(f"{prefix}.bias", layer.bias, decay=False)


def _norm_entries(prefix: str, bn: BatchNorm) -> Iterator[ParamEntry]:
    yield ParamEntry(f"{prefix}.gamma", bn.gamma, decay=False)
    yield ParamEntry(f"{prefix}.beta", bn.beta, decay=False)


def _msca_entries(prefix: str, p: MscaParams) -> Iterator[ParamEntry]:
    yield from _conv_entries(f"{prefix}.local_dw", p.local_dw)
    for i, (horiz, vert) in enumerate(p.branches):
        yield from _conv_entries(f"{prefix}.branch{i}.h", horiz)
        yield from _conv_entries(f"{prefix}.branch{i}.v", vert)
    yield from _conv_entries(f"{prefix}.channel_mix", p.channel_mix)


def _block_entries(prefix: str, b: BlockParams) -> Iterator[ParamEntry]:
    yield from _norm_entries(f"{prefix}.norm1", b.norm1)
    yield from _conv_entries(f"{prefix}.attn_in", b.attn_in)
    yield from _msca_entries(f"{prefix}.attn", b.attn)
    yield from _conv_entries(f"{prefix}.attn_out", b.attn_out)
    yield from _norm_entries(f"{prefix}.norm2", b.norm2)
    yield from _conv_entries(f"{prefix}.ffn_expand", b.ffn_expand)
    yield from _conv_entries(f"{prefix}.ffn_dw", b.ffn_dw)
    yield from _conv_entries(f"{prefix}.ffn_project", b.ffn_project)
    yield ParamEntry(f"{prefix}.layer_scale1", b.layer_scale1, decay=False)
    yield ParamEntry(f"{prefix}.layer_scale2", b.layer_scale2, decay=False)


def encoder_param_entries(enc: Encoder, prefix: str = "encoder") -> Iterator[ParamEntry]:
    for si, stage in enumerate(enc.stages, start=1):
        sp = f"{prefix}.stage{si}"
        for di, down in enumerate(stage.downsample):
            yield from _conv_entries(f"{sp}.down{di}.conv", down.conv)
            yield from _norm_entries(f"{sp}.down{di}.norm", down.norm)
        for bi, block in enumerate(stage.blocks):
            yield from _block_entries(f"{sp}.block{bi}", block)


def decoder_param_entries(dec: DecoderParams, prefix: str = "decoder") -> Iterator[ParamEntry]:
    if isinstance(dec, HamParams):
        yield from _conv_entries(f"{prefix}.pre_proj", dec.pre_proj)
        yield from _conv_entries(f"{prefix}.post_proj", dec.post_proj)
        yield from _conv_entries(f"{prefix}.classifier", dec.classifier)
    elif isinstance(dec, MlpDecoderParams):
        for i, proj in enumerate(dec.projs):
            yield from _conv_entries(f"{prefix}.proj{i}", proj)
        yield from _conv_entries(f"{prefix}.fuse", dec.fuse)
        yield from _conv_entries(f"{prefix}.classifier", dec.classifier)
    else:
        yield from _conv_entries(f"{prefix}.refine1", dec.refine1)
        yield from _norm_entries(f"{prefix}.refine_norm1", dec.refine_norm1)
        yield from _conv_entries(f"{prefix}.refine2", dec.refine2)
        yield from _norm_entries(f"{prefix}.refine_norm2", dec.refine_norm2)
        yield from _conv_entries(f"{prefix}.classifier", dec.classifier)


def _norm_buffers(prefix: str, bn: BatchNorm) -> Iterator[BufferEntry]:
    yield BufferEntry(f"{prefix}.running_mean", bn.running_mean)
    yield BufferEntry(f"{prefix}.running_var", bn.running_var)


def encoder_buffer_entries(enc: Encoder, prefix: str = "encoder") -> Iterator[BufferEntry]:
    for si, stage in enumerate(enc.stages, start=1):
        sp = f"{prefix}.stage{si}"
        for di, down in enumerate(stage.downsample):
            yield from _norm_buffers(f"{sp}.down{di}.norm", down.norm)
        for bi, block in enumerate(stage.blocks):
            yield from _norm_buffers(f"{sp}.block{bi}.norm1", block.norm1)
            yield from _norm_buffers(f"{sp}.block{bi}.norm2", block.norm2)


def decoder_buffer_entries(dec: DecoderParams, prefix: str = "decoder") -> Iterator[BufferEntry]:
    if isinstance(dec, CoreDecoderParams):
        yield from _norm_buffers(f"{prefix}.refine_norm1", dec.refine_norm1)
        yield from _norm_buffers(f"{prefix}.refine_norm2", dec.refine_norm2)


@dataclass
class SegModel:
    cfg: ModelConfig
    encoder: Encoder
    decoder: DecoderParams
    seed: int

    def forward(self, x: Tensor, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        feats = encoder_forward(self.encoder, x, training, rng)
        return decoder_forward(feats, self.decoder, training)

    def parameters(self) -> list[ParamEntry]:
        return list(encoder_param_entries(self.encoder)) + list(
            decoder_param_entries(self.decoder)
        )

    def buffers(self) -> list[BufferEntry]:
        return list(encoder_buffer_entries(self.encoder)) + list(
            decoder_buffer_entries(self.decoder)
        )


@dataclass
class ImageClassifier:
    """Encoder plus a linear head; exists to cost the encoder on its own."""

    encoder: Encoder
    head_weight: Tensor  # (num_classes, C4, 1, 1), applied after global pooling
    head_bias: Tensor

    def parameters(self) -> list[ParamEntry]:
        return list(encoder_param_entries(self.encoder)) + [
            ParamEntry("head.weight", self.head_weight, decay=True),
            ParamEntry("head.bias", self.head_bias, decay=False),
        ]

    def buffers(self) -> list[BufferEntry]:
        return list(encoder_buffer_entries(self.encoder))


def build_model(cfg: ModelConfig, seed: int, dtype=np.float32) -> SegModel:
    ss = np.random.SeedSequence(seed).spawn(2)
    enc = build_encoder(cfg, _seed_of(ss[0]), dtype)
    dec = build_decoder(cfg, _seed_of(ss[1]), dtype)
    return SegModel(cfg, enc, dec, seed)


def build_classifier(cfg: ModelConfig, seed: int, num_classes: int = 1000,
                     dtype=np.float32) -> ImageClassifier:
    ss = np.random.SeedSequence(seed).spawn(2)
    enc = build_encoder(cfg, _seed_of(ss[0]), dtype)
    rng = np.random.default_rng(ss[1])
    c4 = cfg.channels[3]
    weight = Tensor(trunc_normal(rng, (num_classes, c4, 1, 1), dtype=dtype), requires_grad=True)
    bias = Tensor(np.zeros((1, num_classes, 1, 1), dtype=dtype), requires_grad=True)
    return ImageClassifier(enc, weight, bias)


def _seed_of(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, dtype=np.uint32)[0])
