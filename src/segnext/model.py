"""Assembled segmentation model and its flat parameter registry.

The registry is one walk over the params dataclasses in field declaration
order: every Tensor leaf is a parameter, every numpy array a buffer
(non-learnable normalization statistics). An entry is named by the path of
fields leading to it; list items are named from ``_ITEM_NAMES``. Entry order
is the contract for optimizer state and checkpoint layout.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Iterator

import numpy as np

from .blocks import ConvLayer, make_conv
from .decoder import DecoderParams, build_decoder, decoder_forward
from .encoder import Encoder, ModelConfig, build_encoder, encoder_forward
from .ops import ConvSpec
from .tensor import Tensor


@dataclass
class ParamEntry:
    name: str
    tensor: Tensor
    decay: bool  # weight-decay eligible: exactly the entries named ``*.weight``


@dataclass
class BufferEntry:
    name: str
    array: np.ndarray


# List field -> (item name stem, index of the first item).
_ITEM_NAMES = {
    "stages": ("stage", 1),
    "downsample": ("down", 0),
    "blocks": ("block", 0),
    "branches": ("branch", 0),
    "projs": ("proj", 0),
}


def _children(node) -> list[tuple[str, object]]:
    if is_dataclass(node):
        pairs = [(f.name, getattr(node, f.name)) for f in fields(node)]
    elif hasattr(node, "_fields"):  # NamedTuple
        pairs = list(zip(node._fields, node))
    else:
        return []
    named = []
    for name, value in pairs:
        if isinstance(value, list):
            stem, first = _ITEM_NAMES[name]
            named += [(f"{stem}{i}", item) for i, item in enumerate(value, start=first)]
        else:
            named.append((name, value))
    return named


def _registry(node, prefix: str = "") -> Iterator[ParamEntry | BufferEntry]:
    for name, value in _children(node):
        path = prefix + name
        if isinstance(value, Tensor):
            yield ParamEntry(path, value, decay=path.endswith(".weight"))
        elif isinstance(value, np.ndarray):
            yield BufferEntry(path, value)
        else:
            yield from _registry(value, path + ".")


class _Registered:
    """``parameters()`` and ``buffers()`` of a params dataclass, by the walk."""

    def parameters(self) -> list[ParamEntry]:
        return [e for e in _registry(self) if isinstance(e, ParamEntry)]

    def buffers(self) -> list[BufferEntry]:
        return [e for e in _registry(self) if isinstance(e, BufferEntry)]


@dataclass
class SegModel(_Registered):
    cfg: ModelConfig
    encoder: Encoder
    decoder: DecoderParams
    seed: int

    def forward(self, x: Tensor, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        feats = encoder_forward(self.encoder, x, training, rng)
        return decoder_forward(feats, self.decoder, training)


@dataclass
class ImageClassifier(_Registered):
    """Encoder plus a linear head; exists to cost the encoder on its own."""

    encoder: Encoder
    head: ConvLayer  # 1x1 to num_classes, applied after global pooling


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
    head = make_conv(rng, ConvSpec(num_classes, cfg.channels[3], (1, 1)), dtype)
    return ImageClassifier(enc, head)


def _seed_of(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, dtype=np.uint32)[0])
