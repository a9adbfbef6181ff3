"""Assembled segmentation model and its flat parameter registry.

The registry is one walk over the params dataclasses in field declaration
order: every Tensor leaf is a parameter, every numpy array a buffer
(non-learnable normalization statistics). An entry is named by the path of
fields leading to it; list items are named from ``_ITEM_NAMES``. Entry order
is the contract for optimizer state and checkpoint layout.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from functools import cache

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


# Config values held inside the params dataclasses; the walk does not enter them.
_CONFIG_LEAVES = (ConvSpec, ModelConfig)


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    """Fields the walk descends into; empty for leaves that hold no tensor."""
    if issubclass(cls, _CONFIG_LEAVES):
        return ()
    if is_dataclass(cls):
        return tuple(f.name for f in fields(cls))
    return getattr(cls, "_fields", ())  # NamedTuple


def _walk(node, prefix: str, params: list[ParamEntry], buffers: list[BufferEntry]) -> None:
    for name in _field_names(type(node)):
        value = getattr(node, name)
        if isinstance(value, list):
            stem, first = _ITEM_NAMES[name]
            named = [(f"{stem}{i}", item) for i, item in enumerate(value, start=first)]
        else:
            named = [(name, value)]
        for key, item in named:
            path = prefix + key
            if isinstance(item, Tensor):
                params.append(ParamEntry(path, item, decay=path.endswith(".weight")))
            elif isinstance(item, np.ndarray):
                buffers.append(BufferEntry(path, item))
            elif _field_names(type(item)):
                _walk(item, path + ".", params, buffers)


class _Registered:
    """``parameters()`` and ``buffers()`` of a params dataclass, by the walk."""

    def registry(self) -> tuple[list[ParamEntry], list[BufferEntry]]:
        """Parameters and buffers from one walk."""
        params: list[ParamEntry] = []
        buffers: list[BufferEntry] = []
        _walk(self, "", params, buffers)
        return params, buffers

    def parameters(self) -> list[ParamEntry]:
        return self.registry()[0]

    def buffers(self) -> list[BufferEntry]:
        return self.registry()[1]


@dataclass
class SegModel(_Registered):
    cfg: ModelConfig
    encoder: Encoder
    decoder: DecoderParams
    seed: int

    def forward(self, x: Tensor, training: bool = False,
                rng: np.random.Generator | None = None,
                argmax: bool = False) -> Tensor | np.ndarray:
        """Logits at the input extent; with ``argmax``, the (N, H, W) class
        map of them (see ``decoder_forward``), for inference only."""
        if argmax and training:
            raise ValueError("argmax is for inference; training needs the logits")
        feats = encoder_forward(self.encoder, x, training, rng)
        return decoder_forward(feats, self.decoder, training, argmax)


@dataclass
class ImageClassifier(_Registered):
    """Encoder plus a linear head; exists to cost the encoder on its own."""

    encoder: Encoder
    head: ConvLayer  # 1x1 to num_classes, applied after global pooling


def build_model(cfg: ModelConfig, seed: int, dtype=np.float32, init: bool = True) -> SegModel:
    """``init=False`` builds the same registry with zero conv weights and no
    random draws but the decoder's NMF seed, for a checkpoint to fill."""
    ss = np.random.SeedSequence(seed).spawn(2)
    enc = build_encoder(cfg, _seed_of(ss[0]), dtype, init)
    dec = build_decoder(cfg, _seed_of(ss[1]), dtype, init)
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
