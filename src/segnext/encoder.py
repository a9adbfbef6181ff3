"""Four-stage hierarchical encoder with named size presets.

Stage 1 is preceded by a two-step stem (two 3x3 stride-2 conv+BN layers,
3 -> C1/2 -> C1) reaching output stride 4; stages 2-4 are each preceded by
one 3x3 stride-2 conv+BN downsample. No activation follows the stem or
downsample norms. Feature maps come out at strides 4/8/16/32 with the
configured channel counts.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .blocks import (
    BatchNorm,
    BlockParams,
    ConvLayer,
    block_forward,
    conv,
    large_kernel_block_forward,
    make_block,
    make_conv,
    make_norm,
    norm,
)
from .ops import ConvSpec
from .tensor import ShapeError, Tensor, scope

MIN_INPUT_SIZE = 32


class ConfigError(ValueError):
    """A model or run configuration is invalid."""


@dataclass(frozen=True)
class StageConfig:
    channels: int
    depth: int
    expansion: int

    def __post_init__(self):
        if self.channels < 2:
            raise ConfigError(f"stage channels must be >= 2, got {self.channels}")
        if self.depth < 1:
            raise ConfigError(f"stage depth must be >= 1, got {self.depth}")
        if self.expansion < 1:
            raise ConfigError(f"stage expansion must be >= 1, got {self.expansion}")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description: encoder stages plus decoder settings."""

    stages: tuple[StageConfig, StageConfig, StageConfig, StageConfig]
    decoder_dim: int
    num_classes: int
    decoder_variant: str = "c"
    include_stage1_in_decoder: bool = False
    ham_rank: int = 64
    ham_iters: int = 6
    use_msca: bool = True
    drop_path: float = 0.0

    def __post_init__(self):
        if len(self.stages) != 4:
            raise ConfigError(f"exactly 4 stages required, got {len(self.stages)}")
        if self.decoder_dim < 1:
            raise ConfigError(f"decoder_dim must be >= 1, got {self.decoder_dim}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.decoder_variant not in ("a", "b", "c"):
            raise ConfigError(f"decoder_variant must be a, b, or c, got {self.decoder_variant!r}")
        if self.ham_rank < 1 or self.ham_rank > self.decoder_dim:
            raise ConfigError(
                f"ham_rank must be in [1, decoder_dim={self.decoder_dim}], got {self.ham_rank}"
            )
        if self.ham_iters < 1:
            raise ConfigError(f"ham_iters must be >= 1, got {self.ham_iters}")
        if not 0.0 <= self.drop_path < 1.0:
            raise ConfigError(f"drop_path must be in [0, 1), got {self.drop_path}")

    @property
    def channels(self) -> tuple[int, int, int, int]:
        return tuple(s.channels for s in self.stages)  # type: ignore[return-value]

    @property
    def depths(self) -> tuple[int, int, int, int]:
        return tuple(s.depth for s in self.stages)  # type: ignore[return-value]

    @property
    def expansions(self) -> tuple[int, int, int, int]:
        return tuple(s.expansion for s in self.stages)  # type: ignore[return-value]


def _cfg(channels, depths, expansions, decoder_dim, ham_rank, num_classes=150) -> ModelConfig:
    stages = tuple(
        StageConfig(c, d, e) for c, d, e in zip(channels, depths, expansions)
    )
    return ModelConfig(
        stages=stages, decoder_dim=decoder_dim, num_classes=num_classes, ham_rank=ham_rank
    )


# Canonical sizes. The rank of the decoder's factorization scales with the
# decoder width (decoder_dim / 4).
PRESETS: dict[str, ModelConfig] = {
    "mscan-t": _cfg((32, 64, 160, 256), (3, 3, 5, 2), (8, 8, 4, 4), 256, 64),
    "mscan-s": _cfg((64, 128, 320, 512), (2, 2, 4, 2), (8, 8, 4, 4), 256, 64),
    "mscan-b": _cfg((64, 128, 320, 512), (3, 3, 12, 3), (8, 8, 4, 4), 512, 128),
    "mscan-l": _cfg((64, 128, 320, 512), (3, 5, 27, 3), (8, 8, 4, 4), 1024, 256),
    "mscan-micro": _cfg((8, 16, 32, 64), (1, 1, 1, 1), (8, 8, 4, 4), 64, 16, num_classes=3),
}
for _size in ("t", "s", "b", "l", "micro"):
    PRESETS[f"segnext-{_size}"] = PRESETS[f"mscan-{_size}"]


def preset(name: str) -> ModelConfig:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r}; known presets: {known}") from None


@dataclass
class DownsampleLayer:
    conv: ConvLayer
    norm: BatchNorm


@dataclass
class Stage:
    downsample: list[DownsampleLayer]  # two layers for the stem, one for stages 2-4
    blocks: list[BlockParams]


@dataclass
class Encoder:
    cfg: ModelConfig
    stages: list[Stage]


@dataclass
class EncoderFeatures:
    """Stage outputs at strides 4/8/16/32, plus the input extent they came from."""

    f1: Tensor
    f2: Tensor
    f3: Tensor
    f4: Tensor
    input_h: int
    input_w: int

    @property
    def maps(self) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        return (self.f1, self.f2, self.f3, self.f4)


def _down_spec(in_c: int, out_c: int) -> ConvSpec:
    return ConvSpec(out_c, in_c, (3, 3), stride=(2, 2), padding=(1, 1))


def build_encoder(cfg: ModelConfig, seed: int, dtype=np.float32, init: bool = True) -> Encoder:
    """Deterministically initialized encoder; equal seeds build bitwise-equal
    parameters. ``init=False`` leaves conv weights zero and draws nothing."""
    rng = np.random.default_rng(np.random.SeedSequence(seed)) if init else None
    stages: list[Stage] = []
    prev = 3
    for i, sc in enumerate(cfg.stages):
        # The stem runs two stride-2 convs, the first to half the stage
        # width; later stages downsample once.
        widths = [prev, sc.channels // 2, sc.channels] if i == 0 else [prev, sc.channels]
        down = [
            DownsampleLayer(make_conv(rng, _down_spec(a, b), dtype), make_norm(b, dtype))
            for a, b in zip(widths, widths[1:])
        ]
        blocks = [
            make_block(rng, sc.channels, sc.expansion, multi_scale=cfg.use_msca, dtype=dtype)
            for _ in range(sc.depth)
        ]
        stages.append(Stage(down, blocks))
        prev = sc.channels
    return Encoder(cfg, stages)


def encoder_forward(enc: Encoder, x: Tensor, training: bool = False,
                    rng: np.random.Generator | None = None) -> EncoderFeatures:
    n, c, h, w = x.shape
    if c != 3:
        raise ShapeError(f"encoder input must have 3 channels, got {c}")
    if h < MIN_INPUT_SIZE or w < MIN_INPUT_SIZE:
        raise ShapeError(
            f"encoder input must be at least {MIN_INPUT_SIZE}x{MIN_INPUT_SIZE}, got {h}x{w}"
        )
    fwd = block_forward if enc.cfg.use_msca else large_kernel_block_forward
    feats: list[Tensor] = []
    for si, stage in enumerate(enc.stages, start=1):
        for layer in stage.downsample:
            x = norm(conv(x, layer.conv), layer.norm, training)
        for bi, block in enumerate(stage.blocks):
            with scope(f"encoder.stage{si}.block{bi}"):
                x = fwd(x, block, training, enc.cfg.drop_path, rng)
        feats.append(x)
    return EncoderFeatures(*feats, input_h=h, input_w=w)
