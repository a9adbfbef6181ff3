"""Hierarchical encoder: stride ladder, presets, configuration validation,
determinism, and gradient flow."""
import numpy as np
import pytest

from segnext import ops
from segnext.encoder import (MIN_INPUT_SIZE, PRESETS, ConfigError, ModelConfig,
                             build_encoder, encoder_forward, preset)
from segnext.tensor import GradTape, ShapeError, Tensor, backward

from test_blocks import collect_tensors, param_count

MICRO = preset("mscan-micro")
# A valid custom model for the validation tests to vary one field of.
VALID = dict(channels=(8,) * 4, depths=(1,) * 4, expansions=(2,) * 4,
             decoder_dim=16, num_classes=3, ham_rank=8)


def micro_encoder(seed=0):
    return build_encoder(MICRO, seed)


class TestConfig:
    def test_presets_cover_all_sizes_with_aliases(self):
        for size in ("t", "s", "b", "l", "micro"):
            assert preset(f"mscan-{size}") is preset(f"segnext-{size}")

    def test_preset_tables(self):
        t = preset("mscan-t")
        assert t.channels == (32, 64, 160, 256)
        assert t.depths == (3, 3, 5, 2)
        assert t.expansions == (8, 8, 4, 4)
        assert (t.decoder_dim, t.ham_rank) == (256, 64)
        s = preset("mscan-s")
        assert s.channels == (64, 128, 320, 512)
        assert s.depths == (2, 2, 4, 2)
        b = preset("mscan-b")
        assert b.depths == (3, 3, 12, 3)
        assert (b.decoder_dim, b.ham_rank) == (512, 128)
        l = preset("mscan-l")
        assert l.depths == (3, 5, 27, 3)
        assert (l.decoder_dim, l.ham_rank) == (1024, 256)
        assert MICRO.channels == (8, 16, 32, 64)
        assert MICRO.num_classes == 3

    def test_unknown_preset_lists_known_names(self):
        with pytest.raises(ConfigError, match="mscan-t"):
            preset("mscan-xxl")

    def test_stage_validation(self):
        with pytest.raises(ConfigError, match="^channels must"):
            ModelConfig(**{**VALID, "channels": (1, 8, 8, 8)})
        with pytest.raises(ConfigError, match="^depths must"):
            ModelConfig(**{**VALID, "depths": (1, 1, 0, 1)})
        with pytest.raises(ConfigError, match="^expansions must"):
            ModelConfig(**{**VALID, "expansions": (2, 2, 2, 0)})

    def test_model_validation(self):
        ModelConfig(**VALID)
        with pytest.raises(ConfigError, match="^channels must have 4 values"):
            ModelConfig(**{**VALID, "channels": (8,) * 3})
        with pytest.raises(ConfigError):
            ModelConfig(**{**VALID, "num_classes": 1})
        with pytest.raises(ConfigError):
            ModelConfig(**{**VALID, "decoder_variant": "d"})
        with pytest.raises(ConfigError):
            ModelConfig(**{**VALID, "ham_rank": 17})  # above decoder_dim
        with pytest.raises(ConfigError):
            ModelConfig(**{**VALID, "ham_iters": 0})
        with pytest.raises(ConfigError):
            ModelConfig(**{**VALID, "drop_path": 1.0})


class TestForward:
    def test_stride_ladder_4_8_16_32(self):
        enc = micro_encoder()
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 64, 96)).astype(np.float32))
        f = encoder_forward(enc, x)
        assert f.f1.shape == (2, 8, 16, 24)
        assert f.f2.shape == (2, 16, 8, 12)
        assert f.f3.shape == (2, 32, 4, 6)
        assert f.f4.shape == (2, 64, 2, 3)
        assert (f.input_h, f.input_w) == (64, 96)
        assert f.maps == (f.f1, f.f2, f.f3, f.f4)

    def test_odd_input_sizes_round_up_like_strided_conv(self):
        enc = micro_encoder()
        x = Tensor(np.zeros((1, 3, 33, 47), dtype=np.float32))
        f = encoder_forward(enc, x)
        # each stride-2 3x3 pad-1 layer maps s -> ceil(s/2)
        assert f.f1.shape[2:] == (9, 12)
        assert f.f4.shape[2:] == (2, 2)

    def test_rejects_small_or_nonrgb_input(self):
        enc = micro_encoder()
        bad = MIN_INPUT_SIZE - 1
        with pytest.raises(ShapeError):
            encoder_forward(enc, Tensor(np.zeros((1, 3, bad, 64), dtype=np.float32)))
        with pytest.raises(ShapeError):
            encoder_forward(enc, Tensor(np.zeros((1, 3, 64, bad), dtype=np.float32)))
        with pytest.raises(ShapeError):
            encoder_forward(enc, Tensor(np.zeros((1, 4, 64, 64), dtype=np.float32)))

    def test_same_seed_builds_identical_parameters(self):
        a = micro_encoder(seed=5)
        b = micro_encoder(seed=5)
        ta, tb = collect_tensors(a), collect_tensors(b)
        assert len(ta) == len(tb)
        for x, y in zip(ta, tb):
            np.testing.assert_array_equal(x.data, y.data)

    def test_different_seeds_differ(self):
        a = micro_encoder(seed=5)
        b = micro_encoder(seed=6)
        assert any(not np.array_equal(x.data, y.data)
                   for x, y in zip(collect_tensors(a), collect_tensors(b)))

    def test_single_branch_variant_builds_and_runs(self):
        from dataclasses import replace
        cfg = replace(MICRO, use_msca=False)
        enc = build_encoder(cfg, 0)
        x = Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32))
        f = encoder_forward(enc, x)
        assert f.f4.shape == (1, 64, 1, 1)
        # three strip pairs in multi-scale mode, one in single-branch mode
        assert len(enc.stages[0].blocks[0].attn.branches) == 1


class TestParams:
    def test_stem_has_two_downsample_layers_rest_one(self):
        enc = micro_encoder()
        assert [len(s.downsample) for s in enc.stages] == [2, 1, 1, 1]
        assert enc.stages[0].downsample[0].conv.spec.out_channels == 4
        for s in enc.stages:
            for d in s.downsample:
                assert d.conv.spec.stride == (2, 2)
                assert d.conv.spec.kernel == (3, 3)

    def test_param_count_is_sum_of_parts(self):
        enc = micro_encoder()
        total = param_count(enc)

        def conv_p(spec):
            kh, kw = spec.kernel
            n = spec.out_channels * (spec.in_channels // spec.groups) * kh * kw
            return n + (spec.out_channels if spec.bias else 0)

        want = 0
        for s, c, depth, e in zip(enc.stages, MICRO.channels, MICRO.depths, MICRO.expansions):
            for d in s.downsample:
                want += conv_p(d.conv.spec) + 2 * d.conv.spec.out_channels
            want += depth * ((3 + 2 * e) * c * c + (120 + 11 * e) * c)
        assert total == want

    def test_gradient_reaches_every_parameter(self):
        enc = micro_encoder()
        x = Tensor(np.random.default_rng(1).normal(
            scale=0.5, size=(2, 3, 32, 32)).astype(np.float32))
        with GradTape() as tape:
            f = encoder_forward(enc, x, training=True)
            loss = ops.mean_all(ops.mul(f.f4, f.f4))
            for t in (f.f1, f.f2, f.f3):
                loss = ops.add(loss, ops.mean_all(ops.mul(t, t)))
        grads = backward(tape, loss)
        missing = [t for t in collect_tensors(enc)
                   if np.abs(grads.of(t)).max() == 0]
        # every tensor should receive some gradient through the four taps
        assert missing == []
