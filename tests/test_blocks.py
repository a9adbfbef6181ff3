"""Attention unit and residual block: shape contracts, hand-composed
references, parameter counts, and residual gating."""
import dataclasses

import numpy as np
import pytest

from segnext import ops
from segnext.blocks import (LAYER_SCALE_INIT, STRIP_KERNELS, BlockParams,
                            block_forward, large_kernel_block_forward,
                            make_block, make_msca, msca_forward)
from segnext.tensor import GradTape, ShapeError, Tensor, backward

from oracles import conv2d_loops, rel_err


def collect_tensors(obj, out=None):
    """All requires_grad Tensors reachable through dataclass fields and lists."""
    if out is None:
        out = []
    if isinstance(obj, Tensor):
        if obj.requires_grad:
            out.append(obj)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            collect_tensors(getattr(obj, f.name), out)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            collect_tensors(item, out)
    return out


def param_count(obj):
    return sum(t.data.size for t in collect_tensors(obj))


def conv_ref(x, layer):
    """Apply one conv layer through the six-loop reference."""
    b = None if layer.bias is None else layer.bias.data
    return conv2d_loops(x, layer.weight.data, b,
                        layer.spec.stride, layer.spec.padding, layer.spec.groups)


class TestMsca:
    def test_output_shape_matches_input(self):
        rng = np.random.default_rng(0)
        p = make_msca(rng, 8)
        x = Tensor(rng.normal(size=(2, 8, 11, 13)).astype(np.float32))
        assert msca_forward(x, p).shape == (2, 8, 11, 13)

    def test_channel_mismatch_raises(self):
        p = make_msca(np.random.default_rng(0), 8)
        with pytest.raises(ShapeError):
            msca_forward(Tensor(np.zeros((1, 4, 8, 8))), p)

    def test_branch_kernels(self):
        p = make_msca(np.random.default_rng(0), 8)
        kernels = [(h.spec.kernel, v.spec.kernel) for h, v in p.branches]
        assert kernels == [((1, k), (k, 1)) for k in STRIP_KERNELS]
        assert p.local_dw.spec.kernel == (5, 5)
        assert p.local_dw.spec.groups == 8
        assert p.channel_mix.spec.kernel == (1, 1)
        assert p.channel_mix.spec.groups == 1

    def test_matches_hand_composition(self):
        # independently recompose the unit from the loop-checked conv reference:
        # gate(x) = mix(dw5(x) + sum_k strip_k(dw5(x))) * x
        rng = np.random.default_rng(1)
        p = make_msca(rng, 4, dtype=np.float64)
        assert p.multi_scale
        x = rng.normal(size=(1, 4, 9, 9))
        base = conv_ref(x, p.local_dw)
        att = base.copy()
        for horiz, vert in p.branches:
            att = att + conv_ref(conv_ref(base, horiz), vert)
        want = conv_ref(att, p.channel_mix) * x
        got = msca_forward(Tensor(x), p).data
        assert rel_err(got, want) <= 1e-12

    def test_single_branch_drops_identity_term(self):
        rng = np.random.default_rng(2)
        p = make_msca(rng, 4, multi_scale=False, dtype=np.float64)
        assert len(p.branches) == 1 and not p.multi_scale
        assert p.branches[0][0].spec.kernel == (1, 21)
        x = rng.normal(size=(1, 4, 8, 8))
        base = conv_ref(x, p.local_dw)
        horiz, vert = p.branches[0]
        want = conv_ref(conv_ref(conv_ref(base, horiz), vert), p.channel_mix) * x
        got = msca_forward(Tensor(x), p).data
        assert rel_err(got, want) <= 1e-12

    def test_gate_on_constant_attention_scales_input(self):
        # zero all weights except a centred identity mix with bias b:
        # attention map is the constant b, so the unit reduces to b * x
        rng = np.random.default_rng(3)
        p = make_msca(rng, 3, dtype=np.float64)
        for layer in [p.local_dw, p.channel_mix,
                      *(l for pair in p.branches for l in pair)]:
            layer.weight.data[...] = 0.0
            layer.bias.data[...] = 0.0
        p.channel_mix.bias.data[...] = 2.5
        x = rng.normal(size=(1, 3, 6, 6))
        got = msca_forward(Tensor(x), p).data
        assert rel_err(got, 2.5 * x) <= 1e-12

    @pytest.mark.parametrize("channels,expect", [(4, 84 * 4), (16, 84 * 16)])
    def test_branch_params_linear_in_channels(self, channels, expect):
        p = make_msca(np.random.default_rng(0), channels)
        got = sum(param_count(l) for pair in p.branches for l in pair)
        assert got == expect


class TestBlock:
    def test_layer_scale_init_value(self):
        p = make_block(np.random.default_rng(0), 8, expansion=4)
        np.testing.assert_array_equal(p.layer_scale1.data, np.float32(LAYER_SCALE_INIT))
        np.testing.assert_array_equal(p.layer_scale2.data, np.float32(LAYER_SCALE_INIT))

    def test_zeroed_layer_scales_make_identity(self):
        rng = np.random.default_rng(4)
        p = make_block(rng, 8, expansion=2)
        p.layer_scale1.data[...] = 0.0
        p.layer_scale2.data[...] = 0.0
        x = rng.normal(size=(2, 8, 7, 7)).astype(np.float32)
        out = block_forward(Tensor(x), p, training=False)
        np.testing.assert_array_equal(out.data, x)

    @pytest.mark.parametrize("c,e", [(8, 4), (16, 2), (32, 8)])
    def test_param_count_formula(self, c, e):
        p = make_block(np.random.default_rng(0), c, expansion=e)
        assert param_count(p) == (3 + 2 * e) * c * c + (120 + 11 * e) * c

    def test_output_shape_and_finite(self):
        rng = np.random.default_rng(5)
        p = make_block(rng, 8, expansion=4)
        x = Tensor(rng.normal(size=(2, 8, 9, 11)).astype(np.float32))
        out = block_forward(x, p, training=True)
        assert out.shape == (2, 8, 9, 11)
        assert np.isfinite(out.data).all()

    def test_gradient_reaches_every_parameter(self):
        rng = np.random.default_rng(6)
        p = make_block(rng, 4, expansion=2)
        x = Tensor(rng.normal(size=(2, 4, 8, 8)).astype(np.float32))
        with GradTape() as tape:
            out = block_forward(x, p, training=True)
            loss = ops.mean_all(ops.mul(out, out))
        grads = backward(tape, loss)
        for t in collect_tensors(p):
            g = grads.of(t)
            assert g.shape == t.shape
            assert np.abs(g).max() > 0

    def test_variant_forwards_reject_mismatched_params(self):
        rng = np.random.default_rng(7)
        multi = make_block(rng, 4, expansion=2, multi_scale=True)
        single = make_block(rng, 4, expansion=2, multi_scale=False)
        x = Tensor(np.zeros((1, 4, 8, 8), dtype=np.float32))
        with pytest.raises(ShapeError):
            block_forward(x, single)
        with pytest.raises(ShapeError):
            large_kernel_block_forward(x, multi)

    def test_single_branch_block_runs(self):
        rng = np.random.default_rng(8)
        p = make_block(rng, 8, expansion=2, multi_scale=False)
        x = Tensor(rng.normal(size=(1, 8, 8, 8)).astype(np.float32))
        out = large_kernel_block_forward(x, p)
        assert out.shape == (1, 8, 8, 8)


class TestDropPath:
    def test_eval_mode_ignores_rate(self):
        rng = np.random.default_rng(9)
        p = make_block(rng, 4, expansion=2)
        x = Tensor(rng.normal(size=(2, 4, 6, 6)).astype(np.float32))
        plain = block_forward(x, p, training=False)
        gated = block_forward(x, p, training=False, drop_path=0.9,
                              rng=np.random.default_rng(0))
        np.testing.assert_array_equal(plain.data, gated.data)

    def test_rate_zero_consumes_no_randomness(self):
        rng = np.random.default_rng(10)
        p = make_block(rng, 4, expansion=2)
        x = Tensor(rng.normal(size=(2, 4, 6, 6)).astype(np.float32))
        out = block_forward(x, p, training=True, drop_path=0.0, rng=None)
        assert np.isfinite(out.data).all()

    def test_training_rate_without_rng_raises(self):
        p = make_block(np.random.default_rng(0), 4, expansion=2)
        x = Tensor(np.zeros((1, 4, 6, 6), dtype=np.float32))
        with pytest.raises(ValueError):
            block_forward(x, p, training=True, drop_path=0.5, rng=None)

    def test_dropped_sample_passes_residual_unchanged(self):
        # per-sample gate: find a seed where sample 0 drops both branches
        # and check it comes out exactly as the input
        rng = np.random.default_rng(11)
        p = make_block(rng, 4, expansion=2)
        x = rng.normal(size=(3, 4, 6, 6)).astype(np.float32)
        for seed in range(200):
            probe = np.random.default_rng(seed)
            draws = probe.random((2, 3))
            if draws[0, 0] < 0.5 and draws[1, 0] < 0.5 and \
               (draws[:, 1:] >= 0.5).all():
                break
        else:
            pytest.fail("no seed with the needed drop pattern")
        out = block_forward(Tensor(x), p, training=True, drop_path=0.5,
                            rng=np.random.default_rng(seed))
        np.testing.assert_array_equal(out.data[0], x[0])
        assert np.abs(out.data[1] - x[1]).max() > 0

    def test_kept_branches_are_rescaled(self):
        # with every sample kept, residual contributions carry a 1/(1-p)
        # factor relative to the ungated training forward
        rng = np.random.default_rng(12)
        p = make_block(rng, 4, expansion=2, dtype=np.float64)
        # zero second branch so the comparison involves a single gate, and
        # amplify the first so recovering the residual by subtraction does
        # not lose everything to cancellation
        p.layer_scale2.data[...] = 0.0
        p.layer_scale1.data[...] = 1.0
        p.attn_out.weight.data[...] *= 50.0
        x = rng.normal(size=(1, 4, 6, 6))
        for seed in range(200):
            if (np.random.default_rng(seed).random((2, 1)) >= 0.25).all():
                break
        plain = block_forward(Tensor(x), p, training=True).data
        gated = block_forward(Tensor(x), p, training=True, drop_path=0.25,
                              rng=np.random.default_rng(seed)).data
        assert rel_err(gated - x, (plain - x) / 0.75) <= 1e-10
