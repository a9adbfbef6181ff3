"""Segmentation heads: factorization behavior, variant shapes, and the
unrolled-gradient path."""
from dataclasses import replace

import numpy as np
import pytest

from segnext import ops
from segnext.decoder import (NMF_EPS, CoreDecoderParams, HamParams,
                             MlpDecoderParams, _nmf_init,
                             _nmf_reconstruct_tensor, build_decoder,
                             decoder_forward, nmf_factorize, nmf_reconstruct)
from segnext.encoder import EncoderFeatures, build_encoder, encoder_forward, preset
from segnext.tensor import GradTape, ShapeError, Tensor, backward

from oracles import fd_gradient, rel_err

MICRO = preset("mscan-micro")


def rand_nonneg(rng, c, hw):
    return rng.uniform(0.0, 2.0, size=(c, hw))


class TestFactorization:
    def test_residuals_match_independent_recompute(self):
        rng = np.random.default_rng(0)
        x = rand_nonneg(rng, 12, 30)
        w, h, res = nmf_factorize(x, rank=4, iters=6, seed=9)
        w0, h0 = _nmf_init(9, 12, 4, 30, x.dtype)
        ww = w0.copy()
        hh = h0.copy()
        want = [np.linalg.norm(x - ww @ hh)]
        for _ in range(6):
            hh = hh * (ww.T @ x) / ((ww.T @ ww) @ hh + NMF_EPS)
            want.append(np.linalg.norm(x - ww @ hh))
            ww = ww * (x @ hh.T) / (ww @ (hh @ hh.T) + NMF_EPS)
            want.append(np.linalg.norm(x - ww @ hh))
        assert len(res) == 13
        np.testing.assert_allclose(res, want, rtol=1e-12)
        np.testing.assert_allclose(w, ww, rtol=1e-12)
        np.testing.assert_allclose(h, hh, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_residuals_monotone_and_factors_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        x = rand_nonneg(rng, 16, 40)
        w, h, res = nmf_factorize(x, rank=5, iters=25, seed=seed)
        assert (w >= 0).all() and (h >= 0).all()
        res = np.asarray(res)
        assert (res[1:] <= res[:-1] * (1 + 1e-12)).all()

    def test_rank_one_matrix_recovered(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(0.5, 1.5, size=(20, 1))
        v = rng.uniform(0.5, 1.5, size=(1, 35))
        x = u @ v
        recon = nmf_reconstruct(x, rank=1, iters=200, seed=0)
        assert np.linalg.norm(x - recon) / np.linalg.norm(x) < 1e-3

    def test_init_is_uniform_on_half_open_unit_interval(self):
        w, h = _nmf_init(0, 400, 40, 500, np.float64)
        for f in (w, h):
            assert f.min() > 0.0
            assert f.max() <= 1.0
            assert abs(f.mean() - 0.5) < 0.01

    def test_input_validation(self):
        x = np.abs(np.random.default_rng(0).normal(size=(6, 10)))
        with pytest.raises(ValueError):
            nmf_factorize(-x, rank=2, iters=3, seed=0)
        with pytest.raises(ValueError):
            nmf_factorize(x, rank=0, iters=3, seed=0)
        with pytest.raises(ValueError):
            nmf_factorize(x, rank=7, iters=3, seed=0)  # above min(c, hw)
        with pytest.raises(ValueError):
            nmf_factorize(x, rank=2, iters=0, seed=0)
        with pytest.raises(ShapeError):
            nmf_factorize(x[0], rank=2, iters=3, seed=0)
        for bad in (np.nan, np.inf, -np.inf):
            y = x.copy()
            y[2, 3] = bad
            with pytest.raises(ValueError, match="finite"):
                nmf_factorize(y, rank=2, iters=3, seed=0)

    def test_integer_input_factorized_as_float64(self):
        x = np.arange(12).reshape(3, 4)
        w, h, res = nmf_factorize(x, rank=2, iters=3, seed=0)
        want_w, want_h, want_res = nmf_factorize(x.astype(np.float64), rank=2, iters=3, seed=0)
        assert w.dtype == h.dtype == np.float64
        assert w.tobytes() == want_w.tobytes() and h.tobytes() == want_h.tobytes()
        assert res == want_res
        assert res[-1] < 0.5 * res[0]

    def test_batched_tensor_path_matches_matrix_path(self):
        rng = np.random.default_rng(4)
        mats = [rand_nonneg(rng, 8, 18).astype(np.float32) for _ in range(3)]
        x = Tensor(np.stack(mats)[:, None])
        recon = _nmf_reconstruct_tensor(x, rank=3, iters=6, seed=12).data
        for i, m in enumerate(mats):
            want = nmf_reconstruct(m, rank=3, iters=6, seed=12)
            assert rel_err(recon[i, 0], want) <= 1e-6

    def test_unrolled_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x0 = rng.uniform(0.1, 2.0, size=(1, 1, 5, 7))

        def loss_of(arr):
            t = Tensor(arr) if not isinstance(arr, Tensor) else arr
            r = _nmf_reconstruct_tensor(t, rank=2, iters=3, seed=2)
            return ops.sum_all(ops.mul(r, r))

        xt = Tensor(x0.copy(), requires_grad=True)
        with GradTape() as tape:
            loss = loss_of(xt)
        got = backward(tape, loss).of(xt)
        want = fd_gradient(lambda a: float(loss_of(a).item()), x0.copy(), delta=1e-6)
        assert rel_err(got, want) < 1e-4


def micro_feats(variant="c", include_stage1=False, use_msca=True, n=2, hw=(64, 64)):
    cfg = replace(MICRO, decoder_variant=variant,
                  include_stage1_in_decoder=include_stage1, use_msca=use_msca)
    enc = build_encoder(cfg, 0)
    x = Tensor(np.random.default_rng(1).normal(
        scale=0.3, size=(n, 3, *hw)).astype(np.float32))
    return cfg, encoder_forward(enc, x)


class TestHeads:
    @pytest.mark.parametrize("variant,cls", [("a", MlpDecoderParams),
                                             ("b", CoreDecoderParams),
                                             ("c", HamParams)])
    def test_output_shape_and_dispatch(self, variant, cls):
        cfg, feats = micro_feats(variant)
        dec = build_decoder(cfg, 7)
        assert isinstance(dec, cls)
        out = decoder_forward(feats, dec)
        assert out.shape == (2, 3, 64, 64)
        assert np.isfinite(out.data).all()

    def test_default_head_aggregates_last_three_stages(self):
        cfg, _ = micro_feats("c")
        dec = build_decoder(cfg, 7)
        assert dec.pre_proj.spec.in_channels == 16 + 32 + 64
        assert dec.include_stage1 is False
        assert (dec.rank, dec.iters) == (cfg.ham_rank, cfg.ham_iters)

    def test_stage1_inclusion_widens_aggregation(self):
        cfg, feats = micro_feats("c", include_stage1=True)
        dec = build_decoder(cfg, 7)
        assert dec.pre_proj.spec.in_channels == 8 + 16 + 32 + 64
        out = decoder_forward(feats, dec)
        assert out.shape == (2, 3, 64, 64)

    def test_same_seed_gives_bitwise_identical_forward(self):
        cfg, feats = micro_feats("c")
        a = decoder_forward(feats, build_decoder(cfg, 7)).data
        b = decoder_forward(feats, build_decoder(cfg, 7)).data
        np.testing.assert_array_equal(a, b)

    def test_build_seed_decorrelates_factor_init(self):
        cfg, _ = micro_feats("c")
        assert build_decoder(cfg, 7).seed != build_decoder(cfg, 8).seed

    def test_mismatched_batch_rejected(self):
        cfg, feats = micro_feats("c")
        bad = EncoderFeatures(
            feats.f1, feats.f2, feats.f3,
            Tensor(np.zeros((1, 64, 2, 2), dtype=np.float32)),
            feats.input_h, feats.input_w,
        )
        with pytest.raises(ShapeError):
            decoder_forward(bad, build_decoder(cfg, 7))

    def test_nonsquare_input_upsamples_to_input_extent(self):
        for variant in ("a", "b", "c"):
            cfg, feats = micro_feats(variant, n=1, hw=(64, 96))
            out = decoder_forward(feats, build_decoder(cfg, 3))
            assert out.shape == (1, 3, 64, 96)

    def test_gradients_flow_through_every_head(self):
        from test_blocks import collect_tensors
        for variant in ("a", "b", "c"):
            cfg, feats = micro_feats(variant, n=1, hw=(64, 64))
            dec = build_decoder(cfg, 7)
            with GradTape() as tape:
                out = decoder_forward(feats, dec, training=True)
                loss = ops.mean_all(ops.mul(out, out))
            grads = backward(tape, loss)
            for t in collect_tensors(dec):
                assert np.abs(grads.of(t)).max() > 0, variant
