"""Segmentation heads: factorization behavior, variant shapes, and the
unrolled-gradient path."""
import contextvars
import tracemalloc
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from segnext import decoder, ops
from segnext.decoder import (NMF_EPS, CoreDecoderParams, HamParams,
                             MlpDecoderParams, _nmf_init,
                             _nmf_reconstruct_tensor, build_decoder,
                             decoder_forward, nmf_factorize, nmf_reconstruct)
from segnext.encoder import EncoderFeatures, build_encoder, encoder_forward, preset
from segnext.model import build_model
from segnext.tensor import CostSink, GradTape, ShapeError, Tensor, backward

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


# (decoder variant, stage 1 in the decoder, MSCA in the encoder)
HEADS = [("a", False, True), ("b", False, True), ("c", False, True),
         ("c", True, True), ("c", False, False)]


@cache
def cached_feats(use_msca, hw):
    return micro_feats(use_msca=use_msca, n=2, hw=hw)[1]


def classes_per_block(monkeypatch, feats, classes):
    """Set the argmax block to ``classes`` float32 planes of ``feats``'s
    batch at the input extent; ``None`` keeps the default 4 MB."""
    if classes is not None:
        n = feats.f1.shape[0]
        plane = n * feats.input_h * feats.input_w * 4
        monkeypatch.setattr(decoder, "_ARGMAX_BLOCK_BYTES", classes * plane)


class FixedLogits:
    """A head whose low-resolution logits are given."""

    def __init__(self, low):
        self.low = low

    def logits(self, feats, training):
        return Tensor(self.low)


class TestArgmaxPath:
    """``argmax=True`` must equal ``np.argmax`` of the upsampled logits bit
    for bit, whatever the block of classes upsampled at a time."""

    @pytest.mark.parametrize("hw", [(64, 96), (97, 131), (192, 192)])
    @pytest.mark.parametrize("k", [2, 19, 150])
    @pytest.mark.parametrize("head", HEADS, ids=lambda h: "-".join(map(str, h)))
    def test_matches_argmax_of_the_logits(self, monkeypatch, head, k, hw):
        variant, stage1, use_msca = head
        feats = cached_feats(use_msca, hw)
        cfg = replace(MICRO, decoder_variant=variant, include_stage1_in_decoder=stage1,
                      use_msca=use_msca, num_classes=k)
        dec = build_decoder(cfg, 5)
        want = np.argmax(decoder_forward(feats, dec).data, axis=1)
        # 3 classes: a ragged last block for 19 and 150 classes; None:
        # 4 MB, ragged for 150 classes.
        for block in (1, 3, None):
            with monkeypatch.context() as m:
                classes_per_block(m, feats, block)
                got = decoder_forward(feats, dec, argmax=True)
            assert got.dtype == np.int64
            assert got.shape == (2, *hw)
            assert np.array_equal(got, want), block

    @pytest.mark.parametrize("classes", [1, 3])
    @pytest.mark.parametrize("special", ["tie", "inf", "nan", "later-nan"])
    def test_special_values_across_a_block_boundary(self, monkeypatch, special, classes):
        feats = cached_feats(True, (64, 96))
        low = np.random.default_rng(4).standard_normal((2, 7, 8, 12)).astype(np.float32)
        # With 3 classes a block, 2 | 3 and 5 | 6 are block boundaries.
        if special == "tie":
            low[:, 3] = low[:, 2]
            low[0, 6, :4] = low[0, 5, :4]
            low[:, 2:4, 2:5, 3:6] = 9.0
        elif special == "inf":
            low[:, 2, 1, :] = np.inf
            low[:, 3, 1, :] = np.inf
            low[1, 6, :, 4] = np.inf
            low[0, 3, 5, :] = -np.inf
        elif special == "nan":
            low[0, 2, 3, 3] = np.nan
            low[0, 3, 3, 3] = np.nan
            low[1, 4, 6, 7] = np.nan
        else:  # NaN first in the last block only
            low[1, 6, 2, 9] = np.nan
        head = FixedLogits(low)
        classes_per_block(monkeypatch, feats, classes)
        with np.errstate(invalid="ignore"):
            want = np.argmax(decoder_forward(feats, head).data, axis=1)
            got = decoder_forward(feats, head, argmax=True)
        assert np.array_equal(got, want)

    def test_model_forward_matches_argmax_of_the_logits(self, monkeypatch):
        model = build_model(replace(MICRO, num_classes=19), seed=2)
        x = Tensor(np.random.default_rng(3).normal(
            scale=0.3, size=(2, 3, 97, 131)).astype(np.float32))
        want = np.argmax(model.forward(x).data, axis=1)
        monkeypatch.setattr(decoder, "_ARGMAX_BLOCK_BYTES", 1)
        assert np.array_equal(model.forward(x, argmax=True), want)

    def test_training_with_argmax_raises(self):
        model = build_model(MICRO, seed=2)
        x = Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32))
        with pytest.raises(ValueError, match="argmax"):
            model.forward(x, training=True, argmax=True)

    def test_peak_memory_below_half_the_logits(self):
        model = build_model(replace(MICRO, num_classes=150), seed=2)
        x = Tensor(np.random.default_rng(3).normal(
            scale=0.3, size=(1, 3, 256, 256)).astype(np.float32))
        logits_bytes = 150 * 256 * 256 * 4
        tracemalloc.start()
        try:
            model.forward(x, argmax=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < logits_bytes / 2

    @pytest.mark.parametrize("block_bytes", [1, None])
    @pytest.mark.parametrize("variant", ["a", "b", "c"])
    def test_charges_the_same_rows_as_the_logits(self, monkeypatch, variant, block_bytes):
        model = build_model(replace(MICRO, decoder_variant=variant, num_classes=19), seed=2)
        layer_of = {id(e.tensor): e.name.rpartition(".")[0] for e in model.parameters()}
        x = Tensor(np.empty((0, 3, 97, 131), dtype=np.float32))

        def charged(argmax):
            def run():
                with CostSink(layer_of) as sink:
                    model.forward(x, argmax=argmax)
                return sink.rows
            return contextvars.Context().run(run)

        if block_bytes is not None:
            monkeypatch.setattr(decoder, "_ARGMAX_BLOCK_BYTES", block_bytes)
        want = charged(False)
        got = charged(True)
        assert got == want
        assert list(got) == list(want)
