"""Optimizer, schedule, metric, inference-protocol, and training-loop
contracts, checked against scalar oracles."""
import importlib
import tracemalloc
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from segnext import ops
from segnext.config import ConfigError, DataParams, TrainParams, parse_config
from segnext.data import SegSample, synth_dataset
from segnext.encoder import preset
from segnext.model import ParamEntry, build_model
from segnext.tensor import GradTape, Tensor, backward
from segnext.train import (IouResult, OptimState, TrainingDiverged,
                           adamw_step, confusion, cross_entropy, data_seeds,
                           evaluate, _argmax_classes, init_optim, miou,
                           ms_flip_inference, poly_lr, predict, train)

from oracles import adamw_scalar_oracle, confusion_loops, miou_from_confusion

MICRO = preset("mscan-micro")
# The module itself: the package's ``train`` attribute is the function.
train_mod = importlib.import_module("segnext.train")


class FakeGrads:
    def __init__(self, mapping):
        self._by_id = {id(t): g for t, g in mapping}

    def of(self, tensor):
        return self._by_id[id(tensor)]


def scalar_param(name, value, decay):
    t = Tensor(np.full((1, 1, 1, 1), value, dtype=np.float64), requires_grad=True)
    return ParamEntry(name, t, decay=decay)


class TestPolyLr:
    def test_reference_points(self):
        s = TrainParams(lr=6e-5, iters=1000)
        assert poly_lr(0, s) == 6e-5
        assert poly_lr(1000, s) == 0.0
        assert poly_lr(500, s) == pytest.approx(3e-5, rel=1e-12)

    def test_power_bends_the_curve(self):
        s = TrainParams(lr=1.0, iters=100, power=2.0)
        assert poly_lr(50, s) == pytest.approx(0.25, rel=1e-12)

    def test_warmup_is_linear_from_ratio(self):
        s = TrainParams(lr=1.0, iters=100, warmup_iters=10, warmup_ratio=0.1)
        assert poly_lr(0, s) == pytest.approx(0.1)
        assert poly_lr(5, s) == pytest.approx(0.1 + 0.9 * 0.5)
        # first post-warmup point follows the poly curve
        assert poly_lr(10, s) == pytest.approx(0.9)

    def test_out_of_range_iteration_rejected(self):
        s = TrainParams(lr=1.0, iters=100)
        with pytest.raises(ValueError):
            poly_lr(-1, s)
        with pytest.raises(ValueError):
            poly_lr(101, s)

    @pytest.mark.parametrize("warmup", [0, 5])
    def test_zero_iters_has_no_schedule(self, warmup):
        # A valid run of 0 iterations, but no lr to give: ValueError, not a
        # ZeroDivisionError and not the warmup's value.
        with pytest.raises(ValueError, match="iters >= 1"):
            poly_lr(0, TrainParams(lr=1.0, iters=0, warmup_iters=warmup))

    @given(st.floats(1e-8, 1.0), st.integers(1, 5000), st.floats(0.1, 4.0),
           st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_non_increasing_after_warmup(self, base, max_iter, power, warmup):
        warmup = min(warmup, max_iter - 1) if max_iter > 1 else 0
        s = TrainParams(lr=base, iters=max_iter, power=power, warmup_iters=warmup)
        vals = [poly_lr(i, s) for i in range(warmup, max_iter + 1)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 0.0


class TestAdamW:
    def test_zero_gradient_decay_only(self):
        p = scalar_param("w", 2.0, decay=True)
        n = scalar_param("bn.gamma", 2.0, decay=False)
        state = init_optim([p, n], weight_decay=0.01)
        g = np.zeros((1, 1, 1, 1))
        adamw_step([p, n], FakeGrads([(p.tensor, g), (n.tensor, g)]), state, lr=0.5)
        assert p.tensor.data.item() == pytest.approx(2.0 * (1 - 0.5 * 0.01), rel=1e-15)
        assert n.tensor.data.item() == 2.0  # no decay path for norm params

    @pytest.mark.parametrize("decay", [True, False])
    @pytest.mark.parametrize("steps", [1, 7])
    def test_matches_scalar_oracle(self, decay, steps):
        p = scalar_param("w", 1.5, decay=decay)
        state = init_optim([p], weight_decay=0.01)
        g = np.full((1, 1, 1, 1), 0.3)
        for _ in range(steps):
            adamw_step([p], FakeGrads([(p.tensor, g)]), state, lr=0.01)
        want = adamw_scalar_oracle(1.5, 0.3, steps, 0.01, 0.9, 0.999, 1e-8,
                                   0.01, decay)
        assert p.tensor.data.item() == pytest.approx(want, rel=1e-12)
        assert state.t == steps

    def test_nan_gradient_names_parameter(self):
        p = scalar_param("encoder.stage1.weird", 1.0, decay=True)
        state = init_optim([p])
        bad = np.full((1, 1, 1, 1), np.nan)
        with pytest.raises(TrainingDiverged, match="encoder.stage1.weird"):
            adamw_step([p], FakeGrads([(p.tensor, bad)]), state, lr=0.01)

    def test_nan_gradient_leaves_state_untouched(self):
        good = scalar_param("a.good", 1.0, decay=True)
        bad = scalar_param("b.bad", 2.0, decay=True)
        params = [good, bad]
        state = init_optim(params)
        g = np.full((1, 1, 1, 1), 0.3)
        adamw_step(params, FakeGrads([(good.tensor, g), (bad.tensor, g)]), state, lr=0.01)

        def snapshot():
            arrays = [a for e in params
                      for a in (e.tensor.data, state.m[e.name], state.v[e.name])]
            return [a.tobytes() for a in arrays], state.t

        before = snapshot()
        nan = np.full((1, 1, 1, 1), np.nan)
        with pytest.raises(TrainingDiverged, match="b.bad"):
            adamw_step(params, FakeGrads([(good.tensor, g), (bad.tensor, nan)]),
                       state, lr=0.01)
        assert snapshot() == before

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf])
    def test_non_finite_lr_leaves_state_untouched(self, lr):
        p = scalar_param("w", 1.0, decay=True)
        state = init_optim([p])
        g = np.full((1, 1, 1, 1), 0.3)
        adamw_step([p], FakeGrads([(p.tensor, g)]), state, lr=0.01)
        before = [a.tobytes() for a in (p.tensor.data, state.m["w"], state.v["w"])]
        with pytest.raises(ValueError, match="learning rate must be finite"):
            adamw_step([p], FakeGrads([(p.tensor, g)]), state, lr=lr)
        assert [a.tobytes() for a in (p.tensor.data, state.m["w"], state.v["w"])] == before
        assert state.t == 1

    def test_identical_runs_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(0)
            p = scalar_param("w", 1.0, decay=True)
            state = init_optim([p])
            for _ in range(5):
                g = rng.normal(size=(1, 1, 1, 1))
                adamw_step([p], FakeGrads([(p.tensor, g)]), state, lr=0.003)
            return p.tensor.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_moment_shapes_follow_parameters(self):
        model = build_model(MICRO, seed=0)
        state = init_optim(model.parameters())
        for e in model.parameters():
            assert state.m[e.name].shape == e.tensor.shape
            assert state.v[e.name].shape == e.tensor.shape


class TestMiou:
    def test_perfect_prediction(self):
        g = [np.array([[0, 1], [2, 1]])]
        r = miou(g, g, 3)
        np.testing.assert_array_equal(r.per_class, [1.0, 1.0, 1.0])
        assert r.mean == 1.0

    def test_hand_worked_binary_case(self):
        pred = [np.array([[0, 0], [1, 1]])]
        gt = [np.array([[0, 1], [1, 1]])]
        r = miou(pred, gt, 2)
        assert r.per_class[0] == pytest.approx(1 / 2)
        assert r.per_class[1] == pytest.approx(2 / 3)
        assert r.mean == pytest.approx(7 / 12)

    def test_disjoint_predictions_score_zero(self):
        pred = [np.full((4, 4), 0)]
        gt = [np.full((4, 4), 1)]
        assert miou(pred, gt, 2).mean == 0.0

    def test_absent_class_excluded_from_mean(self):
        pred = [np.zeros((2, 2), dtype=np.int64)]
        gt = [np.zeros((2, 2), dtype=np.int64)]
        r = miou(pred, gt, 3)
        assert r.per_class[0] == 1.0
        assert np.isnan(r.per_class[1]) and np.isnan(r.per_class[2])
        assert r.mean == 1.0

    def test_ignored_pixels_do_not_count(self):
        pred = [np.array([[0, 1], [1, 1]])]
        gt = [np.array([[0, 255], [1, 1]])]
        mat = confusion(pred, gt, 2)
        assert mat.sum() == 3
        assert miou(pred, gt, 2).mean == 1.0

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError):
            miou([np.array([[5]])], [np.array([[0]])], 3)
        with pytest.raises(ValueError):
            miou([np.array([[0]])], [np.array([[3]])], 3)
        with pytest.raises(ValueError):
            confusion([np.zeros((2, 2), int)], [np.zeros((2, 3), int)], 3)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_pixel_oracle_exactly(self, seed):
        rng = np.random.default_rng(seed)
        preds = [rng.integers(0, 4, (9, 9)) for _ in range(3)]
        gts = []
        for _ in range(3):
            g = rng.integers(0, 4, (9, 9))
            g[rng.random((9, 9)) < 0.1] = 255
            gts.append(g)
        mat = confusion(preds, gts, 4)
        np.testing.assert_array_equal(mat, confusion_loops(preds, gts, 4))
        want_per, want_mean = miou_from_confusion(mat)
        got = miou(preds, gts, 4)
        np.testing.assert_allclose(got.per_class, want_per)
        assert got.mean == pytest.approx(want_mean)


@pytest.fixture(scope="module")
def micro_model():
    return build_model(MICRO, seed=3)


@pytest.fixture(scope="module")
def one_image():
    return synth_dataset(4, 1, 64, 3)[0].image


class TestMsFlip:
    def test_degenerate_call_is_plain_forward_bitwise(self, micro_model, one_image):
        plain = micro_model.forward(one_image, training=False).data
        fused = ms_flip_inference(micro_model, one_image, scales=(1.0,), flip=False).data
        np.testing.assert_array_equal(fused, plain)

    def test_duplicate_scales_average_to_same_map(self, micro_model, one_image):
        once = ms_flip_inference(micro_model, one_image, scales=(1.0,)).data
        thrice = ms_flip_inference(micro_model, one_image, scales=(1.0, 1.0, 1.0)).data
        np.testing.assert_allclose(thrice, once, rtol=1e-6)

    def test_flip_matches_hand_composition(self, micro_model, one_image):
        got = ms_flip_inference(micro_model, one_image, scales=(1.0,), flip=True).data
        plain = micro_model.forward(one_image, training=False).data
        mirrored = Tensor(np.ascontiguousarray(one_image.data[:, :, :, ::-1]))
        back = micro_model.forward(mirrored, training=False).data[:, :, :, ::-1]
        np.testing.assert_allclose(got, 0.5 * (plain + back), rtol=1e-6)

    def test_multi_scale_changes_logits_but_not_shape(self, micro_model, one_image):
        ms = ms_flip_inference(micro_model, one_image, scales=(0.5, 1.0, 1.5))
        assert ms.shape == micro_model.forward(one_image).shape

    def test_scale_validation(self, micro_model, one_image):
        with pytest.raises(ValueError):
            ms_flip_inference(micro_model, one_image, scales=())
        with pytest.raises(ValueError):
            ms_flip_inference(micro_model, one_image, scales=(1.0, -0.5))
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                ms_flip_inference(micro_model, one_image, scales=(1.0, bad))

    def test_predict_returns_label_map(self, micro_model, one_image):
        out = predict(micro_model, one_image)
        assert out.shape == (64, 64)
        assert out.dtype == np.int64
        assert out.min() >= 0 and out.max() < 3

    @pytest.mark.parametrize("scales,flip", [((1.0,), False), ([1.0], False),
                                             ((1.0,), True), ((0.5, 1.0), False)])
    def test_predict_is_argmax_of_the_averaged_logits(self, micro_model, one_image,
                                                      scales, flip):
        logits = ms_flip_inference(micro_model, one_image, scales, flip).data[0]
        got = predict(micro_model, one_image, scales, flip)
        assert np.array_equal(got, np.argmax(logits, axis=0))

    def test_single_scale_predict_takes_the_argmax_path(self, monkeypatch,
                                                        micro_model, one_image):
        seen = []
        forward = type(micro_model).forward

        def spy(self, x, training=False, rng=None, argmax=False):
            seen.append(argmax)
            return forward(self, x, training, rng, argmax)

        monkeypatch.setattr(type(micro_model), "forward", spy)
        predict(micro_model, one_image)
        predict(micro_model, one_image, flip=True)
        assert seen == [True, False, False]


def _logits(k, h=5, w=7, seed=0, dtype=np.float32):
    return np.random.default_rng(seed).standard_normal((k, h, w)).astype(dtype)


class TestArgmaxClasses:
    """``_argmax_classes`` must equal ``np.argmax(axis=0)`` bit for bit,
    whether the classes come as one block or as several."""

    @staticmethod
    def check(logits):
        want = np.argmax(logits, axis=0)
        k = logits.shape[0]
        for splits in ([], [1], [k // 2], list(range(1, k))):
            got = _argmax_classes(lambda: np.split(logits, splits))
            assert got.dtype == np.int64
            assert np.array_equal(got, want), splits

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [2, 3, 150])
    def test_random_logits(self, k, dtype):
        self.check(_logits(k, 17, 23, seed=k, dtype=dtype))

    def test_single_class(self):
        self.check(_logits(1))

    def test_all_equal_planes(self):
        self.check(np.full((6, 4, 5), 0.25, dtype=np.float32))

    @pytest.mark.parametrize("tied", [(0, 3), (3, 6), (0, 6), (0, 3, 6)])
    def test_ties_take_the_first_class(self, tied):
        logits = _logits(7)
        logits[list(tied), 1:4, 2:5] = 10.0
        self.check(logits)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinities(self, value):
        logits = _logits(5)
        logits[2, 0, :] = value
        logits[4, 0, 2:] = value
        logits[:, 1, 1] = value
        self.check(logits)

    @pytest.mark.parametrize("nan_at", [0, 2, 4])
    def test_nan_wins_at_its_class(self, nan_at):
        logits = _logits(5)
        logits[nan_at, 1, 1] = np.nan
        logits[4, 2, :] = np.nan
        self.check(logits)

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float32, st.tuples(st.integers(1, 6), st.integers(1, 4),
                                        st.integers(1, 4)),
                  elements=st.sampled_from([-np.inf, -1.0, 0.0, 1.0, np.inf, np.nan])))
    def test_matches_numpy_on_tie_heavy_inputs(self, logits):
        self.check(logits)

    @pytest.mark.parametrize("first_nan", [0, 1, 3, 5])
    def test_nan_in_a_later_block_wins_at_its_class(self, first_nan):
        logits = _logits(6)
        logits[first_nan, 1, :] = np.nan
        logits[5, 1:3, 2] = np.nan
        logits[2, 0, 0] = np.inf
        for splits in ([2], [3], [1, 4], [5]):
            blocks = np.split(logits, splits)
            got = _argmax_classes(lambda: iter(blocks))
            assert np.array_equal(got, np.argmax(logits, axis=0)), splits

    def test_blocks_are_read_again_only_for_a_nan(self):
        logits = _logits(4)
        calls = []

        def blocks():
            calls.append(1)
            return np.split(logits, [2])

        _argmax_classes(blocks)
        assert len(calls) == 1
        logits[3, 2, 2] = np.nan
        assert _argmax_classes(blocks)[2, 2] == 3
        assert len(calls) == 3

    def test_allocates_far_less_than_the_logits(self):
        logits = _logits(150, 64, 64)
        tracemalloc.start()
        try:
            _argmax_classes(lambda: [logits])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < logits.nbytes / 4


class TestTrainLoop:
    def small_set(self):
        return synth_dataset(20, 4, 64, 3)

    def test_step_peak_is_at_most_a_logits_array_above_the_forward(self):
        # train()'s step on mscan-micro at batch 8, crop 128: forward and
        # loss under the tape, then backward. The loss keeps one
        # logits-sized array for the backward, which normalizes it in place,
        # so neither end of the step adds another logits-sized temporary.
        rng = np.random.default_rng(0)
        model = build_model(MICRO, 3)
        images = Tensor(rng.random((8, 3, 128, 128)).astype(np.float32))
        labels = rng.integers(0, 3, (8, 128, 128))
        labels[:, :8] = 255
        tracemalloc.start()
        try:
            with GradTape() as tape:
                logits = model.forward(images, training=True, rng=np.random.default_rng(1))
                loss = cross_entropy(logits, labels)
            live, _ = tracemalloc.get_traced_memory()
            backward(tape, loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - live < logits.data.nbytes + 2**20

    def test_zero_iters_returns_initialized_model(self):
        tags = []
        res = train(MICRO, self.small_set(), iters=0, batch=2, seed=0,
                    crop=32, checkpoint_fn=lambda m, o, tag: tags.append(tag))
        assert res.metrics == []
        assert res.final_miou is None
        assert res.optim.t == 0
        assert tags == ["final"]

    def test_metrics_format_and_checkpoint_tags(self):
        tags = []
        lines = []
        res = train(MICRO, self.small_set(), iters=6, batch=2, seed=0, crop=32,
                    val_set=self.small_set()[:1], eval_interval=3,
                    checkpoint_interval=2,
                    checkpoint_fn=lambda m, o, tag: tags.append(tag),
                    log_fn=lines.append)
        assert tags == ["init", "iter2", "iter4", "final"]
        assert res.metrics == lines
        assert len(lines) == 6
        for i, line in enumerate(lines):
            fields = line.split("\t")
            assert int(fields[0]) == i
            float(fields[1])
            float(fields[2])
            if (i + 1) % 3 == 0:
                assert len(fields) == 4
                assert 0.0 <= float(fields[3]) <= 1.0
            else:
                assert len(fields) == 3
        assert res.final_miou is not None
        assert isinstance(res.final_miou, IouResult)
        assert res.optim.t == 6

    def test_backward_releases_the_tape(self, monkeypatch):
        tapes = []
        real = train_mod.backward

        def spy(tape, loss):
            tapes.append((tape, len(tape)))
            return real(tape, loss)

        monkeypatch.setattr(train_mod, "backward", spy)
        train(MICRO, self.small_set(), iters=2, batch=2, seed=0, crop=32)
        assert len(tapes) == 2 and tapes[0][0] is not tapes[1][0]
        for tape, recorded in tapes:
            assert recorded > 0 and len(tape) == recorded
            assert tape._nodes == [] and tape._released

    def test_identical_seeds_identical_trajectories(self):
        def run():
            return train(MICRO, self.small_set(), iters=4, batch=2, seed=11, crop=32)

        a, b = run(), run()
        assert a.metrics == b.metrics
        for ea, eb in zip(a.model.parameters(), b.model.parameters()):
            np.testing.assert_array_equal(ea.tensor.data, eb.tensor.data)
        for name in a.optim.m:
            np.testing.assert_array_equal(a.optim.m[name], b.optim.m[name])

    def test_label_dtype_does_not_change_training(self):
        # The batch keeps the set's label type; uint8 scenes and the same
        # scenes with int64 labels train bit for bit alike.
        def run(dtype):
            def cast(samples):
                return [SegSample(s.image, s.label.astype(dtype)) for s in samples]

            return train(MICRO, cast(self.small_set()), iters=2, batch=2, seed=5,
                         crop=32, val_set=cast(self.small_set()[:2]),
                         eval_interval=1)

        a, b = run(np.uint8), run(np.int64)
        assert a.metrics == b.metrics
        for ea, eb in zip(a.model.parameters(), b.model.parameters()):
            np.testing.assert_array_equal(ea.tensor.data, eb.tensor.data)

    def test_drop_path_trains_deterministically(self):
        cfg = replace(MICRO, drop_path=0.1)

        def run(c):
            return train(c, self.small_set(), iters=3, batch=2, seed=11, crop=32)

        a, b = run(cfg), run(cfg)
        assert a.metrics == b.metrics
        for ea, eb in zip(a.model.parameters(), b.model.parameters()):
            np.testing.assert_array_equal(ea.tensor.data, eb.tensor.data)
        for name in a.optim.m:
            np.testing.assert_array_equal(a.optim.m[name], b.optim.m[name])
            np.testing.assert_array_equal(a.optim.v[name], b.optim.v[name])
        # the gates take effect: the same seed without drop path differs
        assert run(MICRO).metrics != a.metrics

    def test_different_seeds_diverge(self):
        a = train(MICRO, self.small_set(), iters=2, batch=2, seed=1, crop=32)
        b = train(MICRO, self.small_set(), iters=2, batch=2, seed=2, crop=32)
        assert a.metrics != b.metrics

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_absurd_lr_diverges_and_keeps_last_checkpoint(self):
        tags = []
        with pytest.raises(TrainingDiverged):
            train(MICRO, self.small_set(), iters=50, batch=2, seed=0, crop=32,
                  lr=1e18, checkpoint_interval=1,
                  checkpoint_fn=lambda m, o, tag: tags.append(tag))
        assert tags[0] == "init"
        assert "final" not in tags

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_update_that_overflows_raises_before_the_final_save(self):
        # lr 1e39 is finite, but one update makes every parameter
        # non-finite; the loss, checked before each update, never sees it.
        saved = []

        def checkpoint_fn(model, optim, tag):
            finite = all(np.isfinite(e.tensor.data).all() for e in model.parameters())
            saved.append((tag, finite))

        with pytest.raises(TrainingDiverged, match="non-finite at iteration 0"):
            train(MICRO, self.small_set(), iters=1, batch=2, seed=0, crop=32,
                  lr=1e39, checkpoint_fn=checkpoint_fn)
        assert saved == [("init", True)]

    def test_step_memory_after_forward_and_at_peak(self):
        # One train() step of mscan-micro at batch 8, crop 128 holds 21.3 MB
        # after the forward and loss and peaks at 24.2 MB. The bounds leave
        # room for noise but not for the tape to pin more activations: with
        # the FFN as four nodes, which keep its expansion and GELU outputs,
        # it read 28.1 and 30.9 MB; with nodes that held their outputs and
        # inputs, and GELU keeping Phi, 39.8 and 41.1 MB.
        model = build_model(MICRO, 0)
        params = model.parameters()
        optim = init_optim(params)
        rng = np.random.default_rng(0)
        images = rng.random((8, 3, 128, 128), dtype=np.float32)
        labels = rng.integers(0, 3, (8, 128, 128), dtype=np.uint8)
        labels[:, :8] = 255

        def step():
            with GradTape() as tape:
                logits = model.forward(Tensor(images), training=True,
                                       rng=np.random.default_rng(1))
                loss = cross_entropy(logits, labels)
            del logits
            held, _ = tracemalloc.get_traced_memory()
            adamw_step(params, backward(tape, loss), optim, 1e-5)
            return held

        step()  # first-call allocations stay out of the figures
        tracemalloc.start()
        try:
            held = step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 23 * 2**20
        assert peak < 26 * 2**20

    def test_segnext_t_step_memory(self):
        # The paper's model at 1x3x256x256 holds 124.9 MB after the forward
        # and loss and peaks at 163.8 MB in the backward. With the FFN as
        # four nodes it read 168.2 and 207.1 MB.
        model = build_model(preset("segnext-t"), 0)
        rng = np.random.default_rng(0)
        images = rng.random((1, 3, 256, 256), dtype=np.float32)
        labels = rng.integers(0, 150, (1, 256, 256), dtype=np.uint8)
        tracemalloc.start()
        try:
            with GradTape() as tape:
                logits = model.forward(Tensor(images), training=True,
                                       rng=np.random.default_rng(1))
                loss = cross_entropy(logits, labels)
            del logits
            held, _ = tracemalloc.get_traced_memory()
            backward(tape, loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 135 * 2**20
        assert peak < 175 * 2**20

    def test_single_branch_ablation_trains_to_finite_loss(self):
        cfg = replace(MICRO, use_msca=False)
        res = train(cfg, self.small_set(), iters=3, batch=2, seed=0, crop=32)
        losses = [float(l.split("\t")[1]) for l in res.metrics]
        assert all(np.isfinite(losses))

    def test_data_seeds_are_the_run_streams_3_and_4(self):
        assert data_seeds(123) == (3849729556, 404593565)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            train(MICRO, self.small_set(), iters=-1, batch=2, seed=0)
        with pytest.raises(ValueError):
            train(MICRO, self.small_set(), iters=1, batch=0, seed=0)
        with pytest.raises(ValueError):
            train(MICRO, [], iters=1, batch=1, seed=0)

    def test_keywords_are_exactly_the_train_params_fields(self):
        # The command line passes every [train] value as a keyword.
        rest = {f.name: getattr(TrainParams(), f.name) for f in fields(TrainParams)
                if f.name not in ("iters", "batch")}
        rest["weight_decay"] = 0.05
        res = train(MICRO, self.small_set(), iters=0, batch=3, seed=0, **rest)
        assert res.optim.weight_decay == 0.05
        with pytest.raises(TypeError, match="max_iter"):
            train(MICRO, self.small_set(), iters=0, batch=3, seed=0, max_iter=5)


_RUN_TEXT = """[model]
model = mscan-micro
[train]
iters = 2
batch = 2
crop = 64
checkpoint_interval = 1
eval_interval = 1
[data]
size = 64
num_train = 4
num_val = 1
"""
_RUN_KEYS = [(section, f.name) for section, cls in (("train", TrainParams), ("data", DataParams))
             for f in fields(cls)]
_ODD_VALUES = ["nan", "-nan", "inf", "-inf", "-1", "0", "-0.0", "1e39", "-1e39", "1e300",
               "1000000000", "-1000000000"]
# The values that size a run: valid at any size, so the gate caps them to
# keep each run micro-sized.
_RUN_CAPS = {"iters": 2, "batch": 2, "crop": 64, "size": 64, "num_train": 4, "num_val": 1}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_RUN_KEYS),
       st.one_of(st.sampled_from(_ODD_VALUES),
                 st.floats(allow_nan=True, allow_infinity=True).map(repr),
                 st.integers(-10**12, 10**12).map(str)))
@example(("train", "lr"), "1e39")
@example(("train", "weight_decay"), "1e39")
@example(("train", "power"), "1e-300")
def test_odd_run_value_is_refused_or_trains_finite(spot, value):
    # Each [train] or [data] value is refused, naming its key, or a
    # two-iteration run that saves every iteration ends on finite
    # parameters or raises TrainingDiverged, having saved none non-finite.
    section, key = spot
    lines = [ln for ln in _RUN_TEXT.splitlines() if not ln.startswith(f"{key} =")]
    lines.insert(lines.index(f"[{section}]") + 1, f"{key} = {value}")
    try:
        rc = parse_config("\n".join(lines))
    except ConfigError as exc:
        assert f"'{key}'" in str(exc) or str(exc).startswith(f"{key} "), str(exc)
        return
    tp = replace(rc.train, **{k: min(getattr(rc.train, k), cap)
                              for k, cap in _RUN_CAPS.items() if hasattr(rc.train, k)})
    data = replace(rc.data, **{k: min(getattr(rc.data, k), cap)
                               for k, cap in _RUN_CAPS.items() if hasattr(rc.data, k)})
    train_seed, val_seed = data_seeds(rc.seed)
    k = rc.model.num_classes
    saved = []

    def checkpoint_fn(model, optim, tag):
        saved.append(all(np.isfinite(e.tensor.data).all() for e in model.parameters()))

    try:
        res = train(rc.model, synth_dataset(train_seed, data.num_train, data.size, k),
                    seed=rc.seed, val_set=synth_dataset(val_seed, data.num_val, data.size, k),
                    checkpoint_fn=checkpoint_fn, **asdict(tp))
    except TrainingDiverged:
        pass
    else:
        assert all(np.isfinite(e.tensor.data).all() for e in res.model.parameters())
    assert saved and all(saved)


class TestEvaluate:
    def test_aggregates_confusion_across_samples(self, micro_model):
        val = synth_dataset(30, 3, 64, 3)
        r = evaluate(micro_model, val, 3)
        preds = [predict(micro_model, s.image) for s in val]
        mat = confusion_loops(preds, [s.label for s in val], 3)
        _, want_mean = miou_from_confusion(mat)
        assert r.mean == pytest.approx(want_mean)

    def test_memory_does_not_grow_with_the_validation_set(self, micro_model):
        # Each prediction map is counted and dropped before the next one is
        # made; holding all 16 would add about 3.5 MB.
        def peak(n):
            val = synth_dataset(31, n, 192, MICRO.num_classes)
            tracemalloc.start()
            try:
                evaluate(micro_model, val, MICRO.num_classes)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(16) - peak(4) < 1 << 20


def test_loss_alias_is_the_shared_entry_point():
    assert cross_entropy is ops.softmax_cross_entropy
