"""Elementwise, normalization, resize, matmul, and loss primitives against
loop oracles and finite differences."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from segnext import ops
from segnext.blocks import BatchNorm
from segnext.tensor import GradTape, ShapeError, Tensor, backward

from oracles import (batchnorm_loops, bilinear_loops, cross_entropy_grad_loops,
                     cross_entropy_loops,
                     fd_gradient, rel_err)


def fd_check(build, x0, tol=1e-5, delta=1e-5):
    """build(Tensor) -> scalar loss Tensor; compares tape grads against FD."""
    xt = Tensor(x0.copy(), requires_grad=True)
    with GradTape() as tape:
        loss = build(xt)
    got = backward(tape, loss).of(xt)

    def f(arr):
        return float(build(Tensor(arr)).data.reshape(()))

    want = fd_gradient(f, x0.copy(), delta=delta)
    assert rel_err(got, want) < tol


def make_bn(c, rng=None):
    gamma = np.ones((1, c, 1, 1)) if rng is None else rng.normal(1, 0.2, (1, c, 1, 1))
    beta = np.zeros((1, c, 1, 1)) if rng is None else rng.normal(0, 0.2, (1, c, 1, 1))
    return BatchNorm(
        gamma=Tensor(gamma, requires_grad=True),
        beta=Tensor(beta, requires_grad=True),
        running_mean=np.zeros(c),
        running_var=np.ones(c),
    )


class TestBatchNorm:
    def test_train_mode_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(2.0, 3.0, size=(4, 5, 6, 7))
        bn = make_bn(5, rng)
        got = ops.batchnorm2d(Tensor(x), bn.gamma, bn.beta,
                              bn.running_mean, bn.running_var, 1e-5, True, 0.1).data
        want = batchnorm_loops(x, bn.gamma.data, bn.beta.data, 1e-5)
        assert rel_err(got, want) <= 1e-12

    def test_train_output_is_normalized(self):
        rng = np.random.default_rng(4)
        x = rng.normal(5.0, 2.0, size=(8, 3, 10, 10))
        bn = make_bn(3)
        y = ops.batchnorm2d(Tensor(x), bn.gamma, bn.beta,
                            bn.running_mean, bn.running_var, 1e-5, True, 0.1).data
        assert abs(y.mean()) < 1e-10
        assert abs(y.var() - 1.0) < 1e-3

    def test_running_stats_update_unbiased(self):
        rng = np.random.default_rng(5)
        x = rng.normal(1.5, 2.0, size=(2, 3, 4, 4))
        bn = make_bn(3)
        ops.batchnorm2d(Tensor(x), bn.gamma, bn.beta,
                        bn.running_mean, bn.running_var, 1e-5, True, 0.1)
        m = 2 * 4 * 4
        for c in range(3):
            vals = x[:, c]
            want_mean = 0.9 * 0.0 + 0.1 * vals.mean()
            want_var = 0.9 * 1.0 + 0.1 * vals.var() * m / (m - 1)
            assert abs(bn.running_mean[c] - want_mean) < 1e-12
            assert abs(bn.running_var[c] - want_var) < 1e-12

    def test_eval_mode_uses_running_stats(self):
        x = np.full((1, 2, 2, 2), 3.0)
        bn = make_bn(2)
        bn.running_mean[:] = [1.0, 2.0]
        bn.running_var[:] = [4.0, 0.25]
        y = ops.batchnorm2d(Tensor(x), bn.gamma, bn.beta,
                            bn.running_mean, bn.running_var, 1e-5, False, 0.1).data
        np.testing.assert_allclose(y[0, 0], (3 - 1) / np.sqrt(4 + 1e-5), rtol=1e-6)
        np.testing.assert_allclose(y[0, 1], (3 - 2) / np.sqrt(0.25 + 1e-5), rtol=1e-6)

    def test_eval_mode_does_not_touch_stats(self):
        bn = make_bn(2)
        before = (bn.running_mean.copy(), bn.running_var.copy())
        ops.batchnorm2d(Tensor(np.ones((1, 2, 3, 3))), bn.gamma, bn.beta,
                        bn.running_mean, bn.running_var, 1e-5, False, 0.1)
        np.testing.assert_array_equal(bn.running_mean, before[0])
        np.testing.assert_array_equal(bn.running_var, before[1])

    @pytest.mark.parametrize("training", [True, False])
    def test_input_gradient(self, training):
        rng = np.random.default_rng(6)
        x0 = rng.normal(size=(3, 4, 5, 5))
        bn = make_bn(4, rng)

        def build(xt):
            y = ops.batchnorm2d(xt, bn.gamma, bn.beta,
                                bn.running_mean.copy(), bn.running_var.copy(),
                                1e-5, training, 0.1)
            return ops.mean_all(ops.mul(y, y))

        fd_check(build, x0, tol=1e-3 if training else 1e-5)

    def test_affine_gradients(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)))
        bn = make_bn(3, rng)
        with GradTape() as tape:
            y = ops.batchnorm2d(x, bn.gamma, bn.beta,
                                bn.running_mean, bn.running_var, 1e-5, True, 0.1)
            loss = ops.mean_all(ops.mul(y, y))
        g = backward(tape, loss)

        def f_gamma(arr):
            y = ops.batchnorm2d(x, Tensor(arr), bn.beta,
                                np.zeros(3), np.ones(3), 1e-5, True, 0.1)
            return float((y.data ** 2).mean())

        want = fd_gradient(f_gamma, bn.gamma.data.copy())
        assert rel_err(g.of(bn.gamma), want) < 1e-5

    @pytest.mark.parametrize("training", [True, False])
    def test_node_keeps_no_normalized_copy(self, training):
        # Backward recomputes xhat from x; the only input-sized array its
        # closure may hold is x itself.
        x = Tensor(np.random.default_rng(8).normal(size=(2, 3, 4, 4)), requires_grad=True)
        bn = make_bn(3)
        with GradTape() as tape:
            ops.batchnorm2d(x, bn.gamma, bn.beta,
                            bn.running_mean, bn.running_var, 1e-5, training, 0.1)
        (out, _, bwd), = tape._nodes
        held = [c.cell_contents for c in bwd.__closure__]
        held = [v.data if isinstance(v, Tensor) else v for v in held]
        big = [a for a in held if isinstance(a, np.ndarray) and a.size == x.size]
        assert big and all(a is x.data or a is out.data for a in big)

    def test_eval_mode_accepts_empty_batch(self):
        bn = make_bn(3)
        y = ops.batchnorm2d(Tensor(np.zeros((0, 3, 4, 5))), bn.gamma, bn.beta,
                            bn.running_mean, bn.running_var, 1e-5, False, 0.1)
        assert y.shape == (0, 3, 4, 5)

    def test_train_mode_rejects_empty_batch(self):
        bn = make_bn(3)
        before = (bn.running_mean.copy(), bn.running_var.copy())
        with pytest.raises(ShapeError):
            ops.batchnorm2d(Tensor(np.zeros((0, 3, 4, 5))), bn.gamma, bn.beta,
                            bn.running_mean, bn.running_var, 1e-5, True, 0.1)
        np.testing.assert_array_equal(bn.running_mean, before[0])
        np.testing.assert_array_equal(bn.running_var, before[1])

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", [(2, 3, 0, 5), (2, 3, 4, 0), (0, 3, 0, 5)])
    def test_rejects_zero_spatial_size(self, training, shape):
        bn = make_bn(3)
        with pytest.raises(ShapeError):
            ops.batchnorm2d(Tensor(np.zeros(shape)), bn.gamma, bn.beta,
                            bn.running_mean, bn.running_var, 1e-5, training, 0.1)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", [(2, 0, 4, 4), (0, 0, 4, 4)])
    def test_rejects_zero_channels(self, training, shape):
        bn = make_bn(0)
        with pytest.raises(ShapeError):
            ops.batchnorm2d(Tensor(np.zeros(shape)), bn.gamma, bn.beta,
                            bn.running_mean, bn.running_var, 1e-5, training, 0.1)


def _float32_sweep() -> np.ndarray:
    """Every 4099th float32 bit pattern: all signs, exponents and subnormals."""
    return np.arange(0, 2**32, 4099, dtype=np.uint64).astype(np.uint32).view(np.float32)


def _fp_class(v: np.float32) -> str:
    if np.isnan(v):
        return "nan"
    sign = "-" if np.signbit(v) else "+"
    if np.isinf(v):
        return sign + "inf"
    if v == 0:
        return sign + "0"
    return sign + ("subnormal" if abs(v) < np.finfo(np.float32).smallest_normal else "normal")


class TestActivations:
    def test_gelu_exact_values(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0]).reshape(1, 1, 1, 5)
        want = x * 0.5 * (1 + special.erf(x / np.sqrt(2)))
        got = ops.gelu(Tensor(x)).data
        assert rel_err(got, want) <= 1e-15

    def test_gelu_gradient(self):
        rng = np.random.default_rng(8)
        fd_check(lambda t: ops.sum_all(ops.gelu(t)),
                 rng.normal(size=(1, 2, 3, 3)))

    def test_gelu_float32_phi_within_3e7_of_float64_erfc(self):
        x = _float32_sweep()
        x = x[np.abs(x) < 20]
        want = 0.5 * special.erfc(-x.astype(np.float64) / np.sqrt(2))
        assert np.abs(ops._gelu_f32(x)[1] - want).max() < 3e-7

    def test_gelu_float32_phi_in_unit_interval(self):
        x = _float32_sweep()
        x = np.concatenate([x[~np.isnan(x)], np.float32([np.inf, -np.inf])])
        with np.errstate(invalid="ignore"):  # the GELU of -inf is NaN
            phi = ops._gelu_f32(x)[1]
        assert phi.min() >= 0 and phi.max() <= 1

    def test_gelu_float32_special_values_match_scipy_classes(self):
        tiny = np.finfo(np.float32).smallest_subnormal
        big_sub = np.finfo(np.float32).smallest_normal - tiny
        x = np.float32([0.0, -0.0, tiny, -tiny, big_sub, -big_sub,
                        np.inf, -np.inf, np.nan]).reshape(1, 1, 1, 9)
        with np.errstate(invalid="ignore"):
            got = ops.gelu(Tensor(x)).data
            # The float32 path before the rational erf.
            want = x * (0.5 * (1.0 + special.erf(x * 0.7071067811865476)))
        assert got.dtype == np.float32
        assert [_fp_class(v) for v in got.ravel()] == [_fp_class(v) for v in want.ravel()]
        # +inf, -inf, NaN
        assert [_fp_class(v) for v in got.ravel()[-3:]] == ["+inf", "nan", "nan"]

    @pytest.mark.parametrize("size", ["1", "chunk-1", "chunk+1", "3chunk+5"])
    def test_gelu_float32_bitwise_independent_of_chunking(self, size, monkeypatch):
        chunk = ops._PHI_CHUNK
        n = {"1": 1, "chunk-1": chunk - 1, "chunk+1": chunk + 1, "3chunk+5": 3 * chunk + 5}[size]
        x = np.random.default_rng(n).normal(scale=3, size=(1, 1, 1, n)).astype(np.float32)
        whole = ops.gelu(Tensor(x)).data
        monkeypatch.setattr(ops, "_PHI_CHUNK", 7)
        assert whole.tobytes() == ops.gelu(Tensor(x)).data.tobytes()
        pieces = [ops.gelu(Tensor(x[..., i:i + 1009])).data for i in range(0, n, 1009)]
        assert whole.tobytes() == np.concatenate(pieces, axis=-1).tobytes()

    @pytest.mark.parametrize("size", [5, 3 * (1 << 15) + 5])
    def test_gelu_float32_same_bits_with_and_without_a_tape(self, size):
        x = np.random.default_rng(size).normal(scale=3, size=(1, 1, 1, size))
        x = x.astype(np.float32)
        free = ops.gelu(Tensor(x)).data
        xt = Tensor(x, requires_grad=True)
        with GradTape():
            taped = ops.gelu(xt).data
        assert free.tobytes() == taped.tobytes()
        assert ops._gelu_f32(x, keep_phi=False)[1] is None

    def test_gelu_float32_outside_a_tape_allocates_under_two_outputs(self):
        # Phi is kept only for a tape; without one, chunk-sized scratch holds it.
        x = Tensor(np.random.default_rng(3).normal(size=(1, 64, 128, 128)).astype(np.float32))
        tracemalloc.start()
        try:
            ops.gelu(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * x.data.nbytes

    def test_gelu_float32_empty_batch(self):
        out = ops.gelu(Tensor(np.zeros((0, 3, 4, 4), np.float32))).data
        assert out.shape == (0, 3, 4, 4) and out.dtype == np.float32

    def test_gelu_float32_backward_matches_float64_derivative(self):
        x = np.random.default_rng(4).normal(scale=3, size=(2, 3, 8, 8)).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        with GradTape() as tape:
            loss = ops.sum_all(ops.gelu(xt))
        got = backward(tape, loss).of(xt)
        x64 = x.astype(np.float64)
        want = (0.5 * special.erfc(-x64 / np.sqrt(2))
                + x64 * np.exp(-0.5 * x64 * x64) / np.sqrt(2 * np.pi))
        assert got.dtype == np.float32
        assert np.abs(got - want).max() < 1e-6

    def test_gelu_float32_does_not_call_float64_erf(self, monkeypatch):
        calls = []
        real_erf = ops._erf_f64

        def erf(x):
            calls.append(x.dtype)
            return real_erf(x)

        monkeypatch.setattr(ops, "_erf_f64", erf)
        ops.gelu(Tensor(np.float32([-1.0, 0.5, 2.0]).reshape(1, 1, 1, 3)))
        assert calls == [], "float32 GELU called the float64 erf"
        x = np.array([-1.0, 0.5]).reshape(1, 1, 1, 2)
        want = x * (0.5 * (1.0 + special.erf(x * 0.7071067811865476)))
        assert ops.gelu(Tensor(x)).data.tobytes() == want.tobytes()
        assert calls == [np.float64]

    def test_erf_float64_within_1e15_of_math_erf(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = np.array([0.0, tiny, 1e-310, np.finfo(np.float64).smallest_normal - tiny,
                          1e-300, 1e-20, 1.0, np.nextafter(1.0, 2.0), 6.0, 8.0, 27.0, 40.0])
        x = np.concatenate([edges, -edges, np.linspace(-40, 40, 400_001),
                            np.random.default_rng(6).normal(scale=2, size=200_000)])
        got = ops._erf_f64(x)
        want = np.array([math.erf(v) for v in x])
        assert (np.signbit(got) == np.signbit(want)).all()  # erf(-0) is -0
        assert (np.abs(got - want) <= 1e-15 * np.abs(want)).all()
        special_values = ops._erf_f64(np.array([np.inf, -np.inf, np.nan]))
        assert special_values[:2].tolist() == [1.0, -1.0] and np.isnan(special_values[2])

    def test_relu_and_gradient(self):
        x = np.array([-1.0, 0.5, 2.0]).reshape(1, 1, 1, 3)
        np.testing.assert_array_equal(ops.relu(Tensor(x)).data,
                                      [[[[0.0, 0.5, 2.0]]]])
        rng = np.random.default_rng(9)
        # keep probes away from the kink at zero
        x0 = rng.normal(size=(1, 2, 4, 4))
        x0[np.abs(x0) < 0.05] = 0.1
        fd_check(lambda t: ops.sum_all(ops.relu(t)), x0)


class TestBilinearResize:
    @pytest.mark.parametrize("hw,ohw", [((5, 7), (10, 14)), ((8, 8), (3, 5)),
                                        ((4, 4), (9, 13)), ((6, 6), (6, 6))])
    def test_matches_loop_oracle(self, hw, ohw):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 3, *hw))
        got = ops.bilinear_resize(Tensor(x), *ohw).data
        want = bilinear_loops(x, *ohw)
        assert rel_err(got, want) <= 1e-12

    def test_same_size_is_identity_bitwise(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(1, 2, 6, 6)).astype(np.float32), requires_grad=True)
        assert ops.bilinear_resize(x, 6, 6) is x
        with GradTape() as tape:
            loss = ops.sum_all(ops.mul(ops.bilinear_resize(x, 6, 6), x))
        np.testing.assert_array_equal(backward(tape, loss).of(x), 2 * x.data)

    def test_constant_field_preserved(self):
        x = np.full((1, 1, 5, 5), 3.25)
        out = ops.bilinear_resize(Tensor(x), 13, 9).data
        np.testing.assert_allclose(out, 3.25, rtol=1e-14)

    @pytest.mark.parametrize("ohw", [(10, 14), (3, 5)])
    def test_gradient(self, ohw):
        rng = np.random.default_rng(12)
        fd_check(lambda t: ops.mean_all(ops.mul(ops.bilinear_resize(t, *ohw),
                                                ops.bilinear_resize(t, *ohw))),
                 rng.normal(size=(1, 2, 5, 7)))

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ShapeError):
            ops.bilinear_resize(Tensor(np.zeros((1, 1, 4, 4))), 0, 5)

    @pytest.mark.parametrize("ohw", [(9, 13), (4, 6)])
    def test_empty_batch_gives_empty_output(self, ohw):
        out = ops.bilinear_resize(Tensor(np.zeros((0, 3, 4, 6))), *ohw)
        assert out.shape == (0, 3, *ohw)

    @pytest.mark.parametrize("shape", [(1, 0, 4, 4), (1, 2, 0, 4), (1, 2, 4, 0),
                                       (0, 0, 4, 4), (0, 2, 0, 4)])
    def test_rejects_zero_channels_or_spatial_size(self, shape):
        with pytest.raises(ShapeError):
            ops.bilinear_resize(Tensor(np.zeros(shape)), 5, 5)


class TestElementwise:
    def test_add_mul_div_shapes_must_match(self):
        a = Tensor(np.ones((1, 2, 3, 3)))
        b = Tensor(np.ones((1, 2, 3, 4)))
        for fn in (ops.add, ops.mul, ops.div):
            with pytest.raises(ShapeError):
                fn(a, b)

    def test_div_values_and_gradient(self):
        rng = np.random.default_rng(13)
        a0 = rng.normal(size=(1, 2, 3, 3))
        b0 = rng.uniform(0.5, 2.0, size=(1, 2, 3, 3))
        np.testing.assert_allclose(
            ops.div(Tensor(a0), Tensor(b0)).data, a0 / b0, rtol=1e-15)
        fd_check(lambda t: ops.sum_all(ops.div(t, Tensor(b0))), a0)
        fd_check(lambda t: ops.sum_all(ops.div(Tensor(a0), t)), b0)

    def test_scale_per_channel_gradient_sums_broadcast_axes(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)))
        s = Tensor(rng.normal(size=(1, 3, 1, 1)), requires_grad=True)
        with GradTape() as tape:
            loss = ops.sum_all(ops.scale(x, s))
        g = backward(tape, loss).of(s)
        want = x.data.sum(axis=(0, 2, 3)).reshape(1, 3, 1, 1)
        assert rel_err(g, want) <= 1e-12

    def test_add_scalar(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        np.testing.assert_array_equal(ops.add_scalar(x, 2.5).data,
                                      np.full((1, 1, 2, 2), 2.5))

    def test_concat_channels_and_gradient(self):
        rng = np.random.default_rng(15)
        a0 = rng.normal(size=(1, 2, 3, 3))
        b0 = rng.normal(size=(1, 4, 3, 3))
        out = ops.concat_channels([Tensor(a0), Tensor(b0)])
        assert out.shape == (1, 6, 3, 3)
        np.testing.assert_array_equal(out.data[:, :2], a0)
        np.testing.assert_array_equal(out.data[:, 2:], b0)
        at = Tensor(a0, requires_grad=True)
        bt = Tensor(b0, requires_grad=True)
        with GradTape() as tape:
            cat = ops.concat_channels([at, bt])
            loss = ops.sum_all(ops.mul(cat, cat))
        g = backward(tape, loss)
        assert rel_err(g.of(at), 2 * a0) <= 1e-12
        assert rel_err(g.of(bt), 2 * b0) <= 1e-12

    def test_concat_rejects_spatial_mismatch(self):
        with pytest.raises(ShapeError):
            ops.concat_channels([Tensor(np.zeros((1, 1, 2, 2))),
                                 Tensor(np.zeros((1, 1, 3, 2)))])


class TestMatmulReshape:
    def test_matmul_values_and_gradient(self):
        rng = np.random.default_rng(16)
        a0 = rng.normal(size=(2, 1, 3, 4))
        b0 = rng.normal(size=(2, 1, 4, 5))
        np.testing.assert_allclose(ops.matmul(Tensor(a0), Tensor(b0)).data,
                                   a0 @ b0, rtol=1e-14)
        fd_check(lambda t: ops.sum_all(ops.matmul(t, Tensor(b0))), a0)
        fd_check(lambda t: ops.sum_all(ops.matmul(Tensor(a0), t)), b0)

    def test_matmul_rejects_inner_mismatch(self):
        with pytest.raises(ShapeError):
            ops.matmul(Tensor(np.zeros((1, 1, 3, 4))),
                       Tensor(np.zeros((1, 1, 5, 6))))

    def test_mat_transpose(self):
        rng = np.random.default_rng(17)
        a0 = rng.normal(size=(2, 3, 4, 5))
        np.testing.assert_array_equal(ops.mat_transpose(Tensor(a0)).data,
                                      a0.transpose(0, 1, 3, 2))

    def test_reshape_roundtrip_gradient(self):
        rng = np.random.default_rng(18)
        x0 = rng.normal(size=(1, 6, 2, 2))
        fd_check(lambda t: ops.sum_all(
            ops.mul(ops.reshape(t, (1, 2, 3, 4)), ops.reshape(t, (1, 2, 3, 4)))), x0)

    def test_reshape_rejects_size_change(self):
        with pytest.raises(ShapeError):
            ops.reshape(Tensor(np.zeros((1, 2, 3, 3))), (1, 2, 3, 4))

    def test_sum_and_mean_all(self):
        x = Tensor(np.arange(8, dtype=np.float64).reshape(1, 2, 2, 2))
        assert ops.sum_all(x).item() == 28.0
        assert ops.mean_all(x).item() == 3.5


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        k = 5
        logits = Tensor(np.zeros((2, k, 3, 3)))
        labels = np.random.default_rng(0).integers(0, k, (2, 3, 3))
        loss = ops.softmax_cross_entropy(logits, labels)
        np.testing.assert_allclose(loss.item(), np.log(k), rtol=1e-12)

    def test_saturated_correct_logit_gives_zero(self):
        logits = np.zeros((1, 3, 2, 2))
        labels = np.ones((1, 2, 2), dtype=np.int64)
        logits[:, 1] = 1000.0
        loss = ops.softmax_cross_entropy(Tensor(logits), labels)
        assert loss.item() < 1e-12

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(19)
        logits = rng.normal(size=(2, 3, 4, 4)) * 3
        labels = rng.integers(0, 3, (2, 4, 4))
        labels[0, 0, :2] = 255
        got = ops.softmax_cross_entropy(Tensor(logits), labels).item()
        want = cross_entropy_loops(logits, labels)
        assert rel_err(got, want) <= 1e-12

    def test_ignored_pixels_get_zero_gradient(self):
        rng = np.random.default_rng(20)
        logits0 = rng.normal(size=(1, 3, 2, 2))
        labels = np.array([[[0, 255], [1, 2]]])
        lt = Tensor(logits0, requires_grad=True)
        with GradTape() as tape:
            loss = ops.softmax_cross_entropy(lt, labels)
        g = backward(tape, loss).of(lt)
        np.testing.assert_array_equal(g[0, :, 0, 1], 0.0)
        assert np.abs(g[0, :, 0, 0]).max() > 0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        logits0 = rng.normal(size=(2, 4, 3, 3))
        labels = rng.integers(0, 4, (2, 3, 3))
        labels[1, 2, 2] = 255
        fd_check(lambda t: ops.softmax_cross_entropy(t, labels), logits0)

    def test_all_ignored_raises(self):
        logits = Tensor(np.zeros((1, 2, 2, 2)))
        labels = np.full((1, 2, 2), 255)
        with pytest.raises(ValueError):
            ops.softmax_cross_entropy(logits, labels)

    def test_out_of_range_label_raises(self):
        logits = Tensor(np.zeros((1, 2, 2, 2)))
        labels = np.array([[[0, 1], [2, 0]]])
        with pytest.raises(ValueError):
            ops.softmax_cross_entropy(logits, labels)

    def test_gradient_scales_with_valid_count(self):
        # mean over valid pixels only: halving the valid set doubles each
        # surviving pixel's gradient share
        logits0 = np.zeros((1, 2, 1, 2))
        l_all = np.array([[[0, 0]]])
        l_half = np.array([[[0, 255]]])
        for labels, factor in ((l_all, 0.5), (l_half, 1.0)):
            lt = Tensor(logits0.copy(), requires_grad=True)
            with GradTape() as tape:
                loss = ops.softmax_cross_entropy(lt, labels)
            g = backward(tape, loss).of(lt)
            np.testing.assert_allclose(g[0, 1, 0, 0], 0.5 * factor, rtol=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 19, 150])
    def test_loss_and_gradient_match_loop_oracles(self, k):
        rng = np.random.default_rng(k)
        logits = rng.normal(size=(2, k, 3, 4)) * 3
        labels = rng.integers(0, k, (2, 3, 4))
        labels[0, 1, :3] = 255
        labels[1, 2, 3] = 255
        lt = Tensor(logits, requires_grad=True)
        with GradTape() as tape:
            loss = ops.softmax_cross_entropy(lt, labels)
        g = backward(tape, loss).of(lt)
        assert rel_err(loss.item(), cross_entropy_loops(logits, labels)) <= 1e-12
        assert rel_err(g, cross_entropy_grad_loops(logits, labels)) <= 1e-12

    def test_float32_loss_bitwise_equal_to_the_whole_array_formula(self):
        # The class-plane loops reduce in the order numpy reduces the class
        # axis, so the loss keeps the bits of this formula.
        rng = np.random.default_rng(23)
        z = (rng.normal(size=(8, 3, 128, 128)) * 3).astype(np.float32)
        labels = rng.integers(0, 3, (8, 128, 128))
        labels[rng.random(labels.shape) < 0.1] = 255
        valid = labels != 255
        zs = z - z.max(axis=1, keepdims=True)
        denom = np.exp(zs).sum(axis=1, keepdims=True)
        safe = np.where(valid, labels, 0).astype(np.int64)[:, None, :, :]
        picked = np.take_along_axis(zs - np.log(denom), safe, axis=1)[:, 0]
        want = -(picked * valid).sum(dtype=z.dtype) / z.dtype.type(valid.sum())
        got = ops.softmax_cross_entropy(Tensor(z), labels).data
        assert got.dtype == np.float32 and got.tobytes() == np.float32(want).tobytes()

    def test_float32_forward_holds_under_two_logits_arrays(self):
        # One logits-sized array (the exponentials the backward reads) and a
        # few (N, H, W) planes; no shifted or log-softmax copy of the logits.
        rng = np.random.default_rng(24)
        logits = Tensor(rng.normal(size=(2, 19, 64, 64)).astype(np.float32),
                        requires_grad=True)
        labels = rng.integers(0, 19, (2, 64, 64))
        labels[:, :4] = 255
        tracemalloc.start()
        try:
            with GradTape():
                ops.softmax_cross_entropy(logits, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * logits.data.nbytes
