"""Convolution forward/backward against the direct-loop oracle and finite
differences, across grouping, stride, and kernel-shape regimes."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segnext import ops
from segnext.analysis import cost_report
from segnext.encoder import PRESETS
from segnext.model import build_model
from segnext.tensor import GradTape, ShapeError, Tensor, backward

from oracles import conv2d_loops, depthwise_dw_loops, fd_gradient, rel_err


def run_conv(x, w, b, spec):
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    bt = Tensor(b, requires_grad=True) if b is not None else None
    return ops.conv2d(xt, wt, bt, spec)


class TestConvSpec:
    def test_default_padding_is_half_kernel(self):
        spec = ops.ConvSpec(8, 4, (3, 5))
        assert spec.padding == (1, 2)

    def test_strip_kernel_padding(self):
        assert ops.ConvSpec(4, 4, (1, 21), groups=4).padding == (0, 10)
        assert ops.ConvSpec(4, 4, (21, 1), groups=4).padding == (10, 0)

    def test_rejects_indivisible_groups(self):
        with pytest.raises(ShapeError):
            ops.ConvSpec(6, 4, (3, 3), groups=3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ShapeError):
            ops.ConvSpec(0, 4, (3, 3))
        with pytest.raises(ShapeError):
            ops.ConvSpec(4, 4, (3, 3), stride=(0, 1))

    def test_out_size_floor_rule(self):
        spec = ops.ConvSpec(1, 1, (3, 3), stride=(2, 2), padding=(1, 1))
        assert spec.out_size(7, 7) == (4, 4)
        assert spec.out_size(8, 8) == (4, 4)
        assert spec.out_size(9, 9) == (5, 5)

    def test_out_size_rejects_too_small(self):
        spec = ops.ConvSpec(1, 1, (5, 5), padding=(0, 0))
        with pytest.raises(ShapeError):
            spec.out_size(4, 4)

    def test_weight_shape(self):
        assert ops.ConvSpec(8, 4, (3, 3), groups=2).weight_shape == (8, 2, 3, 3)


# (C_in, C_out, kernel, stride, padding, groups, H, W)
REGIMES = [
    (3, 8, (3, 3), (1, 1), None, 1, 9, 9),          # dense
    (4, 8, (3, 3), (2, 2), None, 1, 10, 11),        # dense strided
    (6, 6, (5, 5), (1, 1), None, 6, 8, 8),          # depthwise square
    (5, 5, (1, 7), (1, 1), None, 5, 7, 12),         # depthwise strip (h)
    (5, 5, (7, 1), (1, 1), None, 5, 12, 7),         # depthwise strip (v)
    (4, 4, (1, 21), (1, 1), None, 4, 6, 25),        # widest strip
    (4, 4, (21, 1), (1, 1), None, 4, 25, 6),
    (6, 9, (3, 3), (1, 1), None, 3, 7, 7),          # grouped, o != i
    (8, 8, (3, 3), (2, 1), None, 2, 9, 9),          # grouped uneven stride
    (2, 4, (1, 1), (1, 1), None, 1, 6, 6),          # pointwise
    (16, 8, (1, 1), (1, 1), None, 1, 5, 5),         # pointwise reducing
    (3, 3, (3, 3), (1, 1), (0, 0), 3, 6, 6),        # no padding
    (4, 4, (3, 3), (2, 2), None, 4, 9, 10),         # depthwise strided
    (3, 3, (3, 3), (1, 1), None, 3, 5, 37),         # width tiles, ragged last
    (3, 3, (11, 1), (1, 1), None, 3, 45, 4),        # tall strip, tiles after transpose
    (4, 4, (5, 5), (1, 2), (1, 3), 4, 9, 40),       # depthwise uneven stride, padding
    (3, 3, (1, 3), (1, 1), (2, 0), 3, 5, 7),        # depthwise padding > kernel - 1
]


@pytest.mark.parametrize("ci,co,k,s,p,g,h,w", REGIMES)
class TestConvForward:
    def test_matches_loop_oracle(self, ci, co, k, s, p, g, h, w):
        rng = np.random.default_rng(hash((ci, co, k, s, g)) % 2**32)
        spec = ops.ConvSpec(co, ci, k, stride=s, padding=p, groups=g)
        x = rng.normal(size=(2, ci, h, w))
        wt = rng.normal(size=spec.weight_shape)
        b = rng.normal(size=(1, co, 1, 1))
        got = run_conv(x, wt, b, spec).data
        want = conv2d_loops(x, wt, b, spec.stride, spec.padding, g)
        assert rel_err(got, want) <= 1e-12

    def test_no_bias_variant(self, ci, co, k, s, p, g, h, w):
        rng = np.random.default_rng(0)
        spec = ops.ConvSpec(co, ci, k, stride=s, padding=p, groups=g, bias=False)
        x = rng.normal(size=(1, ci, h, w))
        wt = rng.normal(size=spec.weight_shape)
        got = run_conv(x, wt, None, spec).data
        want = conv2d_loops(x, wt, None, spec.stride, spec.padding, g)
        assert rel_err(got, want) <= 1e-12


@pytest.mark.parametrize("ci,co,k,s,p,g,h,w", REGIMES)
def test_conv_gradients_match_finite_differences(ci, co, k, s, p, g, h, w):
    # Seeded from ints only: hash() of a str changes with PYTHONHASHSEED.
    rng = np.random.default_rng([co, *k, g, 1])
    spec = ops.ConvSpec(co, ci, k, stride=s, padding=p, groups=g)
    x = rng.normal(size=(1, ci, h, w))
    wt = rng.normal(size=spec.weight_shape) * 0.5
    b = rng.normal(size=(1, co, 1, 1))

    xt = Tensor(x.copy(), requires_grad=True)
    wtt = Tensor(wt.copy(), requires_grad=True)
    bt = Tensor(b.copy(), requires_grad=True)
    with GradTape() as tape:
        out = ops.conv2d(xt, wtt, bt, spec)
        loss = ops.sum_all(ops.mul(out, out))
    grads = backward(tape, loss)

    # The forward pass is loop-oracle-verified above, so finite differences
    # can probe it directly instead of the much slower oracle.
    def loss_of(which):
        def f(arr):
            xs = Tensor(arr if which == "x" else x)
            ws = Tensor(arr if which == "w" else wt)
            bs = Tensor(arr if which == "b" else b)
            y = ops.conv2d(xs, ws, bs, spec).data
            return float((y * y).sum())
        return f

    assert rel_err(grads.of(xt), fd_gradient(loss_of("x"), x.copy())) < 1e-5
    assert rel_err(grads.of(wtt), fd_gradient(loss_of("w"), wt.copy())) < 1e-5
    assert rel_err(grads.of(bt), fd_gradient(loss_of("b"), b.copy())) < 1e-5


DEPTHWISE = [r for r in REGIMES if r[0] == r[1] == r[5]]


def _block_bytes(channels, n, k, p, h, w, itemsize):
    """A ``_DW_BLOCK_BYTES`` that makes the forward copy ``channels`` channels
    per block: the bytes of their rows in ``_banded_depthwise``'s stride-1
    tiles. Strided rows run on the columns, which take no budget."""
    oh, ow = ops.ConvSpec(1, 1, k, padding=p).out_size(h, w)
    kh, kw = k
    if kh > kw:  # tall kernels run on the transposed input
        kh, kw, oh, ow = kw, kh, ow, oh
    t = min(ow, max(16, 2 * kw))
    return channels * n * oh * -(-ow // t) * kh * (t - 1 + kw) * itemsize


def _conv_and_grads(x, wt, b, spec):
    xt, wtt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, wt, b))
    with GradTape() as tape:
        out = ops.conv2d(xt, wtt, bt, spec)
        loss = ops.sum_all(ops.mul(out, out))
    grads = backward(tape, loss)
    return [out.data] + [grads.of(t) for t in (xt, wtt, bt)]


class TestDepthwiseChannelBlocks:
    """``_banded_depthwise`` pads one block of channels at a time to whole
    tiles and copies all of its rows; every depthwise row above fits in one
    block at the default budget. The strided and over-padded rows run on the
    grouped columns, so for them the budget must change nothing."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("blocks", ["one-channel", "ragged-last"])
    @pytest.mark.parametrize("ci,co,k,s,p,g,h,w", DEPTHWISE)
    def test_blocks_match_one_block_oracle_and_finite_differences(
            self, ci, co, k, s, p, g, h, w, blocks, dtype, monkeypatch):
        rng = np.random.default_rng([ci, *k, *s, h, w])
        spec = ops.ConvSpec(co, ci, k, stride=s, padding=p, groups=g)
        x = rng.normal(size=(2, ci, h, w))
        wt = rng.normal(size=spec.weight_shape) * 0.5
        b = rng.normal(size=(1, co, 1, 1))
        args = [a.astype(dtype) for a in (x, wt, b)]
        whole = _conv_and_grads(*args, spec)
        budget = 1 if blocks == "one-channel" else _block_bytes(
            ci - 1, 2, k, spec.padding, h, w, np.dtype(dtype).itemsize)
        monkeypatch.setattr(ops, "_DW_BLOCK_BYTES", budget)
        got = _conv_and_grads(*args, spec)
        for a, want in zip(got, whole):
            assert a.dtype == dtype and a.tobytes() == want.tobytes()

        tol = 1e-12 if dtype == np.float64 else 1e-6
        assert rel_err(got[0], conv2d_loops(x, wt, b, spec.stride, spec.padding, g)) <= tol

        def loss_of(which):
            def f(arr):
                y = ops.conv2d(*(Tensor(arr if i == which else a)
                                 for i, a in enumerate((x, wt, b))), spec).data
                return float((y * y).sum())
            return f

        tol = 1e-5 if dtype == np.float64 else 1e-4
        for i, a in enumerate((x, wt, b)):
            assert rel_err(got[1 + i], fd_gradient(loss_of(i), a.copy())) < tol

    def test_one_channel_blocks_run_one_gemm_per_channel(self, monkeypatch):
        # Every block's rows are copied, so at a one-byte budget each channel
        # is a block of its own and runs its own GEMM.
        spec = ops.ConvSpec(3, 3, (3, 3), groups=3, bias=False)
        x = np.random.default_rng(0).normal(size=(2, 3, 5, 37))
        w = np.ones(spec.weight_shape)
        calls = []
        real = np.matmul

        def matmul(*a, **kw):
            calls.append(a[1].shape[0])
            return real(*a, **kw)

        monkeypatch.setattr(ops, "_DW_BLOCK_BYTES", 1)
        monkeypatch.setattr(np, "matmul", matmul)
        ops.conv2d(Tensor(x), Tensor(w), None, spec)
        assert calls == [1, 1, 1]

    def test_float32_3x3_allocates_far_less_than_its_row_matrix(self):
        # 64ch@64x64: only the output is needed whole. Neither the padded
        # input nor the full row matrix (3 rows of 18 columns per 16-column
        # tile, 3.4x the input) is: each block of channels is padded into one
        # reused buffer and its rows copied into another of at most
        # _DW_BLOCK_BYTES, and the block's band is the only other buffer.
        rng = np.random.default_rng(0)
        spec = ops.ConvSpec(64, 64, (3, 3), groups=64)
        x = Tensor(rng.normal(size=(1, 64, 64, 64)).astype(np.float32))
        w = Tensor(rng.normal(size=spec.weight_shape).astype(np.float32))
        b = Tensor(np.zeros((1, 64, 1, 1), np.float32))
        tracemalloc.start()
        try:
            out = ops.conv2d(x, w, b, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = ops._DW_BLOCK_BYTES // (64 * 4 * 3 * 18 * 4)  # channels per block
        padded_block = block * 66 * 66 * 4
        band = block * 3 * 18 * 16 * 4
        assert peak < out.data.nbytes + ops._DW_BLOCK_BYTES + padded_block + band

    def test_float32_3x3_under_a_tape_keeps_no_padded_copy(self):
        # The backward re-pads x, so the node holds just x and the output.
        rng = np.random.default_rng(0)
        spec = ops.ConvSpec(64, 64, (3, 3), groups=64)
        x = Tensor(rng.normal(size=(1, 64, 64, 64)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=spec.weight_shape).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros((1, 64, 1, 1), np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            with GradTape() as tape:
                out = ops.conv2d(x, w, b, spec)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tape) == 1
        # x was allocated before tracing started.
        assert x.data.nbytes + held < 1.1 * (x.data.nbytes + out.data.nbytes)

    def test_float32_3x3_backward_holds_no_whole_size_frame(self):
        # dx is the flipped kernel run on the output gradient, which the
        # rows pad one block of channels at a time: besides dx, only
        # block-sized buffers. A zero frame one kernel larger than the input
        # (8x64@34x34, 2.4 MB) is more than two blocks.
        rng = np.random.default_rng(0)
        spec = ops.ConvSpec(64, 64, (3, 3), groups=64)
        x = rng.normal(size=(8, 64, 32, 32)).astype(np.float32)
        w = rng.normal(size=spec.weight_shape).astype(np.float32)
        g = rng.normal(size=(8, 64, 32, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            dx, _ = ops._conv_backward(g, x, w, spec, need_x=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dx.nbytes + 2 * ops._DW_BLOCK_BYTES


def _swap_hw(a):
    return np.ascontiguousarray(a.transpose(0, 1, 3, 2))


def _depthwise_and_grads(x, wt, g, kernel):
    """Output, dx and dw of a bias-free depthwise conv whose output gradient
    is ``g``."""
    c = x.shape[1]
    spec = ops.ConvSpec(c, c, kernel, groups=c, bias=False)
    xt, wtt = Tensor(x, requires_grad=True), Tensor(wt, requires_grad=True)
    with GradTape() as tape:
        out = ops.conv2d(xt, wtt, None, spec)
        loss = ops.sum_all(ops.mul(out, Tensor(g)))
    grads = backward(tape, loss)
    return out.data, grads.of(xt), grads.of(wtt)


class TestDepthwiseOrientation:
    """A kernel taller than wide runs as the wide kernel on the transposed
    input, so a (k,1) conv gives the bits of the (1,k) conv on the
    transposed input and kernel, transposed back: output, dx and dw."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("h,w", [(4, 4), (17, 3), (40, 90), (5, 37), (32, 32), (13, 29)])
    @pytest.mark.parametrize("k", [3, 7, 11, 21])
    def test_tall_kernel_is_the_wide_kernel_transposed(self, k, h, w, dtype):
        rng = np.random.default_rng([k, h, w])
        x = rng.normal(size=(2, 3, h, w)).astype(dtype)
        wt = rng.normal(size=(3, 1, k, 1)).astype(dtype)
        g = rng.normal(size=(2, 3, h, w)).astype(dtype)
        tall = _depthwise_and_grads(x, wt, g, (k, 1))
        wide = _depthwise_and_grads(_swap_hw(x), _swap_hw(wt), _swap_hw(g), (1, k))
        for a, b in zip(tall, wide):
            assert a.dtype == dtype and a.tobytes() == _swap_hw(b).tobytes()


@st.composite
def depthwise_cases(draw):
    """A depthwise conv: kernels up to 21 either way, strides 1-3, padding up
    to kernel + 1, and input sizes that leave ragged last tiles."""
    kh, kw = draw(st.integers(1, 21)), draw(st.integers(1, 21))
    sh, sw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ph, pw = draw(st.integers(0, kh + 1)), draw(st.integers(0, kw + 1))
    h = draw(st.integers(max(1, kh - 2 * ph), max(1, kh - 2 * ph) + 12))
    w = draw(st.integers(max(1, kw - 2 * pw), max(1, kw - 2 * pw) + 60))
    c, n = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    budget = draw(st.sampled_from([ops._DW_BLOCK_BYTES, 1]))  # one or c blocks
    return ops.ConvSpec(c, c, (kh, kw), (sh, sw), (ph, pw), groups=c, bias=False), n, h, w, budget


class TestDepthwiseWeightGradient:
    """``dw`` comes from the forward's blocked rows at stride 1 with padding
    under the kernel, from the grouped columns otherwise; the tap loop is the
    oracle."""

    @settings(max_examples=150, deadline=None)
    @given(case=depthwise_cases(), seed=st.integers(0, 2**32 - 1))
    def test_matches_tap_loop_oracle(self, case, seed):
        spec, n, h, w, budget = case
        c = spec.in_channels
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, h, w))
        g = rng.normal(size=(n, c, *spec.out_size(h, w)))
        wt = Tensor(rng.normal(size=spec.weight_shape), requires_grad=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ops, "_DW_BLOCK_BYTES", budget)
            with GradTape() as tape:
                out = ops.conv2d(Tensor(x), wt, None, spec)
                loss = ops.sum_all(ops.mul(out, Tensor(g)))
            dw = backward(tape, loss).of(wt)
        want = depthwise_dw_loops(x, g, spec.kernel, spec.stride, spec.padding)
        assert rel_err(dw, want) <= 1e-12


def _spy_routes(monkeypatch):
    """Record, per conv routed to ``_group_cols`` or ``_banded_depthwise``,
    the route and whether the conv is depthwise."""
    seen = []

    def cols(x, spec, oh, ow):
        depthwise = spec.groups == spec.in_channels == spec.out_channels
        seen.append(("cols", depthwise))
        return real_cols(x, spec, oh, ow)

    def banded(*a):
        seen.append(("banded", True))
        return real_banded(*a)

    real_cols, real_banded = ops._group_cols, ops._banded_depthwise
    monkeypatch.setattr(ops, "_group_cols", cols)
    monkeypatch.setattr(ops, "_banded_depthwise", banded)
    return seen


class TestDepthwiseRoute:
    """The banded GEMMs run exactly the depthwise convs at stride 1 padded by
    less than the kernel; any other depthwise conv runs on the grouped
    columns. A stride-1 depthwise conv that fell off the banded path would
    pass every correctness test, only slower."""

    # The segnext-* presets are the same configs under a second name.
    @pytest.mark.parametrize("name", sorted(n for n in PRESETS if n.startswith("mscan-")))
    def test_model_sends_no_depthwise_conv_to_the_columns(self, name, monkeypatch):
        model = build_model(PRESETS[name], seed=0)
        seen = _spy_routes(monkeypatch)
        cost_report(model, 64, 64)
        assert ("banded", True) in seen
        assert ("cols", True) not in seen

    @pytest.mark.parametrize("ci,co,k,s,p,g,h,w", [
        r for r in DEPTHWISE
        if r[3] != (1, 1) or any(q >= kq for q, kq in zip(r[4] or (0, 0), r[2]))])
    def test_strided_and_over_padded_depthwise_run_on_the_columns(
            self, ci, co, k, s, p, g, h, w, monkeypatch):
        spec = ops.ConvSpec(co, ci, k, stride=s, padding=p, groups=g)
        x = np.random.default_rng(0).normal(size=(2, ci, h, w))
        wt = np.ones(spec.weight_shape)
        b = np.zeros((1, co, 1, 1))
        seen = _spy_routes(monkeypatch)
        _conv_and_grads(x, wt, b, spec)
        # The forward and the backward's dw each build the columns.
        assert seen == [("cols", True), ("cols", True)]


class TestConvValidation:
    def test_channel_mismatch(self):
        spec = ops.ConvSpec(4, 3, (3, 3))
        x = Tensor(np.zeros((1, 5, 8, 8)))
        w = Tensor(np.zeros(spec.weight_shape))
        with pytest.raises(ShapeError):
            ops.conv2d(x, w, None, spec)

    def test_weight_shape_mismatch(self):
        spec = ops.ConvSpec(4, 3, (3, 3))
        x = Tensor(np.zeros((1, 3, 8, 8)))
        w = Tensor(np.zeros((4, 3, 5, 5)))
        with pytest.raises(ShapeError):
            ops.conv2d(x, w, None, spec)

    def test_bias_presence_must_match_spec(self):
        spec = ops.ConvSpec(4, 3, (3, 3), bias=True)
        x = Tensor(np.zeros((1, 3, 8, 8)))
        w = Tensor(np.zeros(spec.weight_shape))
        with pytest.raises(ShapeError):
            ops.conv2d(x, w, None, spec)

    def test_separable_strip_pair_equals_full_kernel(self):
        # Outer-product kernels: (1,k) then (k,1) == k x k depthwise.
        rng = np.random.default_rng(7)
        c, k = 3, 11
        row = rng.normal(size=(c, 1, 1, k))
        col = rng.normal(size=(c, 1, k, 1))
        x = rng.normal(size=(1, c, 16, 16))
        spec_r = ops.ConvSpec(c, c, (1, k), groups=c, bias=False)
        spec_c = ops.ConvSpec(c, c, (k, 1), groups=c, bias=False)
        mid = ops.conv2d(Tensor(x), Tensor(row), None, spec_r)
        got = ops.conv2d(mid, Tensor(col), None, spec_c).data
        full = col.reshape(c, 1, k, 1) * row.reshape(c, 1, 1, k)
        spec_f = ops.ConvSpec(c, c, (k, k), groups=c, bias=False)
        want = ops.conv2d(Tensor(x), Tensor(full), None, spec_f).data
        assert rel_err(got, want) <= 1e-10


@st.composite
def grouped_cases(draw):
    """A grouped or dense conv: groups 1-4, rectangular kernels up to 5x3
    either way, strides 1-3, padding 0 to the kernel size, batch 1-3."""
    g, cg, og = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    kh, kw = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        kh, kw = kw, kh
    sh, sw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ph, pw = draw(st.integers(0, kh)), draw(st.integers(0, kw))
    h = draw(st.integers(max(1, kh - 2 * ph), max(1, kh - 2 * ph) + 5))
    w = draw(st.integers(max(1, kw - 2 * pw), max(1, kw - 2 * pw) + 5))
    n = draw(st.integers(1, 3))
    spec = ops.ConvSpec(g * og, g * cg, (kh, kw), (sh, sw), (ph, pw), groups=g)
    return spec, n, h, w


class TestGroupedConvColumns:
    """Grouped and dense convs run on channel-first columns, one GEMM per
    group; the forward is checked against the loop oracle, ``dx`` and ``dw``
    against finite differences of a float64 forward."""

    @settings(max_examples=60, deadline=None)
    @given(case=grouped_cases(), dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_loop_oracle_and_finite_differences(self, case, dtype, seed):
        spec, n, h, w = case
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, spec.in_channels, h, w))
        wt = rng.normal(size=spec.weight_shape)
        b = rng.normal(size=(1, spec.out_channels, 1, 1))
        g = rng.normal(size=(n, spec.out_channels, *spec.out_size(h, w)))
        xt, wtt, bt = (Tensor(a.astype(dtype), requires_grad=True) for a in (x, wt, b))
        with GradTape() as tape:
            out = ops.conv2d(xt, wtt, bt, spec)
            loss = ops.sum_all(ops.mul(out, Tensor(g.astype(dtype))))
        grads = backward(tape, loss)

        tol = 1e-12 if dtype == np.float64 else 1e-6
        want = conv2d_loops(x, wt, b, spec.stride, spec.padding, spec.groups)
        assert out.data.dtype == dtype and rel_err(out.data, want) <= tol

        def loss_of(which):
            def f(arr):
                y = ops.conv2d(Tensor(arr if which == "x" else x),
                               Tensor(arr if which == "w" else wt), Tensor(b), spec).data
                return float((y * g).sum())
            return f

        tol = 1e-8 if dtype == np.float64 else 1e-5
        for t, which, a in ((xt, "x", x), (wtt, "w", wt)):
            got = grads.of(t)
            assert got.dtype == dtype
            assert rel_err(got, fd_gradient(loss_of(which), a.copy())) < tol
