"""Primitive tensor operations with reverse-mode gradients.

Every public function validates shapes eagerly, computes the forward result
with numpy, and registers an adjoint closure on the active gradient tape.
Convolutions use the cross-correlation convention (no kernel flip), zero
padding, and the floor output-size rule. Elementwise ops require identical
shapes; the only broadcasting anywhere is the explicit per-channel /
per-sample ``scale`` op.

Each op also charges its cost for one image, by ``CONVENTION`` from
``shape[1:]``, and the tensors it reads to the active ``tensor.CostSink``,
so a forward on an empty batch counts costs without any arithmetic. A
resize to the same size, concat, reshape and transpose are free; the
reductions and the loss, which no forward runs, are not counted.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import GraphError, ShapeError, Tensor, grad_relevant, record
from .tensor import charge as _charge

CONVENTION = (
    "mac=1 (bias folded in); bn/act/elementwise=1 per output element; "
    "bilinear resize=8 per output element; reshapes free"
)

# The label value that the loss and the metrics skip: crop padding, and the
# "void" pixels of 8-bit label files.
IGNORE_INDEX = 255


def _per_image(t: Tensor) -> int:
    _, c, h, w = t.shape
    return c * h * w


@dataclass(frozen=True)
class ConvSpec:
    """Static description of a 2-D convolution.

    ``padding`` defaults to (kh//2, kw//2), which preserves spatial size at
    stride 1 for odd kernels.
    """

    out_channels: int
    in_channels: int
    kernel: tuple[int, int]
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] | None = None
    groups: int = 1
    bias: bool = True

    def __post_init__(self):
        kh, kw = self.kernel
        if kh < 1 or kw < 1:
            raise ShapeError(f"kernel dims must be >= 1, got {self.kernel}")
        if self.stride[0] < 1 or self.stride[1] < 1:
            raise ShapeError(f"stride dims must be >= 1, got {self.stride}")
        if self.out_channels < 1 or self.in_channels < 1:
            raise ShapeError(
                f"channel counts must be >= 1, got in={self.in_channels} out={self.out_channels}"
            )
        if self.groups < 1:
            raise ShapeError(f"groups must be >= 1, got {self.groups}")
        if self.in_channels % self.groups:
            raise ShapeError(
                f"in_channels {self.in_channels} not divisible by groups {self.groups}"
            )
        if self.out_channels % self.groups:
            raise ShapeError(
                f"out_channels {self.out_channels} not divisible by groups {self.groups}"
            )
        if self.padding is None:
            object.__setattr__(self, "padding", (kh // 2, kw // 2))
        elif self.padding[0] < 0 or self.padding[1] < 0:
            raise ShapeError(f"padding must be >= 0, got {self.padding}")

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels // self.groups, *self.kernel)

    def out_size(self, h: int, w: int) -> tuple[int, int]:
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding  # type: ignore[misc]
        oh = (h + 2 * ph - kh) // sh + 1
        ow = (w + 2 * pw - kw) // sw + 1
        if oh < 1 or ow < 1:
            raise ShapeError(
                f"kernel {self.kernel} with padding {self.padding} does not fit input {h}x{w}"
            )
        return oh, ow


def _is_banded(spec: ConvSpec) -> bool:
    """A depthwise conv at stride 1, padded by less than its kernel: the
    only kind the model has, and the only kind the banded GEMMs run."""
    (kh, kw), (ph, pw) = spec.kernel, spec.padding
    return (spec.groups == spec.in_channels == spec.out_channels
            and spec.stride == (1, 1) and ph < kh and pw < kw)


def _is_pointwise(spec: ConvSpec) -> bool:
    return (spec.kernel == (1, 1) and spec.groups == 1 and spec.stride == (1, 1)
            and spec.padding == (0, 0))


# Bytes of one channel block's row matrix in ``_dw_rows``, which depthwise
# forward and weight gradient share. On a core with a 2 MB L2, a block's rows,
# its zero-padded channels and its output stay in cache. Only a block is ever
# padded, so no padded copy of a whole depthwise input is made.
_DW_BLOCK_BYTES = 1 << 20


class _Tiling(NamedTuple):
    """How depthwise rows cut the output into tiles."""

    kh: int
    kw: int
    oh: int
    t: int  # output columns per tile
    tiles: int
    span: int  # input columns a tile reads

    def band_index(self) -> tuple[slice, slice, np.ndarray, np.ndarray]:
        """Index of a (C, kh, span, t) array at the band: tap v of output
        column j of a tile meets input column j + v of the tile."""
        j = np.arange(self.t)
        return slice(None), slice(None), j + np.arange(self.kw)[:, None], j


def _tiling(kernel: tuple[int, int], oh: int, ow: int) -> _Tiling:
    kh, kw = kernel
    t = min(ow, max(16, 2 * kw))
    return _Tiling(kh, kw, oh, t, -(-ow // t), t - 1 + kw)


def _dw_rows(x: np.ndarray, pad: tuple[int, int], tl: _Tiling):
    """Yield ``(c0, c1, rows)`` for blocks of channels of ``x`` (N, C, H, W):
    ``rows`` (c1-c0, N, oh*tiles, kh*span) holds, for every output row and
    tile, the ``kh`` input rows of ``span`` columns that it reads.

    Each block is zero padded by ``pad`` into one reused buffer laid out
    (N, block, H + 2ph, t*(tiles-1) + span), wide enough for whole tiles: a
    last tile that overruns the input reads zeros. Its rows are copied into
    another reused buffer of about ``_DW_BLOCK_BYTES``.
    """
    n, c, h, w = x.shape
    ph, pw = pad
    kh, oh, t, tiles, span = tl.kh, tl.oh, tl.t, tl.tiles, tl.span
    cb = min(c, max(1, _DW_BLOCK_BYTES // max(1, n * oh * tiles * kh * span * x.itemsize)))
    padded = np.zeros((n, cb, h + 2 * ph, t * (tiles - 1) + span), x.dtype)
    buf = np.empty((cb, n, oh, tiles, kh, span), x.dtype)
    for c0 in range(0, c, cb):
        c1 = min(c0 + cb, c)
        xp = padded[:, : c1 - c0]
        xp[:, :, ph : ph + h, pw : pw + w] = x[:, c0:c1]
        bn, bc, bh, bw = xp.strides
        win = as_strided(xp, (n, c1 - c0, oh, tiles, kh, span),
                         (bn, bc, bh, bw * t, bh, bw), writeable=False)
        rows = buf[: c1 - c0]
        rows[...] = win.transpose(1, 0, 2, 3, 4, 5)
        yield c0, c1, rows.reshape(c1 - c0, n, oh * tiles, kh * span)


def _banded_depthwise(x: np.ndarray, wk: np.ndarray, pad: tuple[int, int],
                      oh: int, ow: int) -> np.ndarray:
    """Stride-1 depthwise cross-correlation of ``x`` (N, C, H, W), zero padded by
    ``pad``, with one kernel per channel, ``wk`` (C, kh, kw), as batched GEMMs.

    The output width is cut into tiles of ``t`` columns. A tile's outputs read
    ``span`` input columns from each of ``kh`` rows, and every tile shares one
    banded (Toeplitz) matrix per channel, band[c, u, j + v, j] = wk[c, u, v],
    so (rows of kh*span inputs) @ (kh*span, t) band gives the tile. The rows
    come from ``_dw_rows``, one block of channels at a time. A kernel taller
    than wide runs as the wide kernel on the transposed input, so the band
    lies along the long axis.
    """
    if wk.shape[1] > wk.shape[2]:
        out = _banded_depthwise(x.transpose(0, 1, 3, 2), wk.transpose(0, 2, 1),
                                pad[::-1], ow, oh)
        return out.transpose(0, 1, 3, 2)
    tl = _tiling(wk.shape[1:], oh, ow)
    n, c = x.shape[:2]
    out = np.empty((n, c, oh * tl.tiles, tl.t), dtype=x.dtype)
    band = None
    for c0, c1, rows in _dw_rows(x, pad, tl):
        if band is None:  # the first block is the largest; off the band stays 0
            band = np.zeros((c1 - c0, tl.kh, tl.span, tl.t), dtype=wk.dtype)
        b = band[: c1 - c0]
        b[tl.band_index()] = wk[c0:c1, ..., None]
        np.matmul(rows, b.reshape(c1 - c0, 1, -1, tl.t),
                  out=out[:, c0:c1].transpose(1, 0, 2, 3))
    return out.reshape(n, c, oh, tl.tiles * tl.t)[..., :ow]


def _depthwise_dw(x: np.ndarray, grad: np.ndarray, kernel: tuple[int, int],
                  pad: tuple[int, int]) -> np.ndarray:
    """Weight gradient (C, kh, kw) of ``_banded_depthwise`` from the same
    rows, in the same orientation: per channel, (kh*span, rows) @ (rows, t)
    output-gradient tiles, and each tap is the sum of its band diagonal.
    Every channel runs the same GEMM, so its bits do not depend on the block
    it falls in."""
    if kernel[0] > kernel[1]:
        dw = _depthwise_dw(x.transpose(0, 1, 3, 2), grad.transpose(0, 1, 3, 2),
                           kernel[::-1], pad[::-1])
        return dw.transpose(0, 2, 1)
    n, c, oh, ow = grad.shape
    tl = _tiling(kernel, oh, ow)
    dw = np.empty((c, *kernel), dtype=grad.dtype)
    for c0, c1, rows in _dw_rows(x, pad, tl):
        gt = np.zeros((c1 - c0, n, oh, tl.tiles * tl.t), grad.dtype)
        gt[..., :ow] = grad[:, c0:c1].transpose(1, 0, 2, 3)
        m = np.matmul(rows.reshape(c1 - c0, -1, rows.shape[3]).transpose(0, 2, 1),
                      gt.reshape(c1 - c0, -1, tl.t))
        # Fancy indexing lays its result out by the index shape; sum each
        # diagonal from a C-ordered copy, so the order does not depend on c1-c0.
        diag = m.reshape(c1 - c0, tl.kh, tl.span, tl.t)[tl.band_index()]
        dw[c0:c1] = np.ascontiguousarray(diag).sum(axis=-1)
    return dw


def _tap_slices(offset: int, step: int, count: int, size: int) -> tuple[slice, slice]:
    """Slices that pair items 0..count-1 of an output axis with positions
    offset + step*i of an input axis of ``size``: (input, output), dropping
    the items whose position falls outside, in the zero padding."""
    i0 = max(0, -(offset // step))
    i1 = max(i0, min(count, (size - 1 - offset) // step + 1))
    return slice(offset + step * i0, offset + step * i1, step), slice(i0, i1)


def _taps(spec: ConvSpec, h: int, w: int, oh: int, ow: int):
    """Yield ``(u, v, x_index, out_index)`` per kernel tap: the (rows,
    columns) of an (H, W) input that tap (u, v) reads, and of the (oh, ow)
    output pixels that read them; pixels whose tap falls in the padding are
    left out."""
    (kh, kw), (sh, sw), (ph, pw) = spec.kernel, spec.stride, spec.padding
    for u in range(kh):
        xr, orow = _tap_slices(u - ph, sh, oh, h)
        for v in range(kw):
            xc, ocol = _tap_slices(v - pw, sw, ow, w)
            yield u, v, (xr, xc), (orow, ocol)


def _group_cols(x: np.ndarray, spec: ConvSpec, oh: int, ow: int) -> np.ndarray:
    """Im2col columns (g, cg*kh*kw, n*oh*ow) of ``x`` (N, C, H, W), one
    matrix per group, channel first: row (c, u, v) holds what tap (u, v) of
    channel c reads at every output pixel. Each tap is one strided slab copy
    of the unpadded input; what falls in the padding stays zero."""
    n, c, h, w = x.shape
    kh, kw = spec.kernel
    cols = np.zeros((c, kh, kw, n, oh, ow), x.dtype)
    xt = x.transpose(1, 0, 2, 3)
    for u, v, (xr, xc), (orow, ocol) in _taps(spec, h, w, oh, ow):
        cols[:, u, v, :, orow, ocol] = xt[:, :, xr, xc]
    return cols.reshape(spec.groups, c // spec.groups * kh * kw, n * oh * ow)


def _conv_forward(x: np.ndarray, w: np.ndarray, spec: ConvSpec,
                  oh: int, ow: int) -> np.ndarray:
    n = x.shape[0]
    o = spec.out_channels
    g = spec.groups
    if _is_pointwise(spec):
        # One GEMM over channels.
        c = spec.in_channels
        out = np.matmul(w.reshape(o, c), x.reshape(n, c, oh * ow))
        return out.reshape(n, o, oh, ow)
    if _is_banded(spec):
        return _banded_depthwise(x, w[:, 0], spec.padding, oh, ow)
    # One GEMM per group: (g, og, cg*kh*kw) @ (g, cg*kh*kw, n*oh*ow).
    out = np.matmul(w.reshape(g, o // g, -1), _group_cols(x, spec, oh, ow))
    return np.ascontiguousarray(out.reshape(o, n, oh, ow).transpose(1, 0, 2, 3))


def _conv_backward(grad: np.ndarray, x: np.ndarray, w: np.ndarray, spec: ConvSpec,
                   need_x: bool):
    n, o, oh, ow = grad.shape
    c, h, w_ = x.shape[1:]
    g = spec.groups
    kh, kw = spec.kernel
    ph, pw = spec.padding  # type: ignore[misc]

    if _is_pointwise(spec):
        x2 = x.reshape(n, c, oh * ow)
        g2 = grad.reshape(n, o, oh * ow)
        dw = np.matmul(g2, x2.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        dx = None
        if need_x:
            dx = np.matmul(w.reshape(o, c).T, g2).reshape(n, c, oh, ow)
        return dx, dw

    if _is_banded(spec):
        dw = _depthwise_dw(x, grad, spec.kernel, (ph, pw)).reshape(w.shape)
        dx = None
        if need_x:
            # dx is the correlation of the flipped kernel with the output
            # gradient zero padded by (kh-1-ph, kw-1-pw), which the forward's
            # rows pad one block of channels at a time.
            wk = w[:, 0, ::-1, ::-1]  # (c, kh, kw), flipped
            dx = _banded_depthwise(grad, wk, (kh - 1 - ph, kw - 1 - pw), h, w_)
        return dx, dw

    # Grouped and dense, on the forward's columns: grad as (g, og, n*oh*ow).
    og = o // g
    go = np.ascontiguousarray(grad.reshape(n, o, oh * ow).transpose(1, 0, 2))
    go = go.reshape(g, og, n * oh * ow)
    dw = np.matmul(go, _group_cols(x, spec, oh, ow).transpose(0, 2, 1)).reshape(w.shape)
    dx = None
    if need_x:
        # Column gradients (c, kh, kw, n, oh, ow), added into dx one tap at a
        # time; what fell in the padding is dropped.
        dcols = np.matmul(w.reshape(g, og, -1).transpose(0, 2, 1), go)
        dcols = dcols.reshape(c, kh, kw, n, oh, ow)
        dx = np.zeros((n, c, h, w_), dtype=grad.dtype)
        dxt = dx.transpose(1, 0, 2, 3)
        for u, v, (xr, xc), (orow, ocol) in _taps(spec, h, w_, oh, ow):
            dxt[:, :, xr, xc] += dcols[:, u, v, :, orow, ocol]
    return dx, dw


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None, spec: ConvSpec) -> Tensor:
    """2-D grouped convolution (cross-correlation), zero padded, floor-sized."""
    n, c, h, w = x.shape
    if c != spec.in_channels:
        raise ShapeError(
            f"input channel dim is {c}, spec expects in_channels={spec.in_channels}"
        )
    if tuple(weight.shape) != spec.weight_shape:
        raise ShapeError(
            f"weight shape {tuple(weight.shape)} does not match spec {spec.weight_shape}"
        )
    if weight.dtype != x.dtype:
        raise TypeError(f"dtype mismatch: input {x.dtype} vs weight {weight.dtype}")
    if spec.bias:
        if bias is None:
            raise ShapeError("spec declares bias but none was given")
        if tuple(bias.shape) != (1, spec.out_channels, 1, 1):
            raise ShapeError(
                f"bias shape {tuple(bias.shape)} must be (1, {spec.out_channels}, 1, 1)"
            )
    elif bias is not None:
        raise ShapeError("spec declares no bias but one was given")

    oh, ow = spec.out_size(h, w)
    out_data = _conv_forward(x.data, weight.data, spec, oh, ow)
    if bias is not None:
        out_data += bias.data  # every conv path returns a fresh array
    out = Tensor(out_data)
    inputs = (x, weight) if bias is None else (x, weight, bias)
    _charge(inputs, _per_image(out) * (c // spec.groups) * spec.kernel[0] * spec.kernel[1])
    need_x = grad_relevant(x)  # skip input adjoints for graph leaves (e.g. images)

    def bwd(g: np.ndarray):
        dx, dw = _conv_backward(g, x.data, weight.data, spec, need_x)
        if bias is not None:
            db = g.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
            return dx, dw, db
        return dx, dw

    return record(out, inputs, bwd)


def batchnorm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float,
    training: bool,
    momentum: float,
) -> Tensor:
    """Per-channel batch normalization with affine transform.

    Training mode normalizes by batch statistics over the N, H, W axes and
    updates ``running_mean``/``running_var`` in place by exponential moving
    average (the running variance uses the unbiased estimator, the
    normalization the biased one). Eval mode normalizes by the running stats
    and, unlike training mode, accepts an empty batch.
    """
    n, c, h, w = x.shape
    for name, v, want in (
        ("gamma", gamma.shape, (1, c, 1, 1)),
        ("beta", beta.shape, (1, c, 1, 1)),
    ):
        if tuple(v) != want:
            raise ShapeError(f"{name} shape {tuple(v)} must be {want} for C={c}")
    if running_mean.shape != (c,) or running_var.shape != (c,):
        raise ShapeError(f"running stats must have shape ({c},)")
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    m = n * h * w
    if c * h * w == 0 or (training and n == 0):
        raise ShapeError(f"batchnorm needs channels, spatial extent and (in training) "
                         f"a non-empty batch, got shape {tuple(x.shape)}")
    _charge((x, gamma, beta), c * h * w)

    xd = x.data
    if training:
        mean = xd.mean(axis=(0, 2, 3))
        var = xd.var(axis=(0, 2, 3))
        unbiased = var * (m / (m - 1)) if m > 1 else var
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        mean = running_mean.astype(xd.dtype, copy=False)
        var = running_var.astype(xd.dtype, copy=False)
    inv = 1.0 / np.sqrt(var + eps)
    mean4 = mean.reshape(1, c, 1, 1)
    inv4 = inv.reshape(1, c, 1, 1).astype(xd.dtype, copy=False)
    out = Tensor(((xd - mean4) * inv4) * gamma.data + beta.data)

    def bwd(g: np.ndarray):
        # xhat is recomputed, not kept: the node already holds x.
        xhat = (xd - mean4) * inv4
        dgamma = (g * xhat).sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
        dbeta = g.sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
        if training:
            dx = (gamma.data * inv4 / m) * (m * g - dbeta - xhat * dgamma)
        else:
            dx = g * gamma.data * inv4
        return dx, dgamma, dbeta

    return record(out, (x, gamma, beta), bwd)


_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327

# Eigen's generic_fast_erf_float, erf(t) = t P(t^2) / Q(t^2) for |t| <= 4,
# rewritten for Phi(x) = 1/2 + x P'(x^2) / Q'(x^2) with |x| <= 4 sqrt(2):
# the k-th coefficient is divided by 2^k, and P' also carries the 1/(2 sqrt 2).
_PHI_CLAMP = np.float32(4.0 / _INV_SQRT2)
_PHI_NUM = tuple(np.float32(a * 0.5 * _INV_SQRT2 / 2.0**k) for k, a in enumerate((
    -1.60960333262415e-02, -2.95459980854025e-03, -7.34990630326855e-04,
    -5.69250639462346e-05, -2.10102402082508e-06, 2.77068142495902e-08,
    -2.72614225801306e-10)))
_PHI_DEN = tuple(np.float32(b / 2.0**k) for k, b in enumerate((
    -1.42647390514189e-02, -7.37332916720468e-03, -1.68282697438203e-03,
    -2.13374055278905e-04, -1.45660718464996e-05)))
# Elements per chunk: the 27 passes over one chunk's 128 KB buffers stay in
# cache. Unchunked, the same arithmetic ran 2.8x slower on a
# 256x128x128 tensor.
_PHI_CHUNK = 1 << 15


def _horner(s: np.ndarray, coeffs: tuple, out: np.ndarray) -> None:
    """``out = sum(coeffs[k] * s**k)``, in place."""
    np.multiply(s, coeffs[-1], out=out)
    for c in coeffs[-2:0:-1]:
        np.add(out, c, out=out)
        np.multiply(out, s, out=out)
    np.add(out, coeffs[0], out=out)


def _gelu_f32(x: np.ndarray, keep_phi: bool = True
              ) -> tuple[np.ndarray, np.ndarray | None]:
    """GELU of float32 ``x`` and its Phi(x), Phi within 3e-7 of the exact value.

    With ``keep_phi`` false, each chunk's Phi overwrites its numerator in
    scratch and None is returned in its place. Every step is elementwise IEEE
    arithmetic, so the result does not depend on where the chunks fall.
    """
    flat = np.ascontiguousarray(x).reshape(-1)
    out = np.empty_like(flat)
    z, s, p, q = (np.empty(min(_PHI_CHUNK, flat.size), np.float32) for _ in range(4))
    cdf = np.empty_like(flat) if keep_phi else None
    for lo in range(0, flat.size, _PHI_CHUNK):
        hi = min(lo + _PHI_CHUNK, flat.size)
        zc, sc, pc, qc = z[:hi - lo], s[:hi - lo], p[:hi - lo], q[:hi - lo]
        phi = cdf[lo:hi] if keep_phi else pc
        np.clip(flat[lo:hi], -_PHI_CLAMP, _PHI_CLAMP, out=zc)
        np.multiply(zc, zc, out=sc)
        _horner(sc, _PHI_NUM, pc)
        np.multiply(pc, zc, out=pc)
        _horner(sc, _PHI_DEN, qc)
        np.divide(pc, qc, out=phi)
        np.add(phi, np.float32(0.5), out=phi)
        np.clip(phi, 0, 1, out=phi)
        np.multiply(flat[lo:hi], phi, out=out[lo:hi])
    return out.reshape(x.shape), None if cdf is None else cdf.reshape(x.shape)


# Cephes' float64 erf, the one scipy.special.erf runs, with coefficients in
# cephes' order (highest power first; the denominators U and Q have an
# implicit leading 1):
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1, else 1 - exp(-x^2) P(x) / Q(x).
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)


def _cephes_rational(s: np.ndarray, x: np.ndarray, p: tuple, q: tuple,
                     out: np.ndarray | None = None, den: np.ndarray | None = None
                     ) -> np.ndarray:
    """cephes ``s * polevl(x, p) / p1evl(x, q)``, rounded as cephes rounds it,
    into ``out``; ``den`` is scratch. Neither may alias ``s`` or ``x``."""
    out = np.empty_like(x) if out is None else out
    den = np.empty_like(x) if den is None else den
    _horner(x, p[::-1], out)
    _horner(x, (*q[::-1], 1.0), den)
    np.multiply(s, out, out=out)
    return np.divide(out, den, out=out)


def _erf_f64(x: np.ndarray) -> np.ndarray:
    """Cephes' erf of float64 ``x``, within 4.5e-16 relative of ``math.erf``.

    Each branch runs on inputs clamped to its range, so neither overflows and
    ``np.where`` keeps the right one. cephes' erfc switches to a second
    rational above 8, where erf already rounds to +-1, so the clamp at 8
    replaces it and also maps +-inf to +-1.
    """
    xs = np.clip(x, -1.0, 1.0)
    central = _cephes_rational(xs, xs * xs, _ERF_T, _ERF_U)
    a = np.minimum(np.abs(x), 8.0)
    erfc = _cephes_rational(np.exp(-a * a), a, _ERFC_P, _ERFC_Q)
    return np.where(np.abs(x) <= 1.0, central, np.copysign(1.0 - erfc, x))


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU: x * Phi(x). float32 takes Phi from a rational erf,
    float64 from cephes' erf. float32 keeps Phi only when a tape will read
    it."""
    _charge((x,), _per_image(x))
    xd = x.data
    if xd.dtype == np.float32:
        y, cdf = _gelu_f32(xd, keep_phi=grad_relevant(x))
    else:
        cdf = 0.5 * (1.0 + _erf_f64(xd * _INV_SQRT2))
        y = xd * cdf
    out = Tensor(y)

    def bwd(g: np.ndarray):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT_2PI
        return (g * (cdf + xd * pdf),)

    return record(out, (x,), bwd)


def relu(x: Tensor) -> Tensor:
    _charge((x,), _per_image(x))
    out = Tensor(np.maximum(x.data, 0))

    def bwd(g: np.ndarray):
        return (g * (x.data > 0),)

    return record(out, (x,), bwd)


def _resize_matrix(out_n: int, in_n: int, dtype) -> np.ndarray:
    """(out_n, in_n) bilinear interpolation matrix for one resize axis.

    Row i holds the two blend weights of output sample i at its source
    indices, so a resize is ``R_h @ x @ R_w.T``.
    """
    src = (np.arange(out_n, dtype=np.float64) + 0.5) * (in_n / out_n) - 0.5
    src = np.clip(src, 0.0, in_n - 1)
    i0 = np.minimum(np.floor(src).astype(np.int64), in_n - 1)
    i1 = np.minimum(i0 + 1, in_n - 1)
    w1 = (src - i0).astype(dtype)
    w0 = (1.0 - w1).astype(dtype)
    r = np.zeros((out_n, in_n), dtype=dtype)
    rows = np.arange(out_n)
    np.add.at(r, (rows, i0), w0)
    np.add.at(r, (rows, i1), w1)
    return r


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear interpolation with pixel-center sampling."""
    n, c, h, w = x.shape
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"output size must be >= 1, got {out_h}x{out_w}")
    if h < 1 or w < 1 or c < 1:
        raise ShapeError(f"cannot resize zero-size input of shape {tuple(x.shape)}")
    if out_h == h and out_w == w:
        return x  # tensors are immutable, so the input serves as the output

    _charge((x,), 8 * c * out_h * out_w)
    # The separable linear map y = R_h x R_w^T.
    rh = _resize_matrix(out_h, h, x.dtype)
    rw = _resize_matrix(out_w, w, x.dtype)
    t = np.matmul(x.data.reshape(n * c * h, w), rw.T).reshape(n, c, h, out_w)
    out = Tensor(np.matmul(rh, t))

    def bwd(g: np.ndarray):
        t = np.matmul(g, rw)  # (n, c, out_h, w)
        dx = np.matmul(rh.T, t)  # (n, c, h, w)
        return (dx,)

    return record(out, (x,), bwd)


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if tuple(a.shape) != tuple(b.shape):
        raise ShapeError(
            f"{op} requires identical shapes, got {tuple(a.shape)} vs {tuple(b.shape)}"
        )


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    _charge((a, b), _per_image(a))
    out = Tensor(a.data + b.data)

    def bwd(g: np.ndarray):
        return g, g

    return record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    _charge((a, b), _per_image(a))
    out = Tensor(a.data * b.data)

    def bwd(g: np.ndarray):
        return g * b.data, g * a.data

    return record(out, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "div")
    _charge((a, b), _per_image(a))
    out = Tensor(a.data / b.data)

    def bwd(g: np.ndarray):
        ga = g / b.data
        return ga, -ga * out.data

    return record(out, (a, b), bwd)


def add_scalar(x: Tensor, value: float) -> Tensor:
    _charge((x,), _per_image(x))
    out = Tensor(x.data + x.dtype.type(value))

    def bwd(g: np.ndarray):
        return (g,)

    return record(out, (x,), bwd)


def scale(x: Tensor, s: Tensor) -> Tensor:
    """Multiply by a per-channel (1,C,1,1) or per-sample (N,1,1,1) factor.

    The deliberate exception to the no-broadcasting rule; the reduction in
    the adjoint mirrors the broadcast exactly.
    """
    n, c, _, _ = x.shape
    if tuple(s.shape) == (1, c, 1, 1):
        axes = (0, 2, 3)
    elif tuple(s.shape) == (n, 1, 1, 1):
        axes = (1, 2, 3)
    else:
        raise ShapeError(
            f"scale factor shape {tuple(s.shape)} must be (1,{c},1,1) or ({n},1,1,1)"
        )
    _charge((x, s), _per_image(x))
    out = Tensor(x.data * s.data)

    def bwd(g: np.ndarray):
        dx = g * s.data
        ds = (g * x.data).sum(axis=axes, keepdims=True)
        return dx, ds

    return record(out, (x, s), bwd)


def concat_channels(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_channels needs at least one tensor")
    n, _, h, w = parts[0].shape
    for p in parts[1:]:
        pn, _, ph, pw = p.shape
        if (pn, ph, pw) != (n, h, w):
            raise ShapeError(
                f"concat_channels operands disagree outside the channel dim: "
                f"{tuple(parts[0].shape)} vs {tuple(p.shape)}"
            )
    sizes = [p.shape[1] for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    bounds = np.cumsum([0] + sizes)

    def bwd(g: np.ndarray):
        return tuple(g[:, bounds[i] : bounds[i + 1]] for i in range(len(parts)))

    return record(out, tuple(parts), bwd)


def reshape(x: Tensor, shape: tuple[int, int, int, int]) -> Tensor:
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"cannot reshape {tuple(x.shape)} to {tuple(shape)}")
    out = Tensor(x.data.reshape(shape))

    def bwd(g: np.ndarray):
        return (g.reshape(x.shape),)

    return record(out, (x,), bwd)


def mat_transpose(x: Tensor) -> Tensor:
    """Swap the last two axes (matrix transpose with N, C as batch dims)."""
    out = Tensor(np.ascontiguousarray(x.data.transpose(0, 1, 3, 2)))

    def bwd(g: np.ndarray):
        return (np.ascontiguousarray(g.transpose(0, 1, 3, 2)),)

    return record(out, (x,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over the last two axes; leading dims must match."""
    an, ac, am, ak = a.shape
    bn, bc, bk, bp = b.shape
    if (an, ac) != (bn, bc):
        raise ShapeError(
            f"matmul batch dims differ: {(an, ac)} vs {(bn, bc)}"
        )
    if ak != bk:
        raise ShapeError(f"matmul inner dims differ: {ak} vs {bk}")
    _charge((a, b), ac * am * ak * bp)
    out = Tensor(np.matmul(a.data, b.data))

    def bwd(g: np.ndarray):
        da = np.matmul(g, b.data.transpose(0, 1, 3, 2))
        db = np.matmul(a.data.transpose(0, 1, 3, 2), g)
        return da, db

    return record(out, (a, b), bwd)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum(dtype=x.dtype).reshape(1, 1, 1, 1))

    def bwd(g: np.ndarray):
        return (np.full(x.shape, g.reshape(()), dtype=x.dtype),)

    return record(out, (x,), bwd)


def mean_all(x: Tensor) -> Tensor:
    inv = 1.0 / x.size
    out = Tensor((x.data.sum(dtype=x.dtype) * inv).reshape(1, 1, 1, 1))

    def bwd(g: np.ndarray):
        return (np.full(x.shape, g.reshape(()) * inv, dtype=x.dtype),)

    return record(out, (x,), bwd)


def _label_index(labels: np.ndarray, k: int):
    """Yield, image by image, the flat index into its (K, H, W) logits of
    each pixel's labelled logit. An ignored pixel indexes a class in range,
    whose term its mask then drops."""
    hw = labels[0].size
    pix = np.arange(hw)
    for lab in labels.reshape(len(labels), hw):
        idx = lab.astype(np.intp)
        np.minimum(idx, k - 1, out=idx)
        idx *= hw
        idx += pix
        yield idx


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean pixel cross-entropy with an ignore label, fused with softmax.

    ``labels`` is an integer (N, H, W) array; entries equal to
    ``IGNORE_INDEX`` contribute neither loss nor gradient. The backward
    reads ``labels`` again, so it must not change in between.
    """
    n, k, h, w = logits.shape
    if labels.shape != (n, h, w):
        raise ShapeError(
            f"labels shape {labels.shape} must be {(n, h, w)} for logits {tuple(logits.shape)}"
        )
    if not np.issubdtype(labels.dtype, np.integer):
        raise TypeError(f"labels must be integers, got {labels.dtype}")
    valid = labels != IGNORE_INDEX
    m = int(valid.sum())
    if m == 0:
        raise ValueError("cross-entropy undefined: every pixel carries the ignore label")
    bad = ((labels < 0) | (labels >= k)) & valid
    if bad.any():
        raise ValueError(
            f"label {int(labels[bad][0])} outside [0, {k}) and not the ignore index"
        )

    # One logits-sized array: the shifted logits, exponentiated in place and
    # kept, with their sums, for the backward.
    z = logits.data
    ez = z - z.max(axis=1, keepdims=True)
    picked = np.empty((n, h, w), z.dtype)  # the labelled shifted logit
    for i, idx in enumerate(_label_index(labels, k)):
        np.take(ez[i].reshape(-1), idx, out=picked[i].reshape(-1))
    np.exp(ez, out=ez)
    denom = ez.sum(axis=1)
    picked -= np.log(denom)
    picked *= valid
    loss_val = -picked.sum(dtype=z.dtype) / z.dtype.type(m)
    out = Tensor(np.asarray(loss_val, dtype=z.dtype).reshape(1, 1, 1, 1))

    def bwd(g: np.ndarray):
        # Normalize, subtract the one-hot and scale in the saved array: the
        # tape runs this once.
        dz = np.divide(ez, denom[:, None], out=ez)
        for i, idx in enumerate(_label_index(labels, k)):
            dz[i].reshape(-1)[idx] -= 1.0
        dz *= (labels != IGNORE_INDEX)[:, None]
        dz *= g.reshape(()) / m
        return (dz,)

    return record(out, (logits,), bwd)
