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

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import special

from .tensor import GraphError, ShapeError, Tensor, grad_relevant, record
from .tensor import charge as _charge

CONVENTION = (
    "mac=1 (bias folded in); bn/act/elementwise=1 per output element; "
    "bilinear resize=8 per output element; reshapes free"
)


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


def _patches(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int,
             oh: int, ow: int) -> np.ndarray:
    """Zero-copy sliding-window view (N, C, oh, ow, kh, kw) of a padded input."""
    n, c, _, _ = xp.shape
    bn, bc, bh, bw = xp.strides
    return as_strided(
        xp, (n, c, oh, ow, kh, kw), (bn, bc, bh * sh, bw * sw, bh, bw), writeable=False
    )


def _is_depthwise(spec: ConvSpec) -> bool:
    return spec.groups == spec.in_channels == spec.out_channels


def _is_pointwise(spec: ConvSpec) -> bool:
    return spec.kernel == (1, 1) and spec.groups == 1 and spec.stride == (1, 1)


# Bytes of one channel block's row matrix in ``_banded_depthwise``. L2 is
# 2 MB per core here, so a block's rows and its output stay in cache.
_DW_BLOCK_BYTES = 1 << 20


def _banded_depthwise(xp: np.ndarray, wk: np.ndarray, stride: tuple[int, int],
                      oh: int, ow: int) -> np.ndarray:
    """Depthwise cross-correlation of a padded input (N, C, H, W) with one
    kernel per channel, ``wk`` (C, kh, kw), as batched GEMMs.

    The output width is cut into tiles of ``t`` columns. A tile's outputs read
    ``span`` input columns from each of ``kh`` rows, and every tile shares one
    banded (Toeplitz) matrix per channel, band[c, u, sw*j + v, j] = wk[c, u, v],
    so (rows of kh*span inputs) @ (kh*span, t) band gives the tile. Kernels
    taller than wide run on the transposed input, so the band lies along the
    long axis.

    Unless the input already is that row matrix, the rows are copied one
    block of channels at a time into one reused buffer of about
    ``_DW_BLOCK_BYTES``. A last tile that overruns the input reads only the
    columns that exist; the rest of its rows stay zero.
    """
    kh, kw = wk.shape[1:]
    if kh > kw:
        out = _banded_depthwise(xp.transpose(0, 1, 3, 2), wk.transpose(0, 2, 1),
                                stride[::-1], ow, oh)
        return out.transpose(0, 1, 3, 2)
    n, c, _, wp = xp.shape
    sh, sw = stride
    t = min(ow, max(16, 2 * kw))
    tiles = -(-ow // t)
    span = sw * (t - 1) + kw
    # Only the last tile can overrun the input: it starts at column `last`.
    last = sw * t * (tiles - 1)
    full = tiles if last + span <= wp else tiles - 1
    bn, bc, bh, bw = xp.strides
    win = as_strided(xp, (n, c, oh, full, kh, span),
                     (bn, bc, bh * sh, bw * sw * t, bh, bw), writeable=False)
    edge = as_strided(xp[..., last:], (n, c, oh, kh, wp - last),
                      (bn, bc, bh * sh, bh, bw), writeable=False)
    band = np.zeros((c, kh, span, t), dtype=wk.dtype)
    j = np.arange(t)
    band[:, :, sw * j + np.arange(kw)[:, None], j] = wk[..., None]
    band = band.reshape(c, kh * span, t)
    if full == tiles and (kh == 1 or bh == bw * span) and (
            tiles == 1 or oh == 1 or bh * sh == bw * sw * t * tiles):
        # The window merges into a (strided) row matrix without a copy, by
        # numpy's reshape rule: a single tile of a strip, say. The GEMM reads
        # it where it lies; a copy would change the BLAS call, and the bits.
        rows = win.reshape(n, c, oh * tiles, kh * span)
        return np.matmul(rows, band).reshape(n, c, oh, tiles * t)[..., :ow]

    cb = min(c, max(1, _DW_BLOCK_BYTES // max(1, n * oh * tiles * kh * span * xp.itemsize)))
    buf = (np.empty if full == tiles else np.zeros)((n, cb, oh, tiles, kh, span), xp.dtype)
    out = np.empty((n, c, oh * tiles, t), dtype=xp.dtype)
    for c0 in range(0, c, cb):
        c1 = min(c0 + cb, c)
        rows = buf[:, : c1 - c0]
        rows[:, :, :, :full] = win[:, c0:c1]
        if full < tiles:
            rows[:, :, :, full, :, : wp - last] = edge[:, c0:c1]
        np.matmul(rows.reshape(n, c1 - c0, oh * tiles, kh * span), band[c0:c1],
                  out=out[:, c0:c1])
    return out.reshape(n, c, oh, tiles * t)[..., :ow]


def _conv_forward(xp: np.ndarray, w: np.ndarray, spec: ConvSpec,
                  oh: int, ow: int) -> np.ndarray:
    n = xp.shape[0]
    o = spec.out_channels
    g = spec.groups
    kh, kw = spec.kernel
    sh, sw = spec.stride
    if _is_pointwise(spec):
        # One GEMM over channels.
        c = spec.in_channels
        out = np.matmul(w.reshape(o, c), xp.reshape(n, c, oh * ow))
        return out.reshape(n, o, oh, ow)
    if _is_depthwise(spec):
        return _banded_depthwise(xp, w[:, 0], spec.stride, oh, ow)
    pv = _patches(xp, kh, kw, sh, sw, oh, ow)
    cg = spec.in_channels // g
    og = o // g
    # Batched GEMM per group: (g, n*oh*ow, cg*kh*kw) @ (g, cg*kh*kw, og).
    cols = (
        pv.reshape(n, g, cg, oh, ow, kh, kw)
        .transpose(1, 0, 3, 4, 2, 5, 6)
        .reshape(g, n * oh * ow, cg * kh * kw)
    )
    wg = w.reshape(g, og, cg * kh * kw).transpose(0, 2, 1)
    out = np.matmul(cols, wg)  # (g, n*oh*ow, og)
    return (
        out.reshape(g, n, oh, ow, og).transpose(1, 0, 4, 2, 3).reshape(n, o, oh, ow)
    )


def _scatter_cols(dcols: np.ndarray, xp_shape: tuple[int, ...], spec: ConvSpec,
                  oh: int, ow: int) -> np.ndarray:
    """Accumulate (n, c, oh, ow, kh, kw) column gradients into padded-input space."""
    kh, kw = spec.kernel
    sh, sw = spec.stride
    dxp = np.zeros(xp_shape, dtype=dcols.dtype)
    for u in range(kh):
        for v in range(kw):
            dxp[:, :, u : u + sh * oh : sh, v : v + sw * ow : sw] += dcols[..., u, v]
    return dxp


def _frame_slices(offset: int, step: int, count: int, size: int) -> tuple[slice, slice]:
    """Destination and source slices that put items 0..count-1 at
    offset + step*i of an axis of ``size``, dropping those that fall outside."""
    i0 = max(0, -(offset // step))
    i1 = max(i0, min(count, (size - 1 - offset) // step + 1))
    return slice(offset + step * i0, offset + step * i1, step), slice(i0, i1)


def _conv_backward(grad: np.ndarray, xp: np.ndarray, w: np.ndarray, spec: ConvSpec,
                   pad: tuple[int, int], in_hw: tuple[int, int],
                   need_x: bool):
    n, o, oh, ow = grad.shape
    g = spec.groups
    kh, kw = spec.kernel
    sh, sw = spec.stride
    cg = spec.in_channels // g
    og = o // g
    ph, pw = pad
    h, w_ = in_hw

    if _is_pointwise(spec):
        c = spec.in_channels
        x2 = xp.reshape(n, c, oh * ow)
        g2 = grad.reshape(n, o, oh * ow)
        dw = np.matmul(g2, x2.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        dx = None
        if need_x:
            dx = np.matmul(w.reshape(o, c).T, g2).reshape(n, c, oh, ow)
        return dx, dw

    if _is_depthwise(spec):
        wk = w[:, 0]  # (c, kh, kw)
        # One contraction per kernel tap over the strided input slice the
        # tap's weight multiplied in the forward.
        dw = np.empty_like(wk)
        for u in range(kh):
            for v in range(kw):
                tap = (..., slice(u, u + sh * oh, sh), slice(v, v + sw * ow, sw))
                dw[:, u, v] = np.einsum("nchw,nchw->c", xp[tap], grad)
        dw = dw.reshape(w.shape)
        dx = None
        if need_x:
            # dx is the stride-1 correlation of the flipped kernel with the
            # output gradient, dilated by the stride and placed so that
            # grad[i, j] sits at (kh-1-ph + sh*i, kw-1-pw + sw*j) of a zero
            # frame one kernel larger than the input.
            fh, fw = h + kh - 1, w_ + kw - 1
            fr, gr = _frame_slices(kh - 1 - ph, sh, oh, fh)
            fc, gc = _frame_slices(kw - 1 - pw, sw, ow, fw)
            frame = np.zeros((n, o, fh, fw), dtype=grad.dtype)
            frame[:, :, fr, fc] = grad[:, :, gr, gc]
            dx = _banded_depthwise(frame, wk[:, ::-1, ::-1], (1, 1), h, w_)
        return dx, dw

    # General grouped path, mirroring the forward's column layout.
    go = grad.reshape(n, g, og, oh, ow).transpose(1, 0, 3, 4, 2).reshape(g, n * oh * ow, og)
    pv = _patches(xp, kh, kw, sh, sw, oh, ow)
    cols = (
        pv.reshape(n, g, cg, oh, ow, kh, kw)
        .transpose(1, 0, 3, 4, 2, 5, 6)
        .reshape(g, n * oh * ow, cg * kh * kw)
    )
    dwg = np.matmul(cols.transpose(0, 2, 1), go)  # (g, cg*kh*kw, og)
    dw = dwg.reshape(g, cg, kh, kw, og).transpose(0, 4, 1, 2, 3).reshape(w.shape)
    dx = None
    if need_x:
        wg = w.reshape(g, og, cg * kh * kw)
        dcols = np.matmul(go, wg)  # (g, n*oh*ow, cg*kh*kw)
        dcols = (
            dcols.reshape(g, n, oh, ow, cg, kh, kw)
            .transpose(1, 0, 4, 2, 3, 5, 6)
            .reshape(n, g * cg, oh, ow, kh, kw)
        )
        dxp = _scatter_cols(dcols, xp.shape, spec, oh, ow)
        dx = dxp[:, :, ph : ph + h, pw : pw + w_]
    return dx, dw


def _padded(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """``x`` zero padded by ``ph`` rows and ``pw`` columns on each side."""
    return np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else x


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
    ph, pw = spec.padding  # type: ignore[misc]
    out_data = _conv_forward(_padded(x.data, ph, pw), weight.data, spec, oh, ow)
    if bias is not None:
        out_data += bias.data  # every conv path returns a fresh array
    out = Tensor(out_data)
    inputs = (x, weight) if bias is None else (x, weight, bias)
    _charge(inputs, _per_image(out) * (c // spec.groups) * spec.kernel[0] * spec.kernel[1])
    need_x = grad_relevant(x)  # skip input adjoints for graph leaves (e.g. images)

    def bwd(g: np.ndarray):
        # The padded input is rebuilt, not kept: the node already holds x.
        xp = _padded(x.data, ph, pw)
        dx, dw = _conv_backward(g, xp, weight.data, spec, (ph, pw), (h, w), need_x)
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


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU: x * Phi(x). float32 takes Phi from a rational erf,
    float64 from ``scipy.special.erf``. float32 keeps Phi only when a tape
    will read it."""
    _charge((x,), _per_image(x))
    xd = x.data
    if xd.dtype == np.float32:
        y, cdf = _gelu_f32(xd, keep_phi=grad_relevant(x))
    else:
        cdf = 0.5 * (1.0 + special.erf(xd * _INV_SQRT2))
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
        out = Tensor(x.data)

        def bwd_id(g: np.ndarray):
            return (g,)

        return record(out, (x,), bwd_id)

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


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray, ignore_index: int = 255) -> Tensor:
    """Mean pixel cross-entropy with an ignore label, fused with softmax.

    ``labels`` is an integer (N, H, W) array; entries equal to
    ``ignore_index`` contribute neither loss nor gradient.
    """
    n, k, h, w = logits.shape
    if labels.shape != (n, h, w):
        raise ShapeError(
            f"labels shape {labels.shape} must be {(n, h, w)} for logits {tuple(logits.shape)}"
        )
    if not np.issubdtype(labels.dtype, np.integer):
        raise TypeError(f"labels must be integers, got {labels.dtype}")
    valid = labels != ignore_index
    m = int(valid.sum())
    if m == 0:
        raise ValueError("cross-entropy undefined: every pixel carries the ignore label")
    bad = ((labels < 0) | (labels >= k)) & valid
    if bad.any():
        raise ValueError(
            f"label {int(labels[bad][0])} outside [0, {k}) and not the ignore index"
        )

    z = logits.data
    zs = z - z.max(axis=1, keepdims=True)
    ez = np.exp(zs)
    denom = ez.sum(axis=1, keepdims=True)
    safe = np.where(valid, labels, 0).astype(np.int64)[:, None, :, :]
    picked = np.take_along_axis(zs - np.log(denom), safe, axis=1)[:, 0]
    loss_val = -(picked * valid).sum(dtype=z.dtype) / z.dtype.type(m)
    out = Tensor(np.asarray(loss_val, dtype=z.dtype).reshape(1, 1, 1, 1))

    def bwd(g: np.ndarray):
        gs = g.reshape(())
        dz = ez / denom
        np.put_along_axis(dz, safe, np.take_along_axis(dz, safe, axis=1) - 1.0, axis=1)
        dz *= valid[:, None, :, :]
        return (dz * (gs / m),)

    return record(out, (logits,), bwd)
