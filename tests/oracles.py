"""Independent reference implementations the test suite trusts.

Everything here is written for clarity over speed: plain loops, explicit
index arithmetic, no shared code with the package under test.
"""
from __future__ import annotations

import numpy as np


def conv2d_loops(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None,
                 stride: tuple[int, int], padding: tuple[int, int],
                 groups: int) -> np.ndarray:
    """Six nested loops over an explicitly padded input, float64."""
    n, c_in, h, wdt = x.shape
    c_out, cg, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    assert c_in % groups == 0 and c_out % groups == 0
    assert cg == c_in // groups
    xp = np.zeros((n, c_in, h + 2 * ph, wdt + 2 * pw), dtype=np.float64)
    xp[:, :, ph:ph + h, pw:pw + wdt] = x
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wdt + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c_out, oh, ow), dtype=np.float64)
    og = c_out // groups
    for ni in range(n):
        for oc in range(c_out):
            g = oc // og
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ic in range(cg):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (
                                    xp[ni, g * cg + ic, oy * sh + ky, ox * sw + kx]
                                    * w[oc, ic, ky, kx]
                                )
                    out[ni, oc, oy, ox] = acc
            if bias is not None:
                out[ni, oc] += bias.reshape(-1)[oc]
    return out


def depthwise_dw_loops(x: np.ndarray, grad: np.ndarray, kernel: tuple[int, int],
                       stride: tuple[int, int], padding: tuple[int, int]) -> np.ndarray:
    """Depthwise weight gradient (C, 1, kh, kw), one channel and kernel tap at
    a time: tap (ky, kx) sums padded-x[n, c, oy*sh + ky, ox*sw + kx] times
    grad[n, c, oy, ox] over every n, oy and ox. float64."""
    n, c, h, wdt = x.shape
    _, _, oh, ow = grad.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    xp = np.zeros((n, c, h + 2 * ph, wdt + 2 * pw), dtype=np.float64)
    xp[:, :, ph:ph + h, pw:pw + wdt] = x
    oy = np.arange(oh)[:, None] * sh
    ox = np.arange(ow)[None, :] * sw
    dw = np.zeros((c, 1, kh, kw), dtype=np.float64)
    for ci in range(c):
        for ky in range(kh):
            for kx in range(kw):
                dw[ci, 0, ky, kx] = np.sum(xp[:, ci, oy + ky, ox + kx] * grad[:, ci])
    return dw


def batchnorm_loops(x, gamma, beta, eps):
    """Per-channel training-mode normalization, biased variance."""
    n, c, h, w = x.shape
    out = np.empty_like(x, dtype=np.float64)
    for ci in range(c):
        vals = x[:, ci].astype(np.float64)
        mu = vals.mean()
        var = vals.var()
        out[:, ci] = (vals - mu) / np.sqrt(var + eps)
        out[:, ci] = out[:, ci] * gamma.reshape(-1)[ci] + beta.reshape(-1)[ci]
    return out


def bilinear_loops(x: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """Pixel-center aligned bilinear resize, scalar loops."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, oh, ow), dtype=np.float64)
    for oy in range(oh):
        sy = min(max((oy + 0.5) * h / oh - 0.5, 0.0), h - 1.0)
        y0 = int(np.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for ox in range(ow):
            sx = min(max((ox + 0.5) * w / ow - 0.5, 0.0), w - 1.0)
            x0 = int(np.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            out[:, :, oy, ox] = (
                x[:, :, y0, x0] * (1 - fy) * (1 - fx)
                + x[:, :, y0, x1] * (1 - fy) * fx
                + x[:, :, y1, x0] * fy * (1 - fx)
                + x[:, :, y1, x1] * fy * fx
            )
    return out


def cross_entropy_loops(logits: np.ndarray, labels: np.ndarray,
                        ignore_index: int = 255) -> float:
    """Scalar-loop softmax cross-entropy with ignore label, float64."""
    n, k, h, w = logits.shape
    total = 0.0
    count = 0
    for ni in range(n):
        for y in range(h):
            for x in range(w):
                lab = int(labels[ni, y, x])
                if lab == ignore_index:
                    continue
                z = logits[ni, :, y, x].astype(np.float64)
                z = z - z.max()
                total += np.log(np.exp(z).sum()) - z[lab]
                count += 1
    assert count > 0
    return total / count


def cross_entropy_grad_loops(logits: np.ndarray, labels: np.ndarray,
                             ignore_index: int = 255) -> np.ndarray:
    """Gradient of ``cross_entropy_loops`` by scalar loops, float64: per
    counted pixel, (softmax - one-hot) / count; ignored pixels get zero."""
    n, k, h, w = logits.shape
    grad = np.zeros(logits.shape, dtype=np.float64)
    count = int((labels != ignore_index).sum())
    for ni in range(n):
        for y in range(h):
            for x in range(w):
                lab = int(labels[ni, y, x])
                if lab == ignore_index:
                    continue
                z = logits[ni, :, y, x].astype(np.float64)
                e = np.exp(z - z.max())
                for c in range(k):
                    grad[ni, c, y, x] = (e[c] / e.sum() - (c == lab)) / count
    return grad


def confusion_loops(preds, gts, num_classes: int, ignore_index: int = 255):
    """Per-pixel confusion matrix accumulation, rows = ground truth."""
    mat = np.zeros((num_classes, num_classes), dtype=np.int64)
    for p, g in zip(preds, gts):
        p = np.asarray(p).reshape(-1)
        g = np.asarray(g).reshape(-1)
        for pi, gi in zip(p, g):
            if gi == ignore_index:
                continue
            mat[int(gi), int(pi)] += 1
    return mat


def miou_from_confusion(mat: np.ndarray) -> tuple[np.ndarray, float]:
    k = mat.shape[0]
    ious = np.full(k, np.nan)
    for c in range(k):
        tp = mat[c, c]
        union = mat[c, :].sum() + mat[:, c].sum() - tp
        if union > 0:
            ious[c] = tp / union
    present = ~np.isnan(ious)
    mean = float(ious[present].mean()) if present.any() else 0.0
    return ious, mean


def adamw_scalar_oracle(p0: float, g: float, t_steps: int, lr: float,
                        beta1: float, beta2: float, eps: float,
                        wd: float, decay: bool) -> float:
    """Hand-stepped scalar AdamW with decoupled decay."""
    p, m, v = p0, 0.0, 0.0
    for t in range(1, t_steps + 1):
        if decay:
            p *= 1.0 - lr * wd
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        p -= lr * mhat / (np.sqrt(vhat) + eps)
    return p


def nmf_residuals_oracle(x: np.ndarray, w0: np.ndarray, h0: np.ndarray,
                         iters: int, eps: float):
    """Multiplicative updates, codes then bases, recording every half step."""
    w = w0.copy()
    h = h0.copy()
    res = [np.linalg.norm(x - w @ h)]
    for _ in range(iters):
        h = h * (w.T @ x) / ((w.T @ w) @ h + eps)
        res.append(np.linalg.norm(x - w @ h))
        w = w * (x @ h.T) / (w @ (h @ h.T) + eps)
        res.append(np.linalg.norm(x - w @ h))
    return w, h, res


def fd_gradient(f, x: np.ndarray, delta: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar-valued f at x, elementwise."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + delta
        hi = f(x)
        flat[i] = keep - delta
        lo = f(x)
        flat[i] = keep
        gf[i] = (hi - lo) / (2 * delta)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.abs(b).max(), 1e-30)
    return float(np.abs(a - b).max() / denom)
