"""Seeded weight initialization helpers.

All draws go through an explicit ``numpy.random.Generator`` so that two
builds from the same seed are bitwise identical.
"""
from __future__ import annotations

import numpy as np

from .ops import _cephes_rational

# Phi(-2) and Phi(2) as scipy.special.ndtr gives them; 0.5 * erfc(sqrt 2)
# lands 3.5e-18 away, so they are literals.
_TN_LO = 0.022750131948179195
_TN_HI = 0.9772498680518208
# Draws per chunk: the chain's passes over one 256 KB chunk stay in cache.
_TN_CHUNK = 1 << 15

# Cephes' ndtri, the one scipy.special.ndtri runs, with coefficients in
# cephes' order (highest power first; the denominators Q0 and Q1 have an
# implicit leading 1). P0/Q0 cover exp(-2) < y <= 1 - exp(-2); P1/Q1 the
# tails down to exp(-32).
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
             1.39312609387279679503E1, -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
             -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
             4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
             1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)


def _ndtri(y: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of 1-D float64 ``y`` in (exp(-32), 1 - exp(-32)),
    in place: ``y`` is overwritten with the result and returned.

    Cephes' algorithm, which covers ``trunc_normal``'s range with two
    rationals: one in (y - 1/2)^2 on the center, and one in 1/x with
    x = sqrt(-2 log y) on the tails, the upper tail folded onto the lower.
    The center one runs on every lane, in the four rows of ``work`` (float64,
    at least ``y.size`` wide); the tail one only on the tail lanes, about a
    quarter of ``trunc_normal``'s draws. Where ``np.log`` rounds differently
    from the C library's ``log``, a tail value moves by a few ulp from
    scipy's; the float32 weights do not.
    """
    c, s, num, den = work[:, :y.size]
    tail = np.flatnonzero((y <= _EXP_M2) | (y > 1.0 - _EXP_M2))
    yt = y.take(tail)
    np.subtract(y, 0.5, out=c)
    np.multiply(c, c, out=s)
    _cephes_rational(s, s, _NDTRI_P0, _NDTRI_Q0, num, den)
    np.multiply(num, c, out=num)
    np.add(c, num, out=num)
    np.multiply(num, _SQRT_2PI, out=y)
    # On a tail lane, min(y, 1 - y) is cephes' folded y, and the sign of
    # y - 1/2 says which tail it came from.
    x = np.sqrt(-2.0 * np.log(np.minimum(yt, 1.0 - yt)))
    z = 1.0 / x
    y.put(tail, np.copysign((x - np.log(x) / x) - _cephes_rational(z, z, _NDTRI_P1, _NDTRI_Q1),
                            yt - 0.5))
    return y


def trunc_normal(rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.02,
                 dtype=np.float32) -> np.ndarray:
    """Normal(0, std) truncated to +-2 std, via inverse-CDF sampling.

    Draws, maps and casts one chunk at a time in reused buffers; the chunked
    draws are the same stream as one ``rng.random(shape)``.
    """
    out = np.empty(shape, dtype)
    flat = out.reshape(-1)
    n = min(_TN_CHUNK, flat.size)
    u, work = np.empty(n), np.empty((4, n))
    for lo in range(0, flat.size, _TN_CHUNK):
        chunk = flat[lo:lo + _TN_CHUNK]
        uc = u[:chunk.size]
        rng.random(out=uc)
        uc *= _TN_HI - _TN_LO
        uc += _TN_LO
        _ndtri(uc, work)
        uc *= std
        chunk[...] = uc
    return out


def fan_out_normal(rng: np.random.Generator, shape: tuple[int, int, int, int],
                   groups: int = 1, dtype=np.float32) -> np.ndarray:
    """He-style init for dense convolutions: std = sqrt(2 / fan_out).

    ``shape`` is (out_channels, in_channels/groups, kh, kw); fan_out counts
    the output elements each weight touches, divided across groups.
    """
    o, _, kh, kw = shape
    fan_out = kh * kw * o // groups
    std = float(np.sqrt(2.0 / fan_out))
    return (rng.standard_normal(shape) * std).astype(dtype)
