"""Weight init without scipy: the cephes ``ndtri`` port against
``scipy.special.ndtri``, and the chunked ``trunc_normal`` against the
one-shot scipy formula it replaced."""
import numpy as np
import pytest
from scipy import special

from segnext import initializers


def _scipy_trunc_normal(rng, shape, std=0.02, dtype=np.float32):
    """The scipy formula ``trunc_normal`` used before the port."""
    lo, hi = special.ndtr(-2.0), special.ndtr(2.0)
    u = rng.random(shape)
    return (special.ndtri(lo + u * (hi - lo)) * std).astype(dtype)


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_bounds_are_scipys_ndtr():
    assert initializers._TN_LO == special.ndtr(-2.0)
    assert initializers._TN_HI == special.ndtr(2.0)


def test_ndtri_matches_scipy_on_the_trunc_normal_range():
    lo, hi = initializers._TN_LO, initializers._TN_HI
    e2 = np.exp(-2.0)
    edges = np.array([lo, hi, 0.5, e2, 1.0 - e2])
    y = np.concatenate([np.random.default_rng(0).uniform(lo, hi, 1_000_000),
                        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    got, want = initializers._ndtri(y.copy(), np.empty((4, y.size))), special.ndtri(y)
    # The center rational has no transcendental in it: bit for bit.
    center = (y > initializers._EXP_M2) & (y <= 1.0 - initializers._EXP_M2)
    assert got[center].tobytes() == want[center].tobytes()
    # The tails go through log(y). Where np.log and the C library's log round
    # apart (about 1 draw in 20000), x = sqrt(-2 log y) in [2, 2.8] can move
    # by one ulp, which is two of the result's in [1, 2]; the rest of the
    # chain adds up to two more.
    assert _ulps(got, want).max() <= 4
    assert np.count_nonzero(got != want) < 1e-3 * y.size
    assert got[-10:].tobytes() == want[-10:].tobytes()


@pytest.mark.parametrize("size", ["1", "chunk-1", "chunk+1", "3chunk+5"])
def test_trunc_normal_float32_bitwise_equal_to_scipy_formula(size):
    chunk = initializers._TN_CHUNK
    n = {"1": 1, "chunk-1": chunk - 1, "chunk+1": chunk + 1, "3chunk+5": 3 * chunk + 5}[size]
    for shape in [(n,), (1, n, 1, 1)]:
        got = initializers.trunc_normal(np.random.default_rng(n), shape)
        want = _scipy_trunc_normal(np.random.default_rng(n), shape)
        assert got.dtype == np.float32 and got.shape == shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_trunc_normal_bitwise_independent_of_chunking(chunk, monkeypatch):
    shape = (64, 48, 1, 1)
    whole = initializers.trunc_normal(np.random.default_rng(3), shape, dtype=np.float64)
    monkeypatch.setattr(initializers, "_TN_CHUNK", chunk)
    got = initializers.trunc_normal(np.random.default_rng(3), shape, dtype=np.float64)
    assert got.tobytes() == whole.tobytes()


def test_trunc_normal_leaves_the_generator_where_the_one_shot_draw_did():
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    initializers.trunc_normal(a, (3 * initializers._TN_CHUNK + 5,))
    b.random(3 * initializers._TN_CHUNK + 5)
    assert a.random() == b.random()


def test_trunc_normal_float64_within_4_ulp_of_scipy_formula_and_inside_2_std():
    # float64 builds are test-only; their init may move by the tail's ulps.
    got = initializers.trunc_normal(np.random.default_rng(1), (200_000,), std=0.5,
                                    dtype=np.float64)
    want = _scipy_trunc_normal(np.random.default_rng(1), (200_000,), std=0.5,
                               dtype=np.float64)
    assert _ulps(got, want).max() <= 4
    assert np.abs(got).max() <= 1.0


def test_trunc_normal_empty_shape():
    out = initializers.trunc_normal(np.random.default_rng(0), (0, 4, 1, 1))
    assert out.shape == (0, 4, 1, 1) and out.dtype == np.float32
