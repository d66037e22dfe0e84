"""Array-primitive checks against independent direct-loop oracles."""

import os

import numpy as np
import pytest

from revnet import tensor
from revnet.errors import ShapeError


def conv2d_loops(x, w, stride, pad):
    b, ci, h, wd = x.shape
    co, ci2, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((b, co, ho, wo), dtype=x.dtype)
    for n in range(b):
        for o in range(co):
            for i in range(ho):
                for j in range(wo):
                    s = 0.0
                    for c in range(ci):
                        for u in range(kh):
                            for v in range(kw):
                                s += xp[n, c, i * stride + u, j * stride + v] * w[o, c, u, v]
                    out[n, o, i, j] = s
    return out


def conv2d_transposed_loops(y, w, stride, pad):
    """Scatter form: each y[n, o, i, j] adds w[o, c, u, v] times itself at
    input pixel (i*stride + u - pad, j*stride + v - pad)."""
    b, co, ho, wo = y.shape
    _, ci, kh, kw = w.shape
    h = (ho - 1) * stride + kh - 2 * pad
    wd = (wo - 1) * stride + kw - 2 * pad
    out = np.zeros((b, ci, h, wd), dtype=y.dtype)
    for n in range(b):
        for o in range(co):
            for i in range(ho):
                for j in range(wo):
                    for c in range(ci):
                        for u in range(kh):
                            for v in range(kw):
                                r, q = i * stride + u - pad, j * stride + v - pad
                                if 0 <= r < h and 0 <= q < wd:
                                    out[n, c, r, q] += y[n, o, i, j] * w[o, c, u, v]
    return out


def conv2d_weight_grad_loops(x, g, kernel_shape, stride, pad):
    b, ci, h, wd = x.shape
    co, _, kh, kw = kernel_shape
    ho, wo = g.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros(kernel_shape, dtype=x.dtype)
    for o in range(co):
        for c in range(ci):
            for u in range(kh):
                for v in range(kw):
                    s = 0.0
                    for n in range(b):
                        for i in range(ho):
                            for j in range(wo):
                                s += g[n, o, i, j] * xp[n, c, i * stride + u, j * stride + v]
                    out[o, c, u, v] = s
    return out


GEOMETRIES = [(1, 0, 6, 6, 3), (1, 2, 6, 6, 5), (2, 1, 9, 7, 3), (1, 1, 5, 7, 3), (2, 2, 7, 7, 5)]
# 2*C_in >= C_out takes the stride-1 transposed conv through the flipped
# forward kernel, 1 -> 4 channels through col2im
CHANNELS = [(3, 4), (1, 4)]


@pytest.mark.parametrize("stride,pad,h,w,k", GEOMETRIES)
def test_conv2d_matches_direct_loops(stride, pad, h, w, k):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3, h, w))
    wts = rng.standard_normal((4, 3, k, k))
    got = tensor.conv2d(x, wts, stride, pad)
    want = conv2d_loops(x, wts, stride, pad)
    assert got.shape == want.shape
    assert np.allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("ci,co", CHANNELS)
@pytest.mark.parametrize("stride,pad,h,w,k", GEOMETRIES + [(1, 1, 6, 6, 1)])
def test_conv2d_transposed_matches_direct_loops(stride, pad, h, w, k, ci, co):
    rng = np.random.default_rng(8)
    ho, wo = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    y = rng.standard_normal((2, co, ho, wo))
    wts = rng.standard_normal((co, ci, k, k))
    got = tensor.conv2d_transposed(y, wts, stride, pad)
    want = conv2d_transposed_loops(y, wts, stride, pad)
    assert got.shape == want.shape == (2, ci, h, w)
    assert np.allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("ci,co", CHANNELS)
@pytest.mark.parametrize("stride,pad,h,w,k", GEOMETRIES)
def test_conv2d_weight_grad_matches_direct_loops(stride, pad, h, w, k, ci, co):
    rng = np.random.default_rng(9)
    ho, wo = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    x = rng.standard_normal((2, ci, h, w))
    g = rng.standard_normal((2, co, ho, wo))
    got = tensor.conv2d_weight_grad(x, g, (co, ci, k, k), stride, pad)
    want = conv2d_weight_grad_loops(x, g, (co, ci, k, k), stride, pad)
    assert got.shape == (co, ci, k, k)
    assert np.allclose(got, want, atol=1e-10)


def test_rectangular_kernel_matches_direct_loops():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 2, 7, 8))
    wts = rng.standard_normal((3, 2, 3, 5))
    y = tensor.conv2d(x, wts, 1, 2)
    g = rng.standard_normal(y.shape)
    assert np.allclose(y, conv2d_loops(x, wts, 1, 2), atol=1e-10)
    assert np.allclose(tensor.conv2d_transposed(g, wts, 1, 2),
                       conv2d_transposed_loops(g, wts, 1, 2), atol=1e-10)
    assert np.allclose(tensor.conv2d_weight_grad(x, g, wts.shape, 1, 2),
                       conv2d_weight_grad_loops(x, g, wts.shape, 1, 2), atol=1e-10)


@pytest.mark.parametrize("ci,co,h,stride,cap", [(3, 4, 6, 1, 25000), (1, 4, 7, 2, 2500)])
def test_batch_chunks_split_unevenly(monkeypatch, ci, co, h, stride, cap):
    # a batch of 5 under a column cap of 2-3 samples: the last chunk is short
    k, pad = 3, 1
    ho = (h + 2 * pad - k) // stride + 1
    assert 1 < cap // (ci * k * k * ho * ho * 8) < 5
    monkeypatch.setattr(tensor, "_COL_BYTES", cap)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((5, ci, h, h))
    wts = rng.standard_normal((co, ci, k, k))
    g = rng.standard_normal((5, co, ho, ho))
    assert np.allclose(tensor.conv2d(x, wts, stride, pad), conv2d_loops(x, wts, stride, pad), atol=1e-10)
    assert np.allclose(tensor.conv2d_transposed(g, wts, stride, pad),
                       conv2d_transposed_loops(g, wts, stride, pad), atol=1e-10)
    assert np.allclose(tensor.conv2d_weight_grad(x, g, wts.shape, stride, pad),
                       conv2d_weight_grad_loops(x, g, wts.shape, stride, pad), atol=1e-10)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ci,co,stride", [(3, 4, 1), (1, 4, 1), (3, 4, 2)])
def test_conv_kernels_keep_dtype(dtype, ci, co, stride):
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, ci, 7, 7)).astype(dtype)
    wts = rng.standard_normal((co, ci, 3, 3)).astype(dtype)
    y = tensor.conv2d(x, wts, stride, 1)
    assert y.dtype == dtype
    assert tensor.conv2d_transposed(y, wts, stride, 1).dtype == dtype
    assert tensor.conv2d_weight_grad(x, y, wts.shape, stride, 1).dtype == dtype


def test_set_threads_caps_the_loaded_blas(monkeypatch):
    before = tensor.blas_threads()
    if before is None:
        pytest.skip("no OpenBLAS found in this process")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, ""))
    try:
        assert tensor.set_threads(1) == 1
        assert tensor.blas_threads() == 1
        if (os.cpu_count() or 1) >= 2:
            monkeypatch.setenv("REVNET_THREADS", "2")
            assert tensor.set_threads() == 2
            assert tensor.blas_threads() == 2
    finally:
        tensor.set_threads(before)


def test_conv2d_rejects_non_divisible_stride():
    x = np.zeros((1, 1, 8, 8))
    w = np.zeros((1, 1, 3, 3))
    with pytest.raises(ShapeError):
        tensor.conv2d(x, w, stride=2, pad=0)


def test_conv2d_rejects_kernel_overflow():
    x = np.zeros((1, 1, 4, 4))
    w = np.zeros((1, 1, 7, 7))
    with pytest.raises(ShapeError):
        tensor.conv2d(x, w, stride=1, pad=0)


def test_conv2d_single_sample_rank3():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 6, 6))
    w = rng.standard_normal((3, 2, 3, 3))
    got = tensor.conv2d(x, w, 1, 1)
    want = tensor.conv2d(x[None], w, 1, 1)[0]
    assert got.shape == (3, 6, 6)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("case", range(50))
def test_transposed_conv_is_exact_adjoint(case):
    # inner-product identity <conv(x), y> == <x, convT(y)>
    rng = np.random.default_rng(100 + case)
    stride = int(rng.integers(1, 3))
    k = int(rng.choice([1, 3, 5]))
    pad = int(rng.integers(0, k // 2 + 1))
    ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    ho = int(rng.integers(2, 5))
    h = stride * (ho - 1) + k - 2 * pad
    if h < 1:
        pytest.skip("degenerate geometry")
    x = rng.standard_normal((2, ci, h, h))
    w = rng.standard_normal((co, ci, k, k))
    y = rng.standard_normal((2, co, ho, ho))
    lhs = np.sum(tensor.conv2d(x, w, stride, pad) * y)
    rhs = np.sum(x * tensor.conv2d_transposed(y, w, stride, pad))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_weight_grad_matches_finite_differences():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 2, 6, 6))
    w = rng.standard_normal((3, 2, 3, 3))
    r = rng.standard_normal((2, 3, 6, 6))
    got = tensor.conv2d_weight_grad(x, r, w.shape, 1, 1)
    h = 1e-6
    num = np.zeros_like(w)
    for idx in np.ndindex(w.shape):
        wp = w.copy(); wp[idx] += h
        wm = w.copy(); wm[idx] -= h
        num[idx] = (np.sum(tensor.conv2d(x, wp, 1, 1) * r)
                    - np.sum(tensor.conv2d(x, wm, 1, 1) * r)) / (2 * h)
    assert np.allclose(got, num, rtol=1e-4, atol=1e-6)


@pytest.mark.skipif(tensor.conv_backend() == "native", reason="torch not installed")
def test_backends_agree(monkeypatch):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float64)
    w = rng.standard_normal((4, 3, 5, 5)).astype(np.float64)
    y = rng.standard_normal((2, 4, 8, 8)).astype(np.float64)
    fast = (tensor.conv2d(x, w, 1, 2),
            tensor.conv2d_transposed(y, w, 1, 2),
            tensor.conv2d_weight_grad(x, y, w.shape, 1, 2))
    monkeypatch.setenv("REVNET_CONV_BACKEND", "native")
    slow = (tensor.conv2d(x, w, 1, 2),
            tensor.conv2d_transposed(y, w, 1, 2),
            tensor.conv2d_weight_grad(x, y, w.shape, 1, 2))
    for f, s in zip(fast, slow):
        assert np.allclose(f, s, atol=1e-10)


def test_gaussian_fill_deterministic_and_typed():
    a = tensor.gaussian_fill((3, 3), np.random.default_rng(42), 0.0, 1.0, tensor.SINGLE)
    b = tensor.gaussian_fill((3, 3), np.random.default_rng(42), 0.0, 1.0, tensor.SINGLE)
    assert a.dtype == np.float32
    assert np.array_equal(a, b)


def test_argmax_last():
    a = np.array([[0.1, 0.7, 0.2], [0.9, 0.05, 0.05]])
    assert np.array_equal(tensor.argmax_last(a), [1, 0])
