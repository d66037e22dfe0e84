"""Array-primitive checks against independent direct-loop oracles."""

import itertools
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from revnet import tensor
from revnet.errors import ShapeError
from revnet.layers import _box_sum


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


def conv2d_transposed_by_offset(y, w, stride, pad):
    """conv2d_transposed_loops with the loops over samples, channels and
    pixels done by one einsum per kernel offset, for shapes too large for
    the full loops."""
    b, co, ho, wo = y.shape
    _, ci, kh, kw = w.shape
    h = (ho - 1) * stride + kh - 2 * pad
    wd = (wo - 1) * stride + kw - 2 * pad
    canvas = np.zeros((b, ci, h + 2 * pad, wd + 2 * pad), dtype=y.dtype)
    for u in range(kh):
        for v in range(kw):
            canvas[:, :, u : u + (ho - 1) * stride + 1 : stride, v : v + (wo - 1) * stride + 1 : stride] += \
                np.einsum("noij,oc->ncij", y, w[:, :, u, v])
    return canvas[:, :, pad : pad + h, pad : pad + wd]


def transposed_path(monkeypatch, y, w, stride, pad):
    """conv2d_transposed(y, w, stride, pad) and the path it took."""
    taken = ["col2im"]
    subpixel = tensor._conv2d_transposed_subpixel

    def spy(*args):
        taken[0] = "subpixel"
        return subpixel(*args)

    with monkeypatch.context() as m:
        m.setattr(tensor, "_conv2d_transposed_subpixel", spy)
        return tensor.conv2d_transposed(y, w, stride, pad), taken[0]


def conv_lowerings(monkeypatch, fn, *args):
    """fn(*args) and the forms of _shifted's copy its conv kernels lowered
    through, in call order: "im2col" for the full form (kH kernel rows per
    GEMM, and col2im's), "rows" for the rows form (one)."""
    taken, shifted = [], tensor._shifted
    with monkeypatch.context() as m:
        def spy(*a):
            taken.append("im2col" if a[-1] else "rows")
            return shifted(*a)
        m.setattr(tensor, "_shifted", spy)
        return fn(*args), taken


GEOMETRIES = [(1, 0, 6, 6, 3), (1, 2, 6, 6, 5), (2, 1, 9, 7, 3), (1, 1, 5, 7, 3), (2, 2, 7, 7, 5)]
# the transposed conv takes the sub-pixel path at every stride > 1 and at
# stride 1 where 2*C_in >= C_out, else col2im; PATHS holds the path of each
# pair at strides 1 and 2
CHANNELS = [(3, 4), (1, 4), (1, 16), (6, 8)]
PATHS = {(3, 4): ("subpixel", "subpixel"), (1, 4): ("col2im", "subpixel"), (1, 16): ("col2im", "subpixel"),
         (6, 8): ("subpixel", "subpixel")}
# _conv2d and conv2d_weight_grad lower by kernel rows where C_in*kW >= 16,
# else by the full im2col; LOWERINGS holds the lowering of each pair at the
# 3x3 and 5x5 kernels of GEOMETRIES, (6, 8) the only one on the row path
LOWERINGS = {(3, 4): "im2col", (1, 4): "im2col", (1, 16): "im2col", (6, 8): "rows"}


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
def test_conv2d_lowering_by_channels(monkeypatch, stride, pad, h, w, k, ci, co):
    rng = np.random.default_rng(23)
    x = rng.standard_normal((2, ci, h, w))
    wts = rng.standard_normal((co, ci, k, k))
    got, taken = conv_lowerings(monkeypatch, tensor.conv2d, x, wts, stride, pad)
    assert taken == [LOWERINGS[ci, co]]
    assert np.allclose(got, conv2d_loops(x, wts, stride, pad), atol=1e-10)


# every pad that leaves a non-empty 3x4 output (forward) or input
# (transposed) map at strides 1-3 and kernels 3-6; the pairs sit on both
# sides of the row path's C_in*kW >= 16 in the forward conv and in the
# sub-pixel path's phase conv (C_out*ceil(k/s) input terms per row),
# (4, 6) at k = 4 and (6, 8) at s = 2, k <= 4 on it exactly
SWEEP = [(s, k, p) for s in (1, 2, 3) for k in (3, 4, 5, 6) for p in range((2 * s + k + 1) // 2)]


@pytest.mark.parametrize("ci,co", [(4, 6), (6, 8)])
@pytest.mark.parametrize("stride,k,pad", SWEEP)
def test_row_lowering_matches_direct_loops(monkeypatch, stride, k, pad, ci, co):
    rng = np.random.default_rng(24)
    h, w = 2 * stride + k - 2 * pad, 3 * stride + k - 2 * pad
    x = rng.standard_normal((3, ci, h, w))
    y = rng.standard_normal((3, co, 3, 4))
    wts = rng.standard_normal((co, ci, k, k))
    got, taken = conv_lowerings(monkeypatch, tensor.conv2d, x, wts, stride, pad)
    assert taken == ["rows" if ci * k >= 16 else "im2col"]
    assert np.allclose(got, conv2d_loops(x, wts, stride, pad), atol=1e-10)
    t = -(-k // stride)
    subpixel = (stride > 1 or 2 * ci >= co) and pad // stride <= t - 1
    got_t, taken = conv_lowerings(monkeypatch, tensor.conv2d_transposed, y, wts, stride, pad)
    # col2im lowers through the full form's adjoint
    assert taken == (["rows" if co * t >= 16 else "im2col"] if subpixel else ["im2col"])
    assert np.allclose(got_t, conv2d_transposed_loops(y, wts, stride, pad), atol=1e-10)
    # one sample per chunk: the helper runs the middle one
    monkeypatch.setattr(tensor, "_COL_BYTES", 1)
    bits = []
    for workers in (1, 2):
        monkeypatch.setattr(tensor, "_CONV_WORKERS", workers)
        bits.append([tensor.conv2d(x, wts, stride, pad).tobytes(),
                     tensor.conv2d_transposed(y, wts, stride, pad).tobytes()])
    assert bits[0] == bits[1] == [got.tobytes(), got_t.tobytes()]


# every pad that leaves a non-empty output, on a 3x4 upstream map:
# pad // stride <= ceil(k/stride) - 1 takes the sub-pixel path, larger pads
# col2im
STRIDED = [(s, k, p) for s in (2, 3) for k in (3, 4, 5, 6) for p in range(k + 2)
           if 2 * s + k - 2 * p > 0]


@pytest.mark.parametrize("stride,k,pad", STRIDED)
def test_strided_transposed_paths_match_direct_loops(monkeypatch, stride, k, pad):
    rng = np.random.default_rng(20)
    y = rng.standard_normal((2, 3, 3, 4))
    wts = rng.standard_normal((3, 2, k, k))
    got, path = transposed_path(monkeypatch, y, wts, stride, pad)
    want = conv2d_transposed_loops(y, wts, stride, pad)
    assert path == ("subpixel" if pad // stride <= -(-k // stride) - 1 else "col2im")
    assert got.shape == want.shape == (2, 2, 2 * stride + k - 2 * pad, 3 * stride + k - 2 * pad)
    assert np.allclose(got, want, atol=1e-10)
    assert np.allclose(conv2d_transposed_by_offset(y, wts, stride, pad), want, atol=1e-10)


# (C_in, C_out, H') of the stride-2 transposed convs that the upsample-mode
# reverse runs with a 5x5 kernel box-summed to 6x6, pad 2: small's 16 -> 32
# and input conv 1 -> 16, and baseline's 32 -> 32 and 64 -> 64, all on the
# sub-pixel path
FOLDED = [(16, 32, 7, "subpixel"), (32, 32, 16, "subpixel"), (64, 64, 8, "subpixel"),
          (1, 16, 14, "subpixel")]


@pytest.mark.parametrize("ci,co,ho,path", FOLDED)
def test_folded_reverse_shapes(monkeypatch, ci, co, ho, path):
    rng = np.random.default_rng(21)
    wts = _box_sum(rng.standard_normal((co, ci, 5, 5)), 2)
    y = rng.standard_normal((3, co, ho, ho))
    x = rng.standard_normal((3, ci, 2 * ho, 2 * ho))
    got, taken = transposed_path(monkeypatch, y, wts, 2, 2)
    assert taken == path
    assert got.shape == x.shape
    assert np.allclose(got, conv2d_transposed_by_offset(y, wts, 2, 2), rtol=1e-12, atol=1e-12)
    lhs, rhs = np.sum(tensor.conv2d(x, wts, 2, 2) * y), np.sum(x * got)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
    # one sample per chunk: the helper runs the middle one
    monkeypatch.setattr(tensor, "_COL_BYTES", 1)
    for dtype in (np.float32, np.float64):
        monkeypatch.setattr(tensor, "_CONV_WORKERS", 1)
        one = tensor.conv2d_transposed(y.astype(dtype), wts.astype(dtype), 2, 2)
        monkeypatch.setattr(tensor, "_CONV_WORKERS", 2)
        two = tensor.conv2d_transposed(y.astype(dtype), wts.astype(dtype), 2, 2)
        assert one.dtype == two.dtype == dtype
        assert one.tobytes() == two.tobytes()


# the correctness gate's share of the summed term magnitudes (RTOL in
# bench/reference.py)
RTOL = 1e-4


def weight_grad_reference(x, g, k, stride, pad):
    """conv2d_weight_grad in float64, by one einsum over a sliding-window
    view of the padded input."""
    xp = np.pad(np.asarray(x, dtype=np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    return np.einsum("bohw,bchwij->ocij", np.asarray(g, dtype=np.float64), win, optimize=True)


@pytest.mark.parametrize("ci,co,ho", [shape[:3] for shape in FOLDED])
def test_folded_weight_grads_match_the_reference(monkeypatch, ci, co, ho):
    # the reverse adjoint's stride-2 gradient of the box-summed 6x6 kernel,
    # in float32, within RTOL of the summed term magnitudes
    rng = np.random.default_rng(26)
    x = rng.standard_normal((5, ci, 2 * ho, 2 * ho)).astype(np.float32)
    g = rng.standard_normal((5, co, ho, ho)).astype(np.float32)
    got, taken = conv_lowerings(monkeypatch, tensor.conv2d_weight_grad, x, g, (co, ci, 6, 6), 2, 2)
    assert taken == ["rows" if ci * 6 >= 16 else "im2col"]
    assert got.dtype == np.float32
    err = np.abs(got - weight_grad_reference(x, g, 6, 2, 2))
    assert np.all(err <= RTOL * weight_grad_reference(np.abs(x), np.abs(g), 6, 2, 2))


@pytest.mark.parametrize("ci,co", CHANNELS)
@pytest.mark.parametrize("stride,pad,h,w,k", GEOMETRIES)
def test_conv2d_weight_grad_matches_direct_loops(monkeypatch, stride, pad, h, w, k, ci, co):
    rng = np.random.default_rng(9)
    ho, wo = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    x = rng.standard_normal((2, ci, h, w))
    g = rng.standard_normal((2, co, ho, wo))
    got, taken = conv_lowerings(monkeypatch, tensor.conv2d_weight_grad, x, g, (co, ci, k, k), stride, pad)
    want = conv2d_weight_grad_loops(x, g, (co, ci, k, k), stride, pad)
    assert taken == [LOWERINGS[ci, co]]
    assert got.shape == (co, ci, k, k)
    assert np.allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("ci,co", [(1, 16), (4, 6), (6, 8)])
@pytest.mark.parametrize("stride,k,pad", SWEEP)
def test_weight_grad_lowering_matches_direct_loops(monkeypatch, stride, k, pad, ci, co):
    # SWEEP's geometries on a 3x4 output map; (4, 6) crosses C_in*kW >= 16
    # between k = 3 and 4
    rng = np.random.default_rng(27)
    h, w = 2 * stride + k - 2 * pad, 3 * stride + k - 2 * pad
    x = rng.standard_normal((3, ci, h, w))
    g = rng.standard_normal((3, co, 3, 4))
    got, taken = conv_lowerings(monkeypatch, tensor.conv2d_weight_grad, x, g, (co, ci, k, k), stride, pad)
    assert taken == ["rows" if ci * k >= 16 else "im2col"]
    assert np.allclose(got, conv2d_weight_grad_loops(x, g, (co, ci, k, k), stride, pad), atol=1e-10)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride,k,pad", [(1, 5, 2), (2, 6, 2), (3, 4, 1), (2, 3, 1)])
def test_weight_grad_chunks_of_two_lengths(monkeypatch, dtype, stride, k, pad):
    # batch 10 under a cap of 3 samples' scratch: chunks of 3, 3, 2 and 2.
    # One worker runs all four, the caller of two runs chunks 0 and 2, so
    # either reshapes its shifted copy from m = 3 to m = 2 once, where the
    # padding border must be zeroed again: in the rows form (C_in = 6) and
    # in the full form (C_in = 1)
    ho, wo = 4, 3
    h, w = (ho - 1) * stride + k - 2 * pad, (wo - 1) * stride + k - 2 * pad
    rng = np.random.default_rng(28)
    for ci, co in [(6, 5), (1, 5)]:
        x = rng.standard_normal((10, ci, h, w)).astype(dtype)
        g = rng.standard_normal((10, co, ho, wo)).astype(dtype)
        full = ci * k < 16
        shape = tensor._shifted((ci, h, w), k, k, stride, pad, ho, wo, 4, full)[0]
        sample = (int(np.prod(shape(1))) + co * ho * wo) * x.itemsize  # the copy and the upstream
        monkeypatch.setattr(tensor, "_COL_BYTES", 3 * sample)
        assert [b1 - b0 for b0, b1 in tensor._chunks(10, sample)[0]] == [3, 3, 2, 2]
        want = conv2d_weight_grad_loops(x.astype(np.float64), g.astype(np.float64), (co, ci, k, k), stride, pad)
        bits = []
        for workers in (1, 2):
            monkeypatch.setattr(tensor, "_CONV_WORKERS", workers)
            got, taken = conv_lowerings(monkeypatch, tensor.conv2d_weight_grad, x, g, (co, ci, k, k), stride, pad)
            assert taken == ["im2col" if full else "rows"] and got.dtype == dtype
            assert np.allclose(got, want, rtol=1e-5 if dtype == np.float32 else 1e-12,
                               atol=1e-4 if dtype == np.float32 else 1e-10), (ci, workers)
            bits.append(got.tobytes())
        assert bits[0] == bits[1], ci


# (kH, kW, pad) of non-square kernels at strides 1-3, kH < stride included,
# on a 3x4 output map
RECTANGULAR = [(3, 5, 2), (1, 3, 1), (6, 1, 1)]


def test_rectangular_kernel_matches_direct_loops(monkeypatch):
    # both forms (C_in*kW below and above 16) of the forward conv and the
    # weight gradient; the transposed conv takes col2im at every such kernel
    rng = np.random.default_rng(10)
    for (kh, kw, pad), stride, form in itertools.product(RECTANGULAR, (1, 2, 3), ("im2col", "rows")):
        case = (kh, kw, pad, stride, form)
        ci = 2 if form == "im2col" else -(-16 // kw)
        h, w = 2 * stride + kh - 2 * pad, 3 * stride + kw - 2 * pad
        x = rng.standard_normal((2, ci, h, w))
        wts = rng.standard_normal((3, ci, kh, kw))
        g = rng.standard_normal((2, 3, 3, 4))
        y, taken = conv_lowerings(monkeypatch, tensor.conv2d, x, wts, stride, pad)
        assert taken == [form] and np.allclose(y, conv2d_loops(x, wts, stride, pad), atol=1e-10), case
        got_t, path = transposed_path(monkeypatch, g, wts, stride, pad)
        assert path == "col2im", case
        assert np.allclose(got_t, conv2d_transposed_loops(g, wts, stride, pad), atol=1e-10), case
        gw, taken = conv_lowerings(monkeypatch, tensor.conv2d_weight_grad, x, g, wts.shape, stride, pad)
        assert taken == [form], case
        assert np.allclose(gw, conv2d_weight_grad_loops(x, g, wts.shape, stride, pad), atol=1e-10), case


@pytest.mark.parametrize("full", [False, True], ids=["rows", "full"])
@pytest.mark.parametrize("axis", [0, 4])
@pytest.mark.parametrize("stride,k,pad", SWEEP)
def test_shifted_copy_and_its_adjoint(stride, k, pad, axis, full):
    # on SWEEP's geometries (pads larger than the stride included), in both
    # forms, with the batch axis where the forward conv (0) and the weight
    # gradient (4) put it: copy writes xpad[s*Y + r, s*X + j] into every
    # entry, zero outside the input, and add is its adjoint,
    # <copy(x), S> == <x, add(S)>
    rng = np.random.default_rng(29)
    ho, wo = 3, 4
    h, w = (ho - 1) * stride + k - 2 * pad, (wo - 1) * stride + k - 2 * pad
    x = rng.standard_normal((2, 3, h, w))
    shape, _, copy, add = tensor._shifted(x.shape[1:], k, k, stride, pad, ho, wo, axis, full)
    shifted = np.zeros(shape(2))
    copy(x, shifted)
    got = np.moveaxis(shifted, axis, 0)
    _, _, kw, depth, yn, _ = got.shape
    assert (kw, depth, yn) == ((k, k, ho) if full else (k, stride, ho + (k - 1) // stride))
    xpad = np.zeros((2, 3, pad + stride * yn + depth, pad + stride * wo + kw))
    xpad[:, :, pad : pad + h, pad : pad + w] = x
    rows, cols = np.ix_(np.arange(yn), np.arange(wo))
    for j in range(kw):
        for r in range(depth):
            assert np.array_equal(got[:, :, j, r], xpad[:, :, stride * rows + r, stride * cols + j]), (j, r)
    s = rng.standard_normal(shifted.shape)
    back = np.zeros_like(x)
    add(s, back)
    lhs, rhs = np.sum(shifted * s), np.sum(x * back)
    assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(shifted * s))


@pytest.mark.parametrize("ci,co,h,stride,cap", [(3, 4, 6, 1, 25000), (1, 4, 7, 2, 2500)])
def test_batch_chunks_split_unevenly(monkeypatch, ci, co, h, stride, cap):
    # a batch of 5 under a cap of 2-3 samples' im2col columns: chunks of
    # unequal length
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


def test_chunks_are_even_balanced_and_capped(monkeypatch):
    monkeypatch.setattr(tensor, "_COL_BYTES", 1000)
    for b in range(1, 40):
        for sample in (1, 7, 100, 333, 999, 1000, 1001, 5000):
            chunks, n = tensor._chunks(b, sample)
            sizes = [b1 - b0 for b0, b1 in chunks]
            assert chunks[0][0] == 0 and chunks[-1][1] == b
            assert all(c[1] == d[0] for c, d in zip(chunks, chunks[1:]))
            assert max(sizes) - min(sizes) <= 1 and n == max(sizes) >= 1
            assert n == 1 or n * sample <= 1000
            # an odd count only where every chunk is one sample
            assert len(chunks) % 2 == 0 or len(chunks) == b
            # no more chunks than the cap needs, plus one to make them even
            assert len(chunks) <= -(-b // max(1, min(b, 1000 // sample))) + 1


# (name, cap, call) of the conv kernels at small's layer shapes, batch 24,
# each lowering or path once: rows, rows through store= (sub-pixel at
# stride 2), im2col, col2im, and the weight gradient by rows, by im2col and
# by rows at stride 2. Each cap holds a few samples' scratch, and leaving
# out the accumulation, store or upstream buffer would exceed it (in every
# case but the last, whose upstream buffer is small)
def _scratch_cases():
    rng = np.random.default_rng(25)
    x = rng.standard_normal((24, 16, 14, 14)).astype(np.float32)
    x1 = rng.standard_normal((24, 1, 28, 28)).astype(np.float32)
    wts = rng.standard_normal((32, 16, 5, 5)).astype(np.float32)
    w1 = rng.standard_normal((16, 1, 5, 5)).astype(np.float32)
    y = rng.standard_normal((24, 32, 14, 14)).astype(np.float32)
    y1 = rng.standard_normal((24, 16, 28, 28)).astype(np.float32)
    return [("rows", 512 << 10, lambda: tensor.conv2d(x, wts, 1, 2)),
            ("rows-store", 512 << 10,
             lambda: tensor.conv2d_transposed(y[:, :, :7, :7], _box_sum(wts, 2), 2, 2)),
            ("im2col", 512 << 10, lambda: tensor.conv2d(x1, w1, 1, 2)),
            ("col2im", 512 << 10, lambda: tensor.conv2d_transposed(y1, w1, 1, 2)),
            ("weight-grad", 1 << 20, lambda: tensor.conv2d_weight_grad(x, y, wts.shape, 1, 2)),
            ("weight-grad-im2col", 512 << 10, lambda: tensor.conv2d_weight_grad(x1, y1, w1.shape, 1, 2)),
            ("weight-grad-strided", 256 << 10,
             lambda: tensor.conv2d_weight_grad(x, y[:, :, :7, :7], (32, 16, 6, 6), 2, 2))]


@pytest.mark.parametrize("case", range(7))
def test_chunk_scratch_fits_the_cap(monkeypatch, case):
    # every per-sample scratch byte counts against _COL_BYTES: what one
    # worker's scratch() allocates stays within it, give or take the
    # per-call buffers of kernel size (the weight gradient's partial sum)
    name, cap, call = _scratch_cases()[case]
    monkeypatch.setattr(tensor, "_COL_BYTES", cap)
    monkeypatch.setattr(tensor, "_CONV_WORKERS", 1)
    run, seen = tensor._run_chunks, []

    def spy(chunks, scratch, job):
        tracemalloc.start()
        try:
            bufs = scratch()
            seen.append((chunks, tracemalloc.get_traced_memory()[0]))
        finally:
            tracemalloc.stop()
        run(chunks, lambda: bufs, job)

    monkeypatch.setattr(tensor, "_run_chunks", spy)
    call()
    (chunks, nbytes), = seen
    assert len(chunks) % 2 == 0 and chunks[0][1] > 1, name
    assert nbytes <= cap + 64 * 1024, name


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
    # the BLAS gets min(cap, the count it loaded with); the rest of the cap
    # is left to the conv workers
    before = tensor.blas_threads()
    if before is None:
        pytest.skip("no OpenBLAS found in this process")
    loaded = tensor._openblas()[2]
    for name in ("_THREAD_BUDGET", "_CONV_WORKERS"):
        monkeypatch.setattr(tensor, name, getattr(tensor, name))
    try:
        assert tensor.set_threads(1) == 1
        assert tensor.blas_threads() == 1
        assert tensor._conv_workers() == 1
        monkeypatch.setenv("REVNET_THREADS", "2")
        assert tensor.set_threads() == 2
        assert tensor.blas_threads() == min(2, loaded)
        assert tensor._conv_workers() == 2 // min(2, loaded)
    finally:
        tensor.set_threads(before)


def test_never_imports_torch(tmp_path):
    # a torch on the path that fails on import, and REVNET_CONV_BACKEND
    # naming it: importing revnet and running the three kernels never loads it
    (tmp_path / "torch").mkdir()
    (tmp_path / "torch" / "__init__.py").write_text('raise RuntimeError("torch imported")\n')
    src = os.path.dirname(os.path.dirname(tensor.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), src]),
               REVNET_CONV_BACKEND="torch")
    probe = """
import numpy as np
import revnet
from revnet import tensor
x = np.ones((2, 3, 6, 6), np.float32)
w = np.ones((4, 3, 3, 3), np.float32)
y = tensor.conv2d(x, w, 1, 1)
tensor.conv2d_transposed(y, w, 1, 1)
tensor.conv2d_weight_grad(x, y, w.shape, 1, 1)
assert tensor.conv_backend() == "native"
"""
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("cpus,blas,budget,workers", [
    ({0, 1}, 1, None, 2),  # BLAS pinned to one thread: the caller and the helper
    ({0, 1}, 2, None, 1),  # BLAS threaded over both CPUs
    ({0}, 1, None, 1),
    ({0, 1, 2, 3}, 1, None, 2),  # never more than one helper
    ({0, 1, 2, 3}, 1, 1, 1),  # set_threads(1), as --deterministic does
    ({0, 1}, None, None, 1),  # a BLAS whose threads cannot be read
])
def test_conv_worker_rule(monkeypatch, cpus, blas, budget, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(tensor, "blas_threads", lambda: blas)
    monkeypatch.setattr(tensor, "_THREAD_BUDGET", budget)
    monkeypatch.setattr(tensor, "_CONV_WORKERS", None)
    assert tensor._conv_workers() == workers


def conv_kernels(x, wts, g, stride, pad):
    return (tensor.conv2d(x, wts, stride, pad),
            tensor.conv2d_transposed(g, wts, stride, pad),
            tensor.conv2d_weight_grad(x, g, wts.shape, stride, pad))


# (C_in, C_out, H) of the small net's and the baseline net's 5x5 convs
LAYER_SHAPES = [(1, 16, 28), (16, 32, 14), (3, 32, 32), (32, 32, 32),
                (32, 64, 16), (64, 64, 16), (64, 128, 8), (128, 128, 8)]
SPLIT_CASES = ([pytest.param(ci, co, h, w, k, stride, pad, id=f"geom-{stride}-{pad}-{h}-{w}-{k}-{ci}to{co}")
                for stride, pad, h, w, k in GEOMETRIES for ci, co in CHANNELS]
               + [pytest.param(ci, co, h, h, 5, 1, 2, id=f"layer-{ci}to{co}-{h}")
                  for ci, co, h in LAYER_SHAPES])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ci,co,h,w,k,stride,pad", SPLIT_CASES)
def test_two_workers_bit_identical_to_one(monkeypatch, dtype, ci, co, h, w, k, stride, pad):
    # batch 5 under a cap of 2 samples' im2col columns, in at least two
    # chunks: the helper runs one, and the weight gradient sums them all
    ho, wo = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    monkeypatch.setattr(tensor, "_COL_BYTES", 2 * ci * k * k * ho * wo * np.dtype(dtype).itemsize)
    rng = np.random.default_rng(14)
    x = rng.standard_normal((5, ci, h, w)).astype(dtype)
    wts = rng.standard_normal((co, ci, k, k)).astype(dtype)
    g = rng.standard_normal((5, co, ho, wo)).astype(dtype)
    monkeypatch.setattr(tensor, "_CONV_WORKERS", 1)
    one = conv_kernels(x, wts, g, stride, pad)
    monkeypatch.setattr(tensor, "_CONV_WORKERS", 2)
    two = conv_kernels(x, wts, g, stride, pad)
    assert tensor._HELPER is not None
    for a, b in zip(one, two):
        assert a.dtype == b.dtype == dtype
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("ci,co,h", [shape for shape in LAYER_SHAPES if 2 * shape[0] >= shape[1]])
def test_stride_one_transposed_keeps_the_flip_bits(ci, co, h):
    # at stride 1 the sub-pixel path is the forward conv with the flipped,
    # channel-swapped kernel, bit for bit
    rng = np.random.default_rng(22)
    y = rng.standard_normal((4, co, h, h)).astype(np.float32)
    wts = rng.standard_normal((co, ci, 5, 5)).astype(np.float32)
    flip = tensor._conv2d(y, wts[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), 1, 5 - 1 - 2)
    assert tensor.conv2d_transposed(y, wts, 1, 2).tobytes() == flip.tobytes()


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_exception_in_either_worker_reaches_the_caller(monkeypatch, failing):
    monkeypatch.setattr(tensor, "_CONV_WORKERS", 2)
    caller = threading.get_ident()
    failed = threading.Event()
    done = []

    def job(i, b0, b1, bufs):
        if (threading.get_ident() == caller) == (failing == "caller"):
            failed.set()
            raise ValueError(f"{failing} chunk {i}")
        failed.wait(timeout=30)  # so the failing worker gets a chunk
        done.append(i)

    with pytest.raises(ValueError, match=failing):
        tensor._run_chunks([(i, i + 1) for i in range(4)], lambda: None, job)
    # the failing worker stopped at its first chunk; the other ran both of
    # its chunks before the call returned
    assert sorted(done) == ([1, 3] if failing == "caller" else [0, 2])
    monkeypatch.setattr(tensor, "_COL_BYTES", 1)
    rng = np.random.default_rng(15)
    x = rng.standard_normal((4, 2, 6, 6))
    wts = rng.standard_normal((3, 2, 3, 3))
    assert np.allclose(tensor.conv2d(x, wts, 1, 1), conv2d_loops(x, wts, 1, 1), atol=1e-10)


def test_errstate_applies_to_the_helpers_half(monkeypatch):
    # an overflow in the helper's chunk raises under the caller's errstate
    monkeypatch.setattr(tensor, "_CONV_WORKERS", 2)
    ran_on = []

    def job(i, b0, b1, bufs):
        if i == 1:
            ran_on.append(threading.get_ident())
            np.full(1, 3e38, np.float32) * np.float32(10)

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        tensor._run_chunks([(0, 1), (1, 2)], lambda: None, job)
    assert ran_on and ran_on[0] != threading.get_ident()
    with np.errstate(over="ignore"):
        tensor._run_chunks([(0, 1), (1, 2)], lambda: None, job)


def test_one_cpu_budget_starts_no_helper(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(tensor, "_THREAD_BUDGET", None)
    monkeypatch.setattr(tensor, "_CONV_WORKERS", None)
    monkeypatch.setattr(tensor, "_HELPER", None)
    monkeypatch.setattr(tensor, "_COL_BYTES", 1)
    threads = set(threading.enumerate())
    rng = np.random.default_rng(16)
    x = rng.standard_normal((4, 2, 6, 6))
    wts = rng.standard_normal((3, 2, 3, 3))
    conv_kernels(x, wts, tensor.conv2d(x, wts, 1, 1), 1, 1)
    assert tensor._conv_workers() == 1
    assert tensor._HELPER is None
    assert set(threading.enumerate()) == threads


def test_concurrent_callers_share_the_helper(monkeypatch):
    # more calling threads than cores, switching often, each checking its
    # results against the one-worker bits
    monkeypatch.setattr(tensor, "_COL_BYTES", 1)
    rng = np.random.default_rng(17)
    cases = [(rng.standard_normal((5, 3, 7, 7)), rng.standard_normal((4, 3, 3, 3)),
              rng.standard_normal((5, 4, 7, 7))) for _ in range(4)]
    monkeypatch.setattr(tensor, "_CONV_WORKERS", 1)
    want = [conv_kernels(x, wts, g, 1, 1) for x, wts, g in cases]
    monkeypatch.setattr(tensor, "_CONV_WORKERS", 2)
    bad = []

    def caller(case, expected):
        for _ in range(10):
            got = conv_kernels(*case, 1, 1)
            bad.extend(a.tobytes() != b.tobytes() for a, b in zip(got, expected))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=cw) for cw in zip(cases, want)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(bad) == 4 * 10 * 3 and not any(bad)


def _conv_in_child(x, wts, results):
    results.put(tensor.conv2d(x, wts, 1, 1))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_conv_in_forked_child_after_helper_ran(monkeypatch):
    # the child inherits the helper's handle but not its thread
    monkeypatch.setattr(tensor, "_CONV_WORKERS", 2)
    monkeypatch.setattr(tensor, "_COL_BYTES", 1)
    rng = np.random.default_rng(18)
    x = rng.standard_normal((4, 2, 6, 6))
    wts = rng.standard_normal((3, 2, 3, 3))
    want = tensor.conv2d(x, wts, 1, 1)
    assert tensor._HELPER is not None
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    child = ctx.Process(target=_conv_in_child, args=(x, wts, results))
    child.start()
    try:
        got = results.get(timeout=60)
        child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
    assert got.tobytes() == want.tobytes()


def test_lanes_run_on_two_threads_with_one_conv_worker_each(monkeypatch):
    # each lane's convs run on its own thread alone, and the caller gets its
    # two workers back afterwards
    monkeypatch.setattr(tensor, "_CONV_WORKERS", 2)
    monkeypatch.setattr(tensor, "_COL_BYTES", 1)
    rng = np.random.default_rng(26)
    x = rng.standard_normal((4, 2, 6, 6))
    wts = rng.standard_normal((3, 2, 3, 3))
    seen, kernel = [], tensor._run_chunks

    def spy(chunks, scratch, job):
        seen.append((threading.get_ident(), tensor._conv_workers()))
        kernel(chunks, scratch, job)

    monkeypatch.setattr(tensor, "_run_chunks", spy)

    def lane():
        return threading.get_ident(), tensor._conv_workers(), tensor.conv2d(x, wts, 1, 1)

    first, second = tensor.run_lanes(lane, lane)
    assert first[0] == threading.get_ident() != second[0]
    assert first[1] == second[1] == 1
    assert sorted(seen) == sorted([(first[0], 1), (second[0], 1)])
    assert first[2].tobytes() == second[2].tobytes()
    assert tensor._conv_workers() == 2
    assert np.allclose(first[2], conv2d_loops(x, wts, 1, 1), atol=1e-10)


def test_one_worker_runs_the_lanes_in_turn_on_the_caller(monkeypatch):
    monkeypatch.setattr(tensor, "_CONV_WORKERS", 1)
    order = []

    def lane(name):
        order.append((name, threading.get_ident()))
        return name

    assert tensor.run_lanes(lambda: lane("first"), lambda: lane("second")) == ("first", "second")
    assert order == [("first", threading.get_ident()), ("second", threading.get_ident())]


@pytest.mark.parametrize("failing", ["first", "second"])
def test_exception_in_either_lane_waits_for_the_other(monkeypatch, failing):
    monkeypatch.setattr(tensor, "_CONV_WORKERS", 2)
    failed = threading.Event()
    ended = []

    def lane(name):
        if name == failing:
            failed.set()
            raise ValueError(f"{name} lane")
        failed.wait(timeout=30)  # so the other lane has raised by now
        threading.Event().wait(0.05)
        ended.append(name)

    with pytest.raises(ValueError, match=failing):
        tensor.run_lanes(lambda: lane("first"), lambda: lane("second"))
    assert ended == [{"first": "second", "second": "first"}[failing]]


def test_errstate_applies_to_the_helpers_lane(monkeypatch):
    monkeypatch.setattr(tensor, "_CONV_WORKERS", 2)
    ran_on = []

    def overflow():
        ran_on.append(threading.get_ident())
        return np.full(1, 3e38, np.float32) * np.float32(10)

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        tensor.run_lanes(lambda: None, overflow)
    assert ran_on and ran_on[0] != threading.get_ident()
    with np.errstate(over="ignore"):
        assert np.isinf(tensor.run_lanes(lambda: None, overflow)[1]).all()


def test_chunk_halves_run_as_lanes(monkeypatch):
    # a job on either half sees one conv worker, so a conv inside it never
    # submits work to the helper it runs on; the caller keeps its two
    monkeypatch.setattr(tensor, "_CONV_WORKERS", 2)
    seen = []

    def job(i, b0, b1, bufs):
        seen.append((i, threading.get_ident() == caller, tensor._conv_workers()))

    caller = threading.get_ident()
    tensor._run_chunks([(i, i + 1) for i in range(4)], lambda: None, job)
    assert sorted(seen) == [(0, True, 1), (1, False, 1), (2, True, 1), (3, False, 1)]
    assert tensor._conv_workers() == 2


@pytest.mark.parametrize("kernel", ["conv2d", "conv2d_weight_grad", "col2im"])
def test_kernel_call_reaches_the_helper_through_run_lanes_once(monkeypatch, kernel):
    monkeypatch.setattr(tensor, "_CONV_WORKERS", 2)
    monkeypatch.setattr(tensor, "_COL_BYTES", 1)  # one sample per chunk
    rng = np.random.default_rng(30)
    x = rng.standard_normal((4, 1, 6, 6))
    wts = rng.standard_normal((4, 1, 3, 3))
    g = rng.standard_normal((4, 4, 6, 6))
    assert transposed_path(monkeypatch, g, wts, 1, 1)[1] == "col2im"
    call, want = {"conv2d": (lambda: tensor.conv2d(x, wts, 1, 1), lambda: conv2d_loops(x, wts, 1, 1)),
                  "conv2d_weight_grad": (lambda: tensor.conv2d_weight_grad(x, g, wts.shape, 1, 1),
                                         lambda: conv2d_weight_grad_loops(x, g, wts.shape, 1, 1)),
                  "col2im": (lambda: tensor.conv2d_transposed(g, wts, 1, 1),
                             lambda: conv2d_transposed_loops(g, wts, 1, 1))}[kernel]
    lanes, helpers = [], []
    run_lanes, helper = tensor.run_lanes, tensor._helper
    monkeypatch.setattr(tensor, "run_lanes", lambda *a: lanes.append(a) or run_lanes(*a))
    monkeypatch.setattr(tensor, "_helper", lambda: helpers.append(1) or helper())
    got = call()
    assert len(lanes) == len(helpers) == 1
    assert np.allclose(got, want(), atol=1e-10)


@pytest.mark.parametrize("ci,co", CHANNELS)
def test_transposed_output_owns_no_padded_buffer(monkeypatch, ci, co):
    # both transposed paths, padded, at stride 1 and 2 (where the phase grid
    # fits the output, and where pad % stride shifts it): the result is
    # C-contiguous and holds no larger (padded or phase) buffer alive
    rng = np.random.default_rng(19)
    y = rng.standard_normal((3, co, 6, 6))
    for stride, k, pad in [(1, 5, 2), (2, 6, 2), (2, 5, 1)]:
        out, path = transposed_path(monkeypatch, y, rng.standard_normal((co, ci, k, k)), stride, pad)
        assert path == PATHS[ci, co][stride - 1]
        side = 5 * stride + k - 2 * pad
        assert out.shape == (3, ci, side, side)
        assert out.flags["C_CONTIGUOUS"]
        assert out.base is None or out.base.nbytes == out.nbytes


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


def test_weight_grad_rejects_upstream_of_another_shape():
    x = np.zeros((2, 6, 8, 8))
    for upstream, kernel_shape in [(np.zeros((2, 5, 4, 4)), (5, 6, 3, 3)),  # stride 1 gives 8x8
                                   (np.zeros((2, 4, 8, 8)), (5, 6, 3, 3)),
                                   (np.zeros((3, 5, 8, 8)), (5, 6, 3, 3)),
                                   (np.zeros((2, 5, 8, 8)), (5, 4, 3, 3))]:
        with pytest.raises(ShapeError):
            tensor.conv2d_weight_grad(x, upstream, kernel_shape, 1, 1)


@pytest.mark.parametrize("kernel", ["conv2d", "conv2d_transposed", "conv2d_weight_grad"])
def test_rank3_input_rejected(kernel):
    # every kernel takes a batch [B,C,H,W]; one sample [C,H,W] is no batch
    rng = np.random.default_rng(3)
    w = rng.standard_normal((3, 2, 3, 3))
    x, y = rng.standard_normal((2, 6, 6)), rng.standard_normal((3, 6, 6))
    call = {"conv2d": lambda: tensor.conv2d(x, w, 1, 1),
            "conv2d_transposed": lambda: tensor.conv2d_transposed(y, w, 1, 1),
            "conv2d_weight_grad": lambda: tensor.conv2d_weight_grad(x, y, w.shape, 1, 1)}[kernel]
    with pytest.raises(ShapeError, match=r"must be \[B,C,H,W\]"):
        call()


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


def test_gaussian_fill_deterministic_and_typed():
    a = tensor.gaussian_fill((3, 3), np.random.default_rng(42), 0.0, 1.0, tensor.SINGLE)
    b = tensor.gaussian_fill((3, 3), np.random.default_rng(42), 0.0, 1.0, tensor.SINGLE)
    assert a.dtype == np.float32
    assert np.array_equal(a, b)


def test_blockwise_covers_every_element_once(monkeypatch):
    monkeypatch.setattr(tensor, "_BLOCK_BYTES", 5 * 8)  # 5-element blocks, the last one partial
    a = np.arange(24, dtype=np.float64).reshape(4, 6)
    b = np.arange(24, dtype=np.float64).reshape(6, 4).T  # read in C order through a copy
    scratch = set()

    def add(o, x, y, t, u):
        scratch.add((t.__array_interface__["data"][0], u.__array_interface__["data"][0]))
        np.add(x, y, out=t)
        np.multiply(t, 2, out=o)

    out = tensor.blockwise(add, None, a, b, scratch=2)
    assert out.shape == a.shape and out.flags.c_contiguous
    assert np.array_equal(out, 2 * (a + b))
    assert len(scratch) == 1  # the same two scratch blocks for all five blocks
    same = a.copy()
    assert tensor.blockwise(lambda o, x, t: np.negative(x, out=o), same, same) is same
    assert np.array_equal(same, -a)
    with pytest.raises(ShapeError):
        tensor.blockwise(lambda o, x, t: None, np.empty((6, 4)).T, a)
    with pytest.raises(ShapeError):
        tensor.blockwise(lambda o, x, t: None, np.empty(23), a)
