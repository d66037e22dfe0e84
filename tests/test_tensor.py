"""Array-primitive checks against independent direct-loop oracles."""

import multiprocessing
import os
import sys
import threading

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
    # the BLAS gets min(cap, the count it loaded with); the rest of the cap
    # is left to the conv workers
    before = tensor.blas_threads()
    if before is None:
        pytest.skip("no OpenBLAS found in this process")
    loaded = tensor._openblas()[2]
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, ""))
    for name in ("_THREAD_BUDGET", "_CONV_WORKERS"):
        monkeypatch.setattr(tensor, name, getattr(tensor, name))
    try:
        assert tensor.set_threads(1) == 1
        assert tensor.blas_threads() == 1
        assert tensor._conv_workers() == 1
        monkeypatch.setenv("REVNET_THREADS", "2")
        assert tensor.set_threads() == 2
        assert tensor.blas_threads() == min(2, loaded)
        assert os.environ["OPENBLAS_NUM_THREADS"] == str(min(2, loaded))
        assert tensor._conv_workers() == 2 // min(2, loaded)
    finally:
        tensor.set_threads(before)


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
    # batch 5 in chunks of 2 samples (2, 2, 1): the weight gradient deals
    # the middle chunk to the helper and sums three chunks
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


@pytest.mark.parametrize("ci,co", CHANNELS)
def test_transposed_output_owns_no_padded_buffer(ci, co):
    # both transposed paths, padded: the result is C-contiguous and holds
    # no larger (padded) buffer alive
    rng = np.random.default_rng(19)
    y = rng.standard_normal((3, co, 6, 6))
    out = tensor.conv2d_transposed(y, rng.standard_normal((co, ci, 5, 5)), 1, 2)
    assert out.shape == (3, ci, 6, 6)
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
