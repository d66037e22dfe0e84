"""Dense array primitives for the reversible-network stack.

Arrays are plain numpy ndarrays (row-major, rank <= 4 in practice:
[batch, C, H, W] activations and rank-2 weights). float32 is the training
default; float64 exists for gradient checking. Convolution uses
cross-correlation semantics (no kernel flip) with zero padding.

The three convolution kernels (forward, transposed/adjoint, weight
gradient) are matrix products over unrolled patches (im2col). A
sliding-window view of the padded input is copied, one chunk of the batch
at a time, into a column buffer of at most _COL_BYTES bytes (or one
sample's columns, where those are larger):
  - forward: kernel[C_out, C_in*k*k] @ cols[n, C_in*k*k, H'*W'], written
    straight into the [B, C_out, H'*W'] output;
  - weight gradient: upstream[C_out, n*H'*W'] @ cols[C_in*k*k, n*H'*W']^T,
    the batch on the inner dimension. The even chunks and the odd chunks
    sum into two halves, in chunk order, and the halves are added last;
  - transposed: kernel^T @ y gives the columns, and col2im scatters them
    back with one strided add per kernel offset (any stride) into a padded
    chunk, whose interior is copied to the C-contiguous output. At stride 1
    with 2*C_in >= C_out it is instead the forward kernel run with the
    flipped, channel-swapped kernel and padding k-1-pad, which moves less
    memory.
Padding also happens one chunk at a time, into a zero-bordered buffer.

The chunks are shared between two workers, the calling thread and one
persistent helper thread, each with its own buffers, while every BLAS
call stays as threaded as the BLAS is: the caller runs the even chunks
and the helper the odd ones. The worker count is max(1, budget // BLAS
threads), at most 2, where the budget is the set_threads cap
(REVNET_THREADS in the CLI) or else the CPUs this process may run on. So
a BLAS pinned to one thread (OPENBLAS_NUM_THREADS=1) on two CPUs gets two
workers, a BLAS threaded over every CPU gets one, and
set_threads(1) (--deterministic) gets one. Forward and transposed chunks
write disjoint output slices, and the weight gradient's two halves do not
depend on who computed them, so all three kernels give the same bits for
one worker and for two.

When torch is importable the kernels dispatch to torch.nn.functional
through zero-copy bridges instead. Semantics of both backends are
identical and are pinned by the adjoint and direct-loop oracle tests.
Select explicitly with REVNET_CONV_BACKEND={auto,torch,native}.
"""

import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError

try:
    import torch
    import torch.nn.functional as _tf

    _HAVE_TORCH = True
except ImportError:  # torch is an optional accelerator, never required
    _HAVE_TORCH = False

SINGLE = np.float32

# Cap on the im2col column buffer of one batch chunk. An unchunked buffer
# for a 32-channel 5x5 conv on 32x32 maps is about 100 MB at batch 32. On
# a 2-CPU x86-64 VM with 2 MB of L2 per core, caps of 1-4 MB ran every
# layer shape of the small and baseline nets fastest; 8 and 16 MB were up
# to 1.5x slower on the 32-64 channel layers.
_COL_BYTES = 2 << 20

# Scratch block of blockwise. On the same VM, LeakyRelu's forward over a
# 128x16x28x28 float32 map ran fastest with 256-512 KB blocks (0.65-0.70
# ms in place); 16 KB blocks took 2.2 ms and 1 MB blocks 0.95 ms.
_BLOCK_BYTES = 256 << 10

_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


@functools.cache
def _openblas():
    """(set_num_threads, get_num_threads, the thread count it loaded with)
    of the OpenBLAS numpy has loaded, or None where it cannot be found
    through the process's own maps. Resolved once per process, on first use."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if setter and getter:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    return setter, getter, int(getter())
    return None


def blas_threads():
    """Threads the loaded OpenBLAS uses now, or None if it cannot be read."""
    api = _openblas()
    return None if api is None else int(api[1]())


def set_threads(n=None):
    """Cap internal parallelism at n threads. n=None reads REVNET_THREADS;
    unset or invalid leaves the current limits alone. Returns the cap or None.

    OpenBLAS gets min(n, the count it loaded with), so a BLAS pinned to one
    thread stays pinned and the rest of the budget goes to the conv workers
    (see _conv_workers). OpenBLAS reads its environment only when it loads,
    so the cap goes through the loaded library's own API; the environment
    variables are set as well, for a BLAS found no other way and for child
    processes."""
    global _THREAD_BUDGET, _CONV_WORKERS
    if n is None:
        raw = os.environ.get("REVNET_THREADS", "")
        if not raw.strip().isdigit():
            return None
        n = int(raw)
    n = max(1, int(n))
    api = _openblas()
    blas = n if api is None else min(n, api[2])
    for key in _THREAD_ENV:
        os.environ[key] = str(blas)
    if api is not None:
        api[0](blas)
    if _HAVE_TORCH:
        torch.set_num_threads(n)
    _THREAD_BUDGET, _CONV_WORKERS = n, None
    return n


@contextlib.contextmanager
def threads_restored():
    """Undo, on leaving the block by any path, every set_threads made inside
    it: the budget, the conv worker count, the OpenBLAS (and torch) thread
    count and the environment variables set_threads writes."""
    global _THREAD_BUDGET, _CONV_WORKERS
    budget, workers = _THREAD_BUDGET, _CONV_WORKERS
    env = {key: os.environ.get(key) for key in _THREAD_ENV}
    api = _openblas()
    blas = None if api is None else api[1]()
    torch_threads = torch.get_num_threads() if _HAVE_TORCH else None
    try:
        yield
    finally:
        _THREAD_BUDGET, _CONV_WORKERS = budget, workers
        for key, value in env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        if api is not None:
            api[0](blas)
        if _HAVE_TORCH:
            torch.set_num_threads(torch_threads)


def conv_backend():
    mode = os.environ.get("REVNET_CONV_BACKEND", "auto")
    if mode not in ("auto", "torch", "native"):
        raise ValueError(f"REVNET_CONV_BACKEND must be auto|torch|native, got {mode!r}")
    if mode == "torch" and not _HAVE_TORCH:
        raise RuntimeError("REVNET_CONV_BACKEND=torch but torch is not installed")
    if mode == "auto":
        return "torch" if _HAVE_TORCH else "native"
    return mode


# ---------------------------------------------------------------------------
# conv workers

_THREAD_BUDGET = None  # the set_threads cap; None: the CPUs this process may use
_CONV_WORKERS = None  # from _conv_workers; None until first needed
_HELPER = None  # a one-thread ThreadPoolExecutor, started on first use
_HELPER_LOCK = threading.Lock()


def _conv_workers():
    """Workers for the conv batch chunks: max(1, budget // BLAS threads), at
    most two (the caller and one helper thread), and one where the BLAS
    thread count cannot be read. Worked out on first use and after each
    set_threads, never per kernel call."""
    global _CONV_WORKERS
    if _CONV_WORKERS is None:
        blas = blas_threads()
        budget = _THREAD_BUDGET
        if budget is None:
            try:
                budget = len(os.sched_getaffinity(0))
            except AttributeError:  # no affinity API on this platform
                budget = os.cpu_count() or 1
        _CONV_WORKERS = 1 if blas is None else max(1, min(2, budget // blas))
    return _CONV_WORKERS


def _helper():
    global _HELPER
    with _HELPER_LOCK:
        if _HELPER is None:
            _HELPER = ThreadPoolExecutor(1, thread_name_prefix="revnet-conv-helper")
        return _HELPER


def _forget_helper():
    # a forked child inherits the parent's handle but not its thread
    global _HELPER, _HELPER_LOCK
    _HELPER, _HELPER_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _run_chunks(chunks, scratch, job):
    """Call job(i, b0, b1, bufs) for every batch chunk i = (b0, b1), on up to
    two workers, each with its own scratch() buffers: the caller runs the
    even chunks and the helper thread the odd ones. Every buffer is
    allocated here, on the caller: a heap of the helper thread's own would
    add its high-water mark to the peak RSS."""
    workers = min(_conv_workers(), len(chunks))

    def run(first, bufs):
        for i in range(first, len(chunks), workers):
            job(i, *chunks[i], bufs)

    if workers == 1:
        run(0, scratch())
        return
    errs = np.geterr()  # np.errstate is per thread (numpy 1.x) or per context (2.x)

    def helper_half(bufs):
        with np.errstate(**errs):
            run(1, bufs)

    done = _helper().submit(helper_half, scratch())
    try:
        run(0, scratch())
    finally:
        done.exception()  # the helper's half ends before the caller's error propagates
    done.result()


# ---------------------------------------------------------------------------
# plumbing ops


def blockwise(fn, out, *ins, scratch=1):
    """Call fn(o, *i, *t) over consecutive blocks of at most _BLOCK_BYTES:
    o a block of out (written in place), i the matching blocks of the
    inputs (each out.size long, read in C order) and t `scratch` scratch
    blocks, the same memory for every block. With out=None, out is a fresh
    array shaped like the first input. Returns out.

    An elementwise chain run this way gives the bits it gives on whole
    arrays, while its temporaries stay one block long."""
    if out is None:
        out = np.empty(ins[0].shape, dtype=ins[0].dtype)
    if not out.flags.c_contiguous:
        raise ShapeError("blockwise writes into a C-contiguous out only")
    flat = [a.reshape(-1) for a in (out, *ins)]
    if any(a.size != out.size for a in flat):
        raise ShapeError(f"blockwise inputs must have {out.size} elements")
    step = max(1, _BLOCK_BYTES // out.itemsize)
    tmp = np.empty((scratch, min(out.size, step)), dtype=out.dtype)
    for lo in range(0, out.size, step):
        hi = min(out.size, lo + step)
        fn(*(a[lo:hi] for a in flat), *tmp[:, : hi - lo])
    return out


def argmax_last(a):
    return np.argmax(a, axis=-1)


def gaussian_fill(shape, rng, mean=0.0, std=1.0, dtype=SINGLE):
    return (rng.standard_normal(size=shape) * std + mean).astype(dtype)


# ---------------------------------------------------------------------------
# convolution


def _conv_geometry(h, w, kh, kw, stride, pad):
    if kh > h + 2 * pad or kw > w + 2 * pad:
        raise ShapeError(f"kernel {kh}x{kw} exceeds padded input {h + 2 * pad}x{w + 2 * pad}")
    if (h + 2 * pad - kh) % stride or (w + 2 * pad - kw) % stride:
        raise ShapeError(
            f"stride {stride} does not divide geometry (input {h}x{w}, kernel {kh}x{kw}, pad {pad})"
        )
    return (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1


def _as_batched(x):
    if x.ndim == 3:
        return x[None], True
    if x.ndim == 4:
        return x, False
    raise ShapeError(f"conv input must be [C,H,W] or [B,C,H,W], got {x.shape}")


def conv2d(x, kernel, stride=1, pad=0):
    """Cross-correlate [B,C_in,H,W] with [C_out,C_in,kH,kW] -> [B,C_out,H',W']."""
    x, squeeze = _as_batched(x)
    co, ci, kh, kw = kernel.shape
    if x.shape[1] != ci:
        raise ShapeError(f"conv2d: input has {x.shape[1]} channels, kernel expects {ci}")
    _conv_geometry(x.shape[2], x.shape[3], kh, kw, stride, pad)
    if conv_backend() == "torch":
        out = _tf.conv2d(_t(x), _t(kernel), stride=stride, padding=pad).numpy()
    else:
        out = _conv2d_native(x, kernel, stride, pad)
    return out[0] if squeeze else out


def conv2d_transposed(y, kernel, stride=1, pad=0):
    """Exact adjoint of conv2d with the same kernel/stride/pad.

    [B,C_out,H',W'] -> [B,C_in,H,W] with H = (H'-1)*stride + kH - 2*pad.
    For every a, b of matching shapes, <conv2d(a,K), b> == <a, conv2d_transposed(b,K)>.
    """
    y, squeeze = _as_batched(y)
    co, ci, kh, kw = kernel.shape
    if y.shape[1] != co:
        raise ShapeError(f"conv2d_transposed: input has {y.shape[1]} channels, kernel expects {co}")
    h = (y.shape[2] - 1) * stride + kh - 2 * pad
    w = (y.shape[3] - 1) * stride + kw - 2 * pad
    if h <= 0 or w <= 0:
        raise ShapeError(f"conv2d_transposed: degenerate output {h}x{w}")
    if conv_backend() == "torch":
        out = _tf.conv_transpose2d(_t(y), _t(kernel), stride=stride, padding=pad).numpy()
    else:
        out = _conv2d_transposed_native(y, kernel, stride, pad)
    return out[0] if squeeze else out


def conv2d_weight_grad(x, upstream, kernel_shape, stride=1, pad=0):
    """Gradient of sum(upstream * conv2d(x, K)) with respect to K."""
    x, _ = _as_batched(x)
    upstream, _ = _as_batched(upstream)
    co, ci, kh, kw = kernel_shape
    if conv_backend() == "torch":
        return torch.nn.grad.conv2d_weight(
            _t(x), kernel_shape, _t(upstream), stride=stride, padding=pad
        ).numpy()
    return _conv2d_weight_grad_native(x, upstream, kernel_shape, stride, pad)


def _t(a):
    # torch.from_numpy shares memory; inputs here are never mutated in place
    return torch.from_numpy(np.ascontiguousarray(a))


def _windows(x, kh, kw, stride):
    """[B,C,H,W] -> [B,C,kH,kW,H',W'] view."""
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    return win.transpose(0, 1, 4, 5, 2, 3)


def _chunk_windows(x, n, kh, kw, stride, pad):
    """A function (b0, b1) -> _windows of x[b0:b1] zero-padded by pad, for
    chunks of up to n samples. With pad, each chunk is copied into the
    interior of the function's own buffer, whose border stays zero."""
    if not pad:
        win = _windows(x, kh, kw, stride)
        return lambda b0, b1: win[b0:b1]
    _, c, h, w = x.shape
    buf = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    win = _windows(buf, kh, kw, stride)

    def chunk(b0, b1):
        buf[: b1 - b0, :, pad:-pad, pad:-pad] = x[b0:b1]
        return win[: b1 - b0]

    return chunk


def _chunks(b, sample_bytes):
    """(start, stop) batch slices whose column buffers fit _COL_BYTES, and
    the largest slice length."""
    n = max(1, min(b, _COL_BYTES // max(1, sample_bytes)))
    return [(b0, min(b, b0 + n)) for b0 in range(0, b, n)], n


def _conv2d_native(x, kernel, stride, pad):
    b, ci, h, w = x.shape
    co, _, kh, kw = kernel.shape
    ho, wo = _conv_geometry(h, w, kh, kw, stride, pad)
    rows = ci * kh * kw
    kmat = kernel.reshape(co, rows).astype(x.dtype, copy=False)
    out = np.empty((b, co, ho * wo), dtype=x.dtype)
    chunks, n = _chunks(b, rows * ho * wo * x.itemsize)

    def scratch():
        return np.empty((n, rows, ho * wo), dtype=x.dtype), _chunk_windows(x, n, kh, kw, stride, pad)

    def job(_, b0, b1, bufs):
        cols = bufs[0][: b1 - b0]
        np.copyto(cols.reshape(b1 - b0, ci, kh, kw, ho, wo), bufs[1](b0, b1))
        np.matmul(kmat, cols, out=out[b0:b1])

    _run_chunks(chunks, scratch, job)
    return out.reshape(b, co, ho, wo)


def _conv2d_transposed_native(y, kernel, stride, pad):
    b, co, ho, wo = y.shape
    _, ci, kh, kw = kernel.shape
    if stride == 1 and 2 * ci >= co and kh == kw and pad <= kh - 1:
        # a stride-1 transposed conv is the forward conv with the flipped,
        # channel-swapped kernel and the complementary padding. Its im2col
        # moves about 2*C_out*k*k words per output pixel, col2im about
        # 4*C_in*k*k, so it wins unless C_in is small next to C_out.
        return _conv2d_native(y, kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), 1, kh - 1 - pad)
    h = (ho - 1) * stride + kh - 2 * pad
    w = (wo - 1) * stride + kw - 2 * pad
    rows = ci * kh * kw
    kmat_t = np.ascontiguousarray(kernel.reshape(co, rows).T, dtype=y.dtype)
    yf = np.ascontiguousarray(y).reshape(b, co, ho * wo)
    out = np.empty((b, ci, h, w), dtype=y.dtype)
    chunks, n = _chunks(b, rows * ho * wo * y.itemsize)

    def scratch():
        return (np.empty((n, rows, ho * wo), dtype=y.dtype),
                np.empty((n, ci, h + 2 * pad, w + 2 * pad), dtype=y.dtype))

    def job(_, b0, b1, bufs):
        m = b1 - b0
        cols = np.matmul(kmat_t, yf[b0:b1], out=bufs[0][:m]).reshape(m, ci, kh, kw, ho, wo)
        xp = bufs[1][:m]
        xp.fill(0)
        # col2im: each kernel offset's column block lands on a strided window
        for i in range(kh):
            rs = slice(i, i + (ho - 1) * stride + 1, stride)
            for j in range(kw):
                xp[:, :, rs, j : j + (wo - 1) * stride + 1 : stride] += cols[:, :, i, j]
        out[b0:b1] = xp[:, :, pad : pad + h, pad : pad + w]

    _run_chunks(chunks, scratch, job)
    return out


def _conv2d_weight_grad_native(x, upstream, kernel_shape, stride, pad):
    b, ci, h, w = x.shape
    co, _, kh, kw = kernel_shape
    ho, wo = upstream.shape[2:]
    rows = ci * kh * kw
    chunks, n = _chunks(b, rows * ho * wo * x.itemsize)
    # the even and the odd chunks sum, each in chunk order, into separate
    # halves, added last. Each half has one worker, so the result is the
    # same for one worker and for two
    halves = np.zeros((2, co, rows), dtype=x.dtype)

    def scratch():
        return (np.empty(n * rows * ho * wo, dtype=x.dtype), _chunk_windows(x, n, kh, kw, stride, pad),
                np.empty(co * n * ho * wo, dtype=x.dtype), np.empty((co, rows), dtype=x.dtype))

    def job(i, b0, b1, bufs):
        cbuf, windows, ubuf, part = bufs
        m = b1 - b0
        # batch on the GEMM's inner dimension: cols[C_in*k*k, m*H'*W']
        cols = cbuf[: rows * m * ho * wo].reshape(ci, kh, kw, m, ho, wo)
        np.copyto(cols, windows(b0, b1).transpose(1, 2, 3, 0, 4, 5))
        u = ubuf[: co * m * ho * wo].reshape(co, m, ho, wo)
        np.copyto(u, upstream[b0:b1].transpose(1, 0, 2, 3))
        np.matmul(u.reshape(co, m * ho * wo), cols.reshape(rows, m * ho * wo).T, out=part)
        halves[i % 2] += part

    _run_chunks(chunks, scratch, job)
    return (halves[0] + halves[1]).reshape(kernel_shape)
