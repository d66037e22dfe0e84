"""Dense array primitives for the reversible-network stack.

Arrays are plain numpy ndarrays (row-major, rank <= 4 in practice:
[batch, C, H, W] activations and rank-2 weights). float32 is the training
default; float64 exists for gradient checking. Convolution uses
cross-correlation semantics (no kernel flip) with zero padding.

The three convolution kernels (forward, transposed/adjoint, weight
gradient) are matrix products over the input, lowered one chunk of the
batch at a time. All of a chunk's scratch (lowered input, padded input,
accumulation and store buffers) fits _COL_BYTES bytes, or holds one
sample where that is larger:
  - forward, by kernel rows (Cho & Brand, MEC, ICML 2017) where C_in*kW >=
    _ROW_MIN: the chunk is copied once into kW column-shifted copies of
    the padded input, a strided view of which is, for each kernel row,
    a [C_in*kW, H'*W'] matrix per sample; out = sum over kernel rows i of
    kernel[:, :, i, :] @ that view, written straight into the
    [B, C_out, H'*W'] output, the later rows added through a buffer.
    Where C_in*kW < _ROW_MIN (the 1- and 3-channel input convs), by the
    full im2col: a sliding-window view of the padded input is copied into
    columns, and kernel[C_out, C_in*k*k] @ cols[n, C_in*k*k, H'*W'];
  - weight gradient, with the batch on the GEMM's inner dimension, by the
    same rule: by kernel rows, the chunk is copied once into the same
    shifted copy with the batch between rows and columns, so that for each
    kernel row i a strided view of it is one [C_in*kW, H'*n*W'] matrix, and
    view @ upstream[C_out, H'*n*W']^T gives row i of the kernel gradient;
    by the full im2col, cols[C_in*k*k, n*H'*W'] @ upstream[C_out, n*H'*W']^T
    gives all of it. Either way C_out comes last; the even chunks and the
    odd chunks sum into two halves, in chunk order, and the halves are
    added, then transposed, last;
  - transposed, one of two paths, chosen by one rule: at every stride
    s > 1, and at s = 1 where 2*C_in >= C_out (square kernel,
    pad//s <= ceil(k/s)-1), the sub-pixel path runs the forward kernel at
    stride 1 into C_in*s^2 phase channels, with the kernel flipped,
    channel-swapped and split by output phase, and copies each phase, chunk
    by chunk, to its strided pixels of the C-contiguous output
    (depth-to-space); at s = 1 that is the forward conv with the flipped
    kernel and padding k-1-pad, written straight into the output.
    Elsewhere (in the nets, the stride-1 reverses of the 1- and 3-channel
    input convs), col2im: kernel^T @ y gives the columns, scattered back with one strided
    add per kernel offset into a padded chunk, whose interior is copied to
    the output.
Padding also happens one chunk at a time, into a buffer whose border is
zeroed once (the weight gradient's shifted copy: once per chunk length,
as its layout depends on it). The chunks are balanced: an even number of them, their
lengths differing by at most one.

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
"""

import contextlib
import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError

SINGLE = np.float32

# Cap on all the per-chunk scratch of a conv kernel: lowered input (im2col
# columns or shifted rows), padded input, accumulation and store buffers.
# An unchunked im2col buffer for a 32-channel 5x5 conv on 32x32 maps is
# about 100 MB at batch 32. On a 2-CPU x86-64 VM with 2 MB of L2 per core,
# caps of 1-4 MB ran every layer shape of the small and baseline nets
# fastest; 8 and 16 MB were up to 1.5x slower on the 32-64 channel layers.
_COL_BYTES = 2 << 20

# _conv2d lowers by kernel rows where C_in*kW (one row's GEMM depth) is at
# least this, else by the full im2col. On the same VM, by one-worker CPU
# time, the row path took 0.94-1.21x im2col's time at C_in*kW = 15
# (baseline's 3-channel input conv, no gain), 0.81-0.88x at 20, and
# 1.6-2.3x at 5 (small's 1-channel input conv).
_ROW_MIN = 16

# Scratch block of blockwise. On the same VM, LeakyRelu's forward over a
# 128x16x28x28 float32 map ran fastest with 256-512 KB blocks (0.65-0.70
# ms in place); 16 KB blocks took 2.2 ms and 1 MB blocks 0.95 ms.
_BLOCK_BYTES = 256 << 10


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
    so the cap goes through the loaded library's own API."""
    global _THREAD_BUDGET, _CONV_WORKERS
    if n is None:
        raw = os.environ.get("REVNET_THREADS", "")
        if not raw.strip().isdigit():
            return None
        n = int(raw)
    n = max(1, int(n))
    api = _openblas()
    if api is not None:
        api[0](min(n, api[2]))
    _THREAD_BUDGET, _CONV_WORKERS = n, None
    return n


@contextlib.contextmanager
def threads_restored():
    """Undo, on leaving the block by any path, every set_threads made inside
    it: the budget, the conv worker count and the OpenBLAS thread count."""
    global _THREAD_BUDGET, _CONV_WORKERS
    budget, workers = _THREAD_BUDGET, _CONV_WORKERS
    api = _openblas()
    blas = None if api is None else api[1]()
    try:
        yield
    finally:
        _THREAD_BUDGET, _CONV_WORKERS = budget, workers
        if api is not None:
            api[0](blas)


def conv_backend():
    """The conv kernels' backend: always the numpy one defined here."""
    return "native"


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
    ci = kernel.shape[1]
    if x.shape[1] != ci:
        raise ShapeError(f"conv2d: input has {x.shape[1]} channels, kernel expects {ci}")
    out = _conv2d(x, kernel, stride, pad)
    return out[0] if squeeze else out


def conv2d_transposed(y, kernel, stride=1, pad=0):
    """Exact adjoint of conv2d with the same kernel/stride/pad.

    [B,C_out,H',W'] -> [B,C_in,H,W] with H = (H'-1)*stride + kH - 2*pad.
    For every a, b of matching shapes, <conv2d(a,K), b> == <a, conv2d_transposed(b,K)>.
    """
    y, squeeze = _as_batched(y)
    b, _, ho, wo = y.shape
    co, ci, kh, kw = kernel.shape
    if y.shape[1] != co:
        raise ShapeError(f"conv2d_transposed: input has {y.shape[1]} channels, kernel expects {co}")
    h = (ho - 1) * stride + kh - 2 * pad
    w = (wo - 1) * stride + kw - 2 * pad
    if h <= 0 or w <= 0:
        raise ShapeError(f"conv2d_transposed: degenerate output {h}x{w}")
    if (stride > 1 or 2 * ci >= co) and kh == kw and pad // stride < -(-kh // stride):
        # at stride 1 the sub-pixel path is the flipped forward conv, which
        # loses to col2im where C_in is small next to C_out (1.1-1.7x its
        # time at the 1- and 3-channel input convs); at stride > 1 its phase
        # conv is s*s times smaller, and it won at every shape measured,
        # small's 16 -> 1 folded input-conv reverse included (0.6x)
        out = _conv2d_transposed_subpixel(y, kernel, stride, pad, h, w)
        return out[0] if squeeze else out
    rows = ci * kh * kw
    kmat_t = np.ascontiguousarray(kernel.reshape(co, rows).T, dtype=y.dtype)
    yf = np.ascontiguousarray(y).reshape(b, co, ho * wo)
    out = np.empty((b, ci, h, w), dtype=y.dtype)
    chunks, n = _chunks(b, (rows * ho * wo + ci * (h + 2 * pad) * (w + 2 * pad)) * y.itemsize)

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
    return out[0] if squeeze else out


def _conv2d_transposed_subpixel(y, kernel, s, pad, h, w):
    """conv2d_transposed of a batched y as one stride-1 forward conv into
    C_in*s*s phase channels, then depth-to-space (Shi et al. 2016).

    With t = ceil(k/s) and K zero-padded to t*s, output pixel
    (s*i + r - pad%s, s*j + q - pad%s) of channel c is output pixel (i, j)
    of phase channel c*s*s + r*s + q of the forward conv of y, padded by
    t-1-pad//s, with Kp[c*s*s + r*s + q, o, a, b] = K[o, c, s(t-1-a)+r,
    s(t-1-b)+q]. At s = 1 that is the forward conv with the flipped,
    channel-swapped kernel, written straight into the output."""
    co, ci, k, _ = kernel.shape
    t = -(-k // s)
    # pad only where k is not a multiple of s: one more kernel-sized array
    # per call (51 KB at small's 16->32 layer) raised the benchmark's peak
    # RSS on the small net by 1.7-4.2 MB, through where the allocator then
    # placed larger buffers
    if t * s != k:
        kernel = np.pad(kernel, ((0, 0), (0, 0), (0, t * s - k), (0, t * s - k)))
    kphase = (kernel.reshape(co, ci, t, s, t, s)[:, :, ::-1, :, ::-1]
              .transpose(1, 3, 5, 0, 2, 4).reshape(ci * s * s, co, t, t))
    if s == 1:
        return _conv2d(y, kphase, 1, t - 1 - pad)
    shift = pad % s
    out = np.empty((y.shape[0], ci, h, w), dtype=y.dtype)

    def depth_to_space(b0, b1, z):
        z = z.reshape(b1 - b0, ci, s, s, *z.shape[2:])
        for r in range(s):
            i0 = int(r < shift)  # the phase's first row inside the output
            for q in range(s):
                j0 = int(q < shift)
                dst = out[b0:b1, :, s * i0 + r - shift :: s, s * j0 + q - shift :: s]
                dst[...] = z[:, :, r, q, i0 : i0 + dst.shape[2], j0 : j0 + dst.shape[3]]

    _conv2d(y, kphase, 1, t - 1 - pad // s, store=depth_to_space)
    return out


def conv2d_weight_grad(x, upstream, kernel_shape, stride=1, pad=0):
    """Gradient of sum(upstream * conv2d(x, K)) with respect to K, lowered
    by kernel rows where C_in*kW >= _ROW_MIN, else by the full im2col."""
    x, _ = _as_batched(x)
    upstream, _ = _as_batched(upstream)
    b, ci, h, w = x.shape
    co, _, kh, kw = kernel_shape
    if upstream.shape != (b, co, *_conv_geometry(h, w, kh, kw, stride, pad)) or kernel_shape[1] != ci:
        raise ShapeError(f"conv2d_weight_grad: upstream {upstream.shape} and input {x.shape} "
                         f"do not fit kernel {tuple(kernel_shape)} at stride {stride}, pad {pad}")
    lowering = _im2col_grad if ci * kw < _ROW_MIN else _kernel_rows_grad
    sample, scratch, grad, part_shape, axes = lowering(x, upstream, (kh, kw), stride, pad)
    chunks, n = _chunks(b, sample * x.itemsize)
    # the even and the odd chunks sum, each in chunk order, into separate
    # halves, added last. Each half has one worker, so the result is the
    # same for one worker and for two. The halves hold the gradient with
    # C_out last, transposed once at the end
    halves = np.zeros((2, *part_shape), dtype=x.dtype)

    def buffers():
        return scratch(n), np.empty(part_shape, dtype=x.dtype)

    def job(i, b0, b1, bufs):
        grad(b0, b1, *bufs)
        halves[i % 2] += bufs[1]

    _run_chunks(chunks, buffers, job)
    return np.ascontiguousarray((halves[0] + halves[1]).transpose(axes))


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
    """(start, stop) batch slices, and the largest slice length, for a
    kernel whose per-chunk scratch takes sample_bytes per sample: an even
    number of slices where b allows, their lengths differing by at most one,
    each slice's scratch within _COL_BYTES (or one sample, where that is
    larger). They depend on b and sample_bytes alone, never on the worker
    count, so one worker and two sum the same chunks."""
    cap = max(1, min(b, _COL_BYTES // max(1, sample_bytes)))
    count = -(-b // cap)
    count = min(b, count + count % 2)
    size, extra = divmod(b, count)
    starts = [i * size + min(i, extra) for i in range(count + 1)]
    return list(zip(starts[:-1], starts[1:])), size + (extra > 0)


def _im2col(x, kernel, stride, pad, ho, wo):
    """The full im2col lowering of _conv2d: (per-sample scratch elements,
    scratch(n), conv(b0, b1, bufs, z)), where conv writes kernel[C_out,
    C_in*kH*kW] @ cols[m, C_in*kH*kW, H'*W'] of x[b0:b1] into z."""
    _, ci, h, w = x.shape
    co, _, kh, kw = kernel.shape
    rows = ci * kh * kw
    kmat = kernel.reshape(co, rows).astype(x.dtype, copy=False)

    def scratch(n):
        return np.empty((n, rows, ho * wo), dtype=x.dtype), _chunk_windows(x, n, kh, kw, stride, pad)

    def conv(b0, b1, bufs, z):
        cols = bufs[0][: b1 - b0]
        np.copyto(cols.reshape(b1 - b0, ci, kh, kw, ho, wo), bufs[1](b0, b1))
        np.matmul(kmat, cols, out=z)

    padded = ci * (h + 2 * pad) * (w + 2 * pad) if pad else 0
    return rows * ho * wo + padded, scratch, conv


def _im2col_grad(x, upstream, kernel_hw, stride, pad):
    """The full im2col lowering of conv2d_weight_grad: (per-sample scratch
    elements, scratch(n), grad(b0, b1, bufs, part), the partial's shape, the
    axes that make it [C_out, C_in, kH, kW]), where grad writes cols[C_in*kH*kW,
    m*H'*W'] @ upstream[C_out, m*H'*W']^T of the chunk b0:b1, the batch on the
    GEMM's inner dimension, into part [C_in, kH, kW, C_out]."""
    _, ci, h, w = x.shape
    co, ho, wo = upstream.shape[1:]
    kh, kw = kernel_hw
    rows = ci * kh * kw

    def scratch(n):
        return (np.empty(n * rows * ho * wo, dtype=x.dtype), _chunk_windows(x, n, kh, kw, stride, pad),
                np.empty(co * n * ho * wo, dtype=x.dtype))

    def grad(b0, b1, bufs, part):
        cbuf, windows, ubuf = bufs
        m = b1 - b0
        cols = cbuf[: rows * m * ho * wo].reshape(ci, kh, kw, m, ho, wo)
        np.copyto(cols, windows(b0, b1).transpose(1, 2, 3, 0, 4, 5))
        u = ubuf[: co * m * ho * wo].reshape(co, m, ho, wo)
        np.copyto(u, upstream[b0:b1].transpose(1, 0, 2, 3))
        np.matmul(cols.reshape(rows, m * ho * wo), u.reshape(co, m * ho * wo).T, out=part.reshape(rows, co))

    padded = ci * (h + 2 * pad) * (w + 2 * pad) if pad else 0
    return (rows + co) * ho * wo + padded, scratch, grad, (ci, kh, kw, co), (3, 0, 1, 2)


def _shifted(x, kh, kw, s, pad, ho, wo, axis):
    """The shifted copy of the kernel-row lowerings (MEC, Cho & Brand 2017),
    shifted[b, c, j, r, Y, X] = xpad[b, c, s*Y + r, s*X + j] for j < kW,
    r < s, Y < H' + (kH-1)//s and X < W', with its batch axis moved to
    position axis. Returns shape(m), the copy's shape for a batch of m, and
    copy(shifted, b0, b1), which copies x[b0:b1] into shifted. It writes
    only the entries inside the input, so the others keep whatever the
    caller put there: zeros, for a conv."""
    _, ci, h, w = x.shape
    yn = ho + (kh - 1) // s

    def span(offset, size, n):
        # the shifted indices t < n whose source s*t + offset - pad lies in
        # [0, size), as a destination slice and the matching source slice
        lo = max(0, -((offset - pad) // s))
        hi = min(n, (size - 1 + pad - offset) // s + 1)
        return (slice(lo, hi), slice(s * lo + offset - pad, s * (hi - 1) + offset - pad + 1, s)) \
            if hi > lo else None

    copies = []  # (j, r, rows, columns) of every non-empty copy
    for j in range(kw):
        for r in range(s):
            ys, xs = span(r, h, yn), span(j, w, wo)
            if ys and xs:
                copies.append((j, r, ys, xs))

    def shape(m):
        dims = [ci, kw, s, yn, wo]
        dims.insert(axis, m)
        return tuple(dims)

    def copy(shifted, b0, b1):
        shifted = np.moveaxis(shifted, axis, 0)
        for j, r, (yd, ysrc), (xd, xsrc) in copies:
            shifted[:, :, j, r, yd, xd] = x[b0:b1, :, ysrc, xsrc]

    return shape, copy


def _kernel_rows(x, kernel, s, pad, ho, wo):
    """The kernel-row lowering of _conv2d, in the same form as _im2col.
    x[b0:b1] is copied once into _shifted's copy, the batch first, whose
    entries outside the input stay zero from allocation on. Kernel row
    i = s*a + r then reads shifted[:, :, :, r, a:a+H'] as one
    [C_in*kW, H'*W'] matrix per sample, with unit column stride, so the GEMM
    takes it without a copy, and z gets the sum over i of kernel[:, :, i, :]
    @ that view: row 0 written first, each later row added through an
    accumulation buffer."""
    co, ci, kh, kw = kernel.shape
    kmats = np.ascontiguousarray(kernel.transpose(2, 0, 1, 3), dtype=x.dtype).reshape(kh, co, ci * kw)
    shape, copy = _shifted(x, kh, kw, s, pad, ho, wo, 0)

    def scratch(n):
        shifted = np.zeros(shape(n), dtype=x.dtype)
        views = [shifted[:, :, :, i % s, i // s : i // s + ho].reshape(n, ci * kw, ho * wo)
                 for i in range(kh)]
        return shifted, views, np.empty((n, co, ho * wo), dtype=x.dtype) if kh > 1 else None

    def conv(b0, b1, bufs, z):
        shifted, views, acc = bufs
        m = b1 - b0
        copy(shifted[:m], b0, b1)
        np.matmul(kmats[0], views[0][:m], out=z)
        for i in range(1, kh):
            z += np.matmul(kmats[i], views[i][:m], out=acc[:m])

    return math.prod(shape(1)) + (co * ho * wo if kh > 1 else 0), scratch, conv


def _kernel_rows_grad(x, upstream, kernel_hw, s, pad):
    """The kernel-row lowering of conv2d_weight_grad, in the same form as
    _im2col_grad. x[b0:b1] is copied once into _shifted's copy with the
    batch between rows and columns, shifted[c, j, r, Y, m, X], and the
    upstream chunk into u[C_out, H', m, W']. Kernel row i = s*a + r then
    reads shifted[:, :, r, a:a+H'] as one [C_in*kW, H'*m*W'] matrix with unit
    column stride, and part[i] [C_in, kW, C_out] gets that matrix @ u^T.
    Each worker's copy is one flat buffer, shaped to each chunk's m: the
    balanced chunks have at most two lengths, the longer first, so the
    entries outside the input are zeroed when the copy is first shaped and
    again at the one change of m."""
    ci = x.shape[1]
    co, ho, wo = upstream.shape[1:]
    kh, kw = kernel_hw
    shape, copy = _shifted(x, kh, kw, s, pad, ho, wo, 4)
    sample = math.prod(shape(1))

    def scratch(n):
        return np.empty(n * sample, dtype=x.dtype), np.empty(co * n * ho * wo, dtype=x.dtype), [None]

    def grad(b0, b1, bufs, part):
        flat, ubuf, shaped = bufs
        m = b1 - b0
        if shaped[0] is None or shaped[0].shape[4] != m:
            shaped[0] = flat[: m * sample].reshape(shape(m))
            shaped[0].fill(0)
        shifted = shaped[0]
        copy(shifted, b0, b1)
        u = ubuf[: co * m * ho * wo].reshape(co, ho, m, wo)
        np.copyto(u, upstream[b0:b1].transpose(1, 2, 0, 3))
        ut = u.reshape(co, ho * m * wo).T
        for i in range(kh):
            a = i // s
            np.matmul(shifted[:, :, i % s, a : a + ho].reshape(ci * kw, ho * m * wo), ut,
                      out=part[i].reshape(ci * kw, co))

    return sample + co * ho * wo, scratch, grad, (kh, ci, kw, co), (3, 1, 0, 2)


def _conv2d(x, kernel, stride, pad, store=None):
    """conv2d of a batched input, lowered by kernel rows where C_in*kW >=
    _ROW_MIN, else by the full im2col. The sub-pixel path of
    conv2d_transposed calls this, not conv2d, so a wrapper counting conv2d
    calls sees none from it. With store, nothing is returned: each chunk's
    result goes to store(b0, b1, z), z [b1-b0, C_out, H', W'] in the
    worker's own buffer."""
    b, ci, h, w = x.shape
    co, _, kh, kw = kernel.shape
    ho, wo = _conv_geometry(h, w, kh, kw, stride, pad)
    lowering = _im2col if ci * kw < _ROW_MIN else _kernel_rows
    sample, scratch, conv = lowering(x, kernel, stride, pad, ho, wo)
    out = None if store else np.empty((b, co, ho * wo), dtype=x.dtype)
    chunks, n = _chunks(b, (sample + (co * ho * wo if store else 0)) * x.itemsize)

    def buffers():
        return scratch(n), np.empty((n, co, ho * wo), dtype=x.dtype) if store else None

    def job(_, b0, b1, bufs):
        z = out[b0:b1] if store is None else bufs[1][: b1 - b0]
        conv(b0, b1, bufs[0], z)
        if store is not None:
            store(b0, b1, z.reshape(b1 - b0, co, ho, wo))

    _run_chunks(chunks, buffers, job)
    return None if store else out.reshape(b, co, ho, wo)
