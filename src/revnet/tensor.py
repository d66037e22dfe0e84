"""Dense array primitives for the reversible-network stack.

Arrays are plain numpy ndarrays (row-major, rank <= 4 in practice:
[batch, C, H, W] activations and rank-2 weights). float32 is the training
default; float64 exists for gradient checking. Convolution uses
cross-correlation semantics (no kernel flip) with zero padding.

The three convolution kernels (forward, transposed/adjoint, weight
gradient) are matrix products over the input, lowered one chunk of the
batch at a time through one index map, _shifted's copy of the zero-padded
input (MEC: Cho & Brand, ICML 2017):
    shifted[b, c, j, r, Y, X] = xpad[b, c, s*Y + r, s*X + j],  j < kW, X < W'.
The copy writes only the entries inside the input; the others stay zero
(the weight gradient's copy is zeroed once per chunk length, as its layout
depends on it). It has two forms, and one rule picks one for the forward
conv and for the weight gradient:
  - rows form, where C_in*kW >= _ROW_MIN: r < s and Y < H' + (kH-1)//s.
    Kernel row i = s*a + r reads [.., r, a:a+H', ..] as one [C_in*kW, ...]
    matrix with unit column stride, so each of the kH GEMMs takes a view;
  - full form, where C_in*kW < _ROW_MIN (the 1- and 3-channel input
    convs): r < kH and Y < H', the full im2col (Chellapilla, Puri & Simard
    2006), which one GEMM of depth C_in*kW*kH reads whole, with the kernel
    permuted to (c, j, i).
The forward conv puts the batch first and sums kernel rows @ view over its
GEMMs, per sample, straight into the [B, C_out, H'*W'] output, the later
GEMMs added through a buffer. The weight gradient puts the batch between
rows and columns, shifted[c, j, r, Y, n, X], so that each view is one
[.., H'*n*W'] matrix and view @ upstream[C_out, H'*n*W']^T gives its
kernel rows' gradient with C_out last; the even chunks and the odd chunks
sum into two halves, in chunk order, and the halves are added, then
transposed, last. The transposed conv takes one of two paths, by one rule:
  - sub-pixel, at every stride s > 1, and at s = 1 where 2*C_in >= C_out
    (square kernel, pad//s <= ceil(k/s)-1): the forward conv at stride 1
    into C_in*s^2 phase channels, with the kernel flipped, channel-swapped
    and split by output phase, each phase then copied, chunk by chunk, to
    its strided pixels of the C-contiguous output (depth-to-space); at
    s = 1, the forward conv with the flipped kernel and padding k-1-pad,
    written straight into the output;
  - col2im elsewhere (in the nets, the stride-1 reverses of the 1- and
    3-channel input convs), the adjoint of the full form: kernel^T @ y
    gives a chunk's full copy, and the copy's adjoint adds each of its
    spans into the output.
All of a chunk's scratch (the copy, accumulation, upstream and store
buffers) fits _COL_BYTES bytes, or holds one sample where that is larger.
The chunks are balanced: an even number of them, their lengths differing
by at most one.

One persistent helper thread runs beside the calling thread, and
run_lanes is its one door: it runs two independent chains of work side by
side, the first on the caller and the second on the helper, each lane's
conv kernels on one worker, the lane's own thread, so a lane never waits
on the helper it runs on. A conv kernel's chunks are two such lanes, the
even chunks and the odd ones, each with its own buffers, while every BLAS
call stays as threaded as the BLAS is; so are a training step's class
backward and its reconstruction chain. The worker count is max(1,
budget // BLAS threads), at most 2, where the budget is the set_threads
cap (REVNET_THREADS in the CLI) or else the CPUs this process may run on.
So a BLAS pinned to one thread (OPENBLAS_NUM_THREADS=1) on two CPUs gets
two workers, a BLAS threaded over every CPU gets one, and set_threads(1)
(--deterministic) gets one; with one worker the lanes run one after the
other on the caller. Forward and transposed chunks write disjoint output
slices, and the weight gradient's two halves do not depend on who
computed them, so all three kernels give the same bits for one worker and
for two.
"""

import contextlib
import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ShapeError

SINGLE = np.float32

# Cap on all the per-chunk scratch of a conv kernel: the shifted copy of the
# input (or col2im's columns), accumulation, upstream and store buffers.
# An unchunked im2col buffer for a 32-channel 5x5 conv on 32x32 maps is
# about 100 MB at batch 32. On a 2-CPU x86-64 VM with 2 MB of L2 per core,
# caps of 1-4 MB ran every layer shape of the small and baseline nets
# fastest; 8 and 16 MB were up to 1.5x slower on the 32-64 channel layers.
_COL_BYTES = 2 << 20

# The forward conv and the weight gradient run one kernel row per GEMM where
# C_in*kW (one row's GEMM depth) is at least this, else all kH rows in one
# GEMM (the full im2col). On the same VM, by one-worker CPU
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


class _Lane(threading.local):
    on = False  # this thread is running a lane of run_lanes


_LANE = _Lane()


def _conv_workers():
    """Workers for the conv batch chunks: max(1, budget // BLAS threads), at
    most two (the caller and one helper thread), and one where the BLAS
    thread count cannot be read, or inside a lane of run_lanes. Worked out
    on first use and after each set_threads, never per kernel call."""
    global _CONV_WORKERS
    if _LANE.on:
        return 1
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


def run_lanes(first, second):
    """(first(), second()): first on the caller and second on the helper
    thread, side by side, where there are two conv workers, else one after
    the other on the caller. Inside a lane the conv kernels run on one
    worker, so a lane never waits on the helper it runs on. The helper's
    lane runs under the caller's errstate (np.errstate is per thread in
    numpy 1.x, per context in 2.x), and an exception in either lane
    propagates only after both have ended."""
    if _conv_workers() < 2:
        return first(), second()
    errs = np.geterr()

    def lane(fn):
        _LANE.on = True
        try:
            return fn()
        finally:
            _LANE.on = False

    def helper_lane():
        with np.errstate(**errs):
            return lane(second)

    done = _helper().submit(helper_lane)
    try:
        a = lane(first)
    finally:
        done.exception()
    return a, done.result()


def _run_chunks(chunks, scratch, job):
    """Call job(i, b0, b1, bufs) for every batch chunk i = (b0, b1), on up to
    two workers, each with its own scratch() buffers: the even chunks and
    the odd ones run as the two lanes of run_lanes. Every buffer is
    allocated here, on the caller: a heap of the helper thread's own would
    add its high-water mark to the peak RSS."""
    workers = min(_conv_workers(), len(chunks))

    def run(first, bufs):
        for i in range(first, len(chunks), workers):
            job(i, *chunks[i], bufs)

    if workers == 1:
        run(0, scratch())
        return
    odd = scratch()
    run_lanes(lambda: run(0, scratch()), lambda: run(1, odd))


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


def _require_batched(op, *arrays):
    for a in arrays:
        if a.ndim != 4:
            raise ShapeError(f"{op}: input must be [B,C,H,W], got {a.shape}")


def conv2d(x, kernel, stride=1, pad=0):
    """Cross-correlate [B,C_in,H,W] with [C_out,C_in,kH,kW] -> [B,C_out,H',W']."""
    _require_batched("conv2d", x)
    ci = kernel.shape[1]
    if x.shape[1] != ci:
        raise ShapeError(f"conv2d: input has {x.shape[1]} channels, kernel expects {ci}")
    return _conv2d(x, kernel, stride, pad)


def conv2d_transposed(y, kernel, stride=1, pad=0):
    """Exact adjoint of conv2d with the same kernel/stride/pad.

    [B,C_out,H',W'] -> [B,C_in,H,W] with H = (H'-1)*stride + kH - 2*pad.
    For every a, b of matching shapes, <conv2d(a,K), b> == <a, conv2d_transposed(b,K)>.
    """
    _require_batched("conv2d_transposed", y)
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
        return _conv2d_transposed_subpixel(y, kernel, stride, pad, h, w)
    # col2im: kernel^T @ y gives each chunk's full-form shifted copy, whose
    # adjoint adds it into the output
    shape, _, _, add = _shifted((ci, h, w), kh, kw, stride, pad, ho, wo, 0, True)
    rows = ci * kw * kh
    kmat_t = np.ascontiguousarray(kernel.transpose(1, 3, 2, 0), dtype=y.dtype).reshape(rows, co)
    yf = np.ascontiguousarray(y).reshape(b, co, ho * wo)
    out = np.zeros((b, ci, h, w), dtype=y.dtype)
    chunks, n = _chunks(b, rows * ho * wo * y.itemsize)

    def job(_, b0, b1, cols):
        m = b1 - b0
        add(np.matmul(kmat_t, yf[b0:b1], out=cols[:m]).reshape(shape(m)), out[b0:b1])

    _run_chunks(chunks, lambda: np.empty((n, rows, ho * wo), dtype=y.dtype), job)
    return out


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
    through _shifted's full form where C_in*kW < _ROW_MIN, else its rows
    form. x[b0:b1] is copied once into the shifted copy with the batch
    between rows and columns, shifted[c, j, r, Y, m, X], and the upstream
    chunk into u[C_out, H', m, W']. Each GEMM reads its kernel rows of the
    copy as one [C_in*kW*rows, H'*m*W'] matrix with unit column stride, and
    its slice of the chunk's partial [GEMMs, C_in, kW, rows, C_out] gets
    that matrix @ u^T. Each worker's copy is one flat buffer, shaped to each
    chunk's m: the balanced chunks have at most two lengths, the longer
    first, so the entries outside the input are zeroed when the copy is
    first shaped and again at the one change of m."""
    _require_batched("conv2d_weight_grad", x, upstream)
    b, ci, h, w = x.shape
    co, _, kh, kw = kernel_shape
    ho, wo = _conv_geometry(h, w, kh, kw, stride, pad)
    if upstream.shape != (b, co, ho, wo) or kernel_shape[1] != ci:
        raise ShapeError(f"conv2d_weight_grad: upstream {upstream.shape} and input {x.shape} "
                         f"do not fit kernel {tuple(kernel_shape)} at stride {stride}, pad {pad}")
    shape, gemms, copy, _ = _shifted((ci, h, w), kh, kw, stride, pad, ho, wo, 4, ci * kw < _ROW_MIN)
    sample = math.prod(shape(1))
    part_shape = (len(gemms), ci, kw, kh // len(gemms), co)
    chunks, n = _chunks(b, (sample + co * ho * wo) * x.itemsize)
    # the even and the odd chunks sum, each in chunk order, into separate
    # halves, added last. Each half has one worker, so the result is the
    # same for one worker and for two. The halves hold the gradient as
    # part_shape, transposed once at the end
    halves = np.zeros((2, *part_shape), dtype=x.dtype)

    def buffers():
        return [np.empty(n * sample, dtype=x.dtype), np.empty(co * n * ho * wo, dtype=x.dtype),
                np.empty(part_shape, dtype=x.dtype), None]

    def job(i, b0, b1, bufs):
        flat, ubuf, part, shifted = bufs
        m = b1 - b0
        if shifted is None or shifted.shape[4] != m:
            shifted = bufs[3] = flat[: m * sample].reshape(shape(m))
            shifted.fill(0)
        copy(x[b0:b1], shifted)
        u = ubuf[: co * m * ho * wo].reshape(co, ho, m, wo)
        np.copyto(u, upstream[b0:b1].transpose(1, 2, 0, 3))
        ut = u.reshape(co, ho * m * wo).T
        for g, (rs, ys) in enumerate(gemms):
            np.matmul(shifted[:, :, rs, ys].reshape(-1, ho * m * wo), ut, out=part[g].reshape(-1, co))
        halves[i % 2] += part

    _run_chunks(chunks, buffers, job)
    return np.ascontiguousarray((halves[0] + halves[1]).transpose(4, 1, 0, 3, 2)).reshape(co, ci, kh, kw)


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


def _shifted(chw, kh, kw, s, pad, ho, wo, axis, full):
    """The shifted copy through which every conv kernel lowers its input
    (MEC, Cho & Brand 2017): shifted[b, c, j, r, Y, X] = xpad[b, c, s*Y + r,
    s*X + j] for j < kW and X < W', with its batch axis moved to position
    axis, in one of two forms:
      - rows form: r < s and Y < H' + (kH-1)//s. Kernel row i = s*a + r
        reads [.., r, a:a+H', ..], one GEMM per kernel row;
      - full form, the full im2col (Chellapilla et al. 2006): r < kH and
        Y < H', all of which one GEMM reads, the kernel permuted to (c, j, i).
    Returns shape(m), the copy's shape for a batch of m; gemms, the (r, Y)
    slices each GEMM reads, kH//len(gemms) kernel rows each, in kernel-row
    order; copy(src, shifted), which copies src [m, C, H, W] into shifted;
    and add(shifted, dst), its adjoint, which adds shifted into dst
    [m, C, H, W]. Both touch only the entries inside the input, so copy
    leaves the others as the caller put them: zeros, for a conv."""
    ci, h, w = chw
    depth = kh if full else s  # the extent of r
    rows = kh if full else 1  # kernel rows per GEMM
    yn = ho + (kh - 1) // depth
    gemms = [(slice(i % depth, i % depth + rows), slice(i // depth, i // depth + ho))
             for i in range(0, kh, rows)]

    def span(offset, size, n):
        # the shifted indices t < n whose source s*t + offset - pad lies in
        # [0, size), as a destination slice and the matching source slice
        lo = max(0, -((offset - pad) // s))
        hi = min(n, (size - 1 + pad - offset) // s + 1)
        return (slice(lo, hi), slice(s * lo + offset - pad, s * (hi - 1) + offset - pad + 1, s)) \
            if hi > lo else None

    # (j, r, Y slices, X slices) of every non-empty span, by r then j:
    # col2im adds them in kernel-offset order
    spans = []
    for r in range(depth):
        for j in range(kw):
            ys, xs = span(r, h, yn), span(j, w, wo)
            if ys and xs:
                spans.append((j, r, ys, xs))

    def shape(m):
        dims = [ci, kw, depth, yn, wo]
        dims.insert(axis, m)
        return tuple(dims)

    def copy(src, shifted):
        shifted = np.moveaxis(shifted, axis, 0)
        for j, r, (yd, ysrc), (xd, xsrc) in spans:
            shifted[:, :, j, r, yd, xd] = src[:, :, ysrc, xsrc]

    def add(shifted, dst):
        shifted = np.moveaxis(shifted, axis, 0)
        for j, r, (yd, ysrc), (xd, xsrc) in spans:
            dst[:, :, ysrc, xsrc] += shifted[:, :, j, r, yd, xd]

    return shape, gemms, copy, add


def _conv2d(x, kernel, stride, pad, store=None):
    """conv2d of a batched input, lowered through _shifted's full form where
    C_in*kW < _ROW_MIN, else its rows form. The sub-pixel path of
    conv2d_transposed calls this, not conv2d, so a wrapper counting conv2d
    calls sees none from it. x[b0:b1] is copied once into the shifted copy,
    the batch first, whose entries outside the input stay zero from
    allocation on. Each GEMM reads its kernel rows of it as one
    [C_in*kW*rows, H'*W'] matrix per sample, with unit column stride, so it
    takes the view without a copy, and the chunk's result z gets the sum
    over GEMMs of those kernel rows @ that view: the first written, each
    later one added through an accumulation buffer. z is the chunk's slice
    of the output, or, with store, the worker's own buffer, handed to
    store(b0, b1, z) as [b1-b0, C_out, H', W'], and nothing is returned."""
    b, ci, h, w = x.shape
    co, _, kh, kw = kernel.shape
    ho, wo = _conv_geometry(h, w, kh, kw, stride, pad)
    shape, gemms, copy, _ = _shifted((ci, h, w), kh, kw, stride, pad, ho, wo, 0, ci * kw < _ROW_MIN)
    kmats = (np.ascontiguousarray(kernel.reshape(co, ci, len(gemms), -1, kw).transpose(2, 0, 1, 4, 3),
                                  dtype=x.dtype).reshape(len(gemms), co, -1))
    out = None if store else np.empty((b, co, ho * wo), dtype=x.dtype)
    chunks, n = _chunks(b, (math.prod(shape(1)) + co * ho * wo * ((len(gemms) > 1) + (store is not None)))
                        * x.itemsize)

    def buffer(needed):
        return np.empty((n, co, ho * wo), dtype=x.dtype) if needed else None

    def buffers():
        shifted = np.zeros(shape(n), dtype=x.dtype)
        views = [shifted[:, :, :, rs, ys].reshape(n, -1, ho * wo) for rs, ys in gemms]
        return shifted, views, buffer(len(gemms) > 1), buffer(store is not None)

    def job(_, b0, b1, bufs):
        shifted, views, acc, z = bufs
        m = b1 - b0
        z = out[b0:b1] if store is None else z[:m]
        copy(x[b0:b1], shifted[:m])
        np.matmul(kmats[0], views[0][:m], out=z)
        for kmat, view in zip(kmats[1:], views[1:]):
            z += np.matmul(kmat, view[:m], out=acc[:m])
        if store is not None:
            store(b0, b1, z.reshape(m, co, ho, wo))

    _run_chunks(chunks, buffers, job)
    return None if store else out.reshape(b, co, ho, wo)
