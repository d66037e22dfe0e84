"""Float64 sliding-window references for the three convolution kernels,
and the correctness gate that compares `revnet.tensor` against them.

The references are written from the definitions, not from the per-offset
loop in `revnet.tensor`: forward and weight gradient contract a
sliding-window view of the padded input, and the transposed convolution
is a stride-1 "full" correlation of the zero-dilated input with the
flipped, channel-swapped kernel, cropped by the padding.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from revnet import tensor
from revnet.layers import Conv

# float32 accumulation over at most C_in*k*k = 3200 terms stays orders of
# magnitude below this share of the summed term magnitudes; a wrong kernel
# misses it by orders of magnitude the other way
RTOL = 1e-4


def _windows(x, k, stride, pad):
    """[B,C,H,W] -> [B,C,Ho,Wo,k,k] view of the zero-padded input."""
    xp = np.pad(np.asarray(x, dtype=np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    return sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]


def conv2d(x, kernel, stride, pad):
    k = kernel.shape[2]
    return np.einsum("bchwij,ocij->bohw", _windows(x, k, stride, pad),
                     np.asarray(kernel, dtype=np.float64), optimize=True)


def conv2d_transposed(y, kernel, stride, pad):
    b, co, ho, wo = y.shape
    k = kernel.shape[2]
    dilated = np.zeros((b, co, (ho - 1) * stride + 1, (wo - 1) * stride + 1))
    dilated[:, :, ::stride, ::stride] = y
    flipped = np.asarray(kernel, dtype=np.float64)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    full = conv2d(dilated, flipped, 1, k - 1)
    return full[:, :, pad:full.shape[2] - pad, pad:full.shape[3] - pad]


def conv2d_weight_grad(x, upstream, kernel_shape, stride, pad):
    return np.einsum("bohw,bchwij->ocij", np.asarray(upstream, dtype=np.float64),
                     _windows(x, kernel_shape[2], stride, pad), optimize=True)


def _compare(label, got, want, scale):
    """Elementwise |got - want| <= RTOL * scale, where scale is the same
    operation applied to absolute values (the summed term magnitudes)."""
    if got.shape != want.shape:
        return f"{label}: shape {got.shape}, want {want.shape}"
    err = np.abs(got.astype(np.float64) - want)
    bad = err > RTOL * scale + 1e-30
    if not np.all(np.isfinite(got)) or np.any(bad):
        worst = float(np.max(err / (scale + 1e-30)))
        return f"{label}: {int(np.sum(bad))} of {got.size} entries off (worst {worst:.3g} of term scale)"
    return None


def check_conv_kernels(net, rng, batch=2):
    """Checks conv2d, conv2d_transposed and conv2d_weight_grad at every conv
    layer's real shapes and kernel on a small batch, and the adjoint
    identity <conv2d(a,K), b> == <a, conv2d_transposed(b,K)>. Returns a
    list of failure messages (empty when all pass)."""
    failures = []
    for i, layer in enumerate(net.layers):
        if not isinstance(layer, Conv):
            continue
        K, s, p = layer.W, layer.stride, layer.pad
        absK = np.abs(K)
        a = rng.standard_normal((batch,) + net.shapes[i]).astype(K.dtype)
        b = rng.standard_normal((batch,) + net.shapes[i + 1]).astype(K.dtype)
        y = tensor.conv2d(a, K, s, p)
        yt = tensor.conv2d_transposed(b, K, s, p)
        gw = tensor.conv2d_weight_grad(a, b, K.shape, s, p)
        where = f"layer {i} conv {K.shape} on {(batch,) + net.shapes[i]}"
        checks = (
            ("conv2d", y, conv2d(a, K, s, p), conv2d(np.abs(a), absK, s, p)),
            ("conv2d_transposed", yt, conv2d_transposed(b, K, s, p),
             conv2d_transposed(np.abs(b), absK, s, p)),
            ("conv2d_weight_grad", gw, conv2d_weight_grad(a, b, K.shape, s, p),
             conv2d_weight_grad(np.abs(a), np.abs(b), K.shape, s, p)),
        )
        for op, got, want, scale in checks:
            msg = _compare(f"{op} at {where}", got, want, scale)
            if msg:
                failures.append(msg)
        if y.shape == b.shape and yt.shape == a.shape:
            lhs = float(np.sum(y.astype(np.float64) * b))
            rhs = float(np.sum(a.astype(np.float64) * yt))
            scale = float(np.sum(conv2d(np.abs(a), absK, s, p) * np.abs(b)))
            if not abs(lhs - rhs) <= RTOL * scale:
                failures.append(f"adjoint identity at {where}: <conv2d(a,K),b>={lhs:.9g} "
                                f"but <a,conv2d_transposed(b,K)>={rhs:.9g}")
    return failures
