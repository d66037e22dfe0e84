"""Layers that run forward, backward (gradients), and in reverse.

Every layer exposes four operations:

    forward(x)            -> (y, cache)
    backward(g, cache)    -> (gx, grads or None)
    reverse(v, ...)       -> (xbar, rcache)     feed-backward reconstruction
    reverse_backward(g, rcache) -> (gv, grads or None)

The reverse path reuses the forward parameters: a Dense layer reverses
through W^T, a Conv layer through the transposed convolution with the same
kernel, so reconstruction-loss gradients land in the same W and b buffers
as classification gradients (tied weights). Parameterized layers add the
*previous* parameterized layer's bias on the reverse step; the network
wires that up and routes the resulting "b_prev" gradient to its owner.

reverse_backward is the adjoint of reverse: it propagates an upstream
gradient arriving at the reconstruction back toward the likelihood end of
the chain, collecting parameter gradients from the tied usage on the way.

Ownership: no op writes into the arrays it is given, and no layer caches
its own output except SoftmaxHead, whose cache is its output o. The ops
of a layer with takes_out (LeakyRelu) also accept out=, numpy's idiom,
and write their result there. The network's walkers pass an op its own
input as out when nothing else refers to that array (see
ReversibleNetwork._forward); called directly, every op is out of place.

Layers hold their parameters (W, b) but no optimizer state: momentum lives
on the network and training.sgd_update applies the step. token() writes a
layer back as its NetworkSpec DSL token, the form checkpoints store.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor
from .errors import ConfigError, DomainError, ShapeError, StateError

SOFTMAX_CLAMP = 1e-12


@dataclass
class ReverseConfig:
    """Switches for the feed-backward path.

    activation: "inverse" applies the exact inverse of LeakyRelu (exists for
        slope > 0); "forward" applies the forward activation, the literal
        Eq.-style variant, for fidelity experiments.
    pool: "upsample" spreads each pooled value over its window
        (nearest-neighbor); "unpool" scatters into the window maxima
        recorded by the forward pass and needs the forward trace.
    """

    activation: str = "inverse"
    pool: str = "upsample"

    def __post_init__(self):
        if self.activation not in ("inverse", "forward"):
            raise ConfigError(f"reverse_activation must be inverse|forward, got {self.activation!r}")
        if self.pool not in ("upsample", "unpool"):
            raise ConfigError(f"reverse_pool must be upsample|unpool, got {self.pool!r}")


class Layer:
    kind = "layer"
    has_params = False
    # the four ops take out= and can write their result into their input
    takes_out = False

    def out_shape_for(self, in_shape):
        raise NotImplementedError

    def forward(self, x):
        raise NotImplementedError

    def backward(self, g, cache):
        raise NotImplementedError

    def reverse(self, v, bias_prev=None, trace_entry=None, rcfg=None):
        raise NotImplementedError

    def reverse_backward(self, g, rcache):
        raise NotImplementedError

    def init_params(self, rng, dtype):
        pass

    def token(self):
        """The layer's canonical token in the NetworkSpec DSL."""
        raise StateError(f"cannot serialize layer {type(self).__name__}")

    def __repr__(self):
        return self.token()


def _add_bias_prev(y, bias_prev):
    """Add the previous layer's bias to the fresh array y in place,
    broadcasting per channel for maps."""
    if bias_prev is None:
        return y
    if y.ndim == 4:
        if bias_prev.size != y.shape[1]:
            raise ShapeError(f"bias_prev has {bias_prev.size} entries, map has {y.shape[1]} channels")
        y += bias_prev.reshape(1, -1, 1, 1)
        return y
    if bias_prev.size != y.shape[-1]:
        raise ShapeError(f"bias_prev has {bias_prev.size} entries, vector has {y.shape[-1]}")
    y += bias_prev
    return y


def _bias_prev_grad(g):
    if g.ndim == 4:
        return g.sum(axis=(0, 2, 3))
    return g.sum(axis=0)


class Dense(Layer):
    """Affine map x @ W + b. Inputs of rank > 2 are flattened per sample.

    Reverse: v @ W^T (+ previous bias), un-flattened to the recorded input
    shape so a Dense sitting on top of a conv stack reverses back into the
    feature-map geometry.
    """

    kind = "dense"
    has_params = True

    def __init__(self, in_features, out_features):
        if in_features <= 0 or out_features <= 0:
            raise ShapeError("dense dims must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.in_shape = (in_features,)  # refined by the network builder
        self.W = None
        self.b = None

    def init_params(self, rng, dtype=tensor.SINGLE):
        std = np.sqrt(2.0 / self.in_features)
        self.W = tensor.gaussian_fill((self.in_features, self.out_features), rng, 0.0, std, dtype)
        self.b = np.zeros(self.out_features, dtype=dtype)

    def token(self):
        return f"dense:{self.out_features}"

    def out_shape_for(self, in_shape):
        if int(np.prod(in_shape)) != self.in_features:
            raise ShapeError(f"dense expects {self.in_features} inputs, got shape {in_shape}")
        self.in_shape = tuple(in_shape)
        return (self.out_features,)

    def forward(self, x):
        x2 = x.reshape(x.shape[0], -1)
        if x2.shape[1] != self.in_features:
            raise ShapeError(f"dense expects {self.in_features} features, got {x2.shape[1]}")
        y = x2 @ self.W
        y += self.b
        return y, (x2, x.shape)

    def backward(self, g, cache):
        x2, xshape = cache
        grads = {"W": x2.T @ g, "b": g.sum(axis=0)}
        gx = (g @ self.W.T).reshape(xshape)
        return gx, grads

    def reverse(self, v, bias_prev=None, trace_entry=None, rcfg=None):
        if v.shape[-1] != self.out_features:
            raise ShapeError(f"dense reverse expects {self.out_features} values, got {v.shape[-1]}")
        y = (v @ self.W.T).reshape(v.shape[0], *self.in_shape)
        y = _add_bias_prev(y, bias_prev)
        return y, (v, bias_prev is not None)

    def reverse_backward(self, g, rcache):
        v, had_bias = rcache
        g2 = g.reshape(g.shape[0], -1)
        grads = {"W": g2.T @ v}
        if had_bias:
            grads["b_prev"] = _bias_prev_grad(g)
        return g2 @ self.W, grads


class Conv(Layer):
    """2-D convolution (cross-correlation) with square kernel.

    Reverse: transposed convolution with the same kernel (+ previous bias),
    the exact adjoint of the forward linear part.

    reverse(v, up=w) is the reverse of w-times nearest-neighbour upsampling
    followed by this layer's reverse, for a stride-1 conv: upsampling
    then a stride-1 transposed conv with W equals one stride-w transposed
    conv of v itself with W box-summed over its w*w shifts (_box_sum), a
    (k+w-1)x(k+w-1) kernel, at (k+w-1)^2/(w*k)^2 of the FLOPs. Its adjoint
    runs the forward conv with that kernel at stride w, and the kernel
    gradient on v is folded back to k x k (_box_fold). The network passes
    up= when it folds a MaxPool's upsampling reverse into this layer.
    """

    kind = "conv"
    has_params = True

    def __init__(self, c_in, c_out, k, stride=1, pad=None):
        if min(c_in, c_out, k) <= 0:
            raise ShapeError("conv dims must be positive")
        self.c_in = c_in
        self.c_out = c_out
        self.k = k
        self.stride = stride
        self.pad = k // 2 if pad is None else pad
        self.W = None
        self.b = None

    def init_params(self, rng, dtype=tensor.SINGLE):
        fan_in = self.c_in * self.k * self.k
        std = np.sqrt(2.0 / fan_in)
        self.W = tensor.gaussian_fill((self.c_out, self.c_in, self.k, self.k), rng, 0.0, std, dtype)
        self.b = np.zeros(self.c_out, dtype=dtype)

    def token(self):
        return f"conv:{self.c_out}:{self.k}:{self.stride}:{self.pad}"

    def out_shape_for(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.c_in:
            raise ShapeError(f"conv expects ({self.c_in},H,W), got {in_shape}")
        ho, wo = tensor._conv_geometry(in_shape[1], in_shape[2], self.k, self.k, self.stride, self.pad)
        return (self.c_out, ho, wo)

    def forward(self, x):
        y = tensor.conv2d(x, self.W, self.stride, self.pad)
        y += self.b.reshape(1, -1, 1, 1)
        return y, x

    def backward(self, g, cache):
        x = cache
        grads = {
            "W": tensor.conv2d_weight_grad(x, g, self.W.shape, self.stride, self.pad),
            "b": g.sum(axis=(0, 2, 3)),
        }
        gx = tensor.conv2d_transposed(g, self.W, self.stride, self.pad)
        return gx, grads

    def _reverse_kernel(self, up):
        """(kernel, stride) of the reverse with pending upsampling factor up."""
        if up == 1:
            return self.W, self.stride
        if self.stride != 1:
            raise ShapeError(f"only a stride-1 conv takes up=, this one has stride {self.stride}")
        return _box_sum(self.W, up), up

    def reverse(self, v, bias_prev=None, trace_entry=None, rcfg=None, up=1):
        kernel, stride = self._reverse_kernel(up)
        y = tensor.conv2d_transposed(v, kernel, stride, self.pad)
        y = _add_bias_prev(y, bias_prev)
        return y, (v, bias_prev is not None, up)

    def reverse_backward(self, g, rcache):
        v, had_bias, up = rcache
        kernel, stride = self._reverse_kernel(up)
        # adjoint of the transposed conv is the forward conv; the kernel
        # gradient swaps the input/upstream roles of the forward formula
        gk = tensor.conv2d_weight_grad(g, v, kernel.shape, stride, self.pad)
        grads = {"W": gk if up == 1 else _box_fold(gk, up, self.k)}
        if had_bias:
            grads["b_prev"] = _bias_prev_grad(g)
        gv = tensor.conv2d(g, kernel, stride, self.pad)
        return gv, grads


def _box_sum(W, w):
    """K[:, :, i, j] = sum of W[:, :, i - r, j - s] over 0 <= r, s < w (W
    zero outside its k x k): W summed over its w*w shifts, (k+w-1)x(k+w-1)."""
    co, ci, k, _ = W.shape
    K = np.zeros((co, ci, k + w - 1, k + w - 1), dtype=W.dtype)
    for r in range(w):
        for s in range(w):
            K[:, :, r : r + k, s : s + k] += W
    return K


def _box_fold(gK, w, k):
    """The adjoint of _box_sum: the sum of gK's w*w shifted k x k windows."""
    gW = np.zeros(gK.shape[:2] + (k, k), dtype=gK.dtype)
    for r in range(w):
        for s in range(w):
            gW += gK[:, :, r : r + k, s : s + k]
    return gW


class LeakyRelu(Layer):
    """x if x >= 0 else slope*x; bijective for slope > 0, so the reverse
    path can apply the exact inverse.

    Every op is branch-free: the value is the max or min of x and its
    scaled branch, and the caches keep the sign mask x >= 0 (one byte per
    element), from which the gradient factor m + (1 - m)*slope is built,
    exactly 1 or slope.

    Every op takes out=, numpy's idiom: its result is written into out,
    which may be its own input, or into a fresh array when out is None.
    Either way the op runs block by block through one small scratch block
    (tensor.blockwise), with the same ufuncs in the same order, so the bits
    do not depend on out.
    """

    kind = "lrelu"
    takes_out = True

    def __init__(self, slope=0.01):
        if slope <= 0:
            raise DomainError("leaky-relu slope must be > 0 to stay bijective")
        self.slope = slope

    def token(self):
        return f"lrelu:{self.slope!r}"

    def out_shape_for(self, in_shape):
        return tuple(in_shape)

    def forward(self, x, out=None):
        s = x.dtype.type(self.slope)
        mask = x >= 0
        return _leaky(x, np.multiply, s, s, out), mask

    def backward(self, g, cache, out=None):
        return _scale_negatives(g, cache, g.dtype.type(self.slope), out), None

    def reverse(self, v, bias_prev=None, trace_entry=None, rcfg=None, out=None):
        mode = rcfg.activation if rcfg is not None else "inverse"
        s = v.dtype.type(self.slope)
        mask = v >= 0
        if mode == "forward":
            return _leaky(v, np.multiply, s, s, out), (mask, s)
        factor = v.dtype.type(1) / s
        return _leaky(v, np.divide, s, factor, out), (mask, factor)

    def reverse_backward(self, g, rcache, out=None):
        mask, factor = rcache
        return _scale_negatives(g, mask, factor, out), None


def _leaky(x, scale, s, factor, out):
    """x where x >= 0, else the branch scale(x, s), which is x scaled by
    factor: the two meet at 0, so that is their max for factor <= 1 and
    their min above."""
    pick = np.maximum if factor <= 1 else np.minimum

    def block(o, xb, t):
        scale(xb, s, out=t)
        pick(t, xb, out=o)

    return tensor.blockwise(block, out, x)


def _scale_negatives(g, mask, factor, out):
    """g where mask, else g*factor, as g*(m + (1 - m)*factor) with m the
    mask as 0/1: for a finite factor exactly 1 or `factor`, with no branch
    taken."""

    def block(o, gb, mb, t):
        np.subtract(1, mb, out=t, dtype=t.dtype)
        t *= factor
        t += mb
        np.multiply(t, gb, out=o)

    return tensor.blockwise(block, out, g, mask)


class MaxPool(Layer):
    """Non-overlapping window max.

    Works on the k*k strided views x[:, :, a::k, b::k], taken in window
    order (a, b), with no copy of the input. The cache keeps one bool mask
    per view marking the first maximal offset of each window, argmax's tie
    rule; backprop and the index-unpooling reverse variant scatter through
    those masks as g*mask, so off the maxima they write g*0: a zero with
    g's sign, or NaN where g is infinite, which keeps a non-finite
    gradient non-finite.

    reverse(v, fold=True), in upsample mode, hands v on unchanged: the
    network passes it when the upsampling is folded into the reverse of the
    stride-1 Conv below (Conv.reverse's up=), and LeakyRelus in between run
    on the small map, since an elementwise map commutes with nearest
    upsampling. Its rcache marks the fold, and reverse_backward then hands
    g on unchanged too.
    """

    kind = "maxpool"

    def __init__(self, window):
        if window < 2:
            raise ShapeError("pool window must be >= 2")
        self.window = window

    def token(self):
        return f"pool:{self.window}"

    def out_shape_for(self, in_shape):
        c, h, w = in_shape
        if h % self.window or w % self.window:
            raise ShapeError(f"pool window {self.window} does not divide {h}x{w}")
        return (c, h // self.window, w // self.window)

    def _views(self, a):
        k = self.window
        return [a[:, :, i::k, j::k] for i in range(k) for j in range(k)]

    def _scatter(self, v, masks, shape):
        y = np.empty(shape, dtype=v.dtype)
        for view, m in zip(self._views(y), masks):
            np.multiply(v, m, out=view)
        return y

    def forward(self, x):
        k = self.window
        if x.shape[2] % k or x.shape[3] % k:
            raise ShapeError(f"pool window {k} does not divide {x.shape[2]}x{x.shape[3]}")
        views = self._views(x)
        y = views[0].copy()
        for view in views[1:]:
            np.maximum(view, y, out=y)  # a +-0 tie keeps y, the earlier offset
        masks = [views[0] == y]
        free = ~masks[0]  # windows whose max offset is still to be found
        for view in views[1:-1]:
            m = view == y
            m &= free
            free ^= m
            masks.append(m)
        masks.append(free)  # the last offset holds every remaining max
        return y, (x.shape, masks)

    def backward(self, g, cache):
        xshape, masks = cache
        return self._scatter(g, masks, xshape), None

    def reverse(self, v, bias_prev=None, trace_entry=None, rcfg=None, fold=False):
        mode = rcfg.pool if rcfg is not None else "upsample"
        if fold:
            if mode != "upsample":
                raise DomainError("only the upsampling reverse folds into a conv")
            return v, ("fold", None)
        if mode == "unpool":
            if trace_entry is None:
                raise StateError("index unpooling needs the forward trace")
            xshape, masks = trace_entry
            return self._scatter(v, masks, xshape), (mode, masks)
        k = self.window
        b, c, ho, wo = v.shape
        y = np.empty((b, c, ho * k, wo * k), dtype=v.dtype)
        for view in self._views(y):
            view[...] = v
        return y, (mode, None)

    def reverse_backward(self, g, rcache):
        mode, masks = rcache
        if mode == "fold":
            return g, None
        views = self._views(g)
        if mode == "unpool":
            gv = views[0] * masks[0]
            for view, m in zip(views[1:], masks[1:]):
                gv += view * m
            return gv, None
        gv = views[0].copy()
        for view in views[1:]:
            gv += view
        return gv, None


class SoftmaxHead(Layer):
    """Row-wise softmax; reverse is the inverse softmax ln(o_i) + c with
    the constant fixed to 0 (softmax is shift-invariant, so forward
    round-trips are unaffected). Outputs at or below 0 are clamped to
    1e-12 before the log; genuinely negative inputs are a caller error."""

    kind = "softmax"

    def token(self):
        return "softmax"

    def out_shape_for(self, in_shape):
        return tuple(in_shape)

    def forward(self, x):
        z = x - x.max(axis=-1, keepdims=True)
        e = np.exp(z)
        o = e / e.sum(axis=-1, keepdims=True)
        return o, o

    def backward(self, g, cache):
        o = cache
        dot = (g * o).sum(axis=-1, keepdims=True)
        return o * (g - dot), None

    def reverse(self, v, bias_prev=None, trace_entry=None, rcfg=None):
        if np.any(v < -1e-9):
            raise DomainError("inverse softmax: negative likelihood entries")
        clamped = np.maximum(v, v.dtype.type(SOFTMAX_CLAMP))
        return np.log(clamped), (clamped, v > SOFTMAX_CLAMP)

    def reverse_backward(self, g, rcache):
        clamped, live = rcache
        return g / clamped * live, None

