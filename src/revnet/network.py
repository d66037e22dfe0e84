"""Network composition: feed-forward, feed-backward, and latent generation.

A network is an ordered layer stack ending (for classification) in a
SoftmaxHead. Three views of the same parameters:

    feed_forward   x -> alpha -> o        (alpha = input of the final Dense)
    feed_backward  o -> ... -> xbar       (inverse softmax, then each layer
                                           reversed through tied weights)
    generation     tr(o) -> alphabar      (reverse of the classification
                                           tail only; optionally all the way
                                           to pixel space for visualization)

feed_forward and one_step_forward (a latent pushed through the final
Dense + head) share one forward walker, so the two agree bit-for-bit on
shared inputs. backward_from_logits, one_step_adjoint and reverse_adjoint
share one adjoint walker: it calls backward or reverse_backward over a
span of layers and adds each parameter gradient into its slot of acc.

The slot table (slots) gives each parameter an offset and shape in one
flat layout, in checkpoint order (layer index, W, b), shared by params,
whose views are the layers' W and b, by acc and by the momentum velocity.

The rules that join two layers live here, not in the layers. The reverse
of a parameterized layer adds the bias of the previous parameterized
layer (per channel on maps): the reverse walker adds it to the layer's
fresh output, and the adjoint walker adds its gradient, the channel sum of
the upstream gradient that layer received, into that bias's entry of acc.

Every walk leaves the arrays its caller passed in unchanged; the arrays
made inside the walk are written in place where nothing else refers to
them (see _forward).

The reverse walker folds upsampling into convs. In pool=upsample mode a
MaxPool reverses by nearest-neighbour upsampling, which LeakyRelu
commutes with, and upsampling followed by a stride-1 transposed conv is
one stride-w transposed conv with a box-summed kernel (Conv.reverse's
up=). So where the next layer below a MaxPool that is not a LeakyRelu is a
stride-1 Conv inside the reversed span, the walker does not call the pool:
it marks the pool's reverse cache FOLDED, the LeakyRelus run on the small
map, and the conv reverses with up=window, at (k+w-1)^2/(w*k)^2 of the
FLOPs (0.36 for k=5, w=2); the adjoint walker skips a FOLDED layer. Each
pool's conv is found once, in __init__. Unpool mode, strided convs and
pools with no such conv reverse one layer at a time.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .errors import ConfigError, DomainError, NumericError, ShapeError, StateError
from .layers import Conv, Dense, LeakyRelu, MaxPool, ReverseConfig, SoftmaxHead


def check_likelihood(o, tol=1e-6):
    """Validate the simplex invariant: entries finite (else NumericError)
    and in [0,1], rows sum to 1."""
    if o.ndim != 2:
        raise ShapeError(f"likelihood must be [batch x classes], got {o.shape}")
    if not np.all(np.isfinite(o)):
        raise NumericError("likelihood has non-finite entries")
    if np.any(o < -tol) or np.any(o > 1 + tol):
        raise DomainError("likelihood entries outside [0,1]")
    if np.any(np.abs(o.sum(axis=1) - 1) > tol):
        raise DomainError("likelihood rows do not sum to 1")
    return o


@dataclass
class TransformConfig:
    """How to synthesize hard-sample-like likelihoods from real outputs.

    boost_count entries (chosen uniformly at random, by default excluding
    the argmax so the result sits near a decision boundary) are raised to
    boost_factor * max(row); optionally the row is renormalized onto the
    simplex afterwards.
    """

    boost_count: int = 1
    boost_factor: float = 0.95
    renormalize: bool = True
    include_argmax: bool = False

    def __post_init__(self):
        if self.boost_count < 1:
            raise ConfigError("transform boost_count must be >= 1")
        if not 0.0 <= self.boost_factor <= 1.0:
            raise ConfigError("transform boost_factor must be in [0,1]")

    def check_classes(self, n):
        """ConfigError unless n classes leave boost_count to choose from."""
        if self.boost_count >= n:
            raise ConfigError(f"boost_count {self.boost_count} must be < class count {n}")


def transform_likelihood(o, cfg, rng):
    """A copy of o with cfg.boost_count entries per row boosted, divided in
    place by its row sums if cfg.renormalize. The picks do not depend on
    cfg.renormalize."""
    n = o.shape[1]
    cfg.check_classes(n)
    out = o.copy()
    top = o.argmax(axis=1)
    boost = o.dtype.type(cfg.boost_factor) * o.max(axis=1)
    if cfg.boost_count == 1:
        # the one bounded draw per row that rng.choice(pool, size=1,
        # replace=False) makes, for all rows at once: the same entries and
        # the same generator state as the loop below
        if cfg.include_argmax:
            chosen = rng.integers(0, n, size=len(o))
        else:
            v = rng.integers(0, n - 1, size=len(o))
            chosen = v + (v >= top)
        out[np.arange(len(o)), chosen] = boost
    else:
        for r in range(len(o)):
            if cfg.include_argmax:
                pool = np.arange(n)
            else:
                pool = np.delete(np.arange(n), top[r])
            chosen = rng.choice(pool, size=cfg.boost_count, replace=False)
            out[r, chosen] = boost[r]
    if cfg.renormalize:
        out /= out.sum(axis=1, keepdims=True)
    return out


# the reverse cache of a MaxPool folded into the conv below it
FOLDED = "folded into the conv below"


def _out(layer, v, owned):
    """out=v for a layer that can write its result into v, if the walk owns v."""
    return {"out": v} if owned and layer.takes_out else {}


class ReversibleNetwork:
    """Ordered layer stack with tied forward/reverse parameter use."""

    def __init__(self, layers, input_shape, n_classes=None, rcfg=None):
        if not layers:
            raise ConfigError("network needs at least one layer")
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        self.n_classes = n_classes
        self.rcfg = rcfg or ReverseConfig()
        self.shapes = [self.input_shape]
        for layer in self.layers:
            self.shapes.append(layer.out_shape_for(self.shapes[-1]))
        self.has_head = isinstance(self.layers[-1], SoftmaxHead)
        if any(isinstance(l, SoftmaxHead) for l in self.layers[:-1]):
            raise ConfigError("a softmax head must be the last layer")
        self.final_dense_idx = None
        for i in range(len(self.layers) - 1, -1, -1):
            if isinstance(self.layers[i], Dense):
                self.final_dense_idx = i
                break
        # the slot table, (layer index, name) -> (offset, shape) in params,
        # and the bias a layer's reverse adds: the previous parameterized layer's
        self.slots, self.size, self._prev_param, last = {}, 0, [], None
        for i, layer in enumerate(self.layers):
            shapes = layer.param_shapes()
            self._prev_param.append(last if shapes else None)
            for name, shape in shapes.items():
                self.slots[i, name] = (self.size, shape)
                self.size += math.prod(shape)
                last = i
        self.params = self.velocity = None
        # the stride-1 Conv below each MaxPool, past any LeakyRelus, that
        # takes the pool's upsampling reverse (see _reverse_span)
        self._fold_into = [None] * len(self.layers)
        for i, layer in enumerate(self.layers):
            if isinstance(layer, MaxPool):
                j = i - 1
                while j >= 0 and isinstance(self.layers[j], LeakyRelu):
                    j -= 1
                if j >= 0 and isinstance(self.layers[j], Conv) and self.layers[j].stride == 1:
                    self._fold_into[i] = j

    # -- construction -----------------------------------------------------

    def init_params(self, rng, dtype=tensor.SINGLE):
        """Each layer's own draws, in layer order, copied into a fresh params."""
        for layer in self.layers:
            layer.init_params(rng, dtype)
        parts = [getattr(self.layers[i], name).ravel() for i, name in self.slots]
        return self.adopt(np.concatenate([np.empty(0, dtype), *parts]))

    def adopt(self, params):
        """Make params the parameter buffer, each W and b a view of it, and
        start the momentum over."""
        self.params, self.dtype, self.velocity = params, params.dtype.type, None
        for i, name in self.slots:
            setattr(self.layers[i], name, self.view(params, i, name))
        return self

    def view(self, buf, i, name):
        """Parameter name of layer i in buf, of params' layout or a prefix."""
        lo, shape = self.slots[i, name]
        return buf[lo:lo + math.prod(shape)].reshape(shape)

    def offset(self, i):
        """Where the slots of layers[i:] start: those of layers[:i] are a prefix."""
        return next((lo for (j, _), (lo, _) in self.slots.items() if j >= i), self.size)

    def validate_classifier(self):
        if not self.has_head:
            raise ConfigError("classifier network must end in a softmax head")
        if self.final_dense_idx is None:
            raise ConfigError("classifier network needs a dense layer before the head")
        out = self.layers[self.final_dense_idx].out_features
        if self.n_classes is not None and out != self.n_classes:
            raise ConfigError(f"final dense emits {out} values but class_count is {self.n_classes}")
        return self

    # -- the two walkers --------------------------------------------------

    def _forward(self, v, lo=0):
        """Run layers[lo:] forward from v. Returns (output, alpha, caches):
        alpha is the final Dense layer's input (None if the span starts
        past it), caches[i] layer i's cache (None outside the span).

        Ownership, the same in all three walkers (_forward, _reverse_span,
        _adjoint): the walk's first op receives the caller's array and
        never writes it. Every later op receives the output of the op
        before it. No cache refers to that array, because no layer caches
        its own output except SoftmaxHead, and SoftmaxHead is the last
        layer, so the last forward op. So the walk owns it, and hands it to
        a layer with takes_out (LeakyRelu) as out=, which writes its result
        there. A folded MaxPool (see _reverse_span) is skipped, so the
        array it would get goes on to the next op unchanged. That passes on
        no ownership, so the reverse and adjoint walkers keep an owned
        flag, set by the first op whose output is not its input. The
        caller's x, o, latent and upstream gradients, and every cache and
        trace entry, stay as they were."""
        caches = [None] * len(self.layers)
        alpha = None
        for i in range(lo, len(self.layers)):
            if i == self.final_dense_idx:
                alpha = v
            layer = self.layers[i]
            v, caches[i] = layer.forward(v, **_out(layer, v, i > lo))
        return v, alpha, caches

    def _adjoint(self, g, order, op, caches, acc, free=False):
        """Walk the layers in `order`, calling each one's `op` ("backward"
        or "reverse_backward") on its cache and adding the parameter
        gradients into acc. A FOLDED layer is skipped. After a layer's own
        reverse_backward gradients comes the gradient of the bias its
        reverse added (see the module docstring). Returns the gradient at
        the span's end.

        acc is a buffer of params' layout, or a prefix of it that holds the
        span's slots, and each gradient is added into its slot in place; g
        is passed on as in _forward. With free, a caller that owns `caches`
        has each entry set to None as the walk reaches it, so the walk frees
        what it passed; otherwise the list is left as it was."""
        owned = False
        for i in order:
            cache = caches[i]
            if cache is None:
                raise StateError(f"missing {op} cache for layer {i}")
            if free:
                caches[i] = None
            if cache is FOLDED:
                continue
            layer = self.layers[i]
            g_in = g
            g, grads = getattr(layer, op)(g, cache, **_out(layer, g, owned))
            owned = owned or g is not g_in
            grads = [(i, name, val) for name, val in (grads or {}).items()]
            j = self._prev_param[i]
            if op == "reverse_backward" and j is not None:
                grads.append((j, "b", g_in.sum(axis=(0, 2, 3) if g_in.ndim == 4 else 0)))
            for j, name, val in grads:
                slot = self.view(acc, j, name)
                slot += val
        return g

    # -- forward ----------------------------------------------------------

    def feed_forward(self, x):
        """Full pass; returns (o, alpha, trace) with alpha the penultimate
        feature (the final Dense layer's input)."""
        if x.shape[1:] != self.input_shape:
            raise ShapeError(f"input shape {x.shape[1:]} != network input {self.input_shape}")
        return self._forward(x)

    def backward_from_logits(self, g, trace, acc, free=False):
        """Backprop a gradient given w.r.t. the pre-softmax logits (the
        cross-entropy/softmax combination), skipping the head layer. free
        as in _adjoint."""
        start = len(self.layers) - 2 if self.has_head else len(self.layers) - 1
        return self._adjoint(g, range(start, -1, -1), "backward", trace, acc, free)

    # -- reverse ----------------------------------------------------------

    def _reverse_span(self, v, hi, lo, trace, want_caches):
        """Reverse layers[lo:hi] (applied in reversed order) starting from
        v, passing arrays as _forward does.

        In upsample mode a MaxPool whose conv (self._fold_into) lies in
        the span is folded: it is not called, its cache is FOLDED, and its
        conv later reverses with up=window. A parameterized layer's fresh
        output gets the previous parameterized layer's bias added in place.
        Every op after the first gets an array the walk owns, except right
        after a folded pool at the span's start, so ownership is a flag,
        not a position."""
        rcaches = [None] * len(self.layers)
        fold = self.rcfg.pool == "upsample"
        up = {}  # conv index -> window of the pool folded into it
        owned = False
        for i in range(hi - 1, lo - 1, -1):
            layer = self.layers[i]
            j = self._fold_into[i]
            if fold and j is not None and j >= lo:
                up[j] = layer.window
                rc = FOLDED
            else:
                kw = {"up": up.pop(i)} if i in up else _out(layer, v, owned)
                v_in = v
                v, rc = layer.reverse(v, trace[i] if trace is not None else None, self.rcfg, **kw)
                owned = owned or v is not v_in
                j = self._prev_param[i]
                if j is not None:
                    b = self.layers[j].b
                    v += b.reshape(-1, 1, 1) if v.ndim == 4 else b
            if want_caches:
                rcaches[i] = rc
        return (v, rcaches) if want_caches else v

    def feed_backward(self, o, trace=None, want_caches=False):
        """Reconstruct the input from the output likelihood (Eq.-3 style):
        inverse softmax first, then every layer reversed."""
        if self.has_head:
            check_likelihood(np.asarray(o), tol=1e-4)
        return self._reverse_span(o, len(self.layers), 0, trace, want_caches)

    def reverse_adjoint(self, g, rcaches, acc, hi=None, lo=0, free=False):
        """Adjoint of a reverse span: walk it in forward-layer order,
        accumulating tied-weight gradients; returns the gradient w.r.t.
        the span's starting value (o for a full feed-backward). free as in
        _adjoint."""
        hi = len(self.layers) if hi is None else hi
        return self._adjoint(g, range(lo, hi), "reverse_backward", rcaches, acc, free)

    # -- latent generation ------------------------------------------------

    def _require_tail(self):
        if self.final_dense_idx is None or not self.has_head:
            raise ConfigError("latent generation needs a dense layer and a softmax head")

    def generate_latent(self, o_transformed, trace=None, want_caches=False):
        """Reverse the classification tail (inverse softmax + final Dense),
        landing at the penultimate feature level; reverse_from_latent
        continues to pixel space."""
        self._require_tail()
        return self._reverse_span(o_transformed, len(self.layers), self.final_dense_idx, trace, want_caches)

    def reverse_from_latent(self, alpha, trace=None):
        """Continue a reverse pass from the penultimate feature level down
        to pixel space; composed after generate_latent this equals a full
        feed_backward of the same likelihood."""
        self._require_tail()
        return self._reverse_span(alpha, self.final_dense_idx, 0, trace, False)

    def one_step_forward(self, alpha, want_caches=False):
        """Push a penultimate-level latent through final Dense + head."""
        self._require_tail()
        o, _, caches = self._forward(alpha, self.final_dense_idx)
        return (o, caches) if want_caches else o

    def one_step_adjoint(self, g_logits, caches, acc):
        """Backprop from tail logits down to the latent, accumulating tail
        parameter gradients; returns the gradient w.r.t. the latent."""
        tail = range(len(self.layers) - 2, self.final_dense_idx - 1, -1)
        return self._adjoint(g_logits, tail, "backward", caches, acc)


# ---------------------------------------------------------------------------
# architecture specs


@dataclass
class NetworkSpec:
    """Declarative layer list, buildable from the config-file DSL.

    Tokens: conv:<c_out>:<k>[:<stride>[:<pad>]] | pool:<w> |
    lrelu[:<slope>] | dense:<out> | softmax. Input channels chain
    automatically; the final layer must be softmax and the dense layer
    before it must emit class_count values. A token whose layer cannot
    be made, or does not fit the shape before it, is a ConfigError.
    """

    input_shape: tuple
    n_classes: int
    tokens: list = field(default_factory=list)

    def build(self, rng=None, dtype=tensor.SINGLE, rcfg=None):
        layers = []
        shape = tuple(self.input_shape)
        for tok in self.tokens:
            parts = str(tok).strip().split(":")
            kind, args = parts[0], parts[1:]
            try:
                if kind == "conv":
                    c_out, k = int(args[0]), int(args[1])
                    stride = int(args[2]) if len(args) > 2 else 1
                    pad = int(args[3]) if len(args) > 3 else None
                    layers.append(Conv(shape[0], c_out, k, stride, pad))
                elif kind == "pool":
                    layers.append(MaxPool(int(args[0])))
                elif kind == "lrelu":
                    layers.append(LeakyRelu(float(args[0]) if args else 0.01))
                elif kind == "dense":
                    layers.append(Dense(int(np.prod(shape)), int(args[0])))
                elif kind == "softmax":
                    layers.append(SoftmaxHead())
                else:
                    raise ConfigError(f"unknown layer token {tok!r}")
                shape = layers[-1].out_shape_for(shape)
            except (IndexError, ValueError, ShapeError, DomainError) as exc:
                raise ConfigError(f"bad layer token {tok!r}: {exc}") from exc
        net = ReversibleNetwork(layers, self.input_shape, self.n_classes, rcfg=rcfg)
        net.validate_classifier()
        if rng is not None:
            net.init_params(rng, dtype)
        return net


def baseline_spec(input_shape, n_classes):
    """The six-conv/two-pool baseline topology; the flatten size feeding
    the first dense layer follows from actual shape chaining."""
    tokens = [
        "conv:32:5", "lrelu", "conv:32:5", "lrelu", "pool:2",
        "conv:64:5", "lrelu", "conv:64:5", "lrelu", "pool:2",
        "conv:128:5", "lrelu", "conv:128:5", "lrelu",
        "dense:256", "lrelu", f"dense:{n_classes}", "softmax",
    ]
    return NetworkSpec(tuple(input_shape), n_classes, tokens)


def small_cnn_spec(input_shape, n_classes):
    """A compact conv net for desk-scale runs."""
    tokens = [
        "conv:16:5", "lrelu", "pool:2",
        "conv:32:5", "lrelu", "pool:2",
        "dense:128", "lrelu", f"dense:{n_classes}", "softmax",
    ]
    return NetworkSpec(tuple(input_shape), n_classes, tokens)


ARCHITECTURES = {"baseline": baseline_spec, "small": small_cnn_spec}


@dataclass
class NetConfig:
    """The architecture a run builds: a name in ARCHITECTURES, or custom
    with layers holding comma-separated NetworkSpec tokens."""

    arch: str = "baseline"
    layers: str = ""

    def __post_init__(self):
        if self.arch == "custom" and not self.tokens():
            raise ConfigError("net.arch=custom needs net.layers tokens")
        if self.arch != "custom" and self.arch not in ARCHITECTURES:
            known = "|".join(sorted(ARCHITECTURES) + ["custom"])
            raise ConfigError(f"net.arch must be {known}, got {self.arch!r}")

    def tokens(self):
        return [t.strip() for t in self.layers.split(",") if t.strip()]

    def spec(self, input_shape, n_classes):
        if self.arch == "custom":
            return NetworkSpec(tuple(input_shape), n_classes, self.tokens())
        return ARCHITECTURES[self.arch](input_shape, n_classes)
