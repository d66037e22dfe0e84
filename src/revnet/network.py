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
span of layers and adds each parameter gradient into the per-layer
accumulator acc[i][name], in place, routing the reverse step's "b_prev"
gradient to the previous parameterized layer's bias. The momentum state
for the update lives here too, in velocity[i][name].

Every walk leaves the arrays its caller passed in unchanged; the arrays
made inside the walk are written in place where nothing else refers to
them (see _forward).

The reverse walker folds upsampling into convs. In pool=upsample mode a
MaxPool reverses by nearest-neighbour upsampling, which LeakyRelu
commutes with, and upsampling followed by a stride-1 transposed conv is
one stride-w transposed conv with a box-summed kernel (Conv.reverse's
up=). So where the next layer below a MaxPool that is not a LeakyRelu is a
stride-1 Conv inside the reversed span, the pool hands its input on
unchanged, the LeakyRelus run on the small map, and the conv reverses with
up=window, at (k+w-1)^2/(w*k)^2 of the FLOPs (0.36 for k=5, w=2). Each pool's conv is found once, in
__init__. Unpool mode, strided convs and pools with no such conv reverse
one layer at a time.
"""

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


def transform_likelihood_with_pre(o, cfg, rng):
    """Returns (pre, post): the boosted rows before and after renormalization."""
    n = o.shape[1]
    if cfg.boost_count >= n:
        raise ConfigError(f"boost_count {cfg.boost_count} must be < class count {n}")
    pre = o.copy()
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
        pre[np.arange(len(o)), chosen] = boost
    else:
        for r in range(len(o)):
            if cfg.include_argmax:
                pool = np.arange(n)
            else:
                pool = np.delete(np.arange(n), top[r])
            chosen = rng.choice(pool, size=cfg.boost_count, replace=False)
            pre[r, chosen] = boost[r]
    if not cfg.renormalize:
        return pre, pre.copy()
    sums = pre.sum(axis=1, keepdims=True)
    return pre, pre / sums


def transform_likelihood(o, cfg, rng):
    return transform_likelihood_with_pre(o, cfg, rng)[1]


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
        # bias on the reverse step comes from the previous parameterized layer
        self._prev_param = [None] * len(self.layers)
        last = None
        for i, layer in enumerate(self.layers):
            if layer.has_params:
                self._prev_param[i] = last
                last = i
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
        # momentum buffers, velocity[i][name], created by the first update
        self.velocity = [{} for _ in self.layers]

    # -- construction -----------------------------------------------------

    def init_params(self, rng, dtype=tensor.SINGLE):
        self.dtype = dtype
        for layer in self.layers:
            layer.init_params(rng, dtype)
        self.velocity = [{} for _ in self.layers]
        return self

    def validate_classifier(self):
        if not self.has_head:
            raise ConfigError("classifier network must end in a softmax head")
        if self.final_dense_idx is None:
            raise ConfigError("classifier network needs a dense layer before the head")
        out = self.layers[self.final_dense_idx].out_features
        if self.n_classes is not None and out != self.n_classes:
            raise ConfigError(f"final dense emits {out} values but class_count is {self.n_classes}")
        return self

    def param_layers(self):
        return [l for l in self.layers if l.has_params]

    def new_grad_acc(self):
        return [{} for _ in self.layers]

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
        there. One op hands on the very array it got: a folded MaxPool
        (see _reverse_span). It does not hand on ownership, so the reverse
        and adjoint walkers keep an owned flag, set by the first op whose
        output is not its input. The caller's x, o, latent and upstream
        gradients, and every cache and trace entry, stay as they were."""
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
        gradients into acc; a "b_prev" gradient belongs to the previous
        parameterized layer's bias. Returns the gradient at the span's end.

        An entry of acc is the first gradient its layer made for it, and
        later ones are added into it in place; g is passed on as in
        _forward. With free, a caller that owns `caches` has each entry
        set to None once its op has run, so the walk frees what it passed;
        otherwise the list is left as it was."""
        owned = False
        for i in order:
            if caches[i] is None:
                raise StateError(f"missing {op} cache for layer {i}")
            layer = self.layers[i]
            g_in = g
            g, grads = getattr(layer, op)(g, caches[i], **_out(layer, g, owned))
            if free:
                caches[i] = None
            owned = owned or g is not g_in
            for name, val in (grads or {}).items():
                j, name = (self._prev_param[i], "b") if name == "b_prev" else (i, name)
                if name in acc[j]:
                    acc[j][name] += val
                else:
                    acc[j][name] = val
        return g

    # -- forward ----------------------------------------------------------

    def feed_forward(self, x):
        """Full pass; returns (o, alpha, trace) with alpha the penultimate
        feature (the final Dense layer's input)."""
        if x.shape[1:] != self.input_shape:
            raise ShapeError(f"input shape {x.shape[1:]} != network input {self.input_shape}")
        return self._forward(x)

    def predict(self, x):
        o, _, _ = self.feed_forward(x)
        return np.argmax(o, axis=-1)

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
        the span is folded: it reverses with fold=True, handing v on, and
        its conv later with up=window. Every op after the first gets an
        array the walk owns, except right after a folded pool that was the
        first op, so ownership is a flag, not a position."""
        rcaches = [None] * len(self.layers)
        fold = self.rcfg.pool == "upsample"
        up = {}  # conv index -> window of the pool folded into it
        owned = False
        for i in range(hi - 1, lo - 1, -1):
            layer = self.layers[i]
            bias_prev = None
            if layer.has_params:
                j = self._prev_param[i]
                if j is not None:
                    bias_prev = self.layers[j].b
            entry = trace[i] if trace is not None else None
            kw = _out(layer, v, owned)
            j = self._fold_into[i]
            if fold and j is not None and j >= lo:
                kw, up[j] = {"fold": True}, layer.window
            elif i in up:
                kw = {"up": up.pop(i)}
            v_in = v
            v, rc = layer.reverse(v, bias_prev, entry, self.rcfg, **kw)
            owned = owned or v is not v_in
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
    before it must emit class_count values.
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
            except (IndexError, ValueError) as exc:
                raise ConfigError(f"bad layer token {tok!r}: {exc}") from exc
            shape = layers[-1].out_shape_for(shape)
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
