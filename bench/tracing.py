"""Span tracing from outside the package.

A Recorder wraps revnet's public functions and methods and, while
installed, records one span per call: name, start, end, parent span and
step id, plus the call's FLOP count where it has one. Spans stay in memory
until the run writes them out. Nothing under `src/revnet` changes: the
wrappers replace module and class attributes while `installed()` is
active, and the originals come back when it ends.

Functions that `revnet.training` imports by name (`cross_entropy`,
`reconstruction_mse`, `sgd_update`, `transform_likelihood`) are wrapped in
`revnet.training` itself, since that is where the step looks them up.
"""

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

from revnet import checkpoint, data, imaging, layers, network, tensor, training

LAYER_CLASSES = (layers.Dense, layers.Conv, layers.LeakyRelu, layers.MaxPool, layers.SoftmaxHead)
LAYER_OPS = ("forward", "backward", "reverse", "reverse_backward")
NETWORK_METHODS = (
    "feed_forward", "backward_from_logits", "feed_backward", "reverse_adjoint",
    "generate_latent", "reverse_from_latent", "one_step_forward", "one_step_adjoint",
)
CONV_OPS = ("conv2d", "conv2d_transposed", "conv2d_weight_grad")


def conv_flop(batch, kernel_shape, out_hw):
    """2*B*Cout*Cin*k*k*Ho*Wo, with Ho x Wo the map on the kernel's output side."""
    co, ci, kh, kw = kernel_shape
    return 2 * batch * co * ci * kh * kw * out_hw[0] * out_hw[1]


def _batch(a):
    return a.shape[0] if a.ndim == 4 else 1


def _conv2d_flop(x, kernel, stride=1, pad=0):
    kh, kw = kernel.shape[2:]
    h, w = x.shape[-2:]
    out_hw = ((h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1)
    return conv_flop(_batch(x), kernel.shape, out_hw)


def _conv2d_transposed_flop(y, kernel, stride=1, pad=0):
    return conv_flop(_batch(y), kernel.shape, y.shape[-2:])


def _conv2d_weight_grad_flop(x, upstream, kernel_shape, stride=1, pad=0):
    return conv_flop(_batch(upstream), kernel_shape, upstream.shape[-2:])


# matmuls per Dense call: one each way, two for either gradient
_DENSE_MATMULS = {"forward": 1, "backward": 2, "reverse": 1, "reverse_backward": 2}


class Recorder:
    """Wrappers for every traced function and method, and the spans they
    record while installed. Step ids come from `step`, set by the caller."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, step, flop, detail]
        self.step = None
        self._stack = []
        self._layer_index = {}
        self._patches = []  # (owner, attribute, original, wrapper)
        for module, attr, name, flop_of in (
            (tensor, "conv2d", "tensor.conv2d", _conv2d_flop),
            (tensor, "conv2d_transposed", "tensor.conv2d_transposed", _conv2d_transposed_flop),
            (tensor, "conv2d_weight_grad", "tensor.conv2d_weight_grad", _conv2d_weight_grad_flop),
            (training, "train_step", "training.train_step", None),
            (training, "evaluate", "training.evaluate", None),
            (training, "sgd_update", "layers.sgd_update", None),
            (training, "cross_entropy", "losses.cross_entropy", None),
            (training, "reconstruction_mse", "losses.reconstruction_mse", None),
            (training, "transform_likelihood", "network.transform_likelihood", None),
            (network, "transform_likelihood", "network.transform_likelihood", None),
            (checkpoint, "save_checkpoint", "checkpoint.save_checkpoint", None),
            (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", None),
            (data, "synthetic_digits", "data.synthetic_digits", None),
            (data, "normalize_channelwise", "data.normalize_channelwise", None),
            (data, "augment", "data.augment", None),
            (imaging, "reconstruction_grid", "imaging.reconstruction_grid", None),
            (imaging, "generation_grid", "imaging.generation_grid", None),
            (imaging, "save_image", "imaging.save_image", None),
        ):
            self._patch(module, attr, lambda args, kwargs, name=name: (name, None), flop_of)
        for cls in LAYER_CLASSES:
            for op in LAYER_OPS:
                flop_of = None
                if cls is layers.Dense:
                    def flop_of(layer, a, *rest, n=_DENSE_MATMULS[op], **kw):
                        return 2 * n * a.shape[0] * layer.in_features * layer.out_features
                self._patch(cls, op, functools.partial(self._layer_names, op=op), flop_of)
        for method in NETWORK_METHODS:
            self._patch(network.ReversibleNetwork, method,
                        functools.partial(self._network_name, method=method), None)

    # -- naming -----------------------------------------------------------

    def register(self, net):
        """Layer indices of the net under test, for per-layer names."""
        self._layer_index = {id(layer): i for i, layer in enumerate(net.layers)}

    def _layer_names(self, args, kwargs, op):
        layer = args[0]
        i = self._layer_index.get(id(layer))
        kind = "conv0" if layer.kind == "conv" and i == 0 else layer.kind
        return f"layers.{kind}.{op}", f"layers[{i}].{layer.kind}.{op}"

    @staticmethod
    def _network_name(args, kwargs, method):
        if method == "reverse_adjoint":
            # reverse_adjoint(self, g, rcaches, acc, hi=None, lo=0): the
            # reconstruction adjoint spans the whole stack, generation's
            # starts at the final dense layer
            lo = kwargs.get("lo", args[5] if len(args) > 5 else 0)
            return f"network.reverse_adjoint.{'rec' if lo == 0 else 'gen'}", None
        return f"network.{method}", None

    # -- recording --------------------------------------------------------

    def _open(self, name, flop, detail):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.step, flop, detail])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name, 0, None)
        try:
            yield
        finally:
            self._close(idx)

    def _patch(self, owner, attr, name_of, flop_of):
        original = vars(owner)[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name, detail = name_of(args, kwargs)
            idx = self._open(name, flop_of(*args, **kwargs) if flop_of else 0, detail)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(idx)

        self._patches.append((owner, attr, original, wrapper))

    @contextmanager
    def installed(self):
        """The wrappers in place of the originals for the block's duration."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    # -- summaries --------------------------------------------------------

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        out = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def totals(self, scales, key=0):
        """name (key=0) or per-layer detail (key=6) -> {calls, incl_s, self_s,
        flop} summed over the spans of the steps in `scales`, each step's
        times multiplied by its scale."""
        selfs = self.self_times()
        out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "flop": 0})
        for span, self_s in zip(self.spans, selfs):
            if span[4] in scales and span[key] is not None:
                scale = scales[span[4]]
                t = out[span[key]]
                t["calls"] += 1
                t["incl_s"] += (span[2] - span[1]) * scale
                t["self_s"] += self_s * scale
                t["flop"] += span[5]
        return dict(out)

    def calls_per_step(self, steps, names):
        counts = {step: dict.fromkeys(names, 0) for step in steps}
        for span in self.spans:
            if span[4] in counts and span[0] in names:
                counts[span[4]][span[0]] += 1
        return counts
