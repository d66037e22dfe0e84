"""Loss terms: softmax cross-entropy, reconstruction error, and their sum.

Cross-entropy pairs with the softmax head, so its gradient is taken with
respect to the pre-softmax logits (the usual o - target form). The
reconstruction term sums squared pixel error per sample and averages over
the batch. The combined objective is a plain weighted sum; with all
weights at 1 it is exact addition of the parts.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

EPS = 1e-12
# cross_entropy flushes logit-gradient entries smaller than this to 0. Rows
# of o sum to 1, so they sit more than 20 orders of magnitude below each
# row's large entries, and carried into the backward pass their products
# fall into float32's subnormal range, where the GEMMs run many times
# slower: on one repeated baseline batch, 9 of 26 steps took 1.4-6.4 s
# against about 0.45 s, and none took over 1 s with the flush.
FLUSH = 1e-30


def one_hot(labels, n_classes, dtype=np.float32):
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be rank 1, got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ShapeError(f"labels outside [0,{n_classes})")
    out = np.zeros((labels.shape[0], n_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1
    return out


def cross_entropy(o, target):
    """Mean -sum(target * log(o)) over the batch, plus the gradient with
    respect to the logits that produced o through a softmax.

    target may be hard one-hot rows or any distribution rows (soft
    targets from transformed likelihoods use the same formula). Gradient
    entries below FLUSH in magnitude are set to 0.
    """
    if o.shape != target.shape:
        raise ShapeError(f"output {o.shape} vs target {target.shape}")
    b = o.shape[0]
    loss = float(-np.sum(target * np.log(np.maximum(o, EPS))) / b)
    # general form; reduces to (o - target)/b when target rows sum to 1
    row_mass = target.sum(axis=1, keepdims=True)
    g_logits = (o * row_mass - target) / o.dtype.type(b)
    g_logits[np.abs(g_logits) < FLUSH] = 0
    return loss, g_logits


def reconstruction_mse(xbar, x):
    """Per-sample summed squared error, averaged over the batch, plus the
    gradient with respect to xbar."""
    if xbar.shape != x.shape:
        raise ShapeError(f"reconstruction {xbar.shape} vs input {x.shape}")
    b = xbar.shape[0]
    diff = xbar - x
    loss = float(np.sum(diff * diff) / b)
    g = (2.0 / b) * diff
    return loss, g.astype(xbar.dtype, copy=False)


@dataclass
class LossReport:
    """Per-batch scalar terms; total is the weighted sum of the parts."""

    cls: float = 0.0
    rec: float = 0.0
    gen: float = 0.0
    w_cls: float = 1.0
    w_rec: float = 1.0
    w_gen: float = 1.0

    @property
    def total(self):
        return self.w_cls * self.cls + self.w_rec * self.rec + self.w_gen * self.gen
