"""Per-batch training procedure, SGD schedule, epoch loop, and evaluation.

Each batch runs a feed-forward, then two lanes that read only its output,
then a single parameter update. The class lane backpropagates the
classification loss, then generates latents from transformed likelihoods,
pushes them one step forward and backpropagates that loss. The
reconstruction lane runs the feed-backward (reconstruction) and its
adjoint. The lanes run side by side where there are two conv workers, else
one after the other (see _step_gradients), and give the same bits either
way. Gradients from all enabled loss terms are summed into that one
update, which sgd_update applies to the whole net at once: it checks every
gradient, clips the global norm, then writes the momentum step, so a
rejected step changes nothing. With reconstruction and generation disabled
the step degenerates to plain supervised SGD.
"""

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from . import data, tensor
from .checkpoint import save_checkpoint
from .errors import ConfigError, NumericError
from .layers import Dense, MaxPool
from .losses import LossReport, cross_entropy, one_hot, reconstruction_mse
from .network import TransformConfig, transform_likelihood

METRICS_COLUMNS = [
    "epoch", "step", "lr", "loss_total", "loss_cls", "loss_rec",
    "loss_gen", "train_err", "test_err", "seconds",
]


@dataclass
class TrainConfig:
    lr0: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_drop_epochs: tuple = (20, 40, 60)
    lr_drop_factor: float = 0.1
    epochs: int = 1
    train_batch: int = 128
    eval_batch: int = 100
    enable_reverse_loss: bool = True
    enable_generation: bool = True
    transform: TransformConfig = field(default_factory=TransformConfig)
    seed: int = 0
    determinism: bool = False
    augment: bool = False
    w_cls: float = 1.0
    w_rec: float = 1.0
    w_gen: float = 1.0
    warmup_epochs: int = 0
    # gradient routing for the generated-latent term: full differentiation
    # through the tied reverse weights, or treat the latent as a fresh
    # training input (stop-gradient at alpha-bar)
    gen_stop_grad: bool = False
    # score the one-step output against the true label or against the
    # transformed likelihood as a soft target
    gen_target: str = "label"
    # global gradient-norm cap applied to the summed per-batch gradient;
    # 0 disables. The reverse path produces heavy-tailed gradient spikes
    # once outputs saturate (log-likelihoods hit the clamp floor), and a
    # single spike can destroy float32 weights.
    clip_grad_norm: float = 0.0

    def __post_init__(self):
        if self.lr0 <= 0:
            raise ConfigError("lr0 must be positive")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must be in [0,1)")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.lr_drop_factor <= 0:
            raise ConfigError("lr_drop_factor must be positive")
        if self.train_batch < 1 or self.eval_batch < 1:
            raise ConfigError("batch sizes must be >= 1")
        drops = tuple(self.lr_drop_epochs)
        if any(b <= a for a, b in zip(drops, drops[1:])):
            raise ConfigError("lr_drop_epochs must be strictly increasing")
        self.lr_drop_epochs = drops
        if self.gen_target not in ("label", "transformed"):
            raise ConfigError("gen_target must be label|transformed")
        for name in ("weight_decay", "warmup_epochs", "w_cls", "w_rec", "w_gen", "clip_grad_norm"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")


def lr_at(epoch, cfg):
    """Piecewise-constant step schedule: lr0 scaled by lr_drop_factor once
    per drop epoch already reached."""
    if epoch < 0:
        raise ConfigError("epoch must be >= 0")
    n = sum(1 for e in cfg.lr_drop_epochs if e <= epoch)
    return cfg.lr0 * cfg.lr_drop_factor ** n


def sgd_update(net, acc, lr, cfg):
    """One momentum-SGD step over the whole net from the summed gradients
    acc, a buffer of net.params' layout, with classic L2 weight decay:

        v <- momentum*v - lr*(g + weight_decay*p);  p <- p + v

    The step applies fully or not at all: acc is checked finite (else
    NumericError, naming the first parameter at fault) before anything is
    written. Then, if cfg.clip_grad_norm > 0, it is scaled down to that
    global L2 norm, whose float64 sum of squares is taken slot by slot. The
    new velocity is computed and every new parameter checked finite (else
    NumericError) before anything is written. net.velocity is None, read
    as zero, until the first update. acc is only read.

    The step makes one new buffer, the velocity; the rest of the chain runs
    block by block through one scratch block (tensor.blockwise), with the
    same ops in the same order as on whole arrays, so the same bits.
    """
    _require_finite(net, acc, "non-finite gradient {}")
    f, scale = acc.dtype.type, None
    if cfg.clip_grad_norm > 0:
        total = np.sqrt(sum(_sum_squares(net.view(acc, *key)) for key in net.slots))
        if total > cfg.clip_grad_norm:
            scale = f(cfg.clip_grad_norm / total)
    wd, rate = f(cfg.weight_decay), f(lr)
    v = np.zeros_like(net.params) if net.velocity is None else net.velocity * f(cfg.momentum)

    def block(vb, pb, gb, step, gs):
        np.multiply(pb, wd, out=step)
        step += gb if scale is None else np.multiply(gb, scale, out=gs)
        step *= rate
        vb -= step
        if not np.all(np.isfinite(np.add(pb, vb, out=step))):
            # v is final through this block and finite past it
            _require_finite(net, net.params + v, "update makes parameter {} non-finite")

    tensor.blockwise(block, v, net.params, acc, scratch=2)
    net.velocity = v
    net.params += v


def _require_finite(net, a, message):
    """NumericError(message) naming the first parameter whose slot of a, a
    buffer of net.params' layout, is not finite."""
    if not np.all(np.isfinite(a)):
        i, name = next(key for key in net.slots if not np.all(np.isfinite(net.view(a, *key))))
        raise NumericError(message.format(f"{name} of layer {i} ({net.layers[i]!r})"))


def _sum_squares(g):
    """sum(g**2) in float64, summed block by block through one float64
    block of tensor._BLOCK_BYTES rather than a float64 copy of g."""
    flat = g.reshape(-1)
    step = max(1, tensor._BLOCK_BYTES // 8)
    block = np.empty(min(flat.size, step))
    total = 0.0
    for lo in range(0, flat.size, step):
        b = block[: min(step, flat.size - lo)]
        np.square(flat[lo : lo + step], out=b, dtype=np.float64)
        total += float(b.sum())
    return total


def train_step(net, batch, cfg, rng, epoch=0):
    """One Algorithm-style step on (x, labels); applies the update in place
    and returns the pre-update LossReport plus the batch error count."""
    rep, mis, acc = _step_gradients(net, batch, cfg, rng, epoch)
    sgd_update(net, acc, lr_at(epoch, cfg), cfg)
    return rep, mis


def _step_gradients(net, batch, cfg, rng, epoch):
    """The summed gradients of one step, with its LossReport and error
    count. Every activation and cache of the step is freed on return, so
    none of them is alive during the update.

    After the feed-forward the step runs two lanes (tensor.run_lanes),
    which read only the forward output and write separate zeroed gradient
    sums: the class lane (the class backward, then the generation chain)
    into acc, of net.params' layout, and the reconstruction lane
    (feed-backward, then the adjoint of its conv span, the layers below the
    first Dense) into the prefix of that layout that holds the span's slots.
    After the join that prefix is added into acc's, and the adjoint of the
    Dense span follows, on the caller, into acc. So every gradient sums
    class, generation, reconstruction conv span, reconstruction Dense span,
    in that order, for one conv worker and for two. The class backward and
    the reconstruction adjoint free each trace and cache entry they pass."""
    x, labels = batch
    f = x.dtype.type
    target = one_hot(labels, net.layers[net.final_dense_idx].out_features, dtype=x.dtype)
    acc = np.zeros_like(net.params)

    # feed-forward
    o, _, trace = net.feed_forward(x)
    rep = LossReport(w_cls=cfg.w_cls, w_rec=cfg.w_rec, w_gen=cfg.w_gen)
    rep.cls, g_logits = cross_entropy(o, target)
    mis = int(np.sum(np.argmax(o, axis=-1) != labels))
    # the reverse path reads only the pool masks (unpool mode) of the trace
    rtrace = [c if isinstance(l, MaxPool) else None for l, c in zip(net.layers, trace)]
    split = next(i for i, l in enumerate(net.layers) if isinstance(l, Dense))

    def class_lane():
        net.backward_from_logits(f(cfg.w_cls) * g_logits, trace, acc, free=True)
        # latent generation and one-step feed-forward: the generated latent
        # should still classify as the annotated label (or, optionally, as
        # the transformed likelihood treated as a soft target)
        if cfg.enable_generation and epoch >= cfg.warmup_epochs:
            obar = transform_likelihood(o, cfg.transform, rng)
            alphabar, gcaches = net.generate_latent(obar, want_caches=True)
            ohat, tail_caches = net.one_step_forward(alphabar, want_caches=True)
            gen_target = target if cfg.gen_target == "label" else obar
            rep.gen, g_hat = cross_entropy(ohat, gen_target)
            g_alpha = net.one_step_adjoint(f(cfg.w_gen) * g_hat, tail_caches, acc)
            if not cfg.gen_stop_grad:
                net.reverse_adjoint(g_alpha, gcaches, acc, lo=net.final_dense_idx)

    # feed-backward: reconstruct the input from the output likelihood;
    # the resulting gradient flows through the tied reverse chain only
    # (o itself is treated as data here)
    def reconstruction_lane():
        xbar, rcaches = net.feed_backward(o, trace=rtrace, want_caches=True)
        loss, g_rec = reconstruction_mse(xbar, x)
        racc = np.zeros_like(net.params[:net.offset(split)])
        g = net.reverse_adjoint(f(cfg.w_rec) * g_rec, rcaches, racc, hi=split, free=True)
        return loss, g, rcaches, racc

    if cfg.enable_reverse_loss:
        _, (rep.rec, g, rcaches, racc) = tensor.run_lanes(class_lane, reconstruction_lane)
        acc[:len(racc)] += racc
        # the Dense span's weight gradients, the step's largest transients,
        # stay off the helper: each thread's heap grows to its own high-water
        # mark, and the two marks add up in the peak RSS
        net.reverse_adjoint(g, rcaches, acc, lo=split, free=True)
    else:
        class_lane()

    if not np.isfinite(rep.total):
        raise NumericError(
            f"non-finite loss (cls={rep.cls} rec={rep.rec} gen={rep.gen}); aborting"
        )
    return rep, mis, acc


def confusion_counts(labels, preds, n_classes):
    m = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(m, (labels, preds), 1)
    return m


def evaluate(net, images, labels, n_classes, batch_size=100):
    """Returns (error %, mean loss, per-class recall). Classes absent from
    the set get recall 0 by convention."""
    n = images.shape[0]
    if n == 0:
        raise ConfigError("cannot evaluate an empty dataset")
    total_loss = 0.0
    conf = np.zeros((n_classes, n_classes), dtype=np.int64)
    for lo in range(0, n, batch_size):
        xb = images[lo:lo + batch_size]
        yb = labels[lo:lo + batch_size]
        o, _, _ = net.feed_forward(xb)
        loss, _ = cross_entropy(o, one_hot(yb, n_classes, dtype=o.dtype))
        total_loss += loss * xb.shape[0]
        conf += confusion_counts(yb, np.argmax(o, axis=-1), n_classes)
    correct = np.trace(conf)
    per_class = conf.sum(axis=1)
    recall = np.where(per_class > 0, np.diag(conf) / np.maximum(per_class, 1), 0.0)
    err = 100.0 * (n - correct) / n
    return float(err), total_loss / n, recall


@dataclass
class MetricsRow:
    epoch: int
    step: int
    lr: float
    report: LossReport
    train_err: float
    test_err: float = None
    seconds: float = 0.0

    def to_csv(self):
        te = "" if self.test_err is None else f"{self.test_err:.4f}"
        return [
            str(self.epoch), str(self.step), f"{self.lr:.8g}",
            f"{self.report.total:.8g}", f"{self.report.cls:.8g}",
            f"{self.report.rec:.8g}", f"{self.report.gen:.8g}",
            f"{self.train_err:.4f}", te, f"{self.seconds:.3f}",
        ]


def batch_order(n, batch_size, rng):
    idx = rng.permutation(n)
    return [idx[lo:lo + batch_size] for lo in range(0, n, batch_size)]


def run_experiment(net, train_images, train_labels, test_images, test_labels,
                   n_classes, cfg, out_dir=None, log=None):
    """Epoch loop: per-step metric rows, evaluation at each epoch end,
    checkpoints at every lr drop and at the end. With cfg.augment each
    batch goes through data.augment first.

    Returns (rows, final_eval). out_dir, when given, receives metrics.csv
    and checkpoint files; log, when given, gets one text line per epoch.
    A NumericError from a step is raised again with its epoch and step.
    """
    if train_images.shape[0] == 0:
        raise ConfigError("cannot train on an empty dataset")
    ss = np.random.SeedSequence(cfg.seed)
    shuffle_rng, transform_rng, augment_rng = (
        np.random.default_rng(s) for s in ss.spawn(3)
    )
    rows = []
    step = 0
    final_eval = None
    writer = None
    fh = None
    if out_dir is not None:
        fh = open(f"{out_dir}/metrics.csv", "w", newline="")
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
    try:
        for epoch in range(cfg.epochs):
            order = batch_order(train_images.shape[0], cfg.train_batch, shuffle_rng)
            for bi, idx in enumerate(order):
                t0 = time.perf_counter()
                xb = train_images[idx]
                yb = train_labels[idx]
                if cfg.augment:
                    xb = data.augment(xb, augment_rng)
                try:
                    rep, mis = train_step(net, (xb, yb), cfg, transform_rng, epoch=epoch)
                except NumericError as exc:
                    raise NumericError(f"epoch {epoch} step {step}: {exc}") from exc
                seconds = 0.0 if cfg.determinism else time.perf_counter() - t0
                test_err = None
                if bi == len(order) - 1:
                    final_eval = evaluate(
                        net, test_images, test_labels, n_classes, cfg.eval_batch
                    )
                    test_err = final_eval[0]
                row = MetricsRow(
                    epoch, step, lr_at(epoch, cfg), rep,
                    100.0 * mis / xb.shape[0], test_err, seconds,
                )
                rows.append(row)
                if writer is not None:
                    writer.writerow(row.to_csv())
                step += 1
            if log is not None:
                log(f"epoch {epoch}: lr {lr_at(epoch, cfg):.8g} "
                    f"loss {rows[-1].report.total:.6g} test_err {final_eval[0]:.4f}%")
            if out_dir is not None and (epoch + 1) in cfg.lr_drop_epochs:
                save_checkpoint(f"{out_dir}/checkpoint-epoch{epoch + 1:03d}.rvnt",
                                net, extra={"epoch": epoch + 1, "step": step})
    finally:
        if fh is not None:
            fh.close()
    if out_dir is not None:
        save_checkpoint(f"{out_dir}/checkpoint-final.rvnt", net,
                        extra={"epoch": cfg.epochs, "step": step})
    return rows, final_eval
