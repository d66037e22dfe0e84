"""Command-line entry points.

Subcommands: train (epoch loop with metrics CSV and checkpoints),
reconstruct (side-by-side input/reconstruction grids), generate
(likelihood transform, latent generation, and visualization), compose
(class-imbalance subsampling to CIFAR-style records). Every command
writes a manifest.json inventorying its outputs. Exit codes: 0 ok,
2 configuration error, 3 data error, 4 numeric divergence.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__, tensor
from .checkpoint import load_checkpoint
from .config import (
    config_lines,
    load_config,
    network_spec_from,
    reverse_config_from,
    train_config_from,
    typed,
)
from .data import (
    ImbalanceProfile,
    augment,
    compose_imbalanced,
    load_cifar_binary,
    load_composed,
    load_mnist_dir,
    normalize_channelwise,
    save_composed,
    synthetic_digits,
)
from .errors import ConfigError, DataError, NumericError, RevnetError
from .imaging import generation_grid, reconstruction_grid, save_image
from .network import transform_likelihood
from .training import run_experiment

SYNTH_TRAIN_SEED = 1001
SYNTH_TEST_SEED = 2002


def _mnist_root(values):
    root = typed(values, "data.root")
    return root or os.environ.get("REVNET_MNIST_DIR", "data/mnist")


def resolve_raw_dataset(values, split):
    """Load one split of the configured dataset, pixels in [0,1],
    no normalization applied."""
    kind = typed(values, "data.kind")
    if kind == "synthetic":
        n = typed(values, "data.n_per_class" if split == "train" else "data.test_n_per_class")
        seed = SYNTH_TRAIN_SEED if split == "train" else SYNTH_TEST_SEED
        return synthetic_digits(n, seed=seed, noise=typed(values, "data.noise"))
    if kind == "mnist":
        train, test = load_mnist_dir(_mnist_root(values))
        return train if split == "train" else test
    root = typed(values, "data.root")
    if not root:
        raise ConfigError(f"data.kind={kind} needs data.root")
    if kind == "cifar10":
        if split == "train":
            paths = [os.path.join(root, f"data_batch_{i}.bin") for i in range(1, 6)]
        else:
            paths = [os.path.join(root, "test_batch.bin")]
        missing = [p for p in paths if not os.path.exists(p)]
        if missing:
            raise DataError(f"missing CIFAR-10 files: {', '.join(missing)}")
        return load_cifar_binary(paths, class_count=10)
    if kind == "cifar100":
        name = "train.bin" if split == "train" else "test.bin"
        path = os.path.join(root, name)
        if not os.path.exists(path):
            raise DataError(f"missing CIFAR-100 file: {path}")
        coarse = typed(values, "data.coarse")
        return load_cifar_binary([path], coarse=coarse, class_count=20 if coarse else 100)
    if kind == "composed":
        sub = os.path.join(root, split)
        if not os.path.isdir(sub):
            raise DataError(f"composed dataset split not found: {sub}")
        return load_composed(sub)
    raise ConfigError(f"data.kind must be synthetic|mnist|cifar10|cifar100|composed, got {kind!r}")


def resolve_dataset_pair(values):
    """(train, test, class_count) with data.limit and normalization applied;
    test reuses the training-set statistics."""
    train = resolve_raw_dataset(values, "train")
    test = resolve_raw_dataset(values, "test")
    limit = typed(values, "data.limit")
    if limit:
        train = train.take(np.arange(min(limit, len(train))))
    mode = typed(values, "data.normalize")
    if mode != "none":
        train, stats = normalize_channelwise(train, mode=mode)
        test, _ = normalize_channelwise(test, stats=stats, mode=mode)
    return train, test, train.class_count


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def dataset_fingerprint(ds):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ds.images).tobytes())
    h.update(np.ascontiguousarray(ds.labels).tobytes())
    return h.hexdigest()


def write_manifest(out_dir, command, values, seed, fingerprints, start, end):
    outputs = []
    for root, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out_dir)
            if rel == "manifest.json":
                continue
            with open(path, "rb") as fh:
                blob = fh.read()
            outputs.append({"path": rel, "bytes": len(blob), "sha256": _sha256(blob)})
    outputs.sort(key=lambda rec: rec["path"])
    manifest = {
        "command": command,
        "code_version": __version__,
        "config": config_lines(values),
        "seed": seed,
        "dataset_fingerprints": fingerprints,
        "start": start,
        "end": end,
        "outputs": outputs,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _now(deterministic):
    return None if deterministic else datetime.now(timezone.utc).isoformat()


def _apply_common(args, values):
    if args.out:
        values["out.dir"] = args.out
    if args.seed is not None:
        values["train.seed"] = str(args.seed)
    if args.deterministic:
        values["train.determinism"] = "true"
    if getattr(args, "mode", None) == "nn":
        values["train.enable_reverse_loss"] = "false"
        values["train.enable_generation"] = "false"
    elif getattr(args, "mode", None) == "rn":
        values["train.enable_reverse_loss"] = "true"
        values["train.enable_generation"] = "true"
    return values


def _setup_runtime(deterministic):
    # main undoes this on return (tensor.threads_restored)
    if tensor.set_threads() is None and deterministic:
        tensor.set_threads(1)


def cmd_train(args):
    values = _apply_common(args, load_config(args.config, args.override))
    cfg = train_config_from(values)
    _setup_runtime(cfg.determinism)
    start = _now(cfg.determinism)
    train, test, n_classes = resolve_dataset_pair(values)
    rcfg = reverse_config_from(values)
    spec = network_spec_from(values, train.images.shape[1:], n_classes)
    out_dir = typed(values, "out.dir")
    os.makedirs(out_dir, exist_ok=True)
    summary = []
    for r in range(args.repeats):
        seed_r = cfg.seed + r
        cfg_r = replace(cfg, seed=seed_r)
        sub = out_dir if args.repeats == 1 else os.path.join(out_dir, f"run-{r:02d}")
        os.makedirs(sub, exist_ok=True)
        net = spec.build(
            np.random.default_rng(np.random.SeedSequence([seed_r, 1])), rcfg=rcfg
        )
        print(f"run {r}: seed {seed_r}, {len(train)} train / {len(test)} test samples")
        _, final = run_experiment(
            net, train.images, train.labels, test.images, test.labels,
            n_classes, cfg_r, out_dir=sub, log=print, augment_fn=augment,
        )
        summary.append((seed_r, final[0], final[1]))
    if args.repeats > 1:
        with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["seed", "test_err", "test_loss"])
            for seed_r, err, loss in summary:
                w.writerow([seed_r, f"{err:.4f}", f"{loss:.8g}"])
            errs = [s[1] for s in summary]
            w.writerow(["mean", f"{np.mean(errs):.4f}", ""])
    fingerprints = {"train": dataset_fingerprint(train), "test": dataset_fingerprint(test)}
    write_manifest(out_dir, "train", values, cfg.seed, fingerprints,
                   start, _now(cfg.determinism))
    for seed_r, err, loss in summary:
        print(f"seed {seed_r}: test_err {err:.4f}% test_loss {loss:.6g}")
    return 0


def _load_net_and_batch(args, values):
    rcfg = reverse_config_from(values)
    net, extra = load_checkpoint(args.checkpoint, rcfg=rcfg)
    train, test, _ = resolve_dataset_pair(values)
    ds = test if args.split == "test" else train
    if args.count < 1:
        raise ConfigError("--count must be >= 1")
    x = ds.images[:args.count]
    if x.shape[1:] != net.input_shape:
        raise ConfigError(
            f"dataset samples are {x.shape[1:]} but the checkpoint was trained "
            f"on {net.input_shape}"
        )
    return net, x, (train, test)


def cmd_reconstruct(args):
    values = _apply_common(args, load_config(args.config, args.override))
    deterministic = typed(values, "train.determinism")
    _setup_runtime(deterministic)
    start = _now(deterministic)
    net, x, (train, test) = _load_net_and_batch(args, values)
    o, _, trace = net.feed_forward(x)
    xbar = net.feed_backward(o, trace=trace)
    out_dir = typed(values, "out.dir")
    os.makedirs(out_dir, exist_ok=True)
    grid = reconstruction_grid(x, xbar)
    ext = "ppm" if grid.ndim == 3 else "pgm"
    save_image(os.path.join(out_dir, f"reconstructions.{ext}"), grid)
    fingerprints = {"train": dataset_fingerprint(train), "test": dataset_fingerprint(test)}
    write_manifest(out_dir, "reconstruct", values, typed(values, "train.seed"),
                   fingerprints, start, _now(deterministic))
    print(f"wrote reconstructions for {x.shape[0]} samples to {out_dir}")
    return 0


def cmd_generate(args):
    values = _apply_common(args, load_config(args.config, args.override))
    deterministic = typed(values, "train.determinism")
    _setup_runtime(deterministic)
    start = _now(deterministic)
    net, x, (train, test) = _load_net_and_batch(args, values)
    cfg = train_config_from(values)
    o, _, trace = net.feed_forward(x)
    if args.bypass_transform:
        tr = o.copy()
    else:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
        tr = transform_likelihood(o, cfg.transform, rng)
    alphabar = net.generate_latent(tr, trace=trace)
    xbar = net.reverse_from_latent(alphabar, trace=trace)
    ohat = net.one_step_forward(alphabar)
    out_dir = typed(values, "out.dir")
    os.makedirs(out_dir, exist_ok=True)
    grid = generation_grid(x, o, tr, alphabar, xbar)
    ext = "ppm" if grid.ndim == 3 else "pgm"
    save_image(os.path.join(out_dir, f"generation.{ext}"), grid)
    with open(os.path.join(out_dir, "likelihoods.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        n = o.shape[1]
        w.writerow(["sample", "kind"] + [f"p{c}" for c in range(n)])
        for i in range(o.shape[0]):
            for kind, mat in (("o", o), ("tr", tr), ("o_hat", ohat)):
                w.writerow([i, kind] + [f"{v:.8g}" for v in mat[i]])
    fingerprints = {"train": dataset_fingerprint(train), "test": dataset_fingerprint(test)}
    write_manifest(out_dir, "generate", values, cfg.seed, fingerprints,
                   start, _now(deterministic))
    print(f"wrote generation grid and likelihoods for {x.shape[0]} samples to {out_dir}")
    return 0


def cmd_compose(args):
    values = _apply_common(args, load_config(args.config, args.override))
    deterministic = typed(values, "train.determinism")
    _setup_runtime(deterministic)
    source = resolve_raw_dataset(values, args.split)
    seed = typed(values, "train.seed")
    profile = ImbalanceProfile.parse(args.profile, source.class_count, seed=seed)
    composed = compose_imbalanced(source, profile)
    out_dir = typed(values, "out.dir")
    save_composed(out_dir, composed, profile, source_note=typed(values, "data.kind"))
    counts = ",".join(str(v) for v in composed.class_counts())
    print(f"wrote {len(composed)} records to {out_dir} (per-class {counts})")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="revnet",
        description="Train and inspect reversible classifier networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="key=value config file")
        sp.add_argument("--override", action="append", default=[], metavar="K=V",
                        help="override a config key (repeatable)")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--deterministic", action="store_true",
                        help="fixed thread count, zeroed timings, no timestamps")
        sp.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("train", help="run the training loop")
    common(p)
    p.add_argument("--mode", choices=("nn", "rn"),
                   help="nn: plain supervised; rn: reconstruction + generation")
    p.add_argument("--repeats", type=int, default=1, help="seeds seed..seed+N-1")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("reconstruct", help="input vs feed-backward grids")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("generate", help="transformed-likelihood latent generation")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--bypass-transform", action="store_true",
                   help="skip the likelihood transform (tr(o) = o)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("compose", help="subsample a dataset to an imbalance profile")
    common(p)
    p.add_argument("--profile", required=True,
                   help="per-class counts, e.g. '5000x5,50x5' or '100,100,...'")
    p.add_argument("--split", choices=("train", "test"), default="train")
    p.set_defaults(func=cmd_compose)
    return parser


def main(argv=None):
    """Run one command; returns its exit code. Any thread cap the command
    sets (REVNET_THREADS, --deterministic) lasts only until it returns."""
    args = build_parser().parse_args(argv)
    try:
        with tensor.threads_restored():
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except RevnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
