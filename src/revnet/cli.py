"""Command-line entry points.

Subcommands: train (epoch loop with metrics CSV and checkpoints),
reconstruct (side-by-side input/reconstruction grids), generate
(likelihood transform, latent generation, and visualization), compose
(class-imbalance subsampling to CIFAR-style records). train,
reconstruct and generate write a manifest.json inventorying their outputs;
compose writes the composed dataset's own manifest.json (geometry, class
counts, profile) instead. Each command builds the settings it uses (the
DataConfig, NetConfig and other dataclasses) before it reads any file or
checkpoint. Exit codes (EXIT_CODES): 0 ok, 2 configuration error, 3 data
error, 4 numeric divergence.
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
from .config import config_lines, load_config, settings_from, typed
from .data import DataConfig, ImbalanceProfile, compose_imbalanced, save_composed
from .errors import ConfigError, DataError, NumericError, RevnetError
from .imaging import generation_grid, reconstruction_grid, save_image
from .layers import ReverseConfig
from .network import NetConfig, transform_likelihood
from .training import TrainConfig, run_experiment


def dataset_fingerprint(ds):
    h = hashlib.sha256(np.ascontiguousarray(ds.images))
    h.update(np.ascontiguousarray(ds.labels))
    return h.hexdigest()


def write_manifest(out_dir, command, values, datasets, start):
    """Inventory out_dir's files with the config, the seed, the (train,
    test) pair's fingerprints and the start and end times. The config
    leaves out out.dir, the directory the manifest sits in, so a rerun
    into another directory writes the same manifest."""
    end = _now(typed(values, "train.determinism"))
    outputs = []
    for root, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out_dir)
            if rel == "manifest.json":
                continue
            with open(path, "rb") as fh:
                blob = fh.read()
            outputs.append({"path": rel, "bytes": len(blob),
                            "sha256": hashlib.sha256(blob).hexdigest()})
    outputs.sort(key=lambda rec: rec["path"])
    manifest = {
        "command": command,
        "code_version": __version__,
        "config": config_lines({k: v for k, v in values.items() if k != "out.dir"}),
        "seed": typed(values, "train.seed"),
        "dataset_fingerprints": dict(zip(("train", "test"), map(dataset_fingerprint, datasets))),
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
    if getattr(args, "mode", None):
        on = "true" if args.mode == "rn" else "false"
        values["train.enable_reverse_loss"] = values["train.enable_generation"] = on
    return values


def cmd_train(args, values, start):
    if args.repeats < 1:
        raise ConfigError("--repeats must be >= 1")
    cfg, rcfg = settings_from(values, TrainConfig), settings_from(values, ReverseConfig)
    ncfg, dcfg = settings_from(values, NetConfig), settings_from(values, DataConfig)
    train, test = dcfg.load_pair()
    if cfg.enable_generation:
        cfg.transform.check_classes(train.class_count)
    spec = ncfg.spec(train.images.shape[1:], train.class_count)
    out_dir = typed(values, "out.dir")
    summary = []
    for r in range(args.repeats):
        seed_r = cfg.seed + r
        cfg_r = replace(cfg, seed=seed_r)
        # built first, so an architecture that does not fit leaves no directory
        net = spec.build(np.random.default_rng(np.random.SeedSequence([seed_r, 1])), rcfg=rcfg)
        sub = out_dir if args.repeats == 1 else os.path.join(out_dir, f"run-{r:02d}")
        os.makedirs(sub, exist_ok=True)
        print(f"run {r}: seed {seed_r}, {len(train)} train / {len(test)} test samples")
        _, final = run_experiment(
            net, train.images, train.labels, test.images, test.labels,
            train.class_count, cfg_r, out_dir=sub, log=print,
        )
        summary.append((seed_r, final[0], final[1]))
    if args.repeats > 1:
        with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["seed", "test_err", "test_loss"])
            for seed_r, err, loss in summary:
                w.writerow([seed_r, f"{err:.4f}", f"{loss:.8g}"])
            w.writerow(["mean", f"{np.mean([s[1] for s in summary]):.4f}", ""])
    write_manifest(out_dir, "train", values, (train, test), start)
    for seed_r, err, loss in summary:
        print(f"seed {seed_r}: test_err {err:.4f}% test_loss {loss:.6g}")
    return 0


def _load_net_and_batch(args, values):
    if args.count < 1:
        raise ConfigError("--count must be >= 1")
    rcfg, dcfg = settings_from(values, ReverseConfig), settings_from(values, DataConfig)
    net, _ = load_checkpoint(args.checkpoint, rcfg=rcfg)
    train, test = dcfg.load_pair()
    x = (test if args.split == "test" else train).images[:args.count]
    if x.shape[1:] != net.input_shape:
        raise ConfigError(f"dataset samples are {x.shape[1:]} but the checkpoint was trained "
                          f"on {net.input_shape}")
    return net, x, (train, test)


def _save_grid(values, name, grid):
    """Write grid to out.dir as name.ppm (color) or name.pgm; returns out.dir."""
    out_dir = typed(values, "out.dir")
    os.makedirs(out_dir, exist_ok=True)
    save_image(os.path.join(out_dir, f"{name}.{'ppm' if grid.ndim == 3 else 'pgm'}"), grid)
    return out_dir


def cmd_reconstruct(args, values, start):
    net, x, datasets = _load_net_and_batch(args, values)
    o, _, trace = net.feed_forward(x)
    xbar = net.feed_backward(o, trace=trace)
    out_dir = _save_grid(values, "reconstructions", reconstruction_grid(x, xbar))
    write_manifest(out_dir, "reconstruct", values, datasets, start)
    print(f"wrote reconstructions for {x.shape[0]} samples to {out_dir}")
    return 0


def cmd_generate(args, values, start):
    cfg = settings_from(values, TrainConfig)
    net, x, datasets = _load_net_and_batch(args, values)
    if not args.bypass_transform:
        cfg.transform.check_classes(net.shapes[-1][0])
    o, _, trace = net.feed_forward(x)
    if args.bypass_transform:
        tr = o.copy()
    else:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
        tr = transform_likelihood(o, cfg.transform, rng)
    alphabar = net.generate_latent(tr, trace=trace)
    xbar = net.reverse_from_latent(alphabar, trace=trace)
    ohat = net.one_step_forward(alphabar)
    out_dir = _save_grid(values, "generation", generation_grid(x, o, tr, alphabar, xbar))
    with open(os.path.join(out_dir, "likelihoods.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        n = o.shape[1]
        w.writerow(["sample", "kind"] + [f"p{c}" for c in range(n)])
        for i in range(o.shape[0]):
            for kind, mat in (("o", o), ("tr", tr), ("o_hat", ohat)):
                w.writerow([i, kind] + [f"{v:.8g}" for v in mat[i]])
    write_manifest(out_dir, "generate", values, datasets, start)
    print(f"wrote generation grid and likelihoods for {x.shape[0]} samples to {out_dir}")
    return 0


def cmd_compose(args, values, start):
    dcfg = settings_from(values, DataConfig)
    source = dcfg.load(args.split)
    seed = typed(values, "train.seed")
    profile = ImbalanceProfile.parse(args.profile, source.class_count, seed=seed)
    composed = compose_imbalanced(source, profile)
    out_dir = typed(values, "out.dir")
    save_composed(out_dir, composed, profile, source_note=dcfg.kind)
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


# (error type, exit code, message prefix); the first match wins
EXIT_CODES = ((ConfigError, 2, "config error"), (DataError, 3, "data error"),
              (NumericError, 4, "numeric error"), (RevnetError, 1, "error"))


def main(argv=None):
    """Run one command on the loaded config and its start time; returns
    its exit code. Any thread cap the run sets (REVNET_THREADS,
    --deterministic) lasts only until the command returns."""
    args = build_parser().parse_args(argv)
    try:
        with tensor.threads_restored():
            values = _apply_common(args, load_config(args.config, args.override))
            deterministic = typed(values, "train.determinism")
            if tensor.set_threads() is None and deterministic:
                tensor.set_threads(1)
            return args.func(args, values, _now(deterministic))
    except RevnetError as exc:
        _, code, label = next(e for e in EXIT_CODES if isinstance(exc, e[0]))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
