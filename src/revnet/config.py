"""Flat key=value configuration with dotted section prefixes.

Files hold one `section.key=value` per line; '#' starts a comment and
blank lines are skipped. Later assignments win, which is also how CLI
--override entries are merged. Every key must be known; unknown keys are
a configuration error naming the key. Typed accessors convert values and
report the offending key on failure.
"""

from .errors import ConfigError
from .layers import ReverseConfig
from .network import ARCHITECTURES, NetworkSpec, TransformConfig
from .training import TrainConfig


def _bool(text):
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _int_list(text):
    t = text.strip()
    return tuple(int(v) for v in t.split(",") if v.strip()) if t else ()


# key -> (converter, default as written in config syntax)
KNOWN_KEYS = {
    "train.lr0": (float, "0.1"),
    "train.momentum": (float, "0.9"),
    "train.weight_decay": (float, "1e-4"),
    "train.lr_drop_epochs": (_int_list, "20,40,60"),
    "train.lr_drop_factor": (float, "0.1"),
    "train.epochs": (int, "1"),
    "train.train_batch": (int, "128"),
    "train.eval_batch": (int, "100"),
    "train.enable_reverse_loss": (_bool, "true"),
    "train.enable_generation": (_bool, "true"),
    "train.seed": (int, "0"),
    "train.determinism": (_bool, "false"),
    "train.augment": (_bool, "false"),
    "train.w_cls": (float, "1.0"),
    "train.w_rec": (float, "1.0"),
    "train.w_gen": (float, "1.0"),
    "train.warmup_epochs": (int, "0"),
    "train.gen_stop_grad": (_bool, "false"),
    "train.gen_target": (str, "label"),
    "train.clip_grad_norm": (float, "0"),
    "transform.boost_count": (int, "1"),
    "transform.boost_factor": (float, "0.95"),
    "transform.renormalize": (_bool, "true"),
    "transform.include_argmax": (_bool, "false"),
    "net.arch": (str, "baseline"),
    "net.layers": (str, ""),
    "net.reverse_activation": (str, "inverse"),
    "net.reverse_pool": (str, "upsample"),
    "data.kind": (str, "synthetic"),
    "data.root": (str, ""),
    "data.normalize": (str, "divide_mean"),
    "data.limit": (int, "0"),
    "data.coarse": (_bool, "false"),
    "data.n_per_class": (int, "200"),
    "data.test_n_per_class": (int, "50"),
    "data.noise": (float, "0.1"),
    "out.dir": (str, "out"),
}


def parse_config_text(text, source="<config>"):
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {stripped!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def load_config(path=None, overrides=()):
    """Defaults, then the file, then overrides; returns raw string values."""
    values = {k: default for k, (_, default) in KNOWN_KEYS.items()}
    if path is not None:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        values.update(parse_config_text(text, source=path))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = value.strip()
    return values


def typed(values, key):
    conv, _ = KNOWN_KEYS[key]
    try:
        return conv(values[key])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"config key {key}: {exc}") from exc


def train_config_from(values):
    transform = TransformConfig(
        boost_count=typed(values, "transform.boost_count"),
        boost_factor=typed(values, "transform.boost_factor"),
        renormalize=typed(values, "transform.renormalize"),
        include_argmax=typed(values, "transform.include_argmax"),
    )
    return TrainConfig(
        lr0=typed(values, "train.lr0"),
        momentum=typed(values, "train.momentum"),
        weight_decay=typed(values, "train.weight_decay"),
        lr_drop_epochs=typed(values, "train.lr_drop_epochs"),
        lr_drop_factor=typed(values, "train.lr_drop_factor"),
        epochs=typed(values, "train.epochs"),
        train_batch=typed(values, "train.train_batch"),
        eval_batch=typed(values, "train.eval_batch"),
        enable_reverse_loss=typed(values, "train.enable_reverse_loss"),
        enable_generation=typed(values, "train.enable_generation"),
        transform=transform,
        seed=typed(values, "train.seed"),
        determinism=typed(values, "train.determinism"),
        augment=typed(values, "train.augment"),
        w_cls=typed(values, "train.w_cls"),
        w_rec=typed(values, "train.w_rec"),
        w_gen=typed(values, "train.w_gen"),
        warmup_epochs=typed(values, "train.warmup_epochs"),
        gen_stop_grad=typed(values, "train.gen_stop_grad"),
        gen_target=typed(values, "train.gen_target"),
        clip_grad_norm=typed(values, "train.clip_grad_norm"),
    )


def reverse_config_from(values):
    activation = typed(values, "net.reverse_activation")
    pool = typed(values, "net.reverse_pool")
    if activation not in ("inverse", "forward"):
        raise ConfigError(f"net.reverse_activation must be inverse|forward, got {activation!r}")
    if pool not in ("upsample", "unpool"):
        raise ConfigError(f"net.reverse_pool must be upsample|unpool, got {pool!r}")
    return ReverseConfig(activation=activation, pool=pool)


def network_spec_from(values, input_shape, n_classes):
    arch = typed(values, "net.arch")
    if arch == "custom":
        tokens = [t.strip() for t in typed(values, "net.layers").split(",") if t.strip()]
        if not tokens:
            raise ConfigError("net.arch=custom needs net.layers tokens")
        return NetworkSpec(tuple(input_shape), n_classes, tokens)
    if arch not in ARCHITECTURES:
        known = "|".join(sorted(ARCHITECTURES) + ["custom"])
        raise ConfigError(f"net.arch must be {known}, got {arch!r}")
    return ARCHITECTURES[arch](input_shape, n_classes)


def config_lines(values):
    """Canonical sorted key=value lines (manifest snapshot form)."""
    return [f"{k}={values[k]}" for k in sorted(values)]
