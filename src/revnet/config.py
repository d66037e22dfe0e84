"""Flat key=value configuration with dotted section prefixes.

Files hold one `section.key=value` per line; '#' starts a comment and
blank lines are skipped. Later assignments win, which is also how CLI
--override entries are merged. Every key must be known; unknown keys are
a configuration error naming the key. Typed accessors convert values and
report the offending key on failure.
"""

from dataclasses import MISSING, fields

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


_CONVERTERS = {bool: _bool, tuple: _int_list, int: int, float: float, str: str}


def _config_text(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _field_keys(cls, prefix):
    """One key per field of cls with a plain default, converted by the
    default's type; fields with a default factory are not keys."""
    return {
        prefix + f.name: (_CONVERTERS[type(f.default)], _config_text(f.default))
        for f in fields(cls) if f.default is not MISSING
    }


# key -> (converter, default as written in config syntax). The train.,
# transform. and net.reverse_ keys are the fields of TrainConfig,
# TransformConfig and ReverseConfig, which own their defaults and checks.
KNOWN_KEYS = {
    **_field_keys(TrainConfig, "train."),
    **_field_keys(TransformConfig, "transform."),
    "net.arch": (str, "baseline"),
    "net.layers": (str, ""),
    **_field_keys(ReverseConfig, "net.reverse_"),
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


def _section(values, prefix):
    """Typed values of every key under prefix, by field name."""
    return {k[len(prefix):]: typed(values, k) for k in KNOWN_KEYS if k.startswith(prefix)}


def train_config_from(values):
    transform = TransformConfig(**_section(values, "transform."))
    return TrainConfig(transform=transform, **_section(values, "train."))


def reverse_config_from(values):
    return ReverseConfig(**_section(values, "net.reverse_"))


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
