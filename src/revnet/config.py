"""Flat key=value configuration with dotted section prefixes.

Files hold one `section.key=value` per line; '#' starts a comment and
blank lines are skipped. Later assignments win, which is also how CLI
--override entries are merged. Every key must be known; unknown keys are
a configuration error naming the key. Typed accessors convert values and
report the offending key on failure.

Every key but out.dir is a field of a settings dataclass (SECTIONS):
TrainConfig, TransformConfig, NetConfig, ReverseConfig and DataConfig own
the train., transform., net., net.reverse_ and data. keys, their defaults
and the checks on their values. settings_from builds one from the values.
"""

from dataclasses import MISSING, fields

from .data import DataConfig
from .errors import ConfigError
from .layers import ReverseConfig
from .network import NetConfig, TransformConfig
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


# The settings dataclasses and the prefix of their keys: each field with a
# plain default is the key prefix + name, converted by the default's type.
SECTIONS = {
    TrainConfig: "train.",
    TransformConfig: "transform.",
    NetConfig: "net.",
    ReverseConfig: "net.reverse_",
    DataConfig: "data.",
}


# key -> (converter, default as written in config syntax)
KNOWN_KEYS = {
    **{prefix + f.name: (_CONVERTERS[type(f.default)], _config_text(f.default))
       for cls, prefix in SECTIONS.items() for f in fields(cls) if f.default is not MISSING},
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


def settings_from(values, cls):
    """cls built from the typed values of its keys; a field whose default is
    a settings dataclass (TrainConfig.transform) is built from its own keys."""
    prefix = SECTIONS[cls]
    return cls(**{f.name: typed(values, prefix + f.name) if f.default is not MISSING
                  else settings_from(values, f.default_factory) for f in fields(cls)})


def config_lines(values):
    """Canonical sorted key=value lines (manifest snapshot form)."""
    return [f"{k}={values[k]}" for k in sorted(values)]
