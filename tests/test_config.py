"""Config parsing: precedence, key validation, typed conversion."""

from dataclasses import MISSING, fields

import numpy as np
import pytest

from revnet.config import (
    KNOWN_KEYS,
    SECTIONS,
    config_lines,
    load_config,
    parse_config_text,
    settings_from,
    typed,
)
from revnet.data import DataConfig
from revnet.errors import ConfigError
from revnet.layers import ReverseConfig
from revnet.network import NetConfig, TransformConfig
from revnet.training import TrainConfig


class TestParse:
    def test_comments_and_blanks(self):
        text = "\n# full line comment\ntrain.lr0 = 0.5  # trailing\n\n"
        values = parse_config_text(text)
        assert values == {"train.lr0": "0.5"}

    def test_unknown_key_names_source_line(self):
        with pytest.raises(ConfigError, match=r"my\.cfg:2: unknown config key 'train\.lr'"):
            parse_config_text("train.lr0=0.1\ntrain.lr=0.2\n", source="my.cfg")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match=":1:"):
            parse_config_text("train.lr0 0.1")

    def test_last_assignment_wins(self):
        values = parse_config_text("train.epochs=1\ntrain.epochs=9\n")
        assert values["train.epochs"] == "9"

    def test_value_may_contain_equals(self):
        values = parse_config_text("net.layers=dense:10,softmax")
        assert values["net.layers"] == "dense:10,softmax"


class TestLoad:
    def test_defaults_cover_all_keys(self):
        values = load_config()
        assert set(values) == set(KNOWN_KEYS)
        assert values["train.lr0"] == "0.1"
        assert values["net.arch"] == "baseline"

    def test_precedence_file_then_overrides(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("train.epochs=5\ntrain.lr0=0.2\n")
        values = load_config(cfg, overrides=["train.lr0=0.3"])
        assert values["train.epochs"] == "5"
        assert values["train.lr0"] == "0.3"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "nope.cfg")

    def test_bad_override_shape(self):
        with pytest.raises(ConfigError, match="KEY=VALUE"):
            load_config(overrides=["train.lr0"])

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="unknown config key 'zap'"):
            load_config(overrides=["zap=1"])


class TestTyped:
    def test_conversions(self):
        values = load_config(overrides=[
            "train.lr_drop_epochs=3,4",
            "train.enable_generation=off",
            "train.determinism=yes",
        ])
        assert typed(values, "train.lr_drop_epochs") == (3, 4)
        assert typed(values, "train.enable_generation") is False
        assert typed(values, "train.determinism") is True

    def test_empty_drop_list(self):
        values = load_config(overrides=["train.lr_drop_epochs="])
        assert typed(values, "train.lr_drop_epochs") == ()

    def test_bad_value_names_key(self):
        values = load_config(overrides=["train.epochs=three"])
        with pytest.raises(ConfigError, match="train.epochs"):
            typed(values, "train.epochs")

    def test_bad_bool_names_key(self):
        values = load_config(overrides=["train.augment=maybe"])
        with pytest.raises(ConfigError, match="train.augment"):
            typed(values, "train.augment")


class TestBuilders:
    def test_train_config_round_trip(self):
        values = load_config(overrides=[
            "train.lr0=0.02", "train.lr_drop_epochs=3,4", "train.epochs=5",
            "train.clip_grad_norm=5.0", "transform.boost_count=2",
            "train.seed=7",
        ])
        cfg = settings_from(values, TrainConfig)
        assert cfg.lr0 == 0.02
        assert cfg.lr_drop_epochs == (3, 4)
        assert cfg.epochs == 5
        assert cfg.clip_grad_norm == 5.0
        assert cfg.transform.boost_count == 2
        assert cfg.seed == 7

    def test_invalid_train_value_rejected(self):
        values = load_config(overrides=["train.momentum=1.5"])
        with pytest.raises(ConfigError):
            settings_from(values, TrainConfig)

    def test_transform_section_nested_in_train_settings(self):
        values = load_config(overrides=["transform.renormalize=no", "transform.boost_factor=0.5"])
        cfg = settings_from(values, TrainConfig)
        assert cfg.transform == settings_from(values, TransformConfig)
        assert cfg.transform == TransformConfig(renormalize=False, boost_factor=0.5)
        with pytest.raises(ConfigError, match="boost_count"):
            settings_from(load_config(overrides=["transform.boost_count=0"]), TrainConfig)

    def test_reverse_config(self):
        values = load_config(overrides=["net.reverse_activation=forward"])
        rcfg = settings_from(values, ReverseConfig)
        assert rcfg.activation == "forward"
        assert rcfg.pool == "upsample"

    def test_reverse_config_rejects_unknown(self):
        with pytest.raises(ConfigError, match="reverse_activation"):
            settings_from(load_config(overrides=["net.reverse_activation=mirror"]),
                          ReverseConfig)
        with pytest.raises(ConfigError, match="reverse_pool"):
            settings_from(load_config(overrides=["net.reverse_pool=nearest"]),
                          ReverseConfig)

    def test_reverse_config_checks_itself(self):
        with pytest.raises(ConfigError, match="reverse_activation"):
            ReverseConfig(activation="fwd")
        with pytest.raises(ConfigError, match="reverse_pool"):
            ReverseConfig(pool="unpol")

    def test_named_architectures(self):
        for arch in ("baseline", "small"):
            ncfg = settings_from(load_config(overrides=[f"net.arch={arch}"]), NetConfig)
            net = ncfg.spec((1, 28, 28), 10).build(np.random.default_rng(0))
            assert net.shapes[-1] == (10,)

    def test_custom_layers(self):
        values = load_config(overrides=[
            "net.arch=custom", "net.layers=dense:32, lrelu, dense:10, softmax",
        ])
        spec = settings_from(values, NetConfig).spec((16,), 10)
        net = spec.build(np.random.default_rng(0))
        assert len(net.layers) == 4

    def test_custom_needs_layers(self):
        values = load_config(overrides=["net.arch=custom"])
        with pytest.raises(ConfigError, match="net.layers"):
            settings_from(values, NetConfig)

    def test_unknown_arch(self):
        values = load_config(overrides=["net.arch=resnet"])
        with pytest.raises(ConfigError, match="net.arch"):
            settings_from(values, NetConfig)

    @pytest.mark.parametrize("layers", ["", " , ,"])
    def test_net_config_checks_itself(self, layers):
        with pytest.raises(ConfigError, match="net.layers"):
            NetConfig(arch="custom", layers=layers)
        with pytest.raises(ConfigError, match="net.arch must be baseline|small|custom"):
            NetConfig(arch="resnet")

    def test_data_config_from_values(self):
        values = load_config(overrides=["data.kind=mnist", "data.limit=7", "data.coarse=yes"])
        dcfg = settings_from(values, DataConfig)
        assert (dcfg.kind, dcfg.limit, dcfg.coarse) == ("mnist", 7, True)


class TestOneOwner:
    """Every key but out.dir, with its default, comes from a settings
    dataclass."""

    def test_default_config_builds_default_settings(self):
        values = load_config()
        assert settings_from(values, TrainConfig) == TrainConfig()
        assert settings_from(values, ReverseConfig) == ReverseConfig()
        for cls in (TransformConfig, NetConfig, DataConfig):
            assert settings_from(values, cls) == cls()

    def test_every_plain_field_has_a_key(self):
        for cls, prefix in SECTIONS.items():
            for f in fields(cls):
                if f.default is not MISSING:
                    assert prefix + f.name in KNOWN_KEYS

    def test_only_out_dir_is_literal(self):
        owned = {prefix + f.name for cls, prefix in SECTIONS.items()
                 for f in fields(cls) if f.default is not MISSING}
        assert set(KNOWN_KEYS) - owned == {"out.dir"}
        assert len(KNOWN_KEYS) == 37

    def test_net_and_data_keys_keep_their_converters_and_defaults(self):
        # the table these keys had when config.py listed them itself
        bool_conv = KNOWN_KEYS["train.augment"][0]
        assert {k: v for k, v in KNOWN_KEYS.items()
                if k.startswith("data.") or k in ("net.arch", "net.layers")} == {
            "net.arch": (str, "baseline"),
            "net.layers": (str, ""),
            "data.kind": (str, "synthetic"),
            "data.root": (str, ""),
            "data.normalize": (str, "divide_mean"),
            "data.limit": (int, "0"),
            "data.coarse": (bool_conv, "false"),
            "data.n_per_class": (int, "200"),
            "data.test_n_per_class": (int, "50"),
            "data.noise": (float, "0.1"),
        }

    def test_net_section_is_not_a_prefix_scan(self):
        # net.reverse_ keys share the net. prefix but belong to ReverseConfig
        values = load_config(overrides=["net.reverse_pool=unpool"])
        assert settings_from(values, NetConfig) == NetConfig()
        assert settings_from(values, ReverseConfig).pool == "unpool"

    def test_defaults_written_as_config_text(self):
        values = load_config()
        assert values["train.lr_drop_epochs"] == "20,40,60"
        assert values["train.enable_reverse_loss"] == "true"
        assert values["train.determinism"] == "false"
        assert values["net.reverse_pool"] == "upsample"
        assert values["data.coarse"] == "false"


class TestSnapshot:
    def test_lines_sorted_and_complete(self):
        values = load_config(overrides=["train.lr0=0.5"])
        lines = config_lines(values)
        assert lines == sorted(lines)
        assert len(lines) == len(KNOWN_KEYS)
        assert "train.lr0=0.5" in lines
