"""Checkpoint save/load: bit-exact round-trips and corruption handling."""

import builtins
import errno
import io
import json
import os
import struct

import numpy as np
import pytest

from revnet import checkpoint
from revnet.checkpoint import MAGIC, load_checkpoint, read_header, save_checkpoint
from revnet.errors import DataError, FormatError
from revnet.layers import Conv, Layer, LeakyRelu, ReverseConfig
from revnet.network import NetworkSpec, ReversibleNetwork
from test_network import assert_flat_layout


def param_layers(net):
    return [layer for layer in net.layers if layer.param_shapes()]


def build_net(dtype=np.float32, seed=3):
    spec = NetworkSpec(
        (1, 9, 9), 4,
        ["conv:3:3:2:1", "lrelu:0.2", "dense:16", "lrelu", "dense:4", "softmax"],
    )
    return spec.build(np.random.default_rng(seed), dtype=dtype)


def repack(path, mutate):
    """Rewrite a checkpoint with a mutated header, keeping the buffers."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[6:10])
    header = json.loads(raw[10:10 + hlen])
    mutate(header)
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + raw[10 + hlen:])


class TestRoundTrip:
    def test_params_bit_exact(self, tmp_path):
        net = build_net()
        path = tmp_path / "net.rvnt"
        save_checkpoint(path, net, extra={"epoch": 3, "step": 41})
        loaded, extra = load_checkpoint(path)
        assert extra == {"epoch": 3, "step": 41}
        for a, b in zip(param_layers(net), param_layers(loaded)):
            assert np.array_equal(a.W, b.W)
            assert a.W.dtype == b.W.dtype
            assert np.array_equal(a.b, b.b)
        assert loaded.velocity is None
        assert_flat_layout(loaded)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_body_is_the_parameter_buffer(self, tmp_path, dtype):
        net = build_net(dtype=dtype)
        path = tmp_path / "net.rvnt"
        save_checkpoint(path, net)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[6:10])
        assert raw[10 + hlen:] == net.params.astype(f"<f{net.params.itemsize}").tobytes()

    def test_forward_agreement(self, tmp_path):
        net = build_net()
        path = tmp_path / "net.rvnt"
        save_checkpoint(path, net)
        loaded, _ = load_checkpoint(path)
        x = np.random.default_rng(0).normal(size=(2, 1, 9, 9)).astype(np.float32)
        oa, _, _ = net.feed_forward(x)
        ob, _, _ = loaded.feed_forward(x)
        assert np.array_equal(oa, ob)

    def test_double_precision(self, tmp_path):
        net = build_net(dtype=np.float64)
        path = tmp_path / "net64.rvnt"
        save_checkpoint(path, net)
        loaded, _ = load_checkpoint(path)
        assert param_layers(loaded)[0].W.dtype == np.float64
        assert np.array_equal(param_layers(net)[0].W, param_layers(loaded)[0].W)

    def test_hyperparameters_preserved(self, tmp_path):
        net = build_net()
        path = tmp_path / "net.rvnt"
        save_checkpoint(path, net)
        loaded, _ = load_checkpoint(path)
        conv = loaded.layers[0]
        assert isinstance(conv, Conv)
        assert (conv.c_out, conv.k, conv.stride, conv.pad) == (3, 3, 2, 1)
        assert isinstance(loaded.layers[1], LeakyRelu)
        assert loaded.layers[1].slope == 0.2
        assert loaded.layers[3].slope == 0.01

    def test_reverse_config_passthrough(self, tmp_path):
        net = build_net()
        path = tmp_path / "net.rvnt"
        save_checkpoint(path, net)
        rcfg = ReverseConfig(activation="forward")
        loaded, _ = load_checkpoint(path, rcfg=rcfg)
        assert loaded.rcfg is rcfg

    def test_save_rerun_byte_identical(self, tmp_path):
        net = build_net()
        a, b = tmp_path / "a.rvnt", tmp_path / "b.rvnt"
        save_checkpoint(a, net, extra={"epoch": 1})
        save_checkpoint(b, net, extra={"epoch": 1})
        assert a.read_bytes() == b.read_bytes()


class TestAtomicWrite:
    def test_failed_replace_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "net.rvnt"
        save_checkpoint(path, build_net(seed=3))
        old = path.read_bytes()

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            save_checkpoint(path, build_net(seed=4))
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.rvnt"]

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "net.rvnt"
        save_checkpoint(path, build_net(seed=3))
        old = path.read_bytes()

        class FullDisk(io.FileIO):
            """A file whose first write stores a few bytes, then fails."""

            def write(self, b):
                super().write(bytes(b)[:4])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(checkpoint, "open", FullDisk, raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(path, build_net(seed=4))
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.rvnt"]

    def test_writes_beside_the_target_then_replaces_it(self, tmp_path, monkeypatch):
        path = tmp_path / "net.rvnt"
        calls = []
        real_replace = os.replace

        def spy(src, dst):
            calls.append((src, dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        save_checkpoint(path, build_net())
        assert calls == [(f"{path}.tmp", path)]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.rvnt"]
        load_checkpoint(path)


class TestOneRead:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_opens_once_and_draws_no_weights(self, tmp_path, monkeypatch, dtype):
        net = build_net(dtype=dtype)
        path = tmp_path / "net.rvnt"
        save_checkpoint(path, net)
        opened, inits = [], []
        real_open = builtins.open

        def spy_open(file, *args, **kwargs):
            if os.fspath(file) == os.fspath(path):
                opened.append(args)
            return real_open(file, *args, **kwargs)

        def spy_init(self, *args, **kwargs):
            inits.append(type(self).__name__)

        monkeypatch.setattr(builtins, "open", spy_open)
        for cls in (ReversibleNetwork, Layer):
            monkeypatch.setattr(cls, "init_params", spy_init)
        loaded, _ = load_checkpoint(path)
        assert len(opened) == 1 and inits == []
        assert loaded.dtype is dtype
        for a, b in zip(param_layers(net), param_layers(loaded)):
            for name in ("W", "b"):
                got = getattr(b, name)
                assert got.dtype == dtype and got.flags.writeable and got.flags.aligned
                assert np.array_equal(getattr(a, name), got)

    def test_missing_file_is_data_error(self, tmp_path):
        path = tmp_path / "nope.rvnt"
        for read in (load_checkpoint, read_header):
            with pytest.raises(DataError, match="cannot read .*nope.rvnt"):
                read(path)


class TestHeader:
    def test_fields(self, tmp_path):
        net = build_net()
        path = tmp_path / "net.rvnt"
        save_checkpoint(path, net)
        header = read_header(path)
        assert header["version"] == 1
        assert header["dtype"] == "float32"
        assert header["input_shape"] == [1, 9, 9]
        assert header["n_classes"] == 4
        assert header["tokens"][0] == "conv:3:3:2:1"
        assert header["tokens"][-1] == "softmax"
        names = {(p["layer"], p["name"]) for p in header["params"]}
        assert names == {(0, "W"), (0, "b"), (2, "W"), (2, "b"), (4, "W"), (4, "b")}


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.rvnt"
        path.write_bytes(b"NOPE!!" + bytes(64))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        net = build_net()
        path = tmp_path / "net.rvnt"
        save_checkpoint(path, net)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_truncated_buffers(self, tmp_path):
        net = build_net()
        path = tmp_path / "net.rvnt"
        save_checkpoint(path, net)
        path.write_bytes(path.read_bytes()[:-64])
        with pytest.raises(FormatError, match="truncated at byte"):
            load_checkpoint(path)

    def test_bytes_after_the_last_parameter(self, tmp_path):
        path = tmp_path / "net.rvnt"
        save_checkpoint(path, build_net())
        path.write_bytes(path.read_bytes() + bytes(13))
        with pytest.raises(FormatError, match="13 bytes after the last parameter"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        net = build_net()
        path = tmp_path / "net.rvnt"
        save_checkpoint(path, net)
        repack(path, lambda h: h.update(version=2))
        with pytest.raises(FormatError, match="version 2"):
            load_checkpoint(path)

    def test_shape_mismatch(self, tmp_path):
        net = build_net()
        path = tmp_path / "net.rvnt"
        save_checkpoint(path, net)

        def mutate(header):
            header["params"][0]["shape"] = [1, 1]

        repack(path, mutate)
        with pytest.raises(FormatError, match="shape"):
            load_checkpoint(path)

    def test_parameter_the_layer_lacks(self, tmp_path):
        path = tmp_path / "net.rvnt"
        save_checkpoint(path, build_net())
        repack(path, lambda h: h["params"][0].update(layer=1))
        with pytest.raises(FormatError, match="layer 1 has no parameter W"):
            load_checkpoint(path)

    def test_parameter_left_out(self, tmp_path):
        path = tmp_path / "net.rvnt"
        save_checkpoint(path, build_net())
        repack(path, lambda h: h["params"].pop())
        with pytest.raises(FormatError, match="no stored values for b of layer 4"):
            load_checkpoint(path)


def replace_header(path, blob):
    """Rewrite a checkpoint's header with raw bytes, keeping the buffers."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[6:10])
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + raw[10 + hlen:])


class TestCorruptHeader:
    """A header that cannot describe a checkpoint is a FormatError, which
    the CLI reports as a data error (exit 3)."""

    @pytest.fixture()
    def path(self, tmp_path):
        path = tmp_path / "net.rvnt"
        save_checkpoint(path, build_net())
        return path

    def test_undecodable_json(self, path):
        replace_header(path, b'{"version": 1, "dtype": ')
        with pytest.raises(FormatError, match="not JSON"):
            load_checkpoint(path)

    def test_header_not_an_object(self, path):
        replace_header(path, b"[1, 2, 3]")
        with pytest.raises(FormatError, match="not a JSON object"):
            load_checkpoint(path)

    def test_unsupported_dtype(self, path):
        repack(path, lambda h: h.update(dtype="float16"))
        with pytest.raises(FormatError, match="dtype 'float16'"):
            load_checkpoint(path)
        with pytest.raises(FormatError, match="dtype"):
            read_header(path)

    @pytest.mark.parametrize("mutate,field", [
        (lambda h: h.pop("input_shape"), "input_shape"),
        (lambda h: h.update(input_shape="abc"), "input_shape"),
        (lambda h: h.update(input_shape=[1, 0, 9]), "input_shape"),
        (lambda h: h.pop("n_classes"), "n_classes"),
        (lambda h: h.update(tokens="conv"), "tokens"),
        (lambda h: h["params"][0].pop("name"), "params"),
        (lambda h: h["params"][1].update(shape=[-3]), "params"),
        (lambda h: h["params"][2].update(layer="2"), "params"),
    ])
    def test_missing_or_mistyped_field(self, path, mutate, field):
        repack(path, mutate)
        for read in (load_checkpoint, read_header):
            with pytest.raises(FormatError, match=f"header field '{field}'"):
                read(path)

    @pytest.mark.parametrize("tokens", [["bogus"], ["conv:3:3:0", "dense:4", "softmax"],
                                        ["conv:3:30:1:0", "dense:4", "softmax"], []])
    def test_architecture_that_does_not_build(self, path, tokens):
        repack(path, lambda h: h.update(tokens=tokens))
        with pytest.raises(FormatError, match="does not build"):
            load_checkpoint(path)
