"""End-to-end command-line runs on tiny synthetic data."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from file_formats import write_idx_images, write_idx_labels
import revnet
from revnet import cli, tensor
from revnet.cli import main
from revnet.data import DataConfig, load_composed

FAST = [
    "--override", "data.n_per_class=6",
    "--override", "data.test_n_per_class=4",
    "--override", "data.normalize=none",
    "--override", "net.arch=custom",
    "--override", "net.layers=dense:32,lrelu,dense:10,softmax",
    "--override", "net.reverse_activation=forward",
    "--override", "train.train_batch=20",
    "--override", "train.lr0=0.01",
    "--override", "train.clip_grad_norm=5.0",
]

# a checkpoint header, given its input_shape, tokens and params
HEADER = b'{"version": 1, "dtype": "float32", "input_shape": %s, "n_classes": 10, "tokens": %s, "params": %s}'
# the header of FAST's net, with the first W's shape left open
FAST_TOKENS = b'["dense:32", "lrelu", "dense:10", "softmax"]'
FAST_PARAMS = (b'[{"layer": 0, "name": "W", "shape": %s}, {"layer": 0, "name": "b", "shape": [32]}, '
               b'{"layer": 2, "name": "W", "shape": [32, 10]}, {"layer": 2, "name": "b", "shape": [10]}]')


def train_cmd(out, extra=(), epochs=1):
    args = ["train", "--out", str(out)] + FAST
    if epochs is not None:
        args += ["--override", f"train.epochs={epochs}"]
    return args + list(extra)


def read_metrics(out):
    with open(os.path.join(out, "metrics.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    return rows


class TestTrain:
    def test_outputs_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(train_cmd(out)) == 0
        rows = read_metrics(out)
        assert {r["epoch"] for r in rows} == {"0"}
        assert os.path.exists(out / "checkpoint-final.rvnt")
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "train"
        names = [rec["path"] for rec in manifest["outputs"]]
        assert "metrics.csv" in names
        assert "checkpoint-final.rvnt" in names
        for rec in manifest["outputs"]:
            blob = (out / rec["path"]).read_bytes()
            assert rec["bytes"] == len(blob)
            assert rec["sha256"] == hashlib.sha256(blob).hexdigest()
        text = capsys.readouterr().out
        assert "test_err" in text

    def test_config_file_applied(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("train.epochs=2\n")
        out = tmp_path / "run"
        assert main(train_cmd(out, ["--config", str(cfg)], epochs=None)) == 0
        rows = read_metrics(out)
        assert {r["epoch"] for r in rows} == {"0", "1"}

    def test_deterministic_rerun_byte_identical(self, tmp_path):
        args = ["--deterministic", "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(train_cmd(a, args)) == 0
        assert main(train_cmd(b, args)) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "checkpoint-final.rvnt").read_bytes() == (b / "checkpoint-final.rvnt").read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        assert ma["outputs"] == mb["outputs"]
        assert ma["start"] is None and ma["end"] is None

    @pytest.mark.parametrize("pool", ["upsample", "unpool"])
    def test_deterministic_conv_rerun_byte_identical(self, tmp_path, pool):
        # conv, lrelu and pool on every path, both reverse pool variants
        args = ["--deterministic", "--seed", "3",
                "--override", "net.layers=conv:4:3,lrelu,pool:2,dense:10,softmax",
                "--override", "net.reverse_activation=inverse",
                "--override", f"net.reverse_pool={pool}",
                "--override", "train.w_rec=0.01"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(train_cmd(a, args)) == 0
        assert main(train_cmd(b, args)) == 0
        for name in ("metrics.csv", "checkpoint-final.rvnt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.skipif(tensor.blas_threads() is None, reason="no OpenBLAS found in this process")
    def test_deterministic_conv_train_same_bytes_for_one_and_two_workers(self, tmp_path):
        # with OpenBLAS pinned to one thread, REVNET_THREADS=2 splits the conv
        # batch chunks over two workers and REVNET_THREADS=1 keeps one; the
        # second conv's kernels run 4-7 chunks at batch 20
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(revnet.__file__)))
        args = ["--deterministic", "--seed", "3",
                "--override", "net.layers=conv:16:5,lrelu,pool:2,conv:32:5,lrelu,pool:2,dense:10,softmax",
                "--override", "net.reverse_activation=inverse",
                "--override", "train.w_rec=0.01"]
        outs = {}
        for threads in ("1", "2"):
            env["REVNET_THREADS"] = threads
            probe = "from revnet import tensor; tensor.set_threads(); print(tensor._conv_workers())"
            workers = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                     capture_output=True, text=True, timeout=120).stdout.strip()
            assert workers == threads
            outs[threads] = tmp_path / threads
            subprocess.run([sys.executable, "-m", "revnet.cli"] + train_cmd(outs[threads], args),
                           env=env, check=True, capture_output=True, timeout=300)
        for name in ("metrics.csv", "checkpoint-final.rvnt"):
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes()

    @pytest.mark.parametrize("fails", [False, True])
    def test_deterministic_command_restores_thread_state(self, tmp_path, monkeypatch, fails):
        # --deterministic caps the threads at one for the command only, on
        # success and on a data error raised after the cap
        monkeypatch.delenv("REVNET_THREADS", raising=False)
        monkeypatch.setattr(tensor, "_THREAD_BUDGET", None)
        monkeypatch.setattr(tensor, "_CONV_WORKERS", None)
        api = tensor._openblas()
        blas0 = tensor.blas_threads()
        if api is not None:
            api[0](min(2, api[2]))  # so the cap to one is visible where the BLAS allows
        during = []
        load_pair = DataConfig.load_pair

        def spy(dcfg):
            during.append((tensor._THREAD_BUDGET, tensor.blas_threads(), tensor._conv_workers()))
            return load_pair(dcfg)

        monkeypatch.setattr(DataConfig, "load_pair", spy)
        extra = ["--deterministic"]
        if fails:
            os.makedirs(tmp_path / "empty")
            extra += ["--override", "data.kind=mnist", "--override", f"data.root={tmp_path / 'empty'}"]
        try:
            before = (tensor._THREAD_BUDGET, tensor.blas_threads(), tensor._conv_workers())
            assert main(train_cmd(tmp_path / "run", extra)) == (3 if fails else 0)
            after = (tensor._THREAD_BUDGET, tensor.blas_threads(), tensor._conv_workers())
        finally:
            if api is not None:
                api[0](blas0)
        assert during == [(1, None if api is None else 1, 1)]
        assert after == before

    def test_seconds_zeroed_only_when_deterministic(self, tmp_path):
        out = tmp_path / "run"
        assert main(train_cmd(out, ["--deterministic"])) == 0
        assert all(r["seconds"] == "0.000" for r in read_metrics(out))

    def test_mode_switch(self, tmp_path):
        nn, rn = tmp_path / "nn", tmp_path / "rn"
        assert main(train_cmd(nn, ["--mode", "nn"])) == 0
        assert main(train_cmd(rn, ["--mode", "rn"])) == 0
        assert all(float(r["loss_rec"]) == 0.0 for r in read_metrics(nn))
        assert all(float(r["loss_gen"]) == 0.0 for r in read_metrics(nn))
        assert any(float(r["loss_rec"]) > 0.0 for r in read_metrics(rn))
        assert any(float(r["loss_gen"]) > 0.0 for r in read_metrics(rn))

    def test_repeats_layout(self, tmp_path):
        out = tmp_path / "multi"
        assert main(train_cmd(out, ["--repeats", "2", "--seed", "5", "--deterministic"])) == 0
        assert os.path.exists(out / "run-00" / "metrics.csv")
        assert os.path.exists(out / "run-01" / "metrics.csv")
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["seed", "test_err", "test_loss"]
        assert [r[0] for r in rows[1:]] == ["5", "6", "mean"]
        errs = [float(r[1]) for r in rows[1:3]]
        assert float(rows[3][1]) == pytest.approx(np.mean(errs), abs=1e-4)

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_repeats_validated(self, tmp_path, capsys, repeats):
        out = tmp_path / "x"
        assert main(train_cmd(out, ["--repeats", repeats])) == 2
        assert "--repeats" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_override_is_config_error(self, tmp_path, capsys):
        assert main(train_cmd(tmp_path / "x", ["--override", "zap=1"])) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        args = train_cmd(tmp_path / "x", [
            "--override", "data.kind=mnist",
            "--override", f"data.root={tmp_path / 'empty'}",
        ])
        os.makedirs(tmp_path / "empty")
        assert main(args) == 3
        assert "data error" in capsys.readouterr().err


class TestSettingsCheckedFirst:
    """Each command builds its settings before it reads a file, so a bad
    value exits 2 before any data is loaded or step trained."""

    @pytest.mark.parametrize("override, names", [
        ("data.limit=-3", "data.limit"),
        ("data.n_per_class=0", "data.n_per_class"),
        ("data.test_n_per_class=0", "data.test_n_per_class"),
        ("data.noise=-1", "data.noise"),
        ("data.kind=bogus", "data.kind"),
        ("data.normalize=bogus", "data.normalize"),
        ("net.arch=bogus", "net.arch"),
        ("net.layers=", "net.layers"),
        ("train.epochs=0", "epochs"),
        ("train.lr_drop_factor=-0.1", "lr_drop_factor"),
        ("train.clip_grad_norm=-1", "clip_grad_norm"),
    ])
    def test_bad_setting_exits_before_loading(self, tmp_path, capsys, monkeypatch,
                                              override, names):
        def load(dcfg, split):
            raise AssertionError("dataset loaded before the settings were checked")

        monkeypatch.setattr(DataConfig, "load", load)
        out = tmp_path / "x"
        assert main(train_cmd(out, ["--override", override])) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and names in err
        assert not out.exists()

    def test_architecture_that_does_not_fit_exits_2(self, tmp_path, capsys):
        # a stride-2 conv whose stride does not divide 28 + 2 - 3
        out = tmp_path / "x"
        assert main(train_cmd(out, ["--override", "net.layers=conv:8:3:2:1,dense:10,softmax"])) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad layer token 'conv:8:3:2:1': stride 2")
        assert not out.exists()

    def test_boost_count_without_enough_classes_exits_2(self, tmp_path, capsys, monkeypatch):
        # generation is on, and 10 classes leave no 10 entries to boost
        # besides the argmax: no directory is made and no step is trained
        def run(*args, **kwargs):
            raise AssertionError("training started before boost_count was checked")

        monkeypatch.setattr(cli, "run_experiment", run)
        out = tmp_path / "x"
        assert main(train_cmd(out, ["--override", "transform.boost_count=10"])) == 2
        assert capsys.readouterr().err == "config error: boost_count 10 must be < class count 10\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["cifar10", "cifar100", "composed"])
    def test_missing_files_exit_3(self, tmp_path, capsys, kind):
        os.makedirs(tmp_path / "root" / "train")  # a composed split without manifest.json
        args = train_cmd(tmp_path / "x", ["--override", f"data.kind={kind}",
                                          "--override", f"data.root={tmp_path / 'root'}"])
        assert main(args) == 3
        assert "data error: cannot read" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_empty_training_records_exit_2(self, tmp_path, capsys):
        # the default normalization would warn on an empty split; the
        # loader stops before it
        root = tmp_path / "cifar"
        os.makedirs(root)
        for i in range(1, 6):
            (root / f"data_batch_{i}.bin").write_bytes(b"")
        (root / "test_batch.bin").write_bytes(bytes(2 * (1 + 3 * 32 * 32)))
        out = tmp_path / "x"
        args = train_cmd(out, ["--override", "data.kind=cifar10", "--override", f"data.root={root}",
                               "--override", "data.normalize=divide_mean"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 2
        cap = capsys.readouterr()
        assert cap.err == "config error: data.kind=cifar10: the training split is an empty dataset\n"
        assert cap.out == ""
        assert not out.exists()

    def test_corrupt_gzip_exits_3(self, tmp_path, capsys):
        root = tmp_path / "mnist"
        TestMnistEnv().write_mnist(root)
        os.remove(root / "train-images-idx3-ubyte")
        (root / "train-images-idx3-ubyte.gz").write_bytes(b"\x1f\x8bjunk")
        out = tmp_path / "x"
        args = train_cmd(out, ["--override", "data.kind=mnist", "--override", f"data.root={root}"])
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "not a valid gzip file" in err
        assert err.count("\n") == 1
        assert not out.exists()


class TestMnistEnv:
    def write_mnist(self, root, n_train=8, n_test=4):
        os.makedirs(root, exist_ok=True)
        rng = np.random.default_rng(0)
        for prefix, n in (("train", n_train), ("t10k", n_test)):
            write_idx_images(
                os.path.join(root, f"{prefix}-images-idx3-ubyte"),
                rng.integers(0, 256, (n, 4, 4), dtype=np.uint8),
            )
            write_idx_labels(
                os.path.join(root, f"{prefix}-labels-idx1-ubyte"),
                rng.integers(0, 10, n).astype(np.uint8),
            )

    def test_env_var_locates_data(self, tmp_path, monkeypatch):
        root = tmp_path / "mnist"
        self.write_mnist(root)
        monkeypatch.setenv("REVNET_MNIST_DIR", str(root))
        out = tmp_path / "run"
        args = train_cmd(out, [
            "--override", "data.kind=mnist",
            "--override", "net.layers=dense:16,lrelu,dense:10,softmax",
        ])
        assert main(args) == 0
        assert read_metrics(out)


class TestReconstructAndGenerate:
    @pytest.fixture()
    def checkpoint(self, tmp_path):
        out = tmp_path / "train"
        assert main(train_cmd(out, ["--deterministic"])) == 0
        return str(out / "checkpoint-final.rvnt")

    def test_reconstruct_outputs(self, tmp_path, checkpoint):
        out = tmp_path / "rec"
        args = ["reconstruct", "--checkpoint", checkpoint, "--count", "2",
                "--out", str(out)] + FAST
        assert main(args) == 0
        raw = (out / "reconstructions.pgm").read_bytes()
        assert raw.startswith(b"P5\n")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "reconstruct"
        assert any(r["path"] == "reconstructions.pgm" for r in manifest["outputs"])

    def test_generate_outputs(self, tmp_path, checkpoint):
        out = tmp_path / "gen"
        args = ["generate", "--checkpoint", checkpoint, "--count", "2",
                "--out", str(out), "--seed", "1"] + FAST
        assert main(args) == 0
        assert (out / "generation.pgm").read_bytes().startswith(b"P5\n")
        with open(out / "likelihoods.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sample", "kind"] + [f"p{c}" for c in range(10)]
        assert [r[1] for r in rows[1:]] == ["o", "tr", "o_hat"] * 2
        for row in rows[1:]:
            total = sum(float(v) for v in row[2:])
            assert total == pytest.approx(1.0, abs=1e-4)

    def test_boost_count_checked_before_the_net_runs(self, tmp_path, capsys, monkeypatch,
                                                     checkpoint):
        def feed_forward(*args, **kwargs):
            raise AssertionError("the net ran before boost_count was checked")

        monkeypatch.setattr(revnet.ReversibleNetwork, "feed_forward", feed_forward)
        out = tmp_path / "gen"
        args = ["generate", "--checkpoint", checkpoint, "--out", str(out),
                "--override", "transform.boost_count=10"] + FAST
        assert main(args) == 2
        assert capsys.readouterr().err == "config error: boost_count 10 must be < class count 10\n"
        assert not out.exists()

    def test_bypass_transform_copies_o(self, tmp_path, checkpoint):
        out = tmp_path / "gen"
        args = ["generate", "--checkpoint", checkpoint, "--count", "3",
                "--out", str(out), "--bypass-transform"] + FAST
        assert main(args) == 0
        with open(out / "likelihoods.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        by_kind = {}
        for row in rows[1:]:
            by_kind.setdefault(row[1], []).append(row[2:])
        assert by_kind["o"] == by_kind["tr"]

    def test_count_validated(self, tmp_path, checkpoint):
        args = ["reconstruct", "--checkpoint", checkpoint, "--count", "0",
                "--out", str(tmp_path / "x")] + FAST
        assert main(args) == 2

    @pytest.mark.parametrize("command", ["reconstruct", "generate"])
    @pytest.mark.parametrize("header", [
        b'{"version": 1', b"[1]", b'{"version": 1, "dtype": "float16"}',
        pytest.param(b'{"version": 1, "dtype": "float32"}', id="no-input-shape"),
        pytest.param(HEADER % (b'[1, 28, 28]', b'["dense:10", "softmax"]',
                               b'[{"layer": 0, "shape": [784, 10]}]'), id="param-without-name"),
        pytest.param(HEADER % (b'"abc"', b'["dense:10", "softmax"]', b'[]'), id="input-shape-abc"),
        pytest.param(HEADER % (b'[1, 28, 28]', b'["bogus"]', b'[]'), id="unknown-token"),
        pytest.param(HEADER.replace(b'"version": 1', b'"version": 2') % (
            b'[1, 28, 28]', FAST_TOKENS, FAST_PARAMS % b'[784, 32]'), id="version-2"),
        pytest.param(HEADER % (b'[1, 28, 28]', FAST_TOKENS, FAST_PARAMS % b'[784, 31]'), id="wrong-shape"),
    ])
    def test_corrupt_checkpoint_header_exits_3(self, tmp_path, checkpoint, capsys, command, header):
        raw = open(checkpoint, "rb").read()
        hlen = int.from_bytes(raw[6:10], "little")
        bad = tmp_path / "bad.rvnt"
        bad.write_bytes(raw[:6] + len(header).to_bytes(4, "little") + header + raw[10 + hlen:])
        args = [command, "--checkpoint", str(bad), "--out", str(tmp_path / "x")] + FAST
        assert main(args) == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reconstruct", "generate"])
    def test_missing_checkpoint_exits_3(self, tmp_path, capsys, command):
        path = tmp_path / "nope.rvnt"
        args = [command, "--checkpoint", str(path), "--out", str(tmp_path / "x")] + FAST
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err == f"data error: cannot read {path}: No such file or directory\n"
        assert not (tmp_path / "x").exists()

    def test_shape_mismatch_reported(self, tmp_path, checkpoint, monkeypatch, capsys):
        # checkpoint was trained on 28px synthetic digits; 4px images
        # cannot feed it and the mismatch is a configuration error
        root = tmp_path / "mnist"
        TestMnistEnv().write_mnist(root)
        monkeypatch.setenv("REVNET_MNIST_DIR", str(root))
        args = ["reconstruct", "--checkpoint", checkpoint, "--count", "1",
                "--out", str(tmp_path / "x")] + FAST + [
            "--override", "data.kind=mnist",
        ]
        assert main(args) == 2
        assert "checkpoint" in capsys.readouterr().err


def quick_start(root):
    """The README's quick start, every output under root, run with
    --deterministic --seed 7."""
    ckpt = str(root / "demo" / "checkpoint-final.rvnt")
    runs = [["train", "--out", str(root / "demo"), "--override", "train.epochs=2",
             "--override", "net.arch=small", "--override", "net.reverse_activation=forward",
             "--override", "train.lr0=0.02", "--override", "train.lr_drop_epochs=3,4",
             "--override", "train.w_rec=0.00128", "--override", "train.clip_grad_norm=5.0"],
            ["reconstruct", "--checkpoint", ckpt, "--out", str(root / "recon")],
            ["generate", "--checkpoint", ckpt, "--out", str(root / "gen")]]
    for argv in runs:
        assert main(argv + ["--deterministic", "--seed", "7"]) == 0


def test_quick_start_manifests_do_not_name_the_directory(tmp_path):
    # out.dir stays out of the config lines, so the same run into another
    # directory writes the same bytes
    quick_start(tmp_path / "a")
    quick_start(tmp_path / "b")
    for run in ("demo", "recon", "gen"):
        a, b = (tmp_path / side / run / "manifest.json" for side in ("a", "b"))
        assert a.read_bytes() == b.read_bytes(), run
        assert not any(line.startswith("out.dir=") for line in json.loads(a.read_text())["config"])


class TestCompose:
    def test_compose_and_reload(self, tmp_path):
        out = tmp_path / "composed" / "train"
        args = ["compose", "--profile", "4x5,2x5", "--out", str(out)] + FAST
        assert main(args) == 0
        ds = load_composed(out)
        assert np.array_equal(ds.class_counts(), [4] * 5 + [2] * 5)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["profile_counts"] == [4] * 5 + [2] * 5

    @pytest.mark.parametrize("profile", ["5xx2", "abc", "5x"])
    def test_malformed_profile_is_config_error(self, tmp_path, capsys, profile):
        args = ["compose", "--profile", profile, "--out", str(tmp_path / "x")] + FAST
        assert main(args) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_infeasible_profile_is_data_error(self, tmp_path, capsys):
        args = ["compose", "--profile", "1000x10", "--out", str(tmp_path / "x")] + FAST
        assert main(args) == 3
        assert "data error" in capsys.readouterr().err

    def test_composed_feeds_training(self, tmp_path):
        root = tmp_path / "composed"
        for split, profile in (("train", "5x10"), ("test", "3x10")):
            args = ["compose", "--profile", profile, "--split", split,
                    "--out", str(root / split)] + FAST
            assert main(args) == 0
        out = tmp_path / "run"
        args = train_cmd(out, [
            "--override", "data.kind=composed",
            "--override", f"data.root={root}",
        ])
        assert main(args) == 0
        assert read_metrics(out)
