"""End-to-end command-line runs on tiny synthetic data."""

import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import revnet
from revnet import cli, tensor
from revnet.cli import main
from revnet.data import load_composed, write_idx_images, write_idx_labels

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
        for var in tensor._THREAD_ENV:
            monkeypatch.setenv(var, "2")
        api = tensor._openblas()
        blas0 = tensor.blas_threads()
        if api is not None:
            api[0](min(2, api[2]))  # so the cap to one is visible where the BLAS allows
        during = []
        resolve = cli.resolve_dataset_pair

        def spy(values):
            during.append((tensor._THREAD_BUDGET, tensor.blas_threads(), tensor._conv_workers()))
            return resolve(values)

        monkeypatch.setattr(cli, "resolve_dataset_pair", spy)
        extra = ["--deterministic"]
        if fails:
            os.makedirs(tmp_path / "empty")
            extra += ["--override", "data.kind=mnist", "--override", f"data.root={tmp_path / 'empty'}"]
        try:
            before = (tensor._THREAD_BUDGET, tensor.blas_threads(), tensor._conv_workers(),
                      [os.environ[v] for v in tensor._THREAD_ENV])
            assert main(train_cmd(tmp_path / "run", extra)) == (3 if fails else 0)
            after = (tensor._THREAD_BUDGET, tensor.blas_threads(), tensor._conv_workers(),
                     [os.environ[v] for v in tensor._THREAD_ENV])
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


class TestCompose:
    def test_compose_and_reload(self, tmp_path):
        out = tmp_path / "composed" / "train"
        args = ["compose", "--profile", "4x5,2x5", "--out", str(out)] + FAST
        assert main(args) == 0
        ds = load_composed(out)
        assert np.array_equal(ds.class_counts(), [4] * 5 + [2] * 5)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["profile_counts"] == [4] * 5 + [2] * 5

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
