"""Smoke test of the benchmark itself, kept out of the package's test suite:

    python3 -m pytest bench/test_smoke.py -q

Every workload runs a few steps at a tiny batch, untraced and traced, and
must report every metric BENCHMARK.json names, with its unit. A wrong
conv2d_transposed and a drifted conv call count must each fail the run.
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from revnet import tensor  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_BATCH = {"small-rn": 16, "small-nn": 16, "baseline-rn": 4, "small-infer": 10}
# enough steps for the loss check, which needs two per quarter
STEPS = harness.LOSS_CHECK_MIN_STEPS


@pytest.fixture(autouse=True)
def native_backend(monkeypatch):
    monkeypatch.setenv("REVNET_CONV_BACKEND", "native")


def _run(workload, tmp_path, trace=False):
    return harness.run(workload, seed=0, seconds=0, trace=trace, out_dir=str(tmp_path),
                       batch=TINY_BATCH[workload], min_steps=STEPS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_with_its_unit(workload, trace, tmp_path):
    record = _run(workload, tmp_path, trace)
    assert record["correct"], record["problems"]
    assert record["attempted"] == STEPS and record["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in record["metrics"].items()}
    assert got == wanted
    for name, m in record["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in record["metrics"].values())
    if workload in ("small-rn", "small-nn"):
        assert record["detail"]["loss_check"] is not None


def test_wrong_conv2d_transposed_fails_the_run(monkeypatch, tmp_path):
    right = tensor.conv2d_transposed

    def unflipped(y, kernel, stride=1, pad=0):
        # true convolution instead of the adjoint of cross-correlation
        return right(y, kernel[:, :, ::-1, ::-1], stride, pad)

    monkeypatch.setattr(tensor, "conv2d_transposed", unflipped)
    record = _run("small-nn", tmp_path)
    assert not record["correct"]
    assert any(p.startswith("conv2d_transposed at layer 0") for p in record["problems"])
    assert any(p.startswith("adjoint identity") for p in record["problems"])


def test_conv_call_count_drift_fails_the_traced_run(monkeypatch, tmp_path):
    drifted = replace(harness.WORKLOADS["small-nn"], conv_calls=(2, 1, 2))
    monkeypatch.setitem(harness.WORKLOADS, "small-nn", drifted)
    record = _run("small-nn", tmp_path, trace=True)
    assert not record["correct"]
    assert any("conv calls" in p for p in record["problems"])


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-nn", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
