"""The revnet benchmark: workloads, the closed timing loop, the correctness
gate and the metrics. `run.py` is the command-line entry and sets the
process environment before this module (and numpy) is imported.

Every workload is a closed loop with one client: the next step starts when
the previous one has returned. The benchmark calls only the package's
public functions; the program sees nothing but arrays generated from the
seed.
"""

import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from revnet import checkpoint, data, imaging, network, tensor, training
from revnet.errors import DomainError, RevnetError
from revnet.layers import Conv, ReverseConfig
from revnet.network import ARCHITECTURES, ReversibleNetwork, TransformConfig, check_likelihood

import reference
import tracing

SETUPS = 3  # set-ups per untraced run; setup_s is their median
N_CLASSES = 10
REVERSE = ReverseConfig(activation="forward", pool="upsample")
LIKELIHOOD_TOL = 1e-4  # the tolerance feed_backward itself applies
LOSS_CHECK_MIN_STEPS = 8  # two steps per quarter at least


@dataclass(frozen=True)
class Workload:
    arch: str
    batch: int
    reverse: bool = True  # reconstruction and generation terms on
    infer: bool = False
    colour: bool = False  # tinted 3x32x32 digits instead of grey 1x28x28
    lr0: float = 0.02
    w_rec: float = 0.00128
    augment: bool = False
    loss_must_fall: bool = False
    # tensor conv2d, conv2d_transposed, conv2d_weight_grad calls per step
    conv_calls: tuple = ()
    # the Calibration kernel's fastest time on an idle core of a 2-CPU
    # x86-64 VM (numpy 2.4, OpenBLAS 0.3.31, one thread)
    cal_nominal_ms: float = 38.0


WORKLOADS = {
    # the README quick-start settings, with and without the reverse terms
    "small-rn": Workload("small", 128, loss_must_fall=True, conv_calls=(4, 4, 4)),
    "small-nn": Workload("small", 128, reverse=False, loss_must_fall=True, conv_calls=(2, 2, 2)),
    # configs/cifar10-long.cfg apart from the batch size
    "baseline-rn": Workload("baseline", 32, colour=True, lr0=0.1, w_rec=3.2552083e-4,
                            augment=True, conv_calls=(12, 12, 12), cal_nominal_ms=83.0),
    # one step = evaluate + reconstruction + generation on one batch
    "small-infer": Workload("small", 100, infer=True, conv_calls=(4, 4, 0), cal_nominal_ms=24.0),
}

END_TO_END_UNITS = {
    "images_per_s": "images/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def input_shape(w):
    return (3, 32, 32) if w.colour else (1, 28, 28)


def make_dataset(w, seeds):
    """A pool of ten batches of synthetic digits (w.batch images per class),
    normalized by the channel means as the trainer does by default."""
    data_seed = int(seeds[0].generate_state(1)[0])
    ds = data.synthetic_digits(w.batch, seed=data_seed, size=input_shape(w)[1])
    if w.colour:
        tint = np.random.default_rng(seeds[1]).uniform(0.3, 1.0, size=(len(ds), 3, 1, 1))
        ds = data.LabeledDataset((ds.images * tint).astype(np.float32), ds.labels, N_CLASSES)
    ds, _ = data.normalize_channelwise(ds, mode="divide_mean")
    return ds


def _capture_outputs(net):
    """Hooks net.feed_forward so every likelihood it returns is kept for
    checking after the timed call. The hook looks the method up on the
    class at call time, so tracing wrappers still apply."""
    outputs = []

    def feed_forward(x):
        out = ReversibleNetwork.feed_forward(net, x)
        outputs.append(out[0])
        return out

    net.feed_forward = feed_forward
    return outputs


def _likelihood_problems(outputs, what):
    problems = []
    for o in outputs:
        try:
            # check_likelihood lets NaN rows through
            if not np.all(np.isfinite(o)):
                raise DomainError("non-finite likelihood entries")
            check_likelihood(o, tol=LIKELIHOOD_TOL)
        except RevnetError as exc:
            problems.append(f"{what}: {exc}")
    outputs.clear()
    return problems


class TrainRunner:
    """Training steps in the order run_experiment takes them: shuffled
    batches from the pool, augmentation if configured, then train_step."""

    checkpoint_bytes = 0

    def __init__(self, w, seed):
        seeds = np.random.SeedSequence(seed).spawn(6)
        self.ds = make_dataset(w, seeds)
        spec = ARCHITECTURES[w.arch](self.ds.images.shape[1:], N_CLASSES)
        self.net = spec.build(np.random.default_rng(seeds[2]), rcfg=REVERSE)
        self.cfg = training.TrainConfig(
            lr0=w.lr0, train_batch=w.batch, w_rec=w.w_rec, clip_grad_norm=5.0,
            enable_reverse_loss=w.reverse, enable_generation=w.reverse, augment=w.augment,
        )
        self.shuffle_rng, self.transform_rng, self.augment_rng = (
            np.random.default_rng(s) for s in seeds[3:6]
        )
        self.outputs = _capture_outputs(self.net)
        self.order = []

    def step(self):
        if not self.order:
            self.order = training.batch_order(len(self.ds), self.cfg.train_batch, self.shuffle_rng)
        idx = self.order.pop()
        xb, yb = self.ds.images[idx], self.ds.labels[idx]
        if self.cfg.augment:
            xb = data.augment(xb, self.augment_rng)
        rep, _ = training.train_step(self.net, (xb, yb), self.cfg, self.transform_rng)
        return rep.total

    def check(self, loss):
        """(loss, problems) of one step's result."""
        problems = [] if np.isfinite(loss) else [f"non-finite loss {loss}"]
        return loss, problems + _likelihood_problems(self.outputs, "forward output")


class InferRunner:
    """Loads a saved net, then per step evaluates one batch, reconstructs it
    and generates from it, writing both grids as the CLI does."""

    def __init__(self, w, seed, scratch):
        seeds = np.random.SeedSequence(seed).spawn(4)
        self.batch = w.batch
        self.ds = make_dataset(w, seeds)
        spec = ARCHITECTURES[w.arch](self.ds.images.shape[1:], N_CLASSES)
        built = spec.build(np.random.default_rng(seeds[2]), rcfg=REVERSE)
        path = os.path.join(scratch, "net.rvnt")
        checkpoint.save_checkpoint(path, built)
        self.checkpoint_bytes = os.path.getsize(path)
        self.net, _ = checkpoint.load_checkpoint(path, rcfg=REVERSE)
        self.transform = TransformConfig()
        self.transform_rng = np.random.default_rng(seeds[3])
        self.grids = (os.path.join(scratch, "reconstructions.pgm"),
                      os.path.join(scratch, "generation.pgm"))
        self.outputs = _capture_outputs(self.net)
        self.phase_s = []  # (evaluate, reconstruct, generate) seconds per step
        self.steps = 0

    def step(self):
        lo = (self.steps % 10) * self.batch
        self.steps += 1
        x, y = self.ds.images[lo:lo + self.batch], self.ds.labels[lo:lo + self.batch]
        net = self.net
        t0 = time.perf_counter()
        _, loss, _ = training.evaluate(net, x, y, N_CLASSES, batch_size=self.batch)
        t1 = time.perf_counter()
        o, _, trace = net.feed_forward(x)
        xbar = net.feed_backward(o, trace=trace)
        imaging.save_image(self.grids[0], imaging.reconstruction_grid(x, xbar))
        t2 = time.perf_counter()
        tr = network.transform_likelihood(o, self.transform, self.transform_rng)
        alphabar = net.generate_latent(tr, trace=trace)
        xgen = net.reverse_from_latent(alphabar, trace=trace)
        ohat = net.one_step_forward(alphabar)
        imaging.save_image(self.grids[1], imaging.generation_grid(x, o, tr, alphabar, xgen))
        t3 = time.perf_counter()
        self.phase_s.append((t1 - t0, t2 - t1, t3 - t2))
        return loss, x.shape, xbar, alphabar, xgen, ohat

    def check(self, result):
        """(evaluation loss, problems) of one step's result."""
        loss, xshape, xbar, alphabar, xgen, ohat = result
        problems = [] if np.isfinite(loss) else [f"non-finite evaluation loss {loss}"]
        latent_shape = (xshape[0],) + self.net.shapes[self.net.final_dense_idx]
        for what, arr, shape in (("reconstruction", xbar, xshape), ("latent", alphabar, latent_shape),
                                 ("generated image", xgen, xshape)):
            if arr.shape != shape or not np.all(np.isfinite(arr)):
                problems.append(f"{what}: shape {arr.shape} (want {shape}) or non-finite values")
        self.outputs.append(ohat)
        return loss, problems + _likelihood_problems(self.outputs, "forward or one-step output")


def make_runner(w, seed, scratch):
    return InferRunner(w, seed, scratch) if w.infer else TrainRunner(w, seed)


# ---------------------------------------------------------------------------
# machine speed


class Calibration:
    """A fixed reference kernel, independent of revnet, that tracks how fast
    the machine runs right now.

    On a shared machine other tenants slow every computation by up to a
    factor of two, in phases lasting from seconds to minutes, so wall times
    of one run and the next are not comparable. The benchmark times this
    kernel before and after every step and every set-up, and scales the
    wall time between by the workload's cal_nominal_ms over the mean of the
    two: reported times are nominal, what the work takes while the kernel
    runs at its nominal speed.

    The kernel has the shape of the program's hot loop on the workload's
    own conv layers: for each, at the workload's batch size, one einsum
    per offset of a 3x3 kernel, then an elementwise max. Its working set is
    as large as a step's. A cache-sized kernel did not slow down with the
    step and tracked worse than no scaling at all, and one kernel for all
    workloads over-corrected the mid-layer-bound baseline-rn.
    """

    def __init__(self, w):
        spec = ARCHITECTURES[w.arch](input_shape(w), N_CLASSES)
        net = spec.build()
        rng = np.random.default_rng(0)
        self.nominal_s = w.cal_nominal_ms / 1e3
        self.convs = []
        for layer, shape in zip(net.layers, net.shapes):
            if isinstance(layer, Conv):
                c, h, wd = shape
                self.convs.append((
                    rng.standard_normal((w.batch, c, h + 2, wd + 2), dtype=np.float32),
                    rng.standard_normal((layer.c_out, c, 3, 3), dtype=np.float32),
                ))
        self.seconds = []

    def time(self):
        t0 = time.perf_counter()
        for x, k in self.convs:
            h, wd = x.shape[2] - 2, x.shape[3] - 2
            out = np.zeros((x.shape[0], k.shape[0], h, wd), dtype=np.float32)
            for i in range(3):
                for j in range(3):
                    out += np.einsum("bchw,oc->bohw", x[:, :, i:i + h, j:j + wd],
                                     k[:, :, i, j], optimize=True)
            np.maximum(out, out * np.float32(0.01), out=out)
        dt = time.perf_counter() - t0
        self.seconds.append(dt)
        return dt

    def scale(self, before, after):
        """Nominal seconds per wall second between two kernel timings."""
        return 2 * self.nominal_s / (before + after)


# ---------------------------------------------------------------------------
# machine facts


def _blas_runtime():
    """(config string, threads in effect) of the OpenBLAS numpy has loaded,
    read through its own API; (None, None) where that is not possible."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None, None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads and config:
                    config.restype = ctypes.c_char_p
                    return config().decode(), int(threads())
    return None, None


def _blas_build():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def sgemm_ceiling_gflops(n=1024, repeats=8):
    """Best rate of a float32 n x n matmul, the roofline's compute roof."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    a @ b
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2 * n ** 3 / best / 1e9


def machine_facts(blas_threads_requested):
    config, threads = _blas_runtime()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_runtime": config,
        "blas_threads_requested": blas_threads_requested,
        "blas_threads": threads,
        "conv_backend": tensor.conv_backend(),
        "sgemm_ceiling_gflops": sgemm_ceiling_gflops(),
    }


def peak_rss_mb():
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2 ** 20 if sys.platform == "darwin" else rss / 1024


# ---------------------------------------------------------------------------
# measurement


def tail_ms(values):
    """(value, percentile) of the highest percentile with at least ten steps
    beyond it. Under 21 steps none at or above the median has; the median
    stands in."""
    s = sorted(values)
    n = len(s)
    if n < 21:
        return statistics.median(s), 50.0
    return s[n - 11], 100.0 * (n - 10) / n


@contextmanager
def _traced(recorder, step, root):
    """Runs the block under the recorder's wrappers inside a root span;
    without a recorder, just runs it."""
    if recorder is None:
        yield
        return
    recorder.step = step
    with recorder.installed(), recorder.span(root):
        yield


def _measure(runner, seconds, min_steps, cal, recorder=None):
    """Closed loop for `seconds` (and at least `min_steps` steps). With a
    recorder, odd steps run traced and even ones untraced. Output checks
    run after each step's clock has stopped."""
    out = {"step_s": [], "wall_s": [], "scale": [], "traced": [], "losses": [],
           "problems": [], "failed": 0}
    start = time.perf_counter()
    before = cal.time()
    n = 0
    while n < min_steps or time.perf_counter() - start < seconds:
        traced = recorder is not None and n % 2 == 1
        t0 = time.perf_counter()
        try:
            with _traced(recorder if traced else None, n, "bench.step"):
                result = runner.step()
        except RevnetError as exc:
            result = exc
        wall = time.perf_counter() - t0
        after = cal.time()
        scale = cal.scale(before, after)
        before = after
        if isinstance(result, RevnetError):
            loss, problems = None, [f"{type(result).__name__}: {result}"]
        else:
            loss, problems = runner.check(result)
        out["step_s"].append(wall * scale)
        out["wall_s"].append(wall)
        out["scale"].append(scale)
        out["traced"].append(traced)
        out["losses"].append(loss)
        if problems:
            out["failed"] += 1
            out["problems"] += [f"step {n}: {p}" for p in problems]
        n += 1
    return out


def _loss_falls(w, loop):
    """Mean loss over the last quarter of the run below that of the first."""
    losses = [x for x in loop["losses"] if x is not None]
    if not w.loss_must_fall or len(losses) < LOSS_CHECK_MIN_STEPS:
        return None, []
    q = len(losses) // 4
    first, last = float(np.mean(losses[:q])), float(np.mean(losses[-q:]))
    problems = [] if last < first else [
        f"loss did not fall: first-quarter mean {first:.4g}, last-quarter mean {last:.4g}"]
    return {"first_quarter": first, "last_quarter": last}, problems


def run(name, seed, seconds, trace, out_dir, blas_threads=None, batch=None, min_steps=1):
    """One benchmark run. Returns the result record: correct, attempted,
    failed, metrics ({name: {value, unit}}), problems and detail. Writes the
    record (and the spans, when traced) as JSON under out_dir."""
    w = WORKLOADS[name]
    if batch:
        w = replace(w, batch=batch)
    cal = Calibration(w)
    facts = machine_facts(blas_threads)
    problems = []
    if facts["conv_backend"] != "native":
        problems.append(f"conv backend is {facts['conv_backend']}, the benchmark needs native")
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=out_dir)
    recorder = tracing.Recorder() if trace else None
    try:
        setup_s, setup_scale = [], 1.0
        for _ in range(1 if trace else SETUPS):
            before = cal.time()
            t0 = time.perf_counter()
            with _traced(recorder, "setup", "bench.setup"):
                runner = make_runner(w, seed, scratch)
                warm = runner.step()
            wall = time.perf_counter() - t0
            setup_scale = cal.scale(before, cal.time())
            setup_s.append(wall * setup_scale)
            problems += [f"warm-up: {p}" for p in runner.check(warm)[1]]
        gate_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        problems += reference.check_conv_kernels(runner.net, gate_rng)
        if trace:
            recorder.register(runner.net)
        loop = _measure(runner, seconds, max(min_steps, 2 if trace else 1), cal, recorder)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    problems += loop["problems"]
    loss_check, loss_problems = _loss_falls(w, loop)
    problems += loss_problems
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "batch": w.batch, "facts": facts,
        "loss_check": loss_check, "losses": loop["losses"],
        "wall_step_ms": [t * 1e3 for t in loop["wall_s"]], "step_scale": loop["scale"],
        "calibration_ms": [t * 1e3 for t in cal.seconds],
    }
    if trace:
        metrics, count_problems = _per_layer_metrics(w, loop, recorder, setup_scale, runner, facts, detail)
        problems += count_problems
    else:
        metrics = _end_to_end_metrics(w, loop, runner, setup_s, detail)
    attempted = len(loop["step_s"])
    detail["ops_failed_frac"] = loop["failed"] / attempted
    record = {
        "correct": not problems,
        "attempted": attempted,
        "failed": loop["failed"],
        "metrics": metrics,
        "problems": problems,
        "detail": detail,
    }
    path = os.path.join(out_dir, f"{'trace' if trace else 'run'}-{name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(dict(record, spans=recorder.spans if trace else None), fh, indent=1, default=str)
    return record


def _end_to_end_metrics(w, loop, runner, setup_s, detail):
    step_ms = [t * 1e3 for t in loop["step_s"]]
    tail, pct = tail_ms(step_ms)
    images = w.batch * len(step_ms)
    detail.update(step_ms=step_ms, step_ms_tail_percentile=pct, steps=len(step_ms), setup_s_each=setup_s)
    if w.infer:
        phases = runner.phase_s[-len(step_ms):]
        for i, phase in enumerate(("eval", "reconstruct", "generate")):
            spent = sum(p[i] * scale for p, scale in zip(phases, loop["scale"]))
            detail[f"{phase}_images_per_s"] = images / spent
    else:
        detail["train_images_per_s"] = images / sum(loop["step_s"])
    values = {
        "images_per_s": images / sum(loop["step_s"]),
        "step_ms_p50": statistics.median(step_ms),
        "step_ms_tail": tail,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _per_layer_metrics(w, loop, recorder, setup_scale, runner, facts, detail):
    """Per-step figures from the traced steps; set-up figures (data and
    checkpoint) from the one traced set-up. `.ms` is the time inside the
    call, children included; `.self_ms` excludes the children. Times are
    nominal, like the end-to-end ones; rates are wall-clock rates, to be
    read against the sgemm ceiling measured in the same run."""
    traced = {i: s for i, (t, s) in enumerate(zip(loop["traced"], loop["scale"])) if t}
    n = len(traced)
    per_step = recorder.totals(traced)
    wall = recorder.totals(dict.fromkeys(traced, 1.0))
    setup = recorder.totals({"setup": setup_scale})
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "flop": 0}

    def ms(name, totals=per_step, per=n, field="incl_s"):
        return totals.get(name, zero)[field] * 1e3 / per

    def gflops(names):
        flop = sum(wall.get(k, zero)["flop"] for k in names)
        secs = sum(wall.get(k, zero)["incl_s"] for k in names)
        return flop / secs / 1e9 if secs else 0.0

    m = {}
    for op in tracing.CONV_OPS:
        name = f"tensor.{op}"
        m[f"{name}.ms"] = (ms(name), "ms")
        m[f"{name}.calls"] = (per_step.get(name, zero)["calls"] / n, "count")
        m[f"{name}.gflops"] = (gflops([name]), "GFLOP/s")
    ceiling = facts["sgemm_ceiling_gflops"]
    m["tensor.sgemm_ceiling_gflops"] = (ceiling, "GFLOP/s")
    m["tensor.conv.ceiling_frac"] = (gflops([f"tensor.{op}" for op in tracing.CONV_OPS]) / ceiling, "ratio")
    for kind in ("conv", "conv0", "dense", "lrelu", "maxpool"):
        for op in tracing.LAYER_OPS:
            m[f"layers.{kind}.{op}.ms"] = (ms(f"layers.{kind}.{op}"), "ms")
    m["layers.dense.gflops"] = (gflops([f"layers.dense.{op}" for op in tracing.LAYER_OPS]), "GFLOP/s")
    for op in ("forward", "reverse", "reverse_backward"):
        m[f"layers.softmax.{op}.ms"] = (ms(f"layers.softmax.{op}"), "ms")
    m["layers.sgd_update.ms"] = (ms("layers.sgd_update"), "ms")
    for name in ("feed_forward", "backward_from_logits", "feed_backward", "reverse_adjoint.rec",
                 "reverse_adjoint.gen", "transform_likelihood", "generate_latent",
                 "reverse_from_latent", "one_step_forward", "one_step_adjoint"):
        m[f"network.{name}.ms"] = (ms(f"network.{name}"), "ms")
    for name in ("losses.cross_entropy", "losses.reconstruction_mse", "training.evaluate",
                 "imaging.reconstruction_grid", "imaging.generation_grid", "imaging.save_image"):
        m[f"{name}.ms"] = (ms(name), "ms")
    m["training.train_step.self_ms"] = (ms("training.train_step", field="self_s"), "ms")
    for name in ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
                 "data.synthetic_digits", "data.normalize_channelwise"):
        m[f"{name}.ms"] = (ms(name, totals=setup, per=1), "ms")
    m["checkpoint.bytes"] = (runner.checkpoint_bytes, "bytes")

    step_flop = sum(t["flop"] for t in per_step.values())
    root = per_step["bench.step"]
    untraced_ms = [t * 1e3 for t, tr in zip(loop["step_s"], loop["traced"]) if not tr]
    traced_ms = [t * 1e3 for t, tr in zip(loop["step_s"], loop["traced"]) if tr]
    m["step.gflop"] = (step_flop / n / 1e9, "GFLOP")
    m["step.gflops"] = (step_flop / wall["bench.step"]["incl_s"] / 1e9, "GFLOP/s")
    m["trace.overhead_frac"] = (statistics.median(traced_ms) / statistics.median(untraced_ms) - 1, "ratio")

    expected = dict(zip((f"tensor.{op}" for op in tracing.CONV_OPS), w.conv_calls))
    problems = [
        f"traced step {step}: conv calls {counts}, expected {expected}"
        for step, counts in recorder.calls_per_step(traced, list(expected)).items()
        if counts != expected
    ]
    by_layer = recorder.totals(traced, key=6)
    by_layer_wall = recorder.totals(dict.fromkeys(traced, 1.0), key=6)
    modules = {}
    for name, t in per_step.items():
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + t["self_s"] * 1e3 / n
    detail.update(
        # share of the traced step inside some module's span; the rest is
        # the harness's own batch slicing between calls
        attributed_frac=1 - root["self_s"] / root["incl_s"],
        traced_steps=n,
        untraced_step_ms=untraced_ms,
        traced_step_ms=traced_ms,
        self_ms_by_module=modules,
        per_name={k: _per_step_row(t, wall[k], n) for k, t in sorted(per_step.items())},
        per_layer={k: _per_step_row(t, by_layer_wall[k], n) for k, t in sorted(by_layer.items())},
        setup={k: _per_step_row(t, t, 1) for k, t in sorted(setup.items())},
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, problems


def _per_step_row(nominal, wall, n):
    return {
        "calls": nominal["calls"] / n,
        "ms": nominal["incl_s"] * 1e3 / n,
        "self_ms": nominal["self_s"] * 1e3 / n,
        "gflop": nominal["flop"] / n / 1e9,
        "gflops": wall["flop"] / wall["incl_s"] / 1e9 if wall["incl_s"] else 0.0,
    }
