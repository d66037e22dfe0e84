"""Training loop: schedule, evaluation, determinism, and parity with an
independently written plain-SGD reference."""

import csv
import dataclasses
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from reference_trainer import PlainMlpTrainer
from revnet import data, losses, network, tensor
from revnet.errors import ConfigError, NumericError
from revnet.layers import ReverseConfig
from revnet.losses import cross_entropy, one_hot, reconstruction_mse
from revnet.network import NetworkSpec, transform_likelihood
from test_network import assert_flat_layout
from revnet.training import (
    METRICS_COLUMNS,
    MetricsRow,
    TrainConfig,
    batch_order,
    confusion_counts,
    evaluate,
    lr_at,
    run_experiment,
    sgd_update,
    _step_gradients,
    train_step,
)


def param_layers(net):
    return [layer for layer in net.layers if layer.param_shapes()]


def mlp(n_in=64, hidden=32, n_classes=10, seed=0, dtype=np.float64, rcfg=None):
    spec = NetworkSpec((n_in,), n_classes, [f"dense:{hidden}", "lrelu", f"dense:{n_classes}", "softmax"])
    return spec.build(np.random.default_rng(seed), dtype=dtype, rcfg=rcfg)


def toy_data(n=256, n_in=64, n_classes=10, seed=3, dtype=np.float64):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n)
    # class-dependent mean so the problem is learnable
    centers = rng.normal(size=(n_classes, n_in))
    x = centers[labels] + 0.3 * rng.normal(size=(n, n_in))
    return x.astype(dtype), labels.astype(np.int64)


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.lr_drop_epochs == (20, 40, 60)

    @pytest.mark.parametrize("kwargs, match", [
        ({"lr0": 0.0}, "lr0"),
        ({"momentum": 1.0}, "momentum"),
        ({"momentum": -0.1}, "momentum"),
        ({"train_batch": 0}, "batch sizes"),
        ({"lr_drop_epochs": (10, 10)}, "lr_drop_epochs"),
        ({"lr_drop_epochs": (20, 10)}, "lr_drop_epochs"),
        ({"gen_target": "argmax"}, "gen_target"),
        # a negative cap would silently turn clipping off, like 0
        ({"clip_grad_norm": -1.0}, "clip_grad_norm"),
        ({"weight_decay": -1e-4}, "weight_decay"),
        ({"warmup_epochs": -1}, "warmup_epochs"),
        ({"w_cls": -1.0}, "w_cls"),
        ({"w_rec": -0.5}, "w_rec"),
        ({"w_gen": -1e-3}, "w_gen"),
    ])
    def test_rejects_out_of_range(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("epochs", [0, -2])
    def test_rejects_no_epochs(self, epochs):
        with pytest.raises(ConfigError, match="epochs"):
            TrainConfig(epochs=epochs)

    @pytest.mark.parametrize("factor", [0.0, -0.5])
    def test_rejects_non_positive_drop_factor(self, factor):
        # a negative factor would make the rate negative after the first drop
        with pytest.raises(ConfigError, match="lr_drop_factor"):
            TrainConfig(lr_drop_factor=factor)


class TestLrSchedule:
    def test_default_steps(self):
        cfg = TrainConfig()
        assert lr_at(0, cfg) == pytest.approx(0.1)
        assert lr_at(19, cfg) == pytest.approx(0.1)
        assert lr_at(20, cfg) == pytest.approx(0.01)
        assert lr_at(40, cfg) == pytest.approx(1e-3)
        assert lr_at(60, cfg) == pytest.approx(1e-4)
        assert lr_at(100, cfg) == pytest.approx(1e-4)

    def test_no_drops_constant(self):
        cfg = TrainConfig(lr0=0.5, lr_drop_epochs=())
        for e in (0, 10, 1000):
            assert lr_at(e, cfg) == 0.5

    def test_negative_epoch_rejected(self):
        with pytest.raises(ConfigError):
            lr_at(-1, TrainConfig())


class TestBatchOrder:
    def test_partition(self):
        rng = np.random.default_rng(0)
        batches = batch_order(103, 20, rng)
        sizes = [len(b) for b in batches]
        assert sizes == [20, 20, 20, 20, 20, 3]
        seen = np.sort(np.concatenate(batches))
        assert np.array_equal(seen, np.arange(103))

    def test_deterministic(self):
        a = batch_order(50, 8, np.random.default_rng(7))
        b = batch_order(50, 8, np.random.default_rng(7))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestConfusion:
    def test_against_loop_oracle(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 7, size=1000)
        preds = rng.integers(0, 7, size=1000)
        m = confusion_counts(labels, preds, 7)
        expect = np.zeros((7, 7), dtype=np.int64)
        for l, p in zip(labels, preds):
            expect[l, p] += 1
        assert np.array_equal(m, expect)
        assert m.sum() == 1000


class TestEvaluate:
    def constant_net(self, n_classes=3, winner=1):
        net = mlp(n_in=4, hidden=4, n_classes=n_classes)
        for layer in param_layers(net):
            layer.W[:] = 0
            layer.b[:] = 0
        param_layers(net)[-1].b[winner] = 10.0
        return net

    def test_constant_predictor_error_and_recall(self):
        net = self.constant_net()
        x = np.zeros((4, 4))
        y = np.array([0, 1, 1, 2])
        err, _, recall = evaluate(net, x, y, 3)
        assert err == pytest.approx(50.0)
        assert np.allclose(recall, [0.0, 1.0, 0.0])

    def test_absent_class_recall_zero(self):
        net = self.constant_net(n_classes=4)
        x = np.zeros((2, 4))
        y = np.array([1, 1])
        err, _, recall = evaluate(net, x, y, 4)
        assert err == 0.0
        assert recall[3] == 0.0

    def test_uniform_predictor_loss(self):
        net = self.constant_net()
        param_layers(net)[-1].b[:] = 0
        x = np.zeros((5, 4))
        y = np.array([0, 1, 2, 0, 1])
        _, loss, _ = evaluate(net, x, y, 3)
        assert loss == pytest.approx(np.log(3.0), abs=1e-12)

    def test_batching_invariant(self):
        net = mlp(n_in=4, hidden=8, n_classes=3, seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(23, 4))
        y = rng.integers(0, 3, size=23)
        a = evaluate(net, x, y, 3, batch_size=100)
        b = evaluate(net, x, y, 3, batch_size=7)
        assert a[0] == b[0]
        assert a[1] == pytest.approx(b[1], rel=1e-12)

    def test_empty_rejected(self):
        net = mlp(n_in=4, hidden=4, n_classes=3)
        with pytest.raises(ConfigError):
            evaluate(net, np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 3)


class TestPlainSgdParity:
    """With the reverse loss and generation disabled, the trainer is plain
    momentum SGD; per-step losses must match an independently written
    reference to high precision."""

    def test_fifty_steps(self):
        net = mlp(n_in=64, hidden=32, n_classes=10, seed=11)
        d1, d2 = param_layers(net)
        ref = PlainMlpTrainer(
            d1.W, d1.b, d2.W, d2.b,
            lr=0.05, momentum=0.9, weight_decay=1e-4,
        )
        cfg = TrainConfig(
            lr0=0.05, lr_drop_epochs=(), enable_reverse_loss=False,
            enable_generation=False,
        )
        x, y = toy_data(n=640, seed=12)
        rng = np.random.default_rng(0)
        worst = 0.0
        for step in range(50):
            lo = (step * 32) % 640
            xb, yb = x[lo:lo + 32], y[lo:lo + 32]
            rep, _ = train_step(net, (xb, yb), cfg, rng, epoch=0)
            ref_loss = ref.step(xb, yb)
            worst = max(worst, abs(rep.cls - ref_loss))
        assert worst < 1e-9
        assert np.max(np.abs(d1.W - ref.w1)) < 1e-9
        assert np.max(np.abs(d2.W - ref.w2)) < 1e-9


class TestModeContract:
    def step_once(self, cfg, seed=0):
        net = mlp(n_in=16, hidden=12, n_classes=4, seed=seed)
        x, y = toy_data(n=8, n_in=16, n_classes=4, seed=21)
        rep, _ = train_step(net, (x, y), cfg, np.random.default_rng(5), epoch=0)
        return net, rep

    def test_plain_mode_zeroes_extra_terms(self):
        cfg = TrainConfig(enable_reverse_loss=False, enable_generation=False)
        _, rep = self.step_once(cfg)
        assert rep.rec == 0.0
        assert rep.gen == 0.0
        assert rep.cls > 0.0
        assert rep.total == rep.cls

    def test_reversible_mode_activates_terms(self):
        cfg = TrainConfig()
        _, rep = self.step_once(cfg)
        assert rep.rec > 0.0
        assert rep.gen > 0.0
        assert rep.total == pytest.approx(rep.cls + rep.rec + rep.gen)

    def test_warmup_delays_generation(self):
        cfg = TrainConfig(warmup_epochs=2, enable_reverse_loss=False)
        net = mlp(n_in=16, hidden=12, n_classes=4)
        x, y = toy_data(n=8, n_in=16, n_classes=4, seed=21)
        rep0, _ = train_step(net, (x, y), cfg, np.random.default_rng(5), epoch=0)
        rep2, _ = train_step(net, (x, y), cfg, np.random.default_rng(5), epoch=2)
        assert rep0.gen == 0.0
        assert rep2.gen > 0.0

    def test_loss_weights_scale_total(self):
        cfg = TrainConfig(w_rec=0.25, w_gen=0.0)
        _, rep = self.step_once(cfg)
        assert rep.total == pytest.approx(rep.cls + 0.25 * rep.rec)

    def test_stop_grad_limits_generation_reach(self):
        # the generated latent comes from reversing the classification
        # tail, so full differentiation adds tied gradients for the tail
        # weights and the previous layer's bias; with stop_grad the term
        # becomes tail-only. Either way the first dense weight matrix
        # stays exactly where a generation-free run puts it.
        x, y = toy_data(n=8, n_in=16, n_classes=4, seed=21)

        def one(enable_gen, stop):
            net = mlp(n_in=16, hidden=12, n_classes=4, seed=9)
            cfg = TrainConfig(enable_reverse_loss=False, enable_generation=enable_gen,
                              gen_stop_grad=stop)
            train_step(net, (x, y), cfg, np.random.default_rng(5), epoch=0)
            return param_layers(net)

        # no-gen run, stop-grad run, full-grad run
        off = one(False, False)
        stop = one(True, True)
        full = one(True, False)
        assert np.array_equal(off[0].W, stop[0].W)
        assert np.array_equal(off[0].b, stop[0].b)
        assert not np.array_equal(off[1].W, stop[1].W)
        assert np.array_equal(off[0].W, full[0].W)
        assert not np.array_equal(off[0].b, full[0].b)

    def test_gen_target_switch_changes_update(self):
        x, y = toy_data(n=8, n_in=16, n_classes=4, seed=21)

        def one(target):
            net = mlp(n_in=16, hidden=12, n_classes=4, seed=9)
            cfg = TrainConfig(enable_reverse_loss=False, gen_target=target)
            rep, _ = train_step(net, (x, y), cfg, np.random.default_rng(5), epoch=0)
            return rep

        a = one("label")
        b = one("transformed")
        assert a.gen != b.gen

    def test_clip_bounds_update_size(self):
        x, y = toy_data(n=8, n_in=16, n_classes=4, seed=21)

        def first_step_delta(clip):
            net = mlp(n_in=16, hidden=12, n_classes=4, seed=9)
            before = param_layers(net)[0].W.copy()
            cfg = TrainConfig(lr0=1.0, momentum=0.0, weight_decay=0.0,
                              enable_reverse_loss=False, enable_generation=False,
                              clip_grad_norm=clip)
            train_step(net, (x, y), cfg, np.random.default_rng(5), epoch=0)
            return param_layers(net)[0].W - before

        free = first_step_delta(0.0)
        clipped = first_step_delta(1e-4)
        norm_free = np.linalg.norm(free)
        norm_clipped = np.linalg.norm(clipped)
        assert norm_clipped < norm_free
        # direction preserved: clipped update is a positive scalar multiple
        cos = np.sum(free * clipped) / (norm_free * norm_clipped)
        assert cos == pytest.approx(1.0, abs=1e-10)

    def test_non_finite_loss_raises(self):
        net = mlp(n_in=16, hidden=12, n_classes=4)
        x = np.full((4, 16), np.nan)
        y = np.zeros(4, dtype=np.int64)
        cfg = TrainConfig(enable_reverse_loss=False, enable_generation=False)
        with pytest.raises(NumericError):
            train_step(net, (x, y), cfg, np.random.default_rng(0))


class TestAllOrNothingUpdate:
    # each test breaks the step in the last layer, after a first good step
    # made the velocity; nothing may move, the input conv first of all

    def net_after_one_step(self, cfg, pool="upsample"):
        spec = NetworkSpec((1, 6, 6), 3, ["conv:2:3", "lrelu", "pool:2", "dense:3", "softmax"])
        net = spec.build(np.random.default_rng(4), dtype=np.float32, rcfg=ReverseConfig(pool=pool))
        rng = np.random.default_rng(8)
        batch = rng.normal(size=(4, 1, 6, 6)).astype(np.float32), np.array([0, 1, 2, 1])
        train_step(net, batch, cfg, np.random.default_rng(5))
        return net, batch

    @staticmethod
    def state(net):
        params = [(l.W.tobytes(), l.b.tobytes()) for l in param_layers(net)]
        return params, net.velocity.tobytes()

    @staticmethod
    def fill_last_grad(monkeypatch, net, value):
        dense = net.layers[net.final_dense_idx]
        backward = dense.backward

        def filled_backward(g, cache):
            gx, grads = backward(g, cache)
            grads["W"] = np.full_like(grads["W"], value)
            return gx, grads

        monkeypatch.setattr(dense, "backward", filled_backward)

    @pytest.mark.parametrize("clip", [0.0, 5.0])
    def test_non_finite_gradient_changes_nothing(self, monkeypatch, clip):
        cfg = TrainConfig(clip_grad_norm=clip)
        net, batch = self.net_after_one_step(cfg)
        before = self.state(net)
        self.fill_last_grad(monkeypatch, net, np.inf)
        with pytest.raises(NumericError):
            train_step(net, batch, cfg, np.random.default_rng(6))
        assert self.state(net) == before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_overflowing_update_changes_nothing(self, monkeypatch):
        # the summed gradient stays finite, but lr * gradient overflows
        # float32, so the last layer's new parameters would be infinite
        net, batch = self.net_after_one_step(TrainConfig())
        before = self.state(net)
        self.fill_last_grad(monkeypatch, net, 1e37)
        with pytest.raises(NumericError, match="update makes parameter W of layer 3"):
            train_step(net, batch, TrainConfig(lr0=100.0), np.random.default_rng(6))
        assert self.state(net) == before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the inf spreads on purpose
    @pytest.mark.parametrize("pool", ["upsample", "unpool"])
    @pytest.mark.parametrize("op", ["backward", "reverse_backward"])
    def test_non_finite_upstream_gradient_raises(self, monkeypatch, op, pool):
        # one infinite entry entering the pool and activation from above
        # (backward) or below (reverse_backward) must still stop the step
        cfg = TrainConfig()
        net, batch = self.net_after_one_step(cfg, pool)
        layer = net.layers[net.final_dense_idx if op == "backward" else 0]
        original = getattr(layer, op)

        def infected(g, cache):
            gx, grads = original(g, cache)
            gx[(0,) * gx.ndim] = np.inf
            return gx, grads

        monkeypatch.setattr(layer, op, infected)
        with pytest.raises(NumericError):
            train_step(net, batch, cfg, np.random.default_rng(6))


def whole_array_update(params, velocity, acc, lr, cfg):
    """The momentum step as it ran on whole arrays, one parameter at a
    time, before it went block by block over flat buffers: new (params,
    velocity), each [{name: array}] per layer."""
    if cfg.clip_grad_norm > 0:
        total = np.sqrt(sum(float(np.sum(np.square(g, dtype=np.float64)))
                            for entry in acc for g in entry.values()))
        if total > cfg.clip_grad_norm:
            scale = cfg.clip_grad_norm / total
            acc = [{n: g * g.dtype.type(scale) for n, g in e.items()} for e in acc]
    new_params, new_vel = [dict(e) for e in params], [dict(e) for e in velocity]
    for i, entry in enumerate(acc):
        for name, g in entry.items():
            p = params[i][name]
            step = p * g.dtype.type(cfg.weight_decay)
            step += g
            step *= g.dtype.type(lr)
            vel = velocity[i]
            v = vel[name] * g.dtype.type(cfg.momentum) if name in vel else np.zeros_like(p)
            v -= step
            new_params[i][name], new_vel[i][name] = p + v, v
    return new_params, new_vel


class TestSgdUpdate:
    @pytest.mark.parametrize("clip", [0.0, 1e-3])
    def test_reads_acc_only_and_matches_whole_array_step(self, monkeypatch, clip):
        # 24-byte scratch blocks: every parameter but a 2-entry bias spans
        # several blocks, most ending in a partial one
        monkeypatch.setattr(tensor, "_BLOCK_BYTES", 24)
        spec = NetworkSpec((1, 6, 6), 3, ["conv:2:3", "lrelu", "pool:2", "dense:5", "lrelu",
                                          "dense:3", "softmax"])
        net = spec.build(np.random.default_rng(4), dtype=np.float32)
        cfg = TrainConfig(clip_grad_norm=clip, weight_decay=0.01, momentum=0.9)
        rng = np.random.default_rng(9)

        def per_param(buf):
            return [{n: net.view(buf, i, n).copy() for n in layer.param_shapes()}
                    for i, layer in enumerate(net.layers)]

        for _ in range(2):  # the first step starts the velocity, the second reads it
            acc = rng.normal(size=net.size).astype(np.float32)
            acc_bytes = acc.tobytes()
            velocity = [{}] * len(net.layers) if net.velocity is None else per_param(net.velocity)
            want_params, want_vel = whole_array_update(per_param(net.params), velocity,
                                                       per_param(acc), 0.05, cfg)
            sgd_update(net, acc, 0.05, cfg)
            assert acc.tobytes() == acc_bytes
            assert_flat_layout(net)
            for got, want in ((per_param(net.params), want_params), (per_param(net.velocity), want_vel)):
                assert [{n: a.tobytes() for n, a in e.items()} for e in got] == \
                    [{n: a.tobytes() for n, a in e.items()} for e in want]
        if clip:  # clipping fired on both steps
            assert float(np.sum(np.square(acc, dtype=np.float64))) > clip ** 2


def test_steps_keep_the_flat_layout():
    # the update writes through net.params, so the layers see every step,
    # and a fresh init or load starts the momentum over
    net, _ = lane_steps("small")
    assert_flat_layout(net)
    assert net.velocity.shape == net.params.shape and net.velocity.any()
    net.init_params(np.random.default_rng(0))
    assert_flat_layout(net)
    assert net.velocity is None


class TestSaturatedStep:
    # logits spanning more than 100 put softmax outputs below float32's
    # smallest normal; the flushed logit gradient keeps their products out
    # of the conv kernels, and the step still matches an unflushed float64 one

    @staticmethod
    def saturated(dtype):
        spec = NetworkSpec((1, 8, 8), 3, ["conv:4:3", "lrelu", "pool:2", "conv:6:3", "lrelu",
                                          "dense:3", "softmax"])
        net = spec.build(np.random.default_rng(4), dtype=dtype)
        net.layers[net.final_dense_idx].W *= 30
        return net

    @staticmethod
    def step_subnormals(monkeypatch, net, batch):
        """The subnormal entries of every array that reached a conv kernel
        in one train_step, and the step's parameter updates."""
        found = []
        with monkeypatch.context() as m:
            for name in ("conv2d", "conv2d_transposed", "conv2d_weight_grad"):
                def spy(*args, _kernel=getattr(tensor, name)):
                    for a in args:
                        if isinstance(a, np.ndarray):
                            mag = np.abs(a)
                            found.append(int(np.count_nonzero((mag > 0) & (mag < np.finfo(a.dtype).tiny))))
                    return _kernel(*args)
                m.setattr(tensor, name, spy)
            before = [l.W.copy() for l in param_layers(net)]
            train_step(net, batch, TrainConfig(), np.random.default_rng(5))
        return found, [l.W - w for l, w in zip(param_layers(net), before)]

    @pytest.mark.parametrize("flush", [True, False])
    def test_no_subnormal_reaches_a_conv_kernel(self, monkeypatch, flush):
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(6, 1, 8, 8)), np.array([0, 1, 2, 1, 0, 2])
        o = self.saturated(np.float64).feed_forward(x)[0]
        assert np.all(np.log(o).max(axis=1) - np.log(o).min(axis=1) > 100)
        if not flush:  # the same step unflushed: the check has something to find
            monkeypatch.setattr(losses, "FLUSH", 0.0)
        found, got = self.step_subnormals(monkeypatch, self.saturated(np.float32), (x.astype(np.float32), y))
        assert len(found) > 10 and (sum(found) == 0) == flush
        monkeypatch.setattr(losses, "FLUSH", 0.0)
        _, want = self.step_subnormals(monkeypatch, self.saturated(np.float64), (x, y))
        for g, w in zip(got, want):
            assert np.allclose(g, w, rtol=1e-4, atol=1e-4 * np.max(np.abs(w)))


# the small and the baseline topology on 8x8 inputs, 4 classes
LANE_NETS = {"small": (network.small_cnn_spec, (1, 8, 8)),
             "baseline": (network.baseline_spec, (3, 8, 8))}


def lane_net(arch, pool="upsample", seed=11):
    spec, shape = LANE_NETS[arch]
    return spec(shape, 4).build(np.random.default_rng(seed), rcfg=ReverseConfig(pool=pool))


def lane_batch(arch, rng, n=6):
    x = rng.normal(size=(n,) + LANE_NETS[arch][1]).astype(np.float32)
    return x, rng.integers(0, 4, size=n)


def lane_steps(arch, pool="upsample", steps=3, **overrides):
    """(net, [(LossReport, errors)]) after `steps` rn train_steps."""
    net = lane_net(arch, pool)
    data, transform_rng = np.random.default_rng(12), np.random.default_rng(13)
    cfg = TrainConfig(w_rec=0.01, clip_grad_norm=5.0, **overrides)
    return net, [train_step(net, lane_batch(arch, data), cfg, transform_rng) for _ in range(steps)]


def net_state(net):
    """The bytes of every parameter and velocity."""
    params = [(l.W.tobytes(), l.b.tobytes()) for l in param_layers(net)]
    return params, net.velocity.tobytes()


def lane_result(net, reports):
    return net_state(net), [(dataclasses.astuple(r), m) for r, m in reports]


def _train_in_child(results):
    results.put(lane_result(*lane_steps("small")))


def single_lane_walks(net, batch, cfg, rng, accs):
    """One rn step's gradient walks through the public walkers, in the order
    of the step before it ran two lanes: the class backward, the whole
    reconstruction adjoint, then the generation chain's two walks, walk k
    adding into accs[k]. With one buffer four times over, that is the sum
    that step made."""
    x, labels = batch
    f = x.dtype.type
    target = one_hot(labels, 4, dtype=x.dtype)
    o, _, trace = net.feed_forward(x)
    net.backward_from_logits(f(cfg.w_cls) * cross_entropy(o, target)[1], trace, accs[0])
    xbar, rcaches = net.feed_backward(o, trace=trace, want_caches=True)
    net.reverse_adjoint(f(cfg.w_rec) * reconstruction_mse(xbar, x)[1], rcaches, accs[1])
    obar = transform_likelihood(o, cfg.transform, rng)
    alphabar, gcaches = net.generate_latent(obar, want_caches=True)
    ohat, tail_caches = net.one_step_forward(alphabar, want_caches=True)
    g_alpha = net.one_step_adjoint(f(cfg.w_gen) * cross_entropy(ohat, target)[1], tail_caches, accs[2])
    net.reverse_adjoint(g_alpha, gcaches, accs[3], lo=net.final_dense_idx)


# Two orders of a float32 sum of four terms t differ by at most about
# 6u*sum|t|, u = 2^-24. Over seeds 0-9 of both nets and both pool modes the
# largest difference between the single-lane order and the step's was
# 2.0u*sum|t|; the bound is three times that, the worst case.
GRADIENT_ORDER_ULPS = 6


class TestLanes:
    # an rn step runs the class backward and the reconstruction chain as two
    # lanes (tensor.run_lanes); one conv worker runs them in turn

    @pytest.mark.parametrize("arch,pool,overrides", [
        ("small", "upsample", {}),
        ("small", "unpool", {}),
        ("baseline", "upsample", {}),
        ("baseline", "unpool", {}),
        ("small", "upsample", {"gen_stop_grad": True}),
        ("small", "unpool", {"warmup_epochs": 1}),  # generation off at epoch 0
    ])
    def test_one_and_two_workers_same_bytes(self, monkeypatch, arch, pool, overrides):
        monkeypatch.setattr(tensor, "_COL_BYTES", 4096)  # several chunks per conv
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2):
                monkeypatch.setattr(tensor, "_CONV_WORKERS", workers)
                net, reports = lane_steps(arch, pool, **overrides)
                runs.append(lane_result(net, reports))
        finally:
            sys.setswitchinterval(interval)
        assert runs[0] == runs[1]
        assert all(r.rec > 0 and (r.gen > 0) != ("warmup_epochs" in overrides) for r, _ in reports)

    def test_lanes_convs_run_on_one_worker(self, monkeypatch):
        monkeypatch.setattr(tensor, "_CONV_WORKERS", 2)
        monkeypatch.setattr(tensor, "_COL_BYTES", 4096)
        net = lane_net("small")
        seen, run_chunks = [], tensor._run_chunks

        def spy(chunks, scratch, job):
            seen.append((threading.get_ident(), tensor._conv_workers()))
            run_chunks(chunks, scratch, job)

        monkeypatch.setattr(tensor, "_run_chunks", spy)
        train_step(net, lane_batch("small", np.random.default_rng(12)), TrainConfig(w_rec=0.01),
                   np.random.default_rng(13))
        caller = threading.get_ident()
        # the forward's two convs split their chunks; then the class lane's
        # four kernels on the caller and the reconstruction lane's six on
        # the helper run on one worker each
        assert seen[:2] == [(caller, 2)] * 2
        assert sorted(w for t, w in seen[2:] if t == caller) == [1] * 4
        assert [w for t, w in seen[2:] if t != caller] == [1] * 6

    @pytest.mark.parametrize("failing", ["class", "reconstruction"])
    def test_error_in_a_lane_waits_for_the_other_and_changes_nothing(self, monkeypatch, failing):
        # an overflow in one lane, raised under the caller's errstate on
        # either thread, reaches the caller only after the other lane's last
        # walk, and the update never runs
        monkeypatch.setattr(tensor, "_CONV_WORKERS", 2)
        cfg = TrainConfig(w_rec=0.01, clip_grad_norm=5.0)
        net = lane_net("small")
        data = np.random.default_rng(12)
        train_step(net, lane_batch("small", data), cfg, np.random.default_rng(13))
        before = net_state(net)
        first = {"class": "backward_from_logits", "reconstruction": "feed_backward"}
        other = "class" if failing == "reconstruction" else "reconstruction"
        failed, ended = threading.Event(), []

        def overflow(*args, **kwargs):
            failed.set()
            return np.full(1, 3e38, np.float32) * np.float32(10)

        def after_failure(walk):
            def call(*args, **kwargs):
                failed.wait(timeout=30)
                threading.Event().wait(0.05)
                return walk(*args, **kwargs)
            return call

        adjoint = net.reverse_adjoint

        def last_walk(*args, **kwargs):
            g = adjoint(*args, **kwargs)
            ended.append("reconstruction" if "hi" in kwargs else
                         "class" if kwargs.get("lo") == net.final_dense_idx else "dense span")
            return g

        monkeypatch.setattr(net, first[failing], overflow)
        monkeypatch.setattr(net, first[other], after_failure(getattr(net, first[other])))
        monkeypatch.setattr(net, "reverse_adjoint", last_walk)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            train_step(net, lane_batch("small", data), cfg, np.random.default_rng(14))
        assert ended == [other]
        assert net_state(net) == before

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
    def test_training_in_forked_child_after_lanes_ran(self, monkeypatch):
        # the child inherits the helper's handle but not its thread
        monkeypatch.setattr(tensor, "_CONV_WORKERS", 2)
        want = lane_result(*lane_steps("small"))
        assert tensor._HELPER is not None
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=_train_in_child, args=(results,))
        child.start()
        try:
            got = results.get(timeout=120)
            child.join(timeout=60)
            assert not child.is_alive() and child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
        assert got == want

    @pytest.mark.parametrize("pool", ["upsample", "unpool"])
    @pytest.mark.parametrize("arch", sorted(LANE_NETS))
    def test_lanes_change_only_the_order_of_the_sums(self, arch, pool):
        cfg = TrainConfig(w_rec=0.01)
        for seed in range(10):
            net = lane_net(arch, pool, seed)
            batch = lane_batch(arch, np.random.default_rng(seed))
            want, terms = np.zeros_like(net.params), [np.zeros_like(net.params) for _ in range(4)]
            single_lane_walks(net, batch, cfg, np.random.default_rng(seed), [want] * 4)
            single_lane_walks(net, batch, cfg, np.random.default_rng(seed), terms)
            got = _step_gradients(net, batch, cfg, np.random.default_rng(seed), 0)[2]
            bound = GRADIENT_ORDER_ULPS * 2.0 ** -24 * sum(np.abs(t) for t in terms)
            ok = np.abs(got - want) <= bound
            assert ok.all(), (arch, pool, seed, [key for key in net.slots if not net.view(ok, *key).all()])


class TestDescent:
    def test_loss_decreases_on_learnable_toy(self):
        net = mlp(n_in=16, hidden=24, n_classes=4, seed=2)
        x, y = toy_data(n=512, n_in=16, n_classes=4, seed=13)
        cfg = TrainConfig(lr0=0.05, lr_drop_epochs=(), enable_reverse_loss=False,
                          enable_generation=False)
        rng = np.random.default_rng(0)
        losses = []
        for step in range(40):
            lo = (step * 32) % 512
            rep, _ = train_step(net, (x[lo:lo + 32], y[lo:lo + 32]), cfg, rng)
            losses.append(rep.cls)
        assert np.mean(losses[-5:]) < 0.5 * np.mean(losses[:5])


class TestRunExperiment:
    def setup_run(self, cfg, seed=0, n=60, out_dir=None):
        # the forward-map reverse activation keeps the tied reverse pass
        # bounded on random data, matching how full runs are configured
        net = mlp(n_in=16, hidden=12, n_classes=4, seed=seed, dtype=np.float32,
                  rcfg=ReverseConfig(activation="forward"))
        xtr, ytr = toy_data(n=n, n_in=16, n_classes=4, seed=31, dtype=np.float32)
        xte, yte = toy_data(n=20, n_in=16, n_classes=4, seed=32, dtype=np.float32)
        return run_experiment(net, xtr, ytr, xte, yte, 4, cfg, out_dir=out_dir), net

    def test_row_layout(self):
        cfg = TrainConfig(epochs=2, train_batch=16, enable_reverse_loss=False,
                          enable_generation=False)
        (rows, final_eval), _ = self.setup_run(cfg, n=40)
        # 40 samples in batches of 16 -> 3 steps per epoch
        assert len(rows) == 6
        assert [r.step for r in rows] == list(range(6))
        assert [r.epoch for r in rows] == [0, 0, 0, 1, 1, 1]
        for i, row in enumerate(rows):
            if i in (2, 5):
                assert row.test_err is not None
            else:
                assert row.test_err is None
        assert final_eval[0] == rows[-1].test_err

    def test_empty_training_set_rejected(self, tmp_path):
        # e.g. an empty record file, which no setting check can see
        net = mlp(n_in=4, hidden=4, n_classes=3)
        x, y = np.zeros((0, 4)), np.zeros(0, dtype=np.int64)
        with pytest.raises(ConfigError, match="empty"):
            run_experiment(net, x, y, np.zeros((2, 4)), np.zeros(2, dtype=np.int64), 3,
                           TrainConfig(), out_dir=str(tmp_path))
        assert not os.listdir(tmp_path)

    def test_metrics_csv_contents(self, tmp_path):
        cfg = TrainConfig(epochs=2, train_batch=32, lr_drop_epochs=(1,),
                          determinism=True, enable_reverse_loss=False,
                          enable_generation=False)
        (rows, _), _ = self.setup_run(cfg, out_dir=str(tmp_path))
        with open(tmp_path / "metrics.csv", newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == METRICS_COLUMNS
        assert len(got) == 1 + len(rows)
        for line, row in zip(got[1:], rows):
            assert line == row.to_csv()
            assert line[-1] == "0.000"
        assert os.path.exists(tmp_path / "checkpoint-final.rvnt")
        assert os.path.exists(tmp_path / "checkpoint-epoch001.rvnt")

    def test_deterministic_rerun_identical(self):
        cfg = TrainConfig(epochs=2, train_batch=16, determinism=True, seed=4,
                          lr0=0.01, w_rec=1.0 / 16, clip_grad_norm=5.0)
        (rows_a, _), net_a = self.setup_run(cfg)
        (rows_b, _), net_b = self.setup_run(cfg)
        assert [r.to_csv() for r in rows_a] == [r.to_csv() for r in rows_b]
        for la, lb in zip(param_layers(net_a), param_layers(net_b)):
            assert np.array_equal(la.W, lb.W)
            assert np.array_equal(la.b, lb.b)

    def test_seed_changes_trajectory(self):
        cfg_a = TrainConfig(epochs=1, train_batch=16, determinism=True, seed=4,
                            lr0=0.01, w_rec=1.0 / 16, clip_grad_norm=5.0)
        cfg_b = TrainConfig(epochs=1, train_batch=16, determinism=True, seed=5,
                            lr0=0.01, w_rec=1.0 / 16, clip_grad_norm=5.0)
        (rows_a, _), _ = self.setup_run(cfg_a)
        (rows_b, _), _ = self.setup_run(cfg_b)
        assert [r.to_csv() for r in rows_a] != [r.to_csv() for r in rows_b]

    def test_log_called_per_epoch(self):
        cfg = TrainConfig(epochs=3, train_batch=32, enable_reverse_loss=False,
                          enable_generation=False)
        lines = []
        net = mlp(n_in=16, hidden=12, n_classes=4, dtype=np.float32)
        xtr, ytr = toy_data(n=32, n_in=16, n_classes=4, seed=31, dtype=np.float32)
        run_experiment(net, xtr, ytr, xtr, ytr, 4, cfg, log=lines.append)
        assert [line.split(":")[0] for line in lines] == ["epoch 0", "epoch 1", "epoch 2"]

    def augment_calls(self, monkeypatch, augment):
        """The batch shapes run_experiment hands data.augment, over one
        epoch of 48 [1,4,4] images in batches of 16."""
        calls = []
        real = data.augment

        def spy(xb, rng):
            calls.append(xb.shape)
            return real(xb, rng)

        monkeypatch.setattr(data, "augment", spy)
        cfg = TrainConfig(epochs=1, train_batch=16, augment=augment,
                          enable_reverse_loss=False, enable_generation=False)
        net = NetworkSpec((1, 4, 4), 4, ["dense:12", "lrelu", "dense:4", "softmax"]).build(
            np.random.default_rng(0))
        xtr, ytr = toy_data(n=48, n_in=16, n_classes=4, seed=31, dtype=np.float32)
        xtr = xtr.reshape(48, 1, 4, 4)
        run_experiment(net, xtr, ytr, xtr, ytr, 4, cfg)
        return calls

    def test_augment_applied_to_every_batch(self, monkeypatch):
        assert self.augment_calls(monkeypatch, True) == [(16, 1, 4, 4)] * 3

    def test_no_augment_makes_no_call(self, monkeypatch):
        assert self.augment_calls(monkeypatch, False) == []


class TestMetricsRow:
    def test_formatting(self):
        from revnet.losses import LossReport

        row = MetricsRow(1, 7, 0.01, LossReport(cls=0.5, rec=1.25, gen=0.0),
                         12.5, None, 0.1234)
        cells = row.to_csv()
        assert cells[0] == "1"
        assert cells[1] == "7"
        assert cells[2] == "0.01"
        assert cells[3] == "1.75"
        assert cells[7] == "12.5000"
        assert cells[8] == ""
        assert cells[9] == "0.123"

    def test_test_err_present(self):
        from revnet.losses import LossReport

        row = MetricsRow(0, 0, 0.1, LossReport(), 0.0, 4.5, 0.0)
        assert row.to_csv()[8] == "4.5000"
