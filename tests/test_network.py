"""Network composition: forward/backward wiring, likelihood transform,
round-trip fidelity on exactly invertible stacks."""

import copy

import numpy as np
import pytest

from revnet.errors import ConfigError, DomainError, NumericError, ShapeError, StateError
from revnet.layers import Conv, Dense, LeakyRelu, MaxPool, ReverseConfig, SoftmaxHead
from revnet.network import (
    ARCHITECTURES,
    FOLDED,
    NetworkSpec,
    ReversibleNetwork,
    TransformConfig,
    baseline_spec,
    check_likelihood,
    small_cnn_spec,
    transform_likelihood,
)

RAW = TransformConfig(renormalize=False)


def assert_flat_layout(net):
    """Every W and b is a view of net.params at its slot, in slot order
    (layer index, then W, then b), and the slots tile the buffer."""
    at = net.params.ctypes.data
    for layer in net.layers:
        for name in layer.param_shapes():
            a = getattr(layer, name)
            assert a.base is net.params and a.ctypes.data == at and a.flags.c_contiguous
            at += a.nbytes
    assert at == net.params.ctypes.data + net.params.nbytes


def written(net, acc):
    """The (layer index, name) slots of acc that hold a nonzero entry."""
    return {key for key in net.slots if np.any(net.view(acc, *key))}


def small_net(seed=0, rcfg=None):
    rng = np.random.default_rng(seed)
    return small_cnn_spec((1, 16, 16), 10).build(rng, rcfg=rcfg)


class TestCheckLikelihood:
    def test_valid_rows_pass(self):
        o = np.array([[0.2, 0.8], [1.0, 0.0]])
        assert check_likelihood(o) is o

    def test_negative_entry_rejected(self):
        with pytest.raises(DomainError):
            check_likelihood(np.array([[-0.2, 1.2]]))

    def test_bad_row_sum_rejected(self):
        with pytest.raises(DomainError):
            check_likelihood(np.array([[0.3, 0.3]]))

    def test_rank_one_rejected(self):
        with pytest.raises(ShapeError):
            check_likelihood(np.array([0.5, 0.5]))

    def test_tolerance_absorbs_rounding(self):
        o = np.array([[0.5 + 1e-8, 0.5 - 1e-8]])
        check_likelihood(o)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        # a NaN compares false against both bounds and the row sum, so it
        # is caught before them, as a numeric error rather than a domain one
        with pytest.raises(NumericError):
            check_likelihood(np.array([[bad, 0.5], [0.5, 0.5]]))


class TestTransformConfig:
    def test_zero_boost_count_rejected(self):
        with pytest.raises(ConfigError):
            TransformConfig(boost_count=0)

    def test_boost_factor_range(self):
        with pytest.raises(ConfigError):
            TransformConfig(boost_factor=1.5)
        with pytest.raises(ConfigError):
            TransformConfig(boost_factor=-0.1)
        TransformConfig(boost_factor=0.0)
        TransformConfig(boost_factor=1.0)


class TestTransformLikelihood:
    def test_boost_count_must_leave_room(self):
        o = np.array([[0.2, 0.3, 0.5]])
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            transform_likelihood(o, TransformConfig(boost_count=3), rng)

    def test_two_class_case_is_deterministic(self):
        # with two classes and the argmax excluded there is only one
        # candidate entry, so the result does not depend on the rng
        o = np.array([[0.9, 0.1]])
        pre = transform_likelihood(o, RAW, np.random.default_rng(123))
        post = transform_likelihood(o, TransformConfig(), np.random.default_rng(123))
        assert pre[0, 0] == 0.9
        assert pre[0, 1] == pytest.approx(0.95 * 0.9, abs=1e-12)
        assert np.allclose(post, pre / pre.sum())

    def test_exactly_k_entries_change_before_renormalization(self):
        rng = np.random.default_rng(5)
        o = np.array(
            [[0.70, 0.10, 0.12, 0.05, 0.03], [0.05, 0.55, 0.15, 0.15, 0.10]]
        )
        for k in (1, 2, 3):
            pre = transform_likelihood(
                o, TransformConfig(boost_count=k, renormalize=False), np.random.default_rng(7)
            )
            changed = np.sum(pre != o, axis=1)
            assert np.all(changed == k)

    def test_argmax_untouched_by_default(self):
        o = np.array([[0.70, 0.10, 0.12, 0.05, 0.03]])
        for trial in range(50):
            pre = transform_likelihood(
                o, TransformConfig(boost_count=2, renormalize=False), np.random.default_rng(trial)
            )
            assert pre[0, 0] == o[0, 0]

    def test_include_argmax_can_touch_it(self):
        o = np.array([[0.70, 0.30]])
        cfg = TransformConfig(include_argmax=True, renormalize=False)
        touched = False
        for trial in range(50):
            pre = transform_likelihood(o, cfg, np.random.default_rng(trial))
            if pre[0, 0] != o[0, 0]:
                touched = True
        assert touched

    def test_boosted_value_is_factor_times_row_max(self):
        o = np.array([[0.70, 0.10, 0.12, 0.05, 0.03]])
        cfg = TransformConfig(boost_count=2, boost_factor=0.5, renormalize=False)
        pre = transform_likelihood(o, cfg, np.random.default_rng(1))
        mask = pre[0] != o[0]
        assert np.allclose(pre[0, mask], 0.5 * 0.70, atol=1e-12)

    def test_renormalized_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        o = rng.dirichlet(np.ones(10), size=8)
        post = transform_likelihood(o, TransformConfig(boost_count=3), rng)
        assert np.allclose(post.sum(axis=1), 1.0, atol=1e-9)
        check_likelihood(post)

    def test_no_renormalize_returns_raw_boost(self):
        rng = np.random.default_rng(3)
        o = rng.dirichlet(np.ones(6), size=4)
        pre = transform_likelihood(o, RAW, np.random.default_rng(4))
        post = transform_likelihood(o, TransformConfig(), np.random.default_rng(4))
        assert np.any(np.abs(pre.sum(axis=1) - 1.0) > 1e-6)
        # the same picks, then the division by the row sums
        assert post.tobytes() == (pre / pre.sum(axis=1, keepdims=True)).tobytes()

    @pytest.mark.parametrize("include_argmax", [False, True])
    def test_single_boost_draw_matches_the_per_row_loop(self, include_argmax):
        # boost_count=1 draws all rows at once; the reference is the loop
        # kept for larger counts: the same entries and generator state
        def loop(o, rng):
            pre = o.copy()
            for r in range(len(o)):
                pool = np.arange(o.shape[1])
                if not include_argmax:
                    pool = np.delete(pool, o[r].argmax())
                pre[r, rng.choice(pool, size=1, replace=False)] = o.dtype.type(0.95) * o[r].max()
            return pre

        cfg = TransformConfig(include_argmax=include_argmax, renormalize=False)
        for seed, (rows, classes) in enumerate([(128, 10)] * 5 + [(7, 2), (33, 3)]):
            o = np.random.default_rng(100 + seed).dirichlet(np.ones(classes), size=rows)
            o = o.astype(np.float32) if seed % 2 else o
            new, old = np.random.default_rng(seed), np.random.default_rng(seed)
            pre = transform_likelihood(o, cfg, new)
            assert pre.tobytes() == loop(o, old).tobytes()
            assert new.bit_generator.state == old.bit_generator.state

    def test_same_rng_state_same_result(self):
        o = np.random.default_rng(6).dirichlet(np.ones(10), size=5)
        cfg = TransformConfig(boost_count=2)
        a = transform_likelihood(o, cfg, np.random.default_rng(9))
        b = transform_likelihood(o, cfg, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestConstruction:
    def test_empty_layer_list_rejected(self):
        with pytest.raises(ConfigError):
            ReversibleNetwork([], (1, 8, 8))

    def test_softmax_head_only_last(self):
        # the walkers write into a layer's output in place, which only the
        # head's cache may hold, so nothing may follow the head
        with pytest.raises(ConfigError):
            ReversibleNetwork([Dense(4, 4), SoftmaxHead(), LeakyRelu()], (4,))

    def test_shape_chaining(self):
        net = small_cnn_spec((1, 28, 28), 10).build()
        assert net.shapes[0] == (1, 28, 28)
        assert net.shapes[-1] == (10,)

    def test_final_dense_located(self):
        net = small_net()
        assert isinstance(net.layers[net.final_dense_idx], Dense)
        assert net.layers[net.final_dense_idx].out_features == 10
        assert net.has_head

    def test_prev_param_wiring(self):
        net = small_net()
        param_idx = [i for i, l in enumerate(net.layers) if l.param_shapes()]
        assert net._prev_param[param_idx[0]] is None
        for a, b in zip(param_idx, param_idx[1:]):
            assert net._prev_param[b] == a

    def test_class_count_mismatch_rejected(self):
        spec = NetworkSpec((1, 8, 8), 10, ["dense:5", "softmax"])
        with pytest.raises(ConfigError):
            spec.build()

    def test_missing_head_rejected(self):
        spec = NetworkSpec((1, 8, 8), 10, ["dense:10"])
        with pytest.raises(ConfigError):
            spec.build()

    def test_unknown_token_rejected(self):
        spec = NetworkSpec((1, 8, 8), 10, ["blah:3", "softmax"])
        with pytest.raises(ConfigError):
            spec.build()

    def test_malformed_token_rejected(self):
        # unparsable, out of range, or not fitting the shape before it
        for tokens in (["conv:abc:5"], ["conv"], ["pool"], ["dense"], ["conv:0:3"], ["lrelu:0"],
                       ["pool:3"], ["conv:3:3:2:1"], ["dense:10", "pool:2"]):
            spec = NetworkSpec((1, 8, 8), 10, tokens + ["dense:10", "softmax"])
            with pytest.raises(ConfigError):
                spec.build()

    def test_architecture_registry(self):
        assert set(ARCHITECTURES) == {"baseline", "small"}
        for fn in ARCHITECTURES.values():
            net = fn((3, 32, 32), 10).build()
            assert net.shapes[-1] == (10,)

    def test_baseline_topology(self):
        spec = baseline_spec((3, 32, 32), 10)
        assert spec.tokens.count("pool:2") == 2
        assert sum(1 for t in spec.tokens if t.startswith("conv")) == 6

    def test_slot_table(self):
        net = small_cnn_spec((1, 16, 16), 10).build()
        assert net.params is None and net.velocity is None
        assert list(net.slots) == [(0, "W"), (0, "b"), (3, "W"), (3, "b"),
                                   (6, "W"), (6, "b"), (8, "W"), (8, "b")]
        assert net.slots[3, "W"] == (16 * 25 + 16, (32, 16, 5, 5))
        assert net.size == sum(int(np.prod(shape)) for _, shape in net.slots.values())
        assert [net.offset(i) for i in (0, 1, 3, 4, 6, 9, 10)] == [
            0, 416, 416, 13248, 13248, net.size, net.size]
        net.init_params(np.random.default_rng(0))
        assert_flat_layout(net)
        assert net.params.dtype == np.float32 and net.velocity is None

    def test_init_draws_as_the_layers_do(self):
        # the net's buffer holds what each layer's own init_params draws
        net = small_net(seed=42)
        rng = np.random.default_rng(42)
        for layer in net.layers:
            fresh = copy.copy(layer)
            fresh.init_params(rng)
            for name in layer.param_shapes():
                assert np.array_equal(getattr(layer, name), getattr(fresh, name))

    def test_init_determinism(self):
        a = small_cnn_spec((1, 16, 16), 10).build(np.random.default_rng(42))
        b = small_cnn_spec((1, 16, 16), 10).build(np.random.default_rng(42))
        for la, lb in zip(a.layers, b.layers):
            if la.param_shapes():
                assert np.array_equal(la.W, lb.W)
                assert np.array_equal(la.b, lb.b)


class TestForwardAndTail:
    def test_trace_covers_every_layer(self):
        net = small_net()
        x = np.random.default_rng(0).normal(size=(3, 1, 16, 16)).astype(np.float32)
        o, alpha, trace = net.feed_forward(x)
        assert len(trace) == len(net.layers)
        check_likelihood(o, tol=1e-4)

    def test_alpha_is_final_dense_input(self):
        net = small_net()
        x = np.random.default_rng(1).normal(size=(2, 1, 16, 16)).astype(np.float32)
        o, alpha, _ = net.feed_forward(x)
        assert alpha.shape == (2, net.layers[net.final_dense_idx].W.shape[0])
        o2 = net.one_step_forward(alpha)
        assert np.array_equal(o2, o)

    def test_wrong_input_shape_rejected(self):
        net = small_net()
        with pytest.raises(ShapeError):
            net.feed_forward(np.zeros((2, 1, 8, 8), dtype=np.float32))

    def test_backward_touches_only_param_layers(self):
        net = small_net()
        x = np.random.default_rng(3).normal(size=(2, 1, 16, 16)).astype(np.float32)
        o, _, trace = net.feed_forward(x)
        acc = np.zeros_like(net.params)
        g = net.backward_from_logits(o / o.shape[0], trace, acc)
        assert g.shape == x.shape
        params = [i for i, l in enumerate(net.layers) if isinstance(l, (Conv, Dense))]
        assert set(net.slots) == {(i, n) for i in params for n in "Wb"}
        assert written(net, acc) == set(net.slots)

    def test_one_step_adjoint_fills_tail_only(self):
        net = small_net()
        x = np.random.default_rng(4).normal(size=(2, 1, 16, 16)).astype(np.float32)
        o, alpha, _ = net.feed_forward(x)
        o2, caches = net.one_step_forward(alpha, want_caches=True)
        acc = np.zeros_like(net.params)
        g = net.one_step_adjoint(o2, caches, acc)
        assert g.shape == alpha.shape
        assert written(net, acc) == {(net.final_dense_idx, "W"), (net.final_dense_idx, "b")}


class TestReversePaths:
    def test_feed_backward_shape(self):
        net = small_net()
        x = np.random.default_rng(5).normal(size=(2, 1, 16, 16)).astype(np.float32)
        o, _, trace = net.feed_forward(x)
        xbar = net.feed_backward(o, trace=trace)
        assert xbar.shape == x.shape
        assert np.all(np.isfinite(xbar))

    def test_feed_backward_validates_likelihood(self):
        net = small_net()
        with pytest.raises(DomainError):
            net.feed_backward(np.full((1, 10), -0.1, dtype=np.float32))

    def test_feed_backward_rejects_nan_likelihood(self):
        net = small_net()
        o = np.full((2, 10), 0.1, dtype=np.float32)
        o[0, 3] = np.nan
        with pytest.raises(NumericError):
            net.feed_backward(o)

    def test_unpool_requires_trace(self):
        net = small_net(rcfg=ReverseConfig(pool="unpool"))
        o = np.full((1, 10), 0.1, dtype=np.float32)
        with pytest.raises(StateError):
            net.feed_backward(o)

    def test_unpool_reverse_from_latent_requires_trace(self):
        net = small_net(rcfg=ReverseConfig(pool="unpool"))
        x = np.random.default_rng(6).normal(size=(2, 1, 16, 16)).astype(np.float32)
        o, alpha, _ = net.feed_forward(x)
        with pytest.raises(StateError):
            net.reverse_from_latent(alpha)

    def test_unpool_with_trace_works(self):
        net = small_net(rcfg=ReverseConfig(pool="unpool"))
        x = np.random.default_rng(6).normal(size=(2, 1, 16, 16)).astype(np.float32)
        o, _, trace = net.feed_forward(x)
        xbar = net.feed_backward(o, trace=trace)
        assert xbar.shape == x.shape

    def test_generate_latent_levels(self):
        net = small_net()
        x = np.random.default_rng(7).normal(size=(2, 1, 16, 16)).astype(np.float32)
        o, alpha, trace = net.feed_forward(x)
        lat = net.generate_latent(o, trace=trace)
        assert lat.shape == alpha.shape

    def test_generation_composes_to_feed_backward(self):
        # reversing the tail then continuing from the latent walks the
        # same layer sequence as one full reverse pass, bit for bit
        net = small_net()
        x = np.random.default_rng(8).normal(size=(3, 1, 16, 16)).astype(np.float32)
        o, _, trace = net.feed_forward(x)
        lat = net.generate_latent(o, trace=trace)
        via_latent = net.reverse_from_latent(lat, trace=trace)
        direct = net.feed_backward(o, trace=trace)
        assert np.array_equal(via_latent, direct)

    def test_reverse_caches_align_with_adjoint(self):
        net = small_net()
        x = np.random.default_rng(9).normal(size=(2, 1, 16, 16)).astype(np.float32)
        o, _, trace = net.feed_forward(x)
        xbar, rcaches = net.feed_backward(o, trace=trace, want_caches=True)
        acc = np.zeros_like(net.params)
        g_o = net.reverse_adjoint(np.ones_like(xbar), rcaches, acc)
        assert g_o.shape == o.shape
        # tied weights mean every parameterized layer sees a W gradient
        params = [i for i, l in enumerate(net.layers) if isinstance(l, (Conv, Dense))]
        assert {(i, "W") for i in params} <= written(net, acc)

    def test_missing_cache_rejected(self):
        net = small_net()
        acc = np.zeros_like(net.params)
        with pytest.raises(StateError):
            net.reverse_adjoint(
                np.zeros((1, 1, 16, 16), dtype=np.float32),
                [None] * len(net.layers),
                acc,
            )


NON_FOLDABLE = {
    "pool-first": ["pool:2", "conv:3:3", "lrelu", "dense:4", "softmax"],
    "lrelu-then-pool-first": ["lrelu", "pool:2", "conv:3:3", "lrelu", "dense:4", "softmax"],
    "stride-2-conv": ["conv:3:4:2:1", "lrelu", "pool:2", "dense:4", "softmax"],
}


class TestUpsamplingFold:
    """In upsample mode a MaxPool's reverse folds into the stride-1 Conv
    below it (past LeakyRelus); everything else reverses layer by layer.
    Unpool mode is covered by TestOwnership, whose fold_kwargs are empty
    there."""

    def test_fold_targets(self):
        assert small_net()._fold_into == [None, None, 0, None, None, 3, None, None, None, None]
        baseline = baseline_spec((3, 32, 32), 10).build()
        assert {i: j for i, j in enumerate(baseline._fold_into) if j is not None} == {4: 2, 9: 7}
        for tokens in NON_FOLDABLE.values():
            assert NetworkSpec((1, 8, 8), 4, tokens).build()._fold_into == [None] * len(tokens)
        # a pool over a pool: only the lower one has a conv below it
        stacked = NetworkSpec((1, 8, 8), 4, ["conv:3:3", "pool:2", "pool:2", "dense:4", "softmax"]).build()
        assert stacked._fold_into == [None, 0, None, None, None]

    @pytest.mark.parametrize("name", sorted(NON_FOLDABLE))
    def test_non_foldable_stacks_reverse_layer_by_layer(self, name):
        net = NetworkSpec((1, 8, 8), 4, NON_FOLDABLE[name]).build(np.random.default_rng(5))
        x = np.random.default_rng(6).normal(size=(3, 1, 8, 8)).astype(np.float32)
        o, _, trace = net.feed_forward(x)
        got = net.feed_backward(o, trace=trace, want_caches=True)
        assert_same(got, per_layer_reverse(net, o, trace))

    def test_adjoint_starting_at_a_folded_pool_leaves_g(self):
        # the pool hands the caller's g on to the lrelu above it
        net = NetworkSpec((1, 8, 8), 4, ["conv:3:3", "pool:2", "lrelu", "dense:4", "softmax"]).build(
            np.random.default_rng(11), dtype=np.float64)
        x = np.random.default_rng(12).normal(size=(2, 1, 8, 8))
        o, _, trace = net.feed_forward(x)
        _, rcaches = net.feed_backward(o, trace=trace, want_caches=True)
        assert rcaches[1] is FOLDED
        g = np.random.default_rng(13).normal(size=(2, 3, 4, 4))
        g0 = g.copy()
        got = net.reverse_adjoint(g, rcaches, np.zeros_like(net.params), lo=1)
        assert_same(g, g0)
        want = g
        for i in range(2, len(net.layers)):
            want = net.layers[i].reverse_backward(want, rcaches[i])[0]
        assert_same(got, want)

    @pytest.mark.parametrize("arch", ["small", "baseline"])
    def test_folded_adjoint_matches_unfused_chain(self, arch):
        shape = (1, 16, 16) if arch == "small" else (3, 16, 16)
        net = ARCHITECTURES[arch](shape, 10).build(np.random.default_rng(8), dtype=np.float64)
        x = np.random.default_rng(9).normal(size=(2,) + shape)
        o, _, trace = net.feed_forward(x)
        xbar, rcaches = net.feed_backward(o, trace=trace, want_caches=True)
        want_xbar, unfused = per_layer_reverse(net, o, trace)
        pools = [i for i, layer in enumerate(net.layers) if isinstance(layer, MaxPool)]
        assert [rcaches[i] for i in pools] == [FOLDED, FOLDED]
        assert rel_diff(xbar, want_xbar) <= 1e-12
        g = np.random.default_rng(10).normal(size=xbar.shape)
        acc, want_acc = np.zeros_like(net.params), np.zeros_like(net.params)
        go = net.reverse_adjoint(g, rcaches, acc)
        assert rel_diff(go, net.reverse_adjoint(g, unfused, want_acc)) <= 1e-12
        assert written(net, acc) == written(net, want_acc)
        for key in net.slots:
            assert rel_diff(net.view(acc, *key), net.view(want_acc, *key)) <= 1e-12


def orthogonal(n, rng, dtype=np.float64):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return (q * np.sign(np.diag(r))).astype(dtype)


class TestExactRoundTrip:
    """Stacks built so the reverse map is the true inverse: orthogonal
    square weights, zero biases, no softmax head."""

    def build_linear(self, widths, rng):
        layers = [Dense(n, n) for n in widths]
        net = ReversibleNetwork(layers, (widths[0],))
        net.init_params(np.random.default_rng(0), dtype=np.float64)
        for layer in layers:
            layer.W[...] = orthogonal(layer.W.shape[0], rng)
            layer.b[...] = 0
        return net

    def test_linear_orthogonal_round_trip(self):
        rng = np.random.default_rng(11)
        net = self.build_linear([16, 16, 16], rng)
        x = rng.normal(size=(8, 16))
        o, _, trace = net.feed_forward(x)
        xbar = net.feed_backward(o, trace=trace)
        assert np.max(np.abs(xbar - x)) < 1e-9

    def test_orthogonal_with_exact_activation_inverse(self):
        rng = np.random.default_rng(12)
        layers = [Dense(12, 12), LeakyRelu(0.1), Dense(12, 12)]
        net = ReversibleNetwork(layers, (12,), rcfg=ReverseConfig(activation="inverse"))
        net.init_params(np.random.default_rng(0), dtype=np.float64)
        for layer in (layers[0], layers[2]):
            layer.W[...] = orthogonal(12, rng)
            layer.b[...] = 0
        x = rng.normal(size=(6, 12))
        o, _, trace = net.feed_forward(x)
        xbar = net.feed_backward(o, trace=trace)
        assert np.max(np.abs(xbar - x)) < 1e-9


def snapshot(obj):
    """A deep copy of nested tuples, lists and arrays, for byte-equality
    checks after a walk."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, (list, tuple)):
        return type(obj)(snapshot(o) for o in obj)
    return obj


def assert_same(a, b):
    if isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    elif isinstance(b, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    else:
        assert a == b


def per_layer_reverse(net, o, trace, kwargs=None):
    """feed_backward as one out-of-place reverse call per layer, layer i
    with the keywords kwargs.get(i), or not called and cached as FOLDED
    where that is None, plus the previous parameterized layer's bias.
    Returns (xbar, rcaches)."""
    kwargs = kwargs or {}
    rcaches = [None] * len(net.layers)
    v = o
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if kwargs.get(i, {}) is None:
            rcaches[i] = FOLDED
            continue
        v, rcaches[i] = layer.reverse(v, trace[i], net.rcfg, **kwargs.get(i, {}))
        j = net._prev_param[i]
        if j is not None:
            b = net.layers[j].b
            v = v + (b.reshape(-1, 1, 1) if v.ndim == 4 else b)
    return v, rcaches


def fold_kwargs(net):
    """The reverse keywords of the upsampling fold, found here from the
    rule: a MaxPool whose next layer below that is not a LeakyRelu is a
    stride-1 Conv is not called (None), and that conv reverses with
    up=window."""
    kwargs = {}
    if net.rcfg.pool != "upsample":
        return kwargs
    for i, layer in enumerate(net.layers):
        if isinstance(layer, MaxPool):
            j = i - 1
            while j >= 0 and isinstance(net.layers[j], LeakyRelu):
                j -= 1
            if j >= 0 and isinstance(net.layers[j], Conv) and net.layers[j].stride == 1:
                kwargs[i], kwargs[j] = None, {"up": layer.window}
    return kwargs


def as_float64(net):
    """A float64 copy of net, the same parameters widened."""
    return copy.deepcopy(net).adopt(net.params.astype(np.float64))


def rel_diff(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


OWNERSHIP_NETS = {
    # the small conv net: lrelu after each conv and after the first dense
    "small": lambda rcfg: small_net(1, rcfg),
    # reverse_from_latent starts at a pool that folds into the conv below,
    # so the lrelu after it gets the caller's latent, handed on
    "pool-at-latent": lambda rcfg: NetworkSpec(
        (1, 8, 8), 4, ["conv:3:3", "lrelu", "pool:2", "dense:4", "softmax"]
    ).build(np.random.default_rng(3), rcfg=rcfg),
    # lrelu first (on the caller's x), twice in a row, and right before
    # the final dense (on the caller's latent in reverse_from_latent)
    "lrelu-chain": lambda rcfg: NetworkSpec(
        (12,), 4, ["lrelu:0.2", "dense:8", "lrelu:0.2", "lrelu:0.5", "dense:4", "softmax"]
    ).build(np.random.default_rng(2), dtype=np.float64, rcfg=rcfg),
}


@pytest.mark.parametrize("activation", ["inverse", "forward"])
@pytest.mark.parametrize("pool", ["upsample", "unpool"])
@pytest.mark.parametrize("arch", sorted(OWNERSHIP_NETS))
class TestOwnership:
    """Every walk leaves the caller's arrays, its caches and the forward
    trace byte-equal, and writing in place changes no result."""

    def setup_net(self, arch, pool, activation):
        net = OWNERSHIP_NETS[arch](ReverseConfig(activation=activation, pool=pool))
        shape = (3,) + net.input_shape
        x = np.random.default_rng(30).normal(size=shape).astype(net.layers[-2].W.dtype)
        return net, x

    def test_feed_forward_leaves_x(self, arch, pool, activation):
        net, x = self.setup_net(arch, pool, activation)
        x0 = x.copy()
        o, alpha, trace = net.feed_forward(x)
        assert_same(x, x0)
        # each layer called on its own, out of place, gives the same bits
        v = x
        for i, layer in enumerate(net.layers):
            if i == net.final_dense_idx:
                assert_same(alpha, v)
            v, cache = layer.forward(v)
            assert_same(trace[i], cache)
        assert_same(o, v)

    def test_feed_backward_leaves_o_and_trace(self, arch, pool, activation):
        net, x = self.setup_net(arch, pool, activation)
        o, _, trace = net.feed_forward(x)
        o0, trace0 = o.copy(), snapshot(trace)
        xbar, rcaches = net.feed_backward(o, trace=trace, want_caches=True)
        assert_same(o, o0)
        assert_same(trace, trace0)
        # the per-layer calls with the upsampling fold give the same bits
        assert_same((xbar, rcaches), per_layer_reverse(net, o, trace, fold_kwargs(net)))
        # in float64, the walk is the unfused per-layer chain to 1e-12
        net64 = as_float64(net)
        o64, _, trace64 = net64.feed_forward(x.astype(np.float64))
        want = per_layer_reverse(net64, o64, trace64)[0]
        assert rel_diff(net64.feed_backward(o64, trace=trace64), want) <= 1e-12

    def test_reverse_from_latent_leaves_alphabar(self, arch, pool, activation):
        net, x = self.setup_net(arch, pool, activation)
        o, _, trace = net.feed_forward(x)
        alphabar = net.generate_latent(o, trace=trace)
        a0 = alphabar.copy()
        xbar = net.reverse_from_latent(alphabar, trace=trace)
        assert_same(alphabar, a0)
        assert_same(xbar, net.feed_backward(o, trace=trace))

    def test_adjoints_leave_g_and_caches(self, arch, pool, activation):
        net, x = self.setup_net(arch, pool, activation)
        rng = np.random.default_rng(31)
        o, _, trace = net.feed_forward(x)
        xbar, rcaches = net.feed_backward(o, trace=trace, want_caches=True)
        g_logits = rng.normal(size=o.shape).astype(o.dtype)
        g_rec = rng.normal(size=xbar.shape).astype(xbar.dtype)
        saved = snapshot([g_logits, g_rec, trace, rcaches])
        acc = np.zeros_like(net.params)
        gx = net.backward_from_logits(g_logits, trace, acc)
        go = net.reverse_adjoint(g_rec, rcaches, acc)
        assert_same([g_logits, g_rec, trace, rcaches], saved)
        # the in-place sums equal the sums of each walk's own gradients
        acc_cls, acc_rec = np.zeros_like(net.params), np.zeros_like(net.params)
        assert_same(net.backward_from_logits(g_logits, trace, acc_cls), gx)
        assert_same(net.reverse_adjoint(g_rec, rcaches, acc_rec), go)
        assert_same(acc, acc_cls + acc_rec)
