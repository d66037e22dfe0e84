"""Layer-level checks: finite-difference gradients for the forward and
reverse paths, bijection properties, pooling semantics, and the momentum
update hand-trace. All gradient checks run in double precision with
central differences at h=1e-5."""

import numpy as np
import pytest

from revnet import tensor
from revnet.errors import DomainError, NumericError, ShapeError
from revnet.layers import (
    Conv,
    Dense,
    LeakyRelu,
    MaxPool,
    ReverseConfig,
    SoftmaxHead,
)
from revnet.network import ReversibleNetwork
from revnet.training import TrainConfig, sgd_update

H = 1e-5
REL_TOL = 1e-5


def numeric_grad(f, x, h=H):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        fp = f()
        flat[i] = keep - h
        fm = f()
        flat[i] = keep
        gf[i] = (fp - fm) / (2 * h)
    return g


def rel_err(analytic, numeric):
    denom = max(np.linalg.norm(numeric), np.linalg.norm(analytic), 1e-8)
    return np.linalg.norm(analytic - numeric) / denom


def make_dense(rng, b_in=3, nin=6, nout=4):
    layer = Dense(nin, nout)
    layer.init_params(rng, np.float64)
    x = rng.standard_normal((b_in, nin))
    return layer, x


def make_conv(rng, stride=1, pad=1, k=3, h=6):
    layer = Conv(2, 3, k, stride, pad)
    layer.init_params(rng, np.float64)
    x = rng.standard_normal((2, 2, h, h))
    return layer, x


@pytest.mark.parametrize("trial", range(20))
def test_dense_forward_gradients(trial):
    rng = np.random.default_rng(1000 + trial)
    layer, x = make_dense(rng)
    r = rng.standard_normal((x.shape[0], layer.out_features))

    def value():
        y, _ = layer.forward(x)
        return np.sum(y * r)

    _, cache = layer.forward(x)
    gx, grads = layer.backward(r, cache)
    assert rel_err(gx, numeric_grad(value, x)) < REL_TOL
    assert rel_err(grads["W"], numeric_grad(value, layer.W)) < REL_TOL
    assert rel_err(grads["b"], numeric_grad(value, layer.b)) < REL_TOL


@pytest.mark.parametrize("trial", range(20))
def test_conv_forward_gradients(trial):
    rng = np.random.default_rng(2000 + trial)
    stride, pad = (1, 1) if trial % 2 == 0 else (2, 1)
    h = 6 if stride == 1 else 7
    layer, x = make_conv(rng, stride=stride, pad=pad, h=h)
    out_shape = (x.shape[0],) + layer.out_shape_for(x.shape[1:])
    r = rng.standard_normal(out_shape)

    def value():
        y, _ = layer.forward(x)
        return np.sum(y * r)

    _, cache = layer.forward(x)
    gx, grads = layer.backward(r, cache)
    assert rel_err(gx, numeric_grad(value, x)) < REL_TOL
    assert rel_err(grads["W"], numeric_grad(value, layer.W)) < REL_TOL
    assert rel_err(grads["b"], numeric_grad(value, layer.b)) < REL_TOL


@pytest.mark.parametrize("trial", range(20))
def test_lrelu_forward_gradients(trial):
    rng = np.random.default_rng(3000 + trial)
    layer = LeakyRelu(0.01)
    # keep entries away from the kink so finite differences are clean
    x = rng.standard_normal((3, 5))
    x[np.abs(x) < 0.05] = 0.1
    r = rng.standard_normal(x.shape)

    def value():
        y, _ = layer.forward(x)
        return np.sum(y * r)

    _, cache = layer.forward(x)
    gx, _ = layer.backward(r, cache)
    assert rel_err(gx, numeric_grad(value, x)) < REL_TOL


@pytest.mark.parametrize("trial", range(20))
def test_maxpool_forward_gradients(trial):
    rng = np.random.default_rng(4000 + trial)
    layer = MaxPool(2)
    x = rng.standard_normal((2, 2, 4, 4))
    # break ties so the argmax is stable under the FD perturbation
    x += np.linspace(0, 1, x.size).reshape(x.shape) * 1e-3
    r = rng.standard_normal((2, 2, 2, 2))

    def value():
        y, _ = layer.forward(x)
        return np.sum(y * r)

    _, cache = layer.forward(x)
    gx, _ = layer.backward(r, cache)
    assert rel_err(gx, numeric_grad(value, x)) < REL_TOL


@pytest.mark.parametrize("trial", range(20))
def test_softmax_forward_gradients(trial):
    rng = np.random.default_rng(5000 + trial)
    layer = SoftmaxHead()
    x = rng.standard_normal((3, 5))
    r = rng.standard_normal(x.shape)

    def value():
        y, _ = layer.forward(x)
        return np.sum(y * r)

    _, cache = layer.forward(x)
    gx, _ = layer.backward(r, cache)
    assert rel_err(gx, numeric_grad(value, x)) < REL_TOL


# -- reverse-path gradients -------------------------------------------------


@pytest.mark.parametrize("trial", range(20))
def test_dense_reverse_gradients(trial):
    rng = np.random.default_rng(6000 + trial)
    layer, _ = make_dense(rng)
    v = rng.standard_normal((3, layer.out_features))
    bias_prev = rng.standard_normal(layer.in_features)
    r = rng.standard_normal((3, layer.in_features))

    def value():
        y, _ = layer.reverse(v, bias_prev)
        return np.sum(y * r)

    _, rcache = layer.reverse(v, bias_prev)
    gv, grads = layer.reverse_backward(r, rcache)
    assert rel_err(gv, numeric_grad(value, v)) < REL_TOL
    assert rel_err(grads["W"], numeric_grad(value, layer.W)) < REL_TOL
    assert rel_err(grads["b_prev"], numeric_grad(value, bias_prev)) < REL_TOL


@pytest.mark.parametrize("trial", range(20))
def test_conv_reverse_gradients(trial):
    rng = np.random.default_rng(7000 + trial)
    layer, x = make_conv(rng)
    out_shape = (2,) + layer.out_shape_for(x.shape[1:])
    v = rng.standard_normal(out_shape)
    bias_prev = rng.standard_normal(layer.c_in)
    r = rng.standard_normal(x.shape)

    def value():
        y, _ = layer.reverse(v, bias_prev)
        return np.sum(y * r)

    _, rcache = layer.reverse(v, bias_prev)
    gv, grads = layer.reverse_backward(r, rcache)
    assert rel_err(gv, numeric_grad(value, v)) < REL_TOL
    assert rel_err(grads["W"], numeric_grad(value, layer.W)) < REL_TOL
    assert rel_err(grads["b_prev"], numeric_grad(value, bias_prev)) < REL_TOL


@pytest.mark.parametrize("mode", ["inverse", "forward"])
def test_lrelu_reverse_gradients(mode):
    rng = np.random.default_rng(42)
    layer = LeakyRelu(0.01)
    rcfg = ReverseConfig(activation=mode)
    v = rng.standard_normal((3, 6))
    v[np.abs(v) < 0.05] = -0.1
    r = rng.standard_normal(v.shape)

    def value():
        y, _ = layer.reverse(v, rcfg=rcfg)
        return np.sum(y * r)

    _, rcache = layer.reverse(v, rcfg=rcfg)
    gv, _ = layer.reverse_backward(r, rcache)
    assert rel_err(gv, numeric_grad(value, v)) < REL_TOL


@pytest.mark.parametrize("mode", ["upsample", "unpool"])
def test_maxpool_reverse_gradients(mode):
    rng = np.random.default_rng(43)
    layer = MaxPool(2)
    rcfg = ReverseConfig(pool=mode)
    x = rng.standard_normal((2, 2, 4, 4))
    _, trace_entry = layer.forward(x)
    v = rng.standard_normal((2, 2, 2, 2))
    r = rng.standard_normal(x.shape)

    def value():
        y, _ = layer.reverse(v, trace_entry=trace_entry, rcfg=rcfg)
        return np.sum(y * r)

    _, rcache = layer.reverse(v, trace_entry=trace_entry, rcfg=rcfg)
    gv, _ = layer.reverse_backward(r, rcache)
    assert rel_err(gv, numeric_grad(value, v)) < REL_TOL


def test_softmax_reverse_gradients():
    rng = np.random.default_rng(44)
    layer = SoftmaxHead()
    v = rng.dirichlet(np.ones(5), size=3)  # interior of the simplex
    r = rng.standard_normal(v.shape)

    def value():
        y, _ = layer.reverse(v)
        return np.sum(y * r)

    _, rcache = layer.reverse(v)
    gv, _ = layer.reverse_backward(r, rcache)
    assert rel_err(gv, numeric_grad(value, v, h=1e-7)) < 1e-4


# -- definitions and bijections ---------------------------------------------


def test_lrelu_definition():
    layer = LeakyRelu(0.01)
    y, _ = layer.forward(np.array([-1.0, 2.0]))
    assert np.allclose(y, [-0.01, 2.0])


def test_lrelu_exact_bijection():
    rng = np.random.default_rng(9)
    layer = LeakyRelu(0.01)
    x = rng.standard_normal(100)
    y, _ = layer.forward(x)
    back, _ = layer.reverse(y, rcfg=ReverseConfig(activation="inverse"))
    assert np.max(np.abs(back - x)) < 1e-12


def test_lrelu_rejects_nonpositive_slope():
    with pytest.raises(DomainError):
        LeakyRelu(0.0)


def test_softmax_uniform_on_zero_logits():
    layer = SoftmaxHead()
    y, _ = layer.forward(np.zeros((1, 2)))
    assert np.allclose(y, [[0.5, 0.5]])


def test_softmax_inverse_round_trip():
    layer = SoftmaxHead()
    o = np.array([[0.7, 0.2, 0.1]])
    alpha, _ = layer.reverse(o)
    o2, _ = layer.forward(alpha)
    assert np.max(np.abs(o2 - o)) < 1e-9


def test_softmax_reverse_rejects_negative():
    layer = SoftmaxHead()
    with pytest.raises(DomainError):
        layer.reverse(np.array([[0.5, -0.5]]))


def test_softmax_reverse_clamps_zero():
    layer = SoftmaxHead()
    alpha, _ = layer.reverse(np.array([[1.0, 0.0]]))
    assert np.isfinite(alpha).all()
    assert alpha[0, 1] == np.log(1e-12)


def test_maxpool_reverse_upsample_spreads():
    layer = MaxPool(2)
    v = np.array([[[[5.0]]]])
    y, _ = layer.reverse(v)
    assert np.array_equal(y[0, 0], [[5.0, 5.0], [5.0, 5.0]])


def test_maxpool_unpool_uses_recorded_index():
    layer = MaxPool(2)
    x = np.array([[[[1.0, 9.0], [2.0, 3.0]]]])
    _, trace_entry = layer.forward(x)
    y, _ = layer.reverse(np.array([[[[7.0]]]]), trace_entry=trace_entry,
                         rcfg=ReverseConfig(pool="unpool"))
    assert np.array_equal(y[0, 0], [[0.0, 7.0], [0.0, 0.0]])


def test_maxpool_rejects_non_dividing_window():
    layer = MaxPool(2)
    with pytest.raises(ShapeError):
        layer.forward(np.zeros((1, 1, 5, 5)))


def test_dense_identity():
    layer = Dense(2, 2)
    layer.W = np.eye(2)
    layer.b = np.zeros(2)
    y, _ = layer.forward(np.array([[3.0, 4.0]]))
    assert np.array_equal(y, [[3.0, 4.0]])


def test_dense_reverse_restores_conv_geometry():
    rng = np.random.default_rng(12)
    layer = Dense(2 * 3 * 3, 4)
    layer.init_params(rng, np.float64)
    layer.out_shape_for((2, 3, 3))
    x = rng.standard_normal((5, 2, 3, 3))
    y, _ = layer.forward(x)
    back, _ = layer.reverse(y)
    assert back.shape == x.shape


def test_conv_reverse_output_shape():
    rng = np.random.default_rng(13)
    layer = Conv(3, 8, 5, 1, 2)
    layer.init_params(rng, np.float64)
    v = rng.standard_normal((2, 8, 10, 10))
    y, _ = layer.reverse(v)
    assert y.shape == (2, 3, 10, 10)


def test_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(14)
    layer, x = make_dense(rng)
    _, cache = layer.forward(x)
    gx, grads = layer.backward(np.zeros((x.shape[0], layer.out_features)), cache)
    assert not gx.any()
    assert not grads["W"].any()
    assert not grads["b"].any()


# -- sgd update -------------------------------------------------------------


def scalar_net(w, b):
    """A one-Dense-layer net with the 1x1 weight w and bias b."""
    layer = Dense(1, 1)
    layer.W = np.array([[w]])
    layer.b = np.array([b])
    return ReversibleNetwork([layer], (1,))


def test_sgd_plain_step():
    net = scalar_net(0.0, 0.0)
    cfg = TrainConfig(momentum=0.0, weight_decay=0.0)
    sgd_update(net, [{"W": np.array([[3.0]]), "b": np.array([0.0])}], 1.0, cfg)
    assert net.layers[0].W[0, 0] == -3.0


def test_sgd_two_step_momentum_trace():
    # hand-computed: p0=1, g=0.5, lr=0.1, momentum=0.9, decay=0
    # v1 = -0.05, p1 = 0.95; v2 = 0.9*(-0.05) - 0.05 = -0.095, p2 = 0.855
    net = scalar_net(1.0, 0.0)
    cfg = TrainConfig(momentum=0.9, weight_decay=0.0)
    g = {"W": np.array([[0.5]]), "b": np.array([0.0])}
    sgd_update(net, [g], 0.1, cfg)
    assert np.isclose(net.layers[0].W[0, 0], 0.95)
    assert np.isclose(net.velocity[0]["W"][0, 0], -0.05)
    sgd_update(net, [g], 0.1, cfg)
    assert np.isclose(net.layers[0].W[0, 0], 0.855)
    assert np.isclose(net.velocity[0]["W"][0, 0], -0.095)


def test_sgd_zero_grad_keeps_params():
    net = scalar_net(2.0, 1.0)
    cfg = TrainConfig(momentum=0.9, weight_decay=0.0)
    sgd_update(net, [{"W": np.zeros((1, 1)), "b": np.zeros(1)}], 0.5, cfg)
    assert net.layers[0].W[0, 0] == 2.0
    assert net.layers[0].b[0] == 1.0


def test_sgd_rejects_non_finite_grad():
    net = scalar_net(1.0, 0.0)
    cfg = TrainConfig(momentum=0.9, weight_decay=0.0)
    with pytest.raises(NumericError):
        sgd_update(net, [{"W": np.array([[np.inf]]), "b": np.zeros(1)}], 0.1, cfg)
    assert net.layers[0].W[0, 0] == 1.0
    assert net.velocity == [{}]


# -- bit-exactness oracles for the branch-free LeakyRelu and MaxPool -------


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope", [0.01, 0.3, 2.0])
def test_lrelu_matches_where_formulas(slope, dtype):
    # the np.where formulas the layer computes without branches
    rng = np.random.default_rng(15)
    big, tiny = np.finfo(dtype).max, np.finfo(dtype).smallest_subnormal
    specials = [0.0, -0.0, np.inf, -np.inf, big, -big, tiny, -tiny]
    x = np.concatenate([specials, 3 * rng.standard_normal(200)]).astype(dtype)
    g = np.concatenate([specials[::-1], rng.standard_normal(200)]).astype(dtype)
    s, one = dtype(slope), dtype(1)
    layer = LeakyRelu(slope)
    y, cache = layer.forward(x)
    assert np.array_equal(y, np.where(x >= 0, x, x * s))
    gx, _ = layer.backward(g, cache)
    assert np.array_equal(gx, g * np.where(x >= 0, one, s))
    for mode, branch, factor in (("forward", x * s, s), ("inverse", x / s, one / s)):
        v, rcache = layer.reverse(x, rcfg=ReverseConfig(activation=mode))
        assert np.array_equal(v, np.where(x >= 0, x, branch))
        gv, _ = layer.reverse_backward(g, rcache)
        assert np.array_equal(gv, g * np.where(x >= 0, one, factor))
        assert v.dtype == gv.dtype == dtype


def lrelu_whole_array(x, g, slope, mode):
    """The LeakyRelu ops as they ran on whole arrays before they took
    out=: (forward or reverse value, its mask, its adjoint applied to g)."""
    s = x.dtype.type(slope)
    if mode == "forward":
        branch, factor = x * s, s
    else:
        branch, factor = x / s, x.dtype.type(1) / s
    pick = np.maximum if factor <= 1 else np.minimum
    y = pick(branch, x, out=branch)
    mask = x >= 0
    f = np.subtract(1, mask, dtype=g.dtype)
    f *= factor
    f += mask
    f *= g
    return y, mask, f


def bits(a):
    return a.dtype, a.shape, a.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("size", [1, 37, 64, 203])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope", [0.01, 0.3, 2.0])
def test_lrelu_out_matches_whole_array_ops(slope, dtype, size, monkeypatch):
    # 16-element scratch blocks, so every size but 1 spans several blocks
    # and 37 and 203 end in a partial one
    monkeypatch.setattr(tensor, "_BLOCK_BYTES", 16 * np.dtype(dtype).itemsize)
    rng = np.random.default_rng(size)
    big, tiny = np.finfo(dtype).max, np.finfo(dtype).smallest_subnormal
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, big, -big, tiny, -tiny, 3 * tiny]
    x = np.resize(np.concatenate([specials, 3 * rng.standard_normal(size)]), size)
    g = np.resize(np.concatenate([specials[::-1], rng.standard_normal(size)]), size)
    x, g = x.astype(dtype).reshape(size, 1, 1), g.astype(dtype).reshape(size, 1, 1)
    layer = LeakyRelu(slope)
    ops = {  # name: (op, its adjoint, the whole-array mode)
        "forward": (layer.forward, layer.backward, "forward"),
        "reverse-forward": (
            lambda v, out=None: layer.reverse(v, rcfg=ReverseConfig(activation="forward"), out=out),
            layer.reverse_backward, "forward"),
        "reverse-inverse": (
            lambda v, out=None: layer.reverse(v, rcfg=ReverseConfig(activation="inverse"), out=out),
            layer.reverse_backward, "inverse"),
    }
    x0, g0 = x.copy(), g.copy()
    for name, (op, adjoint, mode) in ops.items():
        y_want, mask_want, g_want = lrelu_whole_array(x, g, slope, mode)
        y, cache = op(x)
        v = x.copy()
        y_own, cache_own = op(v, out=v)
        assert y_own is v
        assert bits(y) == bits(y_own) == bits(y_want), name
        for c in (cache, cache_own):
            assert bits(c if name == "forward" else c[0]) == bits(mask_want), name
        gx, _ = adjoint(g, cache)
        h = g.copy()
        gx_own, _ = adjoint(h, cache, out=h)
        assert gx_own is h
        assert bits(gx) == bits(gx_own) == bits(g_want), name
        assert bits(x) == bits(x0) and bits(g) == bits(g0), name


def pool_loop(x, k):
    """Per-window oracle: each window's max and the offset (a, b) of its
    first maximal entry in window order, argmax's tie rule."""
    b, c, h, w = x.shape
    y = np.empty((b, c, h // k, w // k), dtype=x.dtype)
    at = {}
    for n, ch, i, j in np.ndindex(*y.shape):
        win = x[n, ch, i * k:(i + 1) * k, j * k:(j + 1) * k].reshape(-1)
        best = 0
        for t in range(1, k * k):
            if win[t] > win[best]:
                best = t
        y[n, ch, i, j] = win[best]
        at[n, ch, i, j] = (n, ch, i * k + best // k, j * k + best % k)
    return y, at


def tied_maps(rng, shape, dtype):
    """Random maps with planted ties: a constant band, small integers
    (with signed zeros) on half the channels, continuous values elsewhere."""
    x = rng.standard_normal(shape)
    x[:, ::2] = rng.integers(-1, 2, size=x[:, ::2].shape)
    x[:, ::2][rng.random(x[:, ::2].shape) < 0.3] = -0.0
    x[..., :3, :] = 0.25
    return x.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [2, 3])
def test_maxpool_matches_window_loop(k, dtype):
    rng = np.random.default_rng(16 + k)
    x = tied_maps(rng, (2, 4, 2 * k, 3 * k), dtype)
    layer = MaxPool(k)
    y, cache = layer.forward(x)
    y_ref, at = pool_loop(x, k)
    assert np.array_equal(y, y_ref)
    assert y.dtype == dtype

    g = rng.standard_normal(y.shape).astype(dtype)
    scattered = np.zeros_like(x)
    for idx, pos in at.items():
        scattered[pos] = g[idx]
    gx, _ = layer.backward(g, cache)
    assert np.array_equal(gx, scattered)
    unpooled, rcache = layer.reverse(g, trace_entry=cache, rcfg=ReverseConfig(pool="unpool"))
    assert np.array_equal(unpooled, scattered)

    r = rng.standard_normal(x.shape).astype(dtype)
    gathered = np.empty_like(y)
    for idx, pos in at.items():
        gathered[idx] = r[pos]
    gv, _ = layer.reverse_backward(r, rcache)
    assert np.array_equal(gv, gathered)

    upsampled, rcache = layer.reverse(g, rcfg=ReverseConfig(pool="upsample"))
    assert np.array_equal(upsampled, np.repeat(np.repeat(g, k, axis=2), k, axis=3))
    summed = np.empty_like(y)
    for n, ch, i, j in np.ndindex(*y.shape):
        win = r[n, ch, i * k:(i + 1) * k, j * k:(j + 1) * k].reshape(-1)
        total = win[0]
        for t in range(1, k * k):
            total = total + win[t]
        summed[n, ch, i, j] = total
    gv, _ = layer.reverse_backward(r, rcache)
    assert np.array_equal(gv, summed)
    assert gv.dtype == dtype
