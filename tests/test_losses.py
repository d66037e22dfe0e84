"""Loss values against hand-computed cases and finite differences."""

import math

import numpy as np
import pytest

from revnet.errors import ShapeError
from revnet.losses import EPS, FLUSH, LossReport, cross_entropy, one_hot, reconstruction_mse


def softmax_rows(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def ce_of_logits(z, target):
    o = softmax_rows(z)
    return -np.sum(target * np.log(np.maximum(o, EPS))) / z.shape[0]


class TestOneHot:
    def test_rows_and_dtype(self):
        out = one_hot(np.array([2, 0, 1]), 4)
        assert out.dtype == np.float32
        expect = np.array(
            [[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.float32
        )
        assert np.array_equal(out, expect)

    def test_float64_request(self):
        out = one_hot(np.array([0]), 2, dtype=np.float64)
        assert out.dtype == np.float64

    def test_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            one_hot(np.array([3]), 3)
        with pytest.raises(ShapeError):
            one_hot(np.array([-1]), 3)

    def test_rank_two_rejected(self):
        with pytest.raises(ShapeError):
            one_hot(np.zeros((2, 2), dtype=np.int64), 3)

    def test_empty(self):
        assert one_hot(np.array([], dtype=np.int64), 5).shape == (0, 5)


class TestCrossEntropyValues:
    def test_fifty_fifty_is_ln2(self):
        o = np.array([[0.5, 0.5]], dtype=np.float64)
        t = np.array([[1.0, 0.0]])
        loss, _ = cross_entropy(o, t)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_uniform_is_ln_c(self):
        for c in (3, 7, 10):
            o = np.full((4, c), 1.0 / c)
            t = one_hot(np.arange(4) % c, c, dtype=np.float64)
            loss, _ = cross_entropy(o, t)
            assert loss == pytest.approx(math.log(c), abs=1e-12)

    def test_batch_mean(self):
        o = np.array([[0.5, 0.5], [0.25, 0.75]])
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = cross_entropy(o, t)
        expect = (math.log(2.0) + -math.log(0.75)) / 2.0
        assert loss == pytest.approx(expect, abs=1e-12)

    def test_perfect_prediction_is_zero(self):
        o = np.array([[0.0, 1.0]])
        t = np.array([[0.0, 1.0]])
        loss, _ = cross_entropy(o, t)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_zero_probability_clamped_finite(self):
        o = np.array([[1.0, 0.0]])
        t = np.array([[0.0, 1.0]])
        loss, _ = cross_entropy(o, t)
        assert math.isfinite(loss)
        assert loss == pytest.approx(-math.log(EPS), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cross_entropy(np.zeros((2, 3)), np.zeros((2, 4)))


class TestCrossEntropyGradient:
    """The returned gradient is with respect to pre-softmax logits, so the
    oracle differentiates loss(softmax(z)) numerically in z."""

    def fd_check(self, z, t, tol):
        o = softmax_rows(z)
        _, g = cross_entropy(o, t)
        h = 1e-6
        num = np.zeros_like(z)
        for idx in np.ndindex(z.shape):
            zp = z.copy()
            zp[idx] += h
            zm = z.copy()
            zm[idx] -= h
            num[idx] = (ce_of_logits(zp, t) - ce_of_logits(zm, t)) / (2 * h)
        assert np.max(np.abs(g - num)) < tol

    def test_hard_targets(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(5, 6))
        t = one_hot(rng.integers(0, 6, size=5), 6, dtype=np.float64)
        self.fd_check(z, t, 1e-6)

    def test_soft_targets_unit_mass(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(4, 5))
        t = rng.dirichlet(np.ones(5), size=4)
        self.fd_check(z, t, 1e-6)

    def test_soft_targets_non_unit_mass(self):
        # rows deliberately not summing to 1; the o - t shortcut would be
        # wrong here, the general form must still match finite differences
        rng = np.random.default_rng(9)
        z = rng.normal(size=(4, 5))
        t = rng.dirichlet(np.ones(5), size=4) * 0.8
        self.fd_check(z, t, 1e-6)

    def test_hard_target_closed_form(self):
        # with unit-mass rows the gradient is exactly (o - t)/b
        rng = np.random.default_rng(10)
        z = rng.normal(size=(3, 4))
        o = softmax_rows(z)
        t = one_hot(np.array([1, 3, 0]), 4, dtype=np.float64)
        _, g = cross_entropy(o, t)
        assert np.allclose(g, (o - t) / 3.0, atol=1e-15)

    def test_flushes_entries_below_the_threshold_only(self):
        o = np.array([[1.0, 3 * FLUSH, 0.1 * FLUSH], [0.25, 0.75, 0.0]])
        t = one_hot(np.array([0, 1]), 3, dtype=np.float64)
        _, g = cross_entropy(o, t)
        assert np.array_equal(g, [[0.0, 1.5 * FLUSH, 0.0], [0.125, -0.125, 0.0]])


class TestReconstruction:
    def test_hand_value(self):
        xbar = np.array([[1.0, 2.0]])
        x = np.array([[0.0, 0.0]])
        loss, g = reconstruction_mse(xbar, x)
        assert loss == pytest.approx(5.0, abs=1e-12)
        assert np.allclose(g, [[2.0, 4.0]])

    def test_batch_mean_of_per_sample_sums(self):
        xbar = np.array([[1.0, 1.0], [3.0, 0.0]])
        x = np.zeros((2, 2))
        loss, _ = reconstruction_mse(xbar, x)
        assert loss == pytest.approx((2.0 + 9.0) / 2.0, abs=1e-12)

    def test_image_shape(self):
        rng = np.random.default_rng(3)
        xbar = rng.normal(size=(4, 1, 5, 5))
        x = rng.normal(size=(4, 1, 5, 5))
        loss, _ = reconstruction_mse(xbar, x)
        expect = float(np.sum((xbar - x) ** 2)) / 4.0
        assert loss == pytest.approx(expect, rel=1e-12)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(4)
        xbar = rng.normal(size=(3, 4))
        x = rng.normal(size=(3, 4))
        _, g = reconstruction_mse(xbar, x)
        h = 1e-6
        for idx in np.ndindex(xbar.shape):
            xp = xbar.copy()
            xp[idx] += h
            xm = xbar.copy()
            xm[idx] -= h
            lp, _ = reconstruction_mse(xp, x)
            lm, _ = reconstruction_mse(xm, x)
            assert abs(g[idx] - (lp - lm) / (2 * h)) < 1e-6

    def test_identical_inputs_zero(self):
        x = np.ones((2, 3))
        loss, g = reconstruction_mse(x.copy(), x)
        assert loss == 0.0
        assert np.all(g == 0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reconstruction_mse(np.zeros((2, 3)), np.zeros((2, 4)))


class TestLossReport:
    def test_unit_weights_exact_sum(self):
        r = LossReport(cls=0.25, rec=1.5, gen=0.125)
        assert r.total == 0.25 + 1.5 + 0.125

    def test_weighted(self):
        r = LossReport(cls=2.0, rec=4.0, gen=8.0, w_cls=1.0, w_rec=0.5, w_gen=0.0)
        assert r.total == pytest.approx(4.0)

    def test_zero_weight_drops_term(self):
        r = LossReport(cls=1.0, rec=0.0, gen=1.0, w_rec=0.0)
        assert r.total == 2.0

    def test_defaults_zero(self):
        assert LossReport().total == 0.0
