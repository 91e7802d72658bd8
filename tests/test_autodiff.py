"""Core tensor ops, backward pass, and closed-form gradient oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from latentservo import autodiff as ad


def t(data, grad=False):
    return ad.Tensor(np.asarray(data, dtype=np.float32), requires_grad=grad)


class TestForwardOps:
    def test_matmul_identity(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, t(np.eye(2)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_relu_definition(self):
        out = ad.relu(t([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_mse_zero_error(self):
        assert ad.mse(t([1.0, 1.0]), t([1.0, 1.0])).item() == 0.0

    def test_matmul_inner_dim_mismatch(self):
        with pytest.raises(ad.ShapeError, match="inner dims"):
            ad.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))

    def test_add_broadcast_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.add(t(np.ones((2, 3))), t(np.ones(4)))

    def test_conv2d_channel_mismatch(self):
        x = t(np.ones((1, 2, 8, 8)))
        w = t(np.ones((4, 3, 3, 3)))
        with pytest.raises(ad.ShapeError, match="channels"):
            ad.conv2d(x, w, t(np.zeros(4)), stride=2)

    def test_conv2d_same_stride2_shape(self):
        x = t(np.ones((2, 1, 32, 32)))
        w = t(np.ones((8, 1, 3, 3)))
        out = ad.conv2d(x, w, t(np.zeros(8)), stride=2)
        assert out.shape == (2, 8, 16, 16)


class TestSpatialSoftmax:
    def test_uniform_map_is_centered(self):
        out = ad.spatial_softmax(t(np.zeros((3, 5, 7))))
        np.testing.assert_allclose(out.data, np.zeros(6), atol=1e-7)

    def test_top_left_spike_low_temperature(self):
        fm = np.zeros((1, 4, 4), dtype=np.float32)
        fm[0, 0, 0] = 50.0
        out = ad.spatial_softmax(t(fm), temperature=1e-2)
        np.testing.assert_allclose(out.data, [-1.0, -1.0], atol=1e-6)

    def test_two_spikes_average_to_midpoint(self):
        fm = np.full((1, 5, 5), -1e4, dtype=np.float32)
        fm[0, 2, 0] = 10.0   # (x=-1, y=0)
        fm[0, 2, 4] = 10.0   # (x=+1, y=0)
        out = ad.spatial_softmax(t(fm))
        np.testing.assert_allclose(out.data, [0.0, 0.0], atol=1e-6)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            ad.spatial_softmax(t(np.zeros((1, 4, 4))), temperature=0.0)

    def test_pair_layout_is_interleaved(self):
        fm = np.zeros((2, 3, 3), dtype=np.float32)
        fm[0, 1, 2] = 100.0  # channel 0 at x=+1, y=0
        fm[1, 0, 1] = 100.0  # channel 1 at x=0, y=-1
        out = ad.spatial_softmax(t(fm), temperature=0.05)
        np.testing.assert_allclose(out.data, [1.0, 0.0, 0.0, -1.0], atol=1e-5)

    @given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=6),
                      elements=st.floats(-30, 30, width=32)),
           st.floats(0.05, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_output_always_in_unit_box(self, fm, temp):
        out = ad.spatial_softmax(t(fm), temperature=temp)
        assert np.all(out.data >= -1.0 - 1e-6)
        assert np.all(out.data <= 1.0 + 1e-6)
        assert out.data.shape == (2 * fm.shape[0],)


class TestGaussianKL:
    def test_prior_equals_posterior(self):
        assert ad.gaussian_kl(t([0.0, 0.0]), t([1.0, 1.0])).item() == pytest.approx(0.0, abs=1e-7)

    def test_unit_sigma_mean_one(self):
        assert ad.gaussian_kl(t([1.0]), t([1.0])).item() == pytest.approx(0.5, abs=1e-6)

    def test_sigma_two(self):
        expected = 0.5 * (4.0 - np.log(4.0) - 1.0)  # 0.80685...
        assert ad.gaussian_kl(t([0.0]), t([2.0])).item() == pytest.approx(expected, abs=1e-6)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            ad.gaussian_kl(t([0.0]), t([0.0]))

    @given(hnp.arrays(np.float32, st.integers(1, 8),
                      elements=st.floats(-5, 5, width=32)),
           hnp.arrays(np.float32, st.integers(1, 8),
                      elements=st.floats(0.0625, 5, width=32)))
    @settings(max_examples=80, deadline=None)
    def test_nonnegative_zero_iff_prior(self, mu, sigma):
        if mu.shape != sigma.shape:
            sigma = np.resize(sigma, mu.shape)
        val = ad.gaussian_kl(t(mu), t(sigma)).item()
        assert val >= -1e-7
        at_prior = np.all(np.abs(mu) < 1e-7) and np.all(np.abs(sigma - 1.0) < 1e-7)
        if at_prior:
            assert abs(val) < 1e-7
        elif np.any(np.abs(mu) > 1e-2) or np.any(np.abs(sigma - 1.0) > 1e-2):
            assert val > 0.0


class TestBackward:
    def test_square_at_three(self):
        x = t(3.0, grad=True)
        with ad.Tape():
            loss = ad.mul(x, x)
            grads = ad.backward(loss, {"x": x})
        assert grads["x"] == pytest.approx(6.0)

    def test_mse_at_minimum(self):
        w = t(1.0, grad=True)
        with ad.Tape():
            pred = ad.mul(w, t(2.0))
            loss = ad.mse(pred, t(2.0))
            grads = ad.backward(loss, {"w": w})
        assert grads["w"] == pytest.approx(0.0)

    def test_relu_sum_piecewise(self):
        x = t([-1.0, 2.0], grad=True)
        with ad.Tape():
            loss = ad.tsum(ad.relu(x))
            grads = ad.backward(loss, {"x": x})
        np.testing.assert_array_equal(grads["x"], [0.0, 1.0])

    def test_no_path_parameter_gets_zero(self):
        x = t(2.0, grad=True)
        unused = t(5.0, grad=True)
        with ad.Tape():
            loss = ad.mul(x, x)
            grads = ad.backward(loss, {"x": x, "unused": unused})
        assert grads["unused"] == pytest.approx(0.0)
        assert grads["x"] == pytest.approx(4.0)

    def test_scalar_loss_required(self):
        x = t([1.0, 2.0], grad=True)
        with ad.Tape() as tape:
            out = ad.mul(x, x)
            with pytest.raises(ad.GraphError, match="scalar"):
                tape.backward(out)

    def test_shared_parameter_accumulates_once_per_use(self):
        # y = w*a + w*b => dy/dw = a + b
        w = t(2.0, grad=True)
        with ad.Tape():
            loss = ad.add(ad.mul(w, t(3.0)), ad.mul(w, t(4.0)))
            grads = ad.backward(loss, {"w": w})
        assert grads["w"] == pytest.approx(7.0)

    def test_backward_outside_tape_fails(self):
        x = t(1.0, grad=True)
        with pytest.raises(ad.GraphError, match="no active Tape"):
            ad.backward(ad.mul(x, x), {"x": x})

    def test_forward_determinism(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 8)).astype(np.float32)
        w = rng.standard_normal((8, 3)).astype(np.float32)
        a = ad.matmul(ad.Tensor(x), ad.Tensor(w)).data
        b = ad.matmul(ad.Tensor(x), ad.Tensor(w)).data
        assert a.tobytes() == b.tobytes()


class TestOptimizers:
    def test_zero_gradient_leaves_params(self):
        p = ad.parameter([1.0, -2.0])
        opt = ad.Adam(lr=0.1)
        before = p.data.copy()
        for _ in range(3):
            opt.step({"p": p}, {"p": np.zeros(2, dtype=np.float32)})
        np.testing.assert_array_equal(p.data, before)

    def test_first_adam_step_is_bias_corrected(self):
        # m_hat = v_hat = 1 on the first step, so the move is ~lr
        p = ad.parameter(0.5)
        ad.Adam(lr=0.1).step({"p": p}, {"p": np.asarray(1.0, dtype=np.float32)})
        assert p.data == pytest.approx(0.4, abs=1e-6)

    def test_determinism_bit_identical(self):
        def run():
            p = ad.parameter([0.3, -0.7])
            opt = ad.Adam(lr=0.05)
            for k in range(5):
                g = np.asarray([0.1 * (k + 1), -0.2], dtype=np.float32)
                opt.step({"p": p}, {"p": g})
            return p.data.tobytes()
        assert run() == run()

    def test_gradient_shape_mismatch(self):
        p = ad.parameter([1.0, 2.0])
        with pytest.raises(ad.ShapeError):
            ad.SGD(0.1).step({"p": p}, {"p": np.zeros(3, dtype=np.float32)})

    def test_sgd_step(self):
        p = ad.parameter([1.0, 2.0])
        ad.SGD(lr=0.5).step({"p": p}, {"p": np.asarray([2.0, -2.0], dtype=np.float32)})
        np.testing.assert_allclose(p.data, [0.0, 3.0])


class TestFiniteDiffCheck:
    def test_quadratic_is_near_exact(self):
        p = ad.parameter([1.3, -0.4, 2.2])

        def loss():
            return ad.tsum(ad.mul(p, p))

        assert ad.finite_diff_check(loss, {"p": p}) < 1e-5

    def test_relu_off_kink(self):
        p = ad.parameter([0.37, -0.81, 1.5])  # safely away from 0

        def loss():
            return ad.tsum(ad.relu(p))

        assert ad.finite_diff_check(loss, {"p": p}, epsilon=1e-3) < 1e-6

    def test_epsilon_must_be_positive(self):
        p = ad.parameter([1.0])
        with pytest.raises(ValueError):
            ad.finite_diff_check(lambda: ad.tsum(p), {"p": p}, epsilon=0.0)


LAYER_TOL = 1e-4


class TestLayerGradients:
    """Every layer type on randomized small tensors (<= 64 elements)."""

    def _check(self, build, params):
        assert ad.finite_diff_check(build, params, epsilon=1e-3) < LAYER_TOL

    def test_add_mul_sub(self):
        rng = np.random.default_rng(0)
        a = ad.parameter(rng.standard_normal((3, 4)).astype(np.float32))
        b = ad.parameter(rng.standard_normal((3, 4)).astype(np.float32))
        self._check(lambda: ad.tsum(ad.mul(ad.add(a, b), ad.sub(a, b))), {"a": a, "b": b})

    def test_broadcast_bias(self):
        rng = np.random.default_rng(1)
        x = ad.parameter(rng.standard_normal((4, 5)).astype(np.float32))
        b = ad.parameter(rng.standard_normal(5).astype(np.float32))
        self._check(lambda: ad.tmean(ad.mul(ad.add(x, b), ad.add(x, b))), {"x": x, "b": b})

    def test_matmul(self):
        rng = np.random.default_rng(2)
        a = ad.parameter(rng.standard_normal((3, 4)).astype(np.float32))
        b = ad.parameter(rng.standard_normal((4, 2)).astype(np.float32))
        self._check(lambda: ad.tsum(ad.mul(ad.matmul(a, b), ad.matmul(a, b))), {"a": a, "b": b})

    def test_linear(self):
        rng = np.random.default_rng(3)
        x = ad.parameter(rng.standard_normal((2, 6)).astype(np.float32))
        w = ad.parameter(rng.standard_normal((6, 3)).astype(np.float32))
        b = ad.parameter(rng.standard_normal(3).astype(np.float32))
        self._check(lambda: ad.tmean(ad.mul(ad.linear(x, w, b), ad.linear(x, w, b))),
                    {"x": x, "w": w, "b": b})

    def test_activations(self):
        rng = np.random.default_rng(4)
        x = ad.parameter((rng.standard_normal(12) * 0.9 + 0.2).astype(np.float32))

        def loss():
            return ad.tsum(ad.mul(ad.tanh(x), ad.sigmoid(x)))

        self._check(loss, {"x": x})

    def test_exp_log(self):
        rng = np.random.default_rng(5)
        x = ad.parameter((rng.uniform(0.3, 2.0, 8)).astype(np.float32))
        self._check(lambda: ad.tsum(ad.mul(ad.log(x), ad.exp(ad.scale(x, 0.3)))), {"x": x})

    def test_reshape_and_neg(self):
        rng = np.random.default_rng(6)
        x = ad.parameter(rng.standard_normal((2, 6)).astype(np.float32))
        self._check(lambda: ad.tsum(ad.mul(ad.reshape(x, (3, 4)), ad.neg(ad.reshape(x, (3, 4))))),
                    {"x": x})

    def test_mse_layer(self):
        rng = np.random.default_rng(7)
        a = ad.parameter(rng.standard_normal((3, 5)).astype(np.float32))
        b = ad.parameter(rng.standard_normal((3, 5)).astype(np.float32))
        self._check(lambda: ad.mse(a, b), {"a": a, "b": b})

    def test_gaussian_kl_layer(self):
        rng = np.random.default_rng(8)
        mu = ad.parameter(rng.standard_normal(6).astype(np.float32))
        sig = ad.parameter(rng.uniform(0.4, 1.8, 6).astype(np.float32))
        self._check(lambda: ad.gaussian_kl(mu, sig), {"mu": mu, "sigma": sig})

    def test_conv2d(self):
        rng = np.random.default_rng(9)
        x = ad.parameter(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
        w = ad.parameter(rng.standard_normal((3, 2, 3, 3)).astype(np.float32) * 0.5)
        b = ad.parameter(rng.standard_normal(3).astype(np.float32) * 0.1)

        def loss():
            y = ad.conv2d(x, w, b, stride=2)
            return ad.tmean(ad.mul(y, y))

        self._check(loss, {"x": x, "w": w, "b": b})

    def test_spatial_softmax_layer(self):
        rng = np.random.default_rng(10)
        x = ad.parameter(rng.standard_normal((2, 3, 4)).astype(np.float32))

        def loss():
            y = ad.spatial_softmax(x, temperature=0.7)
            return ad.tsum(ad.mul(y, y))

        self._check(loss, {"x": x})
