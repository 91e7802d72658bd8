"""Core tensor ops, backward pass, and closed-form gradient oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from latentservo import autodiff as ad
from latentservo.autodiff.optim import _BLOCK


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

    @pytest.mark.parametrize("n", [1, 2, 16])
    @pytest.mark.parametrize("hw", [(8, 8), (5, 7)])
    def test_a_channel_subset_keeps_the_all_channel_bits(self, n, hw):
        """A subset's softmax rows and float64 expectations equal the all-
        channel ones byte for byte when the readout still runs over all C
        rows, zeros in those not read: ``p @ grid``'s bits depend on the row
        count, so a subset-shaped readout does not keep them."""
        rng = np.random.default_rng(n * 100 + hw[1])
        c, (h, w) = 8, hw
        for _ in range(25):
            a = (3.0 * rng.standard_normal((n, c, h, w))).astype(np.float32)
            chans = sorted(rng.choice(c, size=rng.integers(1, c), replace=False))
            p_all = ad.softmax_probs(a, 0.7)
            _, ex, ey = ad.expected_coords(p_all, h, w, np.float32)
            p_sub = ad.softmax_probs(a[:, chans], 0.7)
            assert p_sub.tobytes() == p_all[:, chans].tobytes()
            padded = np.zeros_like(p_all)
            padded[:, chans] = p_sub
            _, sub_ex, sub_ey = ad.expected_coords(padded, h, w, np.float32)
            assert sub_ex[:, chans].tobytes() == ex[:, chans].tobytes()
            assert sub_ey[:, chans].tobytes() == ey[:, chans].tobytes()

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


def _np_pad_conv2d(x, w, b, g, stride):
    """conv2d forward and (gx, gw, gb) through ``np.pad`` and per-frame
    (N, C*kh*kw, OH*OW) columns: the reference."""
    from latentservo.autodiff.nn import _same_pad
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    oh, pt, pb = _same_pad(h, kh, stride)
    ow, pl, pr = _same_pad(wd, kw, stride)
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    cols = cols.reshape(n, c * kh * kw, oh * ow)
    wf = w.reshape(f, c * kh * kw)
    out = np.einsum("fk,nkp->nfp", wf, cols).reshape(n, f, oh, ow) + b.reshape(1, f, 1, 1)
    gf = g.reshape(n, f, oh * ow)
    gw = np.einsum("nfp,nkp->fk", gf, cols).reshape(w.shape)
    gcols = np.einsum("fk,nfp->nkp", wf, gf).reshape(n, c, kh, kw, oh, ow)
    gxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += gcols[:, :, i, j]
    return out, gxp[:, :, pt:pt + h, pl:pl + wd], gw, g.sum(axis=(0, 2, 3))


class TestConvWithoutPad:
    @staticmethod
    def _check(n, stride, hw, seed):
        rng = np.random.default_rng(seed)
        x = ad.parameter(rng.standard_normal((n, 2) + hw).astype(np.float32))
        w = ad.parameter(rng.standard_normal((4, 2, 3, 3)).astype(np.float32))
        b = ad.parameter(rng.standard_normal(4).astype(np.float32))
        with ad.Tape():
            y = ad.conv2d(x, w, b, stride=stride)
            g = rng.standard_normal(y.shape).astype(np.float32)
            grads = ad.backward(ad.tsum(ad.mul(y, ad.Tensor(g))), {"x": x, "w": w, "b": b})
        ref = _np_pad_conv2d(x.data, w.data, b.data, g, stride)
        assert y.data.flags.c_contiguous
        for got, want in zip((y.data, grads["x"], grads["w"], grads["b"]), ref):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("hw", [(5, 7), (9, 4), (16, 16)])
    def test_matches_np_pad_bit_for_bit(self, stride, hw):
        self._check(3, stride, hw, seed=stride * 100 + hw[0])

    @pytest.mark.parametrize("n", [1, 16])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("hw", [(5, 7), (16, 16)])
    def test_one_frame_and_a_batch_keep_the_bits(self, n, stride, hw):
        self._check(n, stride, hw, seed=1000 * n + stride * 100 + hw[0])


def _nine_slice_im2col(xp, kh, kw, stride, oh, ow):
    """Patch columns by one strided slice copy per kernel offset: the reference."""
    n, c = xp.shape[:2]
    xt = xp.transpose(1, 0, 2, 3)
    cols = np.empty((c, kh, kw, n, oh, ow), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xt[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols


class TestIm2col:
    @pytest.mark.parametrize("n", [1, 16])
    @pytest.mark.parametrize("c", [1, 8])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("hw", [(5, 7), (9, 4), (16, 16)])
    @pytest.mark.parametrize("kernel", [(3, 3), (2, 5)])
    def test_matches_nine_slice_copies(self, n, c, stride, hw, kernel):
        from latentservo.autodiff.nn import _im2col, _same_pad
        (kh, kw), (h, w) = kernel, hw
        oh, pt, pb = _same_pad(h, kh, stride)
        ow, pl, pr = _same_pad(w, kw, stride)
        rng = np.random.default_rng(n * 1000 + c * 100 + stride * 10 + h)
        xp = rng.standard_normal((n, c, pt + h + pb, pl + w + pr)).astype(np.float32)
        got = _im2col(xp, kh, kw, stride, oh, ow)
        want = _nine_slice_im2col(xp, kh, kw, stride, oh, ow)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.flags.c_contiguous and not np.shares_memory(got, xp)
        assert got.tobytes() == want.tobytes()


def _masked_sigmoid(x):
    """The two-sided sigmoid through boolean masks: the reference."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _where_sigmoid(x):
    """The two-sided sigmoid through ``np.where``: the reference."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


class TestBranchlessSigmoid:
    EDGES = [0.0, -0.0, 20.0, -20.0, 100.0, -100.0, 1e4, -1e4]
    EXTREMES = [np.inf, -np.inf, np.nan, -np.nan, 88.0, -88.0, 88.8, -88.8, 104.0,
                -104.0, 3.4e38, -3.4e38, 1e-45, -1e-45]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_where_form_bit_for_bit(self, dtype):
        rng = np.random.default_rng(37)
        batches = [np.asarray(self.EDGES + self.EXTREMES, dtype=dtype)]
        batches += [(rng.standard_normal((16, 1024)) * scale).astype(dtype)
                    for scale in (1.0, 30.0, 200.0)]
        for xd in batches:
            got = ad.sigmoid(ad.Tensor(xd)).data
            want = _where_sigmoid(xd)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_masked_form_bit_for_bit(self, dtype):
        rng = np.random.default_rng(31)
        batches = [np.asarray(self.EDGES, dtype=dtype)]
        batches += [(rng.standard_normal((16, 1024)) * scale).astype(dtype)
                    for scale in (1.0, 5.0, 30.0, 200.0)]
        for xd in batches:
            x = ad.parameter(xd)
            g = rng.standard_normal(xd.shape).astype(dtype)
            with ad.Tape():
                y = ad.sigmoid(x)
                gx = ad.backward(ad.tsum(ad.mul(y, ad.Tensor(g))), {"x": x})["x"]
            want = _masked_sigmoid(xd)
            assert y.data.dtype == want.dtype and y.data.tobytes() == want.tobytes()
            assert gx.tobytes() == (g * want * (1.0 - want)).tobytes()


class TestUnneededInputGradients:
    """An input that needs no gradient gets none; the others keep their bits."""

    @pytest.mark.parametrize("op", ["matmul", "conv2d"])
    def test_input_without_grad_is_skipped(self, op):
        rng = np.random.default_rng(21)
        if op == "matmul":
            xd = rng.standard_normal((5, 6)).astype(np.float32)
            w = ad.parameter(rng.standard_normal((6, 3)).astype(np.float32))
            params = {"w": w}
            fwd = lambda x: ad.matmul(x, w)  # noqa: E731
        else:
            xd = rng.standard_normal((2, 1, 7, 7)).astype(np.float32)
            w = ad.parameter(rng.standard_normal((3, 1, 3, 3)).astype(np.float32))
            b = ad.parameter(rng.standard_normal(3).astype(np.float32))
            params = {"w": w, "b": b}
            fwd = lambda x: ad.conv2d(x, w, b, stride=2)  # noqa: E731

        def grads(x):
            with ad.Tape() as tape:
                y = fwd(x)
                return tape.backward(ad.tsum(ad.mul(y, y)))

        plain, needed = ad.Tensor(xd), ad.parameter(xd)
        got, want = grads(plain), grads(needed)
        assert id(plain) not in got and id(needed) in want
        for p in params.values():
            assert got[id(p)].tobytes() == want[id(p)].tobytes()

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "mse"])
    @pytest.mark.parametrize("const", [0, 1])
    def test_constant_operand_is_skipped(self, op, const):
        """The operand ``const`` of a two-input op, once plain and once a
        parameter: the other operand's gradient keeps its bits."""
        rng = np.random.default_rng(23)
        shapes = [(4, 5), (5,)] if op != "mse" else [(4, 5), (4, 5)]
        if const == 0 and op != "mse":
            shapes.reverse()                 # the constant is the broadcast operand
        data = [rng.standard_normal(s).astype(np.float32) for s in shapes]
        w = ad.parameter(rng.standard_normal((4, 5)).astype(np.float32))

        def grads(c):
            args = [None, None]
            args[const] = c
            with ad.Tape() as tape:
                args[1 - const] = ad.mul(w, ad.Tensor(data[1 - const]))
                out = getattr(ad, op)(*args)
                loss = out if op == "mse" else ad.tsum(ad.mul(out, out))
                return tape.backward(loss)

        plain, needed = ad.Tensor(data[const]), ad.parameter(data[const])
        got, want = grads(plain), grads(needed)
        assert id(plain) not in got and id(needed) in want
        assert got[id(w)].tobytes() == want[id(w)].tobytes()


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

    @staticmethod
    def _two_params():
        return {"a": ad.parameter([1.0, 2.0]), "b": ad.parameter([3.0])}

    @pytest.mark.parametrize("bad", [{"b": np.ones(2, dtype=np.float32)}, {}])
    def test_bad_last_gradient_leaves_sgd_params(self, bad):
        params = self._two_params()
        grads = {"a": np.ones(2, dtype=np.float32), **bad}
        with pytest.raises(ad.ShapeError):
            ad.SGD(0.5).step(params, grads)
        np.testing.assert_array_equal(params["a"].data, [1.0, 2.0])
        np.testing.assert_array_equal(params["b"].data, [3.0])

    @pytest.mark.parametrize("bad", [{"b": np.ones(2, dtype=np.float32)}, {}])
    def test_bad_last_gradient_leaves_adam_params_and_state(self, bad):
        params = self._two_params()
        opt = ad.Adam(lr=0.1)
        opt.step(params, {"a": np.ones(2, dtype=np.float32),
                          "b": np.ones(1, dtype=np.float32)})
        before = {n: (params[n].data.copy(), opt.m[n].copy(), opt.v[n].copy())
                  for n in params}
        grads = {"a": np.full(2, 5.0, dtype=np.float32), **bad}
        with pytest.raises(ad.ShapeError):
            opt.step(params, grads)
        assert opt.step_count == 1
        for n, (data, m, v) in before.items():
            assert params[n].data.tobytes() == data.tobytes()
            assert opt.m[n].tobytes() == m.tobytes()
            assert opt.v[n].tobytes() == v.tobytes()


def _reference_adam_step(p, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Kingma & Ba (2015), Alg. 1, as 14 in-place ops over whole arrays: the reference."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    s, u = np.empty_like(p), np.empty_like(p)
    m *= beta1
    np.multiply(g, 1.0 - beta1, out=s)
    m += s
    v *= beta2
    np.multiply(g, 1.0 - beta2, out=s)
    s *= g
    v += s
    np.divide(v, bc2, out=s)
    np.sqrt(s, out=s)
    s += eps
    np.divide(m, bc1, out=u)
    u *= lr
    u /= s
    p -= u


def _rows(g, rows, on):
    """g with the given rows zeroed unless ``on``."""
    if not on:
        g[rows] = 0.0
    return g


# name -> (initial shape, gradient at step k); k runs 1..50.  While fewer
# than 40% of a parameter's rows are live, Adam updates the live rows only
# of a parameter of one block or more; a smaller one is updated whole, with
# every other small parameter of its dtype.
_ADAM_CASES = {
    # 2-D, larger than one block and not a multiple of it, every row live
    "wide_all_live": ((300, 701), lambda rng, k: rng.standard_normal((300, 701))),
    # a third of the rows live: still more than one block after the gather
    "wide_few_live": ((600, 500), lambda rng, k: _rows(
        rng.standard_normal((600, 500)), np.arange(600) % 3 != 0, False)),
    # 10 rows live; 5 more turn live at step 10, the other 25 at step 30
    "late_rows": ((40, 30), lambda rng, k: _rows(_rows(
        rng.standard_normal((40, 30)), slice(10, 15), k >= 10), slice(15, 40), k >= 30)),
    # rows 0-9 live for 9 steps, then zero again; rows 10-14 on odd steps; the rest never
    "back_to_zero": ((40, 30), lambda rng, k: _rows(_rows(_rows(
        rng.standard_normal((40, 30)), slice(0, 10), k < 10), slice(10, 15), k % 2),
        slice(15, 40), False)),
    # -0.0 gradients: whole rows that never turn live, and single entries
    "negative_zero": ((20, 8), lambda rng, k: np.where(
        (np.arange(20)[:, None] < 13) | (rng.random((20, 8)) < 0.3),
        -0.0, rng.standard_normal((20, 8)))),
    "scalar": ((), lambda rng, k: rng.standard_normal(())),
    "vector": ((13,), lambda rng, k: _rows(rng.standard_normal(13), slice(0, 4), k > 30)),
    "kernel": ((6, 2, 3, 3), lambda rng, k: _rows(
        rng.standard_normal((6, 2, 3, 3)), slice(0, 4), k > 5)),
}


class TestAdamExactness:
    """Adam's skipped rows and cache-sized slices keep the reference's bits."""

    @pytest.mark.parametrize("case", sorted(_ADAM_CASES))
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_whole_array_reference(self, case, order):
        shape, grad_at = _ADAM_CASES[case]
        rng = np.random.default_rng(41)
        p0 = rng.standard_normal(shape).astype(np.float32)
        if case == "negative_zero":
            p0[:13] = np.where(rng.random((13, 8)) < 0.5, -0.0, 0.0)
        p = ad.parameter(np.asarray(p0, order=order))
        want, m, v = p0.copy(), np.zeros_like(p0), np.zeros_like(p0)
        opt = ad.Adam(lr=0.01)
        for k in range(1, 51):
            g = grad_at(rng, k).astype(np.float32)
            opt.step({"p": p}, {"p": g})
            _reference_adam_step(want, g, m, v, k, lr=0.01)
        assert p.data.tobytes() == want.tobytes()
        assert opt.m["p"].tobytes() == m.tobytes()
        assert opt.v["p"].tobytes() == v.tobytes()

    def test_dead_relu_row_in_hidden_layer(self):
        rng = np.random.default_rng(43)
        params = {"w0": ad.parameter(rng.standard_normal((6, 6)).astype(np.float32)),
                  "b0": ad.parameter(rng.standard_normal(6).astype(np.float32)),
                  "w1": ad.parameter(rng.standard_normal((6, 3)).astype(np.float32)),
                  "b1": ad.parameter(np.zeros(3, dtype=np.float32))}
        params["b0"].data[[1, 2, 4, 5]] = -100.0   # only hidden units 0 and 3 fire
        ref = {n: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
               for n, p in params.items()}
        opt = ad.Adam(lr=0.01)
        for k in range(1, 51):
            x = ad.Tensor(rng.standard_normal((8, 6)).astype(np.float32))
            y = ad.Tensor(rng.standard_normal((8, 3)).astype(np.float32))
            with ad.Tape():
                h = ad.relu(ad.linear(x, params["w0"], params["b0"]))
                grads = ad.backward(ad.mse(ad.linear(h, params["w1"], params["b1"]), y), params)
            assert not grads["w1"][[1, 2, 4, 5]].any()
            opt.step(params, grads)
            for n, (want, m, v) in ref.items():
                _reference_adam_step(want, grads[n], m, v, k, lr=0.01)
        for n, (want, m, v) in ref.items():
            assert params[n].data.tobytes() == want.tobytes()
            assert opt.m[n].tobytes() == m.tobytes() and opt.v[n].tobytes() == v.tobytes()

    @staticmethod
    def _mixed_params(rng):
        """name -> (initial value, gradient at step k): small and ≥ one-block
        parameters of both dtypes, one of them F-ordered."""
        big = (_BLOCK // 256 + 44, 256)

        def wide(rng, k):
            # a third of the rows turn live at step 20, one more at step 40
            g = _rows(rng.standard_normal(big), slice(0, big[0] * 2 // 3), k >= 20)
            return _rows(g, slice(0, 1), k >= 40)

        return {
            "scalar": (np.asarray(rng.standard_normal(())),
                       lambda rng, k: np.asarray(rng.standard_normal(()))),
            "vector": (rng.standard_normal(13), lambda rng, k: _rows(
                rng.standard_normal(13), slice(0, 4), k > 30)),
            "kernel": (rng.standard_normal((6, 2, 3, 3)), lambda rng, k: _rows(
                rng.standard_normal((6, 2, 3, 3)), slice(0, 4), k > 5)),
            "f_order": (np.asfortranarray(rng.standard_normal((17, 9))),
                        lambda rng, k: rng.standard_normal((17, 9))),
            "wide": (rng.standard_normal(big), wide),
            "vector64": (rng.standard_normal(7), lambda rng, k: rng.standard_normal(7)),
            "matrix64": (rng.standard_normal((5, 11)), lambda rng, k: _rows(
                rng.standard_normal((5, 11)), slice(2, 5), k > 10)),
        }

    @staticmethod
    def _dtype(name):
        return np.float64 if name.endswith("64") else np.float32

    @pytest.mark.parametrize("absent", [None, "kernel"])
    def test_mixed_parameters_match_reference(self, absent):
        """One dict of every kind of parameter, each to the reference's bits;
        with ``absent``, that parameter sits out every third step (bias
        correction still counts every step)."""
        rng = np.random.default_rng(47)
        cases = self._mixed_params(rng)
        params, ref = {}, {}
        for name, (p0, _) in cases.items():
            p0 = p0.astype(self._dtype(name), order="K")
            params[name] = ad.parameter(p0.copy(order="K"))
            ref[name] = (np.array(p0, order="C"), np.zeros(p0.shape, p0.dtype),
                         np.zeros(p0.shape, p0.dtype))
        assert params["f_order"].data.flags.f_contiguous
        assert params["wide"].data.size >= _BLOCK > params["kernel"].data.size
        opt = ad.Adam(lr=0.01)
        for k in range(1, 51):
            step = {n: p for n, p in params.items() if not (n == absent and k % 3 == 0)}
            grads = {n: cases[n][1](rng, k).astype(self._dtype(n)) for n in step}
            opt.step(step, grads)
            for n, g in grads.items():
                want, m, v = ref[n]
                _reference_adam_step(want, g, m, v, k, lr=0.01)
            if k == 30:
                # a bad gradient moves no parameter and no state
                before = {n: (p.data.tobytes(), opt.m[n].tobytes(), opt.v[n].tobytes())
                          for n, p in params.items()}
                bad = dict(grads, wide=np.ones((3, 3), dtype=np.float32))
                with pytest.raises(ad.ShapeError):
                    opt.step(step, bad)
                assert opt.step_count == k
                assert before == {n: (p.data.tobytes(), opt.m[n].tobytes(),
                                      opt.v[n].tobytes()) for n, p in params.items()}
        for n, (want, m, v) in ref.items():
            assert params[n].data.dtype == want.dtype
            assert params[n].data.tobytes(order="C") == want.tobytes(), n
            assert opt.m[n].tobytes() == m.tobytes() and opt.v[n].tobytes() == v.tobytes(), n

    @pytest.mark.parametrize("kw", [{"lr": 0.0}, {"lr": -1e-3}, {"eps": 0.0}])
    def test_nonpositive_lr_or_eps_rejected(self, kw):
        with pytest.raises(ValueError):
            ad.Adam(**kw)


class TestNonFiniteGradientGuard:
    def test_backward_raises_before_any_adam_step(self):
        # 1/x overflows float32 at a subnormal x, so log's gradient is inf
        params = {"x": ad.parameter(np.asarray([1e-45, 0.5], dtype=np.float32)),
                  "w": ad.parameter(np.asarray([[1.0, 2.0]], dtype=np.float32))}
        opt = ad.Adam(lr=0.1)
        opt.step(params, {"x": np.asarray([0.0, 1.0], dtype=np.float32),
                          "w": np.ones((1, 2), dtype=np.float32)})
        before = {n: (p.data.tobytes(), opt.m[n].tobytes(), opt.v[n].tobytes())
                  for n, p in params.items()}
        with pytest.raises(ad.GraphError, match="non-finite gradient out of op 'log'"), \
                np.errstate(over="ignore"):
            with ad.Tape():
                loss = ad.tsum(ad.mul(ad.log(params["x"]), params["w"]))
                opt.step(params, ad.backward(loss, params))
        assert opt.step_count == 1
        for n, p in params.items():
            assert (p.data.tobytes(), opt.m[n].tobytes(), opt.v[n].tobytes()) == before[n]


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
