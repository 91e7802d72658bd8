"""Encoder contracts: beta rule, encode purity, losses, training, persistence."""

import numpy as np
import pytest

from latentservo import autodiff as ad
from latentservo.representations import (
    ConfigError,
    EncoderSpec,
    Method,
    ModelWeights,
    TrainConfig,
    TrainingDiverged,
    WeightFormatError,
    compute_beta,
    downsample_half,
    encode,
    expected_shapes,
    init_params,
    load,
    loss,
    save,
    train,
)
from latentservo.toyenv import Pattern, TaskSpec, generate_demo
from test_autodiff import _reference_adam_step


def tiny_spec(method, **kw):
    defaults = dict(image_size=16, latent_dim=8, hidden=(24, 12),
                    sae_channels=3, sae_conv1_channels=4, sae_decoder_hidden=10,
                    seed=3)
    defaults.update(kw)
    return EncoderSpec(method=method, **defaults)


def rand_images(n, size=16, seed=0):
    return np.random.default_rng(seed).uniform(0, 1, (n, size, size)).astype(np.float32)


class TestComputeBeta:
    def test_direct_substitution(self):
        assert compute_beta(1.0, 1024, 50) == pytest.approx(20.48)

    def test_ratio_one(self):
        assert compute_beta(0.37, 64, 64) == pytest.approx(0.37)

    def test_half_alpha(self):
        assert compute_beta(0.5, 1024, 100) == pytest.approx(5.12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            compute_beta(0.0, 1024, 50)
        with pytest.raises(ConfigError):
            compute_beta(1.0, -5, 50)


class TestSpecValidation:
    def test_latent_must_be_compact(self):
        with pytest.raises(ConfigError, match="compact"):
            EncoderSpec(method=Method.AE, image_size=16, latent_dim=256)

    def test_bvae_needs_alpha(self):
        with pytest.raises(ConfigError, match="alpha"):
            EncoderSpec(method=Method.BVAE)

    def test_alpha_only_for_bvae(self):
        with pytest.raises(ConfigError, match="alpha"):
            EncoderSpec(method=Method.AE, alpha=1.0)

    def test_sae_latent_is_even_pairs(self):
        spec = tiny_spec(Method.SAE)
        assert spec.latent == 2 * spec.sae_channels
        assert spec.latent % 2 == 0


class TestEncode:
    def test_untrained_sae_in_unit_box(self):
        spec = tiny_spec(Method.SAE)
        model = ModelWeights(spec=spec, params=init_params(spec))
        lv = encode(model, rand_images(1)[0])
        assert lv.values.shape == (spec.latent,)
        assert np.all(lv.values >= -1.0) and np.all(lv.values <= 1.0)

    def test_encode_deterministic(self):
        spec = tiny_spec(Method.VAE)
        model = ModelWeights(spec=spec, params=init_params(spec))
        img = rand_images(1)[0]
        a = encode(model, img)
        b = encode(model, img)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.sigma.tobytes() == b.sigma.tobytes()

    def test_vae_exposes_positive_sigma(self):
        spec = tiny_spec(Method.VAE)
        model = ModelWeights(spec=spec, params=init_params(spec))
        lv = encode(model, rand_images(1)[0])
        assert lv.sigma is not None
        assert np.all(lv.sigma > 0)

    def test_ae_has_no_sigma(self):
        spec = tiny_spec(Method.AE)
        model = ModelWeights(spec=spec, params=init_params(spec))
        assert encode(model, rand_images(1)[0]).sigma is None

    def test_dimension_mismatch(self):
        spec = tiny_spec(Method.AE)
        model = ModelWeights(spec=spec, params=init_params(spec))
        with pytest.raises(ValueError, match="shape"):
            encode(model, np.zeros((20, 20), dtype=np.float32))


class TestLoss:
    def test_bvae_beta_one_equals_vae(self):
        # alpha chosen so beta = latent/input * input/latent = 1 exactly
        vspec = tiny_spec(Method.VAE)
        alpha = vspec.latent / vspec.input_dim
        bspec = tiny_spec(Method.BVAE, alpha=alpha)
        assert bspec.beta() == pytest.approx(1.0, rel=1e-12)
        params_v = init_params(vspec)
        params_b = {k: ad.parameter(v.data.copy()) for k, v in params_v.items()}
        batch = rand_images(4)
        noise = np.random.default_rng(7).standard_normal((4, vspec.latent)).astype(np.float32)

        with ad.Tape():
            lv = loss(vspec, params_v, batch, noise=noise)
            gv = ad.backward(lv, params_v)
        with ad.Tape():
            lb = loss(bspec, params_b, batch, noise=noise)
            gb = ad.backward(lb, params_b)

        assert lv.item() == pytest.approx(lb.item(), rel=1e-6)
        for name in gv:
            denom = max(1e-8, float(np.abs(gv[name]).max()))
            assert float(np.abs(gv[name] - gb[name]).max()) / denom < 1e-6

    def test_perfect_reconstruction_ae_loss_zero(self):
        # zero weights emit sigmoid(0) = 0.5 everywhere; a constant-0.5
        # dataset is therefore reconstructed exactly
        spec = tiny_spec(Method.AE)
        params = {k: ad.parameter(np.zeros_like(v.data)) for k, v in init_params(spec).items()}
        batch = np.full((3, 16, 16), 0.5, dtype=np.float32)
        assert loss(spec, params, batch).item() == pytest.approx(0.0, abs=1e-12)

    def test_vae_loss_at_least_kl_term(self):
        spec = tiny_spec(Method.VAE)
        params = init_params(spec)
        batch = rand_images(3, seed=5)
        noise = np.zeros((3, spec.latent), dtype=np.float32)
        total = loss(spec, params, batch, noise=noise).item()
        from latentservo.representations.models import _encoder_forward
        mu, sigma = _encoder_forward(params, spec, ad.Tensor(batch.reshape(3, -1)))
        kl = ad.gaussian_kl(ad.reshape(mu, (-1,)), ad.reshape(sigma, (-1,))).item() / 3
        assert total >= kl >= 0.0

    def test_noise_required_for_vae(self):
        spec = tiny_spec(Method.VAE)
        with pytest.raises(ConfigError, match="noise"):
            loss(spec, init_params(spec), rand_images(2))

    def test_sae_targets_half_resolution(self):
        batch = rand_images(2)
        ds = downsample_half(batch)
        assert ds.shape == (2, 8, 8)
        np.testing.assert_allclose(ds[0, 0, 0], batch[0, :2, :2].mean(), rtol=1e-6)


class TestMethodGradients:
    """Full method losses agree with central differences on small specs."""

    def _subset(self, params, names):
        return {k: params[k] for k in names}

    def test_ae_loss_gradients(self):
        spec = tiny_spec(Method.AE)
        params = init_params(spec)
        batch = rand_images(2, seed=11)
        err = ad.finite_diff_check(lambda: loss(spec, params, batch),
                                   self._subset(params, ["lat_w", "lat_b", "dec0_b", "out_b"]))
        assert err < 1e-4

    def test_vae_loss_gradients_fixed_noise(self):
        spec = tiny_spec(Method.VAE)
        params = init_params(spec)
        batch = rand_images(1, seed=12)
        noise = np.random.default_rng(13).standard_normal((1, spec.latent)).astype(np.float32)
        err = ad.finite_diff_check(lambda: loss(spec, params, batch, noise=noise),
                                   self._subset(params, ["mu_w", "mu_b", "logvar_b", "dec0_b"]))
        assert err < 1e-3

    def test_sae_loss_gradients(self):
        spec = tiny_spec(Method.SAE)
        params = init_params(spec)
        batch = rand_images(1, seed=14)
        # set conv biases so every pre-activation clears the ReLU kink by a
        # margin larger than the finite-difference step
        x = ad.Tensor(batch[:, None])
        h0 = ad.conv2d(x, params["conv0_w"], params["conv0_b"], stride=2)
        params["conv0_b"].data -= h0.data.min(axis=(0, 2, 3)) - 0.05
        h0 = ad.conv2d(x, params["conv0_w"], params["conv0_b"], stride=2)
        h1 = ad.conv2d(ad.relu(h0), params["conv1_w"], params["conv1_b"], stride=2)
        params["conv1_b"].data -= h1.data.min(axis=(0, 2, 3)) - 0.05
        h1 = ad.conv2d(ad.relu(h0), params["conv1_w"], params["conv1_b"], stride=2)
        coords = ad.spatial_softmax(ad.relu(h1), temperature=spec.temperature)
        pre = ad.linear(coords, params["dec0_w"], params["dec0_b"])
        params["dec0_b"].data -= pre.data.min(axis=0) - 0.05
        pre = ad.linear(coords, params["dec0_w"], params["dec0_b"])
        assert min(h0.data.min(), h1.data.min(), pre.data.min()) > 2e-3
        err = ad.finite_diff_check(lambda: loss(spec, params, batch),
                                   self._subset(params, ["conv0_w", "conv0_b", "conv1_b", "dec0_b"]))
        assert err < 1e-4


@pytest.fixture(scope="module")
def tiny_demos():
    task = TaskSpec(image_size=16, sprite_radius=2.0, cross_arm=1.5)
    return [generate_demo(task, Pattern.STRAIGHT, s, 6)
            for s in [(0.1, 0.1), (0.9, 0.2), (0.2, 0.9)]]


class TestTrain:
    def test_curves_deterministic_and_decreasing(self, tiny_demos):
        spec = tiny_spec(Method.AE)
        cfg = TrainConfig(epochs=30, batch_size=8, learning_rate=3e-3, seed=5)
        m1, c1 = train(spec, tiny_demos, cfg)
        m2, c2 = train(spec, tiny_demos, cfg)
        assert c1 == c2
        for k in sorted(m1.params):
            assert m1.params[k].data.tobytes() == m2.params[k].data.tobytes()
        assert c1[-1] < c1[0]

    def test_first_entry_is_fresh_weights_first_batch(self, tiny_demos):
        spec = tiny_spec(Method.AE)
        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=1e-3, seed=9)
        _, curve = train(spec, tiny_demos, cfg)
        frames = np.concatenate([d.frames for d in tiny_demos])
        rng = np.random.default_rng(cfg.seed)
        first = frames[rng.permutation(len(frames))[:cfg.batch_size]]
        expected = loss(spec, init_params(spec), first).item()
        assert curve[0] == pytest.approx(expected, rel=1e-6)

    def test_frame_size_mismatch(self, tiny_demos):
        spec = tiny_spec(Method.AE, image_size=32, hidden=(16, 8), latent_dim=4)
        with pytest.raises(ValueError, match="image size"):
            train(spec, tiny_demos, TrainConfig(epochs=1))

    def test_all_methods_share_dataset_digest(self, tiny_demos):
        cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=1e-3, seed=2)
        digests = set()
        for method in (Method.AE, Method.VAE, Method.SAE):
            model, _ = train(tiny_spec(method), tiny_demos, cfg)
            assert model.dataset_digest
            digests.add(model.dataset_digest)
        model, _ = train(tiny_spec(Method.BVAE, alpha=0.1), tiny_demos, cfg)
        digests.add(model.dataset_digest)
        assert len(digests) == 1  # same data samples behind every method

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("spec", [tiny_spec(Method.BVAE, alpha=0.1),
                                      tiny_spec(Method.VAE), tiny_spec(Method.AE)],
                             ids=["bvae", "vae", "ae"])
    def test_a_fit_that_blows_up_names_its_epoch(self, spec):
        task = TaskSpec(image_size=16, sprite_radius=2.0, cross_arm=1.5)
        demos = [generate_demo(task, Pattern.STRAIGHT, s, 8) for s in [(0.1, 0.1), (0.9, 0.2)]]
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=1e9, seed=4)
        with pytest.raises(TrainingDiverged, match=r"at epoch \d+, batch \d+$") as exc:
            train(spec, demos, cfg)
        assert (exc.value.epoch, exc.value.batch) == (0, 1)


def _reference_train(spec, demos, cfg):
    """``train`` as a plain loop: each SAE batch pooled on its own, each
    parameter stepped on its own by the whole-array Adam reference."""
    frames = np.concatenate([d.frames for d in demos])
    params = init_params(spec)
    state = {n: (np.zeros_like(p.data), np.zeros_like(p.data)) for n, p in params.items()}
    rng = np.random.default_rng(cfg.seed)
    curve, t = [], 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(len(frames))
        losses = []
        for b0 in range(0, len(frames), cfg.batch_size):
            idx = perm[b0:b0 + cfg.batch_size]
            noise = rng.standard_normal((len(idx), spec.latent)).astype(np.float32) \
                if spec.method in (Method.VAE, Method.BVAE) else None
            with ad.Tape():
                value = loss(spec, params, frames[idx], noise=noise)
                grads = ad.backward(value, params)
            losses.append(value.item())
            if not curve:
                curve.append(losses[0])    # fresh-weights loss, before any update
            t += 1
            for n, p in params.items():
                _reference_adam_step(p.data, grads[n], *state[n], t, lr=cfg.learning_rate)
        curve.append(float(np.mean(losses)))
    return params, curve


class TestTrainingPath:
    """``train``'s pooled target and grouped Adam keep the plain loop's bits."""

    @pytest.mark.parametrize("method", list(Method))
    def test_weights_and_curve_match_reference_loop(self, method, tiny_demos):
        spec = tiny_spec(method, alpha=0.1 if method is Method.BVAE else None)
        cfg = TrainConfig(epochs=3, batch_size=5, learning_rate=3e-3, seed=4)
        model, curve = train(spec, tiny_demos, cfg)
        params, want = _reference_train(spec, tiny_demos, cfg)
        assert curve == want
        for n in params:
            assert model.params[n].data.tobytes() == params[n].data.tobytes(), n

    @pytest.mark.parametrize("size", [16, 32])
    @pytest.mark.parametrize("batch", [1, 2, 3, 16])
    def test_pooled_target_rows_equal_batch_pooling(self, size, batch):
        task = TaskSpec(image_size=size)
        demos = [generate_demo(task, Pattern.STRAIGHT, s, 16)
                 for s in [(0.1, 0.1), (0.9, 0.2), (0.2, 0.9)]]
        frames = np.concatenate([d.frames for d in demos])
        pooled = downsample_half(frames).reshape(len(frames), -1)
        perm = np.random.default_rng(batch).permutation(len(frames))
        for b0 in range(0, len(frames), batch):
            idx = perm[b0:b0 + batch]
            want = downsample_half(frames[idx]).reshape(len(idx), -1)
            assert pooled[idx].tobytes() == want.tobytes()


class TestPersistence:
    def _model(self, method=Method.AE):
        spec = tiny_spec(method)
        return ModelWeights(spec=spec, params=init_params(spec),
                            config_digest="abc123", dataset_digest="dd42")

    def test_round_trip_bit_exact(self, tmp_path):
        model = self._model(Method.SAE)
        p = tmp_path / "m.lsrv"
        save(model, p)
        back = load(p)
        assert back.spec == model.spec
        assert back.config_digest == "abc123"
        assert back.dataset_digest == "dd42"
        for k in model.params:
            assert back.params[k].data.tobytes() == model.params[k].data.tobytes()

    def test_save_load_save_idempotent(self, tmp_path):
        model = self._model()
        p1, p2 = tmp_path / "a.lsrv", tmp_path / "b.lsrv"
        save(model, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupted_magic(self, tmp_path):
        p = tmp_path / "m.lsrv"
        save(self._model(), p)
        blob = bytearray(p.read_bytes())
        blob[1] ^= 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError, match="magic"):
            load(p)

    def test_payload_corruption_fails_checksum(self, tmp_path):
        p = tmp_path / "m.lsrv"
        save(self._model(), p)
        blob = bytearray(p.read_bytes())
        blob[-40] ^= 0x01  # inside the last payload
        p.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError, match="checksum|shape|truncated"):
            load(p)

    def test_truncation_detected(self, tmp_path):
        p = tmp_path / "m.lsrv"
        save(self._model(), p)
        p.write_bytes(p.read_bytes()[:-7])
        with pytest.raises(WeightFormatError, match="truncated|checksum"):
            load(p)

    def test_method_tag_mismatch(self, tmp_path):
        p = tmp_path / "m.lsrv"
        save(self._model(Method.AE), p)
        with pytest.raises(WeightFormatError, match="mismatch"):
            load(p, expect_method=Method.SAE)


class TestExpectedShapes:
    @staticmethod
    def _no_draws(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a weight was drawn")
        monkeypatch.setattr(ad, "glorot_uniform", refuse)
        monkeypatch.setattr(ad, "he_uniform", refuse)

    @pytest.mark.parametrize("method", list(Method))
    def test_equal_to_init_shapes_without_drawing(self, method, monkeypatch):
        spec = tiny_spec(method, **({"alpha": 0.5} if method is Method.BVAE else {}))
        made = {name: p.data.shape for name, p in init_params(spec).items()}
        self._no_draws(monkeypatch)
        shapes = expected_shapes(spec)
        assert shapes == made
        assert list(shapes) == list(made)  # the draw order

    @pytest.mark.parametrize("method", [Method.BVAE, Method.SAE])
    def test_load_draws_no_weights(self, method, tmp_path, monkeypatch):
        spec = tiny_spec(method, **({"alpha": 0.5} if method is Method.BVAE else {}))
        model = ModelWeights(spec=spec, params=init_params(spec))
        save(model, tmp_path / "m.lsrv")
        self._no_draws(monkeypatch)
        back = load(tmp_path / "m.lsrv")
        for name, p in model.params.items():
            assert back.params[name].data.tobytes() == p.data.tobytes()
