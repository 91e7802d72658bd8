"""The four encoders behind one encode/decode contract.

AE/VAE/BVAE share a fully-connected trunk; SAE is two strided convolutions
feeding a spatial softmax whose coordinate pairs reconstruct a half-
resolution view of the input. ``encode`` never samples: the VAE family
reports the posterior mean with its predicted standard deviation attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from .specs import ConfigError, EncoderSpec, Method


@dataclass
class LatentVector:
    """Encoded state: values, plus predicted per-dimension std for the VAE family."""

    values: np.ndarray
    sigma: Optional[np.ndarray] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32).reshape(-1)
        if self.sigma is not None:
            self.sigma = np.asarray(self.sigma, dtype=np.float32).reshape(-1)
            if self.sigma.shape != self.values.shape:
                raise ValueError("sigma length must match latent length")
            if not np.all(self.sigma > 0):
                raise ValueError("predicted sigma must be strictly positive")


@dataclass
class ModelWeights:
    """Immutable-after-training parameter store for one trained method."""

    spec: EncoderSpec
    params: Dict[str, Tensor]


def _param_table(spec: EncoderSpec) -> List[Tuple[str, tuple, str]]:
    """Every parameter in draw order: (name, shape, init), where init is
    "glorot" (a (fan_in, fan_out) matrix), "he" (a (c_out, c_in, kh, kw)
    kernel) or "zeros" (a bias)."""
    table = []

    def fc(name, fan_in, fan_out):
        table.append((f"{name}_w", (fan_in, fan_out), "glorot"))
        table.append((f"{name}_b", (fan_out,), "zeros"))

    def conv(name, c_in, c_out):
        table.append((f"{name}_w", (c_out, c_in, 3, 3), "he"))
        table.append((f"{name}_b", (c_out,), "zeros"))

    if spec.method is Method.SAE:
        c1 = spec.sae_conv1_channels
        c2 = spec.sae_channels
        conv("conv0", 1, c1)
        conv("conv1", c1, c2)
        half = spec.image_size // 2
        fc("dec0", 2 * c2, spec.sae_decoder_hidden)
        fc("out", spec.sae_decoder_hidden, half * half)
        return table

    h1, h2 = spec.hidden
    n, d = spec.input_dim, spec.latent
    fc("enc0", n, h1)
    fc("enc1", h1, h2)
    if spec.method is Method.AE:
        fc("lat", h2, d)
    else:
        fc("mu", h2, d)
        fc("logvar", h2, d)
    fc("dec0", d, h2)
    fc("dec1", h2, h1)
    fc("out", h1, n)
    return table


def init_params(spec: EncoderSpec) -> Dict[str, Tensor]:
    """Seeded Glorot/He initialization; deterministic per spec.seed."""
    rng = np.random.default_rng(spec.seed)
    params: Dict[str, Tensor] = {}
    for name, shape, init in _param_table(spec):
        if init == "glorot":
            data = ad.glorot_uniform(rng, shape[0], shape[1], shape)
        elif init == "he":
            data = ad.he_uniform(rng, int(np.prod(shape[1:])), shape)
        else:
            data = np.zeros(shape, dtype=np.float32)
        params[name] = ad.parameter(data)
    return params


def expected_shapes(spec: EncoderSpec) -> Dict[str, tuple]:
    """Each parameter's shape, as ``init_params`` makes it; draws nothing."""
    return {name: shape for name, shape, _ in _param_table(spec)}


def _as_batch(images: np.ndarray, spec: EncoderSpec) -> np.ndarray:
    arr = np.asarray(images, dtype=np.float32)
    if arr.ndim == 2:
        arr = arr[None]
    s = spec.image_size
    if arr.ndim != 3 or arr.shape[1:] != (s, s):
        raise ValueError(f"expected images of shape ({s}, {s}), got {arr.shape}")
    return arr


def _encoder_forward(params: Dict[str, Tensor], spec: EncoderSpec,
                     x: Tensor) -> Tuple[Tensor, Optional[Tensor]]:
    """Shared encoder trunk; x is (N, H*W) for FC methods, (N,1,H,W) for SAE."""
    if spec.method is Method.SAE:
        h = ad.relu(ad.conv2d(x, params["conv0_w"], params["conv0_b"], stride=2))
        h = ad.relu(ad.conv2d(h, params["conv1_w"], params["conv1_b"], stride=2))
        coords = ad.spatial_softmax(h, temperature=spec.temperature)
        return coords, None
    h = ad.relu(ad.linear(x, params["enc0_w"], params["enc0_b"]))
    h = ad.relu(ad.linear(h, params["enc1_w"], params["enc1_b"]))
    if spec.method is Method.AE:
        return ad.linear(h, params["lat_w"], params["lat_b"]), None
    mu = ad.linear(h, params["mu_w"], params["mu_b"])
    logvar = ad.linear(h, params["logvar_w"], params["logvar_b"])
    sigma = ad.exp(ad.scale(logvar, 0.5))
    return mu, sigma


def _decoder_forward(params: Dict[str, Tensor], spec: EncoderSpec, z: Tensor) -> Tensor:
    if spec.method is Method.SAE:
        h = ad.relu(ad.linear(z, params["dec0_w"], params["dec0_b"]))
        return ad.sigmoid(ad.linear(h, params["out_w"], params["out_b"]))
    h = ad.relu(ad.linear(z, params["dec0_w"], params["dec0_b"]))
    h = ad.relu(ad.linear(h, params["dec1_w"], params["dec1_b"]))
    return ad.sigmoid(ad.linear(h, params["out_w"], params["out_b"]))


class EncodePlan:
    """``_encoder_forward``'s float32 ops on arrays, for one model and the
    latent dims a caller reads, with everything that depends only on those
    built once: the weights as views in their contraction shapes, the SAE's
    conv1 channel block, its padding geometry and readout grids, and the
    dims index. A call then runs the arithmetic alone, without Tensors or
    a tape, and gives each row of a stack the bits it gets alone. Since the
    plan holds views, an in-place edit of the weights shows in the next call.

    ``dims`` names the latent dims a caller reads: values then hold only
    those columns, in that order, and sigma is None. The SAE then runs
    conv1 and the softmax only on the channels from the first to the last
    one those dims come from (dims 2c and 2c + 1 come from channel c), and
    the VAE family skips its sigma branch.
    """

    def __init__(self, model: ModelWeights, dims: Optional[Sequence[int]] = None):
        spec, p = model.spec, model.params
        self.spec = spec
        self.take = None
        if dims is not None:
            dims = [int(d) for d in dims]
            if any(d < 0 or d >= spec.latent for d in dims):
                raise ValueError(f"latent dims {dims} outside [0, {spec.latent})")
            self.take = np.asarray(dims, dtype=np.intp)
        if dims == []:
            self.forward = self._nothing
        elif spec.method is Method.SAE:
            c = spec.sae_channels
            lo, hi = (0, c) if dims is None else (min(dims) // 2, max(dims) // 2 + 1)
            s = spec.image_size
            self.conv0 = ad.ConvPlan(p["conv0_w"].data, p["conv0_b"].data, s, s, 2)
            self.conv1 = ad.ConvPlan(p["conv1_w"].data[lo:hi], p["conv1_b"].data[lo:hi],
                                     self.conv0.oh, self.conv0.ow, 2)
            hh, ww = self.conv1.oh, self.conv1.ow
            # the readout keeps its bits only over all channel rows: unread ones are zero
            self.probs_shape = (c, hh * ww)
            self.block = slice(lo, hi)
            self.grids = ad.coord_grids(hh, ww)
            self.forward = self._sae
        else:
            head = "lat" if spec.method is Method.AE else "mu"
            self.trunk = [(p[f"{name}_w"].data, p[f"{name}_b"].data)
                          for name in ("enc0", "enc1", head)]
            sigma = dims is None and spec.method is not Method.AE
            self.sigma = (p["logvar_w"].data, p["logvar_b"].data) if sigma else None
            self.forward = self._dense

    def __call__(self, images: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Deterministic forward encode of (N, H, W) frames -> (values, sigma)."""
        values, sigma = self.forward(_as_batch(images, self.spec))
        return (values if self.take is None else values.take(self.take, axis=1)), sigma

    def _nothing(self, batch: np.ndarray) -> tuple:
        return np.empty((batch.shape[0], 0), dtype=np.float32), None

    def _sae(self, batch: np.ndarray) -> tuple:
        h = self.conv0(batch[:, None])[0]
        np.maximum(h, 0, out=h)
        h = self.conv1(h)[0]
        np.maximum(h, 0, out=h)
        probs = np.zeros((h.shape[0], *self.probs_shape))
        probs[:, self.block] = ad.softmax_probs(h, self.spec.temperature)
        return ad.grid_readout(probs, *self.grids, h.dtype)[0], None

    def _dense(self, batch: np.ndarray) -> tuple:
        # each row as a one-row matrix: a batched product gives it the bits it gets alone
        (w0, b0), (w1, b1), (wz, bz) = self.trunk
        h = np.maximum(batch.reshape(batch.shape[0], 1, -1) @ w0 + b0, 0)
        h = np.maximum(h @ w1 + b1, 0)
        values = (h @ wz + bz)[:, 0]
        if self.sigma is None:
            return values, None
        ws, bs = self.sigma
        return values, np.exp((h @ ws + bs)[:, 0] * 0.5)


def encode_batch(model: ModelWeights, images: np.ndarray, dims: Optional[Sequence[int]] = None
                 ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Deterministic forward encode of (N, H, W) frames -> (values, sigma):
    an ``EncodePlan`` built and applied once."""
    return EncodePlan(model, dims)(images)


def encode(model: ModelWeights, image: np.ndarray) -> LatentVector:
    """Map one image to its latent state (pure function of weights and pixels)."""
    values, sigma = encode_batch(model, image)
    return LatentVector(values=values[0], sigma=None if sigma is None else sigma[0])


def downsample_half(batch: np.ndarray) -> np.ndarray:
    """2x2 average pooling, the SAE reconstruction target."""
    n, h, w = batch.shape
    return batch.reshape(n, h // 2, 2, w // 2, 2).mean(axis=(2, 4))


def loss(spec: EncoderSpec, params: Dict[str, Tensor], images: np.ndarray,
         noise: Optional[np.ndarray] = None,
         target: Optional[np.ndarray] = None) -> Tensor:
    """Scalar training objective for one batch, recorded on the active tape.

    VAE/BVAE need ``noise``: one standard-normal draw per datum for the
    reparameterized sample.  The SAE takes its target, the flattened
    ``downsample_half`` of the batch, from ``target`` when given; a fit
    pools the whole dataset once and passes each batch's rows (the same
    bits as pooling the batch).
    """
    batch = _as_batch(images, spec)
    n = batch.shape[0]
    if n < 1:
        raise ValueError("empty batch")

    if spec.method is Method.SAE:
        x = Tensor(batch[:, None, :, :])
        coords, _ = _encoder_forward(params, spec, x)
        recon = _decoder_forward(params, spec, coords)
        if target is None:
            target = downsample_half(batch).reshape(n, -1)
        return ad.mse(recon, Tensor(target))

    flat = Tensor(batch.reshape(n, -1))
    z_or_mu, sigma = _encoder_forward(params, spec, flat)

    if spec.method is Method.AE:
        recon = _decoder_forward(params, spec, z_or_mu)
        return ad.mse(recon, flat)

    if noise is None:
        raise ConfigError(f"{spec.method.value} loss needs a noise draw per datum")
    eps = np.asarray(noise, dtype=np.float32)
    if eps.shape != (n, spec.latent):
        raise ValueError(f"noise must have shape {(n, spec.latent)}, got {eps.shape}")
    z = ad.add(z_or_mu, ad.mul(sigma, Tensor(eps)))
    recon = _decoder_forward(params, spec, z)
    # Gaussian decoder with unit variance: squared error summed over pixels,
    # KL summed over dims; both averaged over the batch.
    diff = ad.sub(recon, flat)
    sse = ad.tsum(ad.mul(diff, diff))
    mu_flat = ad.reshape(z_or_mu, (n * spec.latent,))
    sigma_flat = ad.reshape(sigma, (n * spec.latent,))
    kl = ad.gaussian_kl(mu_flat, sigma_flat)
    return ad.scale(ad.add(sse, ad.scale(kl, spec.beta())), 1.0 / n)
