"""Training loop shared by all four methods; deterministic under a fixed seed."""

from __future__ import annotations

import hashlib
import json
from typing import List, Sequence, Tuple

import numpy as np

from .. import autodiff as ad
from ..plain import plain
from ..toyenv import DemoSequence
from .models import ModelWeights, downsample_half, init_params, loss
from .specs import EncoderSpec, Method, TrainConfig


class TrainingDiverged(RuntimeError):
    """A training step that failed on its numbers, named by where it failed."""

    def __init__(self, epoch: int, batch: int, reason: str):
        super().__init__(f"{reason} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


def dataset_frames(demos: Sequence[DemoSequence]) -> np.ndarray:
    if not demos:
        raise ValueError("empty dataset")
    return np.concatenate([d.frames for d in demos], axis=0)


def dataset_digest(demos: Sequence[DemoSequence]) -> str:
    h = hashlib.sha256()
    for d in demos:
        h.update(d.frames.tobytes())
        h.update(d.positions.tobytes())
    return h.hexdigest()


def config_digest(spec: EncoderSpec, config: TrainConfig, data_digest: str) -> str:
    blob = json.dumps({"spec": plain(spec), "train": plain(config),
                       "dataset": data_digest}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def train(spec: EncoderSpec, demos: Sequence[DemoSequence],
          config: TrainConfig) -> Tuple[ModelWeights, List[float]]:
    """Fit one method on the pooled demo frames.

    Returns the trained weights and a loss curve whose first entry is the
    untrained first-batch loss (so curve[0] always reflects the fresh
    initialization) followed by one mean loss per epoch.
    """
    frames = dataset_frames(demos)
    s = spec.image_size
    if frames.shape[1:] != (s, s):
        raise ValueError(f"dataset frames {frames.shape[1:]} do not match "
                         f"spec image size {s}")
    params = init_params(spec)
    opt = ad.Adam(lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    needs_noise = spec.method in (Method.VAE, Method.BVAE)
    m = frames.shape[0]
    # the SAE's target, pooled once: each batch takes its rows
    targets = downsample_half(frames).reshape(m, -1) if spec.method is Method.SAE else None

    curve: List[float] = []
    for epoch in range(config.epochs):
        perm = rng.permutation(m)
        epoch_losses = []
        for b0 in range(0, m, config.batch_size):
            idx = perm[b0:b0 + config.batch_size]
            batch = frames[idx]
            noise = rng.standard_normal((len(idx), spec.latent)).astype(np.float32) \
                if needs_noise else None
            try:
                with ad.Tape():
                    value = loss(spec, params, batch, noise=noise,
                                 target=None if targets is None else targets[idx])
                    batch_loss = value.item()
                    if not np.isfinite(batch_loss):
                        raise ValueError(f"non-finite loss {batch_loss}")
                    grads = ad.backward(value, params)
            except (ValueError, ad.GraphError) as exc:
                # e.g. a posterior sigma that underflowed to 0 in gaussian_kl
                raise TrainingDiverged(epoch, b0 // config.batch_size, str(exc)) from exc
            if not curve:
                curve.append(batch_loss)  # fresh-weights loss, before any update
            epoch_losses.append(batch_loss)
            opt.step(params, grads)
        curve.append(float(np.mean(epoch_losses)))

    data_digest = dataset_digest(demos)
    digest = config_digest(spec, config, data_digest)
    return ModelWeights(spec=spec, params=params, config_digest=digest,
                        dataset_digest=data_digest), curve
