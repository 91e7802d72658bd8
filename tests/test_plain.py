"""plain(): the one walker from records to JSON, and the readers that invert it."""

import json

import numpy as np
import pytest

from latentservo.analysis import FactorSet
from latentservo.plain import plain
from latentservo.representations import EncoderSpec, Method
from latentservo.toyenv import SpriteKind, TaskSpec


def through_json(value):
    return json.loads(json.dumps(plain(value)))


def test_walks_records_to_json_data():
    spec = TaskSpec()
    assert plain({"spec": spec, "dims": (1, 2), "z": np.array([[0.5, 1.5]])}) == {
        "spec": {"dof": 2, "target": [0.7, 0.7], "image_size": 32, "sprite": "teacher",
                 "sprite_radius": 3.0, "target_intensity": 0.7, "cross_arm": 2.5,
                 "a_max": 0.05},
        "dims": [1, 2], "z": [[0.5, 1.5]]}


def test_mapping_keys_become_strings():
    # json sorts str keys as strings: "10" comes before "9".
    assert json.dumps(plain({9: 1.0, 10: 2.0}), sort_keys=True) == '{"10": 2.0, "9": 1.0}'


def test_task_spec_round_trip():
    spec = TaskSpec(dof=1, target=(0.3, 0.6), image_size=48, sprite=SpriteKind.EXECUTOR,
                    sprite_radius=2.5, target_intensity=0.5, cross_arm=3.0, a_max=0.1)
    assert TaskSpec.from_dict(through_json(spec)) == spec


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_encoder_spec_round_trip(method):
    spec = EncoderSpec(method=method, image_size=48, latent_dim=12, sae_channels=5,
                       alpha=0.3 if method is Method.BVAE else None, hidden=(128, 32),
                       sae_conv1_channels=6, sae_decoder_hidden=40, temperature=2.0,
                       seed=5)
    assert EncoderSpec.from_dict(through_json(spec)) == spec


@pytest.mark.parametrize("factors", [
    FactorSet(indices=(3, 1), tau=0.25, spreads=np.array([0.1, 0.5, 0.0, 0.4])),
    FactorSet(indices=(), tau=1.0, spreads=np.zeros(3), all_constant=True),
], ids=["some", "all-constant"])
def test_factor_set_round_trip(factors):
    back = FactorSet.from_dict(through_json(factors))
    assert back.indices == factors.indices and back.tau == factors.tau
    np.testing.assert_array_equal(back.spreads, factors.spreads)
    assert back.all_constant == factors.all_constant
