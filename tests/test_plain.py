"""plain(): the one walker from records to JSON, and the readers that invert it."""

import json

import numpy as np
import pytest

from latentservo.analysis import FactorSet
from latentservo.plain import plain, unplain
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
    assert unplain(TaskSpec, through_json(spec)) == spec


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_encoder_spec_round_trip(method):
    spec = EncoderSpec(method=method, image_size=48, latent_dim=12, sae_channels=5,
                       alpha=0.3 if method is Method.BVAE else None, hidden=(128, 32),
                       sae_conv1_channels=6, sae_decoder_hidden=40, temperature=2.0,
                       seed=5)
    assert unplain(EncoderSpec, through_json(spec)) == spec


@pytest.mark.parametrize("factors", [
    FactorSet(indices=(3, 1), tau=0.25, spreads=np.array([0.1, 0.5, 0.0, 0.4])),
    FactorSet(indices=(), tau=1.0, spreads=np.zeros(3), all_constant=True),
], ids=["some", "all-constant"])
def test_factor_set_round_trip(factors):
    back = unplain(FactorSet, through_json(factors))
    assert back.indices == factors.indices and back.tau == factors.tau
    np.testing.assert_array_equal(back.spreads, factors.spreads)
    assert back.all_constant == factors.all_constant


def test_fields_are_read_as_annotated():
    data = through_json(TaskSpec())
    data.update(target=[1, 0], image_size=48.0)
    spec = unplain(TaskSpec, data)
    assert spec.target == (1.0, 0.0) and all(type(c) is float for c in spec.target)
    assert type(spec.image_size) is int and spec.sprite is SpriteKind.TEACHER
    back = unplain(EncoderSpec, through_json(EncoderSpec(method=Method.AE)))
    assert back.alpha is None and back.hidden == (256, 64)


def test_factor_set_without_spreads_is_refused():
    data = through_json(FactorSet(indices=(1,), tau=0.5, spreads=np.array([0.1, 0.5])))
    del data["spreads"]
    with pytest.raises(ValueError, match="FactorSet record lacks field 'spreads'"):
        unplain(FactorSet, data)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(target=[0.5]), r"target \(0.5,\) is not a 2-D point"),
    (lambda d: d.update(sprite="robot"), "'robot' is not a valid SpriteKind"),
    (lambda d: d.update(dof="two"), "invalid literal for int"),
    (lambda d: d.update(dof=3), "dof must be 1 or 2"),
], ids=["short-target", "unknown-sprite", "non-numeric", "post-init"])
def test_bad_values_are_value_errors(edit, message):
    data = through_json(TaskSpec())
    edit(data)
    with pytest.raises(ValueError, match=message):
        unplain(TaskSpec, data)
