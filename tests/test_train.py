"""The training loop end to end on a tiny scene: finite records, bit-identical
reruns down to the checkpoint bytes, and the batched min-reprojection path."""

import math

import pytest

from depthlab.config import TrainConfig
from depthlab.geometry import CameraModel
from depthlab.scene import generate_scene
from depthlab.train import ModelBundle, step_loss, train

SMALL = dict(embed_dim=32, depth_blocks=1, mixer_after=(1,), rank=2, epochs=2)


@pytest.fixture(scope="module")
def scene():
    cam = CameraModel(fx=16.0, fy=16.0, cx=7.5, cy=7.5, width=16, height=16)
    return generate_scene("two_spheres", 4, 0, cam)


def _run(scene, config, checkpoint):
    _, records = train(scene, config, checkpoint_path=checkpoint)
    return records, checkpoint.read_bytes()


def _assert_finite(records):
    for r in records:
        values = (r.loss, r.reconstruction, r.reflectance, r.synthesis, r.smoothness, r.val_abs_rel)
        assert all(math.isfinite(v) for v in values), r


def test_records_finite_and_reruns_bit_identical(scene, tmp_path):
    config = TrainConfig(**SMALL)
    records, checkpoint = _run(scene, config, tmp_path / "a.npz")
    again, checkpoint_again = _run(scene, config, tmp_path / "b.npz")

    assert [(r.epoch, r.step) for r in records] == [(1, 2), (2, 4)]  # targets 1 and 2, batch 1
    _assert_finite(records)
    assert records == again
    assert checkpoint == checkpoint_again


def test_batched_min_reprojection_runs(scene, tmp_path):
    config = TrainConfig(**SMALL, batch_size=2, source_aggregation="min")
    records, _ = _run(scene, config, tmp_path / "model.npz")

    assert [(r.epoch, r.step) for r in records] == [(1, 1), (2, 2)]  # both targets in one step
    _assert_finite(records)
    # the first epoch's one step evaluates both targets before any update, so
    # its record is the mean of each target's parts at the initial weights
    initial = ModelBundle(config, (16, 16))
    parts = [step_loss(initial, scene, t, config.loss_weights())[1] for t in (1, 2)]
    for key in parts[0]:
        assert getattr(records[0], key) == (parts[0][key] + parts[1][key]) / 2, key
