"""Synthetic scene generation: analytic ground truth, photometric
consistency across frames, determinism."""

import dataclasses

import numpy as np
import pytest

from depthlab.autodiff import Tensor
from depthlab.geometry import CameraModel, warp_frame
from depthlab.formats import SceneOnDisk, write_scene
from depthlab.scene import generate_scene

from oracles import covisibility_mask, relative_pose, shift_frame_ids

CAM = CameraModel(fx=64.0, fy=64.0, cx=31.5, cy=31.5, width=64, height=64)


class TestGroundTruth:
    def test_plane_with_identity_first_pose_has_constant_depth(self):
        scene = generate_scene("plane", 4, seed=1, cam=CAM)
        np.testing.assert_array_equal(scene.trajectory.poses[0].rotation, np.eye(3))
        np.testing.assert_array_equal(scene.trajectory.poses[0].translation, np.zeros(3))
        np.testing.assert_allclose(scene.depths[0], 10.0, atol=1e-9)

    def test_two_spheres_masks_partition_every_frame(self):
        scene = generate_scene("two_spheres", 5, seed=2, cam=CAM)
        for labels in scene.labels:
            values = set(np.unique(labels))
            assert values <= {0, 1, 2}
            assert 1 in values and 2 in values  # both spheres visible
            assert labels.shape == (64, 64)

    def test_depths_positive_finite(self):
        for kind in ("plane", "slanted_plane", "two_spheres"):
            scene = generate_scene(kind, 4, seed=3, cam=CAM)
            for d in scene.depths:
                assert np.all(np.isfinite(d)) and np.all(d > 0)

    def test_frames_in_unit_interval(self):
        scene = generate_scene("two_spheres", 4, seed=4, cam=CAM)
        for frame in scene.frames:
            assert frame.min() >= 0.0 and frame.max() <= 1.0

    def test_image_is_reflectance_times_shading(self):
        scene = generate_scene("two_spheres", 4, seed=5, cam=CAM)
        np.testing.assert_allclose(
            scene.frames[2], scene.reflectance[2] * scene.shading[2][None], atol=1e-12
        )


class TestConsistency:
    def test_cross_frame_warp_reproduces_target(self):
        """Warping any source frame with true depth and poses must match the
        target within 2/255 mean absolute error on co-visible pixels."""
        for kind in ("plane", "slanted_plane", "two_spheres"):
            scene = generate_scene(kind, 8, seed=7, cam=CAM)
            for t in (1, 4, 6):
                for s in (t - 1, t + 1):
                    pose = relative_pose(scene, t, s)
                    warped, valid = warp_frame(
                        Tensor(scene.frames[s]), scene.depths[t], (pose.rotation, pose.translation), CAM
                    )
                    co = covisibility_mask(scene, t, s) & valid
                    assert co.mean() > 0.4
                    err = np.abs(warped.data - scene.frames[t])[:, co].mean()
                    assert err <= 2.0 / 255.0, f"{kind} t={t} s={s}: {err}"

    def test_relative_pose_composes_to_identity(self):
        scene = generate_scene("plane", 5, seed=8, cam=CAM)
        fwd = relative_pose(scene, 1, 2)
        back = relative_pose(scene, 2, 1)
        both = fwd.compose(back)
        assert np.max(np.abs(both.rotation - np.eye(3))) <= 1e-12
        assert np.max(np.abs(both.translation)) <= 1e-12


class TestDeterminism:
    def test_same_seed_same_scene(self):
        a = generate_scene("two_spheres", 4, seed=9, cam=CAM)
        b = generate_scene("two_spheres", 4, seed=9, cam=CAM)
        for fa, fb in zip(a.frames, b.frames):
            np.testing.assert_array_equal(fa, fb)
        for da, db in zip(a.depths, b.depths):
            np.testing.assert_array_equal(da, db)

    def test_different_seeds_differ(self):
        a = generate_scene("two_spheres", 4, seed=10, cam=CAM)
        b = generate_scene("two_spheres", 4, seed=11, cam=CAM)
        assert not np.array_equal(a.frames[0], b.frames[0])


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            generate_scene("torus", 4, seed=0, cam=CAM)

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError, match="frames"):
            generate_scene("plane", 2, seed=0, cam=CAM)

    @pytest.mark.parametrize("field", ["frames", "depths", "labels", "reflectance", "shading"])
    def test_a_per_frame_tuple_shorter_than_the_trajectory_is_refused(self, field):
        scene = generate_scene("plane", 4, seed=0, cam=CAM)
        with pytest.raises(ValueError, match=f"scene has 4 poses but 3 {field}"):
            dataclasses.replace(scene, **{field: getattr(scene, field)[:3]})

    def test_trajectory_indices(self, tmp_path):
        scene = generate_scene("plane", 5, seed=12, cam=CAM)
        assert scene.trajectory.indices == (0, 1, 2, 3, 4)
        write_scene(tmp_path, scene)
        shift_frame_ids(tmp_path, 1)
        assert SceneOnDisk(tmp_path).trajectory.indices == (1, 2, 3, 4, 5)
