"""Camera model, pose algebra, and differentiable warp tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthlab import autodiff as ad
from depthlab import geometry as geo
from depthlab.autodiff import Tensor
from depthlab.geometry import CameraModel, PoseSE3

from oracles import apply_pose, fd_gradient, rel_err, rotation_expm


CAM = CameraModel(fx=60.0, fy=55.0, cx=7.5, cy=6.5, width=16, height=14)


def random_camera(rng):
    w, h = int(rng.integers(8, 20)), int(rng.integers(8, 20))
    return CameraModel(
        fx=float(rng.uniform(20, 90)),
        fy=float(rng.uniform(20, 90)),
        cx=float(rng.uniform(2, w - 2)),
        cy=float(rng.uniform(2, h - 2)),
        width=w,
        height=h,
    )


class TestCameraModel:
    def test_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError, match="focal"):
            CameraModel(fx=0.0, fy=1.0, cx=1.0, cy=1.0, width=4, height=4)

    @pytest.mark.parametrize("fx, fy", [(np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0), (1.0, np.nan)])
    def test_rejects_non_finite_focal(self, fx, fy):
        with pytest.raises(ValueError, match="focal"):
            CameraModel(fx=fx, fy=fy, cx=1.0, cy=1.0, width=4, height=4)

    @pytest.mark.parametrize("width, height", [(0, 4), (4, 0), (-8, -8)])
    def test_rejects_an_image_under_one_pixel(self, width, height):
        with pytest.raises(ValueError, match=f"image size must be at least 1x1 pixel, got {width}x{height}"):
            CameraModel(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=width, height=height)

    def test_rejects_principal_point_outside(self):
        with pytest.raises(ValueError, match="principal"):
            CameraModel(fx=1.0, fy=1.0, cx=5.0, cy=1.0, width=4, height=4)

    def test_pixel_rays_are_computed_once_and_read_only(self):
        cam = CameraModel(fx=60.0, fy=55.0, cx=7.5, cy=6.5, width=16, height=14)
        rays = cam.pixel_rays()
        assert cam.pixel_rays() is rays
        assert not rays.flags.writeable
        with pytest.raises(ValueError):
            rays[0, 0, 0] = 1.0
        u, v = np.meshgrid(np.arange(16.0), np.arange(14.0))
        expected = np.stack([(u - 7.5) / 60.0, (v - 6.5) / 55.0, np.ones((14, 16))])
        assert rays.tobytes() == expected.tobytes()
        # the cache is not a field: cameras still compare by their intrinsics
        assert cam == CAM and hash(cam) == hash(CAM)


class TestBackproject:
    def test_principal_ray(self):
        cam = CameraModel(fx=50.0, fy=50.0, cx=3.0, cy=2.0, width=8, height=6)
        depth = np.full((6, 8), 5.0)
        pts = geo.backproject(depth, cam).data
        np.testing.assert_allclose(pts[:, 2, 3], [0.0, 0.0, 5.0], atol=0)

    def test_unit_intrinsics(self):
        cam = CameraModel(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=8, height=6)
        depth = np.ones((6, 8))
        pts = geo.backproject(depth, cam).data
        np.testing.assert_allclose(pts[:, 3, 2], [2.0, 3.0, 1.0], atol=0)

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError, match="positive"):
            geo.backproject(np.zeros((14, 16)), CAM)


class TestProject:
    def test_principal_point(self):
        pts = np.zeros((3, 1, 1))
        pts[2] = 5.0
        cam = CameraModel(fx=40.0, fy=40.0, cx=0.5, cy=0.25, width=1, height=1)
        grid = geo.project(Tensor(pts), cam).data
        np.testing.assert_allclose(grid[:, 0, 0], [0.5, 0.25], atol=0)

    def test_behind_camera_gets_sentinel(self):
        pts = np.full((3, 2, 2), 0.05)
        pts[2] = 1.0
        pts[2, 0, 0] = -1.0
        pts[2, 0, 1] = 0.0
        grid = geo.project(Tensor(pts), CAM).data
        for yx in [(0, 0), (0, 1)]:
            assert grid[0][yx] < -1.0 or grid[0][yx] > CAM.width + 1.0
        assert 0 <= grid[0, 1, 0] <= CAM.width  # normal point untouched

    def test_roundtrip_identity_random_cameras(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            cam = random_camera(rng)
            depth = rng.uniform(0.5, 30.0, size=(cam.height, cam.width))
            grid = geo.project(geo.backproject(depth, cam), cam).data
            u, v = np.meshgrid(
                np.arange(cam.width, dtype=np.float64), np.arange(cam.height, dtype=np.float64)
            )
            assert np.max(np.abs(grid - np.stack([u, v]))) <= 1e-9


class TestPose:
    def test_zero_axis_angle_is_identity(self):
        pose = PoseSE3.from_axis_angle(np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(pose.rotation, np.eye(3))

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            pose = PoseSE3.from_axis_angle(rng.uniform(-1, 1, 3), rng.uniform(-2, 2, 3))
            both = pose.compose(pose.inverse())
            assert np.max(np.abs(both.rotation - np.eye(3))) <= 1e-12
            assert np.max(np.abs(both.translation)) <= 1e-12

    def test_quarter_turn_about_z(self):
        pose = PoseSE3.from_axis_angle([0.0, 0.0, np.pi / 2], np.zeros(3))
        rotated = apply_pose(pose, np.array([1.0, 0.0, 0.0]).reshape(3, 1))
        np.testing.assert_allclose(rotated[:, 0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_constructor_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            PoseSE3(np.eye(3) * 1.1, np.zeros(3))

    @pytest.mark.parametrize(
        "rotation, translation, message",
        [
            (np.full((3, 3), np.nan), np.zeros(3), "orthonormal"),
            (np.eye(3), [0.0, np.nan, 0.0], "translation must be finite"),
            (np.eye(3), [np.inf, 0.0, 0.0], "translation must be finite"),
        ],
    )
    def test_constructor_rejects_a_non_finite_pose(self, rotation, translation, message):
        with pytest.raises(ValueError, match=message):
            PoseSE3(rotation, translation)

    def test_constructor_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="determinant"):
            PoseSE3(r, np.zeros(3))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(deadline=None, max_examples=60)
    def test_constructors_always_orthonormal(self, seed):
        rng = np.random.default_rng(seed)
        pose = PoseSE3.from_axis_angle(rng.uniform(-3, 3, 3), rng.uniform(-5, 5, 3))
        assert np.max(np.abs(pose.rotation.T @ pose.rotation - np.eye(3))) <= 1e-9
        assert abs(np.linalg.det(pose.rotation) - 1.0) <= 1e-9

    def test_quaternion_roundtrip(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            r = rotation_expm(rng.uniform(-3, 3, 3))
            q = geo.rotation_to_quaternion(r)
            np.testing.assert_allclose(geo.quaternion_to_rotation(q), r, atol=1e-12)


class TestDifferentiableRotation:
    def test_matches_matrix_exponential(self):
        """Both branches (the series below |w| = 1e-4) match expm of the skew
        matrix, and PoseSE3.from_axis_angle runs this same map."""
        rng = np.random.default_rng(31)
        for scale in (1e-6, 1e-5, 1e-3, 1.0, 3.0):
            aa = rng.uniform(-1, 1, 3) * scale
            got = geo.rotation_from_axis_angle(Tensor(aa)).data
            np.testing.assert_allclose(got, rotation_expm(aa), atol=1e-12)
            np.testing.assert_array_equal(PoseSE3.from_axis_angle(aa, np.zeros(3)).rotation, got)

    @pytest.mark.parametrize("scale", [1e-5, 0.3, 2.0])
    def test_gradient_vs_finite_differences(self, scale):
        rng = np.random.default_rng(37)
        aa = rng.uniform(-1, 1, 3) * scale
        weights = rng.standard_normal((3, 3))
        taa = Tensor(aa, requires_grad=True)
        ad.tsum(geo.rotation_from_axis_angle(taa) * Tensor(weights)).backward()

        def f(v):
            return float(np.sum(rotation_expm(v) * weights))

        assert rel_err(taa.grad, fd_gradient(f, [aa], 0)) <= 1e-5


class TestWarpFrame:
    def test_identity_pose_is_exact_identity(self):
        rng = np.random.default_rng(41)
        source = rng.uniform(0.0, 1.0, size=(3, CAM.height, CAM.width))
        depth = rng.uniform(2.0, 10.0, size=(CAM.height, CAM.width))
        warped, validity = geo.warp_frame(Tensor(source), depth, (np.eye(3), np.zeros(3)), CAM)
        np.testing.assert_array_equal(warped.data, source)
        assert validity.dtype == bool and validity.shape == (CAM.height, CAM.width) and validity.all()
        with pytest.raises(ValueError, match="read-only"):
            validity[0, 0] = False

    def test_plane_translation_matches_closed_form_shift(self):
        cam = CameraModel(fx=64.0, fy=64.0, cx=7.5, cy=7.5, width=16, height=16)
        z_plane = 8.0
        tx = 0.5
        shift = cam.fx * tx / z_plane  # pixels, in the source-sampling grid
        # linear-in-x image: bilinear sampling reproduces the closed form exactly
        u, v = np.meshgrid(np.arange(16, dtype=np.float64), np.arange(16, dtype=np.float64))
        source = np.stack([0.05 * u, 0.03 * u + 0.2, 0.5 * np.ones_like(u)])
        depth = np.full((16, 16), z_plane)
        warped, validity = geo.warp_frame(Tensor(source), depth, (np.eye(3), np.array([tx, 0.0, 0.0])), cam)
        assert validity.sum() > 0.5 * validity.size
        expected = np.stack([0.05 * (u + shift), 0.03 * (u + shift) + 0.2, 0.5 * np.ones_like(u)])
        assert np.max(np.abs(warped.data - expected)[:, validity]) <= 1e-6
        # validity = exactly the columns whose shifted coordinate stays in range
        expected_valid = (u + shift >= 0) & (u + shift <= 15)
        np.testing.assert_array_equal(validity, expected_valid)

    def test_validity_definition(self):
        rng = np.random.default_rng(43)
        source = rng.uniform(0.0, 1.0, size=(3, CAM.height, CAM.width))
        depth = rng.uniform(2.0, 6.0, size=(CAM.height, CAM.width))
        pose = PoseSE3.from_axis_angle([0.0, 0.02, 0.0], [0.3, -0.1, 0.05])
        warped, validity = geo.warp_frame(Tensor(source), depth, (pose.rotation, pose.translation), cam=CAM)
        pts = CAM.pixel_rays() * depth
        moved = apply_pose(pose, pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            gu = CAM.fx * moved[0] / moved[2] + CAM.cx
            gv = CAM.fy * moved[1] / moved[2] + CAM.cy
        expected = (
            (moved[2] > 1e-6)
            & (gu >= 0)
            & (gu <= CAM.width - 1)
            & (gv >= 0)
            & (gv <= CAM.height - 1)
        )
        np.testing.assert_array_equal(validity, expected)

    def test_photometric_gradient_wrt_depth(self):
        rng = np.random.default_rng(47)
        cam = CameraModel(fx=20.0, fy=20.0, cx=3.5, cy=3.5, width=8, height=8)
        u, v = np.meshgrid(np.arange(8.0), np.arange(8.0))
        source = np.stack([np.sin(0.7 * u + 0.3 * v) * 0.4 + 0.5, np.cos(0.5 * u) * 0.4 + 0.5, 0.2 + 0.05 * u])
        target = rng.uniform(0.2, 0.8, size=(3, 8, 8))
        depth0 = rng.uniform(3.0, 5.0, size=(8, 8))
        pose = (rotation_expm([0.0, 0.01, 0.0]), np.array([0.25, 0.05, 0.02]))

        def photometric(depth_arr):
            warped, valid = geo.warp_frame(Tensor(source), Tensor(np.asarray(depth_arr)), pose, cam)
            diff = ad.tabs(warped - Tensor(target))
            mask = valid[None].repeat(3, axis=0)
            return ad.tsum(diff * Tensor(mask)) / mask.sum()

        td = Tensor(depth0, requires_grad=True)
        warped, valid = geo.warp_frame(Tensor(source), td, pose, cam)
        mask = valid[None].repeat(3, axis=0)
        loss = ad.tsum(ad.tabs(warped - Tensor(target)) * Tensor(mask)) / mask.sum()
        loss.backward()

        numeric = fd_gradient(lambda dv: photometric(dv).item(), [depth0], 0)
        analytic = td.grad
        assert rel_err(analytic[valid], numeric[valid]) <= 1e-4

    def test_differentiable_pose_path(self):
        cam = CameraModel(fx=20.0, fy=20.0, cx=3.5, cy=3.5, width=8, height=8)
        rng = np.random.default_rng(53)
        u, _ = np.meshgrid(np.arange(8.0), np.arange(8.0))
        source = np.stack([0.1 * u + 0.2, 0.05 * u + 0.1, 0.4 - 0.02 * u])
        depth = np.full((8, 8), 4.0)
        aa0 = np.array([0.0, 0.005, 0.01])
        t0 = np.array([0.2, 0.0, 0.05])

        taa = Tensor(aa0, requires_grad=True)
        tt = Tensor(t0, requires_grad=True)
        rot = geo.rotation_from_axis_angle(taa)
        warped, valid = geo.warp_frame(Tensor(source), Tensor(depth), (rot, tt), cam)
        mask = valid[None].repeat(3, axis=0)
        ad.tsum(warped * Tensor(mask)).backward()

        def f(aav, tv):
            w, _ = geo.warp_frame(Tensor(source), Tensor(depth), (rotation_expm(aav), tv), cam)
            return float(np.sum(w.data * mask))

        assert rel_err(taa.grad, fd_gradient(f, [aa0, t0], 0)) <= 1e-4
        assert rel_err(tt.grad, fd_gradient(f, [aa0, t0], 1)) <= 1e-4

