"""Pinhole camera model, rigid SE(3) poses, and the differentiable warp.

The warp chain (backproject -> rigid transform -> project -> bilinear
sample) synthesizes a target view from a source frame, a predicted depth
map, and a target-to-source (rotation, translation) pair, and is
differentiable with respect to the depth, the pose (when given as
tensors), and the source. ``rotation_from_axis_angle`` is the one
Rodrigues map: the pose head's and, without a graph, ``PoseSE3``'s.

Conventions: integer pixel coordinates address pixel centers; depth is the
camera-frame Z coordinate; poses map target-frame points into the source
frame. Camera-frame points with Z <= 1e-6 after the transform are marked
invalid via a sentinel coordinate instead of being clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

Z_EPS = 1e-6
_ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class CameraModel:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image size must be at least 1x1 pixel, got {self.width}x{self.height}")
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValueError(f"focal lengths must be finite and positive, got fx={self.fx}, fy={self.fy}")
        if not (0 <= self.cx < self.width) or not (0 <= self.cy < self.height):
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside image {self.width}x{self.height}"
            )

    def pixel_rays(self) -> np.ndarray:
        """K^-1 applied to every homogeneous pixel center, shape (3, H, W).

        Computed on the first call and cached on the camera; every call
        returns that one read-only array."""
        rays = self.__dict__.get("_rays")
        if rays is None:
            u, v = np.meshgrid(np.arange(self.width, dtype=np.float64), np.arange(self.height, dtype=np.float64))
            rays = np.stack([(u - self.cx) / self.fx, (v - self.cy) / self.fy, np.ones_like(u)])
            rays.flags.writeable = False
            object.__setattr__(self, "_rays", rays)
        return rays


@dataclass(frozen=True)
class PoseSE3:
    """Rigid transform x -> R x + t with an orthonormality guarantee."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        # written so that a NaN, for which every comparison is False, fails
        if not np.max(np.abs(r.T @ r - np.eye(3))) <= _ORTHO_TOL:
            raise ValueError("rotation is not orthonormal within 1e-9")
        if not abs(np.linalg.det(r) - 1.0) <= _ORTHO_TOL:
            raise ValueError("rotation determinant is not 1 within 1e-9")
        if not np.all(np.isfinite(t)):
            raise ValueError(f"translation must be finite, got {t}")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "PoseSE3":
        return PoseSE3(np.eye(3), np.zeros(3))

    @staticmethod
    def from_axis_angle(axis_angle, translation) -> "PoseSE3":
        with ad.no_grad():
            rotation = rotation_from_axis_angle(Tensor(axis_angle))
        return PoseSE3(rotation.data, translation)

    def compose(self, other: "PoseSE3") -> "PoseSE3":
        """self after other: x -> self(other(x))."""
        return PoseSE3(self.rotation @ other.rotation, self.rotation @ other.translation + self.translation)

    def inverse(self) -> "PoseSE3":
        rt = self.rotation.T
        return PoseSE3(rt, -rt @ self.translation)


def rotation_to_quaternion(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a rotation matrix, w >= 0."""
    r = np.asarray(r, dtype=np.float64)
    tr = np.trace(r)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(r)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(r[i, i] - r[j, j] - r[k, k] + 1.0) * 2.0
        q = np.empty(4)
        q[0] = (r[k, j] - r[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (r[j, i] + r[i, j]) / s
        q[1 + k] = (r[k, i] + r[i, k]) / s
    q /= np.linalg.norm(q)
    return q if q[0] >= 0 else -q


def quaternion_to_rotation(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a (w, x, y, z) quaternion."""
    w, x, y, z = np.asarray(q, dtype=np.float64) / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _depth_tensor(depth) -> Tensor:
    t = ad.as_tensor(depth)
    if t.ndim != 2:
        raise ValueError(f"depth must be 2-d, got shape {t.shape}")
    if np.any(t.data <= 0):
        raise ValueError("depth values must be positive")
    return t


# -- differentiable rotation from axis-angle ----------------------------------------------------

# the skew matrix K(w) = [[0, -z, y], [z, 0, -x], [-y, x, 0]], row-major, as a linear map of w = (x, y, z)
_SKEW_BASIS = np.array(
    [[0, 0, 0], [0, 0, -1], [0, 1, 0], [0, 0, 1], [0, 0, 0], [-1, 0, 0], [0, -1, 0], [1, 0, 0], [0, 0, 0]],
    dtype=np.float64,
)


def rotation_from_axis_angle(axis_angle: Tensor) -> Tensor:
    """Differentiable Rodrigues rotation from an axis-angle 3-vector tensor.

    Uses the series form of sin(t)/t and (1-cos t)/t^2 below t=1e-4, so the
    map stays smooth through zero rotation.
    """
    w = ad.as_tensor(axis_angle)
    if w.shape != (3,):
        raise ValueError(f"axis-angle must have shape (3,), got {w.shape}")
    theta_sq = ad.tsum(w * w)
    k = ad.reshape(ad.matmul(Tensor(_SKEW_BASIS), ad.reshape(w, (3, 1))), (3, 3))
    k2 = ad.matmul(k, k)
    if theta_sq.item() < 1e-8:
        # sin(t)/t = 1 - t^2/6 + t^4/120,  (1-cos t)/t^2 = 1/2 - t^2/24 + t^4/720
        a = 1.0 - theta_sq * (1.0 / 6.0) + theta_sq * theta_sq * (1.0 / 120.0)
        b = 0.5 - theta_sq * (1.0 / 24.0) + theta_sq * theta_sq * (1.0 / 720.0)
    else:
        theta = ad.tsqrt(theta_sq)
        a = ad.tsin(theta) / theta
        b = (1.0 - ad.tcos(theta)) / theta_sq
    eye = Tensor(np.eye(3))
    return eye + a * k + b * k2


# -- projection chain ------------------------------------------------------------------------------


def backproject(depth, cam: CameraModel) -> Tensor:
    """Lift every pixel to a camera-frame 3-D point: depth * K^-1 (u, v, 1)."""
    d = _depth_tensor(depth)
    h, w = d.shape
    if (h, w) != (cam.height, cam.width):
        raise ValueError(f"depth shape {d.shape} does not match camera {cam.height}x{cam.width}")
    rays = Tensor(cam.pixel_rays())
    return rays * ad.reshape(d, (1, h, w))


def project(points: Tensor, cam: CameraModel) -> Tensor:
    """Pinhole projection of (3, H, W) camera-frame points to a sampling grid.

    Points with Z <= 1e-6 receive a sentinel coordinate far outside the
    image so downstream sampling marks them invalid.
    """
    points = ad.as_tensor(points)
    if points.ndim != 3 or points.shape[0] != 3:
        raise ValueError(f"project needs (3, H, W) points, got {points.shape}")
    xy = ad.slice_axis(points, 0, 0, 2)
    z = ad.slice_axis(points, 0, 2, 3)
    behind = points.data[2:3] <= Z_EPS
    z_safe = ad.mask_fill(z, behind, 1.0)
    grid = xy / z_safe * np.array([[[cam.fx]], [[cam.fy]]]) + np.array([[[cam.cx]], [[cam.cy]]])
    return ad.mask_fill(grid, np.broadcast_to(behind, grid.shape), -float(max(cam.width, cam.height) + 2))


def warp_frame(source, depth, pose_t_to_s, cam: CameraModel) -> tuple[Tensor, np.ndarray]:
    """Synthesize the target view by sampling the source frame.

    source: (C, H, W) tensor; depth: target-frame depth (tensor or array);
    pose_t_to_s: the (rotation, translation) pair, (3, 3) and (3,), as
    arrays or as tensors for a differentiable pose (``PoseNet``'s output).
    Returns (synthesized, validity), validity the sampler's read-only bool
    (H, W) array.
    """
    source = ad.as_tensor(source)
    rotation, translation = pose_t_to_s
    if source.ndim != 3:
        raise ValueError(f"source must be (C, H, W), got {source.shape}")
    if source.shape[1] != cam.height or source.shape[2] != cam.width:
        raise ValueError(f"source {source.shape} does not match camera {cam.height}x{cam.width}")
    h, w = cam.height, cam.width
    points = ad.reshape(backproject(depth, cam), (3, h * w))
    moved = ad.matmul(rotation, points) + ad.reshape(translation, (3, 1))
    grid = project(ad.reshape(moved, (3, h, w)), cam)
    return ad.bilinear_sample(source, grid)
