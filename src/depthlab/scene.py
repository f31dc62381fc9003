"""Synthetic scenes with exact ground truth.

Surfaces are analytic (planes, spheres) with a Lambertian bandlimited
noise albedo and a world-anchored multiplicative shading field of one
fixed strength, ``SHADING_STRENGTH``, so a point keeps its color from
every viewpoint and cross-frame warping with the true depth and poses
reproduces frames up to resampling error. Rendering is
deterministic given the seed: per-pixel rays are intersected in closed
form, depth is the camera-frame Z of the nearest hit, and every pixel
carries the label of its surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evalmetrics import Trajectory, anchored_trajectory
from .geometry import CameraModel, PoseSE3

SCENE_KINDS = ("plane", "slanted_plane", "two_spheres")
SHADING_STRENGTH = 0.25  # shade = 1 - s/2 + s/2 * field, clipped to [0.3, 1]


@dataclass(frozen=True)
class Scene:
    """A camera and a sequence of frames with what is known about each.

    `trajectory` holds each frame's camera-to-world pose, as trajectory.txt
    stores it on disk. Its `indices` are the frames' own numbers, strictly
    increasing: they label trajectories, reports and file names, while
    training indexes the per-frame tuples by position. A scene read from
    disk has `reflectance` and `shading` None (only a generated scene knows
    them), and `depths` or `labels` None when its directory holds no rasters
    of that kind. Every per-frame tuple that is not None has one entry per
    pose.
    """

    cam: CameraModel
    trajectory: Trajectory  # camera-to-world, indexed by frame id
    frames: tuple[np.ndarray, ...]  # (3, H, W) in [0, 1]
    depths: tuple[np.ndarray, ...] | None  # (H, W) camera-frame Z
    labels: tuple[np.ndarray, ...] | None  # (H, W) uint8 surface ids
    reflectance: tuple[np.ndarray, ...] | None = None  # (3, H, W) albedo component
    shading: tuple[np.ndarray, ...] | None = None  # (H, W) shading component

    def __post_init__(self):
        for name in ("frames", "depths", "labels", "reflectance", "shading"):
            rasters = getattr(self, name)
            if rasters is not None and len(rasters) != len(self.trajectory):
                raise ValueError(f"scene has {len(self.trajectory)} poses but {len(rasters)} {name}")

    def __len__(self) -> int:
        return len(self.frames)


class _NoiseField:
    """Smooth bandlimited noise over world points: random cosine waves per
    output channel, grouped into octaves whose amplitude falls off with
    frequency so bilinear resampling error stays far below the photometric
    consistency budget while the image keeps strong local gradients."""

    def __init__(self, rng: np.random.Generator, channels: int, octaves, waves_per_octave: int = 4):
        freqs = []
        amps = []
        for freq, amplitude in octaves:
            for _ in range(waves_per_octave):
                direction = rng.normal(size=(channels, 3))
                direction /= np.linalg.norm(direction, axis=1, keepdims=True)
                freqs.append(direction * rng.uniform(0.6 * freq, freq, size=(channels, 1)))
                amps.append(rng.uniform(0.5, 1.0, size=channels) * amplitude / waves_per_octave)
        self.freqs = np.stack(freqs, axis=1)  # (channels, waves, 3)
        self.amps = np.stack(amps, axis=1)  # (channels, waves)
        self.phases = rng.uniform(0.0, 2.0 * np.pi, size=self.amps.shape)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """points: (3, ...) -> values (channels, ...)."""
        flat = points.reshape(3, -1)
        phase = np.einsum("cwk,kn->cwn", self.freqs, flat)
        phase += self.phases[:, :, None]
        np.cos(phase, out=phase)
        phase *= self.amps[:, :, None]
        vals = np.sum(phase, axis=1)
        return vals.reshape((self.freqs.shape[0],) + points.shape[1:])


def _camera_path(rng: np.random.Generator, n_frames: int) -> Trajectory:
    """Smooth sideways-dominant motion with forward drift over frame ids
    0..n_frames-1; camera-to-world poses, the first at the identity.
    Translation is large enough for a near-surface point to move
    several pixels more than a far one between adjacent frames, which sets
    the depth resolution the photometric objective can reach."""
    amp = rng.uniform(0.7, 0.85)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    cam_to_world = []
    for k in range(n_frames):
        s = k / max(1, n_frames - 1)
        center = np.array(
            [
                amp * np.sin(2.0 * np.pi * s + phase),
                0.4 * amp * np.sin(4.0 * np.pi * s + 1.3 * phase),
                0.3 * amp * s,
            ]
        )
        axis_angle = np.array(
            [
                0.010 * np.sin(2.0 * np.pi * s + 0.5),
                0.014 * np.sin(2.0 * np.pi * s + phase),
                0.008 * s,
            ]
        )
        cam_to_world.append(PoseSE3.from_axis_angle(axis_angle, center))
    # re-anchor so frame 0 sits exactly at the world origin; its pose is the
    # identity by construction, so snap away the float noise
    path = anchored_trajectory(Trajectory(tuple(range(n_frames)), tuple(cam_to_world)))
    return Trajectory(path.indices, (PoseSE3.identity(),) + path.poses[1:])


def _surfaces(kind: str, rng: np.random.Generator):
    """Return a list of (label, intersector) where the intersector maps
    (origins (3, N), directions (3, N)) to ray parameters (N,), inf = miss."""
    if kind not in SCENE_KINDS:
        raise ValueError(f"unknown scene kind '{kind}' (expected one of {SCENE_KINDS})")

    def plane(point, normal):
        point = np.asarray(point, dtype=np.float64)
        normal = np.asarray(normal, dtype=np.float64)
        normal = normal / np.linalg.norm(normal)

        def hit(origins, dirs):
            denom = normal @ dirs
            num = normal @ (point[:, None] - origins)
            with np.errstate(divide="ignore", invalid="ignore"):
                lam = num / denom
            lam = np.where(np.abs(denom) < 1e-12, np.inf, lam)
            return np.where(lam > 1e-6, lam, np.inf)

        return hit

    def sphere(center, radius):
        center = np.asarray(center, dtype=np.float64)

        def hit(origins, dirs):
            oc = origins - center[:, None]
            a = np.sum(dirs * dirs, axis=0)
            b = 2.0 * np.sum(oc * dirs, axis=0)
            c = np.sum(oc * oc, axis=0) - radius * radius
            disc = b * b - 4.0 * a * c
            ok = disc >= 0
            sq = np.sqrt(np.where(ok, disc, 0.0))
            lam1 = (-b - sq) / (2.0 * a)
            lam2 = (-b + sq) / (2.0 * a)
            lam = np.where(lam1 > 1e-6, lam1, lam2)
            return np.where(ok & (lam > 1e-6), lam, np.inf)

        return hit

    if kind == "plane":
        return [(0, plane([0.0, 0.0, 10.0], [0.0, 0.0, -1.0]))]
    if kind == "slanted_plane":
        normal = np.array([0.25, -0.18, -1.0])
        return [(0, plane([0.0, 0.0, 9.0], normal))]
    spheres = [
        (1, sphere([-1.1 + rng.uniform(-0.2, 0.2), -0.5 + rng.uniform(-0.2, 0.2), 5.6], 1.5)),
        (2, sphere([1.4 + rng.uniform(-0.2, 0.2), 0.7 + rng.uniform(-0.2, 0.2), 7.2], 1.8)),
    ]
    return [(0, plane([0.0, 0.0, 11.0], [0.0, 0.0, -1.0]))] + spheres


def generate_scene(kind: str, n_frames: int, seed: int, cam: CameraModel) -> Scene:
    """Render a deterministic scene with frame ids 0..n_frames-1, each
    frame its albedo times the shading field at ``SHADING_STRENGTH``."""
    if n_frames < 3:
        raise ValueError(f"need at least 3 frames, got {n_frames}")
    rng = np.random.default_rng(seed)
    surfaces = _surfaces(kind, rng)
    albedo_field = _NoiseField(
        rng, channels=3, octaves=[(0.7, 0.20), (1.3, 0.22), (2.6, 0.20), (5.2, 0.15), (8.5, 0.07)]
    )
    shade_field = _NoiseField(rng, channels=1, octaves=[(0.8, 1.0)])
    # each surface keeps its own mean color: a deliberate monocular cue, the
    # desk-scale stand-in for distinct materials
    surface_colors = {}
    for lab, _ in surfaces:
        offset = rng.uniform(-0.18, 0.18, size=3)
        surface_colors[lab] = np.clip(np.array([0.5, 0.5, 0.5]) + offset - offset.mean() * 0.5, 0.3, 0.7)
    trajectory = _camera_path(rng, n_frames)

    rays_cam = cam.pixel_rays().reshape(3, -1)
    frames, depths, labels_all, refl_all, shade_all = [], [], [], [], []
    for pose in trajectory.poses:
        origins = np.repeat(pose.translation[:, None], rays_cam.shape[1], axis=1)
        dirs = pose.rotation @ rays_cam
        best = np.full(rays_cam.shape[1], np.inf)
        # every hit ray takes its nearest surface's label; an unhit one raises below
        label = np.zeros(rays_cam.shape[1], dtype=np.uint8)
        for lab, intersect in surfaces:
            lam = intersect(origins, dirs)
            closer = lam < best
            best = np.where(closer, lam, best)
            label[closer] = lab
        if not np.all(np.isfinite(best)):
            raise RuntimeError(f"scene '{kind}' leaves rays unhit; background must cover the view")
        points = origins + best * dirs
        base = np.empty((3, rays_cam.shape[1]))
        for lab, _ in surfaces:
            base[:, label == lab] = surface_colors[lab][:, None]
        albedo = np.clip(base + albedo_field(points), 0.05, 0.95)
        shade = 1.0 - SHADING_STRENGTH * 0.5 + SHADING_STRENGTH * 0.5 * shade_field(points)[0]
        shade = np.clip(shade, 0.3, 1.0)
        image = albedo * shade[None, :]
        h, w = cam.height, cam.width
        frames.append(image.reshape(3, h, w))
        depths.append(best.reshape(h, w))  # ray parameter equals camera Z for z=1 rays
        labels_all.append(label.reshape(h, w))
        refl_all.append(albedo.reshape(3, h, w))
        shade_all.append(shade.reshape(h, w))

    return Scene(
        cam=cam,
        trajectory=trajectory,
        frames=tuple(frames),
        depths=tuple(depths),
        labels=tuple(labels_all),
        reflectance=tuple(refl_all),
        shading=tuple(shade_all),
    )

