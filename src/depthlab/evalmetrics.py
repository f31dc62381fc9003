"""Depth and trajectory evaluation protocol.

One scorer, ``evaluate_depth``, rates a depth map: median scaling resolves
the unknown monocular scale (scale factor = median ground truth / median
prediction over the valid set, lower-middle median for even counts), the
scaled prediction is capped, and seven standard metrics are computed over
the valid set. Trajectories are scored by absolute trajectory error over
overlapping 5-frame segments with per-segment origin translation and a
single closed-form scale fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PoseSE3

DEPTH_CAP = 150.0
DELTA_THRESHOLDS = (1.25, 1.25**2, 1.25**3)
# the seven metrics a DepthEvalReport holds, in the order they are printed
DEPTH_METRICS = ("abs_rel", "sq_rel", "rmse", "rmse_log", "delta1", "delta2", "delta3")


def lower_median(values: np.ndarray) -> float:
    """Median of a flat array under the lower-middle rule for even counts."""
    flat = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if flat.size == 0:
        raise ValueError("median of an empty array")
    return float(flat[(flat.size - 1) // 2])


@dataclass(frozen=True)
class DepthEvalReport:
    abs_rel: float
    sq_rel: float
    rmse: float
    rmse_log: float
    delta1: float
    delta2: float
    delta3: float
    f_scale: float


@dataclass(frozen=True)
class Trajectory:
    """Ordered camera poses with strictly increasing frame indices."""

    indices: tuple[int, ...]
    poses: tuple[PoseSE3, ...]

    def __post_init__(self):
        if len(self.indices) != len(self.poses):
            raise ValueError("indices and poses differ in length")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("frame indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.poses)

    def positions(self) -> np.ndarray:
        return np.stack([p.translation for p in self.poses])


def evaluate_depth(pred, gt) -> DepthEvalReport:
    """Score one predicted depth map against its ground truth.

    Over the valid set (positive, finite ground truth) the prediction is
    scaled by f_scale = median(gt) / median(pred), lower-middle medians,
    and capped at DEPTH_CAP; the report holds the seven metrics of the
    scaled prediction and f_scale. The delta comparisons are strict
    less-than against 1.25, 1.25^2, 1.25^3. An empty valid set and a zero
    predicted median are refused."""
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.shape != g.shape:
        raise ValueError(f"prediction {p.shape} and ground truth {g.shape} differ in shape")
    mask = np.isfinite(g) & (g > 0)  # ground-truth rasters contain holes
    if not mask.any():
        raise ValueError("evaluate_depth: empty valid set")
    d, dstar = p[mask], g[mask]
    med_pred = lower_median(d)
    if med_pred == 0.0:
        raise ValueError("evaluate_depth: predicted median is zero")
    f_scale = lower_median(dstar) / med_pred
    d = np.minimum(d * f_scale, DEPTH_CAP)
    err = d - dstar
    ratio = np.maximum(d / dstar, dstar / d)
    return DepthEvalReport(
        abs_rel=float(np.mean(np.abs(err) / dstar)),
        sq_rel=float(np.mean(err**2 / dstar)),
        rmse=float(np.sqrt(np.mean(err**2))),
        rmse_log=float(np.sqrt(np.mean((np.log(d) - np.log(dstar)) ** 2))),
        delta1=float(np.mean(ratio < DELTA_THRESHOLDS[0])),
        delta2=float(np.mean(ratio < DELTA_THRESHOLDS[1])),
        delta3=float(np.mean(ratio < DELTA_THRESHOLDS[2])),
        f_scale=float(f_scale),
    )


def anchored_trajectory(traj: Trajectory) -> Trajectory:
    """A camera-to-world trajectory re-expressed in the frame of its first
    camera, which then sits at the identity."""
    base = traj.poses[0].inverse()
    return Trajectory(traj.indices, tuple(base.compose(p) for p in traj.poses))


def ate_5frame(pred: Trajectory, gt: Trajectory) -> tuple[float, list[float]]:
    """Absolute trajectory error over overlapping 5-frame segments.

    Each window is translated to its own origin, a single least-squares
    scale aligns the predicted positions to ground truth, and the window
    scores the RMSE of the residual positions. Returns the mean over
    windows plus the per-window list.
    """
    if len(pred) != len(gt):
        raise ValueError(f"trajectory lengths differ: {len(pred)} vs {len(gt)}")
    if pred.indices != gt.indices:
        raise ValueError(f"trajectory frame indices differ: {pred.indices} vs {gt.indices}")
    if len(pred) < 5:
        raise ValueError(f"need at least 5 poses, got {len(pred)}")
    p = pred.positions()
    g = gt.positions()
    segments: list[float] = []
    for start in range(len(pred) - 4):
        pw = p[start : start + 5] - p[start]
        gw = g[start : start + 5] - g[start]
        denom = float(np.sum(pw * pw))
        scale = float(np.sum(gw * pw)) / denom if denom > 0 else 1.0
        residual = gw - scale * pw
        segments.append(float(np.sqrt(np.mean(np.sum(residual**2, axis=1)))))
    return float(np.mean(segments)), segments
