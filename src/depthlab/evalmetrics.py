"""Depth and trajectory evaluation protocol.

Median scaling resolves the unknown monocular scale (scale factor =
median ground truth / median prediction, lower-middle median for even
counts), the scaled prediction is capped, and seven standard metrics are
computed over the valid set. Trajectories are scored by absolute
trajectory error over overlapping 5-frame segments with per-segment
origin translation and a single closed-form scale fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import lower_median
from .geometry import DepthMap, PoseSE3

DEPTH_CAP = 150.0
DELTA_THRESHOLDS = (1.25, 1.25**2, 1.25**3)


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
    n_pixels: int


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


def _depth_values(x) -> np.ndarray:
    if isinstance(x, DepthMap):
        return x.values
    return np.asarray(x, dtype=np.float64)


def _valid_pixels(gt: np.ndarray) -> np.ndarray:
    """Pixels with positive, finite ground truth (rasters contain holes)."""
    return np.isfinite(gt) & (gt > 0)


def median_scale(pred, gt, cap: float = DEPTH_CAP):
    """Scale the prediction by median(gt)/median(pred) over valid pixels,
    then cap the scaled prediction. Returns (scaled_array, f_scale)."""
    if not cap > 0:  # also rejects NaN
        raise ValueError(f"median_scale: depth cap must be positive, got {cap}")
    p = _depth_values(pred)
    g = _depth_values(gt)
    if p.shape != g.shape:
        raise ValueError(f"prediction {p.shape} and ground truth {g.shape} differ in shape")
    mask = _valid_pixels(g)
    if not mask.any():
        raise ValueError("median_scale: empty valid set")
    med_pred = lower_median(p[mask])
    if med_pred == 0.0:
        raise ValueError("median_scale: predicted median is zero")
    f_scale = lower_median(g[mask]) / med_pred
    scaled = np.minimum(p * f_scale, cap)
    return scaled, f_scale


def depth_metrics(pred, gt, f_scale: float = 1.0) -> DepthEvalReport:
    """Seven-metric report over the valid set; the delta comparisons are
    strict less-than against 1.25, 1.25^2, 1.25^3."""
    p = _depth_values(pred)
    g = _depth_values(gt)
    if p.shape != g.shape:
        raise ValueError(f"prediction {p.shape} and ground truth {g.shape} differ in shape")
    mask = _valid_pixels(g)
    if not mask.any():
        raise ValueError("depth_metrics: empty valid set")
    d = p[mask]
    dstar = g[mask]
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
        n_pixels=int(d.size),
    )


def evaluate_depth(pred, gt, cap: float = DEPTH_CAP) -> DepthEvalReport:
    """Median scaling, cap, then metrics, in one call."""
    scaled, f_scale = median_scale(pred, gt, cap=cap)
    return depth_metrics(scaled, gt, f_scale=f_scale)


def ate_5frame(pred: Trajectory, gt: Trajectory) -> tuple[float, list[float]]:
    """Absolute trajectory error over overlapping 5-frame segments.

    Each window is translated to its own origin, a single least-squares
    scale aligns the predicted positions to ground truth, and the window
    scores the RMSE of the residual positions. Returns the mean over
    windows plus the per-window list.
    """
    if len(pred) != len(gt):
        raise ValueError(f"trajectory lengths differ: {len(pred)} vs {len(gt)}")
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
