"""Training objective: structural similarity, reflectance consistency,
reconstruction fidelity, warped-synthesis photometric error, mask-guided
depth smoothness, and their weighted total.

All terms are differentiable tensor expressions. Validity masks (from the
warp) and semantic label rasters enter as constants. Each loss is zero on
its fixed point: identical inputs, or depth constant within every label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

SSIM_C1 = 0.01**2  # unit dynamic range
SSIM_C2 = 0.03**2

# the objective's terms, in the order they are checked, summed and logged
LOSS_TERMS = ("reconstruction", "reflectance", "synthesis", "smoothness")


@dataclass(frozen=True)
class SemanticMaskSet:
    """Integer label raster; every pixel belongs to exactly one mask."""

    labels: np.ndarray

    def __post_init__(self):
        lab = np.asarray(self.labels)
        if lab.ndim != 2 or not np.issubdtype(lab.dtype, np.integer):
            raise ValueError("labels must be a 2-d integer raster")
        if lab.min() < 0:
            raise ValueError("labels must be nonnegative")
        object.__setattr__(self, "labels", lab)


def _as_image(x) -> Tensor:
    t = ad.as_tensor(x)
    if t.ndim == 2:
        t = ad.reshape(t, (1,) + t.shape)
    if t.ndim != 3:
        raise ValueError(f"image must be (C, H, W) or (H, W), got {t.shape}")
    return t


def _box_means(arrays) -> list[np.ndarray]:
    """3x3 zero-padded mean of every channel of each (C, H, W) array, same
    size. The zero-padded box is symmetric, so it is also its own adjoint.

    Separable: per array, sum three columns, then three rows, then divide
    by 9. One pass per array keeps every temporary small: on five 3x64x64
    arrays this takes about half the time of a 3x3 depthwise convolution
    (2-core x86 host)."""
    means = []
    for a in arrays:
        c, h, w = a.shape
        padded = np.zeros((c, h + 2, w + 2))
        padded[:, 1:-1, 1:-1] = a
        cols = padded[:, :, :-2] + padded[:, :, 1:-1]
        cols += padded[:, :, 2:]
        box = cols[:, :-2] + cols[:, 1:-1]
        box += cols[:, 2:]
        box /= 9.0
        means.append(box)
    return means


def _ssim_parts(xd: np.ndarray, yd: np.ndarray):
    """Local means, SSIM factors and per-channel score of two (C, H, W)
    arrays: mu_x, mu_y, a1, a2, b1, b2 and a1*a2 / (b1*b2)."""
    mu_x, mu_y, xx, yy, xy = _box_means([xd, yd, xd * xd, yd * yd, xd * yd])
    var_x = xx - mu_x * mu_x
    var_y = yy - mu_y * mu_y
    cov = xy - mu_x * mu_y
    a1 = 2.0 * mu_x * mu_y + SSIM_C1
    a2 = 2.0 * cov + SSIM_C2
    b1 = mu_x * mu_x + mu_y * mu_y + SSIM_C1
    b2 = var_x + var_y + SSIM_C2
    return mu_x, mu_y, a1, a2, b1, b2, (a1 * a2) / (b1 * b2)


def ssim(x, y) -> tuple[Tensor, Tensor]:
    """Mean structural similarity and the per-pixel map.

    Local statistics come from 3x3 zero-padded mean pooling with C1 = 1e-4
    and C2 = 9e-4 for a unit dynamic range. Channels are scored separately
    and averaged into an (H, W) map. Symmetric in its arguments.

    The map is one autodiff op. Its closure keeps only the two input arrays:
    backward recomputes the local statistics and runs the analytic gradient
    back through the box, for the operands that need a gradient.
    """
    x = _as_image(x)
    y = _as_image(y)
    if x.shape != y.shape:
        raise ValueError(f"ssim operands differ in shape: {x.shape} vs {y.shape}")
    xd, yd = x.data, y.data
    c = x.shape[0]
    score = _ssim_parts(xd, yd)[-1]
    x_grad, y_grad = x.requires_grad, y.requires_grad

    def bw(g):
        mu_x, mu_y, a1, a2, b1, b2, score = _ssim_parts(xd, yd)
        # d score / d(box of x^2) = d score / d(box of y^2) = -score/b2,
        # d score / d(box of xy) = 2*a1 / (b1*b2)
        gs = g / c
        gd = gs / (b1 * b2)
        g_sq = -gs * score / b2
        g_xy = 2.0 * a1 * gd
        # d score / d mu_x = 2*mu_y*(a2 - a1)/(b1*b2) - 2*mu_x*score*(1/b1 - 1/b2),
        # and mu_y alike with the means swapped
        g_mu_cross = 2.0 * (a2 - a1) * gd
        g_mu_self = 2.0 * gs * score * (1.0 / b1 - 1.0 / b2)
        parts = [g_sq, g_xy]
        if x_grad:
            parts.append(mu_y * g_mu_cross - mu_x * g_mu_self)
        if y_grad:
            parts.append(mu_x * g_mu_cross - mu_y * g_mu_self)
        # the box is its own adjoint
        boxed = _box_means(parts)
        box_sq, box_xy = boxed[0], boxed[1]
        gx = boxed[2] + 2.0 * xd * box_sq + yd * box_xy if x_grad else None
        gy = boxed[-1] + 2.0 * yd * box_sq + xd * box_xy if y_grad else None
        return (gx, gy)

    pixel_map = Tensor._from_op(np.sum(score, axis=0) / c, (x, y), bw)
    return ad.tmean(pixel_map), pixel_map


def _masked_pixel_mean(per_pixel: Tensor, validity: np.ndarray | None) -> Tensor:
    if validity is None:
        return ad.tmean(per_pixel)
    mask = np.asarray(validity, dtype=np.float64)
    if mask.shape != per_pixel.shape:
        raise ValueError(f"validity shape {mask.shape} does not match {per_pixel.shape}")
    count = float(mask.sum())
    if count == 0:
        raise ValueError("empty validity mask")
    return ad.tsum(per_pixel * Tensor(mask)) / count


def reflectance_consistency_loss(r_t, r_warped, validity=None) -> Tensor:
    """Mean absolute reflectance difference between the target frame and the
    warped source frame, over valid pixels."""
    r_t = _as_image(r_t)
    r_warped = _as_image(r_warped)
    if r_t.shape != r_warped.shape:
        raise ValueError(f"reflectance shapes differ: {r_t.shape} vs {r_warped.shape}")
    per_pixel = ad.tmean(ad.tabs(r_t - r_warped), axis=0)
    return _masked_pixel_mean(per_pixel, validity)


def photometric(a, b, alpha: float, validity=None, per_pixel: bool = False) -> Tensor:
    """The SSIM/L1 mix alpha*(1-SSIM)/2 + (1-alpha)*L1 of two images.

    Per pixel it is an (H, W) map with the channels averaged. Otherwise each
    part is first averaged over the valid pixels (all when validity is
    None) and the two means are mixed.
    """
    a = _as_image(a)
    b = _as_image(b)
    _, ssim_part = ssim(a, b)
    l1_part = ad.tmean(ad.tabs(a - b), axis=0)
    if not per_pixel:
        ssim_part = _masked_pixel_mean(ssim_part, validity)
        l1_part = _masked_pixel_mean(l1_part, validity)
    return alpha * ((1.0 - ssim_part) * 0.5) + (1.0 - alpha) * l1_part


def reconstruction_loss(target_hat, target, source_hat, source, alpha: float) -> Tensor:
    """Fidelity of the decomposition reconstructions for a frame pair: the
    target branch plus the source branch, each an SSIM/L1 mix."""
    return photometric(target_hat, target, alpha) + photometric(source_hat, source, alpha)


def synthesis_loss(warped_hat, target, alpha: float, validity=None, per_pixel: bool = False) -> Tensor:
    """SSIM/L1 mix between the warped-and-relit source frame and the target:
    over valid pixels, or the (H, W) map when per_pixel."""
    return photometric(warped_hat, target, alpha, validity, per_pixel)


def masked_smoothness_loss(depth, image, masks: SemanticMaskSet) -> Tensor:
    """Edge-aware depth smoothness, restricted to neighbor pairs that share a
    semantic label.

    Forward differences; a pixel's x-term counts only when its right
    neighbor carries the same label (y analogous). The image gradient
    magnitude is averaged over color channels. The result is the mean over
    contributing terms.
    """
    d = ad.as_tensor(depth)
    if d.ndim != 2:
        raise ValueError(f"depth must be 2-d, got {d.shape}")
    img = _as_image(image)
    labels = masks.labels
    if labels.shape != d.shape or img.shape[1:] != d.shape:
        raise ValueError(f"shape mismatch: depth {d.shape}, image {img.shape}, labels {labels.shape}")
    h, w = d.shape

    same_x = (labels[:, 1:] == labels[:, :-1]).astype(np.float64)
    same_y = (labels[1:, :] == labels[:-1, :]).astype(np.float64)
    n_terms = float(same_x.sum() + same_y.sum())
    if n_terms == 0:
        return Tensor(0.0)

    img_dx = np.mean(np.abs(img.data[:, :, 1:] - img.data[:, :, :-1]), axis=0)
    img_dy = np.mean(np.abs(img.data[:, 1:, :] - img.data[:, :-1, :]), axis=0)

    d_dx = ad.tabs(ad.slice_axis(d, 1, 1, w) - ad.slice_axis(d, 1, 0, w - 1))
    d_dy = ad.tabs(ad.slice_axis(d, 0, 1, h) - ad.slice_axis(d, 0, 0, h - 1))

    term_x = ad.tsum(d_dx * Tensor(np.exp(-img_dx) * same_x))
    term_y = ad.tsum(d_dy * Tensor(np.exp(-img_dy) * same_y))
    return (term_x + term_y) / n_terms


def total_loss(terms: dict[str, Tensor], weights: dict[str, float]) -> Tensor:
    """Weighted sum of the ``LOSS_TERMS``, left to right; a non-finite term
    raises ``TrainingDiverged`` naming it."""
    for name in LOSS_TERMS:
        if not np.isfinite(terms[name].data).all():
            raise ad.TrainingDiverged(f"loss term '{name}' is not finite")
    weighted = [weights[name] * terms[name] for name in LOSS_TERMS]
    return sum(weighted[1:], weighted[0])
