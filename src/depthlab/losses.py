"""Training objective: structural similarity, reflectance consistency,
reconstruction fidelity, warped-synthesis photometric error, mask-guided
depth smoothness, and their weighted total.

All terms are differentiable tensor expressions. SSIM and the photometric
mix are (H, W) maps; a scalar term is a ``masked_pixel_mean`` of a map over
a bool validity mask from the warp, or over all pixels. Masks and integer
label rasters enter as constants; only neighbour equality of labels is
read. Each loss is zero on its fixed point: identical inputs, or depth
constant within every label.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

SSIM_C1 = 0.01**2  # unit dynamic range
SSIM_C2 = 0.03**2
ALPHA = 0.85  # SSIM share of the photometric SSIM/L1 mix, as in Monodepth2

# the objective's terms, in the order they are checked, summed and logged
LOSS_TERMS = ("reconstruction", "reflectance", "synthesis", "smoothness")
# the weights of all terms but smoothness, fixed; total_loss is given the last, TrainConfig.w_smoothness
FIXED_WEIGHTS = {"reconstruction": 0.2, "reflectance": 0.2, "synthesis": 1.0}


def _as_image(x) -> Tensor:
    t = ad.as_tensor(x)
    if t.ndim != 3:
        raise ValueError(f"image must be (C, H, W), got {t.shape}")
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


def ssim(x, y) -> Tensor:
    """Per-pixel structural similarity map, (H, W).

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

    return Tensor._from_op(np.sum(score, axis=0) / c, (x, y), bw)


def masked_pixel_mean(pixel_map: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Mean of an (H, W) map over the pixels a bool mask marks, or over all
    pixels when mask is None."""
    if mask is None:
        return ad.tmean(pixel_map)
    if mask.dtype != bool or mask.shape != pixel_map.shape:
        raise ValueError(f"mask must be bool of shape {pixel_map.shape}, got {mask.dtype} {mask.shape}")
    count = np.count_nonzero(mask)
    if count == 0:
        raise ValueError("empty validity mask")
    return ad.tsum(ad.mask_fill(pixel_map, ~mask, 0.0)) / count


def reflectance_consistency_loss(r_t, r_warped, mask: np.ndarray) -> Tensor:
    """Mean absolute reflectance difference between the target frame and the
    warped source frame, over the pixels the required bool (H, W) mask, the
    warp's validity, marks valid."""
    r_t = _as_image(r_t)
    r_warped = _as_image(r_warped)
    if r_t.shape != r_warped.shape:
        raise ValueError(f"reflectance shapes differ: {r_t.shape} vs {r_warped.shape}")
    return masked_pixel_mean(ad.tmean(ad.tabs(r_t - r_warped), axis=0), mask)


def photometric(a, b) -> Tensor:
    """The (H, W) map ALPHA*(1-SSIM)/2 + (1-ALPHA)*L1 of two images, the L1
    part averaged over channels."""
    a = _as_image(a)
    b = _as_image(b)
    ssim_map = ssim(a, b)
    l1_map = ad.tmean(ad.tabs(a - b), axis=0)
    return ALPHA * ((1.0 - ssim_map) * 0.5) + (1.0 - ALPHA) * l1_map


def reconstruction_loss(image_hat, image) -> Tensor:
    """Fidelity of one frame's decomposition reconstruction: the mean of its
    photometric map."""
    return masked_pixel_mean(photometric(image_hat, image))


# the photometric map of a warped-and-relit source frame against the target;
# a name of its own so bench/spans.py can time synthesis apart from reconstruction
synthesis_loss = photometric


def masked_smoothness_loss(depth, image, labels: np.ndarray) -> Tensor:
    """Edge-aware depth smoothness, restricted to neighbor pairs that share a
    semantic label.

    labels: an integer raster the shape of depth, read only for neighbour equality.
    Forward differences; a pixel's x-term counts only when its right
    neighbor carries the same label (y analogous). The image gradient
    magnitude is averaged over color channels. The result is the mean over
    contributing terms.
    """
    d = ad.as_tensor(depth)
    if d.ndim != 2:
        raise ValueError(f"depth must be 2-d, got {d.shape}")
    img = _as_image(image)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be an integer raster, got {labels.dtype}")
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


def total_loss(terms: dict[str, Tensor], w_smoothness: float) -> Tensor:
    """Weighted sum of the ``LOSS_TERMS``, left to right: each term by its
    ``FIXED_WEIGHTS`` entry, smoothness by ``w_smoothness``, the config's;
    a non-finite term raises ``TrainingDiverged`` naming it."""
    for name in LOSS_TERMS:
        if not np.isfinite(terms[name].data).all():
            raise ad.TrainingDiverged(f"loss term '{name}' is not finite")
    weights = {**FIXED_WEIGHTS, "smoothness": w_smoothness}
    weighted = [weights[name] * terms[name] for name in LOSS_TERMS]
    return sum(weighted[1:], weighted[0])
