"""depthlab: a desk-scale self-supervised monocular depth estimation lab.

Builds every moving part from first principles: a float64 reverse-mode
autodiff engine, pinhole geometry with a differentiable warp, low-rank
adapters over frozen layers, a small transformer depth network with
residual separable-convolution attention blocks, decomposition-based
losses, the standard depth/trajectory evaluation protocol, synthetic
scenes with exact ground truth, and a training harness with a CLI.
"""

from .autodiff import Tensor
from .geometry import CameraModel, PoseSE3
from .adapters import LowRankAdapter, make_adapter
from .nn import trainable_param_count
from .losses import SemanticMaskSet
from .evalmetrics import DepthEvalReport, Trajectory, ate_5frame, depth_metrics, median_scale

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "CameraModel",
    "PoseSE3",
    "LowRankAdapter",
    "make_adapter",
    "trainable_param_count",
    "SemanticMaskSet",
    "DepthEvalReport",
    "Trajectory",
    "ate_5frame",
    "depth_metrics",
    "median_scale",
    "__version__",
]
