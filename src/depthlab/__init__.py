"""depthlab: a desk-scale self-supervised monocular depth estimation lab.

Builds every moving part from first principles: a float64 reverse-mode
autodiff engine, pinhole geometry with a differentiable warp, low-rank
adapters over frozen layers, a small transformer depth network with
residual separable-convolution attention blocks, decomposition-based
losses, the standard depth/trajectory evaluation protocol, synthetic
scenes with exact ground truth, and a training harness with a CLI.

The interface is the ``depthlab`` command (``depthlab.cli``) and the
submodules, imported by name: the package itself exports nothing.
"""
