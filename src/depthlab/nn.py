"""Minimal layer plumbing on top of the autodiff tensors.

Module tracks parameters through attribute insertion order (and through
plain lists of sub-modules), which gives deterministic naming for
checkpoints and frozen-parameter checksums.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class Module:
    def named_parameters(self, prefix: str = ""):
        """Yield (name, tensor) pairs in attribute insertion order."""
        for attr, value in vars(self).items():
            name = f"{prefix}{attr}"
            if isinstance(value, Tensor):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{i}.")
                    elif isinstance(item, Tensor):
                        yield f"{name}.{i}", item


def trainable_param_count(module: Module) -> tuple[int, int]:
    """(trainable, total) element counts over the module's parameters."""
    trainable = 0
    total = 0
    for _, p in module.named_parameters():
        total += p.size
        if p.requires_grad:
            trainable += p.size
    return trainable, total


def frozen_checksums(module: Module) -> dict[str, str]:
    """SHA-256 of every frozen parameter's bytes, for integrity checks."""
    sums = {}
    for name, p in module.named_parameters():
        if not p.requires_grad:
            sums[name] = hashlib.sha256(np.ascontiguousarray(p.data).tobytes()).hexdigest()
    return sums


def linear(x: Tensor, weight: Tensor, bias: Tensor, branch=None) -> Tensor:
    """y = x W^T (+ branch(rows)) + b for one row vector or a batch of rows.

    `branch`, when given, maps the (rows, in) input to a (rows, out) term
    that is added before the bias, so an adapted layer sums in the same
    order as W0 x + delta x + b.
    """
    x = ad.as_tensor(x)
    single = x.ndim == 1
    rows = ad.reshape(x, (1, x.shape[0])) if single else x
    y = ad.matmul(rows, weight.T)
    if branch is not None:
        y = y + branch(rows)
    y = y + bias
    return ad.reshape(y, (y.shape[1],)) if single else y


class Linear(Module):
    """Trainable affine map y = x W^T + b for row-vector inputs."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(in_features)
        self.weight = Tensor(rng.uniform(-bound, bound, size=(out_features, in_features)), requires_grad=True)
        self.bias = Tensor(rng.uniform(-bound, bound, size=out_features), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class Conv2d(Module):
    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
    ):
        fan_in = in_channels * kernel_size * kernel_size
        bound = 1.0 / np.sqrt(fan_in)
        self.weight = Tensor(
            rng.uniform(-bound, bound, size=(out_channels, in_channels, kernel_size, kernel_size)),
            requires_grad=True,
        )
        self.bias = Tensor(rng.uniform(-bound, bound, size=out_channels), requires_grad=True)
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        y = ad.conv2d(x, self.weight, stride=self.stride, padding=self.padding)
        return y + ad.reshape(self.bias, (-1, 1, 1))


class DepthwiseConv2d(Module):
    def __init__(self, channels: int, kernel_size: int, rng: np.random.Generator, padding: int = 0):
        fan_in = kernel_size * kernel_size
        bound = 1.0 / np.sqrt(fan_in)
        self.weight = Tensor(rng.uniform(-bound, bound, size=(channels, kernel_size, kernel_size)), requires_grad=True)
        self.bias = Tensor(rng.uniform(-bound, bound, size=channels), requires_grad=True)
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        y = ad.depthwise_conv2d(x, self.weight, stride=1, padding=self.padding)
        return y + ad.reshape(self.bias, (-1, 1, 1))


class LayerNorm(Module):
    """Frozen layer norm over the last axis: unit gain and zero bias, as in
    the frozen encoder it belongs to."""

    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim))
        self.bias = Tensor(np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias)
