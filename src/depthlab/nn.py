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
    """SHA-256 of every frozen parameter's bytes, for integrity checks. The
    hash reads each array's buffer in place, without a bytes copy."""
    sums = {}
    for name, p in module.named_parameters():
        if not p.requires_grad:
            sums[name] = hashlib.sha256(np.ascontiguousarray(p.data)).hexdigest()
    return sums


class Linear(Module):
    """Affine map y = x W^T + b for one row vector or a batch of rows.

    A frozen layer's weight and bias never receive updates. An adapter
    (``adapters.LowRankAdapter``), when given, adds its low-rank branch
    before the bias, so an adapted layer sums in the same order as
    W0 x + delta x + b. An adapter that does not fit the weight is refused
    by the ops themselves: ``matmul`` on the input side ("matmul inner
    extents differ") and ``affine`` on the output side ("affine branch
    shape").
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, frozen: bool = False):
        bound = 1.0 / np.sqrt(in_features)
        self.weight = Tensor(rng.uniform(-bound, bound, size=(out_features, in_features)), requires_grad=not frozen)
        self.bias = Tensor(rng.uniform(-bound, bound, size=out_features), requires_grad=not frozen)

    def __call__(self, x: Tensor, adapter=None) -> Tensor:
        x = ad.as_tensor(x)
        single = x.ndim == 1
        rows = ad.reshape(x, (1, x.shape[0])) if single else x
        y = ad.affine(rows, self.weight, self.bias, None if adapter is None else adapter(rows))
        return ad.reshape(y, (y.shape[1],)) if single else y


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
        return ad.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class DepthwiseConv2d(Module):
    def __init__(self, channels: int, kernel_size: int, rng: np.random.Generator, padding: int = 0):
        fan_in = kernel_size * kernel_size
        bound = 1.0 / np.sqrt(fan_in)
        self.weight = Tensor(rng.uniform(-bound, bound, size=(channels, kernel_size, kernel_size)), requires_grad=True)
        self.bias = Tensor(rng.uniform(-bound, bound, size=channels), requires_grad=True)
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return ad.depthwise_conv2d(x, self.weight, self.bias, padding=self.padding)

