"""Parameter-efficient adaptation of frozen linear layers.

Two adapter flavors over a frozen base weight W0:

* LowRankAdapter: h = W0 x + B A x, with trainable A (r x n) and B (m x r).
* ScaledLowRankAdapter: h = W0 x + diag(b) B diag(a) A x, where a (r,) and
  b (m,) are random scaling vectors drawn once and frozen for the whole
  training run.

B starts at zero in both, so a freshly initialized adapter leaves the base
layer's output bit-identical on the first forward pass, and the adapter
delta can always be merged into a plain dense layer with no inference
overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import Module


class InitVariant(str, Enum):
    UNIFORM = "uniform"
    KAIMING_NORMAL = "kaiming_normal"
    KAIMING_UNIFORM = "kaiming_uniform"


@dataclass(frozen=True)
class InitScheme:
    """Deterministic initialization recipe: same seed + variant, same draws."""

    variant: InitVariant = InitVariant.KAIMING_UNIFORM
    seed: int = 0

    def draw(self, rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
        if self.variant == InitVariant.UNIFORM:
            return rng.uniform(0.0, 1.0, size=shape)
        if self.variant == InitVariant.KAIMING_NORMAL:
            return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        bound = np.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape)


class FrozenLinear(Module):
    """Dense layer whose weight (and optional bias) never receives updates."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray | None = None):
        w = np.asarray(weight, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"weight must be 2-d, got shape {w.shape}")
        self.weight = Tensor(w, requires_grad=False)
        self.bias = Tensor(bias, requires_grad=False) if bias is not None else None
        if self.bias is not None and self.bias.shape != (w.shape[0],):
            raise ValueError(f"bias shape {self.bias.shape} does not match weight {w.shape}")

    @staticmethod
    def random(m: int, n: int, rng: np.random.Generator, bias: bool = True) -> "FrozenLinear":
        bound = 1.0 / np.sqrt(n)
        w = rng.uniform(-bound, bound, size=(m, n))
        b = rng.uniform(-bound, bound, size=m) if bias else None
        return FrozenLinear(w, b)

    @property
    def out_features(self) -> int:
        return self.weight.shape[0]

    @property
    def in_features(self) -> int:
        return self.weight.shape[1]

    def __call__(self, x: Tensor) -> Tensor:
        single = x.ndim == 1
        x2 = ad.reshape(x, (1, x.shape[0])) if single else x
        y = ad.matmul(x2, self.weight.T)
        if self.bias is not None:
            y = y + ad.broadcast_to(ad.reshape(self.bias, (1, self.out_features)), y.shape)
        return ad.reshape(y, (y.shape[1],)) if single else y


def _check_rank(m: int, n: int, r: int) -> None:
    if not (1 <= r <= min(m, n)):
        raise ValueError(f"rank {r} must satisfy 1 <= r <= min({m}, {n})")


class LowRankAdapter(Module):
    """Trainable rank-r update delta = B A for an m x n base weight."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[1]:
            raise ValueError(f"incompatible low-rank factors A {a.shape}, B {b.shape}")
        _check_rank(b.shape[0], a.shape[1], a.shape[0])
        self.down = Tensor(a, requires_grad=True)  # A: (r, n)
        self.up = Tensor(b, requires_grad=True)  # B: (m, r)

    @property
    def rank(self) -> int:
        return self.down.shape[0]

    def delta(self) -> np.ndarray:
        return self.up.data @ self.down.data


class ScaledLowRankAdapter(Module):
    """Low-rank update with frozen random row scales: delta = diag(b) B diag(a) A."""

    def __init__(self, a: np.ndarray, b: np.ndarray, scale_down: np.ndarray, scale_up: np.ndarray):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[1]:
            raise ValueError(f"incompatible low-rank factors A {a.shape}, B {b.shape}")
        _check_rank(b.shape[0], a.shape[1], a.shape[0])
        self.down = Tensor(a, requires_grad=True)  # A: (r, n)
        self.up = Tensor(b, requires_grad=True)  # B: (m, r)
        self.scale_down = Tensor(scale_down, requires_grad=False)  # a: (r,)
        self.scale_up = Tensor(scale_up, requires_grad=False)  # b: (m,)
        if self.scale_down.shape != (a.shape[0],):
            raise ValueError(f"scale_down shape {self.scale_down.shape} does not match rank {a.shape[0]}")
        if self.scale_up.shape != (b.shape[0],):
            raise ValueError(f"scale_up shape {self.scale_up.shape} does not match output dim {b.shape[0]}")

    @property
    def rank(self) -> int:
        return self.down.shape[0]

    def delta(self) -> np.ndarray:
        return (self.scale_up.data[:, None] * self.up.data) @ (self.scale_down.data[:, None] * self.down.data)


def init_scaled_adapter(m: int, n: int, r: int, scheme: InitScheme) -> ScaledLowRankAdapter:
    """Draw A and the frozen scales per the scheme; B starts at zero.

    Draw order is fixed (A, then a, then b) so a seed pins every value.
    Fan-in: n for A, r for the rank-sized scale, m for the output-sized one.
    """
    _check_rank(m, n, r)
    rng = np.random.default_rng(scheme.seed)
    a = scheme.draw(rng, (r, n), fan_in=n)
    scale_down = scheme.draw(rng, (r,), fan_in=r)
    scale_up = scheme.draw(rng, (m,), fan_in=m)
    return ScaledLowRankAdapter(a, np.zeros((m, r)), scale_down, scale_up)


def init_plain_adapter(m: int, n: int, r: int, scheme: InitScheme) -> LowRankAdapter:
    """Plain low-rank adapter: A drawn per the scheme, B zero."""
    _check_rank(m, n, r)
    rng = np.random.default_rng(scheme.seed)
    a = scheme.draw(rng, (r, n), fan_in=n)
    return LowRankAdapter(a, np.zeros((m, r)))


def _check_adapter_shapes(layer: FrozenLinear, adapter) -> None:
    m, n = layer.weight.shape
    if adapter.down.shape[1] != n or adapter.up.shape[0] != m:
        raise ValueError(
            f"adapter (A {adapter.down.shape}, B {adapter.up.shape}) does not fit layer weight {layer.weight.shape}"
        )


def lora_forward(layer: FrozenLinear, adapter: LowRankAdapter, x: Tensor) -> Tensor:
    """h = W0 x + B (A x), plus the layer's frozen bias if present."""
    _check_adapter_shapes(layer, adapter)
    x = ad.as_tensor(x)
    single = x.ndim == 1
    x2 = ad.reshape(x, (1, x.shape[0])) if single else x
    base = ad.matmul(x2, layer.weight.T)
    delta = ad.matmul(ad.matmul(x2, adapter.down.T), adapter.up.T)
    y = base + delta
    if layer.bias is not None:
        y = y + ad.broadcast_to(ad.reshape(layer.bias, (1, layer.out_features)), y.shape)
    return ad.reshape(y, (y.shape[1],)) if single else y


def scaled_lora_forward(layer: FrozenLinear, adapter: ScaledLowRankAdapter, x: Tensor) -> Tensor:
    """h = W0 x + diag(b) B diag(a) (A x); gradients reach only A and B."""
    _check_adapter_shapes(layer, adapter)
    x = ad.as_tensor(x)
    single = x.ndim == 1
    x2 = ad.reshape(x, (1, x.shape[0])) if single else x
    rows = x2.shape[0]
    r = adapter.rank
    m = layer.out_features
    base = ad.matmul(x2, layer.weight.T)
    h = ad.matmul(x2, adapter.down.T)
    h = h * ad.broadcast_to(ad.reshape(adapter.scale_down, (1, r)), (rows, r))
    h = ad.matmul(h, adapter.up.T)
    h = h * ad.broadcast_to(ad.reshape(adapter.scale_up, (1, m)), (rows, m))
    y = base + h
    if layer.bias is not None:
        y = y + ad.broadcast_to(ad.reshape(layer.bias, (1, m)), y.shape)
    return ad.reshape(y, (y.shape[1],)) if single else y


def adapter_forward(layer: FrozenLinear, adapter, x: Tensor) -> Tensor:
    """Dispatch on adapter flavor; None means the plain frozen layer."""
    if adapter is None:
        return layer(x)
    if isinstance(adapter, ScaledLowRankAdapter):
        return scaled_lora_forward(layer, adapter, x)
    return lora_forward(layer, adapter, x)


def merge_weights(layer: FrozenLinear, adapter) -> FrozenLinear:
    """Fold the adapter delta into a plain dense layer (same frozen bias)."""
    _check_adapter_shapes(layer, adapter)
    merged = layer.weight.data + adapter.delta()
    bias = layer.bias.data.copy() if layer.bias is not None else None
    return FrozenLinear(merged, bias)
