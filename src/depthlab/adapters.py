"""Parameter-efficient adaptation of frozen linear layers.

One adapter class, LowRankAdapter, adds a trainable rank-r update to a
frozen m x n base weight W0:

* plain: h = W0 x + B A x, with trainable A (r x n) and B (m x r);
* scaled: h = W0 x + diag(b) B diag(a) A x, where a (r,) and b (m,) are
  random scaling vectors drawn once and frozen for the whole run. A plain
  adapter is the same class with both scales left out (None), so it keeps
  exactly the parameters A and B.

B starts at zero, so a freshly made adapter leaves the base layer's
output bit-identical on the first forward pass. The low-rank branch is
added to W0 x before the frozen bias, so an adapted layer groups its sum
as the merged dense layer does, (W0 x + delta x) + b against
(W0 + delta) x + b, and with B = 0 the sum W0 x + 0 is exact. The delta
can always be merged into a plain dense layer with no inference overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import Module, linear


ADAPTER_MODES = ("none", "plain", "scaled")


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
    """Dense layer whose weight and bias never receive updates."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray):
        w = np.asarray(weight, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"weight must be 2-d, got shape {w.shape}")
        self.weight = Tensor(w, requires_grad=False)
        self.bias = Tensor(bias, requires_grad=False)
        if self.bias.shape != (w.shape[0],):
            raise ValueError(f"bias shape {self.bias.shape} does not match weight {w.shape}")

    @staticmethod
    def random(m: int, n: int, rng: np.random.Generator) -> "FrozenLinear":
        bound = 1.0 / np.sqrt(n)
        w = rng.uniform(-bound, bound, size=(m, n))
        return FrozenLinear(w, rng.uniform(-bound, bound, size=m))

    def __call__(self, x: Tensor, adapter: LowRankAdapter | None = None) -> Tensor:
        """x W0^T (+ the adapter's low-rank branch) + the frozen bias."""
        if adapter is not None:
            _check_adapter_shapes(self, adapter)
        return linear(x, self.weight, self.bias, adapter)


def _check_rank(m: int, n: int, r: int) -> None:
    if not (1 <= r <= min(m, n)):
        raise ValueError(f"rank {r} must satisfy 1 <= r <= min({m}, {n})")


class LowRankAdapter(Module):
    """Trainable rank-r update delta = diag(b) B diag(a) A for an m x n base
    weight, or B A when the frozen scales a (r,) and b (m,) are left out."""

    def __init__(
        self,
        a: np.ndarray,
        b: np.ndarray,
        scale_down: np.ndarray | None = None,
        scale_up: np.ndarray | None = None,
    ):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[1]:
            raise ValueError(f"incompatible low-rank factors A {a.shape}, B {b.shape}")
        _check_rank(b.shape[0], a.shape[1], a.shape[0])
        if (scale_down is None) != (scale_up is None):
            raise ValueError("give both frozen scales (scale_down, scale_up) or neither")
        self.down = Tensor(a, requires_grad=True)  # A: (r, n)
        self.up = Tensor(b, requires_grad=True)  # B: (m, r)
        self.scale_down = None if scale_down is None else Tensor(scale_down, requires_grad=False)  # a: (r,)
        self.scale_up = None if scale_up is None else Tensor(scale_up, requires_grad=False)  # b: (m,)
        if self.scale_down is not None and self.scale_down.shape != (a.shape[0],):
            raise ValueError(f"scale_down shape {self.scale_down.shape} does not match rank {a.shape[0]}")
        if self.scale_up is not None and self.scale_up.shape != (b.shape[0],):
            raise ValueError(f"scale_up shape {self.scale_up.shape} does not match output dim {b.shape[0]}")

    def __call__(self, rows: Tensor) -> Tensor:
        """The low-rank branch for (rows, n) inputs; gradients reach only A and B."""
        h = ad.matmul(rows, self.down.T)
        if self.scale_down is not None:
            h = h * self.scale_down
        h = ad.matmul(h, self.up.T)
        if self.scale_up is not None:
            h = h * self.scale_up
        return h

    def delta(self) -> np.ndarray:
        up, down = self.up.data, self.down.data
        if self.scale_up is not None:
            up = self.scale_up.data[:, None] * up
            down = self.scale_down.data[:, None] * down
        return up @ down


def make_adapter(mode: str, m: int, n: int, rank: int, scheme: InitScheme) -> LowRankAdapter | None:
    """Adapter for an m x n weight: None for "none", else A drawn per the
    scheme and B zero, plus frozen scales a and b for "scaled".

    Draw order is fixed (A, then a, then b) so a seed pins every value; a
    plain adapter takes only the first draw, so its A equals the scaled
    one's. Fan-in: n for A, r for the rank-sized scale, m for the
    output-sized one.
    """
    if mode not in ADAPTER_MODES:
        raise ValueError(f"unknown adapter mode '{mode}' (expected {', '.join(ADAPTER_MODES)})")
    if mode == "none":
        return None
    _check_rank(m, n, rank)
    rng = np.random.default_rng(scheme.seed)
    a = scheme.draw(rng, (rank, n), fan_in=n)
    if mode == "plain":
        return LowRankAdapter(a, np.zeros((m, rank)))
    scale_down = scheme.draw(rng, (rank,), fan_in=rank)
    scale_up = scheme.draw(rng, (m,), fan_in=m)
    return LowRankAdapter(a, np.zeros((m, rank)), scale_down, scale_up)


def _check_adapter_shapes(layer: FrozenLinear, adapter: LowRankAdapter) -> None:
    m, n = layer.weight.shape
    if adapter.down.shape[1] != n or adapter.up.shape[0] != m:
        raise ValueError(
            f"adapter (A {adapter.down.shape}, B {adapter.up.shape}) does not fit layer weight {layer.weight.shape}"
        )


def merge_weights(layer: FrozenLinear, adapter: LowRankAdapter) -> FrozenLinear:
    """Fold the adapter delta into a plain dense layer (same frozen bias)."""
    _check_adapter_shapes(layer, adapter)
    return FrozenLinear(layer.weight.data + adapter.delta(), layer.bias.data.copy())
