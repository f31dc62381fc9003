"""Parameter-efficient adaptation of frozen linear layers.

One adapter class, LowRankAdapter, adds a trainable rank-r update to a
frozen m x n base weight W0:

* plain: h = W0 x + B A x, with trainable A (r x n) and B (m x r);
* scaled: h = W0 x + diag(b) B diag(a) A x, where a (r,) and b (m,) are
  random scaling vectors drawn once and frozen for the whole run. A plain
  adapter has no scales (both None), so it keeps exactly the parameters
  A and B.

An adapter draws its own factors: ``LowRankAdapter(scaled, m, n, rank,
seed)`` is the one constructor, and ``make_adapter(mode, m, n, rank,
seed)`` maps a mode of ``config.ADAPTER_MODES`` onto it. The seed draws
A, then a, then b, each kaiming-uniform (fan-in n, r and m), so it pins
every value, and a plain adapter's A equals the scaled one's.

B starts at zero, so a freshly made adapter leaves the base layer's
output bit-identical on the first forward pass. The low-rank branch is
added to W0 x before the frozen bias, so an adapted layer groups its sum
as the merged dense layer does, (W0 x + delta x) + b against
(W0 + delta) x + b, and with B = 0 the sum W0 x + 0 is exact. The delta
can always be merged into a plain dense layer with no inference overhead.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ADAPTER_MODES
from .nn import Module


def _kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class LowRankAdapter(Module):
    """Trainable rank-r update delta = diag(b) B diag(a) A for an m x n base
    weight, or B A for a plain adapter; B starts at zero."""

    def __init__(self, scaled: bool, m: int, n: int, rank: int, seed: int):
        if not (1 <= rank <= min(m, n)):
            raise ValueError(f"rank {rank} must satisfy 1 <= r <= min({m}, {n})")
        rng = np.random.default_rng(seed)
        self.down = Tensor(_kaiming_uniform(rng, (rank, n), fan_in=n), requires_grad=True)  # A: (r, n)
        self.up = Tensor(np.zeros((m, rank)), requires_grad=True)  # B: (m, r)
        self.scale_down = Tensor(_kaiming_uniform(rng, (rank,), fan_in=rank)) if scaled else None  # a: (r,)
        self.scale_up = Tensor(_kaiming_uniform(rng, (m,), fan_in=m)) if scaled else None  # b: (m,)

    def __call__(self, rows: Tensor) -> Tensor:
        """The low-rank branch for (rows, n) inputs; gradients reach only A and B."""
        h = ad.matmul(rows, self.down.T)
        if self.scale_down is not None:
            h = h * self.scale_down
        h = ad.matmul(h, self.up.T)
        if self.scale_up is not None:
            h = h * self.scale_up
        return h


def make_adapter(mode: str, m: int, n: int, rank: int, seed: int) -> LowRankAdapter | None:
    """The adapter of a mode in config.ADAPTER_MODES for an m x n weight: None
    for "none", else a LowRankAdapter, scaled for "scaled"; any other mode is refused."""
    if mode not in ADAPTER_MODES:
        raise ValueError(f"unknown adapter mode '{mode}' (expected {', '.join(ADAPTER_MODES)})")
    return None if mode == "none" else LowRankAdapter(mode == "scaled", m, n, rank, seed)
