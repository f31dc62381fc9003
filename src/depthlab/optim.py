"""Bias-corrected Adam over trainable leaf tensors.

Frozen tensors never enter the optimizer; a non-finite gradient rejects
the whole step, before any update, with ``TrainingDiverged`` naming the
offending parameter.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, TrainingDiverged


def adam_update(value, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam step for a single array; returns (value, m, v)."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return value - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class Adam:
    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        named = []
        for i, p in enumerate(params):
            name, tensor = p if isinstance(p, tuple) else (f"param{i}", p)
            if not isinstance(tensor, Tensor):
                raise ValueError(f"Adam expects tensors, got {type(tensor)} for {name}")
            if not tensor.requires_grad:
                raise ValueError(f"parameter '{name}' is frozen; frozen tensors never enter the optimizer")
            named.append((name, tensor))
        if not named:
            raise ValueError("Adam needs at least one trainable parameter")
        self.params = named
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = [np.zeros_like(p.data) for _, p in named]
        self.v = [np.zeros_like(p.data) for _, p in named]

    def step(self) -> None:
        """Apply one update from the accumulated gradients (missing grads count as zero)."""
        for name, p in self.params:
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise TrainingDiverged(f"non-finite gradient for parameter '{name}'; step rejected")
        self.t += 1
        for i, (name, p) in enumerate(self.params):
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            new_value, self.m[i], self.v[i] = adam_update(
                p.data, grad, self.m[i], self.v[i], self.t, self.lr, self.beta1, self.beta2, self.eps
            )
            p.assign(new_value)

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()
