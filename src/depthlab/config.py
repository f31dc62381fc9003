"""Flat training configuration: dataclass defaults and key=value text.

Every field is addressable as a "name=value" line of a config file or a
--set override; unknown keys are rejected. The command line applies the
--config file, then --set, so an explicit --set beats a file line.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields

from .adapters import ADAPTER_MODES, InitVariant
from .losses import LOSS_TERMS


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    epochs: int = 12
    batch_size: int = 1
    lr: float = 1e-4
    lr_decay: float = 0.1
    lr_decay_epoch: int = 0  # 0 = after one third of the configured epochs
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    rank: int = 4
    adapter: str = "scaled"  # one of adapters.ADAPTER_MODES
    init: str = "kaiming_uniform"  # an adapters.InitVariant value
    mixer_after: tuple[int, ...] = (2, 4)
    embed_dim: int = 224
    depth_blocks: int = 4
    heads: int = 4
    patch: int = 8  # only 8: the depth decoder has three 2x stages
    alpha: float = 0.85
    w_reconstruction: float = 0.2
    w_reflectance: float = 0.2
    w_synthesis: float = 1.0
    w_smoothness: float = 0.003
    triplet_stride: int = 1
    d_min: float = 0.1
    d_max: float = 100.0
    loss_scales: int = 4
    source_aggregation: str = "mean"  # mean | min
    bypass_decomposition: bool = False

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.triplet_stride < 1:
            raise ValueError("epochs, batch_size, and triplet_stride must be >= 1")
        for name in ("lr", "lr_decay", "adam_eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        for name in ("adam_beta1", "adam_beta2"):
            value = getattr(self, name)
            if not (0.0 <= value < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.lr_decay_epoch < 0:
            raise ValueError(f"lr_decay_epoch must be >= 0, got {self.lr_decay_epoch}")
        if self.adapter not in ADAPTER_MODES:
            raise ValueError(f"adapter must be one of {', '.join(ADAPTER_MODES)}, got '{self.adapter}'")
        if self.init not in [v.value for v in InitVariant]:
            raise ValueError(f"unknown init scheme '{self.init}'")
        if self.source_aggregation not in ("mean", "min"):
            raise ValueError(f"source_aggregation must be mean or min, got '{self.source_aggregation}'")
        if not (1 <= self.loss_scales <= 4):
            raise ValueError(f"loss_scales must be in 1..4, got {self.loss_scales}")
        if not (0.0 < self.d_min < self.d_max):
            raise ValueError(f"need 0 < d_min < d_max, got {self.d_min}, {self.d_max}")
        if not math.isfinite(self.d_max):
            raise ValueError(f"d_max must be finite, got {self.d_max}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        for name, weight in self.loss_weights().items():
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(f"loss weight {name} must be finite and nonnegative, got {weight}")

    def loss_weights(self) -> dict[str, float]:
        """The ``w_<term>`` fields keyed by ``losses.LOSS_TERMS``."""
        return {name: getattr(self, f"w_{name}") for name in LOSS_TERMS}

    def decay_epoch(self) -> int:
        """Epoch after which the learning rate is multiplied by lr_decay."""
        return self.lr_decay_epoch if self.lr_decay_epoch > 0 else max(1, self.epochs // 3)


def _parse_value(field, raw: str):
    raw = raw.strip()
    if field.type in ("int", int):
        return int(raw)
    if field.type in ("float", float):
        return float(raw)
    if field.type in ("bool", bool):
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"cannot parse boolean from '{raw}'")
    if field.name == "mixer_after":
        if raw == "":
            return ()
        return tuple(int(v) for v in raw.split(","))
    return raw


def config_from_pairs(pairs: dict[str, str], base: TrainConfig | None = None) -> TrainConfig:
    base = base or TrainConfig()
    by_name = {f.name: f for f in fields(TrainConfig)}
    updates = {}
    for key, raw in pairs.items():
        if key not in by_name:
            raise ValueError(f"unknown config key '{key}'")
        updates[key] = _parse_value(by_name[key], raw)
    return dataclasses.replace(base, **updates)


def parse_config_text(text: str, base: TrainConfig | None = None) -> TrainConfig:
    """Parse "key=value" lines; '#' starts a comment; blank lines ignored."""
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno} is not key=value: '{line.strip()}'")
        key, value = stripped.split("=", 1)
        pairs[key.strip()] = value
    return config_from_pairs(pairs, base)


def load_config(path, base: TrainConfig | None = None) -> TrainConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base)


def config_to_text(cfg: TrainConfig) -> str:
    lines = []
    for f in fields(TrainConfig):
        value = getattr(cfg, f.name)
        if f.name == "mixer_after":
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"
