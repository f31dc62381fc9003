"""Flat training configuration: dataclass defaults and key=value text.

Every field is addressable as a "name=value" line of a config file or a
--set override; unknown keys are rejected. The command line applies the
--config file, then --set, so an explicit --set beats a file line. A
retired key (``RETIRED``: a former field now fixed in code, still written
by older checkpoint headers) is accepted only at its one value.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields

from .adapters import ADAPTER_MODES
from .losses import LOSS_TERMS


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    epochs: int = 12
    batch_size: int = 1
    lr: float = 1e-4
    lr_decay: float = 0.1
    rank: int = 4
    adapter: str = "scaled"  # one of adapters.ADAPTER_MODES
    mixer_after: tuple[int, ...] = (2, 4)
    embed_dim: int = 224
    depth_blocks: int = 4
    heads: int = 4
    w_reconstruction: float = 0.2
    w_reflectance: float = 0.2
    w_synthesis: float = 1.0
    w_smoothness: float = 0.003
    triplet_stride: int = 1
    d_min: float = 0.1
    d_max: float = 100.0
    source_aggregation: str = "mean"  # mean | min
    bypass_decomposition: bool = False

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.triplet_stride < 1:
            raise ValueError("epochs, batch_size, and triplet_stride must be >= 1")
        for name in ("lr", "lr_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.adapter not in ADAPTER_MODES:
            raise ValueError(f"adapter must be one of {', '.join(ADAPTER_MODES)}, got '{self.adapter}'")
        if self.source_aggregation not in ("mean", "min"):
            raise ValueError(f"source_aggregation must be mean or min, got '{self.source_aggregation}'")
        if not (0.0 < self.d_min < self.d_max):
            raise ValueError(f"need 0 < d_min < d_max, got {self.d_min}, {self.d_max}")
        if not (0.0 < self.d_min * self.d_max < math.inf):  # the initial depth is sqrt(d_min * d_max)
            raise ValueError(f"d_min * d_max must be finite and > 0, got {self.d_min} * {self.d_max}")
        if not math.isfinite(1.0 / self.d_min):  # the disparity scale is 1/d_min
            raise ValueError(f"d_min must have a finite reciprocal, got {self.d_min}")
        for name, weight in self.loss_weights().items():
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(f"loss weight {name} must be finite and nonnegative, got {weight}")

    def loss_weights(self) -> dict[str, float]:
        """The ``w_<term>`` fields keyed by ``losses.LOSS_TERMS``."""
        return {name: getattr(self, f"w_{name}") for name in LOSS_TERMS}

    def decay_epoch(self) -> int:
        """Epoch after which the lr is multiplied by lr_decay: a third of the epochs, at least 1."""
        return max(1, self.epochs // 3)


# Former fields, each fixed in code at its one value (adapters._kaiming_uniform,
# blocks.PATCH, the optim constants, losses.ALPHA, TrainConfig.decay_epoch,
# the decoder's one full-resolution disparity map).
RETIRED = {
    "init": "kaiming_uniform",
    "patch": 8,
    "adam_beta1": 0.9,
    "adam_beta2": 0.999,
    "adam_eps": 1e-8,
    "alpha": 0.85,
    "lr_decay_epoch": 0,
    "loss_scales": 1,
}


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


def _is_retired_value(key: str, raw: str) -> bool:
    sole = RETIRED[key]
    try:
        return type(sole)(raw.strip()) == sole
    except ValueError:
        return False


def config_from_pairs(pairs: dict[str, str], base: TrainConfig | None = None) -> TrainConfig:
    base = base or TrainConfig()
    by_name = {f.name: f for f in fields(TrainConfig)}
    updates = {}
    for key, raw in pairs.items():
        if key in RETIRED:
            if not _is_retired_value(key, raw):
                raise ValueError(f"{key} is fixed at {RETIRED[key]}, got '{raw.strip()}'")
            continue
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
