"""Flat training configuration: dataclass defaults and key=value text.

The keys are exactly ``TrainConfig``'s fields, each addressable as a
"name=value" line of a config file, a --set override or a checkpoint
header; any other key, and a key that a file or the --set items name
twice, are rejected.
The command line applies the --config file, then --set, so an explicit
--set beats a file line.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields

from .adapters import ADAPTER_MODES
from .losses import FIXED_WEIGHTS


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
    w_smoothness: float = 0.003
    triplet_stride: int = 1
    source_aggregation: str = "mean"  # mean | min
    bypass_decomposition: bool = False

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("epochs", "batch_size", "rank", "triplet_stride", "embed_dim", "depth_blocks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr", "lr_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.adapter not in ADAPTER_MODES:
            raise ValueError(f"adapter must be one of {', '.join(ADAPTER_MODES)}, got '{self.adapter}'")
        if self.source_aggregation not in ("mean", "min"):
            raise ValueError(f"source_aggregation must be mean or min, got '{self.source_aggregation}'")
        if not (math.isfinite(self.w_smoothness) and self.w_smoothness >= 0):
            raise ValueError(f"w_smoothness must be finite and nonnegative, got {self.w_smoothness}")

    def loss_weights(self) -> dict[str, float]:
        """The weight of each of ``losses.LOSS_TERMS``: the fixed ones and w_smoothness."""
        return {**FIXED_WEIGHTS, "smoothness": self.w_smoothness}

    def decay_epoch(self) -> int:
        """Epoch after which the lr is multiplied by lr_decay: a third of the epochs, at least 1."""
        return max(1, self.epochs // 3)


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
    """Parse "key=value" lines; '#' starts a comment; blank lines ignored; a repeated key is rejected."""
    pairs, linenos = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno} is not key=value: '{line.strip()}'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in linenos:
            raise ValueError(f"config key '{key}' is set on both line {linenos[key]} and line {lineno}")
        pairs[key], linenos[key] = value, lineno
    return config_from_pairs(pairs, base)


def load_config(path) -> TrainConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def config_to_text(cfg: TrainConfig) -> str:
    lines = []
    for f in fields(TrainConfig):
        value = getattr(cfg, f.name)
        if f.name == "mixer_after":
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"
