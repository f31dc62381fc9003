"""Flat training configuration: its vocabulary, defaults and text form.

The keys are exactly ``TrainConfig``'s fields. Each value has one text
form, a "name=value" line's value: ``config_to_text`` writes it, and one
parser reads it from a config file, a --set item or a checkpoint header
(``config_from_values``). An unknown key, a key that a file or the --set
items name twice, and a malformed value are refused naming the key, and in
a file or the --set items the line. The command line applies the --config
file, then --set, so an explicit --set beats a file line.
This module imports nothing from depthlab.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields

# the adapter each frozen MLP linear of the depth encoder gets (adapters.make_adapter)
ADAPTER_MODES = ("none", "plain", "scaled")


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    epochs: int = 12
    batch_size: int = 1
    lr: float = 1e-4
    lr_decay: float = 0.1
    rank: int = 4
    adapter: str = "scaled"  # one of ADAPTER_MODES
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

    def decay_epoch(self) -> int:
        """Epoch after which the lr is multiplied by lr_decay: a third of the epochs, at least 1."""
        return max(1, self.epochs // 3)


_TYPES = {f.name: f.type for f in fields(TrainConfig)}
_BOOLS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}
# each field type's parser from text, and what the text must be; the str fields take any text
_PARSERS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "bool": (lambda raw: _BOOLS[raw.lower()], f"one of {', '.join(_BOOLS)}"),
    "tuple[int, ...]": (lambda raw: tuple(int(v) for v in raw.split(",")) if raw else (), "comma-separated integers"),
    "str": (str, "text"),
}


def _format_value(name: str, value) -> str:
    """A field's value in its text form: a tuple's items comma-joined, any other value as str()."""
    if _TYPES.get(name) != "tuple[int, ...]":
        return str(value)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"config key '{name}' must be a list of integers, got {value!r}")
    return ",".join(str(v) for v in value)


def _parse_value(name: str, raw: str):
    """A field's value from its text form, refused naming the key when the key
    is unknown or the text is not what the field takes."""
    if name not in _TYPES:
        raise ValueError(f"unknown config key '{name}'")
    parse, kind = _PARSERS[_TYPES[name]]
    try:
        return parse(raw.strip())
    except (ValueError, KeyError):
        raise ValueError(f"config key '{name}' must be {kind}, got '{raw.strip()}'") from None


def config_from_pairs(pairs: dict[str, str], base: TrainConfig | None = None) -> TrainConfig:
    """``base`` (the defaults if None) with each key set to its value parsed from text."""
    return dataclasses.replace(base or TrainConfig(), **{key: _parse_value(key, raw) for key, raw in pairs.items()})


def config_from_values(values: dict) -> TrainConfig:
    """A checkpoint header's config, ``asdict``'s values: each put in its text form and parsed."""
    return config_from_pairs({key: _format_value(key, value) for key, value in values.items()})


def parse_config_text(text: str, base: TrainConfig | None = None) -> TrainConfig:
    """Parse "key=value" lines over ``base``; '#' starts a comment; blank lines
    are ignored; a repeated key is refused naming both lines, and an unknown key
    or a malformed value naming its line."""
    updates, linenos = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno} is not key=value: '{line.strip()}'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in linenos:
            raise ValueError(f"config key '{key}' is set on both line {linenos[key]} and line {lineno}")
        try:
            updates[key], linenos[key] = _parse_value(key, value), lineno
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    return dataclasses.replace(base or TrainConfig(), **updates)


def load_config(path) -> TrainConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def config_to_text(cfg: TrainConfig) -> str:
    """One "name=value" line per field, in field order: what parse_config_text reads back."""
    return "".join(f"{f.name}={_format_value(f.name, getattr(cfg, f.name))}\n" for f in fields(TrainConfig))
