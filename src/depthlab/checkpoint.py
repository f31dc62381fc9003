"""Binary checkpoints: a named-tensor table with frozen flags, the config
snapshot, and the step counter.

Layout: magic, format version (u32 LE), header length (u64 LE), JSON
header, then the raw float64 little-endian payloads concatenated in header
order. The header serialization is canonical (sorted keys, no whitespace),
so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tensor
from .config import TrainConfig, config_from_pairs

MAGIC = b"DLABCKPT"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    version: int
    step: int
    config: TrainConfig
    names: list[str]
    tensors: dict[str, np.ndarray]
    frozen: dict[str, bool]


def save_checkpoint(path, named_tensors, config: TrainConfig, step: int) -> None:
    """named_tensors: iterable of (name, Tensor|array, frozen_flag)."""
    entries = []
    payloads = []
    for name, tensor, frozen in named_tensors:
        data = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor, dtype=np.float64)
        entries.append({"name": name, "shape": list(data.shape), "frozen": bool(frozen)})
        payloads.append(np.ascontiguousarray(data, dtype="<f8").tobytes())
    header = {
        "config": asdict(config),
        "step": int(step),
        "tensors": entries,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(FORMAT_VERSION.to_bytes(4, "little"))
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for payload in payloads:
            fh.write(payload)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"not a checkpoint file: magic {magic!r}")
        version = int.from_bytes(fh.read(4), "little")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version {version}")
        header_len = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(header_len).decode("utf-8"))
        names = []
        tensors = {}
        frozen = {}
        for entry in header["tensors"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise ValueError(f"checkpoint truncated while reading '{entry['name']}'")
            names.append(entry["name"])
            tensors[entry["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            frozen[entry["name"]] = bool(entry["frozen"])
    cfg_dict = dict(header["config"])
    cfg_dict["mixer_after"] = ",".join(str(v) for v in cfg_dict.get("mixer_after", []))
    config = config_from_pairs({k: str(v) for k, v in cfg_dict.items()})
    return Checkpoint(
        version=version,
        step=int(header["step"]),
        config=config,
        names=names,
        tensors=tensors,
        frozen=frozen,
    )


def restore_module(module, checkpoint: Checkpoint) -> None:
    """Copy checkpoint tensors into a module's parameters by name. The
    checkpoint must hold exactly the module's tensors, each with the shape
    and the frozen flag the module gives it."""
    params = dict(module.named_parameters())
    for name in checkpoint.names:
        if name not in params:
            raise ValueError(f"checkpoint tensor '{name}' is not in the model")
    for name, tensor in params.items():
        if name not in checkpoint.tensors:
            raise ValueError(f"checkpoint is missing tensor '{name}'")
        value = checkpoint.tensors[name]
        if tuple(value.shape) != tensor.shape:
            raise ValueError(f"tensor '{name}' shape {value.shape} does not match model {tensor.shape}")
        if checkpoint.frozen[name] == tensor.requires_grad:
            raise ValueError(f"tensor '{name}' frozen flag {checkpoint.frozen[name]} does not match model")
        tensor.assign(value)
