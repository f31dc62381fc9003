"""Binary checkpoints: a named-tensor table with frozen flags, the config
snapshot, and the step counter.

Layout: magic, format version (u32 LE), header length (u64 LE), JSON
header, then the raw float64 little-endian payloads concatenated in header
order. The header serialization is canonical (sorted keys, no whitespace),
so save -> load -> save is byte-identical.

Save and load stream: a save writes the header, then one payload at a time;
a load reads the header, then each payload in turn. Loading into a module
(``load_module``) checks the header against the module's parameters before
any payload is read, then reads each payload straight into the module's own
parameter array, so it holds no copy of any tensor.

A save is atomic: it writes ``<path>.tmp`` and moves it onto ``path`` only
once it is complete, so a save that fails partway leaves the previous file
as it was.
"""

from __future__ import annotations

import json
import os
import sys
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


def _check_unique(names) -> None:
    """A checkpoint names each tensor once: the writer and every loader
    refuse a repeated name with this message."""
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"checkpoint names tensor '{name}' twice")
        seen.add(name)


def save_checkpoint(path, named_tensors, config: TrainConfig, step: int) -> None:
    """named_tensors: iterable of (name, Tensor|array, frozen_flag). A
    repeated name is refused before any file is opened."""
    named = [
        (name, tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor, dtype=np.float64), bool(frozen))
        for name, tensor, frozen in named_tensors
    ]
    _check_unique(name for name, _, _ in named)
    header = {
        "config": asdict(config),
        "step": int(step),
        "tensors": [{"name": name, "shape": list(data.shape), "frozen": frozen} for name, data, frozen in named],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(FORMAT_VERSION.to_bytes(4, "little"))
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            for _, data, _ in named:
                fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_header(fh) -> tuple[int, dict]:
    """Check the magic, the format version, that the header is an object
    holding config, step and tensors, and that no tensor is named twice;
    return the version and the parsed JSON header, leaving the file at the
    first payload."""
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise ValueError(f"not a checkpoint file: magic {magic!r}")
    version = int.from_bytes(fh.read(4), "little")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version {version}")
    header_len = int.from_bytes(fh.read(8), "little")
    header = json.loads(fh.read(header_len).decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError("checkpoint header is not a JSON object")
    for key in ("config", "step", "tensors"):
        if key not in header:
            raise ValueError(f"checkpoint header lacks '{key}'")
    _check_unique(entry["name"] for entry in header["tensors"])
    return version, header


def _header_config(header: dict) -> TrainConfig:
    cfg_dict = dict(header["config"])
    cfg_dict["mixer_after"] = ",".join(str(v) for v in cfg_dict.get("mixer_after", []))
    return config_from_pairs({k: str(v) for k, v in cfg_dict.items()})


def _read_payload(fh, name: str, out: np.ndarray) -> None:
    """Read the next payload into ``out``, a float64 array of the payload's
    shape, in place. ``readinto`` refuses an array that is not a writable
    C-contiguous buffer; on a big-endian host the file's little-endian
    bytes are then swapped in place."""
    if fh.readinto(out) != out.nbytes:
        raise ValueError(f"checkpoint truncated while reading '{name}'")
    if sys.byteorder == "big":
        out.byteswap(inplace=True)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        version, header = _read_header(fh)
        entries = header["tensors"]
        tensors = {}
        for entry in entries:
            tensors[entry["name"]] = np.empty(tuple(entry["shape"]))
            _read_payload(fh, entry["name"], tensors[entry["name"]])
    return Checkpoint(
        version=version,
        step=int(header["step"]),
        config=_header_config(header),
        names=[entry["name"] for entry in entries],
        tensors=tensors,
        frozen={entry["name"]: bool(entry["frozen"]) for entry in entries},
    )


def _check_entries(entries, params: dict[str, Tensor]) -> None:
    """The header must list exactly the module's tensors, each with the
    shape and the frozen flag the module gives it."""
    by_name = {entry["name"]: entry for entry in entries}
    for name in by_name:
        if name not in params:
            raise ValueError(f"checkpoint tensor '{name}' is not in the model")
    for name, tensor in params.items():
        if name not in by_name:
            raise ValueError(f"checkpoint is missing tensor '{name}'")
        shape, frozen = tuple(by_name[name]["shape"]), bool(by_name[name]["frozen"])
        if shape != tensor.shape:
            raise ValueError(f"tensor '{name}' shape {shape} does not match model {tensor.shape}")
        if frozen == tensor.requires_grad:
            raise ValueError(f"tensor '{name}' frozen flag {frozen} does not match model")


def load_module(path, build):
    """Read a checkpoint's header, build the module it describes with
    ``build(config)``, check the header against the module's parameters,
    then read each payload into its parameter's own array. Returns (module,
    step). Beyond the module, no tensor is held."""
    with open(path, "rb") as fh:
        _, header = _read_header(fh)
        module = build(_header_config(header))
        params = dict(module.named_parameters())
        _check_entries(header["tensors"], params)
        for entry in header["tensors"]:
            _read_payload(fh, entry["name"], params[entry["name"]].data)
    return module, int(header["step"])
