"""Binary checkpoints: a module's parameters with their frozen flags, the
config snapshot, and the step counter.

One writer and one reader, both speaking a module. ``save_checkpoint``
writes ``module.named_parameters()`` in order, each flagged frozen when it
takes no gradient. ``load_module`` builds the module the header's config
describes, checks the header against the module's parameters before any
payload is read, then reads each payload straight into its parameter's own
array, so it holds no copy of any tensor. Every check on a file read from
outside (magic, version, header keys, unique names, names, shapes and
frozen flags, payload length) is the reader's.

Layout: magic, format version (u32 LE), header length (u64 LE), JSON
header, then the raw float64 little-endian payloads concatenated in header
order. The header serialization is canonical (sorted keys, no whitespace),
so save -> load -> save is byte-identical.

A save streams, writing the header and then one payload at a time, and is
atomic: it writes ``<path>.tmp`` and moves it onto ``path`` only once it is
complete, so a save that fails partway leaves the previous file as it was.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .autodiff import Tensor
from .config import TrainConfig, config_from_pairs

MAGIC = b"DLABCKPT"
FORMAT_VERSION = 1


def save_checkpoint(path, module, config: TrainConfig, step: int) -> None:
    params = list(module.named_parameters())
    header = {
        "config": asdict(config),
        "step": int(step),
        "tensors": [{"name": name, "shape": list(p.shape), "frozen": not p.requires_grad} for name, p in params],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(FORMAT_VERSION.to_bytes(4, "little"))
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            for _, p in params:
                fh.write(np.ascontiguousarray(p.data, dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


# each key a header or tensor entry must hold: what its value must be, and a test of it
_HEADER_FIELDS = {
    "config": ("a JSON object", lambda value: isinstance(value, dict)),
    "step": ("a non-negative integer", _is_count),
    "tensors": ("a JSON list", lambda value: isinstance(value, list)),
}
_ENTRY_FIELDS = {
    "name": ("a string", lambda value: isinstance(value, str)),
    "shape": ("a list of non-negative integers", lambda value: isinstance(value, list) and all(map(_is_count, value))),
    "frozen": ("a boolean", lambda value: isinstance(value, bool)),
}


def _check_fields(where: str, obj: dict, fields) -> None:
    """Refuse, naming the key, a JSON object that lacks one of `fields` or
    holds one that fails its test."""
    for key, (kind, test) in fields.items():
        if key not in obj:
            raise ValueError(f"{where} lacks '{key}'")
        if not test(obj[key]):
            raise ValueError(f"{where} '{key}' is not {kind}")


def _read_header(fh) -> dict:
    """Check the magic, the format version, that the header is an object
    holding a config object, a step and a tensors list, and that every
    tensor entry gives a name no other entry gives, a shape and a frozen
    flag, each of its JSON type; return the parsed JSON header, leaving the
    file at the first payload."""
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
    _check_fields("checkpoint header", header, _HEADER_FIELDS)
    seen = set()
    for number, entry in enumerate(header["tensors"]):
        if not isinstance(entry, dict):
            raise ValueError(f"checkpoint tensor entry {number} is not a JSON object")
        _check_fields(f"checkpoint tensor entry {number}", entry, _ENTRY_FIELDS)
        if entry["name"] in seen:
            raise ValueError(f"checkpoint names tensor '{entry['name']}' twice")
        seen.add(entry["name"])
    return header


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
        shape, frozen = tuple(by_name[name]["shape"]), by_name[name]["frozen"]
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
        header = _read_header(fh)
        module = build(_header_config(header))
        params = dict(module.named_parameters())
        _check_entries(header["tensors"], params)
        for entry in header["tensors"]:
            _read_payload(fh, entry["name"], params[entry["name"]].data)
    return module, int(header["step"])
