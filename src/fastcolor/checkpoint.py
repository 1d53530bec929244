"""Single-file tensor serialization for checkpoints.

The format is a text manifest followed by one raw little-endian blob:

    fastcolor-tensors v1
    meta <key> <value...>
    tensor <name> <dtype> <d0,d1,...> <offset> <nbytes>
    end
    <binary>

Offsets index into the blob, so readers can load tensors lazily and a
round trip is bit-exact. Checkpoints store model parameters, optimizer
moments, the configuration hash, the training iteration, and the gating
history.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError
from .nn import AdamState, ParamStore

MAGIC = "fastcolor-tensors v1"

__all__ = [
    "write_tensors",
    "read_tensors",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
]


def write_tensors(path: str, tensors: dict[str, np.ndarray], meta: dict[str, str] | None = None) -> None:
    lines = [MAGIC]
    for key, value in (meta or {}).items():
        if any(ch.isspace() for ch in key):
            raise ParseError(f"meta key {key!r} contains whitespace")
        if "\n" in str(value):
            raise ParseError(f"meta value for {key!r} contains a newline")
        lines.append(f"meta {key} {value}")
    blobs: list[bytes] = []
    offset = 0
    for name, arr in tensors.items():
        if any(ch.isspace() for ch in name):
            raise ParseError(f"tensor name {name!r} contains whitespace")
        arr = np.asarray(arr)  # keeps 0-d scalars 0-d
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        raw = le.tobytes()
        shape = ",".join(str(d) for d in arr.shape) if arr.ndim else "scalar"
        lines.append(f"tensor {name} {arr.dtype.name} {shape} {offset} {len(raw)}")
        blobs.append(raw)
        offset += len(raw)
    lines.append("end")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
        for raw in blobs:
            fh.write(raw)
    os.replace(tmp, path)


def read_tensors(path: str) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    with open(path, "rb") as fh:
        data = fh.read()
    head, sep, _ = data.partition(b"\nend\n")
    if not sep:
        raise ParseError(f"{path}: missing manifest terminator")
    blob = data[len(head) + len(sep):]
    lines = head.decode("utf-8", errors="replace").splitlines()
    if not lines or lines[0] != MAGIC:
        raise ParseError(f"{path}: not a {MAGIC} file")
    meta: dict[str, str] = {}
    tensors: dict[str, np.ndarray] = {}
    for line in lines[1:]:
        parts = line.split(" ")
        if parts[0] == "meta":
            if len(parts) < 3:
                raise ParseError(f"{path}: malformed meta line {line!r}")
            meta[parts[1]] = " ".join(parts[2:])
        elif parts[0] == "tensor":
            if len(parts) != 6:
                raise ParseError(f"{path}: malformed tensor line {line!r}")
            _, name, dtype_name, shape_txt, off_txt, nbytes_txt = parts
            try:
                dtype = np.dtype(dtype_name).newbyteorder("<")
                shape = () if shape_txt == "scalar" else tuple(int(d) for d in shape_txt.split(","))
                off, nbytes = int(off_txt), int(nbytes_txt)
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{path}: bad tensor line {line!r}: {exc}") from None
            if name in tensors:
                raise ParseError(f"{path}: tensor {name!r} listed twice")
            if dtype.kind not in "biufc":
                raise ParseError(f"{path}: tensor {name!r} has non-numeric dtype {dtype_name!r}")
            if off < 0 or nbytes < 0:
                raise ParseError(f"{path}: negative offset or size for tensor {name!r}")
            raw = blob[off:off + nbytes]
            if len(raw) != nbytes:
                raise ParseError(f"{path}: blob truncated for tensor {name!r}")
            arr = np.frombuffer(raw, dtype=dtype)
            if min(shape, default=0) < 0 or int(np.prod(shape, dtype=np.int64)) != arr.size:
                raise ParseError(f"{path}: shape/size mismatch for tensor {name!r}")
            tensors[name] = arr.reshape(shape).astype(dtype.newbyteorder("="), copy=True)
        else:
            raise ParseError(f"{path}: unknown manifest line {line!r}")
    return tensors, meta


# -- checkpoints -------------------------------------------------------


@dataclass
class Checkpoint:
    params: ParamStore
    adam: AdamState
    config_hash: str
    iteration: int
    # rows of (iteration, accepted, candidate_avg, incumbent_avg)
    gate_history: np.ndarray = field(default_factory=lambda: np.zeros((0, 4)))


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    tensors: dict[str, np.ndarray] = {}
    for name, arr in ckpt.params.items():
        tensors["param." + name] = arr
    for name, arr in ckpt.adam.m.items():
        tensors["adam.m." + name] = arr
    for name, arr in ckpt.adam.v.items():
        tensors["adam.v." + name] = arr
    tensors["gate_history"] = np.asarray(ckpt.gate_history, dtype=np.float64).reshape(-1, 4)
    meta = {
        "kind": "checkpoint",
        "config_hash": ckpt.config_hash,
        "iteration": str(ckpt.iteration),
        "param_dtype": ckpt.params.dtype.name,
        "adam.lr": repr(ckpt.adam.lr),
        "adam.beta1": repr(ckpt.adam.beta1),
        "adam.beta2": repr(ckpt.adam.beta2),
        "adam.eps": repr(ckpt.adam.eps),
        "adam.step": str(ckpt.adam.step),
    }
    write_tensors(path, tensors, meta)


def load_checkpoint(path: str) -> Checkpoint:
    tensors, meta = read_tensors(path)
    if meta.get("kind") != "checkpoint":
        raise ParseError(f"{path}: not a checkpoint file")
    try:
        params = ParamStore(dtype=np.dtype(meta["param_dtype"]))
        adam = AdamState(lr=float(meta["adam.lr"]), beta1=float(meta["adam.beta1"]),
                         beta2=float(meta["adam.beta2"]), eps=float(meta["adam.eps"]),
                         step=int(meta["adam.step"]))
        iteration = int(meta["iteration"])
        config_hash = meta["config_hash"]
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{path}: incomplete checkpoint metadata: {exc}") from None
    gate_history = tensors.pop("gate_history", np.zeros((0, 4)))
    for name, arr in tensors.items():
        if name.startswith("param."):
            params.add(name[len("param."):], arr)
        elif name.startswith("adam.m."):
            adam.m[name[len("adam.m."):]] = arr.astype(np.float64)
        elif name.startswith("adam.v."):
            adam.v[name[len("adam.v."):]] = arr.astype(np.float64)
        else:
            raise ParseError(f"{path}: unexpected tensor {name!r}")
    return Checkpoint(params=params, adam=adam, config_hash=config_hash,
                      iteration=iteration, gate_history=gate_history)

