"""Self-describing checkpoint files.

Layout: 6-byte magic "RVNT1\\n", little-endian u32 header length, JSON
header (architecture tokens, dtype, parameter shapes in slot order,
free-form extra metadata), then the bytes of net.params, little-endian,
and nothing after them. The architecture is stored as the layer DSL so
loading rebuilds the exact network without outside information. A save
writes <path>.tmp, then renames it onto path, so path holds either the
old file or the whole new one.
"""

import json
import math
import os
import struct

import numpy as np

from .data import read_file
from .errors import ConfigError, FormatError, StateError
from .network import NetworkSpec

MAGIC = b"RVNT1\n"
_DTYPES = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8")}


def _sizes(v):
    return isinstance(v, list) and all(type(n) is int and n > 0 for n in v)


# the header fields load_checkpoint reads, and the test each value must pass
_FIELDS = {
    "input_shape": _sizes,
    "n_classes": lambda v: v is None or type(v) is int,
    "tokens": lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v),
    "params": lambda v: isinstance(v, list) and all(
        isinstance(r, dict) and type(r.get("layer")) is int
        and isinstance(r.get("name"), str) and _sizes(r.get("shape")) for r in v),
}


def save_checkpoint(path, net, extra=None):
    dtype_name = np.dtype(net.dtype).name
    if dtype_name not in _DTYPES:
        raise StateError(f"unsupported parameter dtype {dtype_name}")
    header = {
        "version": 1,
        "dtype": dtype_name,
        "input_shape": list(net.input_shape),
        "n_classes": net.n_classes,
        "tokens": [layer.token() for layer in net.layers],
        "params": [{"layer": i, "name": name, "shape": list(shape)}
                   for (i, name), (_, shape) in net.slots.items()],
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True).encode()
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(net.params.astype(_DTYPES[dtype_name], copy=False).tobytes())
    os.replace(tmp, path)
    return path


def _parse_header(path, raw):
    """Returns (header dict, byte offset of the first parameter buffer)
    of the checkpoint bytes raw read from path."""
    if raw[:len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: not a checkpoint file (bad magic)")
    start = len(MAGIC) + 4
    if len(raw) < start:
        raise FormatError(f"{path}: truncated at byte {len(MAGIC)}")
    (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
    if len(raw) < start + hlen:
        raise FormatError(f"{path}: truncated header at byte {start}")
    try:
        header = json.loads(raw[start:start + hlen])
    except ValueError as exc:
        raise FormatError(f"{path}: header is not JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    if header.get("version") != 1:
        raise FormatError(f"{path}: unsupported checkpoint version {header.get('version')}")
    if header.get("dtype") not in _DTYPES:
        raise FormatError(f"{path}: unsupported parameter dtype {header.get('dtype')!r}")
    for key, valid in _FIELDS.items():
        if key not in header or not valid(header[key]):
            raise FormatError(f"{path}: header field {key!r} is missing or malformed")
    return header, start + hlen


def read_header(path):
    return _parse_header(path, read_file(path))[0]


def load_checkpoint(path, rcfg=None):
    """Rebuilds the network and returns (net, extra_metadata). The file is
    read once, and each stored parameter is copied into its slot of a
    fresh net.params."""
    raw = read_file(path)
    header, offset = _parse_header(path, raw)
    dtype = _DTYPES[header["dtype"]]
    spec = NetworkSpec(tuple(header["input_shape"]), header["n_classes"], header["tokens"])
    try:
        net = spec.build(rcfg=rcfg)
    except ConfigError as exc:
        raise FormatError(f"{path}: the header's architecture does not build ({exc})") from exc
    net.adopt(np.empty(net.size, dtype.type))
    want = {key: shape for key, (_, shape) in net.slots.items()}
    for rec in header["params"]:
        i, name, shape = rec["layer"], rec["name"], tuple(rec["shape"])
        implied = want.pop((i, name), None)
        if implied is None:
            raise FormatError(f"{path}: layer {i} has no parameter {name} to load")
        if implied != shape:
            raise FormatError(
                f"{path}: parameter {name} of layer {i} has shape "
                f"{shape} but the architecture implies {implied}"
            )
        count = math.prod(shape)
        if len(raw) < offset + count * dtype.itemsize:
            raise FormatError(f"{path}: truncated at byte {offset}")
        net.view(net.params, i, name)[...] = np.frombuffer(raw, dtype, count, offset).reshape(shape)
        offset += count * dtype.itemsize
    if want:
        missing = ", ".join(f"{name} of layer {i}" for i, name in sorted(want))
        raise FormatError(f"{path}: no stored values for {missing}")
    if len(raw) > offset:
        raise FormatError(f"{path}: {len(raw) - offset} bytes after the last parameter")
    return net, header.get("extra", {})
