"""Self-describing checkpoint files.

Layout: 6-byte magic "RVNT1\\n", little-endian u32 header length, JSON
header (architecture tokens, dtype, parameter shapes, free-form extra
metadata), then the raw parameter buffers in header order, little-endian.
The architecture is stored as the layer DSL so loading rebuilds the exact
network without outside information.
"""

import json
import struct

import numpy as np

from .errors import FormatError, StateError
from .network import NetworkSpec

MAGIC = b"RVNT1\n"
_DTYPES = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8")}


def save_checkpoint(path, net, extra=None):
    dtype_name = np.dtype(net.dtype).name
    if dtype_name not in _DTYPES:
        raise StateError(f"unsupported parameter dtype {dtype_name}")
    params = []
    buffers = []
    for i, layer in enumerate(net.layers):
        if not layer.has_params:
            continue
        for name in ("W", "b"):
            arr = getattr(layer, name)
            params.append({"layer": i, "name": name, "shape": list(arr.shape)})
            buffers.append(np.ascontiguousarray(arr, dtype=_DTYPES[dtype_name]))
    header = {
        "version": 1,
        "dtype": dtype_name,
        "input_shape": list(net.input_shape),
        "n_classes": net.n_classes,
        "tokens": [layer.token() for layer in net.layers],
        "params": params,
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for buf in buffers:
            fh.write(buf.tobytes())
    return path


def _read_header(path):
    """Returns (header dict, byte offset of the first parameter buffer)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise FormatError(f"{path}: not a checkpoint file (bad magic)")
        raw = fh.read(4)
        if len(raw) < 4:
            raise FormatError(f"{path}: truncated at byte {len(MAGIC)}")
        (hlen,) = struct.unpack("<I", raw)
        blob = fh.read(hlen)
        if len(blob) < hlen:
            raise FormatError(f"{path}: truncated header at byte {len(MAGIC) + 4}")
    try:
        header = json.loads(blob)
    except ValueError as exc:
        raise FormatError(f"{path}: header is not JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    if header.get("version") != 1:
        raise StateError(f"{path}: unsupported checkpoint version {header.get('version')}")
    if header.get("dtype") not in _DTYPES:
        raise FormatError(f"{path}: unsupported parameter dtype {header.get('dtype')!r}")
    return header, len(MAGIC) + 4 + hlen


def read_header(path):
    return _read_header(path)[0]


def load_checkpoint(path, rcfg=None):
    """Rebuilds the network and returns (net, extra_metadata)."""
    header, offset = _read_header(path)
    dtype = _DTYPES[header["dtype"]]
    spec = NetworkSpec(tuple(header["input_shape"]), header["n_classes"], header["tokens"])
    net = spec.build(np.random.default_rng(0), dtype=dtype.type, rcfg=rcfg)
    with open(path, "rb") as fh:
        fh.seek(offset)
        for rec in header["params"]:
            layer = net.layers[rec["layer"]]
            shape = tuple(rec["shape"])
            current = getattr(layer, rec["name"])
            if current.shape != shape:
                raise StateError(
                    f"{path}: parameter {rec['name']} of layer {rec['layer']} has shape "
                    f"{shape} but the architecture implies {current.shape}"
                )
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * dtype.itemsize)
            if len(raw) < count * dtype.itemsize:
                raise FormatError(f"{path}: truncated at byte {offset}")
            arr = np.frombuffer(raw, dtype=dtype).reshape(shape).astype(net.dtype, copy=True)
            setattr(layer, rec["name"], arr)
            offset += count * dtype.itemsize
    return net, header.get("extra", {})
