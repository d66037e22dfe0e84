"""Writers of the IDX files revnet.data reads, and a reader of the PNM
files revnet.imaging writes, for building test inputs and checking
outputs. Kept free of test_ prefix so pytest does not collect it.
"""

import struct

import numpy as np

from revnet.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC
from revnet.errors import FormatError


def write_idx_images(path, images_u8):
    """images_u8: [n, H, W] uint8."""
    n, h, w = images_u8.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">4I", IDX_IMAGES_MAGIC, n, h, w))
        fh.write(np.ascontiguousarray(images_u8, dtype=np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">2I", IDX_LABELS_MAGIC, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


def load_image(path):
    """Reads back the subset of PNM that revnet.imaging.save_image writes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    parts = raw.split(b"\n", 3)
    if len(parts) < 4 or parts[0] not in (b"P5", b"P6"):
        raise FormatError(f"{path}: not a binary PGM/PPM written by this tool")
    try:
        w, h = (int(v) for v in parts[1].split())
        maxval = int(parts[2])
    except ValueError as exc:
        raise FormatError(f"{path}: bad PNM header") from exc
    if maxval != 255:
        raise FormatError(f"{path}: maxval {maxval} unsupported")
    depth = 3 if parts[0] == b"P6" else 1
    data = np.frombuffer(parts[3], dtype=np.uint8, count=w * h * depth)
    if depth == 1:
        return data.reshape(h, w)
    return data.reshape(h, w, 3)
