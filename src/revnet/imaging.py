"""Image artifact emission: binary PGM/PPM files, side-by-side pane
grids for reconstructions, and heat strips for likelihood and latent
vectors. Everything is uint8; pane values are mapped by an affine
[min,max] -> [0,255] rescale (constant panes map to 0), likelihoods by
an absolute [0,1] scale since they live on the simplex. Grids are built
for the whole batch in one pass: every pane of every sample is rescaled
at once, and the panes are written into one canvas.
"""

import numpy as np

from .errors import FormatError, ShapeError


def to_u8(panes):
    """Affine [min,max] -> [0,255] per pane, a pane being the last two
    axes, in float64; a constant pane maps to 0."""
    panes = np.asarray(panes, dtype=np.float64)
    lo = panes.min(axis=(-2, -1), keepdims=True)
    hi = panes.max(axis=(-2, -1), keepdims=True)
    flat = hi <= lo
    scale = 255.0 / np.where(flat, 1.0, hi - lo)
    u8 = np.clip(np.rint((panes - lo) * scale), 0, 255).astype(np.uint8)
    u8[np.broadcast_to(flat, u8.shape)] = 0
    return u8


def unit_to_u8(pane):
    """Absolute [0,1] -> [0,255] scale (clipping), for simplex values."""
    return np.clip(np.rint(np.asarray(pane, dtype=np.float64) * 255.0), 0, 255).astype(np.uint8)


def chw_pane(img, mapper=to_u8):
    """[..., C, H, W] float -> [..., H, W] (C=1) or [..., H, W, 3] (C=3)
    uint8, each channel mapped as its own pane."""
    if img.ndim < 3 or img.shape[-3] not in (1, 3):
        raise ShapeError(f"pane wants [1|3,H,W], got {img.shape}")
    u8 = mapper(img)
    return u8[..., 0, :, :] if img.shape[-3] == 1 else np.moveaxis(u8, -3, -1)


def likelihood_strip(vec, height, cell=8):
    """One grayscale cell per class, absolute-scaled: [..., n] -> [...,
    height, n*cell]."""
    u8 = unit_to_u8(vec)[..., None, :]
    return np.repeat(np.repeat(u8, height, axis=-2), cell, axis=-1)


def vector_strip(vec, height):
    """Latent vector as a 1px-per-entry strip, min/max scaled: [..., n] ->
    [..., height, n]."""
    return np.repeat(to_u8(np.asarray(vec)[..., None, :]), height, axis=-2)


def grid(panes, sep=1, sep_value=0):
    """Per-sample panes [B,H,w] (gray) or [B,H,w,3] (color) side by side,
    one row per sample, with sep-wide separators between panes and rows.
    Gray panes next to a color one are repeated over its three channels."""
    if not panes:
        raise ShapeError("no panes")
    b, h = panes[0].shape[:2]
    if b == 0:
        raise ShapeError("no rows")
    if any(p.shape[:2] != (b, h) for p in panes):
        raise ShapeError("pane heights differ")
    color = any(p.ndim == 4 for p in panes)
    width = sum(p.shape[2] for p in panes) + sep * (len(panes) - 1)
    canvas = np.full((b, h + sep, width) + ((3,) if color else ()), sep_value, dtype=np.uint8)
    x = 0
    for p in panes:
        w = p.shape[2]
        canvas[:, :h, x : x + w] = p[..., None] if color and p.ndim == 3 else p
        x += w + sep
    return canvas.reshape(b * (h + sep), *canvas.shape[2:])[: b * (h + sep) - sep]


def hstack_panes(panes, sep=1, sep_value=0):
    """Concatenate panes left to right with sep-wide separator columns."""
    return grid([p[None] for p in panes], sep, sep_value)


def vstack_rows(rows, sep=1, sep_value=0):
    """Stack rows top to bottom with sep-tall separator rows: the rows,
    transposed, are the panes of a one-sample grid."""
    panes = [np.swapaxes(r, 0, 1)[None] for r in rows]
    return np.swapaxes(grid(panes, sep, sep_value), 0, 1)


def reconstruction_grid(inputs, recons):
    """One row per sample: [input | reconstruction], 1px separators."""
    return grid([chw_pane(inputs), chw_pane(recons)])


def generation_grid(inputs, o, tr_o, alphas, recons):
    """Five panes per sample: input, likelihood, transformed likelihood,
    latent strip, reconstruction of the latent."""
    h = inputs.shape[2]
    return grid([
        chw_pane(inputs),
        likelihood_strip(o, h),
        likelihood_strip(tr_o, h),
        vector_strip(alphas.reshape(len(alphas), -1), h),
        chw_pane(recons),
    ])


# -- PNM files --------------------------------------------------------------


def save_image(path, arr):
    """uint8 [H,W] -> binary PGM (P5); uint8 [H,W,3] -> binary PPM (P6)."""
    arr = np.asarray(arr)
    if arr.dtype != np.uint8:
        raise FormatError(f"image must be uint8, got {arr.dtype}")
    if arr.ndim == 2:
        magic = b"P5"
        h, w = arr.shape
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"P6"
        h, w = arr.shape[:2]
    else:
        raise ShapeError(f"image must be [H,W] or [H,W,3], got {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + f"{w} {h}".encode() + b"\n255\n")
        fh.write(np.ascontiguousarray(arr).tobytes())
    return path


def load_image(path):
    """Reads back the subset of PNM this module writes."""
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
