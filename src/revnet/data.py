"""Dataset ingestion and preparation.

Covers the two classic binary formats (big-endian IDX for MNIST-style
files, CIFAR record files of label byte(s) + raw pixel bytes), channel
normalization, crop/flip augmentation, and a class-imbalance composer
that subsamples a source dataset to a per-class count profile. A small
synthetic seven-segment digit generator provides a dependency-free
stand-in dataset for desk-scale runs and tests. DataConfig holds the
data.* settings and loads the (train, test) pair they name.

Loaders are pure functions of the file bytes. All randomness comes in
through explicit numpy Generators.
"""

import gzip
import json
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CapacityError, ConfigError, ConsistencyError, DataError, DomainError, FormatError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class LabeledDataset:
    images: np.ndarray  # [n, C, H, W] float32, [0,1] before normalization
    labels: np.ndarray  # [n] int64
    class_count: int

    def __post_init__(self):
        if self.images.ndim != 4:
            raise FormatError(f"images must be [n,C,H,W], got {self.images.shape}")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.images.shape[0]:
            raise ConsistencyError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ConsistencyError(f"labels outside [0,{self.class_count})")

    def __len__(self):
        return self.images.shape[0]

    def class_counts(self):
        return np.bincount(self.labels, minlength=self.class_count)

    def take(self, indices):
        return LabeledDataset(self.images[indices], self.labels[indices], self.class_count)


def read_file(path):
    """The file's bytes; DataError if it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc


def _read_bytes(path):
    """The file's bytes, gunzipped if gzip; FormatError if the gzip is bad."""
    raw = read_file(path)
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as exc:
            raise FormatError(f"{path}: not a valid gzip file ({exc})") from exc
    return raw


def _idx_payload(path, magic_want, ndim):
    """The ndim sizes and the u8 payload of an IDX file with that magic."""
    raw = _read_bytes(path)
    off = 4 * (1 + ndim)
    if len(raw) < off:
        raise FormatError(f"{path}: truncated header at byte {len(raw)}")
    magic, *dims = struct.unpack(f">{1 + ndim}I", raw[:off])
    if magic != magic_want:
        raise FormatError(f"{path}: bad magic 0x{magic:08x}, want 0x{magic_want:08x}")
    count = int(np.prod(dims))
    if len(raw) < off + count:
        raise FormatError(f"{path}: truncated at byte {len(raw)}, want {off + count}")
    return dims, np.frombuffer(raw, dtype=np.uint8, count=count, offset=off)


def load_idx_images(path):
    (n, h, w), pix = _idx_payload(path, IDX_IMAGES_MAGIC, 3)
    return (pix.reshape(n, 1, h, w).astype(np.float32) / 255.0)


def load_idx_labels(path):
    _, labels = _idx_payload(path, IDX_LABELS_MAGIC, 1)
    return labels.astype(np.int64)


def load_mnist_idx(images_path, labels_path):
    """An MNIST-style IDX image and label file pair, 10 classes."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise ConsistencyError(
            f"{images_path} has {images.shape[0]} images but "
            f"{labels_path} has {labels.shape[0]} labels"
        )
    return LabeledDataset(images, labels, 10)


MNIST_FILES = {
    "train_images": ("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
    "train_labels": ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
    "test_images": ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
    "test_labels": ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
}


def mnist_paths(root):
    """Locate the four standard MNIST files under root (plain or .gz).
    Raises DataError naming whatever is missing."""
    found, missing = {}, []
    for key, names in MNIST_FILES.items():
        cands = [os.path.join(root, name + gz) for name in names for gz in ("", ".gz")]
        found[key] = next((p for p in cands if os.path.exists(p)), None)
        if found[key] is None:
            missing.append(names[0])
    if missing:
        raise DataError(f"MNIST files not found under {root}: {', '.join(missing)}")
    return found


def load_mnist_split(root, split):
    """The train or test split of the MNIST files under root."""
    paths = mnist_paths(root)
    return load_mnist_idx(paths[f"{split}_images"], paths[f"{split}_labels"])


# -- CIFAR-style records ----------------------------------------------------


def load_cifar_binary(paths, coarse=False, shape=(3, 32, 32), class_count=10,
                      label_bytes=None):
    """Concatenate CIFAR batch files. CIFAR-10 records are 1 label byte +
    3072 pixels; CIFAR-100 records carry a coarse and a fine label byte.
    label_bytes=None infers the CIFAR layout from class_count (2 bytes at
    20 or 100 classes); pass 1 for records written by save_records."""
    if label_bytes is None:
        label_bytes = 2 if class_count in (20, 100) else 1
    c, h, w = shape
    rec = label_bytes + c * h * w
    all_images, all_labels = [], []
    for path in paths:
        raw = _read_bytes(path)
        if len(raw) % rec != 0:
            raise FormatError(
                f"{path}: {len(raw)} bytes is not a multiple of the {rec}-byte record"
            )
        n = len(raw) // rec
        block = np.frombuffer(raw, dtype=np.uint8).reshape(n, rec)
        labels = block[:, 1] if label_bytes == 2 and not coarse else block[:, 0]
        all_labels.append(labels.astype(np.int64))
        all_images.append(
            block[:, label_bytes:].reshape(n, c, h, w).astype(np.float32) / 255.0
        )
    return LabeledDataset(np.concatenate(all_images), np.concatenate(all_labels), class_count)


def save_records(path, ds):
    """Write a dataset as CIFAR-style records: 1 label byte + u8 pixels."""
    if ds.class_count > 256:
        raise ConfigError("record layout holds one label byte; class_count > 256")
    n, c, h, w = ds.images.shape
    pix = np.clip(np.rint(ds.images * 255.0), 0, 255).astype(np.uint8).reshape(n, -1)
    lab = ds.labels.astype(np.uint8).reshape(n, 1)
    with open(path, "wb") as fh:
        fh.write(np.concatenate([lab, pix], axis=1).tobytes())


def save_composed(out_dir, ds, profile, source_note):
    """Records plus a sidecar manifest describing geometry, the profile
    and its seed, and provenance."""
    os.makedirs(out_dir, exist_ok=True)
    rec_path = os.path.join(out_dir, "records.bin")
    save_records(rec_path, ds)
    n, c, h, w = ds.images.shape
    manifest = {
        "n": n, "channels": c, "height": h, "width": w,
        "class_count": ds.class_count,
        "per_class": [int(v) for v in ds.class_counts()],
        "source": source_note,
        "profile_counts": [int(v) for v in profile.counts],
        "seed": profile.seed,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return rec_path


def load_composed(out_dir):
    path = os.path.join(out_dir, "manifest.json")
    try:
        manifest = json.loads(_read_bytes(path))
        shape = (manifest["channels"], manifest["height"], manifest["width"])
        n, class_count = manifest["n"], manifest["class_count"]
    except (ValueError, TypeError, KeyError) as exc:
        raise FormatError(f"{path}: not a composed-dataset manifest ({exc!r})") from exc
    ds = load_cifar_binary(
        [os.path.join(out_dir, "records.bin")],
        shape=shape, class_count=class_count, label_bytes=1,
    )
    if len(ds) != n:
        raise ConsistencyError(f"{out_dir}: manifest says {n} records, file has {len(ds)}")
    return ds


# -- preparation ------------------------------------------------------------


def normalize_channelwise(ds, stats=None, mode="divide_mean"):
    """Channel normalization; stats (mean, std) from the training set are
    reused for the test set. mode 'divide_mean' divides each channel by its
    mean, and computes no std (None); 'standardize' applies
    (x - mean) / std."""
    if mode not in ("divide_mean", "standardize"):
        raise ConfigError(f"unknown normalization mode {mode!r}")
    if stats is None:
        mean = ds.images.mean(axis=(0, 2, 3))
        stats = (mean, ds.images.std(axis=(0, 2, 3)) if mode == "standardize" else None)
    mean, std = stats
    if mode == "divide_mean":
        if np.any(mean <= 0):
            raise DomainError(f"channel mean must be positive, got {mean}")
        images = ds.images / mean.reshape(1, -1, 1, 1)
    else:
        if np.any(std <= 0):
            raise DomainError(f"channel std must be positive, got {std}")
        images = (ds.images - mean.reshape(1, -1, 1, 1)) / std.reshape(1, -1, 1, 1)
    out = LabeledDataset(images.astype(np.float32, copy=False), ds.labels, ds.class_count)
    return out, stats


CROP_PAD = 4
FLIP_P = 0.5


def augment(batch, rng):
    """Per image: zero-pad by CROP_PAD, crop back to the original size at a
    uniform offset, then flip horizontally with probability FLIP_P. Draws
    two offsets and one coin per image in batch order."""
    b, c, h, w = batch.shape
    pad = CROP_PAD
    padded = np.pad(batch, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.empty_like(batch)
    for i in range(b):
        dy, dx = rng.integers(0, 2 * pad + 1, size=2)
        img = padded[i, :, dy:dy + h, dx:dx + w]
        if rng.random() < FLIP_P:
            img = img[:, :, ::-1]
        out[i] = img
    return out


@dataclass
class ImbalanceProfile:
    class_count: int
    counts: np.ndarray
    seed: int = 0

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (self.class_count,):
            raise ConfigError(
                f"profile needs {self.class_count} counts, got {self.counts.shape}"
            )
        if self.counts.min() < 2:
            raise ConfigError("profile counts must be >= 2 per class")

    @classmethod
    def parse(cls, text, class_count, seed=0):
        """Accepts '5000,5000,50,...' or the compact '5000x5,50x5' form."""
        counts = []
        for part in str(text).split(","):
            part = part.strip()
            try:
                if "x" in part:
                    value, reps = part.split("x")
                    counts.extend([int(value)] * int(reps))
                elif part:
                    counts.append(int(part))
            except ValueError as exc:
                raise ConfigError(
                    f"profile {text!r}: bad entry {part!r}, expected N or NxREPEATS"
                ) from exc
        if len(counts) != class_count:
            raise ConfigError(
                f"profile {text!r} lists {len(counts)} classes, need {class_count}"
            )
        return cls(class_count, np.asarray(counts), seed)


def compose_imbalanced(source, profile):
    """Subsample source per class to the profile counts, without
    replacement, deterministically under profile.seed. Source record
    order is preserved, so a profile equal to the source counts returns
    the dataset unchanged."""
    if profile.class_count != source.class_count:
        raise ConfigError(
            f"profile has {profile.class_count} classes, source {source.class_count}"
        )
    have = source.class_counts()
    short = [c for c in range(source.class_count) if profile.counts[c] > have[c]]
    if short:
        detail = ", ".join(f"class {c}: want {profile.counts[c]}, have {have[c]}" for c in short)
        raise CapacityError(f"profile infeasible ({detail})")
    rng = np.random.default_rng(np.random.SeedSequence(profile.seed))
    keep = []
    for c in range(source.class_count):
        idx = np.flatnonzero(source.labels == c)
        chosen = rng.choice(idx, size=int(profile.counts[c]), replace=False)
        keep.append(np.sort(chosen))
    order = np.sort(np.concatenate(keep))
    return source.take(order)


# -- synthetic digits -------------------------------------------------------

# seven-segment encoding: segments A (top), B (upper right), C (lower
# right), D (bottom), E (lower left), F (upper left), G (middle)
_SEGMENTS = {
    0: "ABCDEF", 1: "BC", 2: "ABGED", 3: "ABGCD", 4: "FGBC",
    5: "AFGCD", 6: "AFGEDC", 7: "ABC", 8: "ABCDEFG", 9: "ABCDFG",
}


def _digit_template(d, size=28):
    img = np.zeros((size, size), dtype=np.float32)
    r0, rm, rb = 5, size // 2 - 1, size - 7
    c0, c1 = 9, size - 9
    t = 2
    spans = {
        "A": (slice(r0, r0 + t), slice(c0, c1 + 1)),
        "G": (slice(rm, rm + t), slice(c0, c1 + 1)),
        "D": (slice(rb - t + 1, rb + 1), slice(c0, c1 + 1)),
        "F": (slice(r0, rm + t), slice(c0, c0 + t)),
        "B": (slice(r0, rm + t), slice(c1 - t + 1, c1 + 1)),
        "E": (slice(rm, rb + 1), slice(c0, c0 + t)),
        "C": (slice(rm, rb + 1), slice(c1 - t + 1, c1 + 1)),
    }
    for seg in _SEGMENTS[d]:
        img[spans[seg]] = 1.0
    return img


# synthetic_digits keeps at most this many float64 noise values (64 KB)
# alive, one block of images
_NOISE_BLOCK = 8192
# each synthetic digit is its template rolled by up to this many pixels
JITTER = 2


def synthetic_digits(n_per_class, seed=0, size=28, noise=0.1):
    """Seven-segment digit images with per-sample jitter and pixel noise.
    Returns a LabeledDataset with 10 classes, images [n,1,size,size].

    The draws fix the bytes for a seed. Images come in class order
    (n_per_class of digit 0, then of digit 1, ...), and each image draws
    one jitter pair (dy, dx) = rng.integers(-JITTER, JITTER + 1, size=2),
    then one noise field z of size*size standard normals if noise. The
    image is its template rolled by dy rows and dx columns, plus
    float32(noise * z), clipped to [0, 1]. Only the draws run per image;
    the roll, the noise, the add and the clip run per block.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    templates = np.stack([_digit_template(d, size) for d in range(10)])
    n = 10 * n_per_class
    labels = np.repeat(np.arange(10, dtype=np.int64), n_per_class)
    images = np.empty((n, 1, size, size), dtype=np.float32)
    # window (a, b) of the 2x2-tiled templates is t rolled by (-a, -b):
    # its [r, c] is t[(r + a) % size, (c + b) % size]
    windows = sliding_window_view(np.tile(templates, (1, 2, 2)), (size, size), axis=(1, 2))
    block = max(1, min(n, _NOISE_BLOCK // (size * size)))
    shifts = np.empty((block, 2), dtype=np.int64)
    z = np.empty((block, size, size)) if noise else None
    for lo in range(0, n, block):
        m = min(block, n - lo)
        for j in range(m):
            shifts[j] = rng.integers(-JITTER, JITTER + 1, size=2)
            if noise:
                rng.standard_normal(out=z[j])
        start = -shifts[:m] % size
        out = images[lo:lo + m, 0]
        out[...] = windows[labels[lo:lo + m], start[:, 0], start[:, 1]]
        if noise:
            # Generator.normal returns 0.0 + noise * z, which differs from
            # noise * z only in the sign of a zero; adding the template's
            # pixels (all >= 0) drops that sign
            zm = z[:m]
            zm *= noise
            out += zm.astype(np.float32)
            np.clip(out, 0.0, 1.0, out=out)
    return LabeledDataset(images, labels, 10)


# -- settings ---------------------------------------------------------------

SYNTH_TRAIN_SEED = 1001
SYNTH_TEST_SEED = 2002
KINDS = ("synthetic", "mnist", "cifar10", "cifar100", "composed")


@dataclass
class DataConfig:
    """The dataset a run reads and how it is prepared. mnist without a root
    reads $REVNET_MNIST_DIR, else data/mnist; the other file kinds need one.
    limit keeps the first training samples (0: all); n_per_class,
    test_n_per_class and noise shape the synthetic digits."""

    kind: str = "synthetic"
    root: str = ""
    normalize: str = "divide_mean"
    limit: int = 0
    coarse: bool = False
    n_per_class: int = 200
    test_n_per_class: int = 50
    noise: float = 0.1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"data.kind must be {'|'.join(KINDS)}, got {self.kind!r}")
        if not self.root and self.kind not in ("synthetic", "mnist"):
            raise ConfigError(f"data.kind={self.kind} needs data.root")
        modes = ("none", "divide_mean", "standardize")
        if self.normalize not in modes:
            raise ConfigError(f"data.normalize must be {'|'.join(modes)}, got {self.normalize!r}")
        if self.limit < 0:
            raise ConfigError("data.limit must be >= 0")
        if self.n_per_class < 1 or self.test_n_per_class < 1:
            raise ConfigError("data.n_per_class and data.test_n_per_class must be >= 1")
        if self.noise < 0:
            raise ConfigError("data.noise must be >= 0")

    def load(self, split):
        """One split ("train" or "test"), pixels in [0,1], not normalized."""
        train = split == "train"
        if self.kind == "synthetic":
            n = self.n_per_class if train else self.test_n_per_class
            seed = SYNTH_TRAIN_SEED if train else SYNTH_TEST_SEED
            return synthetic_digits(n, seed=seed, noise=self.noise)
        if self.kind == "mnist":
            root = self.root or os.environ.get("REVNET_MNIST_DIR", "data/mnist")
            return load_mnist_split(root, split)
        if self.kind == "cifar10":
            names = [f"data_batch_{i}.bin" for i in range(1, 6)] if train else ["test_batch.bin"]
            return load_cifar_binary([os.path.join(self.root, n) for n in names], class_count=10)
        if self.kind == "cifar100":
            path = os.path.join(self.root, f"{split}.bin")
            return load_cifar_binary([path], self.coarse, class_count=20 if self.coarse else 100)
        return load_composed(os.path.join(self.root, split))

    def load_pair(self):
        """(train, test) with limit and normalization applied; the test split
        is normalized with the training split's statistics."""
        train, test = self.load("train"), self.load("test")
        if not len(train):
            raise ConfigError(f"data.kind={self.kind}: the training split is an empty dataset")
        if self.limit:
            train = train.take(np.arange(min(self.limit, len(train))))
        if self.normalize != "none":
            train, stats = normalize_channelwise(train, mode=self.normalize)
            test, _ = normalize_channelwise(test, stats=stats, mode=self.normalize)
        return train, test
