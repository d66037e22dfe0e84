"""Binary format round-trips, normalization, augmentation, imbalance
composition, and the synthetic digit generator."""

import gzip
import itertools
import json
import os
import tracemalloc

import numpy as np
import pytest

from file_formats import write_idx_images, write_idx_labels
from reference_digits import synthetic_digits as reference_digits
from revnet import data
from revnet.data import (
    SYNTH_TEST_SEED,
    SYNTH_TRAIN_SEED,
    DataConfig,
    ImbalanceProfile,
    LabeledDataset,
    _digit_template,
    augment,
    compose_imbalanced,
    load_cifar_binary,
    load_composed,
    load_idx_images,
    load_idx_labels,
    load_mnist_idx,
    load_mnist_split,
    mnist_paths,
    normalize_channelwise,
    save_composed,
    save_records,
    synthetic_digits,
)
from revnet.errors import (
    CapacityError,
    ConfigError,
    ConsistencyError,
    DataError,
    DomainError,
    FormatError,
)


def tiny_dataset(n=20, classes=4, seed=0, size=6):
    rng = np.random.default_rng(seed)
    images = rng.random((n, 1, size, size)).astype(np.float32)
    labels = rng.integers(0, classes, size=n).astype(np.int64)
    return LabeledDataset(images, labels, classes)


class TestLabeledDataset:
    def test_counts_and_take(self):
        ds = LabeledDataset(
            np.zeros((4, 1, 2, 2), dtype=np.float32),
            np.array([0, 2, 2, 1], dtype=np.int64),
            3,
        )
        assert len(ds) == 4
        assert np.array_equal(ds.class_counts(), [1, 1, 2])
        sub = ds.take(np.array([1, 2]))
        assert np.array_equal(sub.labels, [2, 2])

    def test_rank_checked(self):
        with pytest.raises(FormatError):
            LabeledDataset(np.zeros((4, 2, 2), dtype=np.float32), np.zeros(4, dtype=np.int64), 3)

    def test_count_mismatch(self):
        with pytest.raises(ConsistencyError):
            LabeledDataset(np.zeros((4, 1, 2, 2), dtype=np.float32), np.zeros(3, dtype=np.int64), 3)

    def test_label_range(self):
        with pytest.raises(ConsistencyError):
            LabeledDataset(
                np.zeros((2, 1, 2, 2), dtype=np.float32),
                np.array([0, 3], dtype=np.int64),
                3,
            )


class TestIdxRoundTrip:
    def test_images_pixel_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        u8 = rng.integers(0, 256, size=(2, 3, 4), dtype=np.uint8)
        path = tmp_path / "imgs"
        write_idx_images(path, u8)
        loaded = load_idx_images(path)
        assert loaded.shape == (2, 1, 3, 4)
        assert loaded.dtype == np.float32
        back = np.rint(loaded * 255.0).astype(np.uint8)[:, 0]
        assert np.array_equal(back, u8)

    def test_labels_exact(self, tmp_path):
        labels = np.array([0, 9, 3, 255], dtype=np.uint8)
        path = tmp_path / "labels"
        write_idx_labels(path, labels)
        assert np.array_equal(load_idx_labels(path), labels.astype(np.int64))

    def test_gzip_transparent(self, tmp_path):
        u8 = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
        plain = tmp_path / "imgs"
        write_idx_images(plain, u8)
        gz = tmp_path / "imgs.gz"
        gz.write_bytes(gzip.compress(plain.read_bytes()))
        assert np.array_equal(load_idx_images(gz), load_idx_images(plain))

    def test_bad_magic_named(self, tmp_path):
        path = tmp_path / "labels"
        write_idx_labels(path, np.array([1, 2], dtype=np.uint8))
        with pytest.raises(FormatError, match="magic"):
            load_idx_images(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(b"\x00" * 6)
        with pytest.raises(FormatError, match="byte 6"):
            load_idx_labels(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc"
        write_idx_images(path, np.zeros((2, 3, 4), dtype=np.uint8))
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(FormatError, match=f"byte {len(raw) - 5}"):
            load_idx_images(path)

    # gzip.decompress raises EOFError, zlib.error and BadGzipFile on these
    @pytest.mark.parametrize("what", ["magic only", "bad deflate block", "bad method"])
    def test_bad_gzip_is_format_error(self, tmp_path, what):
        whole = gzip.compress(bytes(100))
        raw = {"magic only": b"\x1f\x8bjunk", "bad deflate block": whole[:10] + b"\xff" * 20,
               "bad method": whole[:2] + b"\x09" + whole[3:]}[what]
        path = tmp_path / "imgs.gz"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="not a valid gzip file"):
            load_idx_images(path)

    def test_pair_count_mismatch(self, tmp_path):
        write_idx_images(tmp_path / "i", np.zeros((3, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "l", np.zeros(2, dtype=np.uint8))
        with pytest.raises(ConsistencyError):
            load_mnist_idx(tmp_path / "i", tmp_path / "l")


class TestMnistDir:
    def write_pair(self, tmp_path, img_name, lab_name, n, gz=False):
        rng = np.random.default_rng(n)
        write_idx_images(tmp_path / "tmp_i", rng.integers(0, 256, (n, 4, 4), dtype=np.uint8))
        write_idx_labels(tmp_path / "tmp_l", rng.integers(0, 10, n).astype(np.uint8))
        for src, name in (("tmp_i", img_name), ("tmp_l", lab_name)):
            data = (tmp_path / src).read_bytes()
            if gz:
                (tmp_path / (name + ".gz")).write_bytes(gzip.compress(data))
            else:
                (tmp_path / name).write_bytes(data)
            os.remove(tmp_path / src)

    def test_missing_named(self, tmp_path):
        with pytest.raises(DataError, match="train-images-idx3-ubyte"):
            mnist_paths(tmp_path)

    def test_finds_plain_and_gz(self, tmp_path):
        self.write_pair(tmp_path, "train-images-idx3-ubyte", "train-labels-idx1-ubyte", 6)
        self.write_pair(tmp_path, "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte", 3, gz=True)
        train, test = load_mnist_split(tmp_path, "train"), load_mnist_split(tmp_path, "test")
        assert len(train) == 6
        assert len(test) == 3
        assert train.class_count == 10

    def test_dotted_alternate_names(self, tmp_path):
        self.write_pair(tmp_path, "train-images.idx3-ubyte", "train-labels.idx1-ubyte", 4)
        self.write_pair(tmp_path, "t10k-images.idx3-ubyte", "t10k-labels.idx1-ubyte", 2)
        train, test = load_mnist_split(tmp_path, "train"), load_mnist_split(tmp_path, "test")
        assert len(train) == 4
        assert len(test) == 2


class TestCifarRecords:
    def test_single_record_layout(self, tmp_path):
        pix = np.arange(12, dtype=np.uint8)
        path = tmp_path / "batch.bin"
        path.write_bytes(bytes([3]) + pix.tobytes())
        ds = load_cifar_binary([path], shape=(3, 2, 2))
        assert len(ds) == 1
        assert ds.labels[0] == 3
        assert np.array_equal(
            np.rint(ds.images[0] * 255.0).astype(np.uint8),
            pix.reshape(3, 2, 2),
        )

    def test_multiple_files_concatenate(self, tmp_path):
        for i in (0, 1):
            (tmp_path / f"b{i}.bin").write_bytes(
                bytes([i]) + bytes(range(12))
            )
        ds = load_cifar_binary([tmp_path / "b0.bin", tmp_path / "b1.bin"], shape=(3, 2, 2))
        assert np.array_equal(ds.labels, [0, 1])

    def test_two_byte_labels(self, tmp_path):
        path = tmp_path / "c100.bin"
        path.write_bytes(bytes([7, 42]) + bytes(12))
        fine = load_cifar_binary([path], shape=(3, 2, 2), class_count=100)
        assert fine.labels[0] == 42
        coarse = load_cifar_binary([path], shape=(3, 2, 2), class_count=20, coarse=True)
        assert coarse.labels[0] == 7

    def test_bad_record_size(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(14))
        with pytest.raises(FormatError, match="13-byte record"):
            load_cifar_binary([path], shape=(3, 2, 2))

    def test_save_records_round_trip(self, tmp_path):
        ds = tiny_dataset(n=8, classes=4, size=5)
        path = tmp_path / "out.bin"
        save_records(path, ds)
        back = load_cifar_binary([path], shape=(1, 5, 5), class_count=4)
        assert np.array_equal(back.labels, ds.labels)
        want = np.clip(np.rint(ds.images * 255.0), 0, 255) / 255.0
        assert np.allclose(back.images, want, atol=1e-7)


def save_any_composed(out_dir, ds):
    """save_composed with a placeholder profile of 2 per class."""
    save_composed(out_dir, ds, ImbalanceProfile(ds.class_count, [2] * ds.class_count), "unit test")


class TestComposedDir:
    def test_round_trip_and_manifest(self, tmp_path):
        ds = tiny_dataset(n=10, classes=4)
        profile = ImbalanceProfile(4, [3, 3, 2, 2], seed=5)
        save_composed(tmp_path / "d", ds, profile, "unit test")
        with open(tmp_path / "d" / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["n"] == 10
        assert manifest["class_count"] == 4
        assert manifest["profile_counts"] == [3, 3, 2, 2]
        assert manifest["seed"] == 5
        assert manifest["source"] == "unit test"
        back = load_composed(tmp_path / "d")
        assert np.array_equal(back.labels, ds.labels)
        assert len(back) == 10

    @pytest.mark.parametrize("classes", [10, 20, 100])
    def test_round_trip_at_cifar_class_counts(self, tmp_path, classes):
        # composed records hold one label byte, also at CIFAR-100's 20 and
        # 100 classes, whose source files hold two
        ds = tiny_dataset(n=3 * classes, classes=classes, seed=classes)
        save_any_composed(tmp_path / "d", ds)
        back = load_composed(tmp_path / "d")
        assert back.class_count == classes
        assert np.array_equal(back.labels, ds.labels)
        want = np.clip(np.rint(ds.images * 255.0), 0, 255) / 255.0
        assert np.allclose(back.images, want, atol=1e-7)

    def test_missing_manifest_is_data_error(self, tmp_path):
        os.makedirs(tmp_path / "d")
        with pytest.raises(DataError, match="manifest.json"):
            load_composed(tmp_path / "d")

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"n": 6}'])
    def test_unparsable_manifest_is_format_error(self, tmp_path, text):
        save_any_composed(tmp_path / "d", tiny_dataset(n=6, classes=4))
        (tmp_path / "d" / "manifest.json").write_text(text)
        with pytest.raises(FormatError, match="not a composed-dataset manifest"):
            load_composed(tmp_path / "d")

    def test_manifest_mismatch_caught(self, tmp_path):
        ds = tiny_dataset(n=6, classes=4)
        save_any_composed(tmp_path / "d", ds)
        mpath = tmp_path / "d" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["n"] = 7
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ConsistencyError):
            load_composed(tmp_path / "d")


class TestNormalize:
    def test_divide_mean_unit_mean(self):
        ds = tiny_dataset(n=50, size=8)
        out, stats = normalize_channelwise(ds)
        assert abs(float(out.images.mean()) - 1.0) < 1e-5
        assert np.allclose(out.images, ds.images / stats[0][0])

    def test_channelwise_independence(self):
        rng = np.random.default_rng(9)
        images = np.stack(
            [rng.random((30, 4, 4)) * 0.2, rng.random((30, 4, 4)) * 0.8], axis=1
        ).astype(np.float32)
        ds = LabeledDataset(images, np.zeros(30, dtype=np.int64), 1)
        out, _ = normalize_channelwise(ds)
        for c in (0, 1):
            assert abs(float(out.images[:, c].mean()) - 1.0) < 1e-5

    def test_train_stats_reused_for_test(self):
        train = tiny_dataset(n=40, seed=0)
        test = tiny_dataset(n=10, seed=1)
        _, stats = normalize_channelwise(train)
        out, _ = normalize_channelwise(test, stats=stats)
        assert np.allclose(out.images, test.images / stats[0][0])
        # a fresh normalization of the test set would differ
        fresh, _ = normalize_channelwise(test)
        assert not np.allclose(out.images, fresh.images)

    @pytest.mark.parametrize("mode", ["divide_mean", "standardize"])
    def test_mode_computes_only_its_statistics(self, mode):
        # the images the two-statistic code made: both statistics computed,
        # the mode's expression applied to the training and the test split
        rng = np.random.default_rng(12)
        train, test = (LabeledDataset(rng.random((n, 3, 6, 6)).astype(np.float32),
                                      np.zeros(n, dtype=np.int64), 1) for n in (40, 10))
        mean = train.images.mean(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
        std = train.images.std(axis=(0, 2, 3)).reshape(1, -1, 1, 1)

        def want(ds):
            out = ds.images / mean if mode == "divide_mean" else (ds.images - mean) / std
            return out.astype(np.float32, copy=False)

        train_n, stats = normalize_channelwise(train, mode=mode)
        test_n, reused = normalize_channelwise(test, stats=stats, mode=mode)
        assert reused is stats
        assert stats[0].tobytes() == mean.tobytes()
        if mode == "divide_mean":
            assert stats[1] is None
        else:
            assert stats[1].tobytes() == std.tobytes()
        assert train_n.images.tobytes() == want(train).tobytes()
        assert test_n.images.tobytes() == want(test).tobytes()

    def test_standardize(self):
        ds = tiny_dataset(n=60, size=8)
        out, _ = normalize_channelwise(ds, mode="standardize")
        assert abs(float(out.images.mean())) < 1e-5
        assert abs(float(out.images.std()) - 1.0) < 1e-4

    def test_zero_mean_rejected(self):
        ds = LabeledDataset(
            np.zeros((4, 1, 2, 2), dtype=np.float32), np.zeros(4, dtype=np.int64), 1
        )
        with pytest.raises(DomainError):
            normalize_channelwise(ds)

    def test_zero_std_rejected(self):
        ds = LabeledDataset(
            np.ones((4, 1, 2, 2), dtype=np.float32), np.zeros(4, dtype=np.int64), 1
        )
        with pytest.raises(DomainError):
            normalize_channelwise(ds, mode="standardize")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            normalize_channelwise(tiny_dataset(), mode="minmax")


class TestAugment:
    def test_matches_loop_oracle(self):
        # mirrors the documented draw order: two crop offsets then one
        # flip coin per image, images visited in batch order, at a crop
        # pad of 4 and a flip probability of 0.5
        rng = np.random.default_rng(3)
        batch = rng.random((8, 2, 5, 5)).astype(np.float32)
        got = augment(batch, np.random.default_rng(77))
        oracle_rng = np.random.default_rng(77)
        padded = np.pad(batch, ((0, 0), (0, 0), (4, 4), (4, 4)))
        for i in range(batch.shape[0]):
            dy, dx = oracle_rng.integers(0, 9, size=2)
            img = padded[i, :, dy:dy + 5, dx:dx + 5]
            if oracle_rng.random() < 0.5:
                img = img[:, :, ::-1]
            assert np.array_equal(got[i], img)

    def test_flip_rate_near_half(self):
        # every column of a 5x6 image holds its index + 1; any crop within
        # the pad of 4 keeps at least one row and two columns, whose order
        # tells whether the image was flipped
        batch = np.broadcast_to(np.arange(1, 7, dtype=np.float32), (4000, 1, 5, 6)).copy()
        out = augment(batch, np.random.default_rng(11))
        cols = out.sum(axis=(1, 2))
        first = np.argmax(cols > 0, axis=1)
        last = cols.shape[1] - 1 - np.argmax(cols[:, ::-1] > 0, axis=1)
        rows = np.arange(len(cols))
        assert np.all(first < last)
        flipped = float(np.mean(cols[rows, first] > cols[rows, last]))
        assert 0.46 < flipped < 0.54

    def test_shape_and_dtype_preserved(self):
        batch = np.random.default_rng(6).random((3, 3, 8, 8)).astype(np.float32)
        out = augment(batch, np.random.default_rng(1))
        assert out.shape == batch.shape
        assert out.dtype == batch.dtype


class TestImbalanceProfile:
    def test_parse_compact(self):
        p = ImbalanceProfile.parse("5000x5,50x5", 10)
        assert np.array_equal(p.counts, [5000] * 5 + [50] * 5)

    def test_parse_mixed(self):
        p = ImbalanceProfile.parse("10,20x2,5", 4)
        assert np.array_equal(p.counts, [10, 20, 20, 5])

    def test_parse_wrong_arity(self):
        with pytest.raises(ConfigError):
            ImbalanceProfile.parse("10,20", 3)

    def test_minimum_count(self):
        with pytest.raises(ConfigError):
            ImbalanceProfile(2, [5, 1])


class TestCompose:
    def test_exact_counts(self):
        source = synthetic_digits(30, seed=0, noise=0.0)
        profile = ImbalanceProfile.parse("10x5,4x5", 10, seed=1)
        out = compose_imbalanced(source, profile)
        assert np.array_equal(out.class_counts(), profile.counts)

    def test_deterministic_under_seed(self):
        source = synthetic_digits(20, seed=0)
        profile = ImbalanceProfile.parse("8x10", 10, seed=3)
        a = compose_imbalanced(source, profile)
        b = compose_imbalanced(source, profile)
        assert np.array_equal(a.images, b.images)
        other = compose_imbalanced(source, ImbalanceProfile.parse("8x10", 10, seed=4))
        assert not np.array_equal(a.images, other.images)

    def test_identity_profile_returns_source_unchanged(self):
        source = synthetic_digits(5, seed=2)
        profile = ImbalanceProfile(10, source.class_counts(), seed=9)
        out = compose_imbalanced(source, profile)
        assert np.array_equal(out.images, source.images)
        assert np.array_equal(out.labels, source.labels)

    def test_source_order_preserved(self):
        # synthetic digits are emitted grouped by ascending class, and
        # composition keeps source order, so labels stay nondecreasing
        source = synthetic_digits(10, seed=1)
        out = compose_imbalanced(source, ImbalanceProfile.parse("4x10", 10))
        assert np.all(np.diff(out.labels) >= 0)

    def test_infeasible_named(self):
        source = synthetic_digits(5, seed=0)
        profile = ImbalanceProfile.parse("6,5x9", 10)
        with pytest.raises(CapacityError, match="class 0: want 6, have 5"):
            compose_imbalanced(source, profile)

    def test_class_count_mismatch(self):
        source = synthetic_digits(5, seed=0)
        with pytest.raises(ConfigError):
            compose_imbalanced(source, ImbalanceProfile(2, [2, 2]))


class TestSyntheticDigits:
    def test_shapes_and_balance(self):
        ds = synthetic_digits(7, seed=0)
        assert ds.images.shape == (70, 1, 28, 28)
        assert np.array_equal(ds.class_counts(), [7] * 10)
        assert ds.images.min() >= 0.0
        assert ds.images.max() <= 1.0

    def test_deterministic(self):
        a = synthetic_digits(3, seed=5)
        b = synthetic_digits(3, seed=5)
        assert np.array_equal(a.images, b.images)
        c = synthetic_digits(3, seed=6)
        assert not np.array_equal(a.images, c.images)

    def test_clean_mode_repeats_templates(self):
        # with noise 0, every image is its class template rolled by some
        # (dy, dx) in [-2, 2]^2
        ds = synthetic_digits(3, seed=0, noise=0.0)
        rolls = [(dy, dx) for dy in range(-2, 3) for dx in range(-2, 3)]
        for img, d in zip(ds.images[:, 0], ds.labels):
            t = _digit_template(d)
            assert any(np.array_equal(img, np.roll(t, r, axis=(0, 1))) for r in rolls)

    def test_digits_differ(self):
        templates = [_digit_template(d) for d in range(10)]
        for a in range(10):
            for b in range(a + 1, 10):
                assert not np.array_equal(templates[a], templates[b])

    # every (size, noise) of the grid, each at n_per_class 1 and 7 under
    # three seeds (two of them the CLI's), and at 0 and 128 under one. The
    # library rolls as the reference does at jitter 2: the same bytes
    # there, and other bytes at the grid's other jitters
    @pytest.mark.parametrize("size, noise, jitter", list(itertools.product(
        (20, 28, 32), (0.0, 0.1, 0.5), (0, 1, 2, 3))))
    def test_same_bytes_as_per_image_reference(self, size, noise, jitter):
        seeds = (SYNTH_TRAIN_SEED, SYNTH_TEST_SEED, 7)
        runs = [(n, seed) for n in (1, 7) for seed in seeds]
        runs += [(0, 7), (128, seeds[(size + jitter) % 3])]
        for n, seed in runs:
            got = synthetic_digits(n, seed=seed, size=size, noise=noise)
            want = reference_digits(n, seed=seed, size=size, noise=noise, jitter=jitter)
            assert got.images.dtype == want.images.dtype and got.labels.dtype == want.labels.dtype
            same = got.images.tobytes() == want.images.tobytes()
            assert same == (jitter == 2 or n == 0), (n, seed)
            assert got.labels.tobytes() == want.labels.tobytes(), (n, seed)

    def test_no_dataset_sized_temporaries(self):
        tracemalloc.start()
        try:
            ds = synthetic_digits(128, seed=SYNTH_TRAIN_SEED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * ds.images.nbytes


class TestDataConfig:
    """The data.* settings: checked when built, before any file is read."""

    @pytest.mark.parametrize("kwargs, match", [
        ({"kind": "bogus"}, "data.kind must be"),
        ({"kind": "cifar10"}, "data.kind=cifar10 needs data.root"),
        ({"kind": "composed"}, "needs data.root"),
        ({"normalize": "zscore"}, "data.normalize"),
        ({"limit": -3}, "data.limit"),
        ({"n_per_class": 0}, "data.n_per_class"),
        ({"test_n_per_class": 0}, "data.test_n_per_class"),
        ({"noise": -1.0}, "data.noise"),
    ])
    def test_rejects_bad_values(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            DataConfig(**kwargs)

    def test_synthetic_splits_use_fixed_seeds(self):
        train, test = DataConfig(n_per_class=3, test_n_per_class=2, normalize="none").load_pair()
        assert np.array_equal(train.images, synthetic_digits(3, seed=SYNTH_TRAIN_SEED).images)
        assert np.array_equal(test.images, synthetic_digits(2, seed=SYNTH_TEST_SEED).images)

    def test_limit_then_train_statistics_for_both_splits(self):
        dcfg = DataConfig(n_per_class=3, test_n_per_class=2, limit=7, normalize="standardize")
        train, test = dcfg.load_pair()
        raw_train = DataConfig(n_per_class=3).load("train").take(np.arange(7))
        want_train, stats = normalize_channelwise(raw_train, mode="standardize")
        want_test, _ = normalize_channelwise(dcfg.load("test"), stats=stats, mode="standardize")
        assert np.array_equal(train.images, want_train.images)
        assert np.array_equal(test.images, want_test.images)

    def write_mnist(self, root):
        rng = np.random.default_rng(0)
        for prefix, n in (("train", 5), ("t10k", 3)):
            write_idx_images(root / f"{prefix}-images-idx3-ubyte",
                             rng.integers(0, 256, (n, 4, 4), dtype=np.uint8))
            write_idx_labels(root / f"{prefix}-labels-idx1-ubyte",
                             rng.integers(0, 10, n).astype(np.uint8))

    def test_mnist_pair_reads_each_file_once(self, tmp_path, monkeypatch):
        self.write_mnist(tmp_path)
        calls, reads = [], []
        load_idx, read = data.load_mnist_idx, data._read_bytes

        def spy_load(*args, **kwargs):
            calls.append(args)
            return load_idx(*args, **kwargs)

        def spy_read(path):
            reads.append(os.path.basename(path))
            return read(path)

        monkeypatch.setattr(data, "load_mnist_idx", spy_load)
        monkeypatch.setattr(data, "_read_bytes", spy_read)
        train, test = DataConfig(kind="mnist", root=str(tmp_path), normalize="none").load_pair()
        assert (len(train), len(test)) == (5, 3)
        assert len(calls) == 2
        assert sorted(reads) == sorted(n for names in data.MNIST_FILES.values() for n in names[:1])

    def test_empty_training_split_rejected_before_normalizing(self, tmp_path):
        for i in range(1, 6):
            (tmp_path / f"data_batch_{i}.bin").write_bytes(b"")
        (tmp_path / "test_batch.bin").write_bytes(bytes(2 * (1 + 3 * 32 * 32)))
        with pytest.raises(ConfigError, match="training split is an empty dataset"):
            DataConfig(kind="cifar10", root=str(tmp_path)).load_pair()

    def test_mnist_root_from_environment(self, tmp_path, monkeypatch):
        self.write_mnist(tmp_path)
        monkeypatch.setenv("REVNET_MNIST_DIR", str(tmp_path))
        assert len(DataConfig(kind="mnist").load("test")) == 3

    @pytest.mark.parametrize("kind, name", [
        ("cifar10", "data_batch_1.bin"), ("cifar100", "train.bin"), ("composed", "manifest.json"),
    ])
    def test_missing_files_are_data_errors(self, tmp_path, kind, name):
        with pytest.raises(DataError, match=f"cannot read .*{name}"):
            DataConfig(kind=kind, root=str(tmp_path)).load("train")
