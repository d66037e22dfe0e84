"""Image output: pixel mapping oracles, grid geometry, PNM round-trips."""

import numpy as np
import pytest

from file_formats import load_image
from revnet.errors import FormatError, ShapeError
from revnet.imaging import (
    chw_pane,
    generation_grid,
    grid,
    likelihood_strip,
    reconstruction_grid,
    save_image,
    to_u8,
    unit_to_u8,
    vector_strip,
)


class TestPixelMapping:
    def test_affine_endpoints(self):
        pane = np.array([[0.5, 1.0], [1.5, 2.0]])
        u8 = to_u8(pane)
        assert u8[0, 0] == 0
        assert u8[1, 1] == 255

    def test_affine_against_loop_oracle(self):
        rng = np.random.default_rng(0)
        pane = rng.normal(size=(6, 7))
        u8 = to_u8(pane)
        lo, hi = pane.min(), pane.max()
        for i in range(6):
            for j in range(7):
                want = int(np.rint((pane[i, j] - lo) * 255.0 / (hi - lo)))
                assert u8[i, j] == min(max(want, 0), 255)

    def test_constant_pane_black(self):
        assert np.all(to_u8(np.full((3, 3), 4.2)) == 0)

    def test_unit_scale_absolute(self):
        vec = np.array([0.0, 0.5, 1.0, 1.4, -0.3])
        assert np.array_equal(unit_to_u8(vec), [0, 128, 255, 255, 0])

    def test_chw_gray_and_color(self):
        gray = chw_pane(np.zeros((1, 4, 5), dtype=np.float32))
        assert gray.shape == (4, 5)
        color = chw_pane(np.zeros((3, 4, 5), dtype=np.float32))
        assert color.shape == (4, 5, 3)
        with pytest.raises(ShapeError):
            chw_pane(np.zeros((2, 4, 5), dtype=np.float32))


class TestStrips:
    def test_likelihood_strip_geometry(self):
        strip = likelihood_strip(np.linspace(0, 1, 10), height=12)
        assert strip.shape == (12, 80)
        # first cell dark, last cell bright, each cell constant
        assert np.all(strip[:, :8] == 0)
        assert np.all(strip[:, -8:] == 255)

    def test_vector_strip_geometry(self):
        strip = vector_strip(np.array([1.0, 2.0, 3.0]), height=5)
        assert strip.shape == (5, 3)
        assert strip[0, 0] == 0
        assert strip[0, 2] == 255


class TestStacking:
    def test_widths(self):
        a = np.zeros((2, 4, 3), dtype=np.uint8)
        b = np.zeros((2, 4, 5), dtype=np.uint8)
        out = grid([a, b])
        assert out.shape == (2 * 4 + 1, 3 + 1 + 5)

    def test_separator_value(self):
        a = np.full((2, 2, 2), 200, dtype=np.uint8)
        out = grid([a, a])
        assert out.shape == (5, 5)
        assert np.all(out[:, 2] == 0)
        assert np.all(out[2] == 0)
        assert np.all(out[:2, :2] == 200)

    def test_gray_promoted_next_to_color(self):
        gray = np.full((1, 4, 2), 9, dtype=np.uint8)
        color = np.zeros((1, 4, 2, 3), dtype=np.uint8)
        out = grid([gray, color])
        assert out.shape == (4, 5, 3)
        assert np.all(out[:, :2] == 9)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ShapeError):
            grid([np.zeros((1, 3, 2), dtype=np.uint8), np.zeros((1, 4, 2), dtype=np.uint8)])
        with pytest.raises(ShapeError):
            grid([np.zeros((1, 2, 3), dtype=np.uint8), np.zeros((2, 2, 3), dtype=np.uint8)])
        with pytest.raises(ShapeError):
            grid([])


class TestGrids:
    def test_reconstruction_grid_layout(self):
        inputs = np.random.default_rng(0).random((3, 1, 6, 6)).astype(np.float32)
        recons = np.random.default_rng(1).random((3, 1, 6, 6)).astype(np.float32)
        grid = reconstruction_grid(inputs, recons)
        # rows of [6 | sep | 6], three rows with 1px separators
        assert grid.shape == (6 * 3 + 2, 6 + 1 + 6)

    def test_generation_grid_layout(self):
        rng = np.random.default_rng(2)
        inputs = rng.random((2, 1, 8, 8)).astype(np.float32)
        o = rng.dirichlet(np.ones(10), size=2)
        tr = rng.dirichlet(np.ones(10), size=2)
        alphas = rng.normal(size=(2, 32))
        recons = rng.random((2, 1, 8, 8)).astype(np.float32)
        grid = generation_grid(inputs, o, tr, alphas, recons)
        width = 8 + 1 + 80 + 1 + 80 + 1 + 32 + 1 + 8
        assert grid.shape == (8 * 2 + 1, width)


def per_sample_u8(pane):
    """The per-pane rescale as it ran one [H,W] pane at a time."""
    pane = np.asarray(pane, dtype=np.float64)
    lo, hi = pane.min(), pane.max()
    if hi <= lo:
        return np.zeros(pane.shape, dtype=np.uint8)
    return np.clip(np.rint((pane - lo) * (255.0 / (hi - lo))), 0, 255).astype(np.uint8)


def per_sample_pane(img):
    if img.shape[0] == 1:
        return per_sample_u8(img[0])
    return np.stack([per_sample_u8(img[c]) for c in range(3)], axis=-1)


def per_sample_rows(panes_per_sample):
    """Panes of each sample side by side, rows stacked, 1px black
    separators, gray panes promoted next to color ones."""
    rows = []
    for panes in panes_per_sample:
        color = any(p.ndim == 3 for p in panes)
        parts = []
        for p in panes:
            if color and p.ndim == 2:
                p = np.stack([p] * 3, axis=-1)
            if parts:
                parts.append(np.zeros((p.shape[0], 1) + p.shape[2:], dtype=np.uint8))
            parts.append(p)
        rows.append(np.concatenate(parts, axis=1))
    out = []
    for r in rows:
        if out:
            out.append(np.zeros((1,) + r.shape[1:], dtype=np.uint8))
        out.append(r)
    return np.concatenate(out, axis=0)


def per_sample_strip(vec, h, cell=None):
    if cell is None:
        u8 = per_sample_u8(np.asarray(vec).reshape(1, -1))
        return np.repeat(u8, h, axis=0)
    u8 = np.clip(np.rint(np.asarray(vec, dtype=np.float64) * 255.0), 0, 255).astype(np.uint8)
    return np.repeat(np.repeat(u8[None, :], h, axis=0), cell, axis=1)


class TestBatchedGridsMatchPerSample:
    """The grids built in one pass equal, byte for byte, the grids built
    one sample and one pane at a time."""

    @staticmethod
    def maps(rng, channels, dtype):
        x = rng.normal(size=(4, channels, 6, 5)) * 3
        x[1, 0] = 0.7  # a constant pane
        x[2, -1, :2] = x[2, -1].max()  # ties at the top
        x[3] = np.round(x[3])  # ties everywhere, signed zeros
        x[3][x[3] == 0] = -0.0
        return x.astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_reconstruction_grid(self, channels, dtype):
        rng = np.random.default_rng(channels)
        x, xbar = self.maps(rng, channels, dtype), self.maps(rng, channels, dtype)[::-1]
        want = per_sample_rows([[per_sample_pane(a), per_sample_pane(b)] for a, b in zip(x, xbar)])
        got = reconstruction_grid(x, xbar)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    @pytest.mark.parametrize("channels", [1, 3])
    def test_generation_grid(self, channels):
        rng = np.random.default_rng(10 + channels)
        x, xbar = self.maps(rng, channels, np.float32), self.maps(rng, channels, np.float32)
        o = rng.dirichlet(np.ones(5), size=4).astype(np.float32)
        tr = rng.dirichlet(np.ones(5), size=4).astype(np.float32)
        alphas = rng.normal(size=(4, 2, 3, 2)).astype(np.float32)
        alphas[0] = 1.5  # a constant latent
        want = per_sample_rows([
            [per_sample_pane(x[i]), per_sample_strip(o[i], 6, 8), per_sample_strip(tr[i], 6, 8),
             per_sample_strip(alphas[i], 6), per_sample_pane(xbar[i])]
            for i in range(4)
        ])
        got = generation_grid(x, o, tr, alphas, xbar)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    def test_empty_batch_rejected(self):
        with pytest.raises(ShapeError):
            reconstruction_grid(np.zeros((0, 1, 4, 4)), np.zeros((0, 1, 4, 4)))


class TestPnmFiles:
    def test_pgm_header_oracle(self, tmp_path):
        arr = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "img.pgm"
        save_image(path, arr)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n4 3\n255\n")
        assert raw[len(b"P5\n4 3\n255\n"):] == arr.tobytes()

    def test_ppm_header_oracle(self, tmp_path):
        arr = np.zeros((2, 5, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        save_image(path, arr)
        assert path.read_bytes().startswith(b"P6\n5 2\n255\n")

    def test_round_trip_gray(self, tmp_path):
        arr = np.random.default_rng(3).integers(0, 256, (7, 9), dtype=np.uint8)
        path = tmp_path / "rt.pgm"
        save_image(path, arr)
        assert np.array_equal(load_image(path), arr)

    def test_round_trip_color(self, tmp_path):
        arr = np.random.default_rng(4).integers(0, 256, (5, 4, 3), dtype=np.uint8)
        path = tmp_path / "rt.ppm"
        save_image(path, arr)
        assert np.array_equal(load_image(path), arr)

    def test_rejects_non_u8(self, tmp_path):
        with pytest.raises(FormatError):
            save_image(tmp_path / "x.pgm", np.zeros((2, 2), dtype=np.float32))

    def test_rejects_bad_rank(self, tmp_path):
        with pytest.raises(ShapeError):
            save_image(tmp_path / "x.pgm", np.zeros((2, 2, 2), dtype=np.uint8))

    def test_load_rejects_foreign(self, tmp_path):
        path = tmp_path / "junk.pgm"
        path.write_bytes(b"GIF89a\x00\x00\x00\x00")
        with pytest.raises(FormatError):
            load_image(path)
