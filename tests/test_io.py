import csv

import numpy as np
import pytest

from polarcube import (
    ContainerError,
    Curve,
    LabelSchemaError,
    LabelSet,
    MosaicLayout,
    NormalMapStack,
    ScalarCube,
    StokesImage,
    default_qwp_angles,
    export_csv,
    inr_init,
    pca_encode,
    pca_fit_image,
    poincare_density,
    random_scene,
    read_labels,
    read_spsi,
    simulate_hyperspectral,
    simulate_trichromatic,
    stokes_histograms,
    uniform_scene,
    write_labels,
    write_spsi,
)
from polarcube.io import cube_payload_bytes

RNG = np.random.default_rng(404)


def random_cube(dtype=np.float32, h=7, w=9, c=3):
    img = random_scene(h, w, c, np.random.default_rng(2),
                       wavelengths=500.0 + 10 * np.arange(c))
    img.data = img.data.astype(dtype)
    img.mask = np.random.default_rng(3).uniform(size=(h, w, c)) > 0.3
    return img


class TestCubeRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical(self, tmp_path, dtype):
        img = random_cube(dtype)
        path = tmp_path / "cube.spsi"
        write_spsi(path, img)
        loaded = read_spsi(path)
        assert loaded.data.dtype == np.dtype(dtype)
        assert np.array_equal(loaded.data, img.data)
        assert np.array_equal(loaded.mask, img.mask)
        assert np.allclose(loaded.wavelengths, img.wavelengths)

    def test_rgb_cube_without_wavelengths(self, tmp_path):
        img = uniform_scene(4, 4, 3)
        path = tmp_path / "rgb.spsi"
        write_spsi(path, img)
        assert read_spsi(path).wavelengths is None

    def test_scalar_cube_roundtrip(self, tmp_path):
        cube = ScalarCube(RNG.uniform(size=(5, 6, 2)).astype(np.float32))
        path = tmp_path / "scalar.spsi"
        write_spsi(path, cube)
        loaded = read_spsi(path)
        assert isinstance(loaded, ScalarCube)
        assert np.array_equal(loaded.data, cube.data)

    def test_normal_stack_roundtrip(self, tmp_path):
        n = RNG.normal(size=(4, 4, 3, 3))
        n /= np.linalg.norm(n, axis=-1, keepdims=True)
        path = tmp_path / "normals.spsi"
        write_spsi(path, NormalMapStack(n))
        loaded = read_spsi(path)
        assert isinstance(loaded, NormalMapStack)
        assert np.array_equal(loaded.data, n)

    def test_deterministic_bytes(self, tmp_path):
        img = random_cube()
        a, b = tmp_path / "a.spsi", tmp_path / "b.spsi"
        write_spsi(a, img)
        write_spsi(b, img)
        assert a.read_bytes() == b.read_bytes()


class TestContainerErrors:
    def test_truncated_file(self, tmp_path):
        img = random_cube()
        path = tmp_path / "cube.spsi"
        write_spsi(path, img)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ContainerError, match="truncat|mismatch"):
            read_spsi(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.spsi"
        path.write_bytes(b"JUNK" + bytes(40))
        with pytest.raises(ContainerError, match="magic"):
            read_spsi(path)

    def test_version_mismatch(self, tmp_path):
        img = random_cube()
        path = tmp_path / "cube.spsi"
        write_spsi(path, img)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # version low byte
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match="version"):
            read_spsi(path)

    def test_trailing_garbage(self, tmp_path):
        img = random_cube()
        path = tmp_path / "cube.spsi"
        write_spsi(path, img)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ContainerError, match="mismatch"):
            read_spsi(path)

    def test_header_field_overflow_leaves_no_file(self, tmp_path):
        path = tmp_path / "cube.spsi"
        write_spsi(path, random_cube())
        before = path.read_bytes()
        too_many_channels = StokesImage(np.tile([1.0, 0.0, 0.0, 0.0], (1, 1, 65536, 1)))
        with pytest.raises(ContainerError, match="65535"):
            write_spsi(path, too_many_channels)
        assert [p.name for p in tmp_path.iterdir()] == ["cube.spsi"]
        assert path.read_bytes() == before

    def test_header_payload_arithmetic(self):
        data_bytes, mask_bytes = cube_payload_bytes(612, 512, 21, 4, dtype_code=0)
        assert data_bytes == 612 * 512 * 21 * 4 * 4
        assert mask_bytes == (612 * 512 * 21 + 7) // 8


class TestRawCaptureRoundTrip:
    def test_hyperspectral(self, tmp_path):
        scene = random_scene(8, 8, 2, RNG, wavelengths=[500.0, 600.0])
        raw = simulate_hyperspectral(scene, default_qwp_angles())
        path = tmp_path / "raw.spsi"
        write_spsi(path, raw)
        loaded = read_spsi(path)
        assert np.array_equal(loaded.frames, raw.frames)
        assert loaded.tags == raw.tags
        assert loaded.config.configs_for(0) == raw.config.configs_for(0)
        assert loaded.saturation_level == raw.saturation_level

    def test_mosaic(self, tmp_path):
        scene = uniform_scene(8, 8, 3)
        raw = simulate_trichromatic(scene)
        path = tmp_path / "mosaic.spsi"
        write_spsi(path, raw)
        loaded = read_spsi(path)
        assert loaded.layout is not None
        assert np.array_equal(loaded.layout.colors, MosaicLayout.default().colors)
        assert np.array_equal(loaded.frames, raw.frames)
        assert loaded.config.configs_for(1) == raw.config.configs_for(1)


class TestCodecArtifacts:
    def test_codebook_roundtrip(self, tmp_path):
        img = random_scene(16, 16, 2, RNG, wavelengths=[500.0, 600.0])
        codebook = pca_fit_image(img, 2, 8)
        path = tmp_path / "codebook.spsi"
        write_spsi(path, codebook)
        loaded = read_spsi(path)
        assert np.array_equal(loaded.basis, codebook.basis)
        assert np.array_equal(loaded.mean, codebook.mean)
        assert loaded.total_variance == codebook.total_variance
        assert loaded.patch_size == 2

    def test_encoding_roundtrip(self, tmp_path):
        img = random_scene(16, 16, 2, RNG, wavelengths=[500.0, 600.0])
        enc = pca_encode(img, pca_fit_image(img, 2, 8))
        path = tmp_path / "encoding.spsi"
        write_spsi(path, enc)
        loaded = read_spsi(path)
        assert np.array_equal(loaded.coefficients, enc.coefficients)
        assert loaded.patch_size == enc.patch_size
        assert loaded.grid_h == enc.grid_h and loaded.grid_w == enc.grid_w

    def test_inr_model_roundtrip(self, tmp_path):
        model = inr_init(4, 16, seed=5, grid_shape=(8, 8, 3))
        path = tmp_path / "model.spsi"
        write_spsi(path, model)
        loaded = read_spsi(path)
        assert loaded.layers == 4 and loaded.hidden_width == 16
        assert loaded.grid_shape == (8, 8, 3)
        for wa, wb in zip(loaded.weights, model.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(loaded.biases, model.biases):
            assert np.array_equal(ba, bb)


class TestLabels:
    def test_roundtrip(self, tmp_path):
        labels = LabelSet("outdoor", "sunlight", "2023-06-01T10:00:00", "scene")
        path = tmp_path / "labels.json"
        write_labels(path, labels, notes="clear sky", rig="sequential")
        assert read_labels(path) == labels

    def test_unknown_illumination_rejected(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(
            '{"environment": "indoor", "illumination": "laser", '
            '"capture_time": "2023-06-01T10:00:00", "scene_type": "object"}'
        )
        with pytest.raises(LabelSchemaError, match="illumination"):
            read_labels(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(
            '{"environment": "indoor", "illumination": "white", '
            '"capture_time": "2023-06-01T10:00:00"}'
        )
        with pytest.raises(LabelSchemaError, match="scene_type"):
            read_labels(path)

    def test_bad_timestamp_rejected(self):
        with pytest.raises(LabelSchemaError, match="capture_time"):
            LabelSet("indoor", "white", "yesterday-ish", "object")

    def test_deterministic_bytes(self, tmp_path):
        labels = LabelSet("indoor", "white", "2023-06-01T10:00:00", "object")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_labels(a, labels)
        write_labels(b, labels)
        assert a.read_bytes() == b.read_bytes()


class TestCsvExport:
    def test_histogram_line_count(self, tmp_path):
        img = uniform_scene(4, 4, 1)
        hist = stokes_histograms([img], "s0", bins=3, value_range=(0.0, 2.0))
        path = tmp_path / "hist.csv"
        export_csv(hist, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 4
        assert lines[0].startswith("bin_left")

    def test_reparse_reproduces_counts_exactly(self, tmp_path):
        img = random_scene(32, 32, 2, np.random.default_rng(9))
        hist = stokes_histograms([img], "s1", bins=41)
        path = tmp_path / "hist.csv"
        export_csv(hist, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        counts = np.array([int(row["count"]) for row in rows])
        edges_left = np.array([float(row["bin_left"]) for row in rows])
        assert np.array_equal(counts, hist.counts)
        assert np.array_equal(edges_left, hist.edges[:-1])

    def test_density_grid_row_major_with_centers(self, tmp_path):
        img = random_scene(16, 16, 1, np.random.default_rng(10))
        grid = poincare_density([img], grid=5)
        path = tmp_path / "density.csv"
        export_csv(grid, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "s1_norm_center,s2_norm_center,count,density"
        assert len(lines) == 1 + 25
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(-0.8)
        assert float(first[1]) == pytest.approx(-0.8)

    def test_curve_roundtrip(self, tmp_path):
        curve = Curve(columns=["k", "mse"], rows=[(1, 0.5), (2, 0.25)])
        path = tmp_path / "curve.csv"
        export_csv(curve, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "k,mse"
        assert lines[1] == "1,0.5"

    def test_seventeen_significant_digits(self, tmp_path):
        value = 0.1234567890123456789
        curve = Curve(columns=["x"], rows=[(value,)])
        path = tmp_path / "digits.csv"
        export_csv(curve, path)
        parsed = float(path.read_text().strip().split("\n")[1])
        assert parsed == value
