import csv
import dataclasses
import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarcube import (
    ContainerError,
    Curve,
    LabelSchemaError,
    LabelSet,
    MosaicLayout,
    NoiseModel,
    NormalMapStack,
    PcaCodebook,
    PcaEncoding,
    RawCapture,
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


HEADER = struct.Struct("<4sHHIIHHB")  # magic, version, kind, width, height, channels, ...


def reference_serialisation(obj) -> bytes:
    """SPSI version-1 bytes of ``obj``, built field by field and joined.

    A frozen, independent copy of the container layout: ``write_spsi``
    must produce exactly these bytes, so the format cannot drift.
    """

    def header(kind, width, height, channels, components, code, wavelengths):
        table = np.zeros(channels, "<f4")
        if wavelengths is not None:
            table[:] = wavelengths
        fields = (b"SPSI", 1, kind, width, height, channels, components, code)
        return [HEADER.pack(*fields), table.tobytes()]

    def code_of(dtype):
        return 1 if np.dtype(dtype) == np.float64 else 0

    def arr(a, dtype):
        return np.ascontiguousarray(a, dtype=dtype).tobytes()

    def f(code):
        return "<f8" if code else "<f4"

    def pack(fmt, *values):
        return struct.pack("<" + fmt, *values)

    if isinstance(obj, (StokesImage, ScalarCube, NormalMapStack)):
        data = obj.data if obj.data.ndim == 4 else obj.data[..., None]
        h, w, c, components = data.shape
        if isinstance(obj, NormalMapStack):
            mask, wavelengths = np.ones((h, w, c), bool), None
        else:
            mask, wavelengths = obj.mask, obj.wavelengths
        code = code_of(data.dtype)
        parts = header(0, w, h, c, components, code, wavelengths)
        parts.append(arr(data.transpose(2, 3, 0, 1), f(code)))
        parts.append(np.packbits(mask.transpose(2, 0, 1).ravel()).tobytes())
    elif isinstance(obj, RawCapture):
        code = code_of(obj.frames.dtype)
        wl = obj.wavelengths
        parts = header(1, obj.width, obj.height, 0 if wl is None else len(wl), 1, code, wl)
        parts.append(pack("I", obj.frames.shape[0]))
        parts.append(pack("B", obj.tags is not None))
        for c, i in obj.tags or []:
            parts.append(pack("II", c, i))
        parts.append(pack("B", obj.layout is not None))
        if obj.layout is not None:
            lay = obj.layout
            parts.append(arr(lay.colors, "<u1"))
            for table in (lay.polarizer_angles, lay.retarder_angles, lay.retardances):
                parts.append(arr(table, "<f8"))
        parts.append(pack("dd", obj.saturation_level, obj.black_level))
        config = obj.config
        parts.append(pack("dB", config.exposure, config.shared))
        groups = [config.channel_configs] if config.shared else config.channel_configs
        parts.append(pack("I", len(groups)))
        for group in groups:
            parts.append(pack("I", len(group)))
            for m in group:
                parts.append(pack("ddd", m.retarder_angle, m.retardance, m.polarizer_angle))
        if config.calibration is None:
            parts.append(pack("B", 0))
        else:
            cal = np.asarray(config.calibration, dtype=float)
            parts.append(pack("BI", 1, 1) if cal.ndim == 2 else pack("BI", 2, cal.shape[0]))
            parts.append(arr(cal, "<f8"))
        parts.append(arr(obj.frames, f(code)))
    elif isinstance(obj, (PcaCodebook, PcaEncoding)):
        enc = obj if isinstance(obj, PcaEncoding) else None
        cb = obj if enc is None else enc.codebook
        code = code_of(cb.basis.dtype)
        if enc is None:
            parts = header(2, 0, 0, 0, cb.components, code, None)
        else:
            parts = header(2, enc.width, enc.height, enc.channels, cb.components, code,
                           enc.wavelengths)
        parts.append(pack("IIB", cb.dimension, cb.n_bases, cb.patch_size is not None))
        if cb.patch_size is not None:
            element = -1 if cb.element is None else cb.element
            parts.append(pack("IIIi", cb.patch_size, cb.channels or 0, cb.components, element))
        parts.append(pack("d", cb.total_variance))
        parts += [arr(a, f(code)) for a in (cb.mean, cb.basis, cb.sigma)]
        parts.append(pack("B", enc is not None))
        if enc is not None:
            element = -1 if enc.element is None else enc.element
            parts.append(pack("IIIi", enc.patch_size, enc.grid_h, enc.grid_w, element))
            parts.append(pack("I", enc.coefficients.shape[0]))
            parts.append(arr(enc.coefficients, f(code)))
    else:  # InrModel
        code = code_of(obj.dtype)
        h, w, c = obj.grid_shape or (0, 0, 0)
        parts = header(3, w, h, c, 4, code, None)
        parts.append(pack("IIII", obj.layers, obj.hidden_width, obj.k_spatial, obj.k_channel))
        parts.append(pack("BI", obj.grid_shape is not None, len(obj.weights)))
        parts += [pack("II", *weight.shape) for weight in obj.weights]
        parts += [arr(a, f(code)) for a in obj.weights + obj.biases]
    return b"".join(parts)


def assert_bit_exact(a, b, where="obj"):
    """Equal types, shapes, dtypes and bytes, field by field."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray), where
        assert (a.dtype, a.shape) == (b.dtype, b.shape), where
        assert a.tobytes() == b.tobytes(), where
    elif dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for field in dataclasses.fields(a):
            assert_bit_exact(getattr(a, field.name), getattr(b, field.name),
                             f"{where}.{field.name}")
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_bit_exact(x, y, f"{where}[{i}]")
    elif isinstance(a, (float, np.floating)):
        assert struct.pack("<d", a) == struct.pack("<d", b), where
    else:
        assert a == b, where


def small_container(kind):
    """A valid object whose container is a few hundred bytes."""
    rng = np.random.default_rng(7)
    if kind == "cube":
        return random_cube(np.float32, h=2, w=2, c=1)
    if kind == "raw":
        scene = random_scene(2, 2, 1, rng, wavelengths=[550.0])
        return simulate_hyperspectral(scene, default_qwp_angles())
    if kind == "mosaic":
        return simulate_trichromatic(random_scene(4, 4, 3, rng))
    if kind == "codebook":
        return pca_fit_image(random_scene(4, 4, 1, rng), 2, 2)
    if kind == "encoding":
        img = random_scene(4, 4, 1, rng, wavelengths=[550.0])
        return pca_encode(img, pca_fit_image(img, 2, 2))
    return inr_init(2, 4, seed=1, k_spatial=1, grid_shape=(2, 2, 1), dtype=np.float32)


class TestHostileHeaders:
    # (kind, byte offset, struct format, values): each claims gigabytes of
    # payload (or millions of records) from a file of a few hundred bytes.
    CASES = [
        ("cube", 8, "<II", (2**14, 2**14)),  # width x height: 4 GiB of f32 Stokes data
        ("raw", 8, "<II", (2**14, 2**14)),  # 4 frames of 2**28 f64 pixels
        ("raw", HEADER.size + 4, "<I", (2**31,)),  # frame (and tag) count
        ("codebook", HEADER.size, "<I", (2**28,)),  # dimension: a 2 GiB mean
        ("codebook", HEADER.size + 4, "<I", (2**28,)),  # bases: a 32 GiB basis
        ("network", HEADER.size + 4 + 17, "<I", (2**30,)),  # tensor count
        ("network", HEADER.size + 4 + 21, "<II", (2**16, 2**16)),  # first weight shape
    ]

    @pytest.mark.parametrize("kind,offset,fmt,values", CASES)
    def test_claim_is_rejected_without_allocating(self, tmp_path, kind, offset, fmt, values):
        path = tmp_path / f"{kind}.spsi"
        write_spsi(path, small_container(kind))
        blob = bytearray(path.read_bytes())
        assert len(blob) < 1000
        struct.pack_into(fmt, blob, offset, *values)
        path.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            with pytest.raises(ContainerError, match="truncated"):
                read_spsi(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


KINDS = ["cube", "raw", "mosaic", "codebook", "encoding", "network"]


class TestCorruption:
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_prefix_and_one_byte_more_is_rejected(self, tmp_path, kind):
        path = tmp_path / "whole.spsi"
        write_spsi(path, small_container(kind))
        blob = path.read_bytes()
        cut = tmp_path / "cut.spsi"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(ContainerError, match="truncated"):
                read_spsi(cut)
        cut.write_bytes(blob + b"\x00")
        with pytest.raises(ContainerError, match="mismatch"):
            read_spsi(cut)


SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, np.finfo(np.float32).tiny])


@st.composite
def containers(draw):
    """Objects of every container kind, built from drawn sizes and seeds."""
    kind = draw(st.sampled_from(["stokes", "scalar", "normals", "sequential", "mosaic",
                                 "codebook", "encoding", "network"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    c = draw(st.integers(2 if kind == "normals" else 1, 4))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    wavelengths = 400.0 + 10.0 * np.arange(c) if draw(st.booleans()) else None
    mask = rng.uniform(size=(h, w, c)) < draw(st.floats(0.0, 1.0))
    if kind in ("stokes", "scalar"):
        data = rng.normal(size=(h, w, c, 4) if kind == "stokes" else (h, w, c))
        flat = data.reshape(-1)
        spots = rng.integers(0, flat.size, size=2)
        flat[spots] = rng.choice(SPECIALS, size=2)
        cls = StokesImage if kind == "stokes" else ScalarCube
        return cls(data.astype(dtype), wavelengths, mask)
    if kind == "normals":
        n = rng.normal(size=(h, w, c, 3))
        return NormalMapStack(n / np.linalg.norm(n, axis=-1, keepdims=True))
    if kind == "sequential":
        calibration = draw(st.sampled_from([None, "one", "per-channel"]))
        if calibration is not None:
            shape = (4, 4) if calibration == "one" else (c, 4, 4)
            calibration = np.eye(4) + 0.01 * rng.normal(size=shape)
        noise = NoiseModel(0.01, 1e-3, 0.9, rng_seed=1) if draw(st.booleans()) else None
        scene = random_scene(h, w, c, rng, wavelengths=wavelengths)
        raw = simulate_hyperspectral(scene, default_qwp_angles(), noise=noise,
                                     calibration=calibration,
                                     exposure=draw(st.floats(0.5, 2.0)))
        if dtype == np.float32:
            raw = RawCapture(raw.frames.astype(dtype), raw.config, tags=raw.tags,
                             wavelengths=raw.wavelengths)
        return raw
    if kind == "mosaic":
        noise = NoiseModel(0.01, 0.0, 0.8, rng_seed=2) if draw(st.booleans()) else None
        return simulate_trichromatic(random_scene(4 * h, 4 * w, 3, rng), noise=noise)
    if kind in ("codebook", "encoding"):
        img = random_scene(2 * h, 2 * w, c, rng, wavelengths=wavelengths)
        element = draw(st.sampled_from([None, 0, 3]))
        codebook = pca_fit_image(img, draw(st.integers(1, 2)), 1, element=element)
        return codebook if kind == "codebook" else pca_encode(img, codebook)
    return inr_init(draw(st.integers(2, 4)), draw(st.integers(1, 6)),
                    seed=draw(st.integers(0, 100)), k_spatial=draw(st.integers(0, 2)),
                    k_channel=draw(st.integers(0, 2)),
                    grid_shape=(h, w, c) if draw(st.booleans()) else None, dtype=dtype)


class TestContainerProperties:
    @settings(max_examples=80, deadline=None)
    @given(obj=containers(), data=st.data())
    def test_roundtrip_format_and_corruption(self, obj, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "obj.spsi")
            write_spsi(path, obj)
            with open(path, "rb") as fh:
                blob = fh.read()
            assert blob == reference_serialisation(obj)
            assert_bit_exact(obj, read_spsi(path))

            cut = data.draw(st.integers(0, len(blob) - 1), label="prefix length")
            for damaged in (blob[:cut], blob + b"\x00"):
                with open(path, "wb") as fh:
                    fh.write(damaged)
                with pytest.raises(ContainerError):
                    read_spsi(path)


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
