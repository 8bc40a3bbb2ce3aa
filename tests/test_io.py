import csv
import dataclasses
import errno
import importlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarcube
from polarcube import (
    CaptureConfig,
    ConfigurationError,
    ContainerError,
    Curve,
    DimensionError,
    InrModel,
    LabelSchemaError,
    LabelSet,
    MosaicLayout,
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
from polarcube.cli import main

from conftest import as_stored, assert_bit_exact, containers

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


class TestObjectChecks:
    @pytest.mark.parametrize("shape", [(2, 2, 3, 3), (2, 2, 4), (2, 2, 3, 4, 1)])
    def test_stokes_data_that_is_not_h_w_c_4_refused(self, shape):
        with pytest.raises(DimensionError, match=r"must be \(H, W, C, 4\)"):
            StokesImage(np.zeros(shape))

    def test_wavelength_table_of_another_channel_count_refused(self):
        with pytest.raises(DimensionError, match=r"wavelength table has \(2,\), expected \(3,\)"):
            StokesImage(np.zeros((2, 2, 3, 4)), [500.0, 600.0])

    @pytest.mark.parametrize("kind", ["stokes", "scalar", "raw", "encoding"])
    def test_every_wavelength_table_is_made_float_and_checked_alike(self, kind):
        def build(table):
            if kind == "stokes":
                return StokesImage(np.zeros((2, 2, 2, 4)), table)
            if kind == "scalar":
                return ScalarCube(np.zeros((2, 2, 2)), table)
            img = random_scene(4, 4, 2, np.random.default_rng(8))
            if kind == "raw":
                return dataclasses.replace(simulate_hyperspectral(img, default_qwp_angles()),
                                           wavelengths=table)
            return dataclasses.replace(pca_encode(img, pca_fit_image(img, 2, 2)),
                                       wavelengths=table)

        table = build([500, 600]).wavelengths  # a list of integers
        assert table.dtype == np.float64 and np.array_equal(table, [500.0, 600.0])
        with pytest.raises(DimensionError, match=r"wavelength table has \(1,\), expected \(2,\)"):
            build([500])

    def test_mask_of_another_shape_refused(self):
        with pytest.raises(DimensionError, match=r"mask shape \(2, 2, 2\) does not match"):
            StokesImage(np.zeros((2, 2, 3, 4)), mask=np.ones((2, 2, 2), dtype=bool))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 3, 1)])
    def test_scalar_data_that_is_not_h_w_c_refused(self, shape):
        with pytest.raises(DimensionError, match=r"must be \(H, W, C\)"):
            ScalarCube(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(2, 2, 3, 4), (2, 2, 3)])
    def test_normal_data_that_is_not_h_w_c_3_refused(self, shape):
        with pytest.raises(DimensionError, match=r"must be \(H, W, C, 3\)"):
            NormalMapStack(np.ones(shape))

    def test_normals_that_are_not_unit_length_refused(self):
        n = np.zeros((2, 2, 2, 3))
        n[..., 2] = 1.0
        n[1, 0, 1] = [0.0, 0.6, 0.7]  # length 0.922
        with pytest.raises(ValueError, match="unit length"):
            NormalMapStack(n)

    def test_normals_are_checked_to_one_fixed_tolerance_when_built_and_when_read(self, tmp_path):
        n = np.zeros((2, 2, 2, 3))
        n[..., 2] = 1.0 + 5e-4
        write_spsi(tmp_path / "normals.spsi", NormalMapStack(n))
        assert np.array_equal(read_spsi(tmp_path / "normals.spsi").data, n)
        with pytest.raises(ValueError, match="worst deviation 2.00e-03"):
            NormalMapStack(n + [0.0, 0.0, 1.5e-3])
        with pytest.raises(TypeError):  # the tolerance is no setting a container could drop
            NormalMapStack(n, norm_tol=0.1)


class TestContainerErrors:
    def test_cube_of_two_components_rejected(self, tmp_path):
        path = patched(tmp_path, random_cube(), 18, "<H", 2)  # the header's component count
        with pytest.raises(ContainerError, match="unsupported cube component count 2"):
            read_spsi(path)

    @pytest.mark.parametrize("obj", [object(), np.zeros((2, 2))])
    def test_unsupported_object_is_not_written(self, tmp_path, obj):
        path = tmp_path / "obj.spsi"
        with pytest.raises(TypeError, match="cannot serialize .* to SPSI"):
            write_spsi(path, obj)
        assert not path.exists()

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

    def test_short_read(self, tmp_path, monkeypatch):
        # the file shrinks while it is read: readinto fills less than the size checked first
        path = tmp_path / "cube.spsi"
        write_spsi(path, random_cube())

        class Shrinking(io.BufferedReader):
            def readinto(self, buffer):
                view = memoryview(buffer).cast("B")
                return super().readinto(view[:-1] if len(view) > 64 else view)

        monkeypatch.setattr(polarcube.io, "open", lambda p, mode: Shrinking(io.FileIO(p, mode)),
                            raising=False)
        with pytest.raises(ContainerError, match="short read at offset"):
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

    def test_unsupported_preallocation_writes_the_same_bytes(self, tmp_path, monkeypatch):
        img = random_cube()
        write_spsi(tmp_path / "a.spsi", img)
        calls = []

        def posix_fallocate(fd, offset, length):
            calls.append((offset, length))
            raise OSError(errno.EOPNOTSUPP, os.strerror(errno.EOPNOTSUPP))

        monkeypatch.setattr(os, "posix_fallocate", posix_fallocate, raising=False)
        write_spsi(tmp_path / "b.spsi", img)
        blob = (tmp_path / "a.spsi").read_bytes()
        assert (tmp_path / "b.spsi").read_bytes() == blob
        assert calls == [(0, len(blob))]

    def test_failed_preallocation_leaves_the_target(self, tmp_path, monkeypatch):
        path = tmp_path / "cube.spsi"
        write_spsi(path, random_cube())
        before = path.read_bytes()

        def posix_fallocate(fd, offset, length):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "posix_fallocate", posix_fallocate, raising=False)
        with pytest.raises(OSError) as info:
            write_spsi(path, random_cube(c=5))
        assert info.value.errno == errno.ENOSPC
        assert [p.name for p in tmp_path.iterdir()] == ["cube.spsi"]
        assert path.read_bytes() == before


class TestFileModes:
    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_outputs_get_the_mode_open_gives(self, tmp_path, umask):
        # the umask is the process's own, so each case sets it in a fresh interpreter
        script = textwrap.dedent("""
            import json, os, sys
            from polarcube import (Curve, LabelSet, export_csv, uniform_scene, write_labels,
                                   write_spsi)
            os.umask(int(sys.argv[1], 8))
            with open("opened", "w"):
                pass
            write_spsi("cube.spsi", uniform_scene(2, 2, 1))
            export_csv(Curve(["x"], [(1,)]), "curve.csv")
            write_labels("labels.json",
                         LabelSet("indoor", "white", "2023-06-01T10:00:00", "object"))
            print(json.dumps({name: os.stat(name).st_mode & 0o777 for name in os.listdir(".")}))
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(polarcube.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", script, oct(umask)], cwd=tmp_path,
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        modes = json.loads(result.stdout)
        assert modes["opened"] == 0o666 & ~umask
        assert modes == dict.fromkeys(["opened", "cube.spsi", "curve.csv", "labels.json"],
                                      modes["opened"])


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

    def test_mosaic_configurations_contradicting_the_layout_are_rejected(self, tmp_path):
        raw = simulate_trichromatic(random_scene(16, 16, 3, np.random.default_rng(7)))
        path = tmp_path / "mosaic.spsi"
        write_spsi(path, raw)
        blob = bytearray(path.read_bytes())
        # the shared flag (B), the group count (I) and the red group's count (I) precede
        # the red cells' configurations (ddd each, K ascending)
        red = flag_offsets(raw, blob)["shared"][0] + 9
        first, second = raw.config.configs_for(0)[:2]
        assert struct.unpack_from("<6d", blob, red) == (*dataclasses.astuple(first),
                                                         *dataclasses.astuple(second))
        struct.pack_into("<6d", blob, red, *dataclasses.astuple(second),
                         *dataclasses.astuple(first))
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match="contradict its mosaic layout"):
            read_spsi(path)
        assert main(["reconstruct", str(path), "--out", str(tmp_path / "cube.spsi")]) == 3
        assert not (tmp_path / "cube.spsi").exists()


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


class TestValueDtype:
    """Value arrays are stored as binary32 exactly when all of them cast safely to float32."""

    def test_int64_entry_past_the_float32_significand_reads_back_exactly(self, tmp_path):
        data = np.zeros((1, 2, 1, 4), np.int64)
        data[0, 0, 0, 0] = 2**25 + 1
        write_spsi(tmp_path / "cube.spsi", StokesImage(data))
        got = read_spsi(tmp_path / "cube.spsi").data
        assert got.dtype == np.float64 and np.array_equal(got, data)

    def test_float64_mean_under_a_float32_basis_reads_back_exactly(self, tmp_path):
        codebook = pca_fit_image(random_scene(8, 8, 2, np.random.default_rng(6)), 2, 4)
        mixed = dataclasses.replace(codebook, basis=codebook.basis.astype(np.float32),
                                    sigma=codebook.sigma.astype(np.float32))
        assert not np.array_equal(mixed.mean.astype(np.float32), mixed.mean)
        write_spsi(tmp_path / "codebook.spsi", mixed)
        got = read_spsi(tmp_path / "codebook.spsi")
        assert got.mean.dtype == np.float64 and np.array_equal(got.mean, codebook.mean)
        assert np.array_equal(got.basis, mixed.basis) and np.array_equal(got.sigma, mixed.sigma)

    def test_float64_biases_of_a_float32_network_read_back_exactly(self, tmp_path):
        model = inr_init(2, 4, seed=1, k_spatial=1, grid_shape=(2, 2, 1), dtype=np.float32)
        rng = np.random.default_rng(9)
        model.biases = [rng.normal(size=b.shape) for b in model.biases]
        assert model.dtype == np.float64  # the tensors' result dtype, not a setting
        write_spsi(tmp_path / "model.spsi", model)
        got = read_spsi(tmp_path / "model.spsi")
        assert got.dtype == np.float64
        for back, written in zip(got.weights + got.biases, model.weights + model.biases):
            assert back.dtype == np.float64 and np.array_equal(back, written)
        with pytest.raises(AttributeError):
            got.dtype = np.float32

    @pytest.mark.parametrize("kind", ["float64 capture", "float64 cube", "float32 network"])
    def test_a_payload_already_in_its_dtype_is_written_without_a_copy(self, tmp_path, kind):
        scene = random_scene(64, 64, 4, np.random.default_rng(4))
        if kind == "float64 capture":
            obj = simulate_hyperspectral(scene, default_qwp_angles())
            payload = obj.frames.nbytes
        elif kind == "float64 cube":
            obj, payload = scene, scene.data.nbytes
        else:
            obj = inr_init(3, 128, seed=1, dtype=np.float32)
            payload = sum(w.nbytes for w in obj.weights)
        tracemalloc.start()
        try:
            write_spsi(tmp_path / "obj.spsi", obj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < payload / 4

    @pytest.mark.parametrize("value", [-2**53, 2**53])
    def test_int64_entry_at_2_to_the_53_reads_back_exactly(self, tmp_path, value):
        data = np.zeros((1, 2, 1, 4), np.int64)
        data[0, 1, 0, 2] = value
        write_spsi(tmp_path / "cube.spsi", StokesImage(data))
        assert np.array_equal(read_spsi(tmp_path / "cube.spsi").data, data)

    @pytest.mark.parametrize("dtype, value", [
        (np.int64, 2**53 + 1), (np.int64, -2**53 - 1), (np.uint64, 2**64 - 1),
    ])
    def test_integer_past_2_to_the_53_is_refused_and_leaves_no_file(self, tmp_path, dtype,
                                                                    value):
        data = np.zeros((1, 2, 1, 4), dtype)
        data[0, 1, 0, 2] = value
        assert int(data[0, 1, 0, 2]) == value
        with pytest.raises(ContainerError, match=f"{np.dtype(dtype)} values beyond 2\\*\\*53"):
            write_spsi(tmp_path / "cube.spsi", StokesImage(data))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("dtype", [
        np.complex128,
        pytest.param(np.longdouble, marks=pytest.mark.skipif(
            np.finfo(np.longdouble).nmant <= 52, reason="long double is float64 here")),
    ])
    def test_payload_float64_cannot_hold_is_refused_and_leaves_no_file(self, tmp_path, dtype):
        cube = StokesImage(np.full((2, 2, 1, 4), 0.5, dtype))
        with pytest.raises(ContainerError, match=f"cannot store {np.dtype(dtype)} values"):
            write_spsi(tmp_path / "cube.spsi", cube)
        assert os.listdir(tmp_path) == []


HEADER = struct.Struct("<4sHHIIHHB")  # magic, version, kind, width, height, channels, ...


def reference_serialisation(obj, version=2) -> bytes:
    """SPSI bytes of ``obj`` in ``version`` 1 or 2, built field by field and joined.

    A frozen, independent copy of the container layout: ``write_spsi``
    must produce exactly the version-2 bytes, so the format cannot drift,
    and ``read_spsi`` must still read the version-1 bytes.  The versions
    differ only in the version field and the cube payload.
    """

    def header(kind, width, height, channels, components, code, wavelengths):
        table = np.zeros(channels, "<f4")
        if wavelengths is not None:
            table[:] = wavelengths
        fields = (b"SPSI", version, kind, width, height, channels, components, code)
        return [HEADER.pack(*fields), table.tobytes()]

    def code_of(*arrays):  # binary32 exactly when every value array casts safely to float32
        return 0 if all(np.can_cast(np.asarray(a).dtype, np.float32) for a in arrays) else 1

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
        code = code_of(data)
        parts = header(0, w, h, c, components, code, wavelengths)
        if version == 1:  # channel-major, then component-major, then row-major
            data, mask = data.transpose(2, 3, 0, 1), mask.transpose(2, 0, 1)
        parts.append(arr(data, f(code)))
        parts.append(np.packbits(mask.ravel()).tobytes())
    elif isinstance(obj, RawCapture):
        code = code_of(obj.frames)
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
        code = code_of(cb.mean, cb.basis, cb.sigma, *([] if enc is None else [enc.coefficients]))
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
        code = code_of(*obj.weights, *obj.biases)
        h, w, c = obj.grid_shape or (0, 0, 0)
        parts = header(3, w, h, c, 4, code, None)
        parts.append(pack("IIII", obj.layers, obj.hidden_width, obj.k_spatial, obj.k_channel))
        parts.append(pack("BI", obj.grid_shape is not None, len(obj.weights)))
        parts += [pack("II", *weight.shape) for weight in obj.weights]
        parts += [arr(a, f(code)) for a in obj.weights + obj.biases]
    return b"".join(parts)


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
        ("cube", 4, "<HHII", (1, 0, 2**14, 2**14)),  # the same, as a version-1 cube
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


def codec_offsets(obj):
    """Byte offsets of the codebook geometry block and the encoding grid block."""
    enc = obj if isinstance(obj, PcaEncoding) else None
    cb = obj if enc is None else enc.codebook
    # header, wavelength table, dimension and basis count (II), geometry flag (B)
    geometry = HEADER.size + 4 * (0 if enc is None else enc.channels) + 9
    arrays = (cb.mean.size + cb.basis.size + cb.sigma.size) * cb.basis.itemsize
    # geometry (IIIi), total variance (d), mean, basis, sigma, encoding flag (B)
    return {"header": 0, "geometry": geometry, "grid": geometry + 16 + 8 + arrays + 1}


class TestCodecGeometryChecks:
    # (kind, block, offset in block, struct format, contradicting value, message):
    # each patches one field that the rest of the container already implies.
    # Fields whose value also sets how many bytes follow (the header channel
    # count sizes the wavelength table, the patch count sizes the
    # coefficients) fail the size checks instead.
    CASES = [
        ("codebook", "header", 8, "<I", 4, "contradicts"),  # width of a bare codebook
        ("codebook", "header", 12, "<I", 4, "contradicts"),  # height of a bare codebook
        ("codebook", "header", 16, "<H", 1, None),  # channels of a bare codebook
        ("codebook", "header", 18, "<H", 1, "contradicts"),  # components
        ("codebook", "geometry", 0, "<I", 3, "invariants"),  # patch size: 9 x 1 x 4 != 16
        ("codebook", "geometry", 4, "<I", 2, "invariants"),  # channels: 4 x 2 x 4 != 16
        ("codebook", "geometry", 8, "<I", 1, "contradicts"),  # components
        ("codebook", "geometry", 12, "<i", 7, "invariants"),  # element
        ("encoding", "header", 16, "<H", 2, None),  # channels
        ("encoding", "header", 18, "<H", 1, "contradicts"),  # components
        ("encoding", "geometry", 0, "<I", 1, "invariants"),  # codebook patch size
        ("encoding", "geometry", 4, "<I", 0, "invariants"),  # codebook channels
        ("encoding", "geometry", 8, "<I", 3, "contradicts"),  # codebook components
        ("encoding", "geometry", 12, "<i", 0, "invariants"),  # codebook element
        ("encoding", "grid", 0, "<I", 1, "contradicts"),  # patch size
        ("encoding", "grid", 4, "<I", 1, "contradicts"),  # grid rows
        ("encoding", "grid", 8, "<I", 3, "contradicts"),  # grid columns
        ("encoding", "grid", 12, "<i", 2, "contradicts"),  # element
        ("encoding", "grid", 12, "<i", -2, "contradicts"),  # element
        ("encoding", "grid", 16, "<I", 3, None),  # patch count
    ]

    @pytest.mark.parametrize("kind,block,offset,fmt,value,message", CASES)
    def test_contradicting_field_is_rejected(self, tmp_path, kind, block, offset, fmt, value,
                                             message):
        obj = small_container(kind)
        path = tmp_path / f"{kind}.spsi"
        write_spsi(path, obj)
        blob = bytearray(path.read_bytes())
        at = codec_offsets(obj)[block] + offset
        assert struct.unpack_from(fmt, blob, at)[0] != value
        struct.pack_into(fmt, blob, at, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match=message):
            read_spsi(path)

    def test_wavelength_table_of_another_channel_count_is_rejected(self, tmp_path):
        enc = small_container("encoding")  # one channel, table [550]
        path = tmp_path / "encoding.spsi"
        write_spsi(path, enc)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, 16, 2)  # header channel count 2, and a second entry
        blob[HEADER.size + 4:HEADER.size + 4] = struct.pack("<f", 600.0)
        path.write_bytes(bytes(blob))
        message = r"wavelength table has \(2,\), expected \(1,\)"
        with pytest.raises(ContainerError, match="invariants: " + message):
            read_spsi(path)
        fields = dict(state(enc), wavelengths=np.array([550.0, 600.0]))
        with pytest.raises(DimensionError, match=message):
            PcaEncoding(**fields)
        write_spsi(path, unchecked(PcaEncoding, fields))  # the writer itself checks nothing
        assert struct.unpack_from("<H", path.read_bytes(), 16)[0] == enc.channels
        with pytest.raises(ContainerError):
            read_spsi(path)


def patched(tmp_path, obj, at, fmt, value):
    """Path of the container of ``obj`` with the field at byte ``at`` set to ``value``."""
    path = tmp_path / "patched.spsi"
    write_spsi(path, obj)
    blob = bytearray(path.read_bytes())
    assert struct.unpack_from(fmt, blob, at)[0] != value
    struct.pack_into(fmt, blob, at, value)
    path.write_bytes(bytes(blob))
    return path


class TestNetworkChecks:
    # (byte offset, struct format, contradicting value, message): the header
    # fields come first; the hyper-parameters (layers, width, k_spatial,
    # k_channel IIII), the grid flag (B) and the tensor count (I) follow the
    # one-entry wavelength table.  Each patch keeps every size consistent.
    FIELDS = HEADER.size + 4
    CASES = [
        (8, "<I", 0, "grid"),  # grid width
        (12, "<I", 0, "grid"),  # grid height
        (FIELDS, "<I", 3, "tensor count"),  # layers: 3 tensors for 3 blocks + head
        (FIELDS + 4, "<I", 5, "shapes"),  # hidden width
        (FIELDS + 8, "<I", 2, "shapes"),  # k_spatial
        (FIELDS + 12, "<I", 0, "shapes"),  # k_channel
        (FIELDS + 16, "<B", 0, "contradicts"),  # grid flag cleared under a 2 x 2 x 1 grid
    ]

    @pytest.mark.parametrize("offset,fmt,value,message", CASES)
    def test_contradicting_field_is_rejected(self, tmp_path, offset, fmt, value, message):
        path = patched(tmp_path, small_container("network"), offset, fmt, value)
        with pytest.raises(ContainerError, match=message):
            read_spsi(path)

    def test_grid_flag_without_a_grid_is_rejected(self, tmp_path):
        model = inr_init(2, 4, seed=1, k_spatial=1)  # no grid: the header dims are 0
        path = patched(tmp_path, model, HEADER.size + 16, "<B", 1)
        with pytest.raises(ContainerError, match="grid"):
            read_spsi(path)


def flag_offsets(obj, blob):
    """{flag name: (byte offset, value written)} of every presence flag of a container."""
    table_end = HEADER.size + 4 * struct.unpack_from("<H", blob, 16)[0]
    if isinstance(obj, RawCapture):
        # frame count (I), tags (II each), layout (16 u1 + 3 x 16 f8), levels (dd), exposure (d)
        tags = table_end + 4
        layout = tags + 1 + (0 if obj.tags is None else 8 * len(obj.tags))
        shared = layout + 1 + (0 if obj.layout is None else 400) + 16 + 8
        return {"has_tags": (tags, obj.tags is not None),
                "has_layout": (layout, obj.layout is not None),
                "shared": (shared, obj.config.shared)}
    if isinstance(obj, (PcaCodebook, PcaEncoding)):
        at = codec_offsets(obj)
        return {"has_geometry": (at["geometry"] - 1, True),
                "has_enc": (at["grid"] - 1, isinstance(obj, PcaEncoding))}
    return {"has_grid": (table_end + 16, obj.grid_shape is not None)}


class TestPresenceFlags:
    CASES = [("raw", "has_tags"), ("raw", "has_layout"), ("raw", "shared"),
             ("mosaic", "has_tags"), ("mosaic", "has_layout"), ("mosaic", "shared"),
             ("codebook", "has_geometry"), ("codebook", "has_enc"),
             ("encoding", "has_geometry"), ("encoding", "has_enc"), ("network", "has_grid")]

    @pytest.mark.parametrize("kind,flag", CASES)
    def test_flag_other_than_0_or_1_is_rejected(self, tmp_path, kind, flag):
        obj = small_container(kind)
        path = tmp_path / "whole.spsi"
        write_spsi(path, obj)
        blob = path.read_bytes()
        at, value = flag_offsets(obj, blob)[flag]
        assert blob[at] == value
        with pytest.raises(ContainerError, match="flag byte 2"):
            read_spsi(patched(tmp_path, obj, at, "<B", 2))

    def test_calibration_kind_above_2_is_rejected(self, tmp_path):
        scene = random_scene(2, 2, 1, np.random.default_rng(7), wavelengths=[550.0])
        raw = simulate_hyperspectral(scene, default_qwp_angles(), calibration=np.eye(4))
        path = tmp_path / "raw.spsi"
        write_spsi(path, raw)
        # kind (B), matrix count (I) and one 4 x 4 f8 matrix precede the frames
        at = len(path.read_bytes()) - raw.frames.nbytes - 128 - 4 - 1
        with pytest.raises(ContainerError, match="flag byte 3"):
            read_spsi(patched(tmp_path, raw, at, "<B", 3))

    def test_shared_calibration_of_two_matrices_is_rejected(self, tmp_path):
        scene = random_scene(2, 2, 1, np.random.default_rng(7), wavelengths=[550.0])
        raw = simulate_hyperspectral(scene, default_qwp_angles(), calibration=np.eye(4))
        path = tmp_path / "raw.spsi"
        write_spsi(path, raw)
        blob = bytearray(path.read_bytes())
        # a count of 2 (I) and a second 4 x 4 f8 matrix before the frames
        at = len(blob) - raw.frames.nbytes - 128 - 4
        assert struct.unpack_from("<BI", blob, at - 1) == (1, 1)
        struct.pack_into("<I", blob, at, 2)
        blob[at + 4 + 128:at + 4 + 128] = np.eye(4).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match="contradicts"):
            read_spsi(path)

    @pytest.mark.parametrize("n", [1, 5])
    def test_calibration_count_other_than_channel_count_is_rejected(self, tmp_path, n):
        scene = random_scene(4, 4, 3, np.random.default_rng(7), wavelengths=[500.0, 550.0, 600.0])
        raw = simulate_hyperspectral(scene, default_qwp_angles(),
                                     calibration=np.stack([np.eye(4)] * 3))
        raw.config.calibration = np.stack([np.eye(4)] * n)  # the writer does not check it
        path = tmp_path / "raw.spsi"
        write_spsi(path, raw)
        with pytest.raises(ContainerError, match=f"{n} matrices for 3 channels"):
            read_spsi(path)
        assert main(["reconstruct", str(path), "--out", str(tmp_path / "cube.spsi")]) == 3


KINDS = ["cube", "raw", "mosaic", "codebook", "encoding", "network"]


class TestCorruption:
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_prefix_and_one_byte_more_is_rejected(self, tmp_path, kind):
        obj = small_container(kind)
        path = tmp_path / "whole.spsi"
        write_spsi(path, obj)
        cut = tmp_path / "cut.spsi"
        for blob in (path.read_bytes(), reference_serialisation(obj, 1)):  # versions 2 and 1
            for n in range(len(blob)):
                cut.write_bytes(blob[:n])
                with pytest.raises(ContainerError, match="truncated"):
                    read_spsi(cut)
            cut.write_bytes(blob + b"\x00")
            with pytest.raises(ContainerError, match="mismatch"):
                read_spsi(cut)


class TestContainerProperties:
    @settings(max_examples=80, deadline=None)
    @given(obj=containers(), data=st.data())
    def test_roundtrip_format_and_corruption(self, obj, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "obj.spsi")
            write_spsi(path, obj)
            with open(path, "rb") as fh:
                assert fh.read() == reference_serialisation(obj, 2)

            for version in (2, 1):  # version-1 bytes, written straight, still read bit-exact
                blob = reference_serialisation(obj, version)
                with open(path, "wb") as fh:
                    fh.write(blob)
                assert_bit_exact(as_stored(obj), read_spsi(path))
                cut = data.draw(st.integers(0, len(blob) - 1), label=f"v{version} prefix length")
                for damaged in (blob[:cut], blob + b"\x00"):
                    with open(path, "wb") as fh:
                        fh.write(damaged)
                    with pytest.raises(ContainerError):
                        read_spsi(path)


def unit_normals():
    n = np.random.default_rng(11).normal(size=(2, 2, 2, 3))
    return NormalMapStack(n / np.linalg.norm(n, axis=-1, keepdims=True))


class TestFieldsAreWhatTheObjectWrites:
    # (object, byte offset from the end (negative) or the start, struct format, new value):
    # each container read before its fields were compared with what its object writes.
    CASES = {
        "raw component count 7": (lambda: small_container("raw"), 18, "<H", 7),
        "network component count 9": (lambda: small_container("network"), 18, "<H", 9),
        "network wavelength 555 nm": (lambda: small_container("network"), HEADER.size, "<f",
                                      555.0),
        "normal-map mask bits cleared": (unit_normals, -1, "<B", 0),
        # a 2 x 2 x 1 cube: 4 mask bits, then 4 padding bits in the last byte
        "cube mask padding bits set": (lambda: random_cube(h=2, w=2, c=1), -1, "<B", None),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_refused_with_the_offset_of_the_first_differing_byte(self, tmp_path, case):
        build, at, fmt, value = self.CASES[case]
        obj = build()
        write_spsi(tmp_path / "whole.spsi", obj)
        blob = (tmp_path / "whole.spsi").read_bytes()
        at %= len(blob)
        value = blob[at] | 0x0F if value is None else value
        path = patched(tmp_path, obj, at, fmt, value)
        first = next(i for i, (a, b) in enumerate(zip(blob, path.read_bytes())) if a != b)
        with pytest.raises(ContainerError, match=f"byte at offset {first} contradicts"):
            read_spsi(path)
        assert main(["validate", str(path)]) == 3

    @pytest.mark.parametrize("case", ["shared configurations stored twice", "float32 normal map"])
    def test_refused_where_a_rewritten_container_differs(self, tmp_path, case):
        if case == "shared configurations stored twice":
            raw = small_container("raw")  # one channel, shared configurations, tags, no layout
            blob = bytearray(reference_serialisation(raw, 2))
            # table, frame count, tag flag, tags, layout flag, levels, exposure, shared flag
            at = HEADER.size + 4 + 4 + 1 + 8 * len(raw.tags) + 1 + 16 + 8 + 1
            group = blob[at + 4:at + 8 + 24 * len(raw.config.channel_configs)]
            blob[at + 4 + len(group):at + 4 + len(group)] = group  # read: the first group only
            struct.pack_into("<I", blob, at, 2)
        else:  # NormalMapStack holds float64, so its writer writes dtype code 1
            normals = unit_normals()
            blob = bytearray(reference_serialisation(normals, 2))
            start, n = HEADER.size + 4 * normals.channels, normals.data.nbytes
            blob[start:start + n] = normals.data.astype("<f4").tobytes()
            at = 20  # the dtype code
            blob[at] = 0
        path = tmp_path / "obj.spsi"
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match=f"byte at offset {at} contradicts"):
            read_spsi(path)
        assert main(["validate", str(path)]) == 3

    @pytest.mark.parametrize("table", [[0.0, 0.0], [-0.0, -0.0], [0.0, 550.0]])
    @pytest.mark.parametrize("kind", ["cube", "raw"])
    def test_a_table_of_zeros_is_no_table(self, tmp_path, kind, table):
        obj = random_scene(2, 2, 2, np.random.default_rng(5), wavelengths=table)
        if kind == "raw":  # simulation wants increasing wavelengths; a capture takes any
            raw = simulate_hyperspectral(random_scene(2, 2, 2, np.random.default_rng(5)),
                                         default_qwp_angles())
            obj = dataclasses.replace(raw, wavelengths=np.array(table))
        path = tmp_path / "obj.spsi"
        write_spsi(path, obj)
        blob = path.read_bytes()
        got = read_spsi(path)
        write_spsi(path, got)
        assert path.read_bytes() == blob  # write, read, write is exact
        channels = struct.unpack_from("<H", blob, 16)[0]
        if any(table):
            assert channels == 2 and np.array_equal(got.wavelengths, table)
        else:  # stored as +0 (a cube) or as no table (a raw capture), read as None
            assert channels == (2 if kind == "cube" else 0)
            assert blob[HEADER.size:HEADER.size + 4 * channels] == bytes(4 * channels)
            assert got.wavelengths is None

    @settings(max_examples=300, deadline=None)
    @given(obj=containers(), data=st.data())
    def test_one_changed_byte_is_refused_or_written_back(self, obj, data):
        blob = bytearray(reference_serialisation(obj, 2))
        n = len(blob)  # most fields lie in the first bytes, and a cube's mask in the last
        at = data.draw(st.one_of(st.integers(0, min(n, 128) - 1), st.integers(0, n - 1),
                                 st.integers(max(0, n - 32), n - 1)), label="offset")
        blob[at] = data.draw(st.integers(0, 255).filter(lambda v: v != blob[at]), label="byte")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "obj.spsi")
            with open(path, "wb") as fh:
                fh.write(blob)
            try:
                with np.errstate(all="ignore"):  # a changed value may overflow a norm check
                    got = read_spsi(path)
            except ContainerError:
                return
            write_spsi(path, got)
            with open(path, "rb") as fh:
                written = fh.read()
        if struct.unpack_from("<H", blob, 4)[0] == 1:  # the version byte made a version-1 file
            written = reference_serialisation(got, 1)
        assert written == bytes(blob)


def unchecked(cls, fields):
    """An instance of ``cls`` holding ``fields`` whose constructor never ran."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def state(obj):
    """The constructor arguments of a dataclass: its fields, not its cached properties."""
    return {field.name: getattr(obj, field.name) for field in dataclasses.fields(obj)}


def broken(case):
    """(class, fields) of a broken capture or network, by case name."""
    rng = np.random.default_rng(23)
    raw = simulate_hyperspectral(random_scene(8, 8, 2, rng, wavelengths=[500.0, 600.0]),
                                 default_qwp_angles())
    mosaic = simulate_trichromatic(random_scene(8, 8, 3, rng))
    silent = np.eye(4)
    silent[0] = [0.0, 0.0, 0.0, 1.0]  # records the circular output of a polarizer: 0
    if case == "rank-1 QWP set":
        return RawCapture, dict(state(raw), config=CaptureConfig.hyperspectral(np.full(4, 0.2)))
    if case == "NaN QWP angle":
        angles = np.append(default_qwp_angles()[:3], np.nan)
        return RawCapture, dict(state(raw), config=CaptureConfig.hyperspectral(angles))
    if case == "NaN exposure":
        config = unchecked(CaptureConfig, dict(state(raw.config), exposure=np.nan))
        return RawCapture, dict(state(raw), config=config)
    if case == "singular calibration":
        config = CaptureConfig.hyperspectral(default_qwp_angles(), calibration=silent)
        return RawCapture, dict(state(raw), config=config)
    if case == "singular green calibration on a mosaic":
        calibration = np.stack([np.eye(4), silent, np.eye(4)])
        config = MosaicLayout.default().capture_config(calibration)
        return RawCapture, dict(state(mosaic), config=config)
    if case == "black level above saturation":
        return RawCapture, dict(state(raw), black_level=0.5, saturation_level=0.1)
    if case == "NaN saturation level":
        return RawCapture, dict(state(raw), saturation_level=np.nan)
    if case == "extra (0, 0) frame":  # a second frame of (0, 0), unlike the first
        return RawCapture, dict(state(raw), frames=np.concatenate([raw.frames, raw.frames[-1:]]),
                                tags=raw.tags + [(0, 0)])
    if case == "extra (0, 9) frame":
        return RawCapture, dict(state(raw), frames=np.concatenate([raw.frames, raw.frames[-1:]]),
                                tags=raw.tags + [(0, 9)])
    if case == "one wavelength for 2 channels":
        return RawCapture, dict(state(raw), wavelengths=np.array([500.0]))
    if case == "missing frame":
        return RawCapture, dict(state(raw), frames=raw.frames[:-1], tags=raw.tags[:-1])
    if case == "neither tags nor layout":
        return RawCapture, dict(state(raw), tags=None)
    if case == "tags and a layout":
        return RawCapture, dict(state(mosaic), tags=[(0, 0)])
    if case == "two-frame mosaic":
        return RawCapture, dict(state(mosaic), frames=np.concatenate([mosaic.frames] * 2))
    if case == "swapped red configurations":
        red, green, blue = (list(group) for group in mosaic.config.channel_configs)
        red[:2] = red[1], red[0]
        return RawCapture, dict(state(mosaic), config=CaptureConfig([red, green, blue]))
    if case == "configurations for 2 of 3 channels":
        three = simulate_hyperspectral(random_scene(4, 4, 3, rng), default_qwp_angles())
        lists = [three.config.configs_for(0)] * 2
        return RawCapture, dict(state(three), config=CaptureConfig(lists))
    model = inr_init(2, 8, seed=1, k_spatial=1, grid_shape=(2, 2, 1))
    if case == "first weight of 4 columns":
        return InrModel, dict(state(model), weights=[model.weights[0][:, :4]] + model.weights[1:])
    assert case == "zero grid dimension"
    return InrModel, dict(state(model), grid_shape=(0, 4, 2))


class TestInvariantsHaveOneHome:
    # (case, match at construction, match when read): the constructor refuses each
    # object, so no container of it is written; its container, written all the same,
    # is refused when read.
    CASES = [
        ("extra (0, 0) frame", "1 repeated", "invariants.*1 repeated"),
        ("extra (0, 9) frame", r"unknown \[\(0, 9\)\]", r"unknown \[\(0, 9\)\]"),
        ("missing frame", r"missing \[\(1, 3\)\]", r"missing \[\(1, 3\)\]"),
        ("one wavelength for 2 channels", r"wavelength table has \(1,\), expected \(2,\)",
         r"invariants: wavelength table has \(1,\), expected \(2,\)"),
        ("neither tags nor layout", "not both or neither", "not both or neither"),
        ("tags and a layout", "not both or neither", "not both or neither"),
        ("two-frame mosaic", "one frame", "one frame"),
        ("swapped red configurations", "contradict its mosaic layout",
         "contradict its mosaic layout"),
        ("configurations for 2 of 3 channels", "2 configuration lists for 3",
         "2 configuration lists for 3"),
        ("rank-1 QWP set", "channel 0 system rank 1 < 4", "invariants: degenerate.*rank 1"),
        ("NaN QWP angle", "channel 0: angle must be finite",
         "invariants: channel 0: angle must be finite"),
        ("NaN exposure", "channel 0 measurement rows are not finite",
         "invariants: exposure must be positive and finite, got nan"),
        ("singular calibration", "channel 0 system rank 0 < 4", "channel 0 system rank 0"),
        ("singular green calibration on a mosaic", "channel 1 system rank 0 < 4",
         "channel 1 system rank 0"),
        ("black level above saturation", "black level 0.5 must lie below the saturation level 0.1",
         "invariants: black level 0.5 must lie below the saturation level 0.1"),
        ("NaN saturation level", "below the saturation level nan",
         "below the saturation level nan"),
        ("first weight of 4 columns", "shapes", "payload size mismatch: 32 trailing bytes"),
        ("zero grid dimension", "grid", "grid"),
    ]

    @pytest.mark.parametrize("case,built,read", CASES)
    def test_refused_when_built_and_when_read(self, tmp_path, capsys, case, built, read):
        cls, fields = broken(case)
        with pytest.raises((DimensionError, ConfigurationError), match=built):
            cls(**fields)
        self.assert_refused_when_read(tmp_path, capsys, cls, fields, read)

    def test_nan_frame_refused_when_built_and_when_read(self, tmp_path, capsys):
        raw = small_container("raw")
        frames = raw.frames.copy()
        frames[1, 0, 1] = np.nan
        fields = dict(state(raw), frames=frames)
        with pytest.raises(ValueError, match="frame intensities must be finite"):
            RawCapture(**fields)
        self.assert_refused_when_read(tmp_path, capsys, RawCapture, fields,
                                      "invariants: frame intensities must be finite")

    @staticmethod
    def assert_refused_when_read(tmp_path, capsys, cls, fields, read):
        path = tmp_path / "broken.spsi"
        write_spsi(path, unchecked(cls, fields))  # the writer itself checks nothing
        with pytest.raises(ContainerError, match=read):
            read_spsi(path)
        if cls is RawCapture:
            out = tmp_path / "cube.spsi"
            assert main(["reconstruct", str(path), "--out", str(out)]) == 3
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and json.loads(err[0])["class"] == "io"
            assert not out.exists()

    @pytest.mark.parametrize("frames", [lambda f: f[0], lambda f: f[:, :, :, None]])
    def test_frames_that_are_not_n_h_w_refused(self, frames):
        raw = small_container("raw")
        with pytest.raises(DimensionError, match=r"frames must be \(N, H, W\)"):
            RawCapture(**dict(state(raw), frames=frames(raw.frames)))

    def test_tag_count_other_than_frame_count_refused(self):
        raw = small_container("raw")
        with pytest.raises(DimensionError, match="3 frame tags for 4 frames"):
            RawCapture(**dict(state(raw), tags=raw.tags[:3]))

    def test_inr_init_refuses_a_zero_grid_dimension(self):
        with pytest.raises(DimensionError, match="grid"):
            inr_init(2, 8, seed=1, k_spatial=1, grid_shape=(0, 4, 2))


@st.composite
def tag_edits(draw):
    """A sequential capture, its frames in a drawn order, and one drawn edit of a tag."""
    channels, m = draw(st.integers(1, 3)), draw(st.integers(4, 6))
    angles = np.concatenate([default_qwp_angles(), np.deg2rad([10.0, 75.0])[: m - 4]])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scene = random_scene(draw(st.integers(1, 3)), draw(st.integers(1, 3)), channels, rng)
    raw = simulate_hyperspectral(scene, angles)
    order = list(draw(st.permutations(range(channels * m))))
    raw = RawCapture(raw.frames[order], raw.config, tags=[raw.tags[k] for k in order])
    edit = draw(st.sampled_from(["drop", "duplicate", "config past", "channel past"]))
    return raw, edit, draw(st.integers(0, channels * m - 1)), draw(st.integers(0, 3))


def edit_tags(raw, edit, k, past):
    """The frames and tags of ``raw`` after one edit of frame k's tag."""
    frames, tags = raw.frames, list(raw.tags)
    if edit == "drop":
        return np.delete(frames, k, axis=0), tags[:k] + tags[k + 1:]
    if edit == "duplicate":
        return np.concatenate([frames, frames[k:k + 1]]), tags + [tags[k]]
    c, i = tags[k]
    if edit == "config past":  # an index past the channel's configuration list
        tags[k] = (c, len(raw.config.configs_for(c)) + past)
    else:  # a channel number past C - 1
        tags[k] = (len({t[0] for t in tags}) + past, i)
    return frames, tags


def patch_tags(blob, raw, edit, k, past):
    """``blob``, the container of ``raw``, with the same edit made in its bytes."""
    count = HEADER.size + 4 * struct.unpack_from("<H", blob, 16)[0]  # frame count (I)
    tags, n, size = count + 5, len(raw.tags), raw.frames[0].nbytes  # tag flag (B), (II) each
    frame = len(blob) - (n - k) * size  # the frames close the container
    edited = edit_tags(raw, edit, k, past)[1]
    blob = bytearray(blob)
    if edit == "drop":
        del blob[frame:frame + size]
        del blob[tags + 8 * k:tags + 8 * k + 8]
    elif edit == "duplicate":
        blob += blob[frame:frame + size]
        blob[tags + 8 * n:tags + 8 * n] = blob[tags + 8 * k:tags + 8 * k + 8]
    else:
        struct.pack_into("<II", blob, tags + 8 * k, *edited[k])
    struct.pack_into("<I", blob, count, len(edited))
    return bytes(blob)


class TestTagEdits:
    @settings(max_examples=60, deadline=None)
    @given(drawn=tag_edits())
    def test_one_tag_edit_is_refused_when_built_and_when_read(self, drawn):
        raw, edit, k, past = drawn
        frames, tags = edit_tags(raw, edit, k, past)
        with pytest.raises(DimensionError, match="frame tags"):
            RawCapture(frames, raw.config, tags=tags)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "raw.spsi")
            write_spsi(path, raw)
            with open(path, "rb") as fh:
                blob = patch_tags(fh.read(), raw, edit, k, past)
            fields = dict(state(raw), frames=frames, tags=tags)
            assert blob == reference_serialisation(unchecked(RawCapture, fields))
            with open(path, "wb") as fh:
                fh.write(blob)
            with pytest.raises(ContainerError, match="frame tags"):
                read_spsi(path)


class TestLabels:
    def test_roundtrip(self, tmp_path):
        labels = LabelSet("outdoor", "sunlight", "2023-06-01T10:00:00", "scene")
        path = tmp_path / "labels.json"
        write_labels(path, labels)
        assert read_labels(path) == labels

    def test_sidecar_with_extra_keys_reads(self, tmp_path):
        path = tmp_path / "labels.json"  # older writers added free-text notes and rig keys
        path.write_text(
            '{"environment": "outdoor", "illumination": "sunlight", "notes": "clear sky", '
            '"capture_time": "2023-06-01T10:00:00", "scene_type": "scene", "rig": "sequential"}'
        )
        want = LabelSet("outdoor", "sunlight", "2023-06-01T10:00:00", "scene")
        assert read_labels(path) == want

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

    @pytest.mark.parametrize("field, value", [
        ("environment", ["indoor"]), ("illumination", {"white": True}), ("scene_type", 1),
        ("capture_time", ["2023-06-01T10:00:00"]),
    ])
    def test_non_text_value_rejected(self, tmp_path, field, value):
        doc = {"environment": "indoor", "illumination": "white",
               "capture_time": "2023-06-01T10:00:00", "scene_type": "object", field: value}
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(LabelSchemaError, match=field):
            read_labels(path)

    @pytest.mark.parametrize("text, message", [
        (b"{", "not valid JSON"), (b"\xff{}", "not valid JSON"),
        (b'["outdoor"]', "must be a JSON object"),
    ], ids=["not-json", "not-utf8", "not-an-object"])
    def test_sidecar_that_is_no_json_object_rejected(self, tmp_path, text, message):
        path = tmp_path / "labels.json"
        path.write_bytes(text)
        with pytest.raises(LabelSchemaError, match=message):
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
    def test_unsupported_object_is_not_written(self, tmp_path):
        path = tmp_path / "cube.csv"
        with pytest.raises(TypeError, match="cannot export StokesImage as CSV"):
            export_csv(random_cube(), path)
        assert not path.exists()

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


#: The library modules, in the order the package republishes them.
LIBRARY = ("analysis", "camera", "errors", "image", "inr", "io", "labels", "pca", "reconstruct",
           "scenes", "stokes")


class TestPublicNamespace:
    """Each library module's ``__all__`` is the only list of its public names."""

    def declared(self):
        return {name: importlib.import_module(f"polarcube.{name}").__all__ for name in LIBRARY}

    def test_no_name_is_declared_by_two_modules(self):
        owners = {}
        for module, names in self.declared().items():
            assert len(set(names)) == len(names), module
            for name in names:
                assert owners.setdefault(name, module) == module, (name, owners[name], module)

    def test_every_declared_name_is_the_packages_object(self):
        for module, names in self.declared().items():
            for name in names:
                assert getattr(polarcube, name) is getattr(polarcube.__dict__[module], name)

    def test_the_package_exposes_only_declared_names_and_submodules(self):
        declared = {name for names in self.declared().values() for name in names}
        public = {name for name, value in vars(polarcube).items()
                  if not name.startswith("_")
                  and getattr(value, "__name__", None) != f"polarcube.{name}"}
        assert public == declared
