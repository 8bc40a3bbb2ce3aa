import dataclasses

import numpy as np
import pytest

from polarcube import (
    CaptureConfig,
    ConfigurationError,
    DimensionError,
    MeasurementConfig,
    MosaicLayout,
    NoiseModel,
    StokesImage,
    add_noise,
    analyzer_row,
    default_qwp_angles,
    demosaic,
    demosaic_footprint,
    mosaic_merge,
    mosaic_split,
    random_scene,
    read_spsi,
    reconstruct_image,
    simulate_hyperspectral,
    simulate_trichromatic,
    smooth_scene,
    uniform_scene,
    write_spsi,
)
from polarcube.camera import RED, GREEN, BLUE, system_matrix

from conftest import assert_bit_exact

RNG = np.random.default_rng(77)

LP0 = MeasurementConfig(retarder_angle=0.0, retardance=0.0, polarizer_angle=0.0)


class TestAnalyzerRow:
    def test_unpolarized_light_through_any_lp_gives_half(self):
        for angle in (0.0, 0.7, -1.2):
            row = analyzer_row(MeasurementConfig(0.0, 0.0, angle))
            assert row @ [1.0, 0.0, 0.0, 0.0] == pytest.approx(0.5)

    def test_horizontal_light_through_aligned_lp(self):
        assert analyzer_row(LP0) @ [1.0, 1.0, 0.0, 0.0] == pytest.approx(1.0)

    def test_qwp_plus_lp_matches_matrix_chain(self):
        # explicit chain oracle: first row of P(0) Q(30deg) dotted with
        # [1,1,0,0] is (1 + cos^2 60deg) / 2 = 0.625
        cfg = MeasurementConfig(np.deg2rad(30.0), np.pi / 2, 0.0)
        assert analyzer_row(cfg) @ [1.0, 1.0, 0.0, 0.0] == pytest.approx(0.625, abs=1e-12)


def reference_random_scene(height, width, channels, rng, s0_range=(0.3, 1.0), rho_max=0.9):
    """``random_scene``'s data with its polarized part built as a scaled copy of the directions."""
    shape = (height, width, channels)
    s0 = rng.uniform(*s0_range, size=shape)
    rho = rng.uniform(0.0, rho_max, size=shape)
    direction = rng.normal(size=shape + (3,))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    data = np.empty(shape + (4,))
    data[..., 0] = s0
    data[..., 1:] = direction * (rho * s0)[..., None]
    return data


def reference_smooth_scene(height, width, channels, rng, cycles=1.5, rho_max=0.8):
    """``smooth_scene``'s data with its direction field stacked, then scaled into a copy."""
    y = np.linspace(0.0, 2.0 * np.pi * cycles, height)[:, None, None]
    x = np.linspace(0.0, 2.0 * np.pi * cycles, width)[None, :, None]
    ch = np.arange(channels)[None, None, :]

    def harmonics():
        phase_y = rng.uniform(0.0, 2.0 * np.pi, size=channels)
        phase_x = rng.uniform(0.0, 2.0 * np.pi, size=channels)
        return 0.5 * (np.sin(y + phase_y[ch]) + np.sin(x + phase_x[ch]))

    s0 = 0.55 + 0.25 * harmonics()
    rho = rho_max * (0.5 + 0.5 * harmonics())
    az = np.pi * harmonics()
    el = 0.5 * np.pi * 0.8 * harmonics()
    direction = np.stack(
        [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=-1
    )
    data = np.empty((height, width, channels, 4))
    data[..., 0] = s0
    data[..., 1:] = direction * (rho * s0)[..., None]
    return data


class TestScenes:
    @pytest.mark.parametrize("make", [smooth_scene, random_scene])
    @pytest.mark.parametrize("rho_max", [1.0, -0.1, float("nan")])
    def test_rho_max_outside_0_to_1_is_refused(self, make, rho_max):
        with pytest.raises(ValueError, match="rho_max must lie in"):
            make(4, 4, 2, np.random.default_rng(3), rho_max=rho_max)

    @pytest.mark.parametrize("make", [smooth_scene, random_scene])
    def test_every_vector_stays_below_rho_max(self, make):
        s = make(8, 8, 2, np.random.default_rng(3), rho_max=0.99).data
        assert np.all(np.linalg.norm(s[..., 1:], axis=-1) <= 0.99 * s[..., 0] * (1 + 1e-12))

    @pytest.mark.parametrize("shape", [(1, 1, 1), (0, 5, 3), (3, 0, 2), (7, 5, 21), (16, 12, 3)])
    @pytest.mark.parametrize("make, reference", [(smooth_scene, reference_smooth_scene),
                                                 (random_scene, reference_random_scene)])
    def test_bit_identical_to_the_stack_then_scale_reference(self, shape, make, reference):
        scene = make(*shape, np.random.default_rng(11))
        want = reference(*shape, np.random.default_rng(11))
        assert_bit_exact(scene.data, want)
        assert scene.data.flags.owndata and scene.data.flags.writeable
        if shape[2] == 21:
            assert np.array_equal(scene.wavelengths, 450.0 + 10.0 * np.arange(21))

    @pytest.mark.parametrize("shape", [(1, 1, 1), (0, 5, 3), (4, 3, 21)])
    def test_uniform_scene_owns_writable_data(self, shape):
        data = uniform_scene(*shape, stokes=(1.0, 0.2, 0.0, -0.1)).data
        assert data.flags.owndata and data.flags.writeable
        assert np.array_equal(data, np.broadcast_to([1.0, 0.2, 0.0, -0.1], shape + (4,)))


class TestSimulateHyperspectral:
    def test_uniform_unpolarized_scene_gives_half_everywhere(self):
        scene = uniform_scene(8, 8, 5, wavelengths=450 + 10 * np.arange(5))
        raw = simulate_hyperspectral(scene, default_qwp_angles(), exposure=2.0)
        assert raw.frames.shape == (20, 8, 8)
        assert np.allclose(raw.frames, 0.5 * 2.0, atol=1e-12)

    def test_noiseless_roundtrip(self):
        scene = random_scene(16, 16, 7, RNG, wavelengths=450 + 10 * np.arange(7))
        raw = simulate_hyperspectral(scene, default_qwp_angles())
        cube = reconstruct_image(raw)
        rel = np.max(np.abs(cube.data - scene.data)) / scene.data[..., 0].max()
        assert rel < 1e-5
        assert np.array_equal(cube.wavelengths, scene.wavelengths)

    def test_noise_sigma_reproduced_statistically(self):
        scene = uniform_scene(128, 128, 1, stokes=(1.0, 0, 0, 0), wavelengths=[550.0])
        noise = NoiseModel(gaussian_sigma=0.05, rng_seed=3, saturation_level=10.0)
        raw = simulate_hyperspectral(scene, default_qwp_angles(), noise=noise)
        clean = simulate_hyperspectral(scene, default_qwp_angles())
        sigma = np.std(raw.frames - clean.frames)
        assert sigma == pytest.approx(0.05, rel=0.10)

    def test_empty_angle_list_rejected(self):
        scene = uniform_scene(4, 4, 1, wavelengths=[550.0])
        with pytest.raises(ConfigurationError):
            simulate_hyperspectral(scene, [])

    def test_rank_deficient_angles_rejected(self):
        scene = uniform_scene(4, 4, 1, wavelengths=[550.0])
        with pytest.raises(ConfigurationError):
            simulate_hyperspectral(scene, [0.1, 0.1, 0.1, 0.1])

    def test_frames_are_the_rows_applied_to_the_scene_bit_for_bit(self):
        # Each channel is measured as given; the frames span several row
        # blocks.  The oracle is a matrix product too: a matrix-vector
        # product may round the 4-term sum differently.
        scene = smooth_scene(64, 48, 5, RNG, wavelengths=450 + 10 * np.arange(5))
        raw = simulate_hyperspectral(scene, default_qwp_angles(), exposure=1.5)
        for frame, (c, i) in zip(raw.frames, raw.tags):
            expected = (scene.data[:, :, c, :] @ raw.config.rows(c).T)[..., i]
            assert frame.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("table", [[520.0, 510.0, 500.0], [500.0, 510.0, 510.0],
                                       [500.0, float("nan"), 520.0], [500.0, 510.0, np.inf],
                                       [-np.inf, 510.0, 520.0]])
    def test_wavelength_table_not_finite_and_increasing_is_refused(self, table):
        scene = random_scene(4, 4, 3, RNG, wavelengths=table)
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            simulate_hyperspectral(scene, default_qwp_angles())

    def test_missing_or_increasing_wavelength_table_is_measured_alike(self):
        scene = random_scene(4, 4, 3, RNG)
        bare = simulate_hyperspectral(scene, default_qwp_angles())
        scene.wavelengths = np.array([500.0, 510.0, 525.0])
        tabled = simulate_hyperspectral(scene, default_qwp_angles())
        assert bare.wavelengths is None
        assert np.array_equal(tabled.wavelengths, scene.wavelengths)
        assert tabled.wavelengths is not scene.wavelengths
        assert bare.frames.tobytes() == tabled.frames.tobytes()

    def test_frames_never_exceed_the_brightest_s0(self):
        scene = random_scene(12, 12, 5, RNG, wavelengths=450 + 10 * np.arange(5))
        raw = simulate_hyperspectral(scene, default_qwp_angles())
        bound = scene.data[..., 0].max()
        assert np.all(raw.frames <= bound + 1e-12)


class TestSimulateTrichromatic:
    def test_uniform_unpolarized_gives_half_in_every_segment(self):
        scene = uniform_scene(16, 16, 3)
        raw = simulate_trichromatic(scene, exposure=1.5)
        segments = mosaic_split(raw.frames[0])
        assert segments.shape == (16, 4, 4)
        assert np.allclose(segments, 0.5 * 1.5, atol=1e-12)

    def test_roundtrip_on_smooth_scene(self):
        scene = smooth_scene(64, 64, 3, np.random.default_rng(5))
        cube = reconstruct_image(simulate_trichromatic(scene))
        rmse = np.sqrt(np.mean((cube.data - scene.data) ** 2))
        assert rmse < 2e-2

    def test_segment_assignment_rule(self):
        # pixel (n, m) lies in segment K = (n mod 4) * 4 + (m mod 4), the cell of its colour
        layout = MosaicLayout.default()
        for n, m, k in [(5, 6, 6), (0, 0, 0), (3, 3, 15)]:
            assert k in layout.segments(layout.colors[n % 4, m % 4])

    @pytest.mark.parametrize("shape, message", [((6, 8, 3), "sides divisible by 4"),
                                                ((8, 8, 2), "expects a 3-channel scene")])
    def test_dimension_mismatch_rejected(self, shape, message):
        scene = uniform_scene(*shape)
        with pytest.raises(DimensionError, match=message):
            simulate_trichromatic(scene)


class TestMosaicLayout:
    def test_default_census(self):
        layout = MosaicLayout.default()
        counts = np.bincount(layout.colors.ravel(), minlength=3)
        assert tuple(counts) == (4, 8, 4)

    def test_green_has_eight_cells_red_blue_four(self):
        layout = MosaicLayout.default()
        assert layout.segments(RED).tolist() == [0, 2, 8, 10]
        assert layout.segments(GREEN).tolist() == [1, 3, 4, 6, 9, 11, 12, 14]
        assert layout.segments(BLUE).tolist() == [5, 7, 13, 15]

    def test_rank_deficient_layout_rejected(self):
        layout = MosaicLayout.default()
        # all retarders removed: circular component becomes unobservable
        with pytest.raises(ConfigurationError):
            MosaicLayout(
                layout.colors, layout.polarizer_angles, layout.retarder_angles,
                np.zeros((4, 4)),
            )

    @pytest.mark.parametrize("table", ["colors", "polarizer_angles", "retarder_angles",
                                       "retardances"])
    def test_table_that_is_not_4x4_rejected(self, table):
        tables = dataclasses.asdict(MosaicLayout.default())
        tables[table] = tables[table][:, :3]
        with pytest.raises(DimensionError, match=f"{table} must be a 4x4 table"):
            MosaicLayout(**tables)

    def test_bad_census_rejected(self):
        layout = MosaicLayout.default()
        colors = layout.colors.copy()
        colors[0, 0] = 1  # five greens, three reds
        with pytest.raises(ConfigurationError):
            MosaicLayout(colors, layout.polarizer_angles, layout.retarder_angles,
                         layout.retardances)


class TestMosaicSplit:
    def test_segment_constant_when_frame_encodes_index(self):
        frame = np.empty((8, 8))
        for n in range(8):
            for m in range(8):
                frame[n, m] = (n % 4) * 4 + (m % 4)
        segments = mosaic_split(frame)
        for k in range(16):
            assert np.all(segments[k] == k)

    def test_split_then_merge_is_identity(self):
        frame = RNG.normal(size=(32, 24))
        assert np.array_equal(mosaic_merge(mosaic_split(frame)), frame)

    def test_full_sensor_dimensions(self):
        frame = np.zeros((2048, 2448), dtype=np.float32)
        segments = mosaic_split(frame)
        assert segments.shape == (16, 512, 612)

    def test_indivisible_dims_rejected(self):
        with pytest.raises(DimensionError):
            mosaic_split(np.zeros((6, 8)))

    def test_merge_of_fifteen_segments_rejected(self):
        with pytest.raises(DimensionError, match="expected 16 segments"):
            mosaic_merge(np.zeros((15, 2, 2)))


class TestDemosaic:
    def test_constant_segments_stay_constant(self):
        segments = np.ones((16, 4, 4)) * np.arange(16)[:, None, None]
        full = demosaic(segments)
        assert full.shape == (16, 16, 16)
        for k in range(16):
            assert np.allclose(full[k], k, atol=1e-12)

    def test_affine_ramp_reproduced_exactly(self):
        h, w = 6, 5
        rows = np.arange(4 * h, dtype=float)[:, None]
        cols = np.arange(4 * w, dtype=float)[None, :]
        ramp = 0.25 * rows + 1.5 * cols - 3.0
        segments = mosaic_split(ramp)
        full = demosaic(segments)
        for k in range(16):
            assert np.max(np.abs(full[k] - ramp)) < 1e-12

    def test_sample_sites_preserved_bit_exactly(self):
        frame = RNG.normal(size=(16, 16))
        segments = mosaic_split(frame)
        full = demosaic(segments)
        for k in range(16):
            i, j = k // 4, k % 4
            assert np.array_equal(full[k, i::4, j::4], segments[k])

    @pytest.mark.parametrize("shape", [(4, 4), (4, 16), (12, 8), (16, 16)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_footprint_matches_impulse_responses(self, shape):
        # (4, 4) and (4, 16) have one-sample segments; every shape extrapolates at its borders
        flags = np.random.default_rng(0).uniform(size=shape) < 0.3
        expected = np.zeros((16,) + shape, dtype=bool)
        for n, m in zip(*np.nonzero(flags)):
            impulse = np.zeros(shape)
            impulse[n, m] = 1.0
            expected |= demosaic(mosaic_split(impulse)) != 0
        assert np.array_equal(demosaic_footprint(flags), expected)

    def test_inconsistent_segments_rejected(self):
        with pytest.raises(DimensionError):
            demosaic(np.zeros((15, 4, 4)))


class TestNoise:
    def test_zero_noise_is_identity(self):
        frame = RNG.uniform(0.2, 0.8, size=(32, 32))
        model = NoiseModel(gaussian_sigma=0.0, shot_gain=0.0)
        assert np.array_equal(add_noise(frame, model), frame)

    def test_same_seed_same_output(self):
        frame = RNG.uniform(0.2, 0.8, size=(32, 32))
        model = NoiseModel(gaussian_sigma=0.05, rng_seed=11)
        assert np.array_equal(add_noise(frame, model, stream=2),
                              add_noise(frame, model, stream=2))
        assert not np.array_equal(add_noise(frame, model, stream=2),
                                  add_noise(frame, model, stream=3))

    def test_empirical_variance_matches_model(self):
        level = 0.5
        frame = np.full((1024, 1024), level)
        model = NoiseModel(gaussian_sigma=0.03, shot_gain=0.002, rng_seed=5,
                           saturation_level=10.0, black_level=-10.0)
        noisy = add_noise(frame, model)
        want = 0.03**2 + 0.002 * level
        assert np.var(noisy - frame) == pytest.approx(want, rel=0.05)

    def test_bits_equal_the_written_out_model(self):
        # clip(frame + sqrt(sigma^2 + gain * max(frame, 0)) * draw), with some
        # samples below 0 and some clipped at either level.
        frame = RNG.uniform(-0.1, 1.1, size=(40, 24))
        model = NoiseModel(gaussian_sigma=0.03, shot_gain=0.01, saturation_level=0.9,
                           black_level=0.05, rng_seed=13)
        draw = model.stream(4).standard_normal(frame.shape)
        want = np.clip(frame + np.sqrt(model.gaussian_sigma**2 + model.shot_gain
                                       * np.maximum(frame, 0.0)) * draw, 0.05, 0.9)
        got = add_noise(frame, model, stream=4)
        assert got.tobytes() == want.tobytes()
        assert (got == 0.05).any() and (got == 0.9).any()

    def test_both_cameras_noise_frame_k_with_stream_k(self):
        model = NoiseModel(gaussian_sigma=0.03, shot_gain=0.01, saturation_level=0.9,
                           black_level=0.05, rng_seed=13)
        hyper = (random_scene(8, 8, 2, RNG, wavelengths=[500.0, 600.0]), default_qwp_angles())
        rgb = (random_scene(8, 8, 3, RNG),)
        for simulate, args in ((simulate_hyperspectral, hyper), (simulate_trichromatic, rgb)):
            clean, noisy = simulate(*args).frames, simulate(*args, noise=model)
            want = [add_noise(frame, model, stream=k) for k, frame in enumerate(clean)]
            assert noisy.frames.tobytes() == np.stack(want).tobytes()
            assert (noisy.saturation_level, noisy.black_level) == (0.9, 0.05)

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(gaussian_sigma=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(black_level=1.0, saturation_level=0.5)

    @pytest.mark.parametrize("magnitude", ["gaussian_sigma", "shot_gain"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_magnitude_rejected(self, magnitude, value):
        with pytest.raises(ValueError, match="finite and non-negative"):
            NoiseModel(**{magnitude: value})


class TestSaturationPropagation:
    def test_saturated_pixels_masked_in_reconstruction(self):
        scene = uniform_scene(8, 8, 1, stokes=(1.0, 0, 0, 0), wavelengths=[550.0])
        scene.data[2, 3, 0, 0] = 4.0  # will clip at saturation 1.0
        noise = NoiseModel(gaussian_sigma=0.0, rng_seed=0)
        raw = simulate_hyperspectral(scene, default_qwp_angles(), noise=noise)
        cube = reconstruct_image(raw)
        assert not cube.mask[2, 3, 0]
        assert cube.mask[0, 0, 0]

    @pytest.mark.parametrize("bright", [
        [((slice(14, 18), slice(14, 18)), 3.0)],
        # two samples of one segment whose border-extrapolation weights cancel
        [((24, 24), 3.0), ((28, 28), 2.5)],
    ], ids=["centre spot", "border pair"])
    def test_mosaic_pixels_using_clipped_samples_masked(self, bright):
        data = np.zeros((32, 32, 3, 4))
        data[..., 0] = 0.3
        data[..., 1] = 0.05
        for site, s0 in bright:
            data[site + (slice(None), 0)] = s0
        scene = StokesImage(data)
        clean = reconstruct_image(simulate_trichromatic(scene))
        clipped = reconstruct_image(simulate_trichromatic(
            scene, noise=NoiseModel(saturation_level=1.0, black_level=-1.0)))
        assert 0 < clipped.mask.sum() < clean.mask.sum()
        biased = np.abs(clipped.data - clean.data).max(axis=-1) > 1e-12
        assert not (biased & clipped.mask).any()


class TestCaptureConfig:
    def test_empty_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            CaptureConfig([])

    @pytest.mark.parametrize("exposure", [0.0, -1.0, np.nan, np.inf])
    def test_exposure_must_be_positive_and_finite(self, exposure):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            CaptureConfig.hyperspectral(default_qwp_angles(), exposure=exposure)

    def test_shared_configs_broadcast_to_channels(self):
        config = CaptureConfig.hyperspectral(default_qwp_angles())
        assert config.configs_for(0) == config.configs_for(7)


def affine_scene():
    """3-channel scene affine in (row, column), which demosaicing reproduces exactly."""
    n, m = np.indices((16, 16), dtype=float)
    data = np.empty((16, 16, 3, 4))
    for c in range(3):
        data[:, :, c, 0] = 1.0 + 0.02 * n + 0.01 * m + 0.1 * c
        data[:, :, c, 1] = 0.2 - 0.005 * n + 0.1 * c
        data[:, :, c, 2] = -0.1 + 0.004 * m
        data[:, :, c, 3] = 0.05 + 0.003 * (n - m) - 0.05 * c
    return StokesImage(data, [450.0, 550.0, 650.0])


CALIBRATIONS = {
    "ideal": None,
    "shared": np.eye(4) + 0.05 * np.random.default_rng(21).normal(size=(4, 4)),
    "per-channel": np.eye(4) + 0.05 * np.random.default_rng(22).normal(size=(3, 4, 4)),
}


class TestMeasurementOperator:
    def test_a_capture_keeps_the_operator_it_was_built_with(self):
        raw = simulate_hyperspectral(affine_scene(), default_qwp_angles())
        with pytest.raises(dataclasses.FrozenInstanceError):
            raw.config = CaptureConfig.hyperspectral(np.deg2rad([10.0] * 4))  # rank 1
        assert raw.systems is raw.systems

    @pytest.mark.parametrize("kind", ["hyperspectral", "trichromatic"])
    def test_channels_with_one_row_set_share_one_system(self, monkeypatch, tmp_path, kind):
        builds = []
        monkeypatch.setattr("polarcube.camera.system_matrix",
                            lambda *a: builds.append(a) or system_matrix(*a))
        channels = 21 if kind == "hyperspectral" else 3
        scene = smooth_scene(12, 12, channels, np.random.default_rng(3))
        noise = NoiseModel(0.01, 0.001, saturation_level=0.5, rng_seed=5)
        cal = CALIBRATIONS["shared"]
        got = {}
        # one matrix per channel, all equal: the same rows, one system per channel
        for name, calibration in (("shared", cal), ("stacked", np.stack([cal] * channels))):
            builds.clear()
            if kind == "hyperspectral":
                raw = simulate_hyperspectral(scene, default_qwp_angles(), noise=noise,
                                             calibration=calibration)
            else:
                raw = simulate_trichromatic(scene, noise=noise, calibration=calibration)
            write_spsi(tmp_path / "raw.spsi", raw)
            cube = reconstruct_image(read_spsi(tmp_path / "raw.spsi"))
            assert 0 < cube.valid_fraction() < 1
            got[name] = raw.frames, cube.data, cube.mask, len(builds)
        *shared, shared_builds = got["shared"]
        *stacked, stacked_builds = got["stacked"]
        for a, b in zip(shared, stacked):
            assert_bit_exact(a, b)
        # simulate, the capture it returns, and the read each build the operator once
        if kind == "hyperspectral":
            assert (shared_builds, stacked_builds) == (3, 3 * 21)
        else:  # the mosaic's three colours build one system each either way
            assert shared_builds == stacked_builds and shared_builds % 3 == 0
        with pytest.raises(ConfigurationError, match="channel 0 system rank 1"):
            simulate_hyperspectral(scene, np.deg2rad([10.0] * 4))

    @pytest.mark.parametrize("camera", ["hyperspectral", "trichromatic"])
    @pytest.mark.parametrize("calibration", list(CALIBRATIONS))
    @pytest.mark.parametrize("exposure", [1.0, 2.5])
    def test_simulation_and_reconstruction_share_the_rows(self, camera, calibration, exposure):
        scene = affine_scene()
        cal = CALIBRATIONS[calibration]
        if camera == "hyperspectral":
            raw = simulate_hyperspectral(scene, default_qwp_angles(), calibration=cal,
                                         exposure=exposure)
        else:
            raw = simulate_trichromatic(scene, calibration=cal, exposure=exposure)
        config = raw.config

        for c in range(3):
            channel_cal = None if cal is None else (cal if cal.ndim == 2 else cal[c])
            oracle = [exposure * analyzer_row(cfg, channel_cal) for cfg in config.configs_for(c)]
            assert np.allclose(config.rows(c), oracle, rtol=0, atol=1e-15)
        # a sequential plane is frame k, tagged (c, i); a mosaic plane is segment k, which
        # samples every 4th row and column
        planes = raw.frames if camera == "hyperspectral" else mosaic_split(raw.frames[0])
        got, expected = [], []
        for c, (indices, system) in enumerate(raw.systems):
            assert np.array_equal(system.matrix, config.rows(c))
            for i, (k, row) in enumerate(zip(indices, config.rows(c))):
                frame = scene.data[:, :, c, :] @ row
                if camera == "hyperspectral":
                    assert raw.tags[k] == (c, i)
                got.append(planes[k])
                expected.append(frame if camera == "hyperspectral" else mosaic_split(frame)[k])
        assert np.allclose(got, expected, rtol=1e-14, atol=1e-14)

        cube = reconstruct_image(raw)
        assert np.max(np.abs(cube.data - scene.data)) < 1e-10
