import numpy as np
import pytest

from polarcube import (
    CaptureConfig,
    ConfigurationError,
    DimensionError,
    MeasurementConfig,
    MosaicLayout,
    NoiseModel,
    SamplingGridError,
    SpectralResponse,
    StokesImage,
    add_noise,
    analyzer_row,
    default_qwp_angles,
    demosaic,
    demosaic_footprint,
    measure_intensity,
    mosaic_merge,
    mosaic_split,
    random_scene,
    reconstruct_image,
    simulate_hyperspectral,
    simulate_trichromatic,
    smooth_scene,
    uniform_scene,
)
from polarcube.camera import RED, GREEN, BLUE, lctf_responses

RNG = np.random.default_rng(77)

LP0 = MeasurementConfig(retarder_angle=0.0, retardance=0.0, polarizer_angle=0.0)


class TestMeasureIntensity:
    def test_unpolarized_flat_spectrum_through_lp(self):
        grid = np.linspace(500.0, 600.0, 11)
        response = SpectralResponse.box(550.0, 200.0, grid)  # unit-area, covers grid
        spectrum = np.tile([1.0, 0, 0, 0], (11, 1))
        for angle in (0.0, 0.7, -1.2):
            cfg = MeasurementConfig(0.0, 0.0, angle)
            assert measure_intensity(grid, spectrum, cfg, response) == pytest.approx(0.5)

    def test_monochromatic_horizontal_through_aligned_lp(self):
        grid = np.array([550.0])
        response = SpectralResponse(grid, np.array([1.0]))
        spectrum = np.array([[1.0, 1.0, 0.0, 0.0]])
        assert measure_intensity(grid, spectrum, LP0, response) == pytest.approx(1.0)

    def test_qwp_plus_lp_matches_matrix_chain(self):
        # explicit chain oracle: first row of P(0) Q(30deg) dotted with
        # [1,1,0,0] is (1 + cos^2 60deg) / 2 = 0.625
        grid = np.array([550.0])
        response = SpectralResponse(grid, np.array([1.0]))
        spectrum = np.array([[1.0, 1.0, 0.0, 0.0]])
        cfg = MeasurementConfig(np.deg2rad(30.0), np.pi / 2, 0.0)
        assert measure_intensity(grid, spectrum, cfg, response) == pytest.approx(0.625, abs=1e-12)

    def test_grid_mismatch_rejected(self):
        response = SpectralResponse(np.array([500.0, 510.0]), np.array([1.0, 1.0]))
        with pytest.raises(SamplingGridError):
            measure_intensity(np.array([500.0, 520.0]), np.zeros((2, 4)), LP0, response)


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

    def test_energy_bound_with_unit_area_responses(self):
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
        assert MosaicLayout.segment_index(5, 6) == 6
        assert MosaicLayout.segment_index(0, 0) == 0
        assert MosaicLayout.segment_index(3, 3) == 15

    def test_dimension_mismatch_rejected(self):
        scene = uniform_scene(6, 8, 3)
        with pytest.raises(DimensionError):
            simulate_trichromatic(scene)


class TestMosaicLayout:
    def test_default_census(self):
        layout = MosaicLayout.default()
        counts = np.bincount(layout.colors.ravel(), minlength=3)
        assert tuple(counts) == (4, 8, 4)

    def test_green_has_eight_cells_red_blue_four(self):
        layout = MosaicLayout.default()
        assert len(layout.cells_for_color(0)) == 4
        assert len(layout.cells_for_color(1)) == 8
        assert len(layout.cells_for_color(2)) == 4

    def test_rank_deficient_layout_rejected(self):
        layout = MosaicLayout.default()
        # all retarders removed: circular component becomes unobservable
        with pytest.raises(ConfigurationError):
            MosaicLayout(
                layout.colors, layout.polarizer_angles, layout.retarder_angles,
                np.zeros((4, 4)),
            )

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
                frame[n, m] = MosaicLayout.segment_index(n, m)
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

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(gaussian_sigma=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(black_level=1.0, saturation_level=0.5)


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

    def test_shared_configs_broadcast_to_channels(self):
        config = CaptureConfig.hyperspectral(default_qwp_angles())
        assert config.configs_for(0) == config.configs_for(7)

    def test_responses_unit_area(self):
        grid = 450.0 + 10.0 * np.arange(21)
        for resp in lctf_responses(grid):
            assert resp.band_weights().sum() == pytest.approx(1.0)

    def test_gaussian_responses_within_physical_range(self):
        from polarcube import trichromatic_responses

        for resp in trichromatic_responses():
            assert np.all(resp.transmission >= 0) and np.all(resp.transmission <= 1)
            assert resp.band_weights().sum() == pytest.approx(1.0)

    def test_narrow_grid_boxes_stay_unit_area(self):
        # grid spacing below 1 nm used to break endpoint normalization
        grid = np.arange(5, dtype=float)
        for resp in lctf_responses(grid):
            assert resp.band_weights().sum() == pytest.approx(1.0)


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
        if camera == "hyperspectral":
            got = raw.frames
            expected = [scene.data[:, :, c, :] @ config.rows(c)[i] for c, i in raw.tags]
        else:  # segment k samples every 4th row and column
            got, expected = [], []
            for c in (RED, GREEN, BLUE):
                for (k, _), row in zip(raw.layout.cells_for_color(c), config.rows(c)):
                    got.append(mosaic_split(raw.frames[0])[k])
                    expected.append(mosaic_split(scene.data[:, :, c, :] @ row)[k])
        assert np.allclose(got, expected, rtol=1e-14, atol=1e-14)

        cube = reconstruct_image(raw)
        assert np.max(np.abs(cube.data - scene.data)) < 1e-10
