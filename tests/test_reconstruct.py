import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polarcube import (
    CaptureConfig,
    ConfigurationError,
    DimensionError,
    EmptySelectionError,
    MeasurementConfig,
    MosaicLayout,
    NoiseModel,
    RawCapture,
    StokesImage,
    SystemMatrix,
    burst_average,
    default_qwp_angles,
    demosaic,
    denoise,
    median_filter,
    mosaic_merge,
    mosaic_split,
    quality,
    random_scene,
    reconstruct_image,
    simulate_hyperspectral,
    simulate_trichromatic,
    smooth_scene,
    solve_stokes,
    system_matrix,
)
from polarcube import _pool
from polarcube.reconstruct import _bad_pixel_mask

from conftest import assert_bit_exact, flagged_entries

RNG = np.random.default_rng(2024)


def lp_only_config(angles_deg):
    return CaptureConfig(
        [MeasurementConfig(0.0, 0.0, np.deg2rad(a)) for a in angles_deg]
    )


def qwp_config():
    return CaptureConfig.hyperspectral(default_qwp_angles())


def grid_refine_lstsq(a, b, half_width=4.0, iterations=80):
    """Independent least-squares oracle: shrinking 9^4 grid search."""
    offsets = np.linspace(-1.0, 1.0, 9)
    mesh = np.stack(np.meshgrid(offsets, offsets, offsets, offsets, indexing="ij"),
                    axis=-1).reshape(-1, 4)
    center = np.zeros(4)
    half = half_width
    for _ in range(iterations):
        points = center[None, :] + half * mesh
        residuals = points @ a.T - b
        center = points[np.argmin(np.sum(residuals * residuals, axis=1))]
        half *= 0.5
    return center


class TestSystemMatrix:
    def test_lp_only_set_is_rank_three_and_rejected(self):
        with pytest.raises(ConfigurationError, match="rank 3"):
            system_matrix(lp_only_config([0, 45, 90, 135]))

    @pytest.mark.parametrize("shape", [(4, 3), (4,), (2, 4, 4)])
    def test_rows_that_are_not_m_by_4_rejected(self, shape):
        with pytest.raises(DimensionError, match=r"system matrix must be \(m, 4\)"):
            SystemMatrix.from_rows(np.ones(shape))

    def test_default_qwp_set_is_rank_four(self):
        system = system_matrix(qwp_config())
        assert system.rank == 4
        assert system.matrix.shape == (4, 4)

    def test_condition_number_matches_gram_eigenvalue_oracle(self):
        system = system_matrix(qwp_config())
        eigenvalues = np.linalg.eigvalsh(system.matrix.T @ system.matrix)
        oracle = np.sqrt(eigenvalues[-1] / eigenvalues[0])
        assert system.condition_number == pytest.approx(oracle, rel=1e-9)

    def test_too_few_configurations_rejected(self):
        with pytest.raises(ConfigurationError):
            system_matrix(CaptureConfig([MeasurementConfig(0.0, np.pi / 2, 0.0)] * 3))

    def test_mosaic_channels_have_expected_row_counts(self):
        config = MosaicLayout.default().capture_config()
        assert system_matrix(config, 0).m == 4
        assert system_matrix(config, 1).m == 8
        assert system_matrix(config, 2).m == 4

    def test_both_cameras_reject_a_calibration_singular_in_one_channel(self):
        calibration = np.stack([np.eye(4)] * 3)
        calibration[1, 0] = [0.0, 0.0, 0.0, 1.0]  # channel 1 records no intensity
        scene = smooth_scene(8, 8, 3, np.random.default_rng(12))
        with pytest.raises(ConfigurationError, match="channel 1"):
            simulate_trichromatic(scene, calibration=calibration)
        with pytest.raises(ConfigurationError, match="channel 1"):
            simulate_hyperspectral(scene, default_qwp_angles(), calibration=calibration)

    @pytest.mark.parametrize("shape", [(), (4,), (3, 4), (4, 3), (2, 4, 3), (2, 2, 4, 4)])
    def test_calibration_other_than_4x4_or_n_4x4_is_rejected(self, shape):
        with pytest.raises(ConfigurationError, match="calibration must be"):
            CaptureConfig.hyperspectral(default_qwp_angles(), calibration=np.ones(shape))
        CaptureConfig.hyperspectral(default_qwp_angles(), calibration=np.eye(4))
        CaptureConfig.hyperspectral(default_qwp_angles(), calibration=np.stack([np.eye(4)] * 2))

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_simulation_needs_one_calibration_matrix_per_channel(self, n):
        calibration = np.stack([np.eye(4)] * n)
        scene = smooth_scene(8, 8, 3, np.random.default_rng(12))
        with pytest.raises(ConfigurationError, match=f"{n} matrices for 3 channels"):
            simulate_trichromatic(scene, calibration=calibration)
        with pytest.raises(ConfigurationError, match=f"{n} matrices for 3 channels"):
            simulate_hyperspectral(scene, default_qwp_angles(), calibration=calibration)


unit_floats = st.floats(-1.0, 1.0, width=32, allow_subnormal=False)  # no underflow in norms


@st.composite
def full_rank_rows(draw):
    """Well-conditioned (m, 4) systems with 4 <= m <= 12."""
    m = draw(st.integers(4, 12))
    rows = draw(arrays(float, (m, 4), elements=unit_floats))
    assume(np.linalg.cond(rows) < 100.0)
    return rows


class TestSolveStokes:
    @given(rows=st.one_of(st.just(system_matrix(qwp_config()).matrix), full_rank_rows()),
           s_true=arrays(float, 4, elements=st.floats(-3.0, 3.0)))
    def test_consistent_system_recovered_exactly(self, rows, s_true):
        system = SystemMatrix.from_rows(rows)
        assert system.rank == 4
        assert np.allclose(system.pinv @ system.matrix, np.eye(4), rtol=0, atol=1e-12)
        intensities = system.matrix @ s_true
        s_hat, residual = solve_stokes(system, intensities)
        assert np.max(np.abs(s_hat - s_true)) < 1e-10 * max(1.0, np.abs(s_true).max())
        assert residual < 1e-12

    def test_symmetric_perturbation_on_duplicated_rows_averages_out(self):
        base = system_matrix(qwp_config()).matrix
        doubled = np.vstack([base, base])
        system = SystemMatrix.from_rows(doubled)
        s_true = np.array([1.0, 0.3, -0.2, 0.1])
        clean = doubled @ s_true
        eps = 1e-3
        perturbed = clean + np.concatenate([np.full(4, eps), np.full(4, -eps)])
        s_hat, _ = solve_stokes(system, perturbed)
        assert np.max(np.abs(s_hat - s_true)) < 1e-12

    def test_matches_grid_refinement_oracle_on_random_6x4(self):
        rows = RNG.normal(size=(6, 4))
        system = SystemMatrix.from_rows(rows)
        s_true = RNG.uniform(-1, 1, size=4)
        intensities = rows @ s_true + 0.01 * RNG.normal(size=6)
        s_hat, _ = solve_stokes(system, intensities)
        oracle = grid_refine_lstsq(rows, intensities)
        assert np.max(np.abs(s_hat - oracle)) < 1e-6

    @given(rows=full_rank_rows(), data=st.data())
    def test_residual_orthogonality(self, rows, data):
        system = SystemMatrix.from_rows(rows)
        intensities = data.draw(arrays(float, system.m, elements=unit_floats))
        s_hat, _ = solve_stokes(system, intensities)
        grad = rows.T @ (rows @ s_hat - intensities)
        assert np.max(np.abs(grad)) <= 1e-8 * np.linalg.norm(intensities)

    def test_rank_deficient_system_rejected(self):
        rows = np.random.default_rng(8).normal(size=(5, 4))
        rows[:, 3] = 0.0  # no circular analysis: s3 is unobserved
        system = SystemMatrix.from_rows(rows)
        assert system.rank == 3
        with pytest.raises(ConfigurationError, match="rank-deficient"):
            solve_stokes(system, np.ones(4))

    def test_intensity_count_must_match_the_system(self):
        with pytest.raises(DimensionError, match="expected 4 intensities per pixel, got 5"):
            solve_stokes(system_matrix(qwp_config()), np.ones((3, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_intensities_rejected(self, bad):
        intensities = np.ones((3, 4))
        intensities[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            solve_stokes(system_matrix(qwp_config()), intensities)


class TestReconstructImage:
    def test_mild_noise_keeps_99_percent_valid(self):
        scene = random_scene(32, 32, 3, np.random.default_rng(8),
                             rho_max=0.9, wavelengths=[450.0, 550.0, 650.0])
        noise = NoiseModel(gaussian_sigma=0.002, rng_seed=9)
        raw = simulate_hyperspectral(scene, default_qwp_angles(), noise=noise)
        cube = reconstruct_image(raw)
        assert cube.valid_fraction() >= 0.99

    def test_mosaic_reconstructs_as_its_demosaiced_sequential_capture(self):
        # plane K of the demosaiced mosaic is the frame of cell K's (color, config index)
        scene = smooth_scene(16, 12, 3, np.random.default_rng(10))
        mosaic = simulate_trichromatic(scene)
        layout = mosaic.layout
        tags = [None] * 16
        for color, (segments, _) in enumerate(mosaic.systems):
            for i, k in enumerate(segments):
                tags[k] = (color, i)
        sequential = RawCapture(demosaic(mosaic_split(mosaic.frames[0])),
                                layout.capture_config(), tags=tags)
        want, got = reconstruct_image(mosaic), reconstruct_image(sequential)
        assert np.array_equal(got.data, want.data)
        assert np.array_equal(got.mask, want.mask)
        assert 0 < want.mask.sum()

    def test_cube_channels_are_solve_stokes_of_their_frames(self, monkeypatch):
        monkeypatch.setattr(_pool, "BLOCK_VALUES", 1 << 8)  # 6 rows a block: 4 blocks
        scene = random_scene(20, 10, 3, np.random.default_rng(13),
                             wavelengths=[450.0, 550.0, 650.0])
        noise = NoiseModel(gaussian_sigma=0.01, saturation_level=10.0, black_level=-10.0,
                           rng_seed=14)
        raw = simulate_hyperspectral(scene, default_qwp_angles(), noise=noise)
        cube = reconstruct_image(raw)
        for c in range(3):
            frames = raw.frames[[raw.tags.index((c, i)) for i in range(4)]]
            stokes, _ = solve_stokes(system_matrix(raw.config, c), np.moveaxis(frames, 0, -1))
            assert np.array_equal(cube.data[..., c, :], stokes)

    def test_missing_frames_rejected(self):
        scene = random_scene(4, 4, 2, RNG, wavelengths=[500.0, 600.0])
        raw = simulate_hyperspectral(scene, default_qwp_angles())
        with pytest.raises(DimensionError, match=r"missing \[\(1, 3\)\]"):
            RawCapture(raw.frames[:-1], raw.config, tags=raw.tags[:-1])

    def test_samples_clipped_at_a_negative_black_level_are_masked(self):
        # twice a negative black level lies below it: a threshold there flags no clipped sample
        scene = smooth_scene(16, 16, 3, np.random.default_rng(5))
        noise = NoiseModel(gaussian_sigma=0.01, black_level=-0.005, rng_seed=6)
        raw = simulate_trichromatic(scene, noise=noise, exposure=0.05)
        assert (raw.frames == -0.005).any()
        assert not (reconstruct_image(raw).mask & flagged_entries(raw)).any()


class TestBurstAverage:
    def test_identical_frames_average_to_themselves(self):
        frame = RNG.normal(size=(8, 8))
        assert np.allclose(burst_average([frame] * 7), frame, atol=1e-15)

    def test_order_invariance_within_rounding(self):
        frames = [RNG.normal(size=(16, 16)) for _ in range(10)]
        forward = burst_average(frames)
        backward = burst_average(frames[::-1])
        assert np.max(np.abs(forward - backward)) <= 10 * np.spacing(np.abs(forward)).max()

    def test_noise_suppression_monotone_in_frame_count(self):
        scene = random_scene(16, 16, 2, np.random.default_rng(3),
                             wavelengths=[500.0, 600.0])
        clean = simulate_hyperspectral(scene, default_qwp_angles())
        reference = reconstruct_image(clean)
        deltas = []
        for trial in range(5):
            psnrs = []
            for n in (1, 4, 16):
                stacks = []
                for shot in range(n):
                    noise = NoiseModel(gaussian_sigma=0.05, rng_seed=1000 * trial + shot,
                                       saturation_level=5.0, black_level=-5.0)
                    noisy = simulate_hyperspectral(scene, default_qwp_angles(), noise=noise)
                    stacks.append(noisy.frames)
                averaged = clean
                averaged = type(clean)(burst_average(stacks), clean.config, tags=clean.tags,
                                       wavelengths=clean.wavelengths,
                                       saturation_level=5.0, black_level=-5.0)
                cube = reconstruct_image(averaged)
                psnrs.append(quality(reference, cube).psnr)
            deltas.append(psnrs)
        med = np.median(np.array(deltas), axis=0)
        assert med[0] <= med[1] <= med[2]

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("dtypes", [(np.float16,), (np.float32,), (np.float64,), (np.int16,),
                                        (np.int64,), (np.float32, np.float64)])
    def test_bit_identical_to_the_mean_of_the_stack(self, dtypes, n):
        rng = np.random.default_rng(n)
        frames = [(1e3 * rng.normal(size=(9, 7))).astype(dtypes[i % len(dtypes)])
                  for i in range(n)]
        got, want = burst_average(frames), np.mean(np.stack(frames), axis=0)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_holds_one_capture_beside_its_inputs(self):
        frames = [np.full((84, 256, 64), float(i)) for i in range(3)]
        tracemalloc.start()
        try:
            averaged = burst_average(frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(averaged == 1.0)
        assert peak < 2 * frames[0].nbytes

    def test_empty_list_rejected(self):
        with pytest.raises(DimensionError):
            burst_average([])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            burst_average([np.zeros((4, 4)), np.zeros((4, 5))])


def sort_median_oracle(frame, k):
    """Middle element of each sorted, edge-padded k x k window."""
    padded = np.pad(frame, k // 2, mode="edge")
    expected = np.empty_like(frame)
    for i, j in np.ndindex(frame.shape):
        expected[i, j] = np.sort(padded[i : i + k, j : j + k].ravel())[k * k // 2]
    return expected


@st.composite
def median_cases(draw):
    """Frames from 1x1 to 12x12 (so some are smaller than the window), odd k <= 7."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = draw(st.tuples(st.integers(1, 12), st.integers(1, 12)))
    # ``+ 0.0`` folds -0.0 into 0.0, whose tie order sort and partition may
    # break differently; every other value is compared bit for bit.
    elements = st.floats(-1e3, 1e3, width=32).map(lambda x: x + 0.0)
    frame = draw(arrays(dtype, shape, elements=elements))
    k = draw(st.sampled_from([1, 3, 5, 7]))
    return frame, k


class TestMedianFilter:
    def test_window_one_is_identity(self):
        frame = RNG.normal(size=(9, 9))
        assert np.array_equal(median_filter(frame, 1), frame)

    def test_impulse_removed(self):
        frame = np.full((9, 9), 0.5)
        frame[4, 4] = 100.0
        assert np.all(median_filter(frame, 3) == 0.5)

    def test_matches_sort_oracle_bit_exactly(self):
        frame = RNG.normal(size=(16, 16))
        assert np.array_equal(median_filter(frame, 3), sort_median_oracle(frame, 3))

    @given(case=median_cases())
    def test_matches_sort_oracle_on_any_frame(self, case):
        frame, k = case
        got = median_filter(frame, k)
        assert got.dtype == frame.dtype
        assert got.shape == frame.shape
        assert got.tobytes() == sort_median_oracle(frame, k).tobytes()
        assert got.base is None  # no view that keeps the window copies alive

    @pytest.mark.parametrize("block_values", [1, 40, 9 * 11 * 3, 9 * 11 * 13])
    @pytest.mark.parametrize("k", [3, 5])
    def test_blocks_of_rows_match_oracle(self, monkeypatch, block_values, k):
        # Blocks of one row, of a few rows with a ragged last block, and whole.
        monkeypatch.setattr(_pool, "BLOCK_VALUES", block_values)
        frame = RNG.normal(size=(13, 11)).astype(np.float32)
        got = median_filter(frame, k)
        assert got.tobytes() == sort_median_oracle(frame, k).tobytes()

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            median_filter(np.zeros((4, 4)), 2)

    @pytest.mark.parametrize("shape", [(5,), (2, 4, 4)])
    def test_non_2d_input_rejected(self, shape):
        with pytest.raises(DimensionError, match="2-D"):
            median_filter(np.zeros(shape), 3)


def reference_denoise(raws, median):
    """``denoise``'s frames with the filtered planes collected in a list and stacked."""
    frames = burst_average([raw.frames for raw in raws])
    mosaic = raws[0].layout is not None
    planes = [median_filter(p, median) for p in (mosaic_split(frames[0]) if mosaic else frames)]
    frames = mosaic_merge(planes)[None] if mosaic else np.stack(planes)
    for raw in raws:
        np.copyto(frames, raw.frames, where=_bad_pixel_mask(raw.frames, raw))
    return frames


class TestDenoise:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shots", [1, 2])
    @pytest.mark.parametrize("median", [3, 5])
    @pytest.mark.parametrize("camera", ["sequential", "mosaic"])
    def test_bit_identical_to_the_list_then_stack_reference(self, monkeypatch, camera, median,
                                                            shots, workers):
        monkeypatch.setattr(_pool, "WORKERS", workers)
        monkeypatch.setattr(_pool, "BLOCK_VALUES", 1 << 8)  # a few rows a block
        scene = smooth_scene(24, 20, 3, np.random.default_rng(9))
        raws = []
        for shot in range(shots):  # clipped at 0.45, so inputs flag some samples
            noise = NoiseModel(gaussian_sigma=0.05, saturation_level=0.45, rng_seed=30 + shot)
            raws.append(simulate_hyperspectral(scene, default_qwp_angles(), noise=noise)
                        if camera == "sequential" else simulate_trichromatic(scene, noise=noise))
        assert any(_bad_pixel_mask(raw.frames, raw).any() for raw in raws)
        inputs = [raw.frames.copy() for raw in raws]
        got = denoise(raws, median=median).frames
        assert all(np.array_equal(raw.frames, f) for raw, f in zip(raws, inputs))  # untouched
        want = reference_denoise(raws, median)
        assert (got.dtype, got.shape) == (np.float64, raws[0].frames.shape)
        assert_bit_exact(got, want)

    def test_one_capture_is_its_own_mean(self):
        raw = simulate_trichromatic(smooth_scene(8, 8, 3, np.random.default_rng(7)),
                                    noise=NoiseModel(gaussian_sigma=0.05, rng_seed=8))
        assert denoise([raw]).frames.tobytes() == raw.frames.tobytes()

    def test_capture_of_another_setup_rejected(self):
        scene = smooth_scene(8, 8, 2, np.random.default_rng(7))
        raw = simulate_hyperspectral(scene, default_qwp_angles())
        larger = smooth_scene(16, 16, 2, np.random.default_rng(7))
        for other in (simulate_hyperspectral(scene, default_qwp_angles(), exposure=2.0),
                      simulate_hyperspectral(larger, default_qwp_angles())):  # frame shape
            with pytest.raises(ConfigurationError, match="capture 2 differs from capture 0"):
                denoise([raw, raw, other])

    def test_mosaic_median_beats_the_raw_capture(self):
        # a window over the whole mosaic mixes analyzers and colours: 15.4 dB against 29.7
        scene = smooth_scene(128, 128, 3, np.random.default_rng(0))
        noise = NoiseModel(gaussian_sigma=0.02, saturation_level=np.inf, black_level=-np.inf)
        raw = simulate_trichromatic(scene, noise=noise)
        reference = StokesImage(scene.data, scene.wavelengths)
        before = quality(reference, reconstruct_image(raw)).psnr
        after = quality(reference, reconstruct_image(denoise([raw], median=3))).psnr
        assert after > before + 1.0


class TestQuality:
    def make_cube(self, data):
        return StokesImage(data)

    def test_identical_images_report_infinite_psnr(self):
        data = RNG.uniform(0.1, 1.0, size=(6, 6, 2, 4))
        report = quality(self.make_cube(data), self.make_cube(data.copy()))
        assert report.mse == 0.0
        assert np.isinf(report.psnr)

    def test_constant_offset_closed_form(self):
        data = np.zeros((8, 8, 1, 4))
        data[..., 0] = 1.0
        shifted = data.copy()
        shifted[..., 0] += 0.1
        report = quality(self.make_cube(data), self.make_cube(shifted))
        # only s0 differs: mse = 0.1^2 / 4 over elements; restrict to s0
        assert report.element_psnr[0] == pytest.approx(20.0, abs=1e-9)
        assert report.mse == pytest.approx(0.01 / 4)

    def test_per_element_psnr_matches_recomputation(self):
        ref = RNG.uniform(0.1, 1.0, size=(5, 7, 3, 4))
        test = ref + RNG.normal(scale=0.01, size=ref.shape)
        mask = RNG.uniform(size=(5, 7, 3)) > 0.2
        a = StokesImage(ref, None, mask)
        b = StokesImage(test, None, np.ones_like(mask))
        report = quality(a, b)
        joint = mask
        peak = ref[joint][:, 0].max()
        for e in range(4):
            mse_e = np.mean((test[..., e][joint] - ref[..., e][joint]) ** 2)
            assert report.element_psnr[e] == pytest.approx(10 * np.log10(peak**2 / mse_e))

    def test_channel_psnr_matches_recomputation_and_empty_channel_is_nan(self):
        rng = np.random.default_rng(12)
        ref = rng.uniform(0.1, 1.0, size=(5, 7, 3, 4))
        test = ref + rng.normal(scale=0.01, size=ref.shape)
        mask = rng.uniform(size=(5, 7, 3)) > 0.2
        mask[:, :, 1] = False
        ref[~mask] = np.nan  # values outside the joint mask do not count
        report = quality(StokesImage(ref, None, mask), StokesImage(test))
        peak = ref[mask][:, 0].max()
        assert report.peak == peak
        assert report.mse == pytest.approx(np.mean((test[mask] - ref[mask]) ** 2), rel=1e-12)
        for c in (0, 2):
            sel = mask[:, :, c]
            mse_c = np.mean((test[:, :, c][sel] - ref[:, :, c][sel]) ** 2)
            assert report.channel_psnr[c] == pytest.approx(10 * np.log10(peak**2 / mse_c))
        assert np.isnan(report.channel_psnr[1])

    def test_no_jointly_valid_pixels_rejected(self):
        data = RNG.uniform(0.1, 1.0, size=(4, 4, 1, 4))
        a = StokesImage(data, None, np.zeros((4, 4, 1), dtype=bool))
        b = StokesImage(data, None, np.ones((4, 4, 1), dtype=bool))
        with pytest.raises(EmptySelectionError):
            quality(a, b)

    def test_mismatched_shapes_rejected(self):
        data = np.ones((4, 4, 2, 4))
        with pytest.raises(DimensionError, match="same shape"):
            quality(self.make_cube(data), self.make_cube(data[:, :3]))
