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
    StokesImage,
    burst_average,
    default_qwp_angles,
    median_filter,
    quality,
    random_scene,
    reconstruct_image,
    simulate_hyperspectral,
    solve_stokes,
    solve_stokes_per_pixel,
    system_matrix,
)
from polarcube.reconstruct import SystemMatrix

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

    def test_batched_and_per_pixel_paths_agree(self):
        system = system_matrix(qwp_config())
        intensities = RNG.normal(size=(5, 6, 4))
        batched, _ = solve_stokes(system, intensities)
        stacked = np.broadcast_to(system.matrix, (5, 6, 4, 4))
        per_pixel, _ = solve_stokes_per_pixel(stacked, intensities)
        assert np.max(np.abs(batched - per_pixel)) < 1e-11


class TestReconstructImage:
    def test_mild_noise_keeps_99_percent_valid(self):
        scene = random_scene(32, 32, 3, np.random.default_rng(8),
                             rho_max=0.9, wavelengths=[450.0, 550.0, 650.0])
        noise = NoiseModel(gaussian_sigma=0.002, rng_seed=9)
        raw = simulate_hyperspectral(scene, default_qwp_angles(), noise=noise)
        cube = reconstruct_image(raw)
        assert cube.valid_fraction() >= 0.99

    def test_missing_frames_rejected(self):
        scene = random_scene(4, 4, 2, RNG, wavelengths=[500.0, 600.0])
        raw = simulate_hyperspectral(scene, default_qwp_angles())
        raw.frames = raw.frames[:-1]
        raw.tags = raw.tags[:-1]
        with pytest.raises(DimensionError):
            reconstruct_image(raw)


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

    def test_empty_list_rejected(self):
        with pytest.raises(DimensionError):
            burst_average([])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            burst_average([np.zeros((4, 4)), np.zeros((4, 5))])


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
        got = median_filter(frame, 3)
        padded = np.pad(frame, 1, mode="edge")
        expected = np.empty_like(frame)
        for i in range(16):
            for j in range(16):
                expected[i, j] = np.sort(padded[i : i + 3, j : j + 3].ravel())[4]
        assert np.array_equal(got, expected)

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            median_filter(np.zeros((4, 4)), 2)


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

    def test_no_jointly_valid_pixels_rejected(self):
        data = RNG.uniform(0.1, 1.0, size=(4, 4, 1, 4))
        a = StokesImage(data, None, np.zeros((4, 4, 1), dtype=bool))
        b = StokesImage(data, None, np.ones((4, 4, 1), dtype=bool))
        with pytest.raises(EmptySelectionError):
            quality(a, b)
