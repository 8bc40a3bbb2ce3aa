import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarcube import (
    DimensionError,
    EmptySelectionError,
    PcaCodebook,
    PcaEncoding,
    StokesImage,
    bpp,
    extract_patches,
    pca_decode,
    pca_encode,
    pca_fit,
    pca_fit_image,
    pca_rate_curve,
    quality,
    random_scene,
    smooth_scene,
    truncate_codebook,
    variance_spectrum,
    write_spsi,
)

from conftest import clipped_cube

RNG = np.random.default_rng(99)


def small_cube(h=32, w=32, c=1, seed=0):
    return random_scene(h, w, c, np.random.default_rng(seed),
                        wavelengths=500.0 + 10.0 * np.arange(c))


class TestExtractPatches:
    def test_hyperspectral_grid_counts(self):
        img = StokesImage(np.zeros((512, 612, 2, 4), dtype=np.float32))
        patches = extract_patches(img, 10)
        assert patches.shape[0] == 51 * 61 == 3111

    def test_trichromatic_grid_counts(self):
        img = StokesImage(np.zeros((1900, 2100, 1, 4), dtype=np.float32))
        patches = extract_patches(img, 10)
        assert patches.shape[0] == 190 * 210

    def test_single_pixel_patches(self):
        img = small_cube(6, 5, 3)
        patches = extract_patches(img, 1)
        assert patches.shape == (30, 12)
        assert np.array_equal(patches[0], img.data[0, 0].reshape(-1))

    def test_flatten_order_row_col_channel_element(self):
        img = small_cube(4, 4, 2)
        patches = extract_patches(img, 2)
        want = img.data[:2, :2].reshape(-1)
        assert np.array_equal(patches[0], want)

    def test_oversized_patch_rejected(self):
        with pytest.raises(DimensionError):
            extract_patches(small_cube(4, 4, 1), 5)

    def test_empty_patch_rejected(self):
        with pytest.raises(DimensionError, match="patch size must be >= 1"):
            extract_patches(small_cube(4, 4, 1), 0)


class TestPcaFit:
    def test_exact_on_affine_subspace(self):
        k, d, n = 3, 12, 200
        basis, _ = np.linalg.qr(RNG.normal(size=(d, k)))
        coeffs = RNG.normal(size=(n, k))
        data = coeffs @ basis.T + RNG.normal(size=d)
        codebook = pca_fit(data, k)
        recon = (data - codebook.mean) @ codebook.basis @ codebook.basis.T + codebook.mean
        assert np.mean((recon - data) ** 2) < 1e-10

    def test_full_rank_reconstruction_is_perfect(self):
        data = RNG.normal(size=(64, 16))
        codebook = pca_fit(data, 16)
        recon = (data - codebook.mean) @ codebook.basis @ codebook.basis.T + codebook.mean
        assert np.mean((recon - data) ** 2) < 1e-12

    @pytest.mark.parametrize("shape", [(16,), (4, 4, 2)])
    def test_patch_matrix_must_be_2d(self, shape):
        with pytest.raises(DimensionError, match="patch matrix must be 2-D"):
            pca_fit(np.ones(shape), 1)

    def test_variance_proportion_on_known_covariance(self):
        d, n = 12, 10**4
        scales = np.ones(d)
        scales[0] = 2.0  # variance 4 in the first coordinate
        data = RNG.normal(size=(n, d)) * scales
        codebook = pca_fit(data, d)
        proportions = variance_spectrum(codebook)
        assert proportions[0] == pytest.approx(4.0 / (d + 3), rel=0.10)

    def test_deterministic_sign_convention(self):
        data = RNG.normal(size=(50, 8))
        cb1, cb2 = pca_fit(data, 8), pca_fit(data.copy(), 8)
        assert np.array_equal(cb1.basis, cb2.basis)
        for j in range(8):
            lead = np.argmax(np.abs(cb1.basis[:, j]))
            assert cb1.basis[lead, j] > 0

    def test_orthonormal_columns(self):
        data = RNG.normal(size=(40, 10))
        cb = pca_fit(data, 6)
        assert np.max(np.abs(cb.basis.T @ cb.basis - np.eye(6))) < 1e-9

    def test_sigma_sorted_non_increasing(self):
        cb = pca_fit(RNG.normal(size=(100, 9)), 9)
        assert np.all(np.diff(cb.sigma) <= 1e-12)

    def test_k_out_of_range_rejected(self):
        with pytest.raises(DimensionError):
            pca_fit(RNG.normal(size=(10, 5)), 6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(8, 20), (20, 8)], ids=["N<D", "N>D"])
    def test_non_finite_patches_rejected(self, shape, bad):
        data = RNG.normal(size=shape)
        data[3, 5] = bad
        with pytest.raises(DimensionError, match="non-finite"):
            pca_fit(data, 4)


def codec_patches():
    """The 144 x 8400 patch matrix of a 128^2 x 21 smooth scene, P = 10."""
    return extract_patches(smooth_scene(128, 128, 21, np.random.default_rng(1)), 10)


class TestSvdOracle:
    """Both Gram sides against the SVD of the centered matrix."""

    @pytest.mark.parametrize("n, d, k", [
        (12, 40, 5),  # C C^T
        (12, 40, 12),  # C C^T with K = N: the last direction has sigma about 0
        (16, 16, 16),  # C^T C, square, also with a null direction
        (40, 10, 6),  # C^T C
        (100, 9, 9),  # C^T C with K = D
        (144, 8400, 40),  # the codec reference
    ])
    def test_matches_the_svd_of_the_centered_matrix(self, n, d, k):
        if d == 8400:
            data = codec_patches()
        else:
            data = RNG.normal(size=(n, d)) * 0.8 ** np.arange(d) + RNG.normal(size=d)
        cb = pca_fit(data, k)
        _, sv, vt = np.linalg.svd(data - data.mean(axis=0), full_matrices=False)
        full = sv / np.sqrt(n - 1)
        want = full[:k]
        assert np.max(np.abs(cb.basis.T @ cb.basis - np.eye(k))) < 1e-12
        assert np.all(np.isfinite(cb.sigma)) and np.all(np.diff(cb.sigma) <= 0)
        assert cb.total_variance == pytest.approx(np.sum(sv**2) / (n - 1), rel=1e-12)
        # A Gram eigenvalue is off by about eps * sigma_1^2, so a small sigma
        # is accurate to about sqrt(eps) * sigma_1 only.
        sep = want >= 0.03 * want[0]
        assert np.all(np.abs(cb.sigma[sep] - want[sep]) <= 1e-12 * want[sep])
        # The span of the top j is pinned down where a 5 % gap in sigma follows it.
        j = max(j for j in range(1, k + 1)
                if sep[j - 1] and (j == full.size or full[j] <= 0.95 * full[j - 1]))
        got_proj = cb.basis[:, :j] @ cb.basis[:, :j].T
        assert np.linalg.norm(got_proj - vt[:j].T @ vt[:j]) < 1e-11


class TestEncodeDecode:
    def test_full_basis_roundtrip_is_bit_accurate(self):
        img = small_cube(16, 16, 1)
        codebook = pca_fit_image(img, 2, 16)
        decoded = pca_decode(pca_encode(img, codebook))
        assert np.max(np.abs(decoded.data - img.data)) < 1e-12

    def test_mse_non_increasing_in_basis_count(self):
        img = small_cube(20, 20, 1)
        codebook = pca_fit_image(img, 2, 16)
        mses = []
        for k in (5, 10, 16):
            decoded = pca_decode(pca_encode(img, truncate_codebook(codebook, k)))
            mses.append(np.mean((decoded.data - img.data) ** 2))
        assert mses[0] >= mses[1] >= mses[2]

    def test_rank_limited_data_reconstructed_exactly(self):
        r, d = 4, 48  # patches of 2x2 x 3 channels x 4 components
        basis, _ = np.linalg.qr(RNG.normal(size=(d, r)))
        coeffs = RNG.normal(size=(9, r))
        patch_data = coeffs @ basis.T + 0.5
        data = (
            patch_data.reshape(3, 3, 2, 2, 3, 4).transpose(0, 2, 1, 3, 4, 5).reshape(6, 6, 3, 4)
        )
        img = StokesImage(data)
        decoded = pca_decode(pca_encode(img, pca_fit_image(img, 2, r)))
        assert np.mean((decoded.data - img.data) ** 2) < 1e-10

    def test_remainder_pixels_flagged_invalid(self):
        img = small_cube(11, 13, 1)
        codebook = pca_fit_image(img, 4, 6)
        decoded = pca_decode(pca_encode(img, codebook))
        assert decoded.mask[:8, :12].all()
        assert not decoded.mask[8:, :].any()
        assert not decoded.mask[:, 12:].any()

    def test_per_element_mode(self):
        img = small_cube(12, 12, 2)
        codebook = pca_fit_image(img, 3, 10, element=0)
        assert codebook.components == 1
        enc = pca_encode(img, codebook)
        plane = pca_decode(enc)
        assert plane.data.shape == plane.mask.shape == (12, 12, 2)
        assert plane.mask.all()
        assert np.array_equal(plane.wavelengths, img.wavelengths)

    def test_coefficients_are_decorrelated(self):
        img = small_cube(40, 40, 1, seed=5)
        codebook = pca_fit_image(img, 2, 16)
        coeffs = pca_encode(img, codebook).coefficients
        cov = np.cov(coeffs, rowvar=False)
        off_diag = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off_diag)) < 1e-6 * np.trace(cov)

    def test_optimality_against_random_orthonormal_competitors(self):
        data = RNG.normal(size=(50, 8)) * np.linspace(2.0, 0.5, 8)
        k = 3
        codebook = pca_fit(data, k)
        centered = data - data.mean(axis=0)
        pca_mse = np.mean((centered - centered @ codebook.basis @ codebook.basis.T) ** 2)
        for _ in range(50):
            competitor, _ = np.linalg.qr(RNG.normal(size=(8, k)))
            mse = np.mean((centered - centered @ competitor @ competitor.T) ** 2)
            assert pca_mse <= mse + 1e-12


class TestVarianceSpectrum:
    def test_isotropic_data_near_uniform(self):
        d = 8
        cb = pca_fit(RNG.normal(size=(20000, d)), d)
        assert np.allclose(variance_spectrum(cb), 1.0 / d, atol=0.02)

    def test_rank_one_data(self):
        direction = RNG.normal(size=6)
        data = np.outer(RNG.normal(size=300), direction)
        proportions = variance_spectrum(pca_fit(data, 6))
        assert proportions[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(proportions[1:] < 1e-12)

    def test_matches_covariance_eigenvalue_oracle(self):
        data = RNG.normal(size=(500, 10)) * np.linspace(3.0, 0.3, 10)
        cb = pca_fit(data, 10)
        eigenvalues = np.sort(np.linalg.eigvalsh(np.cov(data, rowvar=False)))[::-1]
        want = eigenvalues / eigenvalues.sum()
        assert np.max(np.abs(variance_spectrum(cb) - want)) < 1e-9


class TestBpp:
    def test_raw_hyperspectral_cube(self):
        h, w, c = 512, 612, 21
        raw_bits = h * w * c * 4 * 32
        assert bpp(raw_bits, w, h) == 2688

    def test_quoted_coefficient_budget(self):
        # 2.22e6 bytes of coefficients over a 512x612 image
        assert bpp(int(2.22e6) * 8, 612, 512) == pytest.approx(56.68, abs=0.01)

    def test_zero_bits(self):
        assert bpp(0, 10, 10) == 0

    def test_bad_dims_rejected(self):
        with pytest.raises(DimensionError):
            bpp(100, 0, 10)


class TestRateCurve:
    def test_monotone_mse_and_increasing_bpp(self):
        img = small_cube(24, 24, 2, seed=11)
        codebook = pca_fit_image(img, 2, 32)
        curve = pca_rate_curve(img, codebook, ks=[1, 2, 4, 8, 16, 32])
        ks = [row[0] for row in curve.rows]
        bpps = [row[1] for row in curve.rows]
        mses = [row[3] for row in curve.rows]
        assert ks == sorted(ks)
        assert all(b1 < b2 for b1, b2 in zip(bpps, bpps[1:]))
        assert all(m1 >= m2 for m1, m2 in zip(mses, mses[1:]))
        assert curve.columns == ["k", "bpp_coefficients", "bpp_with_codebook", "mse", "psnr"]


def covered_mse(img, codebook, k):
    """Decode MSE over the covered pixels, by the per-K encode/decode path."""
    enc = pca_encode(img, truncate_codebook(codebook, k))
    decoded = pca_decode(enc)
    rows, cols = enc.grid_h * enc.patch_size, enc.grid_w * enc.patch_size
    if codebook.element is None:
        got, want = decoded.data[:rows, :cols], img.data[:rows, :cols]
    else:
        got, want = decoded.data[:rows, :cols], img.data[:rows, :cols, :, codebook.element]
    return enc, float(np.mean((got - want) ** 2)), float(np.mean(want**2))


def decode_quality(img, codebook, k):
    """``quality`` of the per-K decode as (mse, psnr), of the coded element alone if one is."""
    decoded = pca_decode(pca_encode(img, truncate_codebook(codebook, k)))
    if codebook.element is None:
        fit = quality(img, decoded)
        return fit.mse, fit.psnr
    data = img.data.copy()
    data[..., codebook.element] = decoded.data  # the other elements carry no error
    fit = quality(img, StokesImage(data, mask=decoded.mask))
    return 4 * fit.mse, fit.element_psnr[codebook.element]


class TestRateIsTheBitsWriteSpsiStores:
    # a float32 codebook codes a float64 cube into float64 coefficients
    @pytest.mark.parametrize("cube_dtype, codebook_dtype, bits", [
        (np.float32, np.float32, 32), (np.float64, np.float32, 64), (np.float64, np.float64, 64),
    ])
    def test_rows_count_every_stored_value_at_the_stored_width(self, tmp_path, cube_dtype,
                                                              codebook_dtype, bits):
        img = small_cube(12, 10, 2, seed=8)
        img = StokesImage(img.data.astype(cube_dtype), img.wavelengths)
        cb = pca_fit_image(img, 2, 8)
        cb = PcaCodebook(cb.mean.astype(codebook_dtype), cb.basis.astype(codebook_dtype),
                         cb.sigma.astype(codebook_dtype), cb.total_variance, 2, 2)
        curve = pca_rate_curve(img, cb, [3, 8])
        for k, bpp_coeffs, bpp_all, _, _ in curve.rows:
            enc = pca_encode(img, truncate_codebook(cb, k))
            write_spsi(tmp_path / "enc.spsi", enc)
            assert (tmp_path / "enc.spsi").read_bytes()[20] == (bits == 64)  # the dtype byte
            n = 30 * k  # a 6 x 5 patch grid
            assert enc.coefficients.size == n
            assert bpp_coeffs == bits * n / (10 * 12) == bpp(enc.stored_bits(False), 10, 12)
            values = n + cb.dimension + cb.dimension * k + k  # with mean, basis and sigma
            assert bpp_all == bits * values / (10 * 12) == bpp(enc.stored_bits(True), 10, 12)


class TestRateCurveMatchesPerKDecode:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), h=st.integers(1, 9), w=st.integers(1, 9), c=st.integers(1, 3),
           element=st.sampled_from([None, 0, 3]), seed=st.integers(0, 2**32 - 1))
    def test_rows_equal_the_per_k_reference(self, data, h, w, c, element, seed):
        p = data.draw(st.integers(1, min(h, w, 3)), label="patch size")
        img = small_cube(h, w, c, seed)
        n = (h // p) * (w // p)
        d = p * p * c * (4 if element is None else 1)
        codebook = pca_fit_image(img, p, data.draw(st.integers(1, min(n, d)), label="bases"),
                                 element=element)
        ks = data.draw(st.lists(st.integers(1, codebook.n_bases), min_size=1, max_size=4),
                       label="ks")
        curve = pca_rate_curve(img, codebook, ks)
        assert [row[0] for row in curve.rows] == sorted(ks)
        for k, bpp_coeffs, bpp_all, mse, _ in curve.rows:
            enc, want, power = covered_mse(img, codebook, k)
            assert bpp_coeffs == bpp(enc.stored_bits(False), w, h)
            assert bpp_all == bpp(enc.stored_bits(True), w, h)
            # relative 1e-12; the floor only matters where the error is rounding noise
            assert abs(mse - want) <= 1e-12 * want + 1e-24 * power

    @pytest.mark.parametrize("element", [None, 0, 3])
    def test_rows_are_the_quality_of_each_decode_on_a_clipped_capture(self, element):
        cube = clipped_cube()
        assert cube.mask[:24, :20].mean() < 0.9  # masked entries that patches cover
        codebook = pca_fit_image(cube, 4, 12, element=element)
        curve = pca_rate_curve(cube, codebook, [2, 5, 12])
        for k, _, _, mse, psnr in curve.rows:
            want_mse, want_psnr = decode_quality(cube, codebook, k)
            assert mse == pytest.approx(want_mse, rel=1e-9, abs=0)
            assert psnr == pytest.approx(want_psnr, rel=1e-9, abs=0)
            _, blind, _ = covered_mse(cube, codebook, k)  # every covered entry, masked or not
            assert abs(mse - blind) > 1e-6 * mse  # far above the 1e-9 agreement

    def test_no_valid_covered_entry_raises_as_quality_does(self):
        img = small_cube(5, 5, 2)
        codebook = pca_fit_image(img, 2, 4)
        img.mask[:4, :4] = False  # every covered entry; row 4 and column 4 stay valid
        with pytest.raises(EmptySelectionError):
            pca_rate_curve(img, codebook, [2, 4])
        with pytest.raises(EmptySelectionError):
            quality(img, pca_decode(pca_encode(img, codebook)))

    @pytest.mark.parametrize("ks", [[0], [5, 0], [17], [1, 17]])
    def test_k_outside_range_rejected(self, ks):
        img = small_cube(8, 8, 1)
        codebook = pca_fit_image(img, 2, 16)
        with pytest.raises(DimensionError):
            pca_rate_curve(img, codebook, ks)

    @pytest.mark.parametrize("element", [0, 1, 2, 3])
    def test_single_element_codebook(self, element):
        img = small_cube(13, 11, 2, seed=4)
        codebook = pca_fit_image(img, 3, 12, element=element)
        curve = pca_rate_curve(img, codebook, [2, 6, 12])
        for k, row in zip([2, 6, 12], curve.rows):
            _, want, _ = covered_mse(img, codebook, k)
            assert row[0] == k
            assert row[3] == pytest.approx(want, rel=1e-12)


class TestPatchGeometry:
    def test_codebook_owns_the_geometry(self):
        img = small_cube(11, 13, 2)
        joint = pca_fit_image(img, 3, 5)
        single = pca_fit_image(img, 3, 5, element=2)
        assert (joint.components, single.components) == (4, 1)
        enc = pca_encode(img, single)
        assert (enc.patch_size, enc.channels, enc.element) == (3, 2, 2)
        assert (enc.grid_h, enc.grid_w) == (3, 4)
        assert enc.coefficients.shape == (12, 5)

    @pytest.mark.parametrize("geometry", [
        {"patch_size": 3, "channels": 1},  # 9 x 1 x 4 != 16
        {"patch_size": 2, "channels": 2},
        {"patch_size": 2, "channels": None},
        {"patch_size": 2, "channels": 1, "element": 0},  # 4 x 1 x 1 != 16
        {"patch_size": 2, "channels": 4, "element": 7},
        {"patch_size": None, "channels": 1},
        {"patch_size": None, "element": 0},
    ])
    def test_contradictory_codebook_rejected(self, geometry):
        cb = pca_fit(RNG.normal(size=(20, 16)), 3)
        with pytest.raises(DimensionError):
            PcaCodebook(cb.mean, cb.basis, cb.sigma, cb.total_variance, **geometry)

    def test_coefficients_must_fill_the_grid(self):
        img = small_cube(8, 6, 1)
        enc = pca_encode(img, pca_fit_image(img, 2, 4))
        for coefficients in (enc.coefficients[:-1], enc.coefficients[:, :3]):
            with pytest.raises(DimensionError):
                PcaEncoding(enc.codebook, coefficients, 8, 6)
        with pytest.raises(DimensionError):
            PcaEncoding(enc.codebook, enc.coefficients, 10, 6)

    def test_encoding_needs_geometry(self):
        img = small_cube(8, 8, 1)
        bare = pca_fit(extract_patches(img, 2), 4)
        with pytest.raises(DimensionError):
            pca_encode(img, bare)
        with pytest.raises(DimensionError):
            PcaEncoding(bare, np.zeros((16, 4)), 8, 8)

    def test_channel_count_must_match(self):
        codebook = pca_fit_image(small_cube(8, 8, 2), 2, 4)
        with pytest.raises(DimensionError):
            pca_encode(small_cube(8, 8, 1), codebook)
