import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polarcube import (
    DimensionError,
    EmptySelectionError,
    LabelFilter,
    LabelSet,
    NormalMapStack,
    StokesImage,
    aolp_gradient,
    decompose,
    docp_distribution,
    feature_gradient_histograms,
    feature_plane,
    features,
    gradient_field,
    normal_spectral_stddev,
    normalize,
    poincare_density,
    pol_unpol_histograms,
    random_scene,
    smooth_scene,
    stokes_histograms,
    uniform_scene,
)
from polarcube.analysis import _STATS, FEATURES, Histogram, _walk, wrap_aolp_gradient

from conftest import pool_settings

RNG = np.random.default_rng(55)


def constant_image(stokes, h=8, w=8, c=2):
    return uniform_scene(h, w, c, stokes=stokes)


class TestStokesHistograms:
    def test_constant_unpolarized_occupies_single_bin_at_zero(self):
        img = constant_image((1.0, 0.0, 0.0, 0.0))
        for element in ("s1", "s2", "s3"):
            hist = stokes_histograms([img], element, bins=201)
            occupied = np.nonzero(hist.counts)[0]
            assert occupied.size == 1
            center = hist.centers[occupied[0]]
            assert abs(center) < np.diff(hist.edges)[0]

    def test_symmetric_distribution_has_small_skewness(self):
        img = random_scene(128, 128, 3, np.random.default_rng(4))
        hist = stokes_histograms([img], "s1", bins=201)
        x = hist.centers
        p = hist.counts / hist.total
        mu = np.sum(p * x)
        sigma = np.sqrt(np.sum(p * (x - mu) ** 2))
        skew = np.sum(p * (x - mu) ** 3) / sigma**3
        assert abs(skew) < 0.05

    def test_masked_pixels_excluded_exactly(self):
        img = random_scene(16, 16, 2, np.random.default_rng(1))
        img.mask[:, :5, :] = False
        hist = stokes_histograms([img], "s0")
        assert hist.total == int(np.count_nonzero(img.mask))

    def test_empty_selection_rejected(self):
        img = constant_image((1.0, 0, 0, 0))
        img.mask[:] = False
        with pytest.raises(EmptySelectionError):
            stokes_histograms([img], "s1")

    def test_normalized_elements_range(self):
        img = random_scene(32, 32, 2, np.random.default_rng(2))
        hist = stokes_histograms([img], "s1n")
        assert hist.edges[0] == -1.0 and hist.edges[-1] == 1.0


class TestLabelFiltering:
    def make_labeled(self):
        images = [constant_image((1.0, 0.1 * i, 0, 0)) for i in range(1, 4)]
        labels = [
            LabelSet("indoor", "white", "2023-06-01T10:00:00", "object"),
            LabelSet("outdoor", "sunlight", "2023-06-02T11:00:00", "scene"),
            LabelSet("outdoor", "cloudy", "2023-06-03T12:00:00", "scene"),
        ]
        return images, labels

    def test_union_of_environments_equals_no_filter(self):
        images, labels = self.make_labeled()
        both = LabelFilter(environments=frozenset({"indoor", "outdoor"}))
        h_all = stokes_histograms(images, "s1", labels=labels)
        h_both = stokes_histograms(images, "s1", labels=labels, label_filter=both)
        assert np.array_equal(h_all.counts, h_both.counts)

    def test_filter_restricts_exactly(self):
        images, labels = self.make_labeled()
        indoor = LabelFilter(environments=frozenset({"indoor"}))
        hist = stokes_histograms(images, "s1", labels=labels, label_filter=indoor)
        assert hist.total == images[0].mask.sum()

    def test_unmatched_filter_rejected(self):
        images, labels = self.make_labeled()
        empty = LabelFilter(illuminations=frozenset({"incandescent"}))
        with pytest.raises(EmptySelectionError):
            stokes_histograms(images, "s1", labels=labels, label_filter=empty)


class TestGradientField:
    def test_constant_image_zero_gradients(self):
        gx, gy = gradient_field(np.full((6, 7), 3.3))
        assert np.all(gx == 0) and np.all(gy == 0)

    def test_horizontal_ramp(self):
        a = 0.37
        plane = a * np.arange(10)[None, :] * np.ones((5, 1))
        gx, gy = gradient_field(plane)
        assert np.allclose(gx, a)
        assert np.allclose(gy, 0.0)

    def test_matches_neighbor_difference_oracle_bit_exactly(self):
        plane = RNG.normal(size=(9, 11))
        gx, gy = gradient_field(plane)
        for i in range(9):
            for j in range(10):
                assert gx[i, j] == plane[i, j + 1] - plane[i, j]
        for i in range(8):
            for j in range(11):
                assert gy[i, j] == plane[i + 1, j] - plane[i, j]


class TestAolpWrapping:
    def test_wraparound_pair(self):
        plane = np.array([[-np.pi / 2 + 0.01, np.pi / 2 - 0.01],
                          [-np.pi / 2 + 0.01, np.pi / 2 - 0.01]])
        gx, _ = aolp_gradient(plane)
        assert gx[0, 0] == pytest.approx(-0.02, abs=1e-12)

    def test_small_difference_unchanged(self):
        plane = np.array([[0.0, 0.3], [0.0, 0.3]])
        gx, _ = aolp_gradient(plane)
        assert gx[0, 0] == pytest.approx(0.3, abs=1e-15)

    def test_outputs_in_range(self):
        plane = RNG.uniform(-np.pi / 2 + 1e-6, np.pi / 2, size=(50, 50))
        gx, gy = aolp_gradient(plane)
        assert np.all(np.abs(gx) <= np.pi / 2)
        assert np.all(np.abs(gy) <= np.pi / 2)

    def test_odd_under_neighbor_swap(self):
        for _ in range(200):
            a, b = RNG.uniform(-np.pi / 2 + 1e-9, np.pi / 2, size=2)
            fwd = wrap_aolp_gradient(np.array(b - a))
            rev = wrap_aolp_gradient(np.array(a - b))
            assert fwd == pytest.approx(-rev, abs=1e-12)

    def test_out_of_range_input_rejected(self):
        with pytest.raises(ValueError):
            aolp_gradient(np.array([[2.0, 0.0], [0.0, 0.0]]))

    def test_matches_analytic_gradient_on_smooth_field(self):
        h, w = 48, 48
        y, x = np.mgrid[0:h, 0:w]
        psi = 0.7 * np.sin(2 * np.pi * x / w) * np.cos(2 * np.pi * y / h)
        lin = 0.4
        data = np.empty((h, w, 1, 4))
        data[..., 0] = 1.0
        data[..., 1] = lin * np.cos(2 * psi)[..., None]
        data[..., 2] = lin * np.sin(2 * psi)[..., None]
        data[..., 3] = 0.0
        img = StokesImage(data)
        values, valid = feature_plane(img, "aolp")
        assert valid.all()
        gx, gy = aolp_gradient(values[:, :, 0])
        want_gx, want_gy = gradient_field(psi)
        assert np.max(np.abs(gx - want_gx)) < 1e-3
        assert np.max(np.abs(gy - want_gy)) < 1e-3


# Stokes components mixing ordinary values with zeros, s0 <= 0 and components
# so small that their squares underflow.
stokes_elements = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-170, -1e-170, 3e-170, -1.0]),
    st.floats(-2.0, 2.0, allow_subnormal=False),
)


@st.composite
def masked_cubes(draw):
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    data = draw(arrays(float, shape + (4,), elements=stokes_elements))
    mask = draw(arrays(bool, shape))
    return StokesImage(data, mask=mask)


def stokes_reference(img, feature):
    """The value ``stokes.features``/``normalize`` give ``feature`` where s0 > 0."""
    pos = img.data[..., 0] > 0
    full = np.zeros(pos.shape)
    if feature in ("s1n", "s2n", "s3n"):
        full[pos] = normalize(img.data[pos])[:, int(feature[1]) - 1]
        return full, pos
    f = features(img.data[pos])
    full[pos] = getattr(f, "psi" if feature == "aolp" else feature)
    if feature == "aolp":
        pos[pos] = ~f.degenerate
    return full, pos


class TestFeatureKernelContract:
    @given(img=masked_cubes())
    def test_feature_plane_matches_stokes_features(self, img):
        for feature in FEATURES:
            values, valid = feature_plane(img, feature)
            if feature in ("s0", "s1", "s2", "s3"):
                assert np.array_equal(values, img.data[..., int(feature[1])])
                assert np.array_equal(valid, img.mask)
                continue
            want, defined = stokes_reference(img, feature)
            assert np.array_equal(valid, img.mask & defined), feature
            assert values[valid].tobytes() == want[valid].tobytes(), feature
            assert not np.any(values[~valid]), feature

    @given(img=masked_cubes())
    def test_pol_unpol_pools_the_decompose_split(self, img):
        chosen = img.data[img.mask & (img.data[..., 0] > 0)]
        if chosen.size == 0:
            with pytest.raises(EmptySelectionError):
                pol_unpol_histograms([img])
            return
        hist_p, hist_u = pol_unpol_histograms([img])
        pol, unpol = decompose(chosen, tol=np.inf)
        top = max(pol.max(), unpol.max())
        for hist, samples in ((hist_p, pol), (hist_u, unpol)):
            counts, edges = np.histogram(samples, bins=201, range=(0.0, top if top > 0 else 1.0))
            np.testing.assert_array_equal(hist.counts, counts)
            np.testing.assert_array_equal(hist.edges, edges)

    def test_underflowing_linear_part_is_degenerate(self):
        img = StokesImage(np.array([1.0, 1e-170, 1e-170, 0.0]).reshape(1, 1, 1, 4))
        values, valid = feature_plane(img, "aolp")
        assert features(img.data).degenerate.all()
        assert not valid.any() and values[0, 0, 0] == 0.0

    def test_scene_values_identical_to_stokes_features(self):
        img = random_scene(64, 64, 3, np.random.default_rng(8))
        f = features(img.data)
        for feature, field in (("dolp", f.dolp), ("rho", f.rho), ("docp", f.docp),
                               ("aolp", f.psi), ("cop", f.cop)):
            values, valid = feature_plane(img, feature)
            assert valid.all()
            assert values.tobytes() == field.tobytes(), feature


class TestFeatureGradientHistograms:
    def test_constant_feature_is_delta_at_zero(self):
        img = constant_image((1.0, 0.3, 0.1, 0.05))
        hist = feature_gradient_histograms([img], "dolp")
        occupied = np.nonzero(hist.counts)[0]
        assert occupied.size == 1
        assert abs(hist.centers[occupied[0]]) < np.diff(hist.edges)[0]

    def test_aolp_gradient_support(self):
        img = random_scene(32, 32, 2, np.random.default_rng(3))
        hist = feature_gradient_histograms([img], "aolp")
        assert hist.edges[0] >= -np.pi / 2 - 1e-12
        assert hist.edges[-1] <= np.pi / 2 + 1e-12

    def test_symmetric_field_has_small_mean(self):
        img = random_scene(128, 128, 2, np.random.default_rng(10))
        hist = feature_gradient_histograms([img], "s1")
        mean = np.sum(hist.centers * hist.counts) / hist.total
        spread = np.sqrt(np.sum(hist.centers**2 * hist.counts) / hist.total)
        assert abs(mean) < 3 * spread / np.sqrt(hist.total)

    def test_cop_gradient_values_are_integers(self):
        img = random_scene(32, 32, 1, np.random.default_rng(6))
        hist = feature_gradient_histograms([img], "cop")
        assert hist.counts.size == 5
        assert hist.edges[0] == -2.5 and hist.edges[-1] == 2.5

    def test_log_probability_view(self):
        img = random_scene(32, 32, 1, np.random.default_rng(12))
        hist = feature_gradient_histograms([img], "s0")
        logp = hist.log_probability()
        widths = np.diff(hist.edges)
        mass = np.sum(np.where(np.isfinite(logp), np.exp(logp) * widths, 0.0))
        assert mass == pytest.approx(1.0, rel=1e-9)

    def test_directions_pool(self):
        img = random_scene(16, 16, 1, np.random.default_rng(13))
        both = feature_gradient_histograms([img], "s0")
        gx = feature_gradient_histograms([img], "s0", direction="x")
        gy = feature_gradient_histograms([img], "s0", direction="y")
        assert both.total == gx.total + gy.total


class TestPolUnpol:
    def test_fully_unpolarized_concentrates_polarized_at_zero(self):
        img = constant_image((1.0, 0.0, 0.0, 0.0))
        hist_p, hist_u = pol_unpol_histograms([img])
        assert hist_p.counts[0] == hist_p.total
        assert hist_u.counts[-1] == hist_u.total  # all mass at s0 = 1

    def test_fully_polarized_concentrates_unpolarized_at_zero(self):
        img = constant_image((1.0, 1.0, 0.0, 0.0))
        hist_p, hist_u = pol_unpol_histograms([img])
        assert hist_u.counts[0] == hist_u.total

    def test_mean_conservation(self):
        img = random_scene(64, 64, 3, np.random.default_rng(17))
        pol = np.linalg.norm(img.data[..., 1:], axis=-1)
        unpol = img.data[..., 0] - pol
        lhs = pol[img.mask].mean() + unpol[img.mask].mean()
        assert lhs == pytest.approx(img.data[..., 0][img.mask].mean(), abs=1e-9)


class TestPoincareDensity:
    def test_pure_horizontal_linear_occupies_single_cell(self):
        img = constant_image((1.0, 1.0, 0.0, 0.0))
        grid = poincare_density([img], plane="s1-s2", grid=101)
        assert (grid.counts > 0).sum() == 1
        i, j = np.argwhere(grid.counts > 0)[0]
        assert grid.x_edges[i] <= 1.0 <= grid.x_edges[i + 1]

    def test_unpolarized_occupies_origin_cell(self):
        img = constant_image((1.0, 0.0, 0.0, 0.0))
        grid = poincare_density([img], plane="s1-s3", grid=101)
        i, j = np.argwhere(grid.counts > 0)[0]
        assert grid.x_edges[i] < 0.0 < grid.x_edges[i + 1]
        assert grid.y_edges[j] < 0.0 < grid.y_edges[j + 1]

    def test_density_max_is_one(self):
        img = random_scene(32, 32, 2, np.random.default_rng(19))
        grid = poincare_density([img], plane="s1-s2")
        assert grid.density.max() == 1.0

    @pytest.mark.parametrize("grid", [1, 2, 7, 101, 201])
    def test_counts_equal_histogram2d_on_edges_and_non_finite_values(self, grid):
        # Every bin edge, its two neighbouring floats, +-1 and the non-finite
        # values, paired in all combinations: the binning must agree with
        # np.histogram2d exactly, including the closed last bin.
        edges = np.linspace(-1.0, 1.0, grid + 1)
        near = np.concatenate([edges, np.nextafter(edges, -2.0), np.nextafter(edges, 2.0),
                               [np.nan, np.inf, -np.inf, 0.3]])
        x, y = (a.ravel() for a in np.meshgrid(near, near))
        data = np.zeros((x.size, 1, 1, 4))
        data[:, 0, 0, 0] = 1.0
        data[:, 0, 0, 1], data[:, 0, 0, 2] = x, y
        with np.errstate(invalid="ignore"):
            got = poincare_density([StokesImage(data)], plane="s1-s2", grid=grid)
            want, want_x, want_y = np.histogram2d(x, y, bins=grid, range=[(-1, 1), (-1, 1)])
        assert got.counts.dtype == want.dtype
        np.testing.assert_array_equal(got.counts, want)
        np.testing.assert_array_equal(got.x_edges, want_x)
        np.testing.assert_array_equal(got.y_edges, want_y)

    def test_counts_equal_histogram2d_on_a_random_scene(self):
        img = random_scene(48, 40, 3, np.random.default_rng(23))
        x, y = normalize(img.data)[..., :2][img.mask].T
        got = poincare_density([img], plane="s1-s2", grid=37)
        want, _, _ = np.histogram2d(x, y, bins=37, range=[(-1, 1), (-1, 1)])
        np.testing.assert_array_equal(got.counts, want)

    @pytest.mark.parametrize("grid", [0, -3])
    def test_grid_below_one_rejected(self, grid):
        img = constant_image((1.0, 0.5, 0.0, 0.0))
        with pytest.raises(ValueError, match="grid"):
            poincare_density([img], grid=grid)


class TestDocpDistribution:
    def test_circular_mass_at_one(self):
        img = constant_image((1.0, 0.0, 0.0, 1.0))
        hist = docp_distribution([img])
        assert hist.counts[-1] == hist.total

    def test_linear_mass_at_zero(self):
        img = constant_image((1.0, 0.8, 0.2, 0.0))
        hist = docp_distribution([img])
        assert hist.counts[0] == hist.total

    def test_support(self):
        img = random_scene(32, 32, 2, np.random.default_rng(21))
        hist = docp_distribution([img])
        assert hist.edges[0] == 0.0 and hist.edges[-1] == 1.0


def unit_normals(h, w, c, rng):
    n = rng.normal(size=(h, w, c, 3))
    return n / np.linalg.norm(n, axis=-1, keepdims=True)


class TestNormalSpectralStddev:
    def test_identical_channels_have_zero_spread(self):
        one = unit_normals(6, 6, 1, RNG)
        stack = NormalMapStack(np.repeat(one, 4, axis=2))
        report = normal_spectral_stddev(stack)
        for arr in (report.std_x, report.std_y, report.std_z,
                    report.std_azimuth, report.std_elevation):
            assert np.max(np.abs(arr)) < 1e-12

    def test_two_channel_hand_computation(self):
        data = np.zeros((1, 1, 2, 3))
        data[0, 0, 0] = [1.0, 0.0, 0.0]
        data[0, 0, 1] = [0.0, 1.0, 0.0]
        report = normal_spectral_stddev(NormalMapStack(data))
        assert report.std_x[0, 0] == pytest.approx(0.5)
        assert report.std_y[0, 0] == pytest.approx(0.5)
        assert report.std_z[0, 0] == pytest.approx(0.0)

    def test_azimuth_wraps_across_the_cut(self):
        data = np.zeros((1, 1, 2, 3))
        for k, deg in enumerate((-179.0, 179.0)):
            data[0, 0, k] = [np.cos(np.deg2rad(deg)), np.sin(np.deg2rad(deg)), 0.0]
        report = normal_spectral_stddev(NormalMapStack(data))
        assert np.rad2deg(report.std_azimuth[0, 0]) == pytest.approx(1.0, abs=1e-9)

    def test_channel_permutation_invariance(self):
        stack = unit_normals(5, 5, 4, np.random.default_rng(23))
        base = normal_spectral_stddev(NormalMapStack(stack))
        perm = normal_spectral_stddev(NormalMapStack(stack[:, :, [2, 0, 3, 1]]))
        assert np.allclose(base.std_x, perm.std_x, atol=1e-12)
        assert np.allclose(base.std_azimuth, perm.std_azimuth, atol=1e-12)

    def test_single_channel_rejected(self):
        from polarcube import DimensionError

        with pytest.raises(DimensionError):
            NormalMapStack(unit_normals(4, 4, 1, RNG))


class TestHistogramContract:
    def test_counts_sum_to_samples(self):
        samples = RNG.normal(size=5000)
        hist = Histogram.from_samples(samples, bins=51)
        assert hist.total == 5000

    def test_float32_samples_bin_as_float64(self):
        samples = RNG.normal(size=500).astype(np.float32)
        hist = Histogram.from_samples(samples, bins=17, value_range=(-1.0, 1.0))
        want_counts, want_edges = np.histogram(samples.astype(float), 17, (-1.0, 1.0))
        assert hist.edges.dtype == np.float64
        np.testing.assert_array_equal(hist.edges, want_edges)
        np.testing.assert_array_equal(hist.counts, want_counts)

    def test_edges_strictly_increasing(self):
        hist = Histogram.from_samples(RNG.normal(size=100), bins=11)
        assert np.all(np.diff(hist.edges) > 0)


class TestArgumentChecks:
    def test_histogram_of_no_samples(self):
        with pytest.raises(EmptySelectionError, match="no samples for s0 histogram"):
            Histogram.from_samples(np.empty(0), label="s0")

    def test_one_label_set_per_image(self):
        img = constant_image((1.0, 0.0, 0.0, 0.0))
        labels = [LabelSet("indoor", "white", "2023-06-01T10:00:00", "object")]
        with pytest.raises(DimensionError, match="one label set per image"):
            stokes_histograms([img, img], "s0", labels=labels)

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (6,), (3, 3, 2)])
    def test_gradient_needs_a_plane_of_at_least_2x2(self, shape):
        with pytest.raises(DimensionError, match="at least 2x2"):
            gradient_field(np.zeros(shape))

    @pytest.mark.parametrize("call, match", [
        (lambda images: stokes_histograms(images, "s4"), "element must be one of"),
        (lambda images: feature_gradient_histograms(images, "aolp", direction="xy"),
         "direction must be"),
        (lambda images: poincare_density(images, plane="s2-s3"), "plane must be"),
    ])
    def test_unknown_element_direction_and_plane(self, call, match):
        with pytest.raises(ValueError, match=match):
            call([constant_image((1.0, 0.2, 0.0, 0.0))])


def outcome(fn):
    """The arrays of what ``fn()`` returns, or the type and message of what it raised."""
    try:
        result = fn()
    except (ValueError, TypeError, EmptySelectionError, DimensionError) as error:
        return type(error), str(error)
    return [(a.dtype.str, a.shape, a.tobytes()) for r in flat(result) for a in
            ((r.edges, r.counts) if isinstance(r, Histogram) else (r.x_edges, r.y_edges, r.counts))]


def flat(result):
    if isinstance(result, (list, tuple)):
        return [r for part in result for r in flat(part)]
    return [result]


def histogram_oracle(samples, bins, value_range):
    if samples.size == 0:
        raise EmptySelectionError("no samples")
    if value_range[0] == value_range[1]:
        value_range = (value_range[0] - 1.0, value_range[1] + 1.0)
    return Histogram(*np.histogram(samples, bins, value_range)[::-1])


def peak_range(samples):
    peak = float(np.max(np.abs(samples)))
    return (-peak, peak) if peak > 0 else (-1.0, 1.0)


def valid_values(images, feature):
    return np.concatenate([v[ok] for v, ok in (feature_plane(img, feature) for img in images)])


def gradient_values(images, feature, direction):
    parts = []
    for img in images:
        values, valid = feature_plane(img, feature)
        for c in range(img.channels):
            gx, gy = gradient_field(values[:, :, c])
            if feature == "aolp":
                gx, gy = wrap_aolp_gradient(gx), wrap_aolp_gradient(gy)
            ok = valid[:, :, c]
            if direction != "y":
                parts.append(gx[ok[:, 1:] & ok[:, :-1]])
            if direction != "x":
                parts.append(gy[ok[1:] & ok[:-1]])
    return np.concatenate(parts)


def oracle_dataset(non_finite):
    rng = np.random.default_rng(31)
    images = [random_scene(23, 31, 2, rng), random_scene(9, 40, 3, rng), random_scene(30, 7, 1, rng)]
    for img in images:
        img.mask[rng.random(img.mask.shape) < 0.2] = False
    if non_finite:
        a, b, c = images
        a.data[2, 3, 0, 1], a.mask[2, 3, 0] = np.nan, True  # valid
        a.data[4, 5, 1, 2], a.mask[4, 5, 1] = np.inf, False
        b.data[1, 1, 2, 3], b.mask[1, 1, 2] = -np.inf, True
        b.data[3, 3, 0, 0], b.mask[3, 3, 0] = np.nan, False
        c.data[6, 2, 0, 0], c.mask[6, 2, 0] = np.inf, True
        c.data[7, 2, 0], c.mask[7, 2, 0] = [1.0, np.nan, np.inf, -np.inf], True
    labels = [LabelSet("indoor", "white", "2023-06-01T10:00:00", "object"),
              LabelSet("outdoor", "sunlight", "2023-06-02T11:00:00", "scene"),
              LabelSet("outdoor", "cloudy", "2023-06-03T12:00:00", "scene")]
    return images, labels


class TestPooledStatisticsOracle:
    """Counts and edges equal np.histogram / np.histogram2d of the valid values."""

    OUTDOOR = LabelFilter(environments=frozenset({"outdoor"}))

    @pytest.fixture(autouse=True, params=[(1, 1 << 16), (2, 50)], ids=["one-block", "blocks"])
    def blocks(self, request):
        with pool_settings(*request.param):
            yield

    def cases(self, non_finite):
        images, labels = oracle_dataset(non_finite)
        yield images, {}, images
        yield images, {"labels": labels, "label_filter": self.OUTDOOR}, images[1:]

    @pytest.mark.parametrize("non_finite", [False, True])
    @pytest.mark.parametrize("element", ["s0", "s1", "s2", "s3", "s1n", "s2n", "s3n"])
    def test_stokes_histograms(self, non_finite, element):
        for images, select, kept in self.cases(non_finite):
            samples = valid_values(kept, element)
            default = ((-1.0, 1.0) if element.endswith("n") else
                       (float(samples.min()), float(samples.max())) if element == "s0"
                       else peak_range(samples))
            assert outcome(lambda: stokes_histograms(images, element, **select)) == \
                outcome(lambda: histogram_oracle(samples, 201, default))
            assert outcome(lambda: stokes_histograms(images, element, bins=9,
                                                     value_range=(-0.4, 0.7), **select)) == \
                outcome(lambda: histogram_oracle(samples, 9, (-0.4, 0.7)))

    @pytest.mark.parametrize("non_finite", [False, True])
    def test_docp_distribution(self, non_finite):
        for images, select, kept in self.cases(non_finite):
            assert outcome(lambda: docp_distribution(images, bins=13, **select)) == \
                outcome(lambda: histogram_oracle(valid_values(kept, "docp"), 13, (0.0, 1.0)))

    @pytest.mark.parametrize("non_finite", [False, True])
    def test_pol_unpol_histograms(self, non_finite):
        for images, select, kept in self.cases(non_finite):
            pol = np.concatenate([np.linalg.norm(img.data[..., 1:], axis=-1)[
                img.mask & (img.data[..., 0] > 0)] for img in kept])
            s0 = np.concatenate([img.data[..., 0][img.mask & (img.data[..., 0] > 0)]
                                 for img in kept])
            unpol = s0 - pol
            top = float(max(pol.max(), unpol.max()))
            for value_range in (None, (0.0, 0.3)):
                want = value_range or (0.0, top if top > 0 else 1.0)
                assert outcome(lambda: pol_unpol_histograms(images, value_range=value_range,
                                                            **select)) == \
                    outcome(lambda: (histogram_oracle(pol, 201, want),
                                     histogram_oracle(unpol, 201, want)))

    @pytest.mark.parametrize("non_finite", [False, True])
    @pytest.mark.parametrize("feature", FEATURES)
    @pytest.mark.parametrize("direction", ["both", "x", "y"])
    def test_feature_gradient_histograms(self, non_finite, feature, direction):
        for images, select, kept in self.cases(non_finite):
            samples = gradient_values(kept, feature, direction)
            bins, default = 201, peak_range(samples)
            if feature == "aolp":
                default = (-np.pi / 2, np.pi / 2)
            elif feature == "cop":
                bins, default = 5, (-2.5, 2.5)
            got = outcome(lambda: feature_gradient_histograms(images, feature,
                                                              direction=direction, **select))
            assert got == outcome(lambda: histogram_oracle(samples, bins, default))
            if feature == "cop":
                assert got[0][1] == (6,)  # 5 bins

    @pytest.mark.parametrize("non_finite", [False, True])
    @pytest.mark.parametrize("plane", ["s1-s2", "s1-s3"])
    def test_poincare_density(self, non_finite, plane):
        for images, select, kept in self.cases(non_finite):
            x = valid_values(kept, "s1n")
            y = valid_values(kept, "s2n" if plane == "s1-s2" else "s3n")
            got = poincare_density(images, plane, grid=23, **select)
            with np.errstate(invalid="ignore"):
                want, want_x, want_y = np.histogram2d(x, y, bins=23, range=[(-1, 1), (-1, 1)])
            assert got.counts.dtype == want.dtype
            np.testing.assert_array_equal(got.counts, want)
            np.testing.assert_array_equal(got.x_edges, want_x)
            np.testing.assert_array_equal(got.y_edges, want_y)

    def test_one_walk_gives_every_histogram_np_histograms_edges(self):
        """Each ``_STATS`` entry, and one at a caller's range, from one walk: its edges and
        counts are those of np.histogram (np.histogram2d for a grid) of its pooled samples."""
        images, _ = oracle_dataset(False)
        stats = {**_STATS, "s1 at a range": _STATS["s1"]._replace(span=(-0.4, 0.7), bins=None)}
        walked = _walk(images, range(3), list(stats.values()), 31)
        for (name, stat), (got, _) in zip(stats.items(), walked):
            streams = [np.concatenate(parts).astype(float) for parts in
                       zip(*(stat.sample(img, 0, img.height) for img in images))]
            if stat.grid:
                want = np.histogram2d(*streams, bins=31, range=[(-1, 1), (-1, 1)])
                for array, expected in zip((got.counts, got.x_edges, got.y_edges), want):
                    np.testing.assert_array_equal(array, expected, err_msg=name)
                continue
            span = stat.span
            if callable(span):  # a rule on the pooled lowest and highest samples
                span = span(min(v.min() for v in streams), max(v.max() for v in streams))
            want = tuple(histogram_oracle(v, stat.bins or 31, span) for v in streams)
            assert outcome(lambda: got) == outcome(lambda: want), name
            if len(want) > 1:  # each histogram of a tuple owns its edges
                assert not np.shares_memory(got[0].edges, got[1].edges)

    def test_mixed_precision_images_bin_in_the_common_dtype(self):
        # float32 values at and next to the float64 edges fall in other bins
        # when binned among float32 edges; alone or pooled with a float64
        # image, they must be binned as one float64 concatenation is.
        edges = np.linspace(-1.0, 1.0, 202)
        near = np.concatenate([edges, np.nextafter(edges, 2.0), np.nextafter(edges, -2.0)])
        narrow = np.zeros((near.size, 1, 1, 4), dtype=np.float32)
        narrow[..., 0], narrow[:, 0, 0, 1] = 1.0, near
        images = [oracle_dataset(False)[0][0], StokesImage(narrow)]
        samples = valid_values(images, "s1")
        assert samples.dtype == np.float64
        for value_range in (None, (-1.0, 1.0)):
            want = value_range or peak_range(samples)
            assert outcome(lambda: stokes_histograms(images, "s1", value_range=value_range)) == \
                outcome(lambda: histogram_oracle(samples, 201, want))
        alone = stokes_histograms(images[1:], "s1", value_range=(-1.0, 1.0))
        narrow_values = near.astype(np.float32)
        assert alone.edges.dtype == np.float64
        np.testing.assert_array_equal(alone.counts, np.histogram(narrow_values.astype(float), 201,
                                                                 (-1.0, 1.0))[0])
        assert not np.array_equal(alone.counts, np.histogram(narrow_values, 201, (-1.0, 1.0))[0])
        assert not np.array_equal(alone.counts, np.histogram(near, 201, (-1.0, 1.0))[0])

    def test_zero_width_range_is_widened(self):
        img = constant_image((0.5, 0.1, 0.0, 0.0))
        hist = stokes_histograms([img], "s0", bins=4)
        want_counts, want_edges = np.histogram(img.data[..., 0], 4, (-0.5, 1.5))
        np.testing.assert_array_equal(hist.edges, want_edges)
        np.testing.assert_array_equal(hist.counts, want_counts)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_errors_keep_their_order(self, workers):
        with pool_settings(workers, 8):  # a row per block: pooled, blocks raise in the pool
            self.check_error_order()

    def check_error_order(self):
        images, _ = oracle_dataset(False)
        empty = images[0].copy()
        empty.mask[:] = False
        with pytest.raises(EmptySelectionError):
            docp_distribution([empty], bins=0)
        with pytest.raises(ValueError, match="bins"):
            docp_distribution(images, bins=0)
        with pytest.raises(EmptySelectionError):
            stokes_histograms([empty], "s1", value_range=(1.0, 0.0))
        with pytest.raises(ValueError, match="max must be larger"):
            stokes_histograms(images, "s1", value_range=(1.0, 0.0))
        with pytest.raises(EmptySelectionError):
            poincare_density([empty], grid=0)
        with pytest.raises(DimensionError):
            feature_gradient_histograms([images[0], StokesImage(np.ones((1, 4, 2, 4)))], "s0")
        with pytest.raises(ValueError, match="unknown feature"):
            feature_gradient_histograms([StokesImage(np.ones((1, 4, 2, 4)))], "nope")
        with pytest.raises(ValueError, match="estimator"):
            stokes_histograms(images, "s1", bins="auto")
        no_rows = StokesImage(np.ones((0, 4, 2, 4)))
        with pytest.raises(DimensionError):
            feature_gradient_histograms([no_rows], "s0")
        for call in (lambda: stokes_histograms([no_rows], "s1"),
                     lambda: pol_unpol_histograms([no_rows, no_rows]),
                     lambda: poincare_density([no_rows])):
            with pytest.raises(EmptySelectionError):
                call()


class OneAtATime:
    """A sequence that copies an image when indexed and tracks how many copies are alive."""

    def __init__(self, images):
        self.images, self.alive, self.peak, self.reads = images, 0, 0, 0

    def __len__(self):
        return len(self.images)

    def __getitem__(self, i):
        img = self.images[i].copy()
        self.alive += 1
        self.peak, self.reads = max(self.peak, self.alive), self.reads + 1
        weakref.finalize(img, self.drop)
        return img

    def drop(self):
        self.alive -= 1


class TestStreaming:
    @pytest.mark.parametrize("call, passes", [
        (lambda imgs: stokes_histograms(imgs, "s0"), 2),
        (lambda imgs: stokes_histograms(imgs, "s1n"), 1),
        (lambda imgs: pol_unpol_histograms(imgs), 2),
        (lambda imgs: feature_gradient_histograms(imgs, "aolp"), 1),
        (lambda imgs: feature_gradient_histograms(imgs, "dolp"), 2),
        (lambda imgs: poincare_density(imgs, "s1-s3"), 1),
        (lambda imgs: docp_distribution(imgs), 1),
    ])
    def test_one_image_at_a_time_and_one_read_per_pass(self, call, passes):
        images, _ = oracle_dataset(False)
        lazy = OneAtATime(images)
        with pool_settings(1, 1 << 16):
            got = outcome(lambda: call(lazy))
        assert got == outcome(lambda: call(images))
        assert lazy.peak == 1
        assert lazy.reads == passes * len(images)

    @pytest.mark.parametrize("mixed", [False, True], ids=["float64", "mixed-precision"])
    @pytest.mark.parametrize("names, passes", [
        # fixed ranges; a (name, range) pair is that statistic at a caller's range
        (["s1n", "docp", "aolp-gradient", "poincare-s1s2", ("s1", (-0.5, 0.5))], 1),
        (["s0", "pol-unpol"], 2),
        (list(_STATS), 2),
    ])
    def test_one_walk_reads_each_image_at_most_twice(self, names, passes, mixed):
        images, _ = oracle_dataset(False)
        if mixed:  # a float32 cube among float64 ones
            images[1] = StokesImage(images[1].data.astype(np.float32), images[1].wavelengths,
                                    images[1].mask)
        lazy = OneAtATime(images)
        stats = [_STATS[n] if isinstance(n, str) else _STATS[n[0]]._replace(span=n[1], bins=None)
                 for n in names]
        with pool_settings(1, 1 << 16):
            got = outcome(lambda: [r for r, _ in _walk(lazy, range(3), stats, 31)])
            assert got == outcome(lambda: [_walk(images, range(3), [stat], 31)[0][0]
                                           for stat in stats])
        assert lazy.peak == 1
        assert lazy.reads == passes * len(images)

    def test_float32_cube_mean_is_a_float64_sum(self):
        data = smooth_scene(64, 64, 5, np.random.default_rng(4)).data.astype(np.float32)
        means = [_walk([StokesImage(d)], range(1), [_STATS["s0"]], 31, means=True)[0][1]
                 for d in (data, data.astype(float))]
        assert means[0] == pytest.approx(means[1], rel=1e-12, abs=0)

    def test_filtered_out_images_are_never_read(self):
        images, labels = oracle_dataset(False)
        lazy = OneAtATime(images)
        stokes_histograms(lazy, "s2n", labels=labels,
                          label_filter=LabelFilter(environments=frozenset({"indoor"})))
        assert lazy.reads == 1


ALL_STATISTICS = (
    lambda imgs: [stokes_histograms(imgs, e) for e in ("s0", "s1", "s3n")],
    lambda imgs: pol_unpol_histograms(imgs),
    lambda imgs: docp_distribution(imgs, bins=17),
    lambda imgs: [feature_gradient_histograms(imgs, f, direction=d)
                  for f, d in (("aolp", "both"), ("cop", "x"), ("s2", "y"), ("rho", "both"))],
    lambda imgs: [poincare_density(imgs, p, grid=9) for p in ("s1-s2", "s1-s3")],
)


class TestBlockIndependence:
    @settings(max_examples=25, deadline=None)
    @given(images=st.lists(masked_cubes(), min_size=1, max_size=3),
           block_values=st.integers(1, 64))
    def test_counts_do_not_depend_on_blocks_or_workers(self, images, block_values):
        def run():
            return [outcome(lambda: stat(images)) for stat in ALL_STATISTICS]

        with pool_settings(1, 1 << 20):
            whole = run()
        for workers in (1, 2, 3):
            with pool_settings(workers, block_values):
                assert run() == whole
