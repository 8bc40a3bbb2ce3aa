import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polarcube import (
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
    stokes_histograms,
    uniform_scene,
)
from polarcube import analysis
from polarcube.analysis import FEATURES, Histogram, wrap_aolp_gradient

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
        pooled = []

        def capture(samples, *args, **kwargs):
            pooled.append(np.asarray(samples))
            return Histogram(np.array([0.0, 1.0]), np.array([samples.size]))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis.Histogram, "from_samples", capture)
            try:
                pol_unpol_histograms([img])
            except EmptySelectionError:
                pass
        chosen = img.data[img.mask & (img.data[..., 0] > 0)]
        if chosen.size == 0:
            assert not pooled
            return
        pol, unpol = decompose(chosen, tol=np.inf)
        assert pooled[0].tobytes() == pol.tobytes()
        assert pooled[1].tobytes() == unpol.tobytes()

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

    def test_edges_strictly_increasing(self):
        hist = Histogram.from_samples(RNG.normal(size=100), bins=11)
        assert np.all(np.diff(hist.edges) > 0)
