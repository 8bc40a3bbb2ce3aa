import numpy as np
import pytest

from polarcube import (
    DecompositionError,
    UndefinedFeatureError,
    apply,
    decompose,
    features,
    is_valid,
    lp_mueller,
    normalize,
    retarder_mueller,
    rotate_mueller,
)
from polarcube.stokes import _kernel

RNG = np.random.default_rng(1234)


def random_valid_stokes(rng, n, rho_max=0.99):
    s0 = rng.uniform(0.1, 2.0, size=n)
    rho = rng.uniform(0.0, rho_max, size=n)
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    out = np.empty((n, 4))
    out[:, 0] = s0
    out[:, 1:] = direction * (rho * s0)[:, None]
    return out


class TestLinearPolarizer:
    def test_unpolarized_through_horizontal(self):
        out = apply(lp_mueller(0.0), [1, 0, 0, 0])
        assert np.allclose(out, [0.5, 0.5, 0, 0], atol=1e-15)

    def test_idempotent(self):
        m = lp_mueller(0.0)
        assert np.allclose(m @ m, m, atol=1e-15)

    def test_diagonal_polarizer_on_horizontal_light(self):
        # hand matrix-product oracle: lp(pi/4) = 0.5*[[1,0,1,0],[0,...],[1,0,1,0],[0,...]]
        out = apply(lp_mueller(np.pi / 4), [1, 1, 0, 0])
        assert np.allclose(out, [0.5, 0, 0.5, 0], atol=1e-15)

    def test_crossed_polarizer_extinguishes(self):
        out = apply(lp_mueller(np.pi / 2), [1, 1, 0, 0])
        assert np.allclose(out, [0, 0, 0, 0], atol=1e-15)

    def test_projector_property_random_angles(self):
        for theta in RNG.uniform(-np.pi, np.pi, size=100):
            m = lp_mueller(theta)
            assert np.max(np.abs(m @ m - m)) < 1e-12

    def test_rejects_non_finite_angle(self):
        with pytest.raises(ValueError):
            lp_mueller(np.nan)


class TestRetarder:
    def test_qwp_at_45_makes_circular(self):
        out = apply(retarder_mueller(np.pi / 4, np.pi / 2), [1, 1, 0, 0])
        assert np.allclose(out, [1, 0, 0, 1], atol=1e-15)

    def test_four_quarter_waves_are_identity(self):
        for theta in RNG.uniform(-np.pi, np.pi, size=100):
            q = retarder_mueller(theta, np.pi / 2)
            assert np.max(np.abs(q @ q @ q @ q - np.eye(4))) < 1e-12

    def test_eighth_wave_closed_form(self):
        # evaluate the stated closed form at theta=0, delta=pi/4:
        # rows 2,3 act as a rotation by delta in the (s2, s3) plane,
        # so [1,0,1,0] -> [1, 0, cos(pi/4), -sin(pi/4)]
        out = apply(retarder_mueller(0.0, np.pi / 4), [1, 0, 1, 0])
        r = np.sqrt(2) / 2
        assert np.allclose(out, [1, 0, r, -r], atol=1e-15)

    def test_preserves_dop(self):
        s = random_valid_stokes(RNG, 100)
        for theta in RNG.uniform(-np.pi, np.pi, size=100):
            q = retarder_mueller(theta, np.pi / 2)
            out = apply(q, s)
            assert np.max(np.abs(features(out).rho - features(s).rho)) < 1e-9


class TestRotation:
    @pytest.mark.parametrize("deg", [15.0, 30.0, 75.0])
    def test_rotated_polarizer_matches_constructor(self, deg):
        theta = np.deg2rad(deg)
        assert np.max(np.abs(rotate_mueller(lp_mueller(0.0), theta) - lp_mueller(theta))) < 1e-12

    def test_identity_rotation(self):
        m = retarder_mueller(0.3, 1.1)
        assert np.allclose(rotate_mueller(m, 0.0), m, atol=1e-15)

    def test_rotated_retarder_matches_constructor(self):
        got = rotate_mueller(retarder_mueller(0.0, np.pi / 2), np.pi / 4)
        want = retarder_mueller(np.pi / 4, np.pi / 2)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (2, 4, 4)])
    def test_non_4x4_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match=r"expected a \(4, 4\) Mueller matrix"):
            rotate_mueller(np.zeros(shape), 0.1)


class TestApply:
    def test_identity(self):
        s = random_valid_stokes(RNG, 10)
        assert np.array_equal(apply(np.eye(4), s), s)

    def test_composition_associativity(self):
        s = random_valid_stokes(RNG, 50)
        for _ in range(20):
            m1 = retarder_mueller(RNG.uniform(-np.pi, np.pi), RNG.uniform(0, np.pi))
            m2 = lp_mueller(RNG.uniform(-np.pi, np.pi))
            lhs = apply(m1 @ m2, s)
            rhs = apply(m1, apply(m2, s))
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestFeatures:
    def test_pure_horizontal_linear(self):
        f = features([1, 1, 0, 0])
        assert f.rho == pytest.approx(1.0)
        assert f.psi == pytest.approx(0.0)
        assert f.chi == pytest.approx(0.0)
        assert f.dolp == pytest.approx(1.0)
        assert f.docp == pytest.approx(0.0)

    def test_pure_right_circular(self):
        f = features([1, 0, 0, 1])
        assert f.rho == pytest.approx(1.0)
        assert f.dolp == pytest.approx(0.0)
        assert f.docp == pytest.approx(1.0)
        assert f.chi == pytest.approx(np.pi / 4)
        assert f.cop == 1.0
        assert f.degenerate  # no linear part, psi reported 0 and flagged

    def test_mixed_state(self):
        f = features([2, 1, 1, np.sqrt(2)])
        assert f.rho == pytest.approx(1.0, rel=1e-12)
        assert f.psi == pytest.approx(np.pi / 8, rel=1e-12)
        assert f.chi == pytest.approx(np.pi / 8, rel=1e-12)

    def test_rho_squared_splits_into_linear_and_circular(self):
        s = random_valid_stokes(RNG, 10000)
        f = features(s)
        assert np.max(np.abs(f.rho**2 - (f.dolp**2 + f.docp**2))) < 1e-9 * np.maximum(
            f.rho**2, 1e-30
        ).max()

    def test_psi_range(self):
        s = random_valid_stokes(RNG, 10000)
        f = features(s)
        nondeg = ~f.degenerate
        assert np.all(f.psi[nondeg] > -np.pi / 2)
        assert np.all(f.psi[nondeg] <= np.pi / 2)
        assert np.all(np.abs(f.chi) <= np.pi / 4 + 1e-15)

    def test_degenerate_pixel_flagged_not_nan(self):
        f = features([1, 0, 0, 0.5])
        assert f.degenerate
        assert f.psi == 0.0

    def test_rejects_nonpositive_intensity(self):
        with pytest.raises(UndefinedFeatureError):
            features([0, 0, 0, 0])
        with pytest.raises(UndefinedFeatureError):
            features([-1, 0, 0, 0])


class TestDecompose:
    def test_fully_unpolarized(self):
        assert decompose([1, 0, 0, 0]) == (0.0, 1.0)

    def test_fully_polarized(self):
        pol, unpol = decompose([1, 1, 0, 0])
        assert pol == pytest.approx(1.0)
        assert unpol == pytest.approx(0.0, abs=1e-15)

    def test_mixed(self):
        pol, unpol = decompose([2, 1, 0, 1])
        assert pol == pytest.approx(np.sqrt(2), rel=1e-15)
        assert unpol == pytest.approx(2 - np.sqrt(2), rel=1e-15)

    def test_conservation_to_one_rounding_step(self):
        s = random_valid_stokes(RNG, 10**6)
        pol, unpol = decompose(s)
        err = np.abs((pol + unpol) - s[:, 0])
        assert np.all(err <= 2 * np.spacing(s[:, 0]))

    def test_polarized_part_invariant_under_retarders(self):
        s = random_valid_stokes(RNG, 200)
        pol0, _ = decompose(s)
        for _ in range(20):
            q = retarder_mueller(RNG.uniform(-np.pi, np.pi), RNG.uniform(0, 2 * np.pi))
            pol1, _ = decompose(apply(q, s))
            assert np.max(np.abs(pol1 - pol0)) < 1e-9

    def test_rejects_invalid_vector(self):
        with pytest.raises(DecompositionError):
            decompose([1, 0.8, 0.8, 0])


class TestValidity:
    def test_boundary_case(self):
        assert is_valid([1, 0.6, 0.8, 0], tol=1e-3)

    def test_overpolarized(self):
        assert not is_valid([1, 0.8, 0.8, 0])

    def test_negative_intensity(self):
        assert not is_valid([-1, 0, 0, 0])


class TestNormalize:
    def test_halves(self):
        assert np.allclose(normalize([2, 1, 0, 0]), [0.5, 0, 0])

    def test_unpolarized_is_origin(self):
        assert np.array_equal(normalize([1, 0, 0, 0]), [0, 0, 0])

    def test_norm_equals_dop(self):
        s = random_valid_stokes(RNG, 10000)
        n = np.linalg.norm(normalize(s), axis=-1)
        assert np.max(np.abs(n - features(s).rho)) < 1e-12

    def test_rejects_nonpositive_intensity(self):
        with pytest.raises(UndefinedFeatureError):
            normalize([0, 0, 0, 0])


class TestKernelChecks:
    @pytest.mark.parametrize("fn", [features, decompose, is_valid, normalize])
    def test_trailing_axis_must_be_4(self, fn):
        with pytest.raises(ValueError, match="trailing axis 4"):
            fn(np.ones((2, 3)))

    def test_unknown_quantity_rejected(self):
        with pytest.raises(ValueError, match="unknown polarimetric quantity 'dop'"):
            _kernel(np.ones((2, 4)), "dop")
