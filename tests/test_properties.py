"""Properties of the whole pipeline, each over drawn cameras, levels, paths and containers."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polarcube import (
    EmptySelectionError,
    MeasurementConfig,
    NoiseModel,
    StokesImage,
    default_qwp_angles,
    denoise,
    feature_gradient_histograms,
    median_filter,
    poincare_density,
    random_scene,
    read_spsi,
    reconstruct_image,
    simulate_hyperspectral,
    simulate_trichromatic,
    smooth_scene,
    stokes_histograms,
    write_spsi,
)

from conftest import (
    as_stored,
    assert_bit_exact,
    containers,
    flagged_entries,
    pool_settings,
    raw_captures,
    value_arrays,
)


@st.composite
def clipped_inputs(draw):
    """Captures of one setup and the path that makes them one: ``(raws, median, path)``.

    The camera is sequential with 1-3 channels or a mosaic; the exposure, noise and levels
    clip both ends of the range often, a negative black level included.
    """
    mosaic = draw(st.booleans())
    channels = 3 if mosaic else draw(st.integers(1, 3))
    side = draw(st.sampled_from([8, 12]))
    scene = smooth_scene(side, side, channels, np.random.default_rng(draw(st.integers(0, 99))))
    black = draw(st.floats(-0.02, 0.02))
    saturation = black + draw(st.floats(0.02, 0.6))
    sigma = draw(st.sampled_from([0.0, 0.01, 0.02, 0.05]))
    exposure = draw(st.sampled_from([0.05, 0.1, 0.3, 1.0, 2.0]))
    path = draw(st.sampled_from(["reconstruct", "burst", "median"]))
    raws = []
    for seed in range(draw(st.integers(2, 3)) if path == "burst" else 1):
        noise = NoiseModel(gaussian_sigma=sigma, saturation_level=saturation, black_level=black,
                           rng_seed=seed)
        raws.append(simulate_trichromatic(scene, noise=noise, exposure=exposure) if mosaic else
                    simulate_hyperspectral(scene, default_qwp_angles(), noise=noise,
                                           exposure=exposure))
    return raws, draw(st.sampled_from([1, 3, 5])) if path == "median" else None, path


@settings(max_examples=100, deadline=None)
@given(case=clipped_inputs())
def test_no_valid_entry_has_a_flagged_sample(case):
    raws, median, path = case
    raw = raws[0] if path == "reconstruct" else denoise(raws, median)
    flagged = np.any([flagged_entries(r) for r in raws], axis=0)
    assert not (reconstruct_image(raw).mask & flagged).any()


def _outputs(raw, median):
    """Every array that the pool helps make from ``raw``: the cube, its mask, the median of
    the first frame and the counts of pooled statistics (or the error of an empty selection)."""
    cube = reconstruct_image(raw)
    try:
        counts = [stokes_histograms([cube], "s0", bins=16).counts,
                  feature_gradient_histograms([cube], "aolp", bins=16).counts,
                  poincare_density([cube], "s1-s3", grid=8).counts]
    except EmptySelectionError as exc:
        counts = [str(exc)]
    arrays = [cube.data, cube.mask, median_filter(raw.frames[0], median), *counts]
    return [(a.dtype.str, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a
            for a in arrays]


@settings(max_examples=30, deadline=None)
@given(case=clipped_inputs(), workers=st.integers(1, 3), block_values=st.integers(1, 2000))
def test_parallelism_never_changes_an_output(case, workers, block_values):
    raws, median, _ = case
    with pool_settings(1, 1 << 40):  # one block, inline
        whole = _outputs(raws[0], median or 3)
    with pool_settings(workers, block_values):
        assert _outputs(raws[0], median or 3) == whole


@st.composite
def calibrations(draw, channels):
    """The identity plus entries within 0.2, shared (4, 4) or one per channel (C, 4, 4).

    The perturbation's spectral norm is at most its Frobenius norm, 0.8 < 1, so every
    matrix has rank 4.
    """
    shape = (4, 4) if draw(st.booleans()) else (channels, 4, 4)
    # every entry drawn: a fill value would give the channels one matrix
    return np.eye(4) + draw(arrays(np.float64, shape, elements=st.floats(-0.2, 0.2),
                                   fill=st.nothing()))


@st.composite
def stokes_vectors(draw):
    """A Stokes vector of intensity 0.05-2 and degree of polarization below 1."""
    s0, rho = draw(st.floats(0.05, 2.0)), draw(st.floats(0.0, 0.99))
    azimuth, elevation = draw(st.floats(-np.pi, np.pi)), draw(st.floats(-np.pi / 2, np.pi / 2))
    return s0 * np.array([1.0, rho * np.cos(elevation) * np.cos(azimuth),
                          rho * np.cos(elevation) * np.sin(azimuth), rho * np.sin(elevation)])


# Noiseless and unclipped, a capture inverts to within rounding: at most 6e-15 was seen
# over 600 drawn scenes and calibrations of either camera.
INVERSION_TOL = 1e-12


@settings(max_examples=40, deadline=None)
@given(data=st.data(), channels=st.integers(1, 4), side=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), rho_max=st.floats(0.0, 0.99),
       exposure=st.floats(0.1, 10.0))
def test_sequential_capture_inverts_exactly(data, channels, side, seed, rho_max, exposure):
    scene = random_scene(side, side + 1, channels, np.random.default_rng(seed), rho_max=rho_max)
    raw = simulate_hyperspectral(scene, default_qwp_angles(), exposure=exposure,
                                 calibration=data.draw(calibrations(channels)))
    cube = reconstruct_image(raw)
    assert cube.mask.all()
    np.testing.assert_allclose(cube.data, scene.data, rtol=0, atol=INVERSION_TOL)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), stokes=st.lists(stokes_vectors(), min_size=3, max_size=3),
       tiles=st.integers(1, 3), exposure=st.floats(0.1, 10.0))
def test_mosaic_capture_of_a_constant_scene_inverts_exactly(data, stokes, tiles, exposure):
    scene = StokesImage(np.broadcast_to(np.stack(stokes), (4 * tiles, 4 * tiles + 4, 3, 4)))
    raw = simulate_trichromatic(scene, exposure=exposure, calibration=data.draw(calibrations(3)))
    cube = reconstruct_image(raw)
    assert cube.mask.all()
    np.testing.assert_allclose(cube.data, scene.data, rtol=0, atol=INVERSION_TOL)


@settings(max_examples=60, deadline=None)
@given(raw=raw_captures())
def test_the_operator_covers_every_plane_once_with_its_channels_rows(raw):
    planes = [k for indices, _ in raw.systems for k in indices]
    assert sorted(planes) == list(range(16 if raw.layout is not None else len(raw.frames)))
    for c, (indices, system) in enumerate(raw.systems):
        assert np.array_equal(system.matrix, raw.config.rows(c))
        if raw.layout is None:  # frame k of channel c's configuration i is tagged (c, i)
            assert [raw.tags[k] for k in indices] == [(c, i) for i in range(len(indices))]
        else:  # segment K of colour c's cells, K ascending, holding cell K's configuration
            layout = raw.layout
            assert list(indices) == sorted(indices)
            assert all(layout.colors.flat[k] == c for k in indices)
            cells = [MeasurementConfig(layout.retarder_angles.flat[k], layout.retardances.flat[k],
                                       layout.polarizer_angles.flat[k]) for k in indices]
            assert cells == raw.config.configs_for(c)


@settings(max_examples=100, deadline=None)
@given(obj=containers())
def test_every_container_reads_back_as_written(obj):
    """Every value comes back; as float32 exactly when each value array casts safely to it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "obj.spsi")
        write_spsi(path, obj)
        got = read_spsi(path)
    for back, written in zip(value_arrays(got), value_arrays(obj), strict=True):
        assert np.array_equal(back, written, equal_nan=True)
    assert_bit_exact(got, as_stored(obj))
