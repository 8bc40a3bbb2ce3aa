"""Properties of the whole pipeline, each over drawn cameras, levels and paths."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from polarcube import (
    EmptySelectionError,
    NoiseModel,
    default_qwp_angles,
    denoise,
    feature_gradient_histograms,
    median_filter,
    poincare_density,
    reconstruct_image,
    simulate_hyperspectral,
    simulate_trichromatic,
    smooth_scene,
    stokes_histograms,
)

from conftest import flagged_entries, pool_settings


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
