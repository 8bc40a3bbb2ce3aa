"""Properties of the whole pipeline, each over drawn cameras, levels and paths."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from polarcube import (
    NoiseModel,
    default_qwp_angles,
    denoise,
    reconstruct_image,
    simulate_hyperspectral,
    simulate_trichromatic,
    smooth_scene,
)

from conftest import flagged_entries


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
