import contextlib
import dataclasses
import struct

import numpy as np
from hypothesis import strategies as st

from polarcube import (
    NoiseModel,
    NormalMapStack,
    ScalarCube,
    StokesImage,
    _pool,
    default_qwp_angles,
    demosaic_footprint,
    inr_init,
    pca_encode,
    pca_fit_image,
    random_scene,
    reconstruct_image,
    simulate_hyperspectral,
    simulate_trichromatic,
    smooth_scene,
)
from polarcube.reconstruct import _bad_pixel_mask


@contextlib.contextmanager
def pool_settings(workers, block_values):
    """Run the block pool with ``workers`` threads (1: inline) and ``block_values``-sized blocks."""
    saved = _pool.WORKERS, _pool._tasks, _pool.BLOCK_VALUES
    _pool.WORKERS, _pool._tasks, _pool.BLOCK_VALUES = workers, None, block_values
    try:
        yield
    finally:
        if _pool._tasks is not None:  # stop this pool's threads
            for _ in range(workers):
                _pool._tasks.put(None)
        _pool.WORKERS, _pool._tasks, _pool.BLOCK_VALUES = saved


def clipped_cube(h=26, w=22, c=3, seed=0):
    """A noisy capture clipped at 0.45, reconstructed: about 15 % of its entries are masked."""
    scene = smooth_scene(h, w, c, np.random.default_rng(seed))
    noise = NoiseModel(0.01, saturation_level=0.45, rng_seed=seed)
    return reconstruct_image(simulate_hyperspectral(scene, default_qwp_angles(), noise=noise))


def flagged_entries(raw):
    """(H, W, C): the (pixel, channel) entries whose estimate uses a flagged sample of ``raw``.

    A sample is flagged when it lies at or past a clipping level, or when the mask rule
    (``_bad_pixel_mask``) flags it.  An entry uses its channel's planes in ``raw.systems``: a
    sequential capture's frames at its pixel, or every sample of a mosaic's segment planes
    that ``demosaic_footprint`` spreads to it.
    """
    flags = _bad_pixel_mask(raw.frames, raw)
    flags |= (raw.frames >= raw.saturation_level) | (raw.frames <= raw.black_level)
    if raw.layout is not None:
        flags = demosaic_footprint(flags[0])
    return np.stack([flags[planes].any(axis=0) for planes, _ in raw.systems], axis=-1)


def assert_bit_exact(a, b, where="obj"):
    """Equal types, shapes, dtypes and bytes, field by field."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray), where
        assert (a.dtype, a.shape) == (b.dtype, b.shape), where
        assert a.tobytes() == b.tobytes(), where
    elif dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for field in dataclasses.fields(a):
            assert_bit_exact(getattr(a, field.name), getattr(b, field.name),
                             f"{where}.{field.name}")
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_bit_exact(x, y, f"{where}[{i}]")
    elif isinstance(a, (float, np.floating)):
        assert struct.pack("<d", a) == struct.pack("<d", b), where
    else:
        assert a == b, where


SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, np.finfo(np.float32).tiny])


@st.composite
def raw_captures(draw, kind=None):
    """Sequential or mosaic captures: drawn scenes, calibrations, exposures, noise and dtypes.

    A sequential capture has 1-4 channels, 4 or 6 QWP angles and its frames in a drawn order;
    calibration is none, one matrix or one per channel; frames are float64 or float32.
    """
    kind = kind or draw(st.sampled_from(["sequential", "mosaic"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    c = 3 if kind == "mosaic" else draw(st.integers(1, 4))
    calibration = draw(st.sampled_from([None, (4, 4), (c, 4, 4)]))
    if calibration is not None:
        calibration = np.eye(4) + 0.01 * rng.normal(size=calibration)
    noise = NoiseModel(0.01, 1e-3, 0.9, rng_seed=1) if draw(st.booleans()) else None
    exposure = draw(st.floats(0.5, 2.0))
    if kind == "mosaic":
        raw = simulate_trichromatic(random_scene(4 * h, 4 * w, 3, rng), noise=noise,
                                    calibration=calibration, exposure=exposure)
    else:
        wavelengths = 400.0 + 10.0 * np.arange(c) if draw(st.booleans()) else None
        angles = draw(st.sampled_from([default_qwp_angles(),
                                       np.deg2rad([10.0, -35.0, 70.0, -80.0, 20.0, 45.0])]))
        raw = simulate_hyperspectral(random_scene(h, w, c, rng, wavelengths=wavelengths), angles,
                                     noise=noise, calibration=calibration, exposure=exposure)
        order = draw(st.permutations(range(len(raw.tags))))
        raw = dataclasses.replace(raw, frames=raw.frames[order], tags=[raw.tags[k] for k in order])
    if draw(st.booleans()):
        raw = dataclasses.replace(raw, frames=raw.frames.astype(np.float32))
    return raw


@st.composite
def containers(draw):
    """Objects of every container kind, built from drawn sizes and seeds."""
    kind = draw(st.sampled_from(["stokes", "scalar", "normals", "sequential", "mosaic",
                                 "codebook", "encoding", "network"]))
    if kind in ("sequential", "mosaic"):
        return draw(raw_captures(kind))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    c = draw(st.integers(2 if kind == "normals" else 1, 4))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    wavelengths = 400.0 + 10.0 * np.arange(c) if draw(st.booleans()) else None
    mask = rng.uniform(size=(h, w, c)) < draw(st.floats(0.0, 1.0))
    if kind in ("stokes", "scalar"):
        data = rng.normal(size=(h, w, c, 4) if kind == "stokes" else (h, w, c))
        flat = data.reshape(-1)
        spots = rng.integers(0, flat.size, size=2)
        flat[spots] = rng.choice(SPECIALS, size=2)
        cls = StokesImage if kind == "stokes" else ScalarCube
        return cls(data.astype(dtype), wavelengths, mask)
    if kind == "normals":
        n = rng.normal(size=(h, w, c, 3))
        return NormalMapStack(n / np.linalg.norm(n, axis=-1, keepdims=True))
    if kind in ("codebook", "encoding"):
        img = random_scene(2 * h, 2 * w, c, rng, wavelengths=wavelengths)
        element = draw(st.sampled_from([None, 0, 3]))
        codebook = pca_fit_image(img, draw(st.integers(1, 2)), 1, element=element)
        return codebook if kind == "codebook" else pca_encode(img, codebook)
    return inr_init(draw(st.integers(2, 4)), draw(st.integers(1, 6)),
                    seed=draw(st.integers(0, 100)), k_spatial=draw(st.integers(0, 2)),
                    k_channel=draw(st.integers(0, 2)),
                    grid_shape=(h, w, c) if draw(st.booleans()) else None, dtype=dtype)
