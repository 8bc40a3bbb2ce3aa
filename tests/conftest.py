import contextlib
import dataclasses
import struct

import numpy as np
from hypothesis import strategies as st

from polarcube import (
    InrModel,
    NoiseModel,
    NormalMapStack,
    PcaCodebook,
    PcaEncoding,
    RawCapture,
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
VALUE_DTYPES = [np.float16, np.float32, np.float64, np.int16, np.int32, np.int64, np.bool_]
OTHER_FLOAT = {np.float32: np.float64, np.float64: np.float32}


def in_dtype(values, dtype):
    """Float ``values`` of about unit scale in ``dtype``: booleans as ``values > 0.5``, integers
    rounded after scaling by 2^10, 2^26 or 2^44, so that float32 cannot hold most int32 or int64
    ones and float64 holds them all."""
    if np.dtype(dtype).kind == "b":
        return values > 0.5
    if np.dtype(dtype).kind == "i":
        values = np.rint(values * {2: 2.0**10, 4: 2.0**26, 8: 2.0**44}[np.dtype(dtype).itemsize])
    return values.astype(dtype)


def value_arrays(obj):
    """The arrays a container stores in its one value dtype: cube data, frames, codec and
    network tensors."""
    if isinstance(obj, PcaEncoding):
        return value_arrays(obj.codebook) + [obj.coefficients]
    if isinstance(obj, PcaCodebook):
        return [obj.mean, obj.basis, obj.sigma]
    if isinstance(obj, InrModel):
        return obj.weights + obj.biases
    return [obj.frames if isinstance(obj, RawCapture) else obj.data]


def as_stored(obj, dtype=None):
    """``obj`` with its value arrays in the dtype its container stores them in: float32 when
    every one of them casts safely to float32, float64 otherwise."""
    if dtype is None:
        f32 = all(np.can_cast(a.dtype, np.float32) for a in value_arrays(obj))
        dtype = np.float32 if f32 else np.float64
    if isinstance(obj, PcaEncoding):
        return dataclasses.replace(obj, codebook=as_stored(obj.codebook, dtype),
                                   coefficients=obj.coefficients.astype(dtype))
    if isinstance(obj, PcaCodebook):
        return dataclasses.replace(obj, mean=obj.mean.astype(dtype),
                                   basis=obj.basis.astype(dtype), sigma=obj.sigma.astype(dtype))
    if isinstance(obj, InrModel):
        return dataclasses.replace(obj, weights=[w.astype(dtype) for w in obj.weights],
                                   biases=[b.astype(dtype) for b in obj.biases])
    if isinstance(obj, RawCapture):
        return dataclasses.replace(obj, frames=obj.frames.astype(dtype))
    return dataclasses.replace(obj, data=obj.data.astype(dtype))


@st.composite
def raw_captures(draw, kind=None):
    """Sequential or mosaic captures: drawn scenes, calibrations, exposures, noise and dtypes.

    A sequential capture has 1-4 channels, 4 or 6 QWP angles and its frames in a drawn order;
    calibration is none, one matrix or one per channel; frames are in one of ``VALUE_DTYPES``.
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
    frames = in_dtype(raw.frames, draw(st.sampled_from(VALUE_DTYPES), label="frame dtype"))
    return dataclasses.replace(raw, frames=frames)


@st.composite
def containers(draw):
    """Objects of every container kind, built from drawn sizes, seeds and dtypes.

    Cube data is in one of ``VALUE_DTYPES``; a codec's mean, sigma and coefficients and a
    network's biases are each in its basis's or weights' float dtype or in the other one.
    """
    kind = draw(st.sampled_from(["stokes", "scalar", "normals", "sequential", "mosaic",
                                 "codebook", "encoding", "network"]))
    if kind in ("sequential", "mosaic"):
        return draw(raw_captures(kind))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    c = draw(st.integers(2 if kind == "normals" else 1, 4))
    wavelengths = 400.0 + 10.0 * np.arange(c) if draw(st.booleans()) else None
    mask = rng.uniform(size=(h, w, c)) < draw(st.floats(0.0, 1.0))
    if kind in ("stokes", "scalar"):
        data = in_dtype(rng.normal(size=(h, w, c, 4) if kind == "stokes" else (h, w, c)),
                        draw(st.sampled_from(VALUE_DTYPES), label="data dtype"))
        if data.dtype.kind == "f":
            flat = data.reshape(-1)
            flat[rng.integers(0, flat.size, size=2)] = rng.choice(SPECIALS, size=2)
        cls = StokesImage if kind == "stokes" else ScalarCube
        return cls(data, wavelengths, mask)
    if kind == "normals":
        n = rng.normal(size=(h, w, c, 3))
        return NormalMapStack(n / np.linalg.norm(n, axis=-1, keepdims=True))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    if kind in ("codebook", "encoding"):
        img = random_scene(2 * h, 2 * w, c, rng, wavelengths=wavelengths)
        element = draw(st.sampled_from([None, 0, 3]))
        codebook = pca_fit_image(img, draw(st.integers(1, 2)), 1, element=element)
        coefficients = pca_encode(img, codebook).coefficients
        mixed = {name: draw(st.sampled_from([dtype, OTHER_FLOAT[dtype]]), label=f"{name} dtype")
                 for name in ("mean", "sigma", "coefficients")}
        codebook = dataclasses.replace(codebook, mean=codebook.mean.astype(mixed["mean"]),
                                       basis=codebook.basis.astype(dtype),
                                       sigma=codebook.sigma.astype(mixed["sigma"]))
        if kind == "codebook":
            return codebook
        return PcaEncoding(codebook, coefficients.astype(mixed["coefficients"]), img.height,
                           img.width, img.wavelengths)
    model = inr_init(draw(st.integers(2, 4)), draw(st.integers(1, 6)),
                     seed=draw(st.integers(0, 100)), k_spatial=draw(st.integers(0, 2)),
                     k_channel=draw(st.integers(0, 2)),
                     grid_shape=(h, w, c) if draw(st.booleans()) else None, dtype=dtype)
    bias_dtype = draw(st.sampled_from([dtype, OTHER_FLOAT[dtype]]))
    return dataclasses.replace(model, biases=[rng.normal(size=b.shape).astype(bias_dtype)
                                              for b in model.biases])
