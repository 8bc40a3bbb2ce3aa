"""Per-pixel least-squares Stokes estimation and quality metrics.

Each spectral channel contributes an m x 4 system whose row i is the
analyzer (intensity) row of configuration i.  The per-pixel estimate is
the least-squares minimizer of ``sum_i (I_i - a_i . s)^2``, applied as
the channel's 4 x m pseudo-inverse from the capture's measurement
operator (``RawCapture.systems``); channels of equal m share one stacked
product per block of rows.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _pool
from .camera import (
    RawCapture,
    SystemMatrix,
    demosaic,
    demosaic_footprint,
    mosaic_merge,
    mosaic_split,
)
from .errors import ConfigurationError, DimensionError, EmptySelectionError
from .image import StokesImage
from .stokes import DEFAULT_DOP_TOL, _within_bound

__all__ = [
    "QualityReport",
    "burst_average",
    "denoise",
    "median_filter",
    "quality",
    "reconstruct_image",
    "solve_stokes",
]

#: A frame pixel at or above this fraction of the saturation level, or the level, is
#: saturated; one at or below ``2 * black_level``, or the level, underexposed.
SATURATION_FRACTION = 0.998
UNDEREXPOSURE_MULTIPLIER = 2.0


def solve_stokes(system: SystemMatrix, intensities: np.ndarray):
    """Least-squares Stokes estimate(s) from measured intensities.

    ``intensities`` is (m,) for one pixel or (..., m) batched.  Returns
    ``(stokes, residual_norm)`` with matching leading shape.
    """
    if system.rank < 4:
        raise ConfigurationError("cannot solve a rank-deficient system")
    intensities = np.asarray(intensities, dtype=float)
    if intensities.shape[-1] != system.m:
        raise DimensionError(
            f"expected {system.m} intensities per pixel, got {intensities.shape[-1]}"
        )
    if not np.all(np.isfinite(intensities)):
        raise ValueError("intensities must be finite")
    stokes = _solve(system.pinv[None], np.moveaxis(intensities, -1, 0)[None])[..., 0, :]
    residual = np.linalg.norm(stokes @ system.matrix.T - intensities, axis=-1)
    return stokes, residual


def _solve(pinvs, samples):
    """Stokes vectors (..., g, 4) of g channels' samples (g, m, ...) through (g, 4, m) pinvs."""
    g, m = samples.shape[:2]
    return (pinvs @ samples.reshape(g, m, -1)).transpose(2, 0, 1).reshape(*samples.shape[2:], g, 4)


def _bad_pixel_mask(samples, raw: RawCapture):
    saturated = samples >= min(raw.saturation_level, SATURATION_FRACTION * raw.saturation_level)
    underexposed = samples <= max(raw.black_level, UNDEREXPOSURE_MULTIPLIER * raw.black_level)
    return saturated | underexposed


def reconstruct_image(raw: RawCapture, dop_tol: float = DEFAULT_DOP_TOL) -> StokesImage:
    """Invert a capture into a Stokes cube with a validity mask.

    A pixel/channel is valid when its estimate passes the degree of
    polarization bound and no contributing intensity sample was
    saturated or underexposed.  Both cameras solve from (N, H, W) sample
    frames, a sequential capture's own or a mosaic's 16 demosaiced
    segment planes: per block of rows, one gather and one stacked product
    for all channels of equal row count.  A bad raw mosaic sample taints
    every pixel its interpolation reaches.  Each channel's planes and
    pseudo-inverse come from ``raw.systems``, which its construction built
    and validated.
    """
    samples, bad = raw.frames, None  # a sequential capture's blocks flag their own samples
    if raw.layout is not None:
        bad = demosaic_footprint(_bad_pixel_mask(samples[0], raw))
        samples = demosaic(mosaic_split(samples[0]))

    channels = len(raw.systems)
    groups = {}  # per row count m: the channels, their plane indices and 4 x m pseudo-inverses
    for c, (idx, system) in enumerate(raw.systems):
        groups.setdefault(len(idx), []).append((c, idx, system.pinv))
    # All channels as a slice: a basic-index copy into ``data`` beats a fancy one.
    groups = [(list(chans) if len(chans) < channels else slice(None), np.array(idx),
               np.stack(pinvs)) for chans, idx, pinvs in (zip(*g) for g in groups.values())]

    h, w = raw.height, raw.width
    data = np.empty((h, w, channels, 4))
    mask = np.empty((h, w, channels), dtype=bool)

    def solve_rows(lo, hi):
        for chans, idx, pinvs in groups:
            block = samples[idx, lo:hi]
            data[lo:hi, :, chans] = _solve(pinvs, block)
            flags = _bad_pixel_mask(block, raw) if bad is None else bad[idx, lo:hi]
            mask[lo:hi, :, chans] = ~flags.any(axis=1).transpose(1, 2, 0)
        mask[lo:hi] &= _within_bound(data[lo:hi], dop_tol)

    _pool.blocks(solve_rows, h, w * len(samples))  # every channel's samples per row
    return StokesImage(data, raw.wavelengths, mask)


def burst_average(frames) -> np.ndarray:
    """Pixelwise mean of repeated captures: their sum in input order over their count, bit
    for bit ``np.mean(np.stack(frames), axis=0)`` and its dtype, without the stacked copy."""
    frames = [np.asarray(f) for f in frames]
    if len(frames) == 0:
        raise DimensionError("burst average of an empty frame list")
    shape = frames[0].shape
    if any(f.shape != shape for f in frames):
        raise DimensionError("all frames must share the same dimensions")
    dtype = functools.reduce(np.promote_types, (f.dtype for f in frames))
    if dtype.kind not in "fc":
        dtype = np.dtype(float)  # np.mean averages integers and booleans in float64,
    total = frames[0].astype(np.promote_types(dtype, np.float32))  # and float16 in float32
    for frame in frames[1:]:
        total += frame
    total /= np.intp(len(frames))  # np.mean's count type, which sets the division's dtype
    return total.astype(dtype, copy=False)


def median_filter(frame: np.ndarray, k: int) -> np.ndarray:
    """k x k median of one 2-D frame with edge replication; k must be odd.

    Each output pixel is the middle element of its sorted, edge-padded
    k x k window, selected with a partial sort over row blocks on the block
    pool; the dtype is kept and the result owns its data.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError("median window size must be odd and >= 1")
    frame = np.asarray(frame)
    if frame.ndim != 2:
        raise DimensionError(f"median filter takes one 2-D frame, got shape {frame.shape}")
    if k == 1 or frame.size == 0:
        return frame.copy()
    padded = np.pad(frame, k // 2, mode="edge")
    windows = sliding_window_view(padded, (k, k))  # (H, W, k, k) view, no copy
    height, width = frame.shape
    out = np.empty_like(frame)

    def block(lo, hi):  # the only copy of window values: a block of rows, partitioned in place
        values = np.array(windows[lo:hi], order="C").reshape(-1, width, k * k)
        values.partition(k * k // 2, axis=-1)
        out[lo:hi] = values[..., k * k // 2]

    _pool.blocks(block, height, width * k * k)
    return out


def _setup(raw):
    """All of a capture but its frame values, as JSON: what every input of a burst shares."""
    setup = [raw.frames.shape] + [getattr(raw, f.name) for f in fields(raw) if f.name != "frames"]
    return json.dumps(setup, default=lambda o: o.tolist() if hasattr(o, "tolist") else vars(o))


def denoise(raws, median=None) -> RawCapture:
    """The mean of captures of one setup, then, if ``median`` is given, its k x k median.

    A capture whose setup, all but its frame values, is not the first one's raises
    ``ConfigurationError``; one capture is its own mean, bit for bit.  A mosaic is filtered per
    segment plane, so no window mixes analyzers or colours.  A sample an input flags keeps that
    input's value, so ``reconstruct_image`` masks each entry it reaches.  That is enough for a
    median: a clipped sample keeps its rank in its window, so an unclipped median is the median
    of the true values, and a clipped one is flagged.
    """
    for k, raw in enumerate(raws[1:], 1):
        if _setup(raw) != _setup(raws[0]):
            raise ConfigurationError(f"capture {k} differs from capture 0 in its configurations, "
                                     "calibration, exposure, tags or layout, wavelengths, levels "
                                     "or frame shape")
    frames = burst_average([raw.frames for raw in raws])
    if median is not None:  # each frame, or each segment plane of a mosaic, filtered in place
        mosaic = raws[0].layout is not None
        planes = mosaic_split(frames[0]) if mosaic else frames
        for plane in planes:
            plane[...] = median_filter(plane, median)
        if mosaic:
            frames[0] = mosaic_merge(planes)
    for raw in raws:
        np.copyto(frames, raw.frames, where=_bad_pixel_mask(raw.frames, raw))
    return replace(raws[0], frames=frames)


@dataclass
class QualityReport:
    """Reconstruction error metrics over jointly valid pixels.

    ``psnr = 10 log10(peak^2 / mse)`` with peak the maximum reference s0;
    identical images report ``inf``.
    """

    mse: float
    psnr: float
    element_psnr: np.ndarray
    channel_psnr: np.ndarray
    valid_fraction: float
    peak: float


def _psnr(peak, mse):
    if mse == 0.0:
        return np.inf
    return float(10.0 * np.log10(peak * peak / mse))


def quality(reference: StokesImage, test: StokesImage) -> QualityReport:
    """Compare a reconstruction against its reference."""
    if reference.data.shape != test.data.shape:
        raise DimensionError("reference and test cubes must have the same shape")

    def block(lo, hi):  # (C, 4) squared errors, per-channel counts and peak of jointly valid pixels
        joint = reference.mask[lo:hi] & test.mask[lo:hi]
        sq = test.data[lo:hi] - reference.data[lo:hi]
        sq *= sq
        np.copyto(sq, 0.0, where=~joint[..., None])
        return (sq.sum(axis=(0, 1)), np.count_nonzero(joint, axis=(0, 1)),
                reference.data[lo:hi, ..., 0].max(where=joint, initial=-np.inf))

    h, w, c = reference.mask.shape
    sums, counts, peak = 0, 0, -np.inf
    for part_sums, part_counts, part_peak in _pool.blocks(block, h, w * c * 4):
        sums, counts, peak = sums + part_sums, counts + part_counts, np.maximum(peak, part_peak)
    n = int(np.sum(counts))
    if n == 0:
        raise EmptySelectionError("no jointly valid pixels to compare")
    peak = float(peak)
    mse = float(sums.sum()) / (4 * n)
    element_psnr = np.array([_psnr(peak, float(e) / n) for e in sums.sum(axis=0)])
    channel_psnr = np.array([_psnr(peak, float(s) / (4 * k)) if k else np.nan
                             for s, k in zip(sums.sum(axis=1), counts)])
    return QualityReport(
        mse=mse,
        psnr=_psnr(peak, mse),
        element_psnr=element_psnr,
        channel_psnr=channel_psnr,
        valid_fraction=n / reference.mask.size,
        peak=peak,
    )
