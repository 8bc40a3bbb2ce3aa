"""Per-pixel least-squares Stokes estimation and quality metrics.

Each spectral channel contributes an m x 4 system whose row i is the
analyzer (intensity) row of configuration i.  The per-pixel estimate is
the least-squares minimizer of ``sum_i (I_i - a_i . s)^2``, applied as
the channel's 4 x m pseudo-inverse, computed once per channel and reused
across all pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _pool
from .camera import CaptureConfig, RawCapture, demosaic, demosaic_footprint, mosaic_split
from .errors import ConfigurationError, DimensionError, EmptySelectionError
from .image import StokesImage
from .stokes import DEFAULT_DOP_TOL, _within_bound

__all__ = [
    "QualityReport",
    "SystemMatrix",
    "burst_average",
    "median_filter",
    "quality",
    "reconstruct_image",
    "solve_stokes",
    "solve_stokes_per_pixel",
    "system_matrix",
]

#: A frame pixel at or above this fraction of the saturation level is
#: treated as saturated; one at or below ``2 * black_level`` as underexposed.
SATURATION_FRACTION = 0.998
UNDEREXPOSURE_MULTIPLIER = 2.0

#: ``median_filter`` copies at most this many window values at a time
#: (2 MiB of float64), so its scratch memory does not grow with the frame.
MEDIAN_BLOCK_VALUES = 1 << 18


@dataclass
class SystemMatrix:
    """An m x 4 measurement system with conditioning metadata.

    ``rank`` and ``condition_number`` come from the singular values, and
    the 4 x m pseudo-inverse ``pinv`` from the same decomposition, so
    thousands of per-pixel solves share one matrix product.
    """

    matrix: np.ndarray
    rank: int
    condition_number: float
    pinv: np.ndarray

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "SystemMatrix":
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 4:
            raise DimensionError(f"system matrix must be (m, 4), got {rows.shape}")
        if rows.shape[0] < 4:
            raise ConfigurationError("at least 4 measurement configurations required")
        u, sv, vt = np.linalg.svd(rows, full_matrices=False)
        tol = sv[0] * max(rows.shape) * np.finfo(float).eps
        rank = int(np.count_nonzero(sv > tol))
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
        inverse_sv = np.divide(1.0, sv, out=np.zeros_like(sv), where=sv > tol)
        return cls(rows, rank, cond, (vt.T * inverse_sv) @ u.T)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


def system_matrix(config: CaptureConfig, channel: int = 0) -> SystemMatrix:
    """Build and validate the measurement system of one channel.

    Raises
    ------
    ConfigurationError
        If fewer than 4 configurations are given or the system has rank
        below 4 (the diagnosis names the deficient rank).
    """
    if len(config.configs_for(channel)) < 4:
        raise ConfigurationError("at least 4 measurement configurations required")
    system = SystemMatrix.from_rows(config.rows(channel))
    if system.rank < 4:
        raise ConfigurationError(
            f"degenerate configuration: system rank {system.rank} < 4 "
            "(some Stokes components are unobservable)"
        )
    return system


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
    stokes = intensities @ system.pinv.T
    residual = np.linalg.norm(stokes @ system.matrix.T - intensities, axis=-1)
    return stokes, residual


def solve_stokes_per_pixel(matrices: np.ndarray, intensities: np.ndarray):
    """Batched solve for spatially varying systems (calibrated real data).

    ``matrices`` is (..., m, 4) and ``intensities`` (..., m); each pixel
    gets its own pseudo-inverse.
    """
    matrices = np.asarray(matrices, dtype=float)
    intensities = np.asarray(intensities, dtype=float)
    if matrices.shape[:-2] != intensities.shape[:-1] or matrices.shape[-1] != 4:
        raise DimensionError("matrices (..., m, 4) and intensities (..., m) must align")
    stokes = (np.linalg.pinv(matrices) @ intensities[..., None])[..., 0]
    residual = np.linalg.norm((matrices @ stokes[..., None])[..., 0] - intensities, axis=-1)
    return stokes, residual


def _bad_pixel_mask(frames, saturation_level, black_level):
    saturated = frames >= SATURATION_FRACTION * saturation_level
    underexposed = frames <= UNDEREXPOSURE_MULTIPLIER * black_level
    return saturated | underexposed


def _frame_indices(raw: RawCapture, config: CaptureConfig) -> list[list[int]]:
    """Per channel, the frame index of each configuration, from the tags."""
    if raw.tags is None:
        raise DimensionError("sequential capture requires (channel, config) tags")
    channels = sorted({c for c, _ in raw.tags})
    if channels != list(range(len(channels))):
        raise ConfigurationError("frame tags must cover channels 0..C-1")
    frame_of = {(c, i): k for k, (c, i) in enumerate(raw.tags)}
    indices = [[frame_of.get((c, i)) for i in range(len(config.configs_for(c)))]
               for c in channels]
    for c, frames in enumerate(indices):
        if None in frames:
            raise DimensionError(f"channel {c} is missing frames")
    return indices


def reconstruct_image(
    raw: RawCapture,
    config: CaptureConfig | None = None,
    dop_tol: float = DEFAULT_DOP_TOL,
) -> StokesImage:
    """Invert a capture into a Stokes cube with a validity mask.

    A pixel/channel is valid when its estimate passes the degree of
    polarization bound and no contributing intensity sample was
    saturated or underexposed.  Both cameras solve from a stack of
    (N, H, W) sample frames: a sequential capture's own frames, picked
    per channel by its tags, or a mosaic frame demosaiced into its 16
    segment planes, picked per color by the layout's cells.  A bad raw
    mosaic sample taints every pixel its interpolation reaches.
    """
    config = config or raw.config
    samples = raw.frames
    bad = _bad_pixel_mask(samples, raw.saturation_level, raw.black_level)
    if raw.layout is None:
        indices = _frame_indices(raw, config)
    else:
        indices = [[k for k, _ in raw.layout.cells_for_color(c)] for c in range(3)]
        bad = demosaic_footprint(bad[0])
        samples = demosaic(mosaic_split(samples[0]))

    pinvs = []
    for c, idx in enumerate(indices):
        system = system_matrix(config, c)
        if len(idx) != system.m:
            raise DimensionError(f"channel {c} has {len(idx)} samples for {system.m} rows")
        pinvs.append(system.pinv)

    h, w = raw.height, raw.width
    data = np.empty((h, w, len(indices), 4))
    mask = np.empty((h, w, len(indices)), dtype=bool)

    def solve_rows(lo, hi):
        for c, (idx, pinv) in enumerate(zip(indices, pinvs)):
            stokes = (pinv @ samples[idx, lo:hi].reshape(len(idx), -1)).T.reshape(hi - lo, w, 4)
            data[lo:hi, :, c, :] = stokes
            mask[lo:hi, :, c] = _within_bound(stokes, dop_tol) & ~bad[idx, lo:hi].any(axis=0)

    _pool.blocks(solve_rows, h, w * max(map(len, indices)))  # one channel's samples per row
    return StokesImage(data, raw.wavelengths, mask)


def burst_average(frames) -> np.ndarray:
    """Pixelwise arithmetic mean of repeated captures."""
    frames = [np.asarray(f) for f in frames]
    if len(frames) == 0:
        raise DimensionError("burst average of an empty frame list")
    shape = frames[0].shape
    if any(f.shape != shape for f in frames):
        raise DimensionError("all frames must share the same dimensions")
    return np.mean(np.stack(frames), axis=0)


def median_filter(frame: np.ndarray, k: int) -> np.ndarray:
    """k x k median of one 2-D frame with edge replication; k must be odd.

    Each output pixel is the middle element of its sorted, edge-padded
    k x k window, selected with a partial sort over blocks of rows; the
    dtype is kept and the result owns its data.
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
    middle = k * k // 2
    out = np.empty_like(frame)
    rows = max(1, MEDIAN_BLOCK_VALUES // (width * k * k))
    for top in range(0, height, rows):
        # The only copy of window values: a block of rows, partitioned in place.
        block = np.array(windows[top : top + rows], order="C").reshape(-1, width, k * k)
        block.partition(middle, axis=-1)
        out[top : top + rows] = block[..., middle]
    return out


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
    parts = {}

    def block(lo, hi):  # (C, 4) squared errors, per-channel counts and peak of jointly valid pixels
        joint = reference.mask[lo:hi] & test.mask[lo:hi]
        sq = test.data[lo:hi] - reference.data[lo:hi]
        sq *= sq
        np.copyto(sq, 0.0, where=~joint[..., None])
        parts[lo] = (sq.sum(axis=(0, 1)), np.count_nonzero(joint, axis=(0, 1)),
                     reference.data[lo:hi, ..., 0].max(where=joint, initial=-np.inf))

    h, w, c = reference.mask.shape
    _pool.blocks(block, h, w * c * 4)
    sums, counts, peak = 0, 0, -np.inf
    for lo in sorted(parts):  # in block order: the sums do not depend on the worker count
        sums, counts, peak = (sums + parts[lo][0], counts + parts[lo][1],
                              np.maximum(peak, parts[lo][2]))
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
