"""Dataset statistics: element/feature histograms, gradient distributions
with angular wrapping, polarized/unpolarized intensity splits, projected
Poincare densities, and spectral-consistency statistics of normal maps.

All aggregations pool valid pixels only and accept an optional list of
per-image labels plus a LabelFilter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptySelectionError
from .image import NormalMapStack, StokesImage
from .labels import LabelFilter
from .stokes import _kernel

__all__ = [
    "DensityGrid",
    "Histogram",
    "NormalSpreadReport",
    "aolp_gradient",
    "docp_distribution",
    "feature_gradient_histograms",
    "feature_plane",
    "gradient_field",
    "normal_spectral_stddev",
    "poincare_density",
    "pol_unpol_histograms",
    "stokes_histograms",
    "wrap_aolp_gradient",
]

DEFAULT_BINS = 201

STOKES_ELEMENTS = ("s0", "s1", "s2", "s3")
NORMALIZED_ELEMENTS = ("s1n", "s2n", "s3n")
FEATURES = STOKES_ELEMENTS + NORMALIZED_ELEMENTS + ("dolp", "docp", "aolp", "cop", "rho")


@dataclass
class Histogram:
    """Uniform-bin histogram with an optional log-probability view."""

    edges: np.ndarray
    counts: np.ndarray
    label: str = "value"
    unit: str = ""

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def log_probability(self) -> np.ndarray:
        """log(count / total / binwidth); -inf on empty bins."""
        widths = np.diff(self.edges)
        with np.errstate(divide="ignore"):
            return np.log(self.counts / self.total / widths)

    @classmethod
    def from_samples(cls, samples, bins=DEFAULT_BINS, value_range=None,
                     label="value", unit=""):
        samples = np.asarray(samples).ravel()
        if samples.size == 0:
            raise EmptySelectionError(f"no samples for {label} histogram")
        if value_range is None:
            value_range = (float(samples.min()), float(samples.max()))
        if value_range[0] == value_range[1]:
            value_range = (value_range[0] - 1.0, value_range[1] + 1.0)
        counts, edges = np.histogram(samples, bins=bins, range=value_range)
        return cls(edges, counts, label, unit)


@dataclass
class DensityGrid:
    """2-D binned counts normalized so the fullest cell equals 1."""

    x_edges: np.ndarray
    y_edges: np.ndarray
    counts: np.ndarray
    x_label: str = "x"
    y_label: str = "y"

    @property
    def density(self) -> np.ndarray:
        peak = self.counts.max()
        if peak == 0:
            return self.counts.astype(float)
        return self.counts / peak


def _select(images, labels, label_filter):
    if labels is None:
        labels = [None] * len(images)
    if len(labels) != len(images):
        raise DimensionError("need one label set per image")
    if label_filter is None:
        label_filter = LabelFilter()
    chosen = [img for img, lab in zip(images, labels) if label_filter.matches(lab)]
    if not chosen:
        raise EmptySelectionError("label filter matched no images")
    return chosen


def feature_plane(img: StokesImage, feature: str):
    """Per-pixel feature values and their validity, preserving geometry.

    Returns ``(values, valid)`` with shapes (H, W, C); entries outside
    ``valid`` are zero-filled and must be ignored.  Stokes elements are
    valid under the mask; every other feature comes from the ``stokes``
    kernel behind ``features`` and ``normalize``, bit for bit, and is
    valid where the mask holds and s0 > 0.  AoLP additionally marks
    degenerate pixels (vanishing linear part) invalid.
    """
    if feature not in FEATURES:
        raise ValueError(f"unknown feature {feature!r}; expected one of {FEATURES}")
    if feature in STOKES_ELEMENTS:
        return img.data[..., STOKES_ELEMENTS.index(feature)].copy(), img.mask.copy()
    return _kernel(img.data, "psi" if feature == "aolp" else feature, img.mask)


def _pooled(images, feature, labels=None, label_filter=None):
    """Valid ``feature_plane`` values pooled over the selected images."""
    samples = []
    for img in _select(images, labels, label_filter):
        values, valid = feature_plane(img, feature)
        samples.append(values[valid])
    pooled = np.concatenate(samples)
    if pooled.size == 0:
        raise EmptySelectionError("no valid pixels after filtering")
    return pooled


def gradient_field(plane: np.ndarray):
    """Forward differences: gx (H, W-1) and gy (H-1, W)."""
    plane = np.asarray(plane)
    if plane.ndim != 2 or plane.shape[0] < 2 or plane.shape[1] < 2:
        raise DimensionError("gradient needs a 2-D plane of at least 2x2")
    return plane[:, 1:] - plane[:, :-1], plane[1:, :] - plane[:-1, :]


def wrap_aolp_gradient(g: np.ndarray) -> np.ndarray:
    """Fold angle differences into [-pi/2, pi/2] using the pi period."""
    g = np.asarray(g)
    return np.where(np.abs(g) > np.pi / 2, g - np.pi * np.sign(g), g)


def aolp_gradient(psi: np.ndarray):
    """Wrapped forward differences of an angle-of-linear-polarization plane.

    Input values must lie in (-pi/2, pi/2]; outputs lie in [-pi/2, pi/2].
    """
    psi = np.asarray(psi)
    if np.any(psi <= -np.pi / 2) or np.any(psi > np.pi / 2):
        raise ValueError("AoLP values must lie in (-pi/2, pi/2]")
    gx, gy = gradient_field(psi)
    return wrap_aolp_gradient(gx), wrap_aolp_gradient(gy)


def _gradient_samples(plane, valid, wrap, direction):
    gx, gy = gradient_field(plane)
    if wrap:
        gx, gy = wrap_aolp_gradient(gx), wrap_aolp_gradient(gy)
    ok_x = valid[:, 1:] & valid[:, :-1]
    ok_y = valid[1:, :] & valid[:-1, :]
    parts = []
    if direction in ("both", "x"):
        parts.append(gx[ok_x])
    if direction in ("both", "y"):
        parts.append(gy[ok_y])
    return np.concatenate(parts) if parts else np.empty(0)


def stokes_histograms(images, element, bins=DEFAULT_BINS, value_range=None,
                      labels=None, label_filter=None) -> Histogram:
    """Histogram of one Stokes element pooled over images and channels."""
    if element not in STOKES_ELEMENTS + NORMALIZED_ELEMENTS:
        raise ValueError(f"element must be one of {STOKES_ELEMENTS + NORMALIZED_ELEMENTS}")
    pooled = _pooled(images, element, labels, label_filter)
    if value_range is None:
        value_range = _default_range(element, pooled)
    return Histogram.from_samples(pooled, bins, value_range, label=element,
                                  unit="intensity" if element == "s0" else "")


def _default_range(feature, samples):
    if feature in NORMALIZED_ELEMENTS:
        return (-1.0, 1.0)
    if feature == "s0":
        return (float(samples.min()), float(samples.max()))
    peak = float(np.max(np.abs(samples)))
    return (-peak, peak) if peak > 0 else (-1.0, 1.0)


def feature_gradient_histograms(images, feature, bins=DEFAULT_BINS, direction="both",
                                value_range=None, labels=None, label_filter=None) -> Histogram:
    """Log-probability-ready histogram of per-channel feature gradients.

    AoLP gradients are wrapped into [-pi/2, pi/2]; chirality gradients
    act on the sign field, taking values in {-2, -1, 0, 1, 2}.  A
    gradient sample requires both endpoint pixels valid.
    """
    if direction not in ("both", "x", "y"):
        raise ValueError("direction must be 'both', 'x' or 'y'")
    samples = []
    for img in _select(images, labels, label_filter):
        values, valid = feature_plane(img, feature)
        for c in range(img.channels):
            samples.append(_gradient_samples(values[:, :, c], valid[:, :, c],
                                             feature == "aolp", direction))
    pooled = np.concatenate(samples)
    if pooled.size == 0:
        raise EmptySelectionError("no valid gradient samples after filtering")
    if value_range is None:
        if feature == "aolp":
            value_range = (-np.pi / 2, np.pi / 2)
        elif feature == "cop":
            value_range, bins = (-2.5, 2.5), 5
        else:
            peak = float(np.max(np.abs(pooled)))
            value_range = (-peak, peak) if peak > 0 else (-1.0, 1.0)
    return Histogram.from_samples(pooled, bins, value_range, label=f"grad_{feature}",
                                  unit="rad" if feature == "aolp" else "")


def pol_unpol_histograms(images, bins=DEFAULT_BINS, value_range=None,
                         labels=None, label_filter=None):
    """Histograms of the polarized (P) and unpolarized (U = s0 - P) parts."""
    pol_samples, unpol_samples = [], []
    for img in _select(images, labels, label_filter):
        pol, valid = _kernel(img.data, "pol", img.mask)
        pol_samples.append(pol[valid])
        unpol_samples.append((img.data[..., 0] - pol)[valid])
    pol_all = np.concatenate(pol_samples)
    unpol_all = np.concatenate(unpol_samples)
    if pol_all.size == 0:
        raise EmptySelectionError("no valid pixels after filtering")
    if value_range is None:
        top = float(max(pol_all.max(), unpol_all.max()))
        value_range = (0.0, top if top > 0 else 1.0)
    return (
        Histogram.from_samples(pol_all, bins, value_range, label="polarized", unit="intensity"),
        Histogram.from_samples(unpol_all, bins, value_range, label="unpolarized",
                               unit="intensity"),
    )


def poincare_density(images, plane="s1-s2", grid=DEFAULT_BINS,
                     labels=None, label_filter=None) -> DensityGrid:
    """Normalized 2-D density of Poincare-ball projections on [-1, 1]^2."""
    if plane not in ("s1-s2", "s1-s3"):
        raise ValueError("plane must be 's1-s2' or 's1-s3'")
    x = _pooled(images, "s1n", labels, label_filter)
    y = _pooled(images, "s2n" if plane == "s1-s2" else "s3n", labels, label_filter)
    inside = (np.abs(x) <= 1.0) & (np.abs(y) <= 1.0)
    if not inside.any():
        raise EmptySelectionError("no valid points inside the projected ball")
    if grid < 1:
        raise ValueError(f"grid must be a positive number of bins, got {grid}")
    edges = np.linspace(-1.0, 1.0, grid + 1)
    cells = _unit_bins(x[inside], edges) * grid + _unit_bins(y[inside], edges)
    counts = np.bincount(cells, minlength=grid * grid).reshape(grid, grid).astype(float)
    return DensityGrid(edges, edges.copy(), counts, "s1_norm",
                       "s2_norm" if plane == "s1-s2" else "s3_norm")


def _unit_bins(values, edges):
    """Bin index of each value in [-1, 1] among uniform ``edges``, last bin closed.

    The arithmetic guess is corrected against the edges as ``np.histogram``
    does, so the counts equal ``np.histogram2d``'s.
    """
    n = len(edges) - 1
    index = ((values + 1.0) / 2.0 * n).astype(np.intp)
    index[index == n] -= 1
    index[values < edges[index]] -= 1
    index[(values >= edges[index + 1]) & (index != n - 1)] += 1
    return index


def docp_distribution(images, bins=DEFAULT_BINS, labels=None, label_filter=None) -> Histogram:
    """Histogram of the degree of circular polarization over [0, 1]."""
    pooled = _pooled(images, "docp", labels, label_filter)
    return Histogram.from_samples(pooled, bins, (0.0, 1.0), label="docp")


@dataclass
class NormalSpreadReport:
    """Per-pixel spectral spread of estimated surface normals.

    Cartesian spreads are population standard deviations across channels;
    the azimuth spread is circular (wrapped deviations about the circular
    mean) and the elevation spread is plain.  Histograms of each spread
    image accompany the arrays.
    """

    std_x: np.ndarray
    std_y: np.ndarray
    std_z: np.ndarray
    std_azimuth: np.ndarray
    std_elevation: np.ndarray
    histograms: dict


def _circular_std(angles, axis):
    mean = np.arctan2(np.sin(angles).sum(axis=axis), np.cos(angles).sum(axis=axis))
    dev = angles - np.expand_dims(mean, axis)
    dev = np.mod(dev + np.pi, 2.0 * np.pi) - np.pi
    return np.sqrt(np.mean(dev * dev, axis=axis))


def normal_spectral_stddev(stack: NormalMapStack, bins=DEFAULT_BINS) -> NormalSpreadReport:
    """Spectral variation of normal maps, per pixel and as distributions."""
    n = stack.data  # (H, W, C, 3)
    std_xyz = n.std(axis=2)  # population std across channels
    azimuth = np.arctan2(n[..., 1], n[..., 0])
    elevation = np.arcsin(np.clip(n[..., 2], -1.0, 1.0))
    std_az = _circular_std(azimuth, axis=2)
    std_el = elevation.std(axis=2)
    histograms = {
        "std_x": Histogram.from_samples(std_xyz[..., 0], bins, (0.0, 1.0), "std_x"),
        "std_y": Histogram.from_samples(std_xyz[..., 1], bins, (0.0, 1.0), "std_y"),
        "std_z": Histogram.from_samples(std_xyz[..., 2], bins, (0.0, 1.0), "std_z"),
        "std_azimuth": Histogram.from_samples(std_az, bins, (0.0, np.pi), "std_azimuth", "rad"),
        "std_elevation": Histogram.from_samples(std_el, bins, (0.0, np.pi / 2),
                                                "std_elevation", "rad"),
    }
    return NormalSpreadReport(std_xyz[..., 0], std_xyz[..., 1], std_xyz[..., 2],
                              std_az, std_el, histograms)
