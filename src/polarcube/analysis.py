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
from . import _pool
from .stokes import _formula, _kernel

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
        counts, edges = np.histogram(samples, bins=bins, range=_widened(value_range))
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


_NO_PIXELS = "no valid pixels after filtering"


def _select(images, labels, label_filter):
    """Indices of the images whose labels pass the filter; images are not indexed."""
    if labels is None:
        labels = [None] * len(images)
    if len(labels) != len(images):
        raise DimensionError("need one label set per image")
    if label_filter is None:
        label_filter = LabelFilter()
    chosen = [i for i, lab in enumerate(labels) if label_filter.matches(lab)]
    if not chosen:
        raise EmptySelectionError("label filter matched no images")
    return chosen


def _check_feature(feature):
    if feature not in FEATURES:
        raise ValueError(f"unknown feature {feature!r}; expected one of {FEATURES}")


def feature_plane(img: StokesImage, feature: str):
    """Per-pixel feature values and their validity, preserving geometry.

    Returns ``(values, valid)`` with shapes (H, W, C); entries outside
    ``valid`` are zero-filled and must be ignored.  Stokes elements are
    valid under the mask; every other feature comes from the ``stokes``
    kernel behind ``features`` and ``normalize``, bit for bit, and is
    valid where the mask holds and s0 > 0.  AoLP additionally marks
    degenerate pixels (vanishing linear part) invalid.
    """
    _check_feature(feature)
    if feature in STOKES_ELEMENTS:
        return img.data[..., STOKES_ELEMENTS.index(feature)].copy(), img.mask.copy()
    return _kernel(img.data, "psi" if feature == "aolp" else feature, img.mask)


def _plane(s, mask, name):
    """``feature_plane`` of the rows ``s`` under ``mask``; Stokes elements are views."""
    if name in STOKES_ELEMENTS:
        return s[..., STOKES_ELEMENTS.index(name)], mask
    values, valid = np.zeros(mask.shape), np.empty(mask.shape, dtype=bool)
    _formula(s, "psi" if name == "aolp" else name, mask, values, valid)
    return values, valid


def _blocked(images, chosen, sample, reduce, combine):
    """``reduce(sample(img, lo, hi))`` over the row blocks of the chosen images, combined.

    The accumulator behind every pooled statistic.  ``sample`` returns the
    1-D sample streams of rows lo:hi, and ``reduce`` shrinks them inside
    the block, in the block pool.  ``combine`` merges a list of results, in
    block order, into one; it runs after each image, so memory holds one
    image and its blocks' results.  A block spans ``BLOCK_VALUES // (W *
    C)`` rows: the feature values of a row, not its Stokes values, so
    per-block binning overhead stays small.  Each image is indexed once,
    so a sequence that reads on indexing holds one image at a time.
    """
    total = []
    for i in chosen:
        total = [combine(total + _image_blocks(images[i], sample, reduce))]
    return total[0]


def _image_blocks(img, sample, reduce):
    def block(lo, hi):
        return reduce(sample(img, lo, hi))

    h, w, c = img.mask.shape
    # an image without rows still has its checks and dtypes
    return _pool.blocks(block, h, w * c) or [block(0, 0)]


def _extents(images, chosen, sample, sums=False):
    """Per stream: sample count, min, max (inf and -inf without samples; NaN propagates), sum."""
    def reduce(streams):
        return [(v.size, v.min(), v.max(), v.sum() if sums else 0) if v.size
                else (0, np.inf, -np.inf, 0) for v in streams]

    def combine(results):
        return [(sum(n), np.minimum.reduce(low), np.maximum.reduce(high), sum(total))
                for n, low, high, total in (zip(*blocks) for blocks in zip(*results))]

    return _blocked(images, chosen, sample, reduce, combine)


def _binned(images, chosen, sample, bins, ranges, dtypes=None):
    """Per stream: sample count and ``np.histogram(samples, bins, range)``, summed over blocks.

    A block bins only the streams that have samples, so ``np.histogram``
    raises its argument errors from a block, and a stream without samples
    reaches ``_histogram``'s emptiness check, with ``(0, None)`` for its
    counts and edges.  Streams whose blocks differ in dtype are binned
    again in their common dtype, as a concatenation is.
    """
    if isinstance(bins, str):
        raise ValueError(f"bins must be a count or a sequence of edges, not {bins!r}: "
                         "a bin-width estimator needs every pooled sample at once")
    ranges = [_widened(r) for r in ranges]

    def reduce(streams):
        if dtypes:
            streams = [v.astype(t, copy=False) for v, t in zip(streams, dtypes)]
        return [(v.size, {v.dtype}, *(np.histogram(v, bins, r) if v.size else (0, None)))
                for v, r in zip(streams, ranges)]

    def combine(results):
        binned = []
        for blocks in zip(*results):
            n, kinds, counts, edges = zip(*blocks)
            edges = [e for e in edges if e is not None] or [None]
            binned.append((sum(n), set().union(*kinds), sum(counts), edges[0]))
        return binned

    binned = _blocked(images, chosen, sample, reduce, combine)
    if any(len(kinds) > 1 for _, kinds, _, _ in binned):
        return _binned(images, chosen, sample, bins, ranges,
                       [np.result_type(*kinds) for _, kinds, _, _ in binned])
    return [(n, counts, edges) for n, _, counts, edges in binned]


def _widened(value_range):
    if value_range[0] == value_range[1]:
        return (value_range[0] - 1.0, value_range[1] + 1.0)
    return value_range


def _histogram(binned, empty, label, unit=""):
    n, counts, edges = binned
    if n == 0:
        raise EmptySelectionError(empty)
    return Histogram(edges, counts, label, unit)


def _symmetric(low, high):
    """(-peak, peak) for the peak |sample|, or (-1, 1) when it is not positive."""
    peak = float(np.maximum(-low, high))
    return (-peak, peak) if peak > 0 else (-1.0, 1.0)


def _valid(*names):
    """Sampler of the valid values of each named feature, or of ``"pol"``."""
    def sample(img, lo, hi):
        s, mask = img.data[lo:hi], img.mask[lo:hi]
        return [values[valid] for values, valid in (_plane(s, mask, n) for n in names)]
    return sample


def _pol_unpol(img, lo, hi):
    """Sampler of the polarized (P) and unpolarized (U = s0 - P) parts."""
    pol, valid = _plane(img.data[lo:hi], img.mask[lo:hi], "pol")
    pol = pol[valid]
    return [pol, img.data[lo:hi, ..., 0][valid] - pol]


def _gradients(feature, direction):
    """Sampler of per-channel forward differences whose two ends are valid."""
    def sample(img, lo, hi):
        h, w, c = img.mask.shape
        if c and (h < 2 or w < 2):
            raise DimensionError("gradient needs a 2-D plane of at least 2x2")
        # one row past the block for the y differences of its last row
        values, valid = _plane(img.data[lo:hi + 1], img.mask[lo:hi + 1], feature)
        parts = []
        if direction in ("both", "x"):
            parts.append(_differences(values[:hi - lo].swapaxes(0, 1),
                                      valid[:hi - lo].swapaxes(0, 1)))
        if direction in ("both", "y"):
            parts.append(_differences(values, valid))
        g = np.concatenate(parts)
        return [_wrap_aolp(g) if feature == "aolp" else g]
    return sample


def _differences(values, valid):
    both = valid[1:] & valid[:-1]
    return values[1:][both] - values[:-1][both]


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


_wrap_aolp = wrap_aolp_gradient  # bound at import: blocks must not reach a traced public name


def aolp_gradient(psi: np.ndarray):
    """Wrapped forward differences of an angle-of-linear-polarization plane.

    Input values must lie in (-pi/2, pi/2]; outputs lie in [-pi/2, pi/2].
    """
    psi = np.asarray(psi)
    if np.any(psi <= -np.pi / 2) or np.any(psi > np.pi / 2):
        raise ValueError("AoLP values must lie in (-pi/2, pi/2]")
    gx, gy = gradient_field(psi)
    return wrap_aolp_gradient(gx), wrap_aolp_gradient(gy)


def stokes_histograms(images, element, bins=DEFAULT_BINS, value_range=None,
                      labels=None, label_filter=None) -> Histogram:
    """Histogram of one Stokes element pooled over images and channels."""
    if element not in STOKES_ELEMENTS + NORMALIZED_ELEMENTS:
        raise ValueError(f"element must be one of {STOKES_ELEMENTS + NORMALIZED_ELEMENTS}")
    chosen = _select(images, labels, label_filter)
    sample = _valid(element)
    if value_range is None and element in NORMALIZED_ELEMENTS:
        value_range = (-1.0, 1.0)
    elif value_range is None:
        (n, low, high, _), = _extents(images, chosen, sample)
        if n == 0:
            raise EmptySelectionError(_NO_PIXELS)
        value_range = (float(low), float(high)) if element == "s0" else _symmetric(low, high)
    binned, = _binned(images, chosen, sample, bins, [value_range])
    return _histogram(binned, _NO_PIXELS, element, "intensity" if element == "s0" else "")


def _feature_histograms(images, names, bins, empty=_NO_PIXELS):
    """Each named feature's histogram over its min..max and its mean, all or none.

    The ``stats`` and ``features`` commands share this path.  The first
    feature without valid values raises ``EmptySelectionError(empty.format(name))``.
    """
    chosen = _select(images, None, None)
    sample = _valid(*names)
    extents = _extents(images, chosen, sample, sums=True)
    ranges = [(float(low), float(high)) if n else (0.0, 1.0) for n, low, high, _ in extents]
    binned = _binned(images, chosen, sample, bins, ranges)
    return [(_histogram(b, empty.format(name), name), float(total / max(n, 1)))
            for name, (n, _, _, total), b in zip(names, extents, binned)]


def feature_gradient_histograms(images, feature, bins=DEFAULT_BINS, direction="both",
                                value_range=None, labels=None, label_filter=None) -> Histogram:
    """Log-probability-ready histogram of per-channel feature gradients.

    AoLP gradients are wrapped into [-pi/2, pi/2]; chirality gradients
    act on the sign field, taking values in {-2, -1, 0, 1, 2}.  A
    gradient sample requires both endpoint pixels valid.
    """
    if direction not in ("both", "x", "y"):
        raise ValueError("direction must be 'both', 'x' or 'y'")
    chosen = _select(images, labels, label_filter)
    _check_feature(feature)
    sample = _gradients(feature, direction)
    empty = "no valid gradient samples after filtering"
    if value_range is None and feature == "aolp":
        value_range = (-np.pi / 2, np.pi / 2)
    elif value_range is None and feature == "cop":
        value_range, bins = (-2.5, 2.5), 5
    elif value_range is None:
        (n, low, high, _), = _extents(images, chosen, sample)
        if n == 0:
            raise EmptySelectionError(empty)
        value_range = _symmetric(low, high)
    binned, = _binned(images, chosen, sample, bins, [value_range])
    return _histogram(binned, empty, f"grad_{feature}", "rad" if feature == "aolp" else "")


def pol_unpol_histograms(images, bins=DEFAULT_BINS, value_range=None,
                         labels=None, label_filter=None):
    """Histograms of the polarized (P) and unpolarized (U = s0 - P) parts."""
    chosen = _select(images, labels, label_filter)
    if value_range is None:
        (n, _, pol_top, _), (_, _, unpol_top, _) = _extents(images, chosen, _pol_unpol)
        if n == 0:
            raise EmptySelectionError(_NO_PIXELS)
        top = float(max(pol_top, unpol_top))
        value_range = (0.0, top if top > 0 else 1.0)
    pol, unpol = _binned(images, chosen, _pol_unpol, bins, [value_range] * 2)
    return (_histogram(pol, _NO_PIXELS, "polarized", "intensity"),
            _histogram(unpol, _NO_PIXELS, "unpolarized", "intensity"))


def poincare_density(images, plane="s1-s2", grid=DEFAULT_BINS,
                     labels=None, label_filter=None) -> DensityGrid:
    """Normalized 2-D density of Poincare-ball projections on [-1, 1]^2."""
    if plane not in ("s1-s2", "s1-s3"):
        raise ValueError("plane must be 's1-s2' or 's1-s3'")
    chosen = _select(images, labels, label_filter)
    sample = _valid("s1n", "s2n" if plane == "s1-s2" else "s3n")
    n, inside, cells = _blocked(images, chosen, sample, lambda xy: _cells(*xy, grid),
                                lambda results: [sum(part) for part in zip(*results)])
    if n == 0:
        raise EmptySelectionError(_NO_PIXELS)
    if inside == 0:
        raise EmptySelectionError("no valid points inside the projected ball")
    edges = np.linspace(-1.0, 1.0, grid + 1)
    counts = cells.reshape(grid, grid).astype(float)
    return DensityGrid(edges, edges.copy(), counts, "s1_norm",
                       "s2_norm" if plane == "s1-s2" else "s3_norm")


def _cells(x, y, grid):
    """One block's point count, count inside [-1, 1]^2 and flat cell counts (0 if none inside)."""
    inside = (np.abs(x) <= 1.0) & (np.abs(y) <= 1.0)
    x, y = x[inside], y[inside]
    if x.size == 0:
        return inside.size, 0, 0
    if grid < 1:
        raise ValueError(f"grid must be a positive number of bins, got {grid}")
    edges = np.linspace(-1.0, 1.0, grid + 1)
    return inside.size, x.size, np.bincount(_unit_bins(x, edges) * grid + _unit_bins(y, edges),
                                            minlength=grid * grid)


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
    chosen = _select(images, labels, label_filter)
    binned, = _binned(images, chosen, _valid("docp"), bins, [(0.0, 1.0)])
    return _histogram(binned, _NO_PIXELS, "docp")


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
