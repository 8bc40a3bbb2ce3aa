"""Dataset statistics: element/feature histograms, gradient distributions
with angular wrapping, polarized/unpolarized intensity splits, projected
Poincare densities, and spectral-consistency statistics of normal maps.

All aggregations pool valid pixels only and accept an optional list of
per-image labels plus a LabelFilter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

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
        samples = np.asarray(samples).ravel().astype(float, copy=False)
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
        return [wrap_aolp_gradient(g) if feature == "aolp" else g]
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


def aolp_gradient(psi: np.ndarray):
    """Wrapped forward differences of an angle-of-linear-polarization plane.

    Input values must lie in (-pi/2, pi/2]; outputs lie in [-pi/2, pi/2].
    """
    psi = np.asarray(psi)
    if np.any(psi <= -np.pi / 2) or np.any(psi > np.pi / 2):
        raise ValueError("AoLP values must lie in (-pi/2, pi/2]")
    gx, gy = gradient_field(psi)
    return wrap_aolp_gradient(gx), wrap_aolp_gradient(gy)


class _Stat(NamedTuple):
    """One statistic: ``sample(img, lo, hi)`` gives the 1-D streams of rows lo:hi, one per label.

    ``span`` is the range they share when the caller gives none: fixed, or
    a rule on their lowest and highest samples; ``bins``, if set, goes with
    it.  A ``grid`` counts its two streams in the cells of [-1, 1]^2.  A
    ``name`` starts each of its empty-selection errors.
    """

    sample: Callable
    span: object
    labels: tuple
    unit: str = ""
    empty: str = _NO_PIXELS  # the error of a stream without samples
    bins: int | None = None
    grid: bool = False
    name: str = ""

    def empty_error(self, message=None):
        message = message or self.empty
        return EmptySelectionError(f"{self.name}: {message}" if self.name else message)


def _min_max(low, high):
    return float(low), float(high)


def _peak(low, high):
    """(-peak, peak) for the peak |sample|, or (-1, 1) when it is not positive."""
    peak = float(np.maximum(-low, high))
    return (-peak, peak) if peak > 0 else (-1.0, 1.0)


def _top(low, high):
    """(0, top) for the top sample, or (0, 1) when it is not positive."""
    return 0.0, float(high) if high > 0 else 1.0


def _plain(feature):
    return _Stat(_valid(feature), _min_max, (feature,), empty=f"no samples for {feature} histogram")


def _gradient(feature, direction="both"):
    """Feature gradients: AoLP's wrapped over [-pi/2, pi/2], chirality's in 5 unit bins."""
    _check_feature(feature)
    span, bins = {"aolp": ((-np.pi / 2, np.pi / 2), None),
                  "cop": ((-2.5, 2.5), 5)}.get(feature, (_peak, None))
    return _Stat(_gradients(feature, direction), span, (f"grad_{feature}",),
                 "rad" if feature == "aolp" else "", "no valid gradient samples after filtering",
                 bins)


# Every statistic that ``polarcube stats`` names, declared once.
_STATS = {
    "s0": _Stat(_valid("s0"), _min_max, ("s0",), "intensity"),
    **{e: _Stat(_valid(e), _peak, (e,)) for e in STOKES_ELEMENTS[1:]},
    **{e: _Stat(_valid(e), (-1.0, 1.0), (e,)) for e in NORMALIZED_ELEMENTS},
    "dolp": _plain("dolp"),
    "docp": _Stat(_valid("docp"), (0.0, 1.0), ("docp",)),
    "aolp": _plain("aolp"), "cop": _plain("cop"), "rho": _plain("rho"),
    **{f"{f}-gradient": _gradient(f) for f in FEATURES},
    "pol-unpol": _Stat(_pol_unpol, _top, ("polarized", "unpolarized"), "intensity"),
    **{f"poincare-s1{y}": _Stat(_valid("s1n", f"{y}n"), (-1.0, 1.0), ("s1_norm", f"{y}_norm"),
                                grid=True) for y in ("s2", "s3")},
}


def _walk(images, chosen, stats, bins, means=False):
    """``(result, mean)`` of each ``_Stat`` over the chosen images, all or none.

    The one accumulator behind every pooled statistic.  When some range is
    a rule, or with ``means``, a first pass takes those streams' count, min,
    max (NaN propagates) and, with ``means``, sum; a statistic without
    samples raises there.  The second pass counts, per block, the float64
    samples of the streams with samples in it (so ``np.histogram`` raises
    from a block), or the grid cells; the edges are built once, from the
    range and the bins.
    """
    spans, found = [s.span for s in stats], [None] * len(stats)
    ranged = [k for k, s in enumerate(stats) if means or callable(s.span)]

    def extents(img, lo, hi):
        return [[(v.size, v.min(), v.max(), v.sum(dtype=float) if means else 0) if v.size
                 else (0, np.inf, -np.inf, 0) for v in stats[k].sample(img, lo, hi)]
                for k in ranged]

    for k, streams in zip(ranged, _blocked(images, chosen, extents, _merge_extents)
                          if ranged else ()):
        counts, lows, highs, totals = zip(*streams)
        if counts[0] == 0:
            raise stats[k].empty_error()
        if callable(spans[k]):
            spans[k] = spans[k](min(lows), max(highs))
        found[k] = float(totals[0] / counts[0]) if means else None
    sizes = [s.bins or bins for s in stats]
    for s, size in zip(stats, sizes):
        if isinstance(size, str) and not s.grid:
            raise ValueError(f"bins must be a count or a sequence of edges, not {size!r}: "
                             "a bin-width estimator needs every pooled sample at once")
    spans = [_widened(r) for r in spans]

    def block(img, lo, hi):
        return [[_cells(*s.sample(img, lo, hi), size)] if s.grid
                else _bin(s.sample(img, lo, hi), size, span)
                for s, size, span in zip(stats, sizes, spans)]

    def merge(results):  # per statistic and stream, the sum of each count
        return [[[sum(part) for part in zip(*blocks)] for blocks in zip(*streams)]
                for streams in zip(*results)]

    counted = _blocked(images, chosen, block, merge)
    return [(_result(s, c, size, span), mean)
            for s, c, size, span, mean in zip(stats, counted, sizes, spans, found)]


def _blocked(images, chosen, block, combine):
    """``block(img, lo, hi)`` over the row blocks of the chosen images, combined.

    ``combine`` merges a list of results, in block order, into one after
    each image, which is indexed once: a sequence that reads on indexing
    holds one image at a time.  A block spans ``BLOCK_VALUES // (W * C)`` rows.
    """
    total = []
    for i in chosen:
        total = [combine(total + _image_blocks(images[i], block))]
    return total[0]


def _image_blocks(img, block):
    h, w, c = img.mask.shape
    # an image without rows still has its checks and dtypes
    return _pool.blocks(lambda lo, hi: block(img, lo, hi), h, w * c) or [block(img, 0, 0)]


def _merge_extents(results):
    return [[(sum(n), np.minimum.reduce(low), np.maximum.reduce(high), sum(total))
             for n, low, high, total in (zip(*blocks) for blocks in zip(*streams))]
            for streams in zip(*results)]


def _bin(streams, bins, span):
    """Per stream: count, and ``np.histogram``'s counts of its float64 samples (0 without any)."""
    return [(v.size, np.histogram(v.astype(float, copy=False), bins, span)[0] if v.size else 0)
            for v in streams]


def _result(stat, counted, size, span):
    """One statistic's result from its merged counts, each histogram with edges of its own."""
    if stat.grid:
        (n, inside, cells), = counted
        if n == 0 or inside == 0:
            raise stat.empty_error(None if n == 0 else "no valid points inside the projected ball")
        edges = np.linspace(-1.0, 1.0, size + 1)
        return DensityGrid(edges, edges.copy(), cells.reshape(size, size).astype(float),
                           *stat.labels)
    if any(n == 0 for n, _ in counted):
        raise stat.empty_error()
    hists = tuple(Histogram(np.histogram_bin_edges(np.empty(0), size, span), counts, label,
                            stat.unit) for (_, counts), label in zip(counted, stat.labels))
    return hists if len(hists) > 1 else hists[0]


def _widened(value_range):
    if value_range[0] == value_range[1]:
        return (value_range[0] - 1.0, value_range[1] + 1.0)
    return value_range


def _one(images, chosen, stat, bins, value_range=None):
    """A public statistic; a caller's range replaces the default range and its bins."""
    if value_range is not None:
        stat = stat._replace(span=value_range, bins=None)
    (result, _), = _walk(images, chosen, [stat], bins)
    return result


def stokes_histograms(images, element, bins=DEFAULT_BINS, value_range=None,
                      labels=None, label_filter=None) -> Histogram:
    """Histogram of one Stokes element pooled over images and channels."""
    if element not in STOKES_ELEMENTS + NORMALIZED_ELEMENTS:
        raise ValueError(f"element must be one of {STOKES_ELEMENTS + NORMALIZED_ELEMENTS}")
    return _one(images, _select(images, labels, label_filter), _STATS[element], bins, value_range)


def feature_gradient_histograms(images, feature, bins=DEFAULT_BINS, direction="both",
                                value_range=None, labels=None, label_filter=None) -> Histogram:
    """Log-probability-ready histogram of per-channel feature gradients.

    AoLP gradients are wrapped into [-pi/2, pi/2]; chirality gradients
    act on the sign field, taking values in {-2, -1, 0, 1, 2}.  A
    gradient sample requires both endpoint pixels valid.
    """
    if direction not in ("both", "x", "y"):
        raise ValueError("direction must be 'both', 'x' or 'y'")
    return _one(images, _select(images, labels, label_filter), _gradient(feature, direction),
                bins, value_range)


def pol_unpol_histograms(images, bins=DEFAULT_BINS, value_range=None,
                         labels=None, label_filter=None):
    """Histograms of the polarized (P) and unpolarized (U = s0 - P) parts."""
    return _one(images, _select(images, labels, label_filter), _STATS["pol-unpol"], bins,
                value_range)


def poincare_density(images, plane="s1-s2", grid=DEFAULT_BINS,
                     labels=None, label_filter=None) -> DensityGrid:
    """Normalized 2-D density of Poincare-ball projections on [-1, 1]^2."""
    if plane not in ("s1-s2", "s1-s3"):
        raise ValueError("plane must be 's1-s2' or 's1-s3'")
    return _one(images, _select(images, labels, label_filter),
                _STATS["poincare-" + plane.replace("-", "")], grid)


def docp_distribution(images, bins=DEFAULT_BINS, labels=None, label_filter=None) -> Histogram:
    """Histogram of the degree of circular polarization over [0, 1]."""
    return _one(images, _select(images, labels, label_filter), _STATS["docp"], bins)


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
