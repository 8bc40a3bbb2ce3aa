"""Forward simulation of the two Stokes acquisition systems.

Hyperspectral path: a rotating quarter-wave plate in front of a fixed
tunable-filter linear polarizer, one frame per (channel, QWP angle).
Trichromatic path: a single shot through a 4x4 mosaic of Bayer color
filters, wire-grid polarizers and micro-retarders.

In both systems light passes the retarder first and the polarizer
second, so the recorded intensity is the first element of
``C @ P(theta2) @ Q(theta1) @ s`` with C an optional per-channel
calibration matrix.  The sensor sees only that first element; the
per-configuration first rows are what the reconstruction module inverts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _pool
from .errors import ConfigurationError, DimensionError, SamplingGridError
from .image import StokesImage
from .stokes import lp_mueller, retarder_mueller

__all__ = [
    "CaptureConfig",
    "MeasurementConfig",
    "MosaicLayout",
    "NoiseModel",
    "RawCapture",
    "SpectralResponse",
    "add_noise",
    "analyzer_row",
    "default_qwp_angles",
    "demosaic",
    "demosaic_footprint",
    "lctf_responses",
    "measure_intensity",
    "mosaic_merge",
    "mosaic_split",
    "simulate_hyperspectral",
    "simulate_trichromatic",
    "trichromatic_responses",
]

RED, GREEN, BLUE = 0, 1, 2


def default_qwp_angles() -> np.ndarray:
    """The four QWP fast-axis angles of the sequential system (radians)."""
    return np.deg2rad([30.0, -45.0, 60.0, -90.0])


# ---------------------------------------------------------------------------
# spectral responses


@dataclass
class SpectralResponse:
    """Sampled per-channel transmission curve over wavelength (nm).

    ``unit_area`` responses keep the physical transmission in [0, 1] but
    scale the quadrature weights so the band integral of a flat unit
    spectrum is exactly 1 (the convention the default channel filters
    use, making the round trip through band integration lossless).
    """

    wavelengths: np.ndarray
    transmission: np.ndarray
    unit_area: bool = False

    def __post_init__(self):
        self.wavelengths = np.asarray(self.wavelengths, dtype=float)
        self.transmission = np.asarray(self.transmission, dtype=float)
        if self.wavelengths.ndim != 1 or self.wavelengths.shape != self.transmission.shape:
            raise DimensionError("response grid and transmission must be matching 1-D arrays")
        if self.wavelengths.size >= 2 and not np.all(np.diff(self.wavelengths) > 0):
            raise ValueError("wavelength grid must be strictly increasing")
        if np.any(self.transmission < 0) or np.any(self.transmission > 1):
            raise ValueError("transmission values must lie in [0, 1]")
        if self.unit_area and self.transmission.sum() <= 0:
            raise ValueError("response has zero area on this grid")

    @classmethod
    def box(cls, center, width, grid, normalize=True):
        """Box filter of the given full width, optionally unit-area."""
        grid = np.asarray(grid, dtype=float)
        t = (np.abs(grid - center) <= width / 2.0).astype(float)
        return cls(grid, t, unit_area=normalize)

    @classmethod
    def gaussian(cls, center, fwhm, grid, normalize=True):
        """Gaussian filter specified by its full width at half maximum."""
        grid = np.asarray(grid, dtype=float)
        sigma = fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
        t = np.exp(-0.5 * ((grid - center) / sigma) ** 2)
        return cls(grid, t, unit_area=normalize)

    def band_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights times transmission."""
        w = _trapezoid_weights(self.wavelengths) * self.transmission
        if self.unit_area:
            w = w / w.sum()
        return w


def _trapezoid_weights(grid):
    if grid.size == 1:
        return np.ones(1)
    w = np.zeros_like(grid)
    d = np.diff(grid)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def lctf_responses(wavelengths, width=None):
    """Unit-area box responses, one per channel, on the channel grid."""
    wavelengths = np.asarray(wavelengths, dtype=float)
    if width is None:
        width = float(np.min(np.diff(wavelengths))) if wavelengths.size >= 2 else 1.0
    return [SpectralResponse.box(c, width, wavelengths) for c in wavelengths]


def trichromatic_responses(grid=None, centers=(610.0, 540.0, 465.0), fwhm=30.0):
    """Gaussian R/G/B responses (FWHM 30 nm) for spectral experiments."""
    if grid is None:
        grid = np.arange(400.0, 701.0, 5.0)
    return [SpectralResponse.gaussian(c, fwhm, grid) for c in centers]


# ---------------------------------------------------------------------------
# measurement configurations


@dataclass(frozen=True)
class MeasurementConfig:
    """One polarization-filter configuration (angles in radians)."""

    retarder_angle: float
    retardance: float
    polarizer_angle: float


def analyzer_row(config: MeasurementConfig, calibration=None) -> np.ndarray:
    """Intensity row of the element chain for one configuration.

    First row of ``C @ P(theta2) @ Q(theta1)``; dotting it with a Stokes
    vector gives the recorded intensity.
    """
    m = lp_mueller(config.polarizer_angle) @ retarder_mueller(
        config.retarder_angle, config.retardance
    )
    if calibration is not None:
        m = np.asarray(calibration, dtype=float) @ m
    return m[0]


@dataclass
class CaptureConfig:
    """The per-channel configuration sets and calibration of a capture.

    ``channel_configs`` is either one list shared by all channels or a
    list of lists, one per channel.  ``calibration`` is None (ideal), a
    single 4x4 matrix, or one matrix per channel.
    """

    channel_configs: list
    calibration: object = None
    exposure: float = 1.0

    def __post_init__(self):
        if len(self.channel_configs) == 0:
            raise ConfigurationError("at least one measurement configuration required")
        if self.exposure <= 0:
            raise ConfigurationError("exposure must be positive")

    @property
    def shared(self) -> bool:
        return isinstance(self.channel_configs[0], MeasurementConfig)

    def configs_for(self, channel: int) -> list[MeasurementConfig]:
        return list(self.channel_configs if self.shared else self.channel_configs[channel])

    def calibration_for(self, channel: int):
        if self.calibration is None:
            return None
        cal = np.asarray(self.calibration, dtype=float)
        if cal.ndim == 2:
            return cal
        return cal[channel]

    def rows(self, channel: int) -> np.ndarray:
        """The channel's (m, 4) measurement rows, exposure included.

        Row i is the analyzer row of configuration i, so a channel Stokes
        vector s records the intensities ``rows(channel) @ s``; simulation
        applies these rows and reconstruction inverts them.
        """
        cal = self.calibration_for(channel)
        rows = np.array([analyzer_row(cfg, cal) for cfg in self.configs_for(channel)])
        return rows * self.exposure

    @classmethod
    def hyperspectral(cls, qwp_angles, lp_angle=0.0, calibration=None, exposure=1.0):
        qwp_angles = np.atleast_1d(np.asarray(qwp_angles, dtype=float))
        if qwp_angles.size == 0:
            raise ConfigurationError("QWP angle list is empty")
        configs = [
            MeasurementConfig(retarder_angle=a, retardance=np.pi / 2, polarizer_angle=lp_angle)
            for a in qwp_angles
        ]
        return cls(configs, calibration, exposure)


# ---------------------------------------------------------------------------
# mosaic layout


@dataclass
class MosaicLayout:
    """4x4 superpixel table of the single-shot trichromatic sensor.

    Each cell holds (Bayer color, polarizer axis, retarder fast axis,
    retardance).  Pixel (n, m) belongs to segment
    ``K = (n mod 4) * 4 + (m mod 4)``.  Construction checks the 4/8/4
    R/G/B census and that each color's configuration set can see all
    four Stokes components (rank 4).
    """

    colors: np.ndarray
    polarizer_angles: np.ndarray
    retarder_angles: np.ndarray
    retardances: np.ndarray

    def __post_init__(self):
        self.colors = np.asarray(self.colors, dtype=int)
        self.polarizer_angles = np.asarray(self.polarizer_angles, dtype=float)
        self.retarder_angles = np.asarray(self.retarder_angles, dtype=float)
        self.retardances = np.asarray(self.retardances, dtype=float)
        for name in ("colors", "polarizer_angles", "retarder_angles", "retardances"):
            if getattr(self, name).shape != (4, 4):
                raise DimensionError(f"{name} must be a 4x4 table")
        counts = np.bincount(self.colors.ravel(), minlength=3)
        if tuple(counts) != (4, 8, 4):
            raise ConfigurationError(
                f"superpixel must hold 4 R, 8 G, 4 B cells, got {tuple(counts)}"
            )
        config = self.capture_config()
        for color in (RED, GREEN, BLUE):
            rank = np.linalg.matrix_rank(config.rows(color))
            if rank < 4:
                raise ConfigurationError(
                    f"color {color} configuration set is rank-deficient (rank {rank} < 4)"
                )

    @staticmethod
    def segment_index(n: int, m: int) -> int:
        return (n % 4) * 4 + (m % 4)

    def cell(self, i: int, j: int) -> MeasurementConfig:
        return MeasurementConfig(
            retarder_angle=float(self.retarder_angles[i, j]),
            retardance=float(self.retardances[i, j]),
            polarizer_angle=float(self.polarizer_angles[i, j]),
        )

    def cells_for_color(self, color: int):
        """(segment index, configuration) pairs of one color, K ascending."""
        out = []
        for i in range(4):
            for j in range(4):
                if self.colors[i, j] == color:
                    out.append((i * 4 + j, self.cell(i, j)))
        return out

    def capture_config(self, calibration=None, exposure=1.0) -> CaptureConfig:
        """Per-color CaptureConfig with channels ordered R, G, B."""
        per_channel = [
            [cfg for _, cfg in self.cells_for_color(color)] for color in (RED, GREEN, BLUE)
        ]
        return CaptureConfig(per_channel, calibration, exposure)

    @classmethod
    def default(cls):
        """RGGB Bayer tiling, wire grids {90,45,135,0} deg per 2x2 block,
        retarder fast axes alternating {0,90} deg by column pair, 45 deg
        retardance."""
        bayer = np.array([[RED, GREEN], [GREEN, BLUE]])
        colors = np.tile(bayer, (2, 2))
        block_pol = np.deg2rad([[90.0, 45.0], [135.0, 0.0]])
        pol = np.repeat(np.repeat(block_pol, 2, axis=0), 2, axis=1)
        ret_axis = np.deg2rad(np.array([[0.0, 0.0, 90.0, 90.0]] * 4))
        retardance = np.full((4, 4), np.deg2rad(45.0))
        return cls(colors, pol, ret_axis, retardance)


# ---------------------------------------------------------------------------
# noise


@dataclass
class NoiseModel:
    """Additive Gaussian + signal-proportional noise with clipping.

    out = clip(in + N(0, sigma^2 + shot_gain * in), black, saturation);
    the draw is keyed by (rng_seed, frame stream) so parallel and serial
    frame generation produce identical bits.
    """

    gaussian_sigma: float = 0.0
    shot_gain: float = 0.0
    saturation_level: float = 1.0
    black_level: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.gaussian_sigma < 0 or self.shot_gain < 0:
            raise ValueError("noise magnitudes must be non-negative")
        if not self.black_level < self.saturation_level:
            raise ValueError("black level must lie below the saturation level")

    def stream(self, index: int) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.rng_seed, spawn_key=(index,))
        return np.random.default_rng(seq)


def add_noise(frame: np.ndarray, model: NoiseModel, stream: int = 0) -> np.ndarray:
    """Apply the noise model to one frame (deterministic per stream)."""
    return _add_noise(np.asarray(frame, dtype=float), model, stream)


def _add_noise(frame, model, stream, out=None):
    """``add_noise`` of a float frame, into ``out`` if given; a block may call it."""
    if model.gaussian_sigma == 0.0 and model.shot_gain == 0.0:
        return np.clip(frame, model.black_level, model.saturation_level, out=out)
    # frame + sqrt(sigma^2 + gain * max(frame, 0)) * draw, in place on the draw
    noisy = model.stream(stream).standard_normal(frame.shape)
    variance = np.maximum(frame, 0.0)
    variance *= model.shot_gain
    variance += model.gaussian_sigma**2
    noisy *= np.sqrt(variance, out=variance)
    noisy += frame
    return np.clip(noisy, model.black_level, model.saturation_level, out=out)


# ---------------------------------------------------------------------------
# captures


@dataclass
class RawCapture:
    """Intensity frames plus everything needed to invert them.

    ``frames`` is (N, H, W); ``tags[k] = (channel, config index)`` for
    sequential captures, None for a single mosaic frame (then ``layout``
    is set).  Saturation/black levels record the clipping applied.
    """

    frames: np.ndarray
    config: CaptureConfig
    tags: list | None = None
    layout: MosaicLayout | None = None
    wavelengths: np.ndarray | None = None
    saturation_level: float = np.inf
    black_level: float = -np.inf

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 3:
            raise DimensionError(f"frames must be (N, H, W), got {self.frames.shape}")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("frame intensities must be finite")
        if self.tags is not None and len(self.tags) != self.frames.shape[0]:
            raise DimensionError("one (channel, config) tag per frame required")

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]


def measure_intensity(wavelengths, spectrum, config: MeasurementConfig,
                      response: SpectralResponse, calibration=None) -> float:
    """Recorded intensity for one spectral Stokes distribution.

    ``spectrum`` is (L, 4), sampled on exactly the response's wavelength
    grid; the channel Stokes vector is the trapezoidal integral of
    transmission * spectrum, and the intensity is the analyzer row dotted
    with it.
    """
    wavelengths = np.asarray(wavelengths, dtype=float)
    spectrum = np.asarray(spectrum, dtype=float)
    if wavelengths.shape != response.wavelengths.shape or not np.array_equal(
        wavelengths, response.wavelengths
    ):
        raise SamplingGridError("spectrum must be sampled on the response grid")
    if spectrum.shape != (wavelengths.size, 4):
        raise DimensionError(f"spectrum must be (L, 4), got {spectrum.shape}")
    band = response.band_weights() @ spectrum
    return float(analyzer_row(config, calibration) @ band)


def _band_matrix(scene: StokesImage, responses) -> np.ndarray:
    """(C_out, L) matrix mapping scene spectral samples to channel bands."""
    grid = scene.wavelengths
    if grid is None:
        grid = np.arange(scene.channels, dtype=float)
    if responses is None:
        responses = lctf_responses(grid)
    weights = np.empty((len(responses), grid.size))
    for c, resp in enumerate(responses):
        if not np.array_equal(resp.wavelengths, grid):
            raise SamplingGridError("response grids must match the scene wavelengths")
        weights[c] = resp.band_weights()
    return weights


def simulate_hyperspectral(
    scene: StokesImage,
    qwp_angles,
    lp_angle: float = 0.0,
    noise: NoiseModel | None = None,
    calibration=None,
    exposure: float = 1.0,
    responses=None,
) -> RawCapture:
    """Sequential capture: one frame per (spectral channel, QWP angle).

    By default each channel's response is a unit-area box on the scene's
    own wavelength grid, i.e. the band-integrated Stokes vector equals
    the scene channel exactly; pass ``responses`` for overlapping bands.
    """
    config = CaptureConfig.hyperspectral(qwp_angles, lp_angle, calibration, exposure)
    weights = _band_matrix(scene, responses)
    n_channels = weights.shape[0]

    rows = np.stack([config.rows(c) for c in range(n_channels)])  # (C, m, 4)
    if np.any(np.linalg.matrix_rank(rows) < 4):
        raise ConfigurationError("QWP/LP angle set yields a rank-deficient system")

    band = np.matmul(weights, scene.data)  # (H, W, C, 4)
    band = band.reshape(-1, n_channels, 4).transpose(1, 2, 0)  # (C, 4, H*W)
    frames = np.empty((n_channels, rows.shape[1], band.shape[2]), np.result_type(rows, band))
    for c in range(n_channels):
        np.matmul(rows[c], band[c], out=frames[c])
    frames = frames.reshape(-1, scene.height, scene.width)
    tags = [(c, i) for c in range(n_channels) for i in range(rows.shape[1])]

    sat, black = np.inf, -np.inf
    if noise is not None:
        def noisy(lo, hi):
            for k in range(lo, hi):
                _add_noise(frames[k], noise, k, out=frames[k])

        _pool.blocks(noisy, len(frames), frames[0].size)
        sat, black = noise.saturation_level, noise.black_level
    wl = None
    if scene.wavelengths is not None and responses is None:
        wl = scene.wavelengths.copy()
    return RawCapture(frames, config, tags=tags, wavelengths=wl,
                      saturation_level=sat, black_level=black)


def simulate_trichromatic(
    scene: StokesImage,
    layout: MosaicLayout | None = None,
    noise: NoiseModel | None = None,
    calibration=None,
    exposure: float = 1.0,
) -> RawCapture:
    """Single-shot mosaic capture of a 3-channel (R, G, B) Stokes scene."""
    if layout is None:
        layout = MosaicLayout.default()
    if scene.channels != 3:
        raise DimensionError("trichromatic simulation expects a 3-channel scene")
    if scene.height % 4 or scene.width % 4:
        raise DimensionError("scene dimensions must be divisible by 4")
    config = layout.capture_config(calibration, exposure)

    frame = np.empty((scene.height, scene.width))
    for color in (RED, GREEN, BLUE):
        for (k, _), row in zip(layout.cells_for_color(color), config.rows(color)):
            i, j = divmod(k, 4)
            frame[i::4, j::4] = scene.data[i::4, j::4, color, :] @ row

    sat, black = np.inf, -np.inf
    if noise is not None:
        frame = add_noise(frame, noise, stream=0)
        sat, black = noise.saturation_level, noise.black_level
    return RawCapture(frame[None], config, layout=layout,
                      saturation_level=sat, black_level=black)


# ---------------------------------------------------------------------------
# mosaic segmentation and demosaicing


def mosaic_split(frame: np.ndarray) -> np.ndarray:
    """Split a mosaic frame into its 16 segments, ordered by segment index."""
    frame = np.asarray(frame)
    if frame.ndim != 2 or frame.shape[0] % 4 or frame.shape[1] % 4:
        raise DimensionError("mosaic frame dimensions must be 2-D and divisible by 4")
    h, w = frame.shape[0] // 4, frame.shape[1] // 4
    return frame.reshape(h, 4, w, 4).transpose(1, 3, 0, 2).copy().reshape(16, h, w)


def mosaic_merge(segments: np.ndarray) -> np.ndarray:
    """Inverse of mosaic_split (bit-exact)."""
    segments = np.asarray(segments)
    if segments.shape[0] != 16:
        raise DimensionError("expected 16 segments")
    h, w = segments.shape[1], segments.shape[2]
    return segments.reshape(4, 4, h, w).transpose(2, 0, 3, 1).copy().reshape(4 * h, 4 * w)


def _weights(offset: int, n: int, absolute: bool):
    """Indices and weights of the two samples, at ``offset + 4i``, behind positions 0..4n-1."""
    x = np.arange(4 * n, dtype=float)
    lo = np.clip((x - offset) // 4, 0, max(n - 2, 0)).astype(int)
    t = (x - offset - 4 * lo) / 4 if n > 1 else np.zeros_like(x)
    a, b = (np.abs(1 - t), np.abs(t)) if absolute else (1 - t, t)
    return lo, np.minimum(lo + 1, n - 1), a, b


def _upsample(segments: np.ndarray, absolute: bool = False) -> np.ndarray:
    """Separable linear upsampling of the 16 segments into (16, H, W) planes.

    Segment K's samples sit at rows ``K // 4 + 4r`` and columns
    ``K % 4 + 4c`` of plane K.  Columns, then rows, weigh the two nearest
    samples linearly and extrapolate past the outermost ones, where one
    weight is negative; ``absolute`` takes the weights' magnitudes.
    """
    h, w = segments.shape[1:]
    full = np.empty((16, 4 * h, 4 * w))
    rows = max(1, _pool.BLOCK_VALUES // (4 * w))  # row chunks keep temporaries block-sized

    def planes(lo, hi):
        for k in range(lo, hi):
            c0, c1, ca, cb = _weights(k % 4, w, absolute)
            r0, r1, ra, rb = _weights(k // 4, h, absolute)
            up = segments[k][:, c0] * ca + segments[k][:, c1] * cb
            for top in range(0, 4 * h, rows):
                part = slice(top, top + rows)
                np.multiply(up[r0[part]], ra[part, None], out=full[k, part])
                full[k, part] += up[r1[part]] * rb[part, None]

    _pool.blocks(planes, 16, full[0].size)
    return full


def demosaic(segments: np.ndarray) -> np.ndarray:
    """Bilinearly upsample the 16 segments back to full resolution.

    Returns (16, H, W) frames; plane K holds segment K's intensities at
    every pixel, with original sample sites preserved exactly.
    """
    segments = np.asarray(segments, dtype=float)
    if segments.ndim != 3 or segments.shape[0] != 16:
        raise DimensionError("expected (16, H/4, W/4) segments of equal dims")
    return _upsample(segments)


def demosaic_footprint(flags: np.ndarray) -> np.ndarray:
    """Where ``demosaic`` gives flagged samples of a mosaic frame nonzero weight.

    Plane K of the (16, H, W) result marks the pixels whose plane-K value
    uses a flagged sample of segment K: the same interpolation on 0/1
    flags with the weights' magnitudes, whose terms cannot cancel.
    """
    return _upsample(mosaic_split(np.asarray(flags, dtype=float)), absolute=True) != 0
