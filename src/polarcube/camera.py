"""Forward simulation of the two Stokes acquisition systems.

Hyperspectral path: a rotating quarter-wave plate in front of a fixed
tunable-filter linear polarizer, one frame per (channel, QWP angle).
Trichromatic path: a single shot through a 4x4 mosaic of Bayer color
filters, wire-grid polarizers and micro-retarders.

In both systems light passes the retarder first and the polarizer
second, so the recorded intensity is the first element of
``C @ P(theta2) @ Q(theta1) @ s`` with C an optional per-channel
calibration matrix.  The sensor sees only that first element; a
channel's first rows form its ``SystemMatrix``.  ``_channels`` maps each
channel to its sample planes and system: the simulators apply that map,
``RawCapture`` builds it as ``systems``, and reconstruction inverts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _pool
from .errors import ConfigurationError, DimensionError
from .image import StokesImage
from .stokes import lp_mueller, retarder_mueller

__all__ = [
    "CaptureConfig",
    "MeasurementConfig",
    "MosaicLayout",
    "NoiseModel",
    "RawCapture",
    "SystemMatrix",
    "add_noise",
    "analyzer_row",
    "default_qwp_angles",
    "demosaic",
    "demosaic_footprint",
    "mosaic_merge",
    "mosaic_split",
    "simulate_hyperspectral",
    "simulate_trichromatic",
    "system_matrix",
]

RED, GREEN, BLUE = 0, 1, 2


def default_qwp_angles() -> np.ndarray:
    """The four QWP fast-axis angles of the sequential system (radians)."""
    return np.deg2rad([30.0, -45.0, 60.0, -90.0])


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
        if not 0 < self.exposure < np.inf:
            raise ConfigurationError(f"exposure must be positive and finite, got {self.exposure}")
        shape = np.shape(self.calibration)
        if (self.calibration is not None and shape[-2:] != (4, 4)) or len(shape) > 3:
            raise ConfigurationError(f"calibration must be (4, 4) or (n, 4, 4), got {shape}")
        if not self.shared:
            self._check_channels(len(self.channel_configs))

    def _check_channels(self, n_channels):
        """Reject per-channel configuration lists or calibrations other than one per channel."""
        if not self.shared and len(self.channel_configs) != n_channels:
            raise ConfigurationError(f"{len(self.channel_configs)} configuration lists"
                                     f" for {n_channels} channels")
        if np.ndim(self.calibration) == 3 and len(self.calibration) != n_channels:
            raise ConfigurationError(f"calibration has {len(self.calibration)} matrices"
                                     f" for {n_channels} channels")

    @property
    def shared(self) -> bool:
        return isinstance(self.channel_configs[0], MeasurementConfig)

    def configs_for(self, channel: int) -> list[MeasurementConfig]:
        return list(self.channel_configs if self.shared else self.channel_configs[channel])

    def rows(self, channel: int) -> np.ndarray:
        """The channel's (m, 4) measurement rows, exposure included.

        Row i is the analyzer row of configuration i, so a channel Stokes
        vector s records the intensities ``rows(channel) @ s``; simulation
        applies these rows and reconstruction inverts them.
        """
        cal = None if self.calibration is None else np.asarray(self.calibration, dtype=float)
        cal = cal[channel] if np.ndim(cal) == 3 else cal
        rows = np.array([analyzer_row(cfg, cal) for cfg in self.configs_for(channel)])
        return rows * self.exposure

    @classmethod
    def hyperspectral(cls, qwp_angles, lp_angle=0.0, calibration=None, exposure=1.0):
        qwp_angles = np.atleast_1d(np.asarray(qwp_angles, dtype=float))
        configs = [
            MeasurementConfig(retarder_angle=a, retardance=np.pi / 2, polarizer_angle=lp_angle)
            for a in qwp_angles
        ]
        return cls(configs, calibration, exposure)


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

    ``_channels`` builds a capture's systems here, so a capture whose
    systems cannot be inverted is never built, written or read.

    Raises
    ------
    ConfigurationError
        If fewer than 4 configurations are given, an angle or a row is not
        finite, or the system has rank below 4 (the diagnosis names the
        channel and its rank).
    """
    try:
        rows = config.rows(channel)
    except ValueError as exc:  # an angle that is not finite
        raise ConfigurationError(f"channel {channel}: {exc}") from exc
    if not np.all(np.isfinite(rows)):  # a calibration entry or exposure that is not finite
        raise ConfigurationError(f"channel {channel} measurement rows are not finite")
    system = SystemMatrix.from_rows(rows)
    if system.rank < 4:
        raise ConfigurationError(
            f"degenerate configuration: channel {channel} system rank {system.rank} < 4"
            " (some Stokes components are unobservable)"
        )
    return system


def _channels(config: CaptureConfig, tags=None, layout=None) -> list:
    """A capture's measurement operator: ``(planes, system)`` of each channel.

    Channel c's planes hold its configurations in order: the frames tagged
    (c, 0), (c, 1), ..., or the mosaic segments of colour c, K ascending.
    Tags that do not name each configuration of channels 0..C-1 once raise
    ``DimensionError``; ``system_matrix`` refuses a system it cannot invert.
    Channels that share one configuration list and calibration share one system.
    """
    if layout is not None:
        planes = [layout.segments(color) for color in (RED, GREEN, BLUE)]
    else:
        n = len({c for c, _ in tags})
        config._check_channels(n)  # before configs_for reads a list per channel
        sizes = [len(config.configs_for(c)) for c in range(n)]
        index = {tag: k for k, tag in enumerate(tags)}
        want = {(c, i) for c, m in enumerate(sizes) for i in range(m)}
        if len(index) != len(tags) or index.keys() != want:
            raise DimensionError(
                f"{len(tags)} frame tags must name each configuration of channels 0..C-1 once:"
                f" {len(tags) - len(index)} repeated, missing {sorted(want - index.keys())[:4]},"
                f" unknown {sorted(index.keys() - want)[:4]}")
        planes = [np.array([index[c, i] for i in range(m)]) for c, m in enumerate(sizes)]
    if planes and config.shared and np.ndim(config.calibration) < 3:  # one row set for all
        system = system_matrix(config)  # a degenerate set names channel 0
        return [(k, system) for k in planes]
    return [(k, system_matrix(config, c)) for c, k in enumerate(planes)]


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
        _channels(self.capture_config(), layout=self)

    def segments(self, color: int) -> np.ndarray:
        """The segment indices K of one color's cells, ascending."""
        return np.flatnonzero(self.colors.ravel() == color)

    def capture_config(self, calibration=None, exposure=1.0) -> CaptureConfig:
        """Per-color CaptureConfig with channels ordered R, G, B, each K ascending."""
        cells = np.stack([self.retarder_angles, self.retardances, self.polarizer_angles], -1)
        return CaptureConfig([[MeasurementConfig(*map(float, cells.reshape(16, 3)[k]))
                               for k in self.segments(color)] for color in (RED, GREEN, BLUE)],
                             calibration, exposure)

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
        if not (0 <= self.gaussian_sigma < np.inf and 0 <= self.shot_gain < np.inf):
            raise ValueError("noise magnitudes must be finite and non-negative")
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


@dataclass(frozen=True)
class RawCapture:
    """Intensity frames plus everything needed to invert them.

    ``frames`` is (N, H, W).  A sequential capture has ``tags[k] =
    (channel, config index)`` of frame k, naming each configuration of
    channels 0..C-1 exactly once, with one configuration list per channel
    unless one list is shared.  A mosaic capture has a ``layout`` instead:
    one frame, sides divisible by 4, and the layout's configurations.
    Saturation/black levels record the clipping applied, black below
    saturation (±inf: none).  Construction builds ``systems``, the
    capture's measurement operator, and refuses anything else, so every
    capture can be written and inverted; the fields are frozen, so the
    operator stays the capture's.
    """

    frames: np.ndarray
    config: CaptureConfig
    tags: list | None = None
    layout: MosaicLayout | None = None
    wavelengths: np.ndarray | None = None
    saturation_level: float = np.inf
    black_level: float = -np.inf

    def __post_init__(self):
        object.__setattr__(self, "frames", np.asarray(self.frames))
        if self.frames.ndim != 3:
            raise DimensionError(f"frames must be (N, H, W), got {self.frames.shape}")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("frame intensities must be finite")
        if not self.black_level < self.saturation_level:  # NaN fails too
            raise ConfigurationError(f"black level {self.black_level} must lie below the"
                                     f" saturation level {self.saturation_level}")
        if (self.tags is None) == (self.layout is None):
            raise DimensionError("a capture has frame tags or a mosaic layout, not both or neither")
        if self.layout is not None:
            if self.frames.shape[0] != 1 or self.height % 4 or self.width % 4:
                raise DimensionError("a mosaic capture is one frame with sides divisible by 4,"
                                     f" got {self.frames.shape}")
            if self.config.channel_configs != self.layout.capture_config().channel_configs:
                raise ConfigurationError("raw capture configurations contradict its mosaic layout")
        elif len(self.tags) != self.frames.shape[0]:
            raise DimensionError(f"{len(self.tags)} frame tags for {self.frames.shape[0]} frames")
        channels = len(self.systems)
        if self.wavelengths is not None and np.shape(self.wavelengths) != (channels,):
            raise DimensionError(f"wavelength table has {np.shape(self.wavelengths)},"
                                 f" expected ({channels},)")

    @cached_property
    def systems(self) -> list:
        """``(planes, SystemMatrix)`` of each channel, built once (see ``_channels``)."""
        return _channels(self.config, self.tags, self.layout)

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]


def simulate_hyperspectral(
    scene: StokesImage,
    qwp_angles,
    lp_angle: float = 0.0,
    noise: NoiseModel | None = None,
    calibration=None,
    exposure: float = 1.0,
) -> RawCapture:
    """Sequential capture: one frame per (spectral channel, QWP angle).

    Every scene channel is one filter band, measured as given: channel
    c's frames are its measurement rows applied to its Stokes vectors.
    Each row block of all channels is measured in one stacked product.

    Raises
    ------
    ValueError
        If the scene's wavelength table is not finite and strictly increasing.
    """
    wl = scene.wavelengths
    if wl is not None and not (np.all(np.isfinite(wl)) and np.all(np.diff(wl) > 0)):
        raise ValueError("scene wavelength table must be finite and strictly increasing")
    config = CaptureConfig.hyperspectral(qwp_angles, lp_angle, calibration, exposure)
    n_channels, m = scene.channels, len(config.channel_configs)
    tags = [(c, i) for c in range(n_channels) for i in range(m)]
    rows = np.stack([system.matrix for _, system in _channels(config, tags)])  # (C, m, 4)

    h, w = scene.height, scene.width
    frames = np.empty((n_channels, m, h * w), np.result_type(rows, scene.data))

    def measure(lo, hi):  # frames (C, m, rows x W) of a row block, all channels at once
        planar = scene.data[lo:hi].reshape(-1, n_channels, 4).transpose(1, 2, 0)
        np.matmul(rows, planar, out=frames[:, :, lo * w:hi * w])

    _pool.blocks(measure, h, w * n_channels * (4 + m))
    wl = None if wl is None else wl.copy()
    return _capture(frames.reshape(len(tags), h, w), config, noise, tags=tags, wavelengths=wl)


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
    config = layout.capture_config(calibration, exposure)

    frame = np.empty((scene.height, scene.width))
    for color, (segments, system) in enumerate(_channels(config, layout=layout)):
        for k, row in zip(segments, system.matrix):  # segment K samples every 4th row and column
            i, j = divmod(k, 4)
            frame[i::4, j::4] = scene.data[i::4, j::4, color, :] @ row
    return _capture(frame[None], config, noise, layout=layout)


def _capture(frames, config, noise, **placement):
    """The capture of noiseless ``frames``: frame k takes ``noise`` with stream k, in place
    on the block pool, and the capture records the noise model's clipping levels."""
    sat, black = np.inf, -np.inf
    if noise is not None:
        def noisy(lo, hi):
            for k in range(lo, hi):
                _add_noise(frames[k], noise, k, out=frames[k])

        _pool.blocks(noisy, len(frames), frames[0].size)
        sat, black = noise.saturation_level, noise.black_level
    return RawCapture(frames, config, saturation_level=sat, black_level=black, **placement)


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


def _weights(offset: int, n: int):
    """Indices and weights of the two samples, at ``offset + 4i``, behind positions 0..4n-1."""
    x = np.arange(4 * n, dtype=float)
    lo = np.clip((x - offset) // 4, 0, max(n - 2, 0)).astype(int)
    t = (x - offset - 4 * lo) / 4 if n > 1 else np.zeros_like(x)
    return lo, np.minimum(lo + 1, n - 1), 1 - t, t


def _upsample(segments: np.ndarray) -> np.ndarray:
    """Separable linear upsampling of the 16 segments into (16, H, W) planes.

    Segment K's samples sit at rows ``K // 4 + 4r`` and columns
    ``K % 4 + 4c`` of plane K.  Columns, then rows, weigh the two nearest
    samples linearly and extrapolate past the outermost ones, where one
    weight is negative.  Boolean segments weigh by ``weight != 0``, AND and OR.
    """
    h, w = segments.shape[1:]
    full = np.empty((16, 4 * h, 4 * w), dtype=segments.dtype)
    rows = max(1, _pool.BLOCK_VALUES // (4 * w))  # row chunks keep temporaries block-sized

    def planes(lo, hi):
        for k in range(lo, hi):
            c0, c1, ca, cb = _weights(k % 4, w)
            r0, r1, ra, rb = _weights(k // 4, h)
            ca, cb, ra, rb = (v.astype(segments.dtype) for v in (ca, cb, ra, rb))
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
    uses a flagged sample of segment K: the same interpolation on boolean
    flags, where a sample counts when it is flagged and its weight is not 0.
    """
    return _upsample(mosaic_split(np.asarray(flags, dtype=bool)))
