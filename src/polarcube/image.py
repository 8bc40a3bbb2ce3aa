"""In-memory image cubes: Stokes cubes, scalar cubes, and normal-map stacks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError

__all__ = ["StokesImage", "ScalarCube", "NormalMapStack"]


def _check_table_and_mask(cube, shape):
    """Make a cube's wavelength table float and its mask boolean (all True if None), or raise
    unless they fit the cube's (H, W, C) ``shape``."""
    if cube.wavelengths is not None:
        cube.wavelengths = np.asarray(cube.wavelengths, dtype=float)
        if cube.wavelengths.shape != shape[2:]:
            raise DimensionError(f"wavelength table has {cube.wavelengths.shape},"
                                 f" expected {shape[2:]}")
    cube.mask = np.ones(shape, dtype=bool) if cube.mask is None else np.asarray(cube.mask, bool)
    if cube.mask.shape != shape:
        raise DimensionError(f"mask shape {cube.mask.shape} does not match data {shape}")


@dataclass
class StokesImage:
    """A height x width x channels x 4 Stokes cube with a validity mask.

    data
        float array (H, W, C, 4).
    wavelengths
        (C,) array in nm, or None for channels without a wavelength
        assignment (e.g. RGB).
    mask
        bool array (H, W, C); False marks pixels excluded from every
        statistic.  Defaults to all-valid.
    """

    data: np.ndarray
    wavelengths: np.ndarray | None = None
    mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 4 or self.data.shape[-1] != 4:
            raise DimensionError(f"Stokes cube must be (H, W, C, 4), got {self.data.shape}")
        _check_table_and_mask(self, self.data.shape[:3])

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    def valid_fraction(self) -> float:
        """Share of valid (pixel, channel) entries; 0.0 for a cube with none."""
        return float(np.count_nonzero(self.mask)) / self.mask.size if self.mask.size else 0.0

    def copy(self) -> "StokesImage":
        wl = None if self.wavelengths is None else self.wavelengths.copy()
        return StokesImage(self.data.copy(), wl, self.mask.copy())


@dataclass
class ScalarCube:
    """A height x width x channels cube of scalar values (e.g. intensity)."""

    data: np.ndarray
    wavelengths: np.ndarray | None = None
    mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 3:
            raise DimensionError(f"scalar cube must be (H, W, C), got {self.data.shape}")
        _check_table_and_mask(self, self.data.shape)


@dataclass
class NormalMapStack:
    """Per-channel unit-normal images, shape (H, W, C, 3).

    Every normal must have unit length within ``norm_tol``.
    """

    data: np.ndarray
    norm_tol: float = 1e-3

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 4 or self.data.shape[-1] != 3:
            raise DimensionError(f"normal stack must be (H, W, C, 3), got {self.data.shape}")
        if self.data.shape[2] < 2:
            raise DimensionError("normal stack needs at least 2 channels")
        norms = np.linalg.norm(self.data, axis=-1)
        if not np.all(np.abs(norms - 1.0) <= self.norm_tol):
            worst = float(np.max(np.abs(norms - 1.0)))
            raise ValueError(f"normals must be unit length (worst deviation {worst:.2e})")

    @property
    def channels(self) -> int:
        return self.data.shape[2]
