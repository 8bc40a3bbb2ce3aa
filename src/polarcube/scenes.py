"""Synthetic Stokes scenes for simulation, tests, and demos."""

from __future__ import annotations

import numpy as np

from .image import StokesImage

__all__ = ["lctf_wavelengths", "random_scene", "smooth_scene", "uniform_scene"]


def lctf_wavelengths(channels: int = 21) -> np.ndarray:
    """Default spectral sampling: from 450 nm in 10 nm steps (450-650 nm for 21 channels)."""
    return 450.0 + 10.0 * np.arange(channels, dtype=float)


def _scene(data, wavelengths):
    """The scene of ``data``; a 21-channel one without a table gets ``lctf_wavelengths``."""
    if wavelengths is None and data.shape[2] == 21:
        wavelengths = lctf_wavelengths(21)
    return StokesImage(data, wavelengths)


def uniform_scene(height, width, channels, stokes=(1.0, 0.0, 0.0, 0.0), wavelengths=None):
    """Constant Stokes vector everywhere."""
    data = np.broadcast_to(np.asarray(stokes, dtype=float), (height, width, channels, 4)).copy()
    return _scene(data, wavelengths)


def random_scene(
    height,
    width,
    channels,
    rng,
    s0_range=(0.3, 1.0),
    rho_max=0.9,
    wavelengths=None,
):
    """Independent random valid Stokes vectors per pixel per channel.

    s0 is uniform in ``s0_range``; the polarized part has uniform degree
    of polarization in [0, rho_max] and a direction uniform on the
    Poincare sphere, so every vector satisfies rho <= rho_max < 1.
    """
    if not 0.0 <= rho_max < 1.0:
        raise ValueError(f"rho_max must lie in [0, 1), got {rho_max}")
    shape = (height, width, channels)
    s0 = rng.uniform(*s0_range, size=shape)
    rho = rng.uniform(0.0, rho_max, size=shape)
    direction = rng.normal(size=shape + (3,))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    data = np.empty(shape + (4,))
    data[..., 0] = s0
    np.multiply(direction, (rho * s0)[..., None], out=data[..., 1:])
    return _scene(data, wavelengths)


def smooth_scene(height, width, channels, rng, cycles=1.5, rho_max=0.8, wavelengths=None):
    """Band-limited scene: a few low-frequency harmonics per channel.

    Spatial content is limited to ``cycles`` periods across the image so
    that interpolation-based pipelines (mosaic demosaicing) stay accurate.
    All vectors are valid with degree of polarization <= rho_max < 1.
    """
    if not 0.0 <= rho_max < 1.0:
        raise ValueError(f"rho_max must lie in [0, 1), got {rho_max}")
    y = np.linspace(0.0, 2.0 * np.pi * cycles, height)[:, None, None]
    x = np.linspace(0.0, 2.0 * np.pi * cycles, width)[None, :, None]
    ch = np.arange(channels)[None, None, :]

    def harmonics():
        phase_y = rng.uniform(0.0, 2.0 * np.pi, size=channels)
        phase_x = rng.uniform(0.0, 2.0 * np.pi, size=channels)
        return 0.5 * (np.sin(y + phase_y[ch]) + np.sin(x + phase_x[ch]))

    s0 = 0.55 + 0.25 * harmonics()
    rho = rho_max * (0.5 + 0.5 * harmonics())
    # unit direction field on the Poincare sphere, smooth in space
    az = np.pi * harmonics()
    el = 0.5 * np.pi * 0.8 * harmonics()
    data = np.empty((height, width, channels, 4))
    data[..., 0] = s0
    np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=-1,
             out=data[..., 1:])
    data[..., 1:] *= (rho * s0)[..., None]
    return _scene(data, wavelengths)
