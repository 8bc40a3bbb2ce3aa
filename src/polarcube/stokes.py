"""Stokes-Mueller algebra and polarimetric feature extraction.

A Stokes vector is any array-like whose trailing axis has length 4:
``[s0, s1, s2, s3]`` with s0 the total intensity, s1/s2 the linear
0deg/90deg and +-45deg intensity differences, and s3 the circular
difference.  Every function here broadcasts over leading axes, so the
same code serves single vectors and full image cubes.

Mueller matrices are plain (4, 4) float arrays.  The polarizer and
retarder constructors use the ideal-element closed forms (no
diattenuation or depolarization); angles are radians throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _pool
from .errors import DecompositionError, UndefinedFeatureError

__all__ = [
    "PolarimetricFeatures",
    "apply",
    "decompose",
    "features",
    "identity_mueller",
    "is_valid",
    "lp_mueller",
    "normalize",
    "retarder_mueller",
    "rotate_mueller",
    "rotation_mueller",
]

#: Default tolerance on the degree-of-polarization validity bound rho <= 1.
DEFAULT_DOP_TOL = 1e-3


def _check_angle(*angles):
    for a in angles:
        if not np.all(np.isfinite(a)):
            raise ValueError("angle must be finite")


def identity_mueller() -> np.ndarray:
    """4x4 identity (a transparent, non-polarizing element)."""
    return np.eye(4)


def lp_mueller(theta: float) -> np.ndarray:
    """Ideal linear polarizer with transmission axis at ``theta``.

    Closed form (C = cos 2theta, S = sin 2theta)::

        0.5 * [[1, C, S, 0],
               [C, C^2, C*S, 0],
               [S, C*S, S^2, 0],
               [0, 0, 0, 0]]
    """
    _check_angle(theta)
    c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
    return 0.5 * np.array(
        [
            [1.0, c, s, 0.0],
            [c, c * c, c * s, 0.0],
            [s, c * s, s * s, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )


def retarder_mueller(theta: float, delta: float) -> np.ndarray:
    """Ideal linear retarder, fast axis ``theta``, retardance ``delta``.

    ``delta = pi/2`` is a quarter-wave plate.  Closed form with
    C = cos 2theta, S = sin 2theta::

        [[1, 0, 0, 0],
         [0, C^2 + S^2 cos d, C S (1 - cos d), -S sin d],
         [0, C S (1 - cos d), S^2 + C^2 cos d,  C sin d],
         [0, S sin d,        -C sin d,          cos d  ]]
    """
    _check_angle(theta, delta)
    c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
    cd, sd = np.cos(delta), np.sin(delta)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, c * c + s * s * cd, c * s * (1.0 - cd), -s * sd],
            [0.0, c * s * (1.0 - cd), s * s + c * c * cd, c * sd],
            [0.0, s * sd, -c * sd, cd],
        ]
    )


def rotation_mueller(theta: float) -> np.ndarray:
    """Frame-rotation matrix R(theta) acting on Stokes vectors."""
    _check_angle(theta)
    c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, c, s, 0.0],
            [0.0, -s, c, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def rotate_mueller(m: np.ndarray, theta: float) -> np.ndarray:
    """Express element ``m`` after rotating it by ``theta``: R(-t) m R(t)."""
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise ValueError(f"expected a (4, 4) Mueller matrix, got {m.shape}")
    return rotation_mueller(-theta) @ m @ rotation_mueller(theta)


def apply(m: np.ndarray, s) -> np.ndarray:
    """Apply Mueller matrix ``m`` to Stokes vector(s) ``s`` (s_out = M s_in)."""
    s = np.asarray(s, dtype=float)
    return np.einsum("ij,...j->...i", np.asarray(m, dtype=float), s)


@dataclass
class PolarimetricFeatures:
    """Per-vector polarization descriptors (all broadcast alike).

    rho
        Degree of polarization, sqrt(s1^2 + s2^2 + s3^2) / s0, in [0, 1]
        for physically valid input.
    dolp, docp
        Degrees of linear / circular polarization; rho^2 = dolp^2 + docp^2.
    psi
        Angle of linear polarization, 0.5 * atan2(s2, s1), in (-pi/2, pi/2].
        Reported as 0 where the linear part vanishes (see ``degenerate``).
    chi
        Ellipticity angle, 0.5 * atan2(s3, L), in [-pi/4, pi/4].
    cop
        Chirality sign of the circular component: sign(s3) in {-1, 0, +1}.
    degenerate
        True where L = 0 and psi is therefore undefined; callers doing
        angle statistics must exclude those entries.
    """

    rho: np.ndarray
    dolp: np.ndarray
    docp: np.ndarray
    psi: np.ndarray
    chi: np.ndarray
    cop: np.ndarray
    degenerate: np.ndarray


def _split(s):
    s = np.asarray(s, dtype=float)
    if s.shape[-1] != 4:
        raise ValueError(f"Stokes data must have trailing axis 4, got {s.shape}")
    return s, s[..., 0]


_KERNEL_NAMES = ("s1n", "s2n", "s3n", "docp", "cop", "pol", "rho", "dolp", "chi", "psi")


def _kernel(s, name, valid=True):
    """Feature ``name`` of Stokes vectors ``s`` where defined, zero elsewhere.

    The one home of the per-vector formulas.  ``name`` is a field of
    :class:`PolarimetricFeatures` other than ``degenerate``, ``"pol"``
    (P = sqrt(s1^2 + s2^2 + s3^2)) or ``"s1n"``/``"s2n"``/``"s3n"``
    (s_i / s0).  Entries are computed where ``valid`` (any boolean
    broadcasting against s0) and s0 > 0 hold, and for ``"psi"`` also
    L > 0.  Returns ``(values, defined)`` with that narrowed mask.  The
    work runs in blocks of the leading axis.
    """
    if name not in _KERNEL_NAMES:
        raise ValueError(f"unknown polarimetric quantity {name!r}")
    out = np.zeros(s.shape[:-1])
    defined = np.empty(out.shape, dtype=bool)
    valid = np.broadcast_to(valid, out.shape)

    def block(lo, hi):
        _formula(s[lo:hi], name, valid[lo:hi], out[lo:hi], defined[lo:hi])

    if out.ndim == 0:
        _formula(s, name, valid, out, defined)
    else:
        _pool.blocks(block, len(out), int(np.prod(s.shape[1:])))
    return out[()], defined[()]


def _formula(s, name, given, out, valid):
    """``_kernel`` of one block into its slices: ``out`` (zeros) and ``valid``."""
    s0, s1, s2, s3 = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
    np.greater(s0, 0.0, out=valid)
    valid &= given
    if name in ("s1n", "s2n", "s3n"):
        np.divide(s[..., int(name[1])], s0, out=out, where=valid)
    elif name == "docp":
        np.divide(np.abs(s3), s0, out=out, where=valid)
    elif name == "cop":
        np.sign(s3, out=out, where=valid)
    elif name in ("pol", "rho"):
        np.sqrt(s1 * s1 + s2 * s2 + s3 * s3, out=out, where=valid)
        if name == "rho":
            np.divide(out, s0, out=out, where=valid)
    elif name == "dolp":
        np.sqrt(s1 * s1 + s2 * s2, out=out, where=valid)
        np.divide(out, s0, out=out, where=valid)
    elif name == "chi":
        np.arctan2(s3, np.sqrt(s1 * s1 + s2 * s2), out=out, where=valid)
        out *= 0.5
    else:  # psi
        valid &= s1 * s1 + s2 * s2 > 0.0
        np.arctan2(s2, s1, out=out, where=valid)
        out *= 0.5
        # map the branch cut -pi/2 onto +pi/2 so psi lies in (-pi/2, pi/2]
        out[out <= -np.pi / 2] += np.pi


def features(s) -> PolarimetricFeatures:
    """Compute the polarimetric features of Stokes vector(s).

    Raises
    ------
    UndefinedFeatureError
        If any s0 <= 0 (such pixels must be masked out by the caller).
    """
    s, s0 = _split(s)
    if np.any(s0 <= 0.0):
        raise UndefinedFeatureError("features undefined for s0 <= 0")
    psi, defined = _kernel(s, "psi")
    rho, dolp, docp, chi, cop = (_kernel(s, n)[0] for n in ("rho", "dolp", "docp", "chi", "cop"))
    return PolarimetricFeatures(rho, dolp, docp, psi, chi, cop, ~defined)


def decompose(s, tol: float = DEFAULT_DOP_TOL):
    """Split intensity into polarized and unpolarized parts.

    P = sqrt(s1^2 + s2^2 + s3^2) and U = s0 - P, so P + U = s0.

    Raises
    ------
    DecompositionError
        If any vector is invalid (s0 <= 0 or rho > 1 + tol).
    """
    s, s0 = _split(s)
    if not np.all(is_valid(s, tol)):
        raise DecompositionError("decomposition requires physically valid vectors")
    pol = _kernel(s, "pol")[0]
    return pol, s0 - pol


def is_valid(s, tol: float = DEFAULT_DOP_TOL):
    """True where s0 > 0 and the degree of polarization is <= 1 + tol."""
    return _within_bound(_split(s)[0], tol)


def _within_bound(s, tol):
    """``is_valid`` of float Stokes vectors; a block may call it."""
    pol, positive = _kernel(s, "pol")
    return positive & (pol <= (1.0 + tol) * s[..., 0])


def normalize(s) -> np.ndarray:
    """Poincare-ball coordinates (s1, s2, s3) / s0.

    Raises
    ------
    UndefinedFeatureError
        If any s0 <= 0.
    """
    s, s0 = _split(s)
    if np.any(s0 <= 0.0):
        raise UndefinedFeatureError("normalization undefined for s0 <= 0")
    return np.stack([_kernel(s, n)[0] for n in ("s1n", "s2n", "s3n")], axis=-1)
