"""Patch-based principal-component compression of Stokes cubes.

Images are cut into non-overlapping P x P patches; each patch is
flattened over (row, col, channel, Stokes element) into a vector p and
modeled as ``p = c . b + mu`` with an orthonormal basis b, coefficients
c, and the training mean mu.  Keeping K basis vectors trades
reconstruction error against stored bits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, EmptySelectionError
from .image import ScalarCube, StokesImage
from .reconstruct import _psnr

__all__ = [
    "PcaCodebook",
    "PcaEncoding",
    "bpp",
    "extract_patches",
    "pca_decode",
    "pca_encode",
    "pca_fit",
    "pca_fit_image",
    "pca_rate_curve",
    "truncate_codebook",
    "variance_spectrum",
]


def extract_patches(img: StokesImage, patch_size: int, element: int | None = None) -> np.ndarray:
    """Non-overlapping patches as an (N, D) matrix, row-major grid order.

    D = P*P*C*4 for joint patches, or P*P*C when ``element`` selects a
    single Stokes component.  Remainder rows/columns that do not fill a
    whole patch are dropped.
    """
    p = int(patch_size)
    if p < 1:
        raise DimensionError("patch size must be >= 1")
    if p > min(img.height, img.width):
        raise DimensionError(f"patch size {p} exceeds image dims {img.height}x{img.width}")
    return _tile(img.data if element is None else img.data[..., element : element + 1], p)


def _tile(data: np.ndarray, p: int) -> np.ndarray:
    """The (N, P*P*C*k) patches of an (H, W, C, k) array, row-major grid order."""
    gh, gw = data.shape[0] // p, data.shape[1] // p
    blocks = data[: gh * p, : gw * p].reshape(gh, p, gw, p, -1).transpose(0, 2, 1, 3, 4)
    return np.ascontiguousarray(blocks.reshape(gh * gw, -1))


@dataclass
class PcaCodebook:
    """Mean + orthonormal basis + per-basis standard deviations.

    ``sigma`` is sorted non-increasing; a sigma near 0 is accurate to about
    sqrt(eps) * sigma[0] only.  ``total_variance`` is the trace of the fit's
    covariance, so variance proportions hold for truncated codebooks too.
    The patch geometry (``patch_size``, ``channels``, ``element``) of a codebook
    fit from image patches lives here alone and must agree with its dimension.
    """

    mean: np.ndarray
    basis: np.ndarray  # (D, K), orthonormal columns
    sigma: np.ndarray  # (K,)
    total_variance: float
    patch_size: int | None = None
    channels: int | None = None
    element: int | None = None

    def __post_init__(self):
        if self.element is not None and self.element not in range(4):
            raise DimensionError(f"Stokes element must be 0..3 or None, got {self.element}")
        if self.patch_size is None:
            if self.channels is not None or self.element is not None:
                raise DimensionError("channels and element need a patch size")
        elif self.channels is None or (
            self.patch_size**2 * self.channels * self.components != self.dimension
        ):
            raise DimensionError(
                f"codebook dimension {self.dimension} does not match a {self.patch_size}^2 "
                f"patch of {self.channels} channels x {self.components} components"
            )

    @property
    def components(self) -> int:
        return 1 if self.element is not None else 4

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]

    @property
    def n_bases(self) -> int:
        return self.basis.shape[1]


def pca_fit(patches: np.ndarray, k: int, *, patch_size=None, channels=None,
            element=None) -> PcaCodebook:
    """Fit a K-basis codebook to an (N, D) patch matrix.

    The basis holds the top-K eigenvectors of C^T C for the centered C or,
    when N < D, the Q factor of C^T U for the top-K eigenvectors U of C C^T,
    which also completes it where an eigenvalue is about 0 (the last for
    K = N: centering removes a rank).  Each column's largest entry in
    magnitude is positive.  Non-finite patches raise DimensionError.
    """
    patches = np.asarray(patches, dtype=float)
    if patches.ndim != 2:
        raise DimensionError(f"patch matrix must be 2-D, got {patches.shape}")
    n, d = patches.shape
    if not 1 <= k <= min(n, d):
        raise DimensionError(f"need 1 <= k <= min(N, D) = {min(n, d)}, got {k}")
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite input is raised below
        mean = patches.mean(axis=0)
        centered = patches - mean
        gram = centered @ centered.T if n < d else centered.T @ centered
    denom = max(n - 1, 1)
    total = float(np.trace(gram)) / denom
    if not np.isfinite(total):
        raise DimensionError(f"patch matrix holds non-finite values (variance {total})")
    eigenvalues, vectors = (a[..., : -k - 1 : -1] for a in np.linalg.eigh(gram))  # top K
    basis = np.linalg.qr(centered.T @ vectors)[0] if n < d else vectors.copy()
    basis *= np.sign(basis[np.argmax(np.abs(basis), axis=0), np.arange(k)])
    sigma = np.sqrt(np.maximum(eigenvalues, 0.0)) / np.sqrt(denom)
    return PcaCodebook(mean, basis, sigma, total, patch_size, channels, element)


def pca_fit_image(img: StokesImage, patch_size: int, k: int,
                  element: int | None = None) -> PcaCodebook:
    """Extract patches from an image and fit a codebook carrying geometry."""
    patches = extract_patches(img, patch_size, element)
    return pca_fit(patches, k, patch_size=patch_size, channels=img.channels, element=element)


def truncate_codebook(codebook: PcaCodebook, k: int) -> PcaCodebook:
    """Keep only the first k basis vectors (variance bookkeeping intact)."""
    if not 1 <= k <= codebook.n_bases:
        raise DimensionError(f"need 1 <= k <= {codebook.n_bases}, got {k}")
    return replace(codebook, basis=codebook.basis[:, :k], sigma=codebook.sigma[:k])


@dataclass
class PcaEncoding:
    """Per-patch coefficients of an image; its geometry comes from the codebook."""

    codebook: PcaCodebook
    coefficients: np.ndarray  # (grid_h * grid_w, K), row-major grid order
    height: int
    width: int
    wavelengths: np.ndarray | None = None

    def __post_init__(self):
        if self.codebook.patch_size is None:
            raise DimensionError("an encoding needs a codebook with patch geometry")
        want = (self.grid_h * self.grid_w, self.codebook.n_bases)
        if self.coefficients.shape != want:
            raise DimensionError(f"coefficients have shape {self.coefficients.shape},"
                                 f" the geometry implies {want}")
        if self.wavelengths is not None and np.shape(self.wavelengths) != (self.channels,):
            raise DimensionError(f"wavelength table has {np.shape(self.wavelengths)},"
                                 f" expected {(self.channels,)}")

    patch_size = property(lambda self: self.codebook.patch_size)
    channels = property(lambda self: self.codebook.channels)
    element = property(lambda self: self.codebook.element)
    grid_h = property(lambda self: self.height // self.patch_size)
    grid_w = property(lambda self: self.width // self.patch_size)

    def stored_bits(self, include_codebook: bool = False, bits_per_value: int = 32) -> int:
        values = self.coefficients.size
        if include_codebook:
            values += self.codebook.basis.size + self.codebook.mean.size
        return int(values) * bits_per_value


def _project(img: StokesImage, codebook: PcaCodebook):
    """The image's (N, D) patch matrix and its (N, K) coefficients."""
    if img.channels != codebook.channels:  # None when the codebook has no geometry
        raise DimensionError(
            f"a codebook with channels={codebook.channels} cannot encode {img.channels} channels"
        )
    patches = extract_patches(img, codebook.patch_size, codebook.element)
    return patches, (patches - codebook.mean) @ codebook.basis


def pca_encode(img: StokesImage, codebook: PcaCodebook) -> PcaEncoding:
    """Project an image's patches onto the codebook: c = (p - mu) . b."""
    _, coeffs = _project(img, codebook)
    wavelengths = None if img.wavelengths is None else img.wavelengths.copy()
    return PcaEncoding(codebook, coeffs, img.height, img.width, wavelengths)


def pca_decode(enc: PcaEncoding):
    """Rebuild the image: p_hat = c . b^T + mu, patches back in grid order.

    Remainder pixels not covered by any patch are flagged invalid.
    Joint codebooks give a StokesImage; single-element codebooks give a
    ScalarCube of the coded Stokes element.  Both carry the wavelengths.
    """
    cb = enc.codebook
    p, gh, gw = enc.patch_size, enc.grid_h, enc.grid_w
    patches = enc.coefficients @ cb.basis.T + cb.mean
    block = patches.reshape(gh, gw, p, p, cb.channels, cb.components).transpose(
        0, 2, 1, 3, 4, 5
    )
    region = np.s_[: gh * p, : gw * p]  # the pixels the patches cover
    data = np.zeros((enc.height, enc.width, cb.channels, cb.components))
    data[region] = block.reshape(gh * p, gw * p, cb.channels, cb.components)
    mask = np.zeros(data.shape[:3], dtype=bool)
    mask[region] = True
    if cb.element is not None:
        return ScalarCube(data[..., 0], enc.wavelengths, mask)
    return StokesImage(data, enc.wavelengths, mask)


def variance_spectrum(codebook: PcaCodebook) -> np.ndarray:
    """Proportion of total variance captured by each retained basis."""
    if codebook.total_variance <= 0:
        return np.zeros_like(codebook.sigma)
    return codebook.sigma**2 / codebook.total_variance


def bpp(stored_bits: int, width: int, height: int) -> float:
    """Bits per spatial pixel."""
    if width * height <= 0:
        raise DimensionError("bpp needs a positive pixel count")
    return stored_bits / (width * height)


def pca_rate_curve(img: StokesImage, codebook: PcaCodebook, ks,
                   bits_per_value: int = 32):
    """Rate-distortion sweep over basis counts.

    Returns a Curve with columns (k, bpp of coefficients alone, bpp
    including basis + mean, mse, psnr), each row scored as ``quality``
    scores its decode (of the coded element, for a single-element
    codebook).  The image is encoded once, at the largest k; each row
    decodes the first k coefficient columns in patch space.  No valid
    covered entry raises EmptySelectionError.
    """
    from .io import Curve

    ks = sorted(int(k) for k in ks)
    top = truncate_codebook(codebook, max(ks, default=codebook.n_bases))
    patches, coeffs = _project(img, top)
    p = codebook.patch_size
    masked = ~_tile(img.mask[..., None], p)  # (N, P*P*C): the covered entries' mask, inverted
    n = masked.size - int(np.count_nonzero(masked))
    if n == 0:
        raise EmptySelectionError("no valid covered entries to score")
    peak = float(_tile(img.data[..., :1], p).max(where=~masked, initial=-np.inf))
    rows, err = [], np.empty_like(patches)  # one error buffer serves every row
    for k in ks:
        enc = PcaEncoding(truncate_codebook(codebook, k), coeffs[:, :k], img.height, img.width)
        np.matmul(enc.coefficients, enc.codebook.basis.T, out=err)
        err += codebook.mean
        err -= patches
        if n < masked.size:
            np.copyto(err.reshape(*masked.shape, -1), 0.0, where=masked[..., None])
        mse = float(np.vdot(err, err)) / (n * codebook.components)
        rows.append((k, bpp(enc.stored_bits(False, bits_per_value), img.width, img.height),
                     bpp(enc.stored_bits(True, bits_per_value), img.width, img.height),
                     mse, _psnr(peak, mse)))
    return Curve(columns=["k", "bpp_coefficients", "bpp_with_codebook", "mse", "psnr"], rows=rows)
