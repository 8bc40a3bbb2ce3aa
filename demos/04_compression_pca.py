"""Patch-basis compression of Stokes cubes
===========================================

A Stokes cube stores channels x 4 values per pixel (a raw 21-channel
float cube is 2688 bits per pixel).  Non-overlapping patches projected
onto a learned orthonormal basis compress that by orders of magnitude.
"""

import numpy as np

import polarcube as pc

rng = np.random.default_rng(11)

# A smooth 8-channel cube; patches are 4x4 pixels, flattened over
# (row, col, channel, Stokes element) into vectors of length 4*4*8*4.
scene = pc.smooth_scene(96, 96, 8, rng, wavelengths=450.0 + 25.0 * np.arange(8))
patch = 4
dim = patch * patch * scene.channels * 4
codebook = pc.pca_fit_image(scene, patch, dim)
print(f"patch dimension D = {dim}, "
      f"{pc.extract_patches(scene, patch).shape[0]} patches")

# The variance spectrum shows how compressible the cube is: a steep
# drop means few bases carry almost everything.
spectrum = pc.variance_spectrum(codebook)
for k in (1, 2, 4, 8, 16, 32):
    captured = spectrum[:k].sum()
    print(f"  top {k:3d} bases capture {100 * captured:6.2f}% of variance")

# Rate-distortion sweep: mse is non-increasing in the basis count, and
# bits-per-pixel grows linearly with it.  Both accountings are emitted
# (coefficients alone, and coefficients + basis + mean).
ks = [1, 2, 4, 8, 16, 32, 64, 128, dim]
curve = pc.pca_rate_curve(scene, codebook, ks)
print(f"\n{'K':>5} {'BPP(coef)':>10} {'BPP(total)':>10} {'MSE':>12} {'PSNR':>8}")
for k, bpp_c, bpp_t, mse, psnr in curve.rows:
    print(f"{k:5d} {bpp_c:10.2f} {bpp_t:10.2f} {mse:12.3e} {psnr:8.2f}")
pc.export_csv(curve, "/tmp/demo_pca_rate_curve.csv")
print("wrote /tmp/demo_pca_rate_curve.csv")

# Raw storage for reference: bits/(H*W) of the uncompressed cube.
raw_bits = scene.data.size * 32
print(f"\nraw cube: {pc.bpp(raw_bits, scene.width, scene.height):.0f} BPP")

# The same machinery runs per Stokes element, which exposes how much of
# the structure lives in intensity versus the polarized components.
for element, name in enumerate(("s0", "s1", "s2", "s3")):
    cb = pc.pca_fit_image(scene, patch, 8, element=element)
    top = pc.variance_spectrum(cb)[0]
    print(f"  per-element basis for {name}: leading proportion {top:.3f}")

# Codebooks serialize into the same container format as cubes.
pc.write_spsi("/tmp/demo_codebook.spsi", codebook)
print("\nwrote /tmp/demo_codebook.spsi "
      f"({pc.read_spsi('/tmp/demo_codebook.spsi').n_bases} bases)")
