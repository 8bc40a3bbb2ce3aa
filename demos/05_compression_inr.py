"""Coordinate-network compression of a Stokes cube
===================================================

A small two-stage MLP maps (x, y, channel) to the Stokes vector at that
coordinate; fitting it to one cube turns the network weights into the
compressed representation.  Training runs on the package's own
backpropagation and Adam, no autograd framework underneath.
"""

import numpy as np

import polarcube as pc

rng = np.random.default_rng(5)
scene = pc.smooth_scene(48, 48, 4, rng, cycles=1.0, rho_max=0.5,
                        wavelengths=[450.0, 500.0, 550.0, 600.0])

# Positional encoding turns each normalized coordinate into Fourier
# features with frequencies pi, 2 pi, 4 pi, ...
print("encoding of x=0.5 at order 0:", pc.positional_encode(0.5, 0))
print("encoded lengths: spatial order 10 ->", pc.positional_encode(0.0, 10).size,
      ", channel order 1 ->", pc.positional_encode(0.0, 1).size)

model = pc.inr_init(layers=4, hidden_width=48, seed=1, dtype=np.float32)
count = pc.parameter_count(model)
print(f"\nnetwork: 4 blocks x width 48, {count} parameters "
      f"({count * model.dtype.itemsize / 1e6:.2f} MB as {model.dtype})")

model, report = pc.inr_train(model, scene, steps=3000, lr=1e-2,
                             batch_size=4096, seed=1)
print(f"trained {report.steps} steps in {report.wall_clock_seconds:.0f}s: "
      f"mse {report.final_mse:.2e}, PSNR {report.final_psnr:.1f} dB")

for step, loss in report.loss_curve[:: max(1, len(report.loss_curve) // 8)]:
    print(f"  step {step:5d}: loss {loss:.3e}")

pc.export_csv(
    pc.Curve(columns=["step", "mse", "learning_rate"],
             rows=[(s, m, lr) for (s, m), (_, lr)
                   in zip(report.loss_curve, report.lr_curve)]),
    "/tmp/demo_inr_loss.csv",
)
print("wrote /tmp/demo_inr_loss.csv")

# Decoding evaluates the network on the full coordinate grid; its error
# matches the training report.
decoded = pc.inr_decode(model, wavelengths=scene.wavelengths)
q = pc.quality(scene, pc.StokesImage(decoded.data.astype(float),
                                     decoded.wavelengths))
print(f"\ndecoded cube PSNR {q.psnr:.1f} dB")

# Storage accounting: the bits of the value arrays over the pixel count,
# each array at the width write_spsi stores it (float32 weights as binary32,
# the float64 scene as binary64), as inr_rate_curve counts them.
network_bpp = pc.bpp(8 * sum(a.nbytes for a in model.weights + model.biases),
                     scene.width, scene.height)
raw_bpp = pc.bpp(8 * scene.data.nbytes, scene.width, scene.height)
print(f"network {network_bpp:.1f} BPP vs raw {raw_bpp:.0f} BPP")

# Rate-distortion across depths: deeper networks cost bits and buy
# accuracy; the curve backs the layers-vs-error trade-off plot.  Each row
# is the quality of that network's decode against the scene.
fitted = []
for layers in (2, 3, 4):
    small = pc.inr_init(layers, 24, seed=layers, dtype=np.float32)
    small, _ = pc.inr_train(small, scene, steps=1200, lr=1e-2,
                            batch_size=4096, seed=layers)
    fitted.append(small)
curve = pc.inr_rate_curve(fitted, scene)
print(f"\n{'layers':>6} {'params':>8} {'BPP':>8} {'MSE':>12} {'PSNR':>8}")
for layers, params, bpp_value, mse, psnr in curve.rows:
    print(f"{layers:6d} {params:8d} {bpp_value:8.1f} {mse:12.3e} {psnr:8.2f}")
pc.export_csv(curve, "/tmp/demo_inr_rate_curve.csv")
print("wrote /tmp/demo_inr_rate_curve.csv")

# Model artifacts round-trip through the container format.
pc.write_spsi("/tmp/demo_inr.spsi", model)
loaded = pc.read_spsi("/tmp/demo_inr.spsi")
print("model round trip:", all(np.array_equal(a, b) for a, b
                               in zip(loaded.weights, model.weights)))
