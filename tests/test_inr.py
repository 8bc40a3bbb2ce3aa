import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarcube import (
    DimensionError,
    EmptySelectionError,
    InrModel,
    TrainingDivergedError,
    inr,
    inr_decode,
    inr_forward,
    inr_init,
    inr_loss_and_grads,
    inr_rate_curve,
    inr_train,
    parameter_count,
    positional_encode,
    quality,
    smooth_scene,
    uniform_scene,
    write_spsi,
)

from conftest import clipped_cube

RNG = np.random.default_rng(31)


class TestPositionalEncoding:
    def test_zero_input_pattern(self):
        enc = positional_encode(0.0, 3)
        want = [0.0] + [0.0, 1.0] * 4
        assert np.allclose(enc, want)

    def test_k0_at_half(self):
        # w0 = pi, so sin(pi/2) = 1 and cos(pi/2) = 0
        enc = positional_encode(0.5, 0)
        assert np.allclose(enc, [0.5, 1.0, 0.0], atol=1e-15)

    def test_lengths(self):
        assert positional_encode(0.1, 10).shape == (23,)
        assert positional_encode(0.1, 1).shape == (5,)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            positional_encode(0.1, -1)

    def test_frequency_doubling(self):
        x = 0.3
        enc = positional_encode(x, 4)
        for i in range(5):
            assert enc[1 + 2 * i] == pytest.approx(np.sin(2**i * np.pi * x))
            assert enc[2 + 2 * i] == pytest.approx(np.cos(2**i * np.pi * x))


class TestModel:
    def test_forward_deterministic_and_shaped(self):
        model = inr_init(4, 16, seed=5, grid_shape=(8, 8, 3))
        out1 = inr_forward(model, 2.0, 3.0, 1.0)
        out2 = inr_forward(model, 2.0, 3.0, 1.0)
        assert out1.shape == (4,)
        assert np.array_equal(out1, out2)

    def test_forward_broadcasts(self):
        model = inr_init(2, 8, seed=1, grid_shape=(4, 4, 2))
        out = inr_forward(model, np.arange(4.0), np.zeros(4), np.ones(4))
        assert out.shape == (4, 4)

    def test_parameter_count_at_reference_size(self):
        # input 46 -> 256, six 256 -> 256 blocks, concat (256+5) -> 256,
        # output 256 -> 4: 474,884 parameters ~= 1.9 MB at 32-bit
        model = inr_init(8, 256, seed=0)
        count = parameter_count(model)
        expected = (46 * 256 + 256) + 6 * (256 * 256 + 256) \
            + (261 * 256 + 256) + (256 * 4 + 4)
        assert count == expected == 474884
        megabytes = count * 4 / 1e6
        assert 1.5 < megabytes < 2.6

    def test_same_seed_same_weights(self):
        a = inr_init(3, 8, seed=9)
        b = inr_init(3, 8, seed=9)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_too_few_layers_rejected(self):
        with pytest.raises(ValueError):
            inr_init(1, 8, seed=0)

    def test_model_checks_its_tensors(self):
        model = inr_init(3, 8, seed=9)
        with pytest.raises(TypeError):  # no weights, no model
            InrModel()
        with pytest.raises(DimensionError, match="tensor count"):
            InrModel(model.weights[:-1], model.biases[:-1], 3, 8)
        with pytest.raises(DimensionError, match="shapes"):  # a bias one entry short
            InrModel(model.weights, model.biases[:-1] + [np.zeros(3)], 3, 8)
        assert InrModel(model.weights, model.biases, 3, 8).weights is model.weights


class TestGradients:
    def test_backprop_matches_central_differences(self):
        model = inr_init(2, 8, seed=3, grid_shape=(4, 4, 2))
        coords = np.array([[0, 0, 0], [1, 2, 1], [3, 3, 0], [2, 1, 1], [0, 3, 1]], dtype=float)
        targets = RNG.normal(size=(5, 4))
        _, w_grads, b_grads = inr_loss_and_grads(model, coords, targets)
        eps = 1e-6
        worst = 0.0
        for params, grads in ((model.weights, w_grads), (model.biases, b_grads)):
            for p, g in zip(params, grads):
                flat_p = p.reshape(-1)
                flat_g = g.reshape(-1)
                for idx in range(flat_p.size):
                    old = flat_p[idx]
                    flat_p[idx] = old + eps
                    lo_plus, _, _ = inr_loss_and_grads(model, coords, targets)
                    flat_p[idx] = old - eps
                    lo_minus, _, _ = inr_loss_and_grads(model, coords, targets)
                    flat_p[idx] = old
                    fd = (lo_plus - lo_minus) / (2 * eps)
                    denom = max(abs(fd), abs(flat_g[idx]), 1e-8)
                    worst = max(worst, abs(fd - flat_g[idx]) / denom)
        assert worst < 1e-4

    def test_empty_coordinates_rejected_without_warnings(self):
        model = inr_init(2, 4, seed=0, grid_shape=(2, 2, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptySelectionError):
                inr_loss_and_grads(model, np.zeros((0, 3)), np.zeros((0, 4)))

    @pytest.mark.parametrize("coords, targets", [
        (np.zeros((5, 2)), np.zeros((5, 4))),
        (np.zeros(3), np.zeros((1, 4))),
        (np.zeros((5, 3)), np.zeros((5, 3))),
        (np.zeros((5, 3)), np.zeros((4, 4))),
    ])
    def test_bad_shapes_rejected(self, coords, targets):
        model = inr_init(2, 4, seed=0, grid_shape=(2, 2, 1))
        with pytest.raises(DimensionError, match=r"coords must be \(B, 3\)"):
            inr_loss_and_grads(model, coords, targets)

    def test_last_layer_descent_is_monotone(self):
        # training only the linear output head is a convex problem, so
        # plain gradient steps with a small fixed rate cannot increase
        # the loss
        model = inr_init(2, 8, seed=4, grid_shape=(6, 6, 2))
        coords = RNG.uniform(0, 5, size=(64, 3)).round()
        targets = RNG.normal(size=(64, 4))
        losses = []
        lr = 1e-2
        for _ in range(50):
            loss, w_grads, b_grads = inr_loss_and_grads(model, coords, targets)
            losses.append(loss)
            model.weights[-1] -= lr * w_grads[-1]
            model.biases[-1] -= lr * b_grads[-1]
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))


class TestTraining:
    def test_constant_image_fits_below_1e8_in_500_steps(self):
        img = uniform_scene(8, 8, 2, stokes=(0.5, 0.1, -0.05, 0.02))
        model = inr_init(2, 16, seed=3)
        model, report = inr_train(model, img, steps=500, lr=0.1)
        assert report.final_mse < 1e-8

    def test_loss_curve_recorded_and_finite(self):
        img = uniform_scene(6, 6, 1)
        model = inr_init(2, 8, seed=0)
        _, report = inr_train(model, img, steps=250, lr=0.05)
        steps = [s for s, _ in report.loss_curve]
        assert steps == [0, 100, 200, 249]
        assert all(np.isfinite(loss) for _, loss in report.loss_curve)
        assert report.lr_curve[0][1] == pytest.approx(0.05)

    def test_divergence_raises_with_checkpoint(self):
        img = uniform_scene(6, 6, 1)
        model = inr_init(2, 8, seed=0, dtype=np.float32)
        with pytest.raises(TrainingDivergedError) as info:
            with np.errstate(over="ignore", invalid="ignore"):
                inr_train(model, img, steps=500, lr=1e12)
        assert info.value.checkpoint is not None

    def test_negative_step_count_rejected(self):
        model = inr_init(2, 8, seed=0)
        before = [w.copy() for w in model.weights]
        with pytest.raises(ValueError, match="steps"):
            inr_train(model, uniform_scene(4, 4, 1), steps=-1)
        assert all(np.array_equal(a, b) for a, b in zip(model.weights, before))

    def test_image_with_no_valid_pixels_rejected(self):
        img = uniform_scene(4, 4, 2)
        img.mask[:] = False
        with pytest.raises(EmptySelectionError, match="no valid pixels"):
            inr_train(inr_init(2, 8, seed=0), img, steps=1)

    def test_masked_pixels_are_ignored(self):
        img = uniform_scene(8, 8, 1, stokes=(0.5, 0.0, 0.0, 0.0))
        img.data[0, 0, 0] = [100.0, 0, 0, 0]  # wild outlier, masked away
        img.mask[0, 0, 0] = False
        model = inr_init(2, 16, seed=2)
        model, report = inr_train(model, img, steps=400, lr=0.1)
        assert report.final_mse < 1e-6


class ReferenceAdam:
    """The optimizer step written as whole-array expressions, temporaries and all."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads, lr):
        self.t += 1
        c1, c2 = 1.0 - self.beta1**self.t, 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


class TestAdam:
    # The cosine rate is a numpy float64, so a float32 network's update is
    # taken in float64.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weights_bit_identical_to_the_reference(self, monkeypatch, dtype):
        target = smooth_scene(64, 64, 3, np.random.default_rng(4))

        def train():  # the codec benchmark's network, 20 steps
            model = inr_init(4, 64, seed=1, dtype=dtype)
            return inr_train(model, target, 20, lr=1e-2, batch_size=4096, seed=1)[0]

        got = train()
        monkeypatch.setattr(inr, "_Adam", ReferenceAdam)
        want = train()
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert a.dtype == b.dtype == dtype
            assert np.array_equal(a, b)


class TestDecode:
    def test_decode_constant_fit(self):
        img = uniform_scene(8, 8, 2, stokes=(0.5, 0.1, -0.05, 0.02))
        model = inr_init(2, 16, seed=3)
        model, _ = inr_train(model, img, steps=500, lr=0.1)
        decoded = inr_decode(model)
        assert decoded.data.shape == (8, 8, 2, 4)
        assert np.max(np.abs(decoded.data - img.data)) < 1e-4

    def test_decode_dims_override(self):
        model = inr_init(2, 8, seed=1, grid_shape=(4, 4, 2))
        decoded = inr_decode(model, dims=(6, 5, 3))
        assert decoded.data.shape == (6, 5, 3, 4)

    def test_untrained_model_needs_dims(self):
        with pytest.raises(DimensionError, match="decode dims are required"):
            inr_decode(inr_init(2, 8, seed=1))

    def test_decode_psnr_matches_train_report(self):
        img = smooth_scene(16, 16, 2, np.random.default_rng(0),
                           wavelengths=[500.0, 600.0])
        model = inr_init(2, 32, seed=6)
        model, report = inr_train(model, img, steps=600, lr=2e-2)
        decoded = inr_decode(model)
        mse = float(np.mean((decoded.data - img.data) ** 2))
        peak = img.data[..., 0].max()
        psnr = 10 * np.log10(peak**2 / mse)
        assert psnr == pytest.approx(report.final_psnr, abs=0.1)

    @pytest.mark.parametrize("dtype, empty_pixel, grid_shape", [
        (np.float32, False, None),
        (np.float64, False, None),
        (np.float64, True, None),
        (np.float64, False, (5, 9, 2)),  # a preset grid that is not the image's
    ], ids=["float32", "float64", "pixel-without-valid-channel", "other-grid"])
    def test_train_report_is_the_quality_of_the_decode(self, dtype, empty_pixel, grid_shape):
        img = smooth_scene(8, 6, 3, np.random.default_rng(2))
        if empty_pixel:
            img.mask[3, 2] = False
            img.data[3, 2] = np.nan  # masked, so it weighs nothing
        model = inr_init(2, 16, seed=4, grid_shape=grid_shape, dtype=dtype)
        model, report = inr_train(model, img, steps=50, lr=1e-2)
        fit = quality(img, inr_decode(model, (img.height, img.width, img.channels)))
        assert (report.final_mse, report.final_psnr) == (fit.mse, fit.psnr)


class TestRateCurve:
    @pytest.mark.parametrize("dtype, bits", [(np.float32, 32), (np.float64, 64)])
    def test_rows_are_the_quality_of_each_models_decode(self, dtype, bits):
        cube = clipped_cube(8, 6, 2)
        assert not cube.mask.all()
        models = [inr_train(inr_init(layers, width, seed=layers, dtype=dtype), cube, 5,
                            lr=1e-2)[0] for layers, width in ((2, 8), (3, 16))]
        curve = inr_rate_curve(models, cube)
        assert curve.columns == ["layers", "parameters", "bpp", "mse", "psnr"]
        for row, model in zip(curve.rows, models, strict=True):
            fit = quality(cube, inr_decode(model, (8, 6, 2)))
            count = parameter_count(model)
            assert row == (model.layers, count, count * bits / (8 * 6), fit.mse, fit.psnr)

    def test_bits_are_the_width_write_spsi_stores(self, tmp_path):
        """A float32 network with float64 biases is stored, and counted, at 64 bits."""
        model = inr_init(2, 8, seed=1, dtype=np.float32)
        model.biases = [b.astype(np.float64) for b in model.biases]
        write_spsi(tmp_path / "net.spsi", model)
        assert (tmp_path / "net.spsi").read_bytes()[20] == 1  # the dtype byte: binary64
        curve = inr_rate_curve([model], uniform_scene(4, 2, 1))
        assert curve.rows[0][2] == parameter_count(model) * 64 / (4 * 2)


def worst_gradient_error(model, coords, targets, eps=1e-6):
    """Largest relative gap between backprop and central differences."""
    _, w_grads, b_grads = inr_loss_and_grads(model, coords, targets)
    worst = 0.0
    for p, g in zip(model.weights + model.biases, w_grads + b_grads):
        flat_p, flat_g = p.reshape(-1), g.reshape(-1)
        for idx in range(flat_p.size):
            old = flat_p[idx]
            flat_p[idx] = old + eps
            lo_plus, _, _ = inr_loss_and_grads(model, coords, targets)
            flat_p[idx] = old - eps
            lo_minus, _, _ = inr_loss_and_grads(model, coords, targets)
            flat_p[idx] = old
            fd = (lo_plus - lo_minus) / (2 * eps)
            worst = max(worst, abs(fd - flat_g[idx]) / max(abs(fd), abs(flat_g[idx]), 1e-8))
    return worst


def valid_coordinates(img):
    ys, xs, cs = np.nonzero(img.mask)
    return np.stack([xs, ys, cs], axis=1).astype(float), img.data[ys, xs, cs]


class TestPixelGrid:
    @settings(max_examples=40, deadline=None)
    @given(layers=st.integers(2, 4), width=st.integers(4, 8), h=st.integers(1, 5),
           w=st.integers(1, 5), c=st.integers(1, 3), k_spatial=st.integers(0, 3),
           seed=st.integers(0, 1000))
    def test_decode_matches_pointwise_forward(self, layers, width, h, w, c, k_spatial, seed):
        model = inr_init(layers, width, seed=seed, k_spatial=k_spatial, grid_shape=(h, w, c))
        decoded = inr_decode(model).data
        pointwise = np.array([[[inr_forward(model, x, y, ch) for ch in range(c)]
                               for x in range(w)] for y in range(h)])
        assert decoded.shape == pointwise.shape == (h, w, c, 4)
        scale = np.abs(pointwise).max()
        np.testing.assert_allclose(decoded, pointwise, rtol=1e-12, atol=1e-12 * scale)

    def test_gradients_with_repeats_and_partial_pixels(self):
        # (1, 2) has channels 0 (twice, with different targets) and 2 but not 1;
        # (3, 0) has channel 1 only; (0, 3) has all three
        model = inr_init(3, 6, seed=8, k_spatial=2, grid_shape=(4, 4, 3))
        coords = np.array([[1, 2, 0], [1, 2, 0], [1, 2, 2], [3, 0, 1],
                           [0, 3, 0], [0, 3, 1], [0, 3, 2]], dtype=float)
        targets = np.random.default_rng(9).normal(size=(7, 4))
        assert worst_gradient_error(model, coords, targets) < 1e-4

    def test_full_batch_loss_is_the_mse_over_valid_coordinates(self):
        img = smooth_scene(6, 5, 3, np.random.default_rng(4))
        img.mask = np.random.default_rng(5).uniform(size=img.mask.shape) > 0.4
        img.mask[0, 0] = False  # a pixel with no valid channel
        img.data[~img.mask] = np.nan  # masked channels weigh 0, whatever they hold
        coords, targets = valid_coordinates(img)
        reference = inr_init(3, 8, seed=6, grid_shape=(6, 5, 3))
        want, _, _ = inr_loss_and_grads(reference, coords, targets)
        model = inr_init(3, 8, seed=6)
        _, report = inr_train(model, img, steps=3, lr=1e-3)
        assert report.loss_curve[0][1] == pytest.approx(want, rel=1e-12)
        assert np.isfinite(report.final_mse)

    def test_batch_smaller_than_channels_trains_one_pixel_per_step(self):
        img = smooth_scene(4, 4, 3, np.random.default_rng(6))
        coords, targets = valid_coordinates(img)
        start = inr_init(2, 8, seed=1, grid_shape=(4, 4, 3))
        initial_mse, _, _ = inr_loss_and_grads(start, coords, targets)
        per_pixel = [inr_loss_and_grads(start, coords[i:i + 3], targets[i:i + 3])[0]
                     for i in range(0, len(coords), 3)]
        model = inr_init(2, 8, seed=1)
        model, report = inr_train(model, img, steps=300, lr=1e-2, batch_size=2, seed=0)
        first = report.loss_curve[0][1]
        assert min(abs(first - loss) for loss in per_pixel) < 1e-12 * first
        assert report.final_mse < initial_mse
