"""Coordinate-network representation of a Stokes cube.

A small two-stage MLP maps (pixel x, pixel y, channel index) to the
4-vector at that coordinate, normalized to [-1, 1] and positionally
encoded.  It runs on grids of P pixels x C channels: the spatial stage
turns each pixel's encoded (x, y) into a feature vector once, and the
spectral stage combines that feature with each encoded channel index.

Training minimizes mean squared error over valid coordinates with an
in-module Adam optimizer and hand-rolled backpropagation (no autograd
framework).  A batch is a set of whole pixels with all their channels;
masked channels weigh 0 in the loss.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import _pool
from .errors import DimensionError, EmptySelectionError, TrainingDivergedError
from .image import StokesImage
from .pca import bpp
from .reconstruct import quality

__all__ = [
    "InrModel",
    "TrainReport",
    "inr_decode",
    "inr_forward",
    "inr_init",
    "inr_loss_and_grads",
    "inr_rate_curve",
    "inr_train",
    "parameter_count",
    "positional_encode",
]


def positional_encode(x, k: int) -> np.ndarray:
    """Fourier features [x, sin(w0 x), cos(w0 x), ..., sin(wk x), cos(wk x)].

    Frequencies are w_i = 2^i * pi for i = 0..k, so the output length is
    2k + 3 along a new trailing axis.
    """
    if k < 0:
        raise ValueError("encoding order k must be >= 0")
    x = np.asarray(x, dtype=float)
    freqs = (2.0 ** np.arange(k + 1)) * np.pi
    angles = x[..., None] * freqs  # (..., k+1)
    out = np.empty(x.shape + (2 * k + 3,))
    out[..., 0] = x
    out[..., 1::2] = np.sin(angles)
    out[..., 2::2] = np.cos(angles)
    return out


@dataclass
class InrModel:
    """Weights and metadata of the coordinate network.

    ``layers`` counts the ReLU-activated hidden blocks across both
    stages (the linear output head is extra); the first ``layers // 2``
    blocks form the spatial stage.  ``grid_shape`` = (H, W, C) records
    the coordinate normalization ranges.  Construction checks ``layers`` >= 2,
    one weight and one bias per block and head in the shapes that the
    hyper-parameters give, and grid dimensions >= 1.
    """

    weights: list
    biases: list
    layers: int = 8
    hidden_width: int = 256
    k_spatial: int = 10
    k_channel: int = 1
    grid_shape: tuple | None = None
    dtype: np.dtype = np.float64

    def __post_init__(self):
        if self.layers < 2:
            raise ValueError("need at least 2 hidden blocks (one per stage)")
        if not len(self.weights) == len(self.biases) == self.layers + 1:  # then list the shapes
            raise DimensionError(f"network tensor count: {len(self.weights)} weights and"
                                 f" {len(self.biases)} biases for {self.layers} layers")
        want = [(s, s[1:]) for s in _weight_shapes(self.layers, self.hidden_width,
                                                    self.k_spatial, self.k_channel)]
        if [(np.shape(w), np.shape(b)) for w, b in zip(self.weights, self.biases)] != want:
            raise DimensionError("network (weight, bias) shapes contradict its hyper-parameters,"
                                 f" which give {want}")
        if self.grid_shape is not None and min(self.grid_shape) < 1:
            raise DimensionError(f"network grid {self.grid_shape} has a dimension below 1")

    @property
    def spatial_blocks(self) -> int:
        return self.layers // 2

    def copy_params(self):
        return [w.copy() for w in self.weights], [b.copy() for b in self.biases]


def parameter_count(model: InrModel) -> int:
    return sum(w.size for w in model.weights) + sum(b.size for b in model.biases)


def _weight_shapes(layers, width, k_spatial, k_channel) -> list:
    """(fan_in, fan_out) of every weight: spatial blocks, spectral blocks, head."""
    s = layers // 2
    return ([(2 * (2 * k_spatial + 3), width)] + [(width, width)] * (s - 1)
            + [(width + 2 * k_channel + 3, width)] + [(width, width)] * (layers - s - 1)
            + [(width, 4)])


def inr_init(layers: int = 8, hidden_width: int = 256, seed: int = 0, k_spatial: int = 10,
             k_channel: int = 1, grid_shape=None, dtype=np.float64) -> InrModel:
    """Fresh model with symmetric uniform init scaled by 1/sqrt(fan_in)."""
    dtype, rng = np.dtype(dtype), np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in _weight_shapes(layers, hidden_width, k_spatial, k_channel):
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return InrModel(weights, biases, layers, hidden_width, k_spatial, k_channel,
                    None if grid_shape is None else tuple(grid_shape), dtype)


def _tables(model: InrModel, xs, ys, cs):
    """x, y and channel encodings in the model dtype, normalized by any ``grid_shape``."""
    def encode(values, axis, k):
        values = np.asarray(values, dtype=float)
        if model.grid_shape is not None:
            n = model.grid_shape[axis]
            values = 2.0 * values / (n - 1) - 1.0 if n > 1 else np.zeros_like(values)
        return positional_encode(values, k).astype(model.dtype)

    return (encode(xs, 1, model.k_spatial), encode(ys, 0, model.k_spatial),
            encode(cs, 2, model.k_channel))


def _pixels(tables, xs, ys):
    """Spatial-stage inputs (P, 2 (2 k_spatial + 3)) of pixels at columns xs, rows ys."""
    return np.concatenate([tables[0][xs], tables[1][ys]], axis=1)


def _grid(model: InrModel, px, py, c):
    """Unique pixels x unique channels covering broadcast coordinate arrays.

    Returns their encodings and, per coordinate, its pixel and channel index.
    """
    px, py, c = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (px, py, c)))
    (xs, x_at), (ys, y_at), (cs, c_at) = (
        np.unique(v.ravel(), return_inverse=True) for v in (px, py, c))
    pixels, pix_at = np.unique(y_at * xs.size + x_at, return_inverse=True)
    tables = _tables(model, xs, ys, cs)
    enc_sp = _pixels(tables, pixels % xs.size, pixels // xs.size)
    return enc_sp, tables[2], pix_at.reshape(px.shape), c_at.reshape(px.shape)


def _forward(model: InrModel, enc_sp, enc_ch, want_cache=False):
    """Outputs (P, C, 4) on the grid of P encoded pixels x C encoded channels.

    The first spectral weight splits into feature rows and channel rows,
    so the channel term is one (C, width) bias broadcast over the pixels.
    The cache holds each block's input; a ReLU output is also its gate.
    """
    n_pix, n_ch, w = enc_sp.shape[0], enc_ch.shape[0], model.hidden_width
    x, acts = enc_sp, [enc_sp]
    for i, (weight, bias) in enumerate(zip(model.weights[:-1], model.biases)):
        if i == model.spatial_blocks:
            pre = (x @ weight[:w])[:, None] + (enc_ch @ weight[w:] + bias)
            pre = pre.reshape(n_pix * n_ch, w)
        else:
            pre = x @ weight
            pre += bias
        x = np.maximum(pre, 0, out=pre)
        if want_cache:
            acts.append(x)
    out = (x @ model.weights[-1] + model.biases[-1]).reshape(n_pix, n_ch, 4)
    return (out, acts) if want_cache else out


def _backward(model: InrModel, enc_ch, acts, g):
    """Parameter gradients from dL/d(out) on the (P, C, 4) grid.

    The gradient is summed over channels before it enters the spatial
    stage, and over pixels for the channel rows of the first spectral weight.
    """
    g = g.reshape(-1, 4)
    w_grads, b_grads = [None] * (model.layers + 1), [None] * (model.layers + 1)
    for i in range(model.layers, -1, -1):
        x = acts[i]
        if i == model.spatial_blocks:
            per_pixel = g.reshape(x.shape[0], -1, g.shape[1])
            g, per_channel = per_pixel.sum(axis=1), per_pixel.sum(axis=0)
            w_grads[i] = np.concatenate([x.T @ g, enc_ch.T @ per_channel])
            b_grads[i] = per_channel.sum(axis=0)
        else:
            w_grads[i] = x.T @ g
            b_grads[i] = np.ones(len(g), g.dtype) @ g  # a column sum, through BLAS
        if i:
            g = g @ model.weights[i][: x.shape[1]].T
            g *= x > 0
    return w_grads, b_grads


def inr_forward(model: InrModel, px, py, c) -> np.ndarray:
    """Evaluate the network; broadcasts over coordinate arrays."""
    enc_sp, enc_ch, pix, ch = _grid(model, px, py, c)
    return _forward(model, enc_sp, enc_ch)[pix, ch]


def inr_loss_and_grads(model: InrModel, coords, targets):
    """Mean-squared-error loss and its gradient w.r.t. every parameter.

    ``coords`` is (B, 3) as (px, py, c); ``targets`` is (B, 4).  Returns
    ``(loss, weight_grads, bias_grads)``.  The network runs on the unique
    pixels x unique channels of ``coords``, and each coordinate's error
    gradient is scattered onto that grid (repeats add up).
    """
    coords = np.asarray(coords, dtype=float)
    targets = np.asarray(targets, dtype=model.dtype)
    if coords.ndim != 2 or coords.shape[1] != 3 or targets.shape != (coords.shape[0], 4):
        raise DimensionError("coords must be (B, 3) and targets (B, 4)")
    if coords.shape[0] == 0:
        raise EmptySelectionError("no coordinates to fit")
    enc_sp, enc_ch, pix, ch = _grid(model, coords[:, 0], coords[:, 1], coords[:, 2])
    out, acts = _forward(model, enc_sp, enc_ch, want_cache=True)
    diff = out[pix, ch] - targets
    g = np.zeros_like(out)
    np.add.at(g, (pix, ch), (2.0 / diff.size) * diff)
    w_grads, b_grads = _backward(model, enc_ch, acts, g)
    return float(np.mean(diff * diff)), w_grads, b_grads


def _masked_loss(out, targets, weights):
    """Loss sum(m (out - t)^2) / (4 sum(m)) over a (P, C, 4) grid, and dL/d(out)."""
    diff = out - targets
    diff *= weights[..., None]
    scale = 1.0 / (4.0 * float(weights.sum()))
    loss = float(np.sum(diff * diff)) * scale
    diff *= 2.0 * scale
    return loss, diff


class _Adam:
    """Bias-corrected first/second-moment optimizer."""

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


@dataclass
class TrainReport:
    """Loss curve, final fit quality, and schedule bookkeeping."""

    loss_curve: list  # (step, mse) pairs
    lr_curve: list  # (step, learning rate) pairs
    final_mse: float
    final_psnr: float
    steps: int
    wall_clock_seconds: float
    base_lr: float
    schedule: str


def _cosine_lr(base_lr, step, total):
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * step / max(total, 1)))


def inr_train(model: InrModel, img: StokesImage, steps: int, lr: float = 1e-3,
              batch_size: int | None = None, seed: int = 0, record_every: int = 100,
              schedule: str = "cosine"):
    """Fit the model to the valid pixels of a Stokes cube.

    A batch is a set of whole pixels, each with all C channels:
    ``batch_size`` coordinates per step become ``max(1, batch_size // C)``
    pixels, drawn with replacement by a seeded generator from the pixels
    with at least one valid channel.  ``batch_size=None`` (or a batch that
    covers every such pixel) uses full-batch steps, fully deterministic.
    The loss is the mean squared error over valid mask entries; masked
    channels weigh 0.  Raises TrainingDivergedError (carrying the last
    recorded parameter state) if the loss turns non-finite.  The report's
    ``final_mse`` and ``final_psnr`` are ``quality`` of the network decoded
    on the image's own grid, over the image's valid entries.

    Returns ``(model, TrainReport)``; the model is updated in place.
    """
    if schedule not in ("cosine", "constant"):
        raise ValueError("schedule must be 'cosine' or 'constant'")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    ys, xs = np.nonzero(img.mask.any(axis=2))
    if ys.size == 0:
        raise EmptySelectionError("image has no valid pixels to fit")
    if model.grid_shape is None:
        model.grid_shape = (img.height, img.width, img.channels)
    tables = _tables(model, range(img.width), range(img.height), range(img.channels))
    mask = img.mask[ys, xs]
    targets = np.where(mask[..., None], img.data[ys, xs], 0.0).astype(model.dtype)
    weights = mask.astype(model.dtype)
    per_step = xs.size if batch_size is None else max(1, batch_size // img.channels)

    rng = np.random.default_rng(seed)
    optimizer = _Adam(model.weights + model.biases)
    loss_curve, lr_curve = [], []
    checkpoint, checkpoint_step = model.copy_params(), -1
    start = time.perf_counter()
    for step in range(steps):
        sel = slice(None) if per_step >= xs.size else rng.integers(0, xs.size, size=per_step)
        out, acts = _forward(model, _pixels(tables, xs[sel], ys[sel]), tables[2],
                             want_cache=True)
        loss, g = _masked_loss(out, targets[sel], weights[sel])
        if not np.isfinite(loss):
            model.weights, model.biases = checkpoint
            raise TrainingDivergedError(f"loss became non-finite at step {step}",
                                        checkpoint=checkpoint, step=checkpoint_step)
        w_grads, b_grads = _backward(model, tables[2], acts, g)
        step_lr = _cosine_lr(lr, step, steps) if schedule == "cosine" else lr
        if step % record_every == 0 or step == steps - 1:
            loss_curve.append((step, loss))
            lr_curve.append((step, step_lr))
            checkpoint, checkpoint_step = model.copy_params(), step
        optimizer.step(model.weights + model.biases, w_grads + b_grads, step_lr)
    elapsed = time.perf_counter() - start

    fit = quality(img, inr_decode(model, (img.height, img.width, img.channels)))
    return model, TrainReport(loss_curve, lr_curve, fit.mse, fit.psnr, steps, elapsed,
                              lr, schedule)


def inr_rate_curve(models, reference: StokesImage, bits_per_value: int = 32):
    """Rate-distortion rows for trained networks of varying size.

    Each model becomes a row (layer count, parameter count, bits per pixel,
    mse, psnr), scored by ``quality`` of its decode on the reference's grid.
    """
    from .io import Curve

    fits = [(m, quality(reference, inr_decode(m, reference.mask.shape))) for m in models]
    rows = [(m.layers, parameter_count(m), bpp(parameter_count(m) * bits_per_value,
             reference.width, reference.height), fit.mse, fit.psnr) for m, fit in fits]
    return Curve(columns=["layers", "parameters", "bpp", "mse", "psnr"], rows=rows)


def inr_decode(model: InrModel, dims=None, wavelengths=None) -> StokesImage:
    """Evaluate the network on a full (H, W, C) coordinate grid, one block of pixels at a time."""
    dims = model.grid_shape if dims is None else dims
    if dims is None:
        raise DimensionError("decode dims are required for an untrained model")
    h, w, c = dims
    tables = _tables(model, range(w), range(h), range(c))
    ys, xs = np.divmod(np.arange(h * w), w)
    data = np.empty((h * w, c, 4))
    chunk = max(1, _pool.BLOCK_VALUES // c)  # pixels per block
    for lo in range(0, h * w, chunk):
        sel = slice(lo, lo + chunk)
        data[sel] = _forward(model, _pixels(tables, xs[sel], ys[sel]), tables[2])
    return StokesImage(data.reshape(h, w, c, 4), wavelengths)
