"""Binary container, label sidecars, and CSV emitters.

The SPSI container is a single little-endian file::

    magic "SPSI" | version u16 | kind u16 | width u32 | height u32
    | channels u16 | components u16 | dtype u8
    | wavelength table (channels x f32, 0 = unspecified)
    | kind-specific payload

Kinds: 0 = value cube (components 4 = Stokes, 3 = normals, 1 = scalar),
1 = raw capture, 2 = patch-basis codec artifact, 3 = coordinate-network
artifact.  dtype 0 = IEEE-754 binary32, 1 = binary64.  Cube payloads are
laid out channel-major, then component-major, then row-major, followed
by a bit-packed validity plane.  Writes go to a temp file and are
renamed into place, so readers never observe partial files; identical
objects serialize to identical bytes.

Payloads stream straight between arrays and the file: the writer hands
each contiguous array to the file as a buffer, and the reader fills a
fresh array with ``readinto`` after checking the size its header claims
against the bytes left in the file.  So each payload is copied once per
direction (a cube once more, for its channel-major layout), and a header
cannot make the reader allocate more than the file holds.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from . import _pool
from .camera import CaptureConfig, MeasurementConfig, MosaicLayout, RawCapture
from .errors import ContainerError, LabelSchemaError
from .image import NormalMapStack, ScalarCube, StokesImage
from .inr import InrModel, _weight_shapes
from .labels import LabelSet
from .pca import PcaCodebook, PcaEncoding

__all__ = [
    "Curve",
    "KIND_CUBE",
    "KIND_INR",
    "KIND_PCA",
    "KIND_RAW",
    "cube_payload_bytes",
    "export_csv",
    "read_labels",
    "read_spsi",
    "write_labels",
    "write_spsi",
]

MAGIC = b"SPSI"
VERSION = 1
KIND_CUBE, KIND_RAW, KIND_PCA, KIND_INR = 0, 1, 2, 3

_HEADER = struct.Struct("<4sHHIIHHB")
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def _dtype_code(dtype) -> int:
    return 1 if np.dtype(dtype) == np.float64 else 0


def cube_payload_bytes(width, height, channels, components, dtype_code=0) -> tuple[int, int]:
    """(data bytes, mask bytes) a cube header implies."""
    values = width * height * channels * components
    data_bytes = values * _DTYPES[dtype_code].itemsize
    mask_bytes = (width * height * channels + 7) // 8
    return data_bytes, mask_bytes


class _Writer:
    """A container as chunks: packed fields and contiguous arrays."""

    def __init__(self):
        self.chunks = []

    def pack(self, fmt, *values):
        self.chunks.append(struct.pack("<" + fmt, *values))

    def array(self, arr, dtype):
        self.chunks.append(np.ascontiguousarray(arr, dtype=dtype))


class _Reader:
    """Reads a container from an open file, checking each size it is asked for."""

    def __init__(self, fh):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.offset = 0

    def array(self, count, dtype):
        dtype = np.dtype(dtype)
        n = count * dtype.itemsize
        if n > self.size - self.offset:
            raise ContainerError(
                f"truncated container: needed {n} bytes at offset {self.offset}, "
                f"file has {self.size}"
            )
        out = np.empty(count, dtype)
        if self.fh.readinto(out) != n:  # the file shrank while it was read
            raise ContainerError(f"truncated container: short read at offset {self.offset}")
        self.offset += n
        return out

    def unpack(self, fmt):
        s = struct.Struct("<" + fmt)
        return s.unpack(self.array(s.size, np.uint8))

    def flag(self, top=1):
        """A presence flag (0 or 1) or kind code (0..top); any other byte is corruption."""
        (value,) = self.unpack("B")
        if value > top:
            raise ContainerError(f"flag byte {value} at offset {self.offset - 1} is above {top}")
        return value

    def done(self):
        if self.offset != self.size:
            raise ContainerError(
                f"payload size mismatch: {self.size - self.offset} trailing bytes"
            )


def _atomic_write(path, *chunks):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header(kind, width, height, channels, components, dtype_code, wavelengths):
    w = _Writer()
    w.pack("4sHHIIHHB", MAGIC, VERSION, kind, width, height, channels, components, dtype_code)
    table = np.zeros(channels, dtype="<f4")
    if wavelengths is not None:
        table[:] = np.asarray(wavelengths, dtype="<f4")
    w.array(table, "<f4")
    return w


# ---------------------------------------------------------------------------
# cubes (kind 0)


def _write_cube(obj) -> list:
    if isinstance(obj, StokesImage):
        data, mask, components = obj.data, obj.mask, 4
    elif isinstance(obj, NormalMapStack):
        data = obj.data
        mask = np.ones(data.shape[:3], dtype=bool)
        components = 3
    else:  # ScalarCube
        data, mask, components = obj.data[..., None], obj.mask, 1
    code = _dtype_code(data.dtype)
    h, wd, c = data.shape[:3]
    wavelengths = getattr(obj, "wavelengths", None)
    w = _header(KIND_CUBE, wd, h, c, components, code, wavelengths)
    planes = np.empty((c, components, h, wd), _DTYPES[code])  # channel-major layout

    def rows(lo, hi):
        planes[:, :, lo:hi] = data[lo:hi].transpose(2, 3, 0, 1)

    _pool.blocks(rows, h, data[:1].size)
    w.array(planes, _DTYPES[code])
    w.array(np.packbits(mask.transpose(2, 0, 1).ravel()), "<u1")
    return w.chunks


def _read_cube(r: _Reader, width, height, channels, components, dtype_code, wavelengths):
    if components not in (1, 3, 4):
        raise ContainerError(f"unsupported cube component count {components}")
    dtype = _DTYPES[dtype_code]
    planes = r.array(channels * components * height * width, dtype).reshape(
        channels, components, height, width)
    bits = np.unpackbits(r.array((channels * height * width + 7) // 8, "<u1"),
                         count=channels * height * width)
    mask = bits.reshape(channels, height, width).transpose(1, 2, 0).astype(bool)
    r.done()
    data = np.empty((height, width, channels, components), dtype)

    def rows(lo, hi):
        data[lo:hi] = planes[:, :, lo:hi].transpose(2, 3, 0, 1)

    _pool.blocks(rows, height, data[:1].size)
    if components == 4:
        return StokesImage(data, wavelengths, mask)
    if components == 3:
        return NormalMapStack(data)
    return ScalarCube(data[..., 0], wavelengths, mask)


# ---------------------------------------------------------------------------
# raw captures (kind 1)


def _write_configs(w, config: CaptureConfig):
    w.pack("d", config.exposure)
    w.pack("B", 1 if config.shared else 0)
    groups = [config.channel_configs] if config.shared else config.channel_configs
    w.pack("I", len(groups))
    for group in groups:
        w.pack("I", len(group))
        for cfg in group:
            w.pack("ddd", cfg.retarder_angle, cfg.retardance, cfg.polarizer_angle)
    if config.calibration is None:
        w.pack("B", 0)
    else:
        cal = np.asarray(config.calibration, dtype=float)
        w.pack("B", 1 if cal.ndim == 2 else 2)
        w.pack("I", 1 if cal.ndim == 2 else cal.shape[0])
        w.array(cal, "<f8")


def _read_configs(r: _Reader) -> CaptureConfig:
    (exposure,) = r.unpack("d")
    shared = r.flag()
    (n_groups,) = r.unpack("I")
    groups = []
    for _ in range(n_groups):
        (n_cfg,) = r.unpack("I")
        group = []
        for _ in range(n_cfg):
            a, d, p = r.unpack("ddd")
            group.append(MeasurementConfig(a, d, p))
        groups.append(group)
    cal_kind = r.flag(2)  # 0 none, 1 one matrix, 2 one per channel
    calibration = None
    if cal_kind:
        (n_cal,) = r.unpack("I")
        flat = r.array(n_cal * 16, "<f8")
        calibration = flat.reshape(n_cal, 4, 4)
        if cal_kind == 1:
            calibration = calibration[0]
    configs = groups[0] if shared else groups
    return CaptureConfig(configs, calibration, exposure)


def _write_raw(raw: RawCapture) -> list:
    code = _dtype_code(raw.frames.dtype)
    channels = 0 if raw.wavelengths is None else len(raw.wavelengths)
    w = _header(KIND_RAW, raw.width, raw.height, channels, 1, code, raw.wavelengths)
    w.pack("I", raw.frames.shape[0])
    w.pack("B", 0 if raw.tags is None else 1)
    if raw.tags is not None:
        for c, i in raw.tags:
            w.pack("II", c, i)
    w.pack("B", 0 if raw.layout is None else 1)
    if raw.layout is not None:
        w.array(raw.layout.colors, "<u1")
        w.array(raw.layout.polarizer_angles, "<f8")
        w.array(raw.layout.retarder_angles, "<f8")
        w.array(raw.layout.retardances, "<f8")
    w.pack("dd", raw.saturation_level, raw.black_level)
    _write_configs(w, raw.config)
    w.array(raw.frames, _DTYPES[code])
    return w.chunks


def _read_raw(r: _Reader, width, height, channels, components, dtype_code, wavelengths):
    (n_frames,) = r.unpack("I")
    tags = [tuple(r.unpack("II")) for _ in range(n_frames)] if r.flag() else None
    layout = None
    if r.flag():  # colors, then polarizer angles, retarder angles and retardances
        layout = MosaicLayout(*(r.array(16, t).reshape(4, 4) for t in ("u1", "<f8", "<f8", "<f8")))
    sat, black = r.unpack("dd")
    config = _read_configs(r)
    frames = r.array(n_frames * height * width, _DTYPES[dtype_code]).reshape(
        n_frames, height, width
    )
    r.done()
    return RawCapture(frames, config, tags=tags, layout=layout, wavelengths=wavelengths,
                      saturation_level=sat, black_level=black)


# ---------------------------------------------------------------------------
# codec artifacts (kinds 2 and 3)


def _pca_layout(obj):
    """The fields of a codec container that its object implies.

    Returns the header's (width, height, channels, components), the
    codebook geometry block (None without geometry) and the encoding's
    (patch_size, grid_h, grid_w, element, patch count) (None for a bare
    codebook).  The writer writes these; the reader checks them.
    """
    enc = obj if isinstance(obj, PcaEncoding) else None
    cb = obj if enc is None else enc.codebook
    element = -1 if cb.element is None else cb.element
    geometry = None
    if cb.patch_size is not None:
        geometry = (cb.patch_size, cb.channels, cb.components, element)
    if enc is None:
        return (0, 0, 0, cb.components), geometry, None
    grid = (enc.patch_size, enc.grid_h, enc.grid_w, element, enc.grid_h * enc.grid_w)
    return (enc.width, enc.height, enc.channels, cb.components), geometry, grid


def _write_pca(obj) -> list:
    header, geometry, grid = _pca_layout(obj)
    cb = obj if grid is None else obj.codebook
    code = _dtype_code(cb.basis.dtype)
    w = _header(KIND_PCA, *header, code, None if grid is None else obj.wavelengths)
    w.pack("IIB", cb.dimension, cb.n_bases, geometry is not None)
    if geometry is not None:
        w.pack("IIIi", *geometry)
    w.pack("d", cb.total_variance)
    for arr in (cb.mean, cb.basis, cb.sigma):
        w.array(arr, _DTYPES[code])
    w.pack("B", grid is not None)
    if grid is not None:
        w.pack("IIIiI", *grid)
        w.array(obj.coefficients, _DTYPES[code])
    return w.chunks


def _read_pca(r, width, height, channels, components, dtype_code, wavelengths):
    dtype = _DTYPES[dtype_code]
    d, k = r.unpack("II")
    geometry = r.unpack("IIIi") if r.flag() else None
    (total_variance,) = r.unpack("d")
    mean = r.array(d, dtype)
    basis = r.array(d * k, dtype).reshape(d, k)
    sigma = r.array(k, dtype)
    has_enc = r.flag()
    grid = r.unpack("IIIiI") if has_enc else None
    coeffs = r.array(grid[-1] * k, dtype).reshape(grid[-1], k) if has_enc else None
    r.done()
    patch_size, cb_channels, _, element = geometry or (None, None, 4, -1)
    obj = PcaCodebook(mean, basis, sigma, total_variance, patch_size, cb_channels,
                      None if element < 0 else element)
    if has_enc:
        obj = PcaEncoding(obj, coeffs, height, width, wavelengths)
    names = ("header", "codebook geometry", "encoding grid")
    found = ((width, height, channels, components), geometry, grid)
    for name, got, want in zip(names, found, _pca_layout(obj)):
        if got != want:
            raise ContainerError(f"codec {name} {got} contradicts its derived value {want}")
    return obj


def _write_inr(model: InrModel) -> list:
    code = _dtype_code(model.dtype)
    grid = model.grid_shape or (0, 0, 0)
    w = _header(KIND_INR, grid[1], grid[0], grid[2], 4, code, None)
    w.pack("IIII", model.layers, model.hidden_width, model.k_spatial, model.k_channel)
    w.pack("B", 0 if model.grid_shape is None else 1)
    w.pack("I", len(model.weights))
    for weight in model.weights:
        w.pack("II", weight.shape[0], weight.shape[1])
    for weight in model.weights:
        w.array(weight, _DTYPES[code])
    for bias in model.biases:
        w.array(bias, _DTYPES[code])
    return w.chunks


def _read_inr(r, width, height, channels, components, dtype_code, wavelengths):
    layers, hidden_width, k_spatial, k_channel = r.unpack("IIII")
    has_grid = r.flag()
    (n_tensors,) = r.unpack("I")
    shapes = [r.unpack("II") for _ in range(n_tensors)]
    dtype = _DTYPES[dtype_code]
    weights = [r.array(fi * fo, dtype).reshape(fi, fo) for fi, fo in shapes]
    biases = [r.array(fo, dtype) for _, fo in shapes]
    r.done()
    grid = (height, width, channels)
    model = InrModel(weights, biases, layers, hidden_width, k_spatial, k_channel,
                     grid if has_grid else None, dtype)
    if n_tensors != layers + 1:
        raise ContainerError(f"network tensor count {n_tensors} contradicts {layers} layers")
    if shapes != _weight_shapes(model):
        raise ContainerError(f"network weight shapes {shapes} contradict its hyper-parameters")
    if (0 in grid) if has_grid else any(grid):
        raise ContainerError(f"network grid {grid} contradicts its grid flag {has_grid}")
    return model


# ---------------------------------------------------------------------------
# public entry points

_WRITERS = [
    ((StokesImage, NormalMapStack, ScalarCube), _write_cube),
    ((RawCapture,), _write_raw),
    ((PcaCodebook, PcaEncoding), _write_pca),
    ((InrModel,), _write_inr),
]

_READERS = {KIND_CUBE: _read_cube, KIND_RAW: _read_raw, KIND_PCA: _read_pca,
            KIND_INR: _read_inr}


def write_spsi(path, obj):
    """Serialize a supported object to an SPSI container (atomic).

    Raises ContainerError, before any file is created, when a size does
    not fit its header field (for example more than 65,535 channels).
    """
    for types, writer in _WRITERS:
        if isinstance(obj, types):
            try:
                chunks = writer(obj)
            except struct.error as exc:  # a header field outside its fixed width
                raise ContainerError(f"cannot encode {type(obj).__name__}: {exc}") from exc
            _atomic_write(path, *chunks)
            return
    raise TypeError(f"cannot serialize {type(obj).__name__} to SPSI")


def read_spsi(path):
    """Parse an SPSI container back into its object.

    Raises ContainerError on bad magic, truncation, version mismatch, or
    any invariant violation; never returns a partially built object.
    """
    with open(path, "rb") as fh:
        r = _Reader(fh)
        magic, version, kind, width, height, channels, components, dtype_code = r.unpack(
            "4sHHIIHHB"
        )
        if magic != MAGIC:
            raise ContainerError(f"bad magic {magic!r}")
        if version != VERSION:
            raise ContainerError(f"unsupported container version {version}")
        if dtype_code not in _DTYPES:
            raise ContainerError(f"unknown dtype code {dtype_code}")
        if kind not in _READERS:
            raise ContainerError(f"unknown container kind {kind}")
        table = r.array(channels, "<f4")
        wavelengths = None if channels == 0 or not table.any() else table.astype(float)
        try:
            return _READERS[kind](r, width, height, channels, components, dtype_code,
                                  wavelengths)
        except ContainerError:
            raise
        except Exception as exc:  # invariant violations from constructors
            raise ContainerError(f"container violates object invariants: {exc}") from exc


# ---------------------------------------------------------------------------
# label sidecars

_LABEL_FIELDS = ("environment", "illumination", "capture_time", "scene_type")


def write_labels(path, labels: LabelSet, notes: str = "", rig: str = ""):
    """Write the label sidecar as deterministic JSON."""
    doc = {
        "environment": labels.environment,
        "illumination": labels.illumination,
        "capture_time": labels.capture_time,
        "scene_type": labels.scene_type,
        "notes": notes,
        "rig": rig,
    }
    _atomic_write(path, (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode())


def read_labels(path) -> LabelSet:
    """Load and validate a label sidecar."""
    with open(path, "rb") as fh:
        try:
            doc = json.loads(fh.read().decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise LabelSchemaError(f"label sidecar is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise LabelSchemaError("label sidecar must be a JSON object")
    for field in _LABEL_FIELDS:
        if field not in doc:
            raise LabelSchemaError(f"label sidecar is missing required field {field!r}")
    return LabelSet(doc["environment"], doc["illumination"], doc["capture_time"],
                    doc["scene_type"])


# ---------------------------------------------------------------------------
# CSV emitters


@dataclass
class Curve:
    """A generic column-labeled table (e.g. a rate-distortion sweep)."""

    columns: list
    rows: list


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def export_csv(obj, path):
    """Emit a histogram, density grid, or curve as deterministic CSV.

    One header row names the columns (with units in brackets where
    known); floats carry 17 significant digits so re-parsing is lossless.
    """
    lines = []
    if hasattr(obj, "edges") and hasattr(obj, "counts"):  # Histogram
        unit = f"[{obj.unit}]" if obj.unit else ""
        lines.append(f"bin_left{unit},bin_right{unit},count")
        for left, right, count in zip(obj.edges[:-1], obj.edges[1:], obj.counts):
            lines.append(f"{_fmt(left)},{_fmt(right)},{int(count)}")
    elif hasattr(obj, "x_edges"):  # DensityGrid
        lines.append(f"{obj.x_label}_center,{obj.y_label}_center,count,density")
        xc = 0.5 * (obj.x_edges[:-1] + obj.x_edges[1:])
        yc = 0.5 * (obj.y_edges[:-1] + obj.y_edges[1:])
        density = obj.density
        for i in range(xc.size):
            for j in range(yc.size):
                lines.append(
                    f"{_fmt(xc[i])},{_fmt(yc[j])},{int(obj.counts[i, j])},"
                    f"{_fmt(density[i, j])}"
                )
    elif isinstance(obj, Curve):
        lines.append(",".join(obj.columns))
        for row in obj.rows:
            lines.append(",".join(_fmt(v) for v in row))
    else:
        raise TypeError(f"cannot export {type(obj).__name__} as CSV")
    _atomic_write(path, ("\n".join(lines) + "\n").encode())
