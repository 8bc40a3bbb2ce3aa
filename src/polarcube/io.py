"""Binary container, label sidecars, and CSV emitters.

The SPSI container is a single little-endian file::

    magic "SPSI" | version u16 | kind u16 | width u32 | height u32
    | channels u16 | components u16 | dtype u8
    | wavelength table (channels x f32, so rounded; 0 = unspecified)
    | kind-specific payload

Kinds: 0 = value cube (components 4 = Stokes, 3 = normals, 1 = scalar),
1 = raw capture, 2 = patch-basis codec artifact, 3 = coordinate-network
artifact.  dtype 0 = IEEE-754 binary32, 1 = binary64: binary32 exactly when
all value arrays (below) cast safely to float32 (``np.can_cast``); a value
float64 cannot hold (complex, long double, int past 2**53) is refused.  Version 2 cube
payloads are in memory order, (H, W, C, components), then the validity
mask bit-packed as (H, W, C); version 1, still read, is channel-major,
then component-major, then row-major, with the mask packed as (C, H, W).
Writes go to a preallocated temp file renamed into place, so readers see
the old file or the complete new one, and identical objects serialize to
identical bytes.  The temp file is created as ``open()`` creates a file,
so the output gets the mode ``open()`` would give it under the umask.
Without ``fsync``, a container written just before a power failure may
read back with zero-filled pages.

A file reads only if ``write_spsi`` would write its fields for the object
it reads.  Fields are the packed values, the wavelength, layout and
calibration tables and the bit-packed mask; value arrays (frames, cube
data, codec and network tensors) go into the object as read.  The reader
checks only what decides a size or a dispatch, builds the object, runs
its writer in the file's version and compares the field bytes.  A table
of ±0 entries is no table: it reads as None, and None is stored as zeros
(or, for a raw capture, as no table).

Payloads stream straight between arrays and the file: the writer hands
each contiguous array to the file as a buffer, and the reader fills a
fresh array with ``readinto`` after checking the size its header claims
against the bytes left in the file.  So each payload is copied once per
direction (a version-1 cube read once more, for its layout), and a
header cannot make the reader allocate more than the file holds.
"""

from __future__ import annotations

import errno
import json
import os
import struct
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .camera import CaptureConfig, MeasurementConfig, MosaicLayout, RawCapture
from .errors import ContainerError, LabelSchemaError
from .image import NormalMapStack, ScalarCube, StokesImage
from .inr import InrModel
from .labels import LabelSet
from .pca import PcaCodebook, PcaEncoding

__all__ = ["Curve", "export_csv", "read_labels", "read_spsi", "write_labels", "write_spsi"]

MAGIC = b"SPSI"
VERSION = 2
KIND_CUBE, KIND_RAW, KIND_PCA, KIND_INR = 0, 1, 2, 3

_HEADER = "4sHHIIHHB"  # magic, version, kind, width, height, channels, components, dtype
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def _dtype_code(*arrays) -> int:
    dtype = np.result_type(*map(np.asarray, arrays))
    if not np.can_cast(dtype, np.float64):
        raise ContainerError(f"cannot store {dtype} values as binary32 or binary64")
    for a in map(np.asarray, arrays):  # binary64 holds each integer up to 2**53, not all past
        if a.dtype.kind in "iu" and a.size and max(-int(a.min()), int(a.max())) > 2**53:
            raise ContainerError(f"binary64 cannot hold {a.dtype} values beyond 2**53")
    return 0 if np.can_cast(dtype, np.float32) else 1


def _value_bits(*arrays) -> list:  # each value array's bits at the width write_spsi stores
    width = 8 * _DTYPES[_dtype_code(*arrays)].itemsize
    return [np.size(a) * width for a in arrays]


class _Writer:
    """A container of one ``version`` as chunks in file order; ``fields``: all but values."""

    def __init__(self, version=VERSION):
        self.version, self.chunks, self.fields = version, [], []

    def pack(self, fmt, *values):
        self.table(np.frombuffer(struct.pack("<" + fmt, *values), np.uint8), np.uint8)

    def table(self, arr, dtype):
        self.fields.append(np.ascontiguousarray(arr, dtype=dtype))
        self.chunks.append(self.fields[-1])

    def array(self, arr, dtype):
        """A value array, cast safely; kept as given (a view, if it is one) if already ``dtype``."""
        self.chunks.append(np.asarray(arr).astype(dtype, casting="safe", copy=False))


class _Reader:
    """Reads a container, checking each size asked for; keeps every field's (offset, array)."""

    def __init__(self, fh):
        self.fh, self.offset, self.fields = fh, 0, []
        self.size = os.fstat(fh.fileno()).st_size

    def array(self, count, dtype):
        dtype = np.dtype(dtype)
        n = count * dtype.itemsize
        if n > self.size - self.offset:
            raise ContainerError(f"truncated container: needed {n} bytes at offset "
                                 f"{self.offset}, file has {self.size}")
        out = np.empty(count, dtype)
        if self.fh.readinto(out) != n:  # the file shrank while it was read
            raise ContainerError(f"truncated container: short read at offset {self.offset}")
        self.offset += n
        return out

    def table(self, count, dtype):
        field = self.array(count, dtype)
        self.fields.append((self.offset - field.nbytes, field))
        return field

    def unpack(self, fmt):
        s = struct.Struct("<" + fmt)
        return s.unpack(self.table(s.size, np.uint8))

    def flag(self, top=1):
        """A presence flag (0 or 1) or kind code (0..top); any other byte is corruption."""
        (value,) = self.unpack("B")
        if value > top:
            raise ContainerError(f"flag byte {value} at offset {self.offset - 1} is above {top}")
        return value

    def done(self):
        if self.offset != self.size:
            raise ContainerError(f"payload size mismatch: {self.size - self.offset} trailing bytes")


def _check_fields(r: _Reader, w: _Writer):
    """Raise unless the fields ``r`` read are the fields ``w`` wrote, byte for byte."""
    got, want = b"".join(field for _, field in r.fields), b"".join(w.fields)
    if got != want:  # the fields decide their own sizes, so neither stream ends first
        n = min(len(got), len(want))
        i = int(np.argmax(np.frombuffer(got, np.uint8, n) != np.frombuffer(want, np.uint8, n)))
        starts = np.cumsum([0] + [field.nbytes for _, field in r.fields])
        k = int(np.searchsorted(starts, i, "right")) - 1  # the field that holds byte i
        at = r.fields[k][0] + i - starts[k]
        raise ContainerError(f"byte at offset {at} contradicts the fields its object writes")


def _atomic_write(path, *chunks):
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            # With its blocks allocated up front, replacing an existing file
            # does not make ext4 (auto_da_alloc) flush the new one in rename().
            if hasattr(os, "posix_fallocate"):
                try:
                    os.posix_fallocate(fd, 0, sum(memoryview(c).nbytes for c in chunks))
                except OSError as exc:
                    if exc.errno not in (errno.EINVAL, errno.EOPNOTSUPP):
                        raise
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header(w, kind, width, height, channels, components, dtype_code, wavelengths=None):
    """Header and wavelength table; a table of ±0 entries is none: ``channels`` zeros."""
    table = np.asarray([] if wavelengths is None else wavelengths, "<f4")
    w.pack(_HEADER, MAGIC, w.version, kind, width, height, channels, components, dtype_code)
    w.table(table if table.any() else np.zeros(channels), "<f4")


# ---------------------------------------------------------------------------
# cubes (kind 0)


def _write_cube(w, obj):
    if isinstance(obj, StokesImage):
        data, mask, components = obj.data, obj.mask, 4
    elif isinstance(obj, NormalMapStack):
        data, mask, components = obj.data, np.ones(obj.data.shape[:3], bool), 3
    else:  # ScalarCube
        data, mask, components = obj.data[..., None], obj.mask, 1
    code = _dtype_code(data)
    h, wd, c = data.shape[:3]
    _header(w, KIND_CUBE, wd, h, c, components, code, getattr(obj, "wavelengths", None))
    if w.version == 1:  # a (C, H, W) mask; value arrays are never compared
        mask = mask.transpose(2, 0, 1)
    w.array(data, _DTYPES[code])
    w.table(np.packbits(mask), "<u1")


def _read_cube(r: _Reader, width, height, channels, components, dtype_code, wavelengths):
    if components not in (1, 3, 4):
        raise ContainerError(f"unsupported cube component count {components}")
    dtype = _DTYPES[dtype_code]
    n = height * width * channels
    data = r.array(n * components, dtype)
    mask = np.unpackbits(r.table((n + 7) // 8, "<u1"), count=n).view(bool)
    r.done()
    if r.version == 1:  # channel-major data, (C, H, W) mask
        planes = data.reshape(channels, components, height, width)
        data = np.ascontiguousarray(planes.transpose(2, 3, 0, 1))
        mask = mask.reshape(channels, height, width).transpose(1, 2, 0)
    data = data.reshape(height, width, channels, components)
    mask = mask.reshape(height, width, channels)
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
        w.pack("BI", *((1, 1) if cal.ndim == 2 else (2, cal.shape[0])))
        w.table(cal, "<f8")


def _read_configs(r: _Reader) -> CaptureConfig:
    (exposure,) = r.unpack("d")
    shared = r.flag()
    (n_groups,) = r.unpack("I")
    groups = []
    for _ in range(n_groups):
        (n_cfg,) = r.unpack("I")
        groups.append([MeasurementConfig(*r.unpack("ddd")) for _ in range(n_cfg)])
    cal_kind = r.flag(2)  # 0 none, 1 one matrix, 2 one per channel
    calibration = None
    if cal_kind:
        (n_cal,) = r.unpack("I")
        calibration = r.table(n_cal * 16, "<f8").reshape(n_cal, 4, 4)
        if cal_kind == 1:
            calibration = calibration[0]
    configs = groups[0] if shared else groups
    return CaptureConfig(configs, calibration, exposure)


def _write_raw(w, raw: RawCapture):
    code = _dtype_code(raw.frames)
    table = np.asarray([] if raw.wavelengths is None else raw.wavelengths)
    _header(w, KIND_RAW, raw.width, raw.height, table.size if table.any() else 0, 1, code, table)
    w.pack("I", raw.frames.shape[0])
    w.pack("B", 0 if raw.tags is None else 1)
    for c, i in raw.tags or []:
        w.pack("II", c, i)
    w.pack("B", 0 if raw.layout is None else 1)
    if raw.layout is not None:
        for table, dtype in zip(astuple(raw.layout), ("<u1", "<f8", "<f8", "<f8")):
            w.table(table, dtype)
    w.pack("dd", raw.saturation_level, raw.black_level)
    _write_configs(w, raw.config)
    w.array(raw.frames, _DTYPES[code])


def _read_raw(r: _Reader, width, height, channels, components, dtype_code, wavelengths):
    (n_frames,) = r.unpack("I")
    tags = [tuple(r.unpack("II")) for _ in range(n_frames)] if r.flag() else None
    layout = None
    if r.flag():  # colors, then polarizer angles, retarder angles and retardances
        layout = MosaicLayout(*(r.table(16, t).reshape(4, 4) for t in ("u1", "<f8", "<f8", "<f8")))
    sat, black = r.unpack("dd")
    config = _read_configs(r)
    frames = r.array(n_frames * height * width, _DTYPES[dtype_code])
    r.done()
    return RawCapture(frames.reshape(n_frames, height, width), config, tags=tags, layout=layout,
                      wavelengths=wavelengths, saturation_level=sat, black_level=black)


# ---------------------------------------------------------------------------
# codec artifacts (kinds 2 and 3)


def _write_pca(w, obj):
    enc = obj if isinstance(obj, PcaEncoding) else None
    cb = obj if enc is None else enc.codebook
    code = _dtype_code(cb.mean, cb.basis, cb.sigma, *([] if enc is None else [enc.coefficients]))
    dims = (0, 0, 0) if enc is None else (enc.width, enc.height, enc.channels)
    _header(w, KIND_PCA, *dims, cb.components, code, getattr(enc, "wavelengths", None))
    element = -1 if cb.element is None else cb.element
    w.pack("IIB", cb.dimension, cb.n_bases, cb.patch_size is not None)
    if cb.patch_size is not None:
        w.pack("IIIi", cb.patch_size, cb.channels, cb.components, element)
    w.pack("d", cb.total_variance)
    for arr in (cb.mean, cb.basis, cb.sigma):
        w.array(arr, _DTYPES[code])
    w.pack("B", enc is not None)
    if enc is not None:
        w.pack("IIIiI", enc.patch_size, enc.grid_h, enc.grid_w, element, enc.grid_h * enc.grid_w)
        w.array(enc.coefficients, _DTYPES[code])


def _read_pca(r, width, height, channels, components, dtype_code, wavelengths):
    dtype = _DTYPES[dtype_code]
    d, k = r.unpack("II")
    patch_size, cb_channels, _, element = r.unpack("IIIi") if r.flag() else (None, None, 4, -1)
    (total_variance,) = r.unpack("d")
    mean = r.array(d, dtype)
    basis = r.array(d * k, dtype).reshape(d, k)
    sigma = r.array(k, dtype)
    has_enc = r.flag()
    n_patches = r.unpack("IIIiI")[-1] if has_enc else 0
    coeffs = r.array(n_patches * k, dtype).reshape(n_patches, k)
    r.done()
    obj = PcaCodebook(mean, basis, sigma, total_variance, patch_size, cb_channels,
                      None if element < 0 else element)
    return PcaEncoding(obj, coeffs, height, width, wavelengths) if has_enc else obj


def _write_inr(w, model: InrModel):
    code = _dtype_code(*model.weights, *model.biases)
    h, wd, c = model.grid_shape or (0, 0, 0)
    _header(w, KIND_INR, wd, h, c, 4, code)
    w.pack("IIII", model.layers, model.hidden_width, model.k_spatial, model.k_channel)
    w.pack("B", 0 if model.grid_shape is None else 1)
    w.pack("I", len(model.weights))
    for weight in model.weights:
        w.pack("II", weight.shape[0], weight.shape[1])
    for weight in model.weights:
        w.array(weight, _DTYPES[code])
    for bias in model.biases:
        w.array(bias, _DTYPES[code])


def _read_inr(r, width, height, channels, components, dtype_code, wavelengths):
    layers, hidden_width, k_spatial, k_channel = r.unpack("IIII")
    has_grid = r.flag()
    (n_tensors,) = r.unpack("I")
    shapes = [r.unpack("II") for _ in range(n_tensors)]
    dtype = _DTYPES[dtype_code]
    weights = [r.array(fi * fo, dtype).reshape(fi, fo) for fi, fo in shapes]
    biases = [r.array(fo, dtype) for _, fo in shapes]
    r.done()
    return InrModel(weights, biases, layers, hidden_width, k_spatial, k_channel,
                    (height, width, channels) if has_grid else None)


# ---------------------------------------------------------------------------
# public entry points

_WRITERS = [
    ((StokesImage, NormalMapStack, ScalarCube), _write_cube),
    ((RawCapture,), _write_raw),
    ((PcaCodebook, PcaEncoding), _write_pca),
    ((InrModel,), _write_inr),
]

_READERS = {KIND_CUBE: _read_cube, KIND_RAW: _read_raw, KIND_PCA: _read_pca, KIND_INR: _read_inr}


def _written(obj, version=VERSION) -> _Writer:
    """The container of ``obj`` in ``version``, as chunks."""
    for types, writer in _WRITERS:
        if isinstance(obj, types):
            w = _Writer(version)
            writer(w, obj)
            return w
    raise TypeError(f"cannot serialize {type(obj).__name__} to SPSI")


def write_spsi(path, obj):
    """Serialize a supported object to an SPSI container (atomic).

    Raises ContainerError, before any file is created, when a size does not
    fit its header field (say, 65,536 channels) or float64 cannot hold a value.
    """
    try:
        w = _written(obj)
    except struct.error as exc:  # a header field outside its fixed width
        raise ContainerError(f"cannot encode {type(obj).__name__}: {exc}") from exc
    _atomic_write(path, *map(np.ascontiguousarray, w.chunks))


def read_spsi(path):
    """Parse an SPSI container back into its object.

    Raises ContainerError on bad magic, truncation, version mismatch, any
    invariant violation, or a field that ``write_spsi`` would not write
    for the object read; never returns a partially built object.
    """
    with open(path, "rb") as fh:
        r = _Reader(fh)
        magic, version, kind, width, height, channels, components, dtype_code = r.unpack(_HEADER)
        if magic != MAGIC:
            raise ContainerError(f"bad magic {magic!r}")
        if version not in (1, VERSION):
            raise ContainerError(f"unsupported container version {version}")
        r.version = version
        if dtype_code not in _DTYPES:
            raise ContainerError(f"unknown dtype code {dtype_code}")
        if kind not in _READERS:
            raise ContainerError(f"unknown container kind {kind}")
        table = r.table(channels, "<f4")
        wavelengths = table.astype(float) if table.any() else None
        try:
            obj = _READERS[kind](r, width, height, channels, components, dtype_code, wavelengths)
            w = _written(obj, version)
        except ContainerError:
            raise
        except Exception as exc:  # invariant violations from constructors
            raise ContainerError(f"container violates object invariants: {exc}") from exc
    _check_fields(r, w)
    return obj


# ---------------------------------------------------------------------------
# label sidecars

def write_labels(path, labels: LabelSet):
    """Write the label sidecar as deterministic JSON."""
    _atomic_write(path, (json.dumps(asdict(labels), sort_keys=True, indent=2) + "\n").encode())


def read_labels(path) -> LabelSet:
    """Load and validate a label sidecar."""
    with open(path, "rb") as fh:
        try:
            doc = json.loads(fh.read().decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise LabelSchemaError(f"label sidecar is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise LabelSchemaError("label sidecar must be a JSON object")
    names = [field.name for field in fields(LabelSet)]
    for name in names:
        if name not in doc:
            raise LabelSchemaError(f"label sidecar is missing required field {name!r}")
    return LabelSet(**{name: doc[name] for name in names})


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
