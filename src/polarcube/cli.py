"""Command-line frontend for the pipeline.

Each config key is one declaration in ``_KEYS``: its default and its one
rule (``_rule``).  Each subcommand is one in ``_COMMANDS``: the config
sections it reads and its flags, each with the keys it sets, whose rule
is its ``type``; ``stats`` and ``features`` take their statistics from
``analysis._STATS``.  A command resolves its configuration (defaults, an
optional JSON config file, then flags, each winning over the ones before),
echoes the sections it reads as one JSON line before any work, and ends
with a JSON summary line.
``_resolve_config`` raises, before the echo, every error that the flags
and the config file alone decide.  Inputs of the wrong container kind
(``_read``) and ranks are checked after it.  ``_FAILURES`` maps a failure
to one JSON line on stderr and exit 2 (config), 3 (I/O) or 4 (numerical).
"""

from __future__ import annotations

import argparse
import copy
import json
import re
import sys
from functools import partial
from math import inf, radians
from typing import Callable, NamedTuple

import polarcube as pc
from polarcube.analysis import DEFAULT_BINS, _STATS
from polarcube.stokes import DEFAULT_DOP_TOL

EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL = 0, 2, 3, 4


def _rule(kind, ok, rule):
    """A check returning its value, text converted to ``kind``; other values must be one."""
    kinds = (int, float) if kind is float else (kind,)  # 3.5 is no int; bool is no number

    def check(value):
        try:
            converted = kind(value) if isinstance(value, str) else value
        except ValueError:
            converted = None
        if type(converted) not in kinds or not ok(converted):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value!r}")
        return converted

    return check


def _kind(*names):
    return _rule(str, lambda name: name in names, "one of " + ", ".join(names))


_COUNT = _rule(int, lambda n: n >= 1, "an integer >= 1")
_NATURAL = _rule(int, lambda n: n >= 0, "an integer >= 0")
_FINITE = _rule(float, lambda x: -inf < x < inf, "a finite number")
_NONNEGATIVE = _rule(float, lambda x: 0 <= x < inf, "a finite number >= 0")
_POSITIVE = _rule(float, lambda x: 0 < x < inf, "a finite number > 0")
# Each config key once: its default and the one rule of every value it takes, from a flag or
# the config file.  A None default leaves the key unset until one sets it.
_KEYS = {
    "seed": (None, _NATURAL),
    "camera.kind": ("hyperspectral", _kind("hyperspectral", "trichromatic")),
    "camera.height": (64, _COUNT), "camera.width": (64, _COUNT), "camera.channels": (21, _COUNT),
    "camera.qwp_angles_deg": ([30.0, -45.0, 60.0, -90.0], _rule(  # text: a list of characters
        list, lambda xs: xs and all(type(x) in (int, float) and -inf < x < inf for x in xs),
        "a non-empty list of finite numbers")),
    "camera.lp_angle_deg": (0.0, _FINITE), "camera.exposure": (1.0, _POSITIVE),
    "noise.sigma": (0.0, _NONNEGATIVE), "noise.shot_gain": (0.0, _NONNEGATIVE),
    "noise.saturation": (1.0, _FINITE), "noise.black": (0.0, _FINITE),
    "scene.kind": ("smooth", _kind("smooth", "random", "uniform")),
    "scene.rho_max": (0.8, _rule(float, lambda x: 0 <= x < 1, "a number in [0, 1)")),
    "solver.dop_tol": (DEFAULT_DOP_TOL, _FINITE),
    "pca.patch_size": (10, _COUNT), "pca.bases": (40, _COUNT),
    "inr.layers": (4, _rule(int, lambda n: n >= 2, "an integer >= 2")),
    "inr.width": (64, _COUNT), "inr.steps": (2000, _NATURAL),
    "inr.lr": (1e-3, _POSITIVE), "inr.batch": (None, _COUNT),
    "inr.k_spatial": (10, _NATURAL), "inr.k_channel": (1, _NATURAL),
    # at most 1,024 bins: a Poincare grid then has at most 1,024^2 cells
    "stats.bins": (DEFAULT_BINS, _rule(int, lambda n: 1 <= n <= 1024, "an integer in [1, 1024]")),
}


class _ConfigError(Exception):
    pass


def _deep_update(base: dict, override: dict, path: str = ""):
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise _ConfigError(f"unknown config key {here!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise _ConfigError(f"config key {here!r} must be a table")
            _deep_update(base[key], value, here)
        else:
            base[key] = value


# (flag, what sets it instead): given together, they exit 2 before the echo
_OVERRIDDEN = (("height", "scene"), ("width", "scene"), ("channels", "scene"),
               ("height", "size"), ("width", "size"), ("median", "burst"))


def _resolve_config(args) -> dict:
    """The configuration ``args.command`` reads: defaults, the config file, then flags.

    Every rule that the flags and the config file alone decide raises here, before the echo.
    """
    command = _COMMANDS[args.command]
    cfg = {}
    for key, (default, _) in _KEYS.items():
        section, _, name = key.rpartition(".")
        (cfg.setdefault(section, {}) if section else cfg)[name] = copy.deepcopy(default)
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise _ConfigError(f"cannot read config file: {exc}") from exc
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise _ConfigError("config file must hold a JSON object")
        _deep_update(cfg, loaded)
    flagged = {}  # a flag's value wins over the config file's
    for flag, keys, _ in command.flags + _SHARED:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is not None:
            flagged.update(dict.fromkeys(keys, value))
    for key, (default, rule) in _KEYS.items():  # every value, whatever its source or section
        section, _, name = key.rpartition(".")
        table = cfg[section] if section else cfg
        value = flagged.get(key, table[name])
        if value is not None or default is not None:
            try:
                table[name] = rule(value)
            except argparse.ArgumentTypeError as exc:
                raise _ConfigError(f"{key} {exc}") from exc
    if not cfg["noise"]["black"] < cfg["noise"]["saturation"]:
        raise _ConfigError("noise.black must be below noise.saturation")
    given = {dest for dest, value in vars(args).items() if value is not None}
    for flag, by in _OVERRIDDEN:
        if {flag, by} <= given:
            raise _ConfigError(f"--{flag} has no effect with --{by}")
    names = getattr(args, "feature", None) or []
    for k, name in enumerate(names):  # each one of _STATS, which argparse checked
        if name in names[:k]:
            raise _ConfigError(f"--feature {name} is given twice")
        if _STATS[name].bins and "bins" in given:
            raise _ConfigError(f"--bins has no effect on {name}, "
                               f"which has {_STATS[name].bins} fixed bins")
    if names and all(_STATS[name].bins for name in names):  # nothing reads stats.bins
        cfg["stats"]["bins"] = _STATS[names[0]].bins
    sections = list(command.sections) + (["seed"] if hasattr(args, "seed") else [])
    unseeded = None  # a scene that reads no seed
    if getattr(args, "scene", None):  # the input cube is the scene and sets its size
        sections.remove("scene")
        for key in ("height", "width", "channels"):
            del cfg["camera"][key]
        unseeded = "--scene"
    elif "scene" in sections and cfg["scene"]["kind"] == "uniform":  # nor any rho_max
        del cfg["scene"]["rho_max"]
        unseeded = "a uniform scene"
    if unseeded and not _noisy(cfg):  # then nothing reads the seed
        if "seed" in given:
            raise _ConfigError(f"--seed has no effect on a noiseless capture of {unseeded}")
        sections.remove("seed")
    if "seed" in sections and cfg["seed"] is None:  # a synthetic scene, noise or a network
        raise _ConfigError(f"polarcube {args.command} needs a seed (--seed or the config file)")
    if "noise" in sections and not _noisy(cfg):  # no noise model reads the levels
        del cfg["noise"]["saturation"], cfg["noise"]["black"]
    camera = cfg["camera"]
    if "camera" in sections and camera["kind"] == "hyperspectral":  # a set it cannot invert
        try:
            pc.system_matrix(pc.CaptureConfig.hyperspectral(
                [radians(a) for a in camera["qwp_angles_deg"]], radians(camera["lp_angle_deg"])))
        except pc.ConfigurationError as exc:
            raise _ConfigError(f"camera.qwp_angles_deg cannot be inverted: {exc}") from exc
    if "camera" in sections and camera["kind"] == "trichromatic":
        del camera["qwp_angles_deg"], camera["lp_angle_deg"]  # the mosaic has its own optics
        if "channels" in given:
            raise _ConfigError("--channels has no effect on the trichromatic camera")
        if "channels" in camera:  # a synthetic scene, which the 4 x 4 mosaic tiles
            camera["channels"] = 3
            if camera["height"] % 4 or camera["width"] % 4:
                raise _ConfigError("trichromatic height and width must be multiples of 4")
    return {key: cfg[key] for key in sections}


def _read(path, kind, what):
    """The container at ``path``, which must be a ``kind`` (a config error naming ``what``)."""
    obj = pc.read_spsi(path)
    if not isinstance(obj, kind):
        raise _ConfigError(f"{path} does not hold {what}")
    return obj


class _Cubes(list):
    """The Stokes cubes at these paths, each read when indexed, so statistics hold one at a time."""

    def __getitem__(self, i):
        return _read(super().__getitem__(i), pc.StokesImage, "a Stokes cube")


def _make_scene(cfg):
    import numpy as np

    cam, scene = cfg["camera"], cfg["scene"]
    shape = cam["height"], cam["width"], cam["channels"]
    if scene["kind"] == "uniform":
        return pc.uniform_scene(*shape)
    make = pc.smooth_scene if scene["kind"] == "smooth" else pc.random_scene
    return make(*shape, np.random.default_rng(cfg["seed"]), rho_max=scene["rho_max"])


def _noisy(cfg):
    return cfg["noise"]["sigma"] != 0.0 or cfg["noise"]["shot_gain"] != 0.0


def _noise_model(cfg):
    n = cfg["noise"]
    if not _noisy(cfg):
        return None
    return pc.NoiseModel(gaussian_sigma=n["sigma"], shot_gain=n["shot_gain"],
                         saturation_level=n["saturation"], black_level=n["black"],
                         rng_seed=cfg["seed"])


def _simulate(cfg, scene):
    import numpy as np

    cam = cfg["camera"]
    noise = _noise_model(cfg)
    if cam["kind"] == "trichromatic":
        return pc.simulate_trichromatic(scene, noise=noise, exposure=cam["exposure"])
    return pc.simulate_hyperspectral(scene, np.deg2rad(cam["qwp_angles_deg"]),
                                     lp_angle=float(np.deg2rad(cam["lp_angle_deg"])),
                                     noise=noise, exposure=cam["exposure"])


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg, args):
    out = args.out
    scene = (_read(args.scene, pc.StokesImage, "a Stokes cube") if args.scene
             else _make_scene(cfg))
    raw = _simulate(cfg, scene)
    pc.write_spsi(out, raw)
    return {"frames": int(raw.frames.shape[0]), "height": raw.height,
            "width": raw.width, "out": out}


def cmd_reconstruct(cfg, args):
    out = args.out
    raw = _read(args.input, pc.RawCapture, "a raw capture")
    cube = pc.reconstruct_image(raw, dop_tol=cfg["solver"]["dop_tol"])
    summary = {"out": out, "valid_fraction": cube.valid_fraction(), "channels": cube.channels}
    pc.write_spsi(out, cube)
    return summary


def cmd_decompose(cfg, args):
    import numpy as np

    out = args.out
    cube = _read(args.input, pc.StokesImage, "a Stokes cube")
    tol = cfg["solver"]["dop_tol"]
    valid = cube.mask & pc.is_valid(cube.data, tol)
    pol, unpol = np.zeros(valid.shape), np.zeros(valid.shape)
    pol[valid], unpol[valid] = pc.decompose(cube.data[valid], tol)
    hist_p, hist_u = pc.pol_unpol_histograms([pc.StokesImage(cube.data, cube.wavelengths, valid)],
                                             bins=cfg["stats"]["bins"])
    pc.write_spsi(f"{out}polarized.spsi", pc.ScalarCube(pol, cube.wavelengths, valid))
    pc.write_spsi(f"{out}unpolarized.spsi", pc.ScalarCube(unpol, cube.wavelengths, valid))
    pc.export_csv(hist_p, f"{out}polarized_hist.csv")
    pc.export_csv(hist_u, f"{out}unpolarized_hist.csv")
    return {"polarized_mean": float(np.mean(pol[valid])),
            "unpolarized_mean": float(np.mean(unpol[valid])),
            "outputs": [f"{out}polarized.spsi", f"{out}unpolarized.spsi"]}


def cmd_validate(cfg, args):
    import numpy as np

    cube = _read(args.input, pc.StokesImage, "a Stokes cube")
    ok = cube.mask & pc.is_valid(cube.data, cfg["solver"]["dop_tol"])
    return {"valid_fraction": float(ok.sum()) / ok.size if ok.size else 0.0,
            "masked_fraction": 1.0 - cube.valid_fraction(),
            "nonfinite_valid": int((cube.mask & ~np.isfinite(cube.data).all(axis=-1)).sum())}


def cmd_denoise(cfg, args):
    out, paths = args.out, [args.input] + (args.burst or [])
    median = None if args.burst else 3 if args.median is None else args.median
    raws = [_read(path, pc.RawCapture, "a raw capture") for path in paths]
    try:
        raw = pc.denoise(raws, median)
    except pc.ConfigurationError as exc:  # a burst input of another setup, named by its path
        raise _ConfigError(re.sub(r"capture (\d+)", lambda m: paths[int(m[1])], str(exc)))
    pc.write_spsi(out, raw)
    return {"out": out, **({"averaged": len(raws)} if args.burst else {"median_window": median})}


def cmd_pca_fit(cfg, args):
    out = args.out
    cube = _read(args.input, pc.StokesImage, "a Stokes cube")
    codebook = pc.pca_fit_image(cube, cfg["pca"]["patch_size"], cfg["pca"]["bases"])
    pc.write_spsi(out, codebook)
    spectrum = pc.variance_spectrum(codebook)
    return {"out": out, "bases": codebook.n_bases, "dimension": codebook.dimension,
            "top_variance_fraction": float(spectrum[0])}


def cmd_pca_code(cfg, args):
    out = args.out
    cube = _read(args.input, pc.StokesImage, "a Stokes cube")
    artifact = _read(args.codebook, (pc.PcaCodebook, pc.PcaEncoding), "a codec basis")
    codebook = getattr(artifact, "codebook", artifact)  # an encoding's codebook
    if args.bases is not None:
        if args.bases > codebook.n_bases:
            raise _ConfigError(f"--bases must be at most {codebook.n_bases}, got {args.bases}")
        codebook = pc.truncate_codebook(codebook, args.bases)
    curve = pc.pca_rate_curve(cube, codebook, [codebook.n_bases])  # one row, before the write
    pc.write_spsi(out, pc.pca_decode(pc.pca_encode(cube, codebook)))
    return {"out": out, **dict(zip(curve.columns[1:], curve.rows[0][1:]))}  # bpp, mse, psnr


def cmd_inr_fit(cfg, args):
    out = args.out
    cube = _read(args.input, pc.StokesImage, "a Stokes cube")
    inr, seed = cfg["inr"], cfg["seed"]
    model = pc.inr_init(inr["layers"], inr["width"], seed,
                        k_spatial=inr["k_spatial"], k_channel=inr["k_channel"])
    model, report = pc.inr_train(model, cube, inr["steps"], lr=inr["lr"],
                                 batch_size=inr["batch"], seed=seed)
    pc.write_spsi(out, model)
    if args.loss_csv:
        curve = pc.Curve(columns=["step", "mse", "learning_rate"],
                         rows=[(s, m, lr) for (s, m), (_, lr)
                               in zip(report.loss_curve, report.lr_curve)])
        pc.export_csv(curve, args.loss_csv)
    return {"out": out, "final_mse": report.final_mse, "final_psnr": report.final_psnr,
            "steps": report.steps, "parameters": pc.parameter_count(model)}


def cmd_inr_code(cfg, args):
    out = args.out
    model = _read(args.input, pc.InrModel, "a network artifact")
    cube = _read(args.reference, pc.StokesImage, "a Stokes cube") if args.reference else None
    if cube and model.grid_shape and cube.data.shape[:3] != model.grid_shape:
        raise _ConfigError(f"{args.reference} has (H, W, C) {cube.data.shape[:3]}, "
                           f"but the network decodes {model.grid_shape}")
    decoded = pc.inr_decode(model, wavelengths=cube.wavelengths if cube else None)
    summary = {"out": out, "height": decoded.height, "width": decoded.width,
               "channels": decoded.channels}
    if cube:
        report = pc.quality(cube, decoded)
        summary.update(psnr=report.psnr, mse=report.mse)
    pc.write_spsi(out, decoded)
    return summary


def cmd_stats(cfg, args, names=None, means=False):
    """``stats`` of the ``--feature`` names; ``features`` passes its names, with means."""
    names, out = names or args.feature, args.out
    paths = [args.input] + (getattr(args, "extra", None) or [])
    # one input is read once, however many passes the walk makes
    cubes = (_Cubes(paths) if len(paths) > 1
             else [_read(args.input, pc.StokesImage, "a Stokes cube")])
    # every statistic before any file: one that fails leaves no CSV behind
    stats = [_STATS[name]._replace(name=name if len(names) > 1 else "") for name in names]
    found = pc.analysis._walk(cubes, range(len(cubes)), stats, cfg["stats"]["bins"], means)
    summary = {}
    for name, (result, mean) in zip(names, found):
        if isinstance(result, tuple):  # one CSV per histogram, named by its label
            summary[name] = {"outputs": [f"{out}{part.label}.csv" for part in result]}
            for part, path in zip(result, summary[name]["outputs"]):
                pc.export_csv(part, path)
            continue
        path = f"{out}{name}.csv" if len(names) > 1 else out
        pc.export_csv(result, path)
        summary[name] = ({"out": path, "occupied_cells": int((result.counts > 0).sum())}
                         if isinstance(result, pc.DensityGrid) else
                         {"out": path, "samples": result.total,
                          "support": [float(result.edges[0]), float(result.edges[-1])]})
        if means:
            summary[name]["mean"] = mean
    return summary if len(names) > 1 else summary[names[0]]


def cmd_sfp_stats(cfg, args):
    import numpy as np

    out = args.out
    stack = _read(args.input, pc.NormalMapStack, "a normal-map stack")
    report = pc.normal_spectral_stddev(stack, bins=cfg["stats"]["bins"])
    summary = {"outputs": {}}
    for name, hist in report.histograms.items():  # std_x, ..., std_elevation
        path = f"{out}{name}.csv"
        pc.export_csv(hist, path)
        summary["outputs"][name] = path
        summary[f"mean_{name}"] = float(np.mean(getattr(report, name)))
    return summary


def cmd_roundtrip(cfg, args):
    import time

    import numpy as np

    scene = _make_scene(cfg)
    start = time.perf_counter()
    raw = _simulate(cfg, scene)
    cube = pc.reconstruct_image(raw, dop_tol=cfg["solver"]["dop_tol"])
    elapsed = time.perf_counter() - start
    report = pc.quality(scene, cube)
    max_rel = float(np.max(np.abs(cube.data - scene.data)) / scene.data[..., 0].max())
    if args.out:
        pc.write_spsi(args.out, cube)
    return {"max_rel_error": max_rel, "mse": report.mse, "psnr": report.psnr,
            "valid_fraction": report.valid_fraction, "seconds": elapsed}


# ---------------------------------------------------------------------------
# declarations and parser


class _Command(NamedTuple):
    run: Callable  # run(cfg, args): the echoed config and the parsed flags
    help: str
    sections: tuple  # config sections the command reads; echoed with the seed if it offers one
    flags: tuple  # (flag, config keys it sets, argparse keywords)


def _flag(name, *keys, **kwargs):
    if keys:  # the keys it sets share one rule: its type
        kwargs["type"] = _KEYS[keys[0]][1]
    return name, keys, kwargs


_INPUT = _flag("input")
_OUT = _flag("--out", required=True, help="output path or prefix")
_SEED = _flag("--seed", "seed", help="RNG seed (required for stochastic stages)")
_BINS = _flag("--bins", "stats.bins")
_CAMERA = (
    _flag("--camera", "camera.kind", help="hyperspectral (default) or trichromatic"),
    _flag("--height", "camera.height"), _flag("--width", "camera.width"),
    _flag("--channels", "camera.channels",
          help="spectral channels (the trichromatic camera has 3)"),
    _flag("--noise", "noise.sigma", help="Gaussian sigma"), _SEED)
# On every command; the config file may hold every section, so one file serves a pipeline.
_SHARED = (
    _flag("--config", help="JSON config file"),
)

_COMMANDS = {
    "simulate": _Command(cmd_simulate, "forward-simulate a capture",
                         ("camera", "noise", "scene"), (
        *_CAMERA, _flag("--scene", help="input Stokes cube, which sets the size "
                                         "(synthetic scene if omitted)"), _OUT)),
    "reconstruct": _Command(cmd_reconstruct, "invert a raw capture", ("solver",), (_INPUT, _OUT)),
    "features": _Command(partial(cmd_stats, names=("rho", "dolp", "docp", "aolp", "cop"),
                                 means=True),
                         "polarimetric feature histograms", ("stats",),
                         (_INPUT, _BINS, _OUT)),
    "decompose": _Command(cmd_decompose, "polarized/unpolarized intensity split",
                          ("solver", "stats"), (_INPUT, _BINS, _OUT)),
    "validate": _Command(cmd_validate, "validity census of a cube", ("solver",), (_INPUT,)),
    "denoise": _Command(cmd_denoise, "median filter or burst average", (), (
        _INPUT, _flag("--median", help="odd window size (default 3)",
                      type=_rule(int, lambda n: n >= 1 and n % 2, "an odd integer >= 1")),
        _flag("--burst", nargs="+", help="further raw captures of the same setup to average"),
        _OUT)),
    "pca-fit": _Command(cmd_pca_fit, "fit a patch basis", ("pca",), (
        _INPUT, _flag("--patch", "pca.patch_size"), _flag("--bases", "pca.bases"), _OUT)),
    "pca-code": _Command(cmd_pca_code, "encode + decode through a basis", (), (
        _INPUT, _flag("--codebook", required=True),
        _flag("--bases", type=_COUNT, help="truncate the basis to this count"), _OUT)),
    "inr-fit": _Command(cmd_inr_fit, "fit the coordinate network", ("inr",), (
        _INPUT, _flag("--net-width", "inr.width"), _flag("--layers", "inr.layers"),
        _flag("--steps", "inr.steps"), _flag("--lr", "inr.lr"),
        _flag("--batch", "inr.batch",
              help="coordinates per step, rounded down to whole pixels but at least one "
                   "pixel (default: all)"),
        _flag("--loss-csv", help="write the loss curve here"), _SEED, _OUT)),
    "inr-code": _Command(cmd_inr_code, "decode a fitted network", (), (
        _INPUT, _flag("--reference", help="cube to score the decode against"), _OUT)),
    "stats": _Command(cmd_stats, "dataset statistics to CSV", ("stats",), (
        _INPUT, _flag("extra", nargs="*", help="additional cubes to pool"),
        _flag("--feature", required=True, action="append", choices=_STATS, metavar="NAME",
              help="a statistic, one flag per name: " + ", ".join(_STATS)),
        _BINS, _OUT)),
    "sfp-stats": _Command(cmd_sfp_stats, "spectral spread of normal maps", ("stats",),
                          (_INPUT, _BINS, _OUT)),
    "roundtrip": _Command(cmd_roundtrip, "simulate, reconstruct, and score in one go",
                          ("camera", "noise", "scene", "solver"), (
        *_CAMERA, _flag("--size", "camera.height", "camera.width",
                        help="square scene size (sets height and width)"),
        _flag("--out", help="write the reconstructed cube here"))),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # reported as every other configuration error is
        raise _ConfigError(f"{self.prog}: {message}")


# (exceptions, class, exit code): the first entry that matches reports a failure
_FAILURES = (((_ConfigError,), "config", EXIT_CONFIG),
             ((OSError, pc.ContainerError, pc.LabelSchemaError), "io", EXIT_IO),
             ((pc.PolarcubeError, ValueError, ArithmeticError, MemoryError), "numerical",
              EXIT_NUMERICAL))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polarcube", description="spectro-polarimetric pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, _, kwargs in command.flags + _SHARED:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:  # the top-level parser collects them: name the subcommand that refused them
            raise _ConfigError(f"polarcube {args.command}: unrecognized arguments: "
                               + " ".join(unknown))
        cfg = _resolve_config(args)
        print(json.dumps({"config": cfg}, sort_keys=True), flush=True)
        summary = _COMMANDS[args.command].run(cfg, args)
        print(json.dumps({"summary": summary}, sort_keys=True))
        return EXIT_OK
    except Exception as exc:
        for kinds, name, code in _FAILURES:
            if isinstance(exc, kinds):
                print(json.dumps({"error": str(exc), "class": name}), file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
