"""One benchmark workload in one fresh process.

``run.py`` starts this script with the BLAS thread count already pinned
in the environment, so numpy loads under the pin.  The process imports
polarcube from the checkout's ``src/``, builds its inputs from the seed,
runs one untimed warm-up iteration and prints ``PERFBENCH_READY``; the
time from process start to that line is the set-up time.  With
``--setup-only`` it stops there.  Otherwise it runs closed-loop
iterations (the next starts when the previous ends) until ``--seconds``
have passed, checks every iteration's outputs outside the timed span,
runs the once-per-run round-trip check and prints one
``PERFBENCH_RESULT <json>`` line.

In the traced run iterations alternate untraced / traced; the per-layer
metrics come from the traced ones and ``trace.overhead_frac`` compares
the two medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

import numpy as np  # noqa: E402  (after the environment pin set by run.py)
import scipy  # noqa: E402

import polarcube as pc  # noqa: E402
from tracer import Tracer, load_dump  # noqa: E402

# Noise for the noisy captures: Gaussian plus shot noise.  With smooth
# scenes the 97th-98th percentile of the noiseless intensities lies near
# 0.48, so this saturation level clips about 1-5 % of the samples.
NOISE_SIGMA = 0.004
SHOT_GAIN = 2e-4
SATURATION = 0.48
ROUNDTRIP_BOUND = 1e-5  # acceptance criterion 1
# Iterations take 1-5 s, so a run measures at least this many even when
# --seconds has passed, to give the median something to choose from.
MIN_ITERATIONS = 3


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _noise(seed):
    return pc.NoiseModel(gaussian_sigma=NOISE_SIGMA, shot_gain=SHOT_GAIN,
                         saturation_level=SATURATION, rng_seed=seed)


def _bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    return np.array_equal(np.ascontiguousarray(a).view(np.uint8),
                          np.ascontiguousarray(b).view(np.uint8))


def _same_cube(a, b):
    return (_bits_equal(a.data, b.data) and _bits_equal(a.mask, b.mask)
            and _bits_equal(np.asarray(a.wavelengths, float), np.asarray(b.wavelengths, float)))


def _same_raw(a, b):
    return (_bits_equal(a.frames, b.frames) and a.tags == b.tags
            and a.saturation_level == b.saturation_level and a.black_level == b.black_level
            and _bits_equal(np.asarray(a.wavelengths, float), np.asarray(b.wavelengths, float)))


def _saturated_frac(raw):
    return float(np.mean(raw.frames >= pc.reconstruct.SATURATION_FRACTION * raw.saturation_level))


# ---------------------------------------------------------------------------
# workloads: set-up in __init__, iterate() is timed, check() is not


class HyperCapture:
    """Sequential camera, many channels, few rows per channel, SPSI I/O."""

    def __init__(self, seed, tiny, workdir):
        size = 32 if tiny else 256
        self.scene = pc.smooth_scene(size, size, 21, _rng(seed, 1))
        self.noise = _noise(seed)
        self.voxels = size * size * 21
        self.raw_path = os.path.join(workdir, "raw.spsi")
        self.cube_path = os.path.join(workdir, "cube.spsi")

    def iterate(self, tracer):
        raw = pc.simulate_hyperspectral(self.scene, pc.default_qwp_angles(), noise=self.noise)
        pc.write_spsi(self.raw_path, raw)
        raw_back = pc.read_spsi(self.raw_path)
        cube = pc.reconstruct_image(raw_back)
        report = pc.quality(self.scene, cube)
        pc.write_spsi(self.cube_path, cube)
        cube_back = pc.read_spsi(self.cube_path)
        return raw, raw_back, cube, report, cube_back

    def check(self, out, tracer):
        raw, raw_back, cube, report, cube_back = out
        fails = []
        if not _same_raw(raw, raw_back):
            fails.append("raw capture read-back is not bit-exact")
        if not _same_cube(cube, cube_back):
            fails.append("cube read-back is not bit-exact")
        if not np.isfinite(report.psnr):
            fails.append("non-finite PSNR")
        return fails, report.psnr, {"saturated_frac": _saturated_frac(raw),
                                    "valid_frac": cube.valid_fraction()}


MOSAIC_FEATURES = ("rho", "dolp", "docp", "aolp", "cop")


class MosaicSurvey:
    """Single-shot mosaic camera, few channels, many pixels, statistics."""

    def __init__(self, seed, tiny, workdir):
        size = 64 if tiny else 512
        self.scene = pc.smooth_scene(size, size, 3, _rng(seed, 2))
        self.noise = _noise(seed)
        self.voxels = size * size * 3

    def iterate(self, tracer):
        raw = pc.simulate_trichromatic(self.scene, noise=self.noise)
        cube = pc.reconstruct_image(raw)
        report = pc.quality(self.scene, cube)
        planes = {f: pc.feature_plane(cube, f) for f in MOSAIC_FEATURES}
        stats = {
            "aolp_gradient": pc.feature_gradient_histograms([cube], "aolp"),
            "stokes": [pc.stokes_histograms([cube], e) for e in ("s0", "s1", "s2", "s3")],
            "pol_unpol": pc.pol_unpol_histograms([cube]),
            "poincare": [pc.poincare_density([cube], p) for p in ("s1-s2", "s1-s3")],
        }
        return raw, cube, report, planes, stats

    def check(self, out, tracer):
        raw, cube, report, planes, stats = out
        d, mask = cube.data, cube.mask
        s0 = d[..., 0]
        pos = mask & (s0 > 0)
        lin_ok = pos & (np.hypot(d[..., 1], d[..., 2]) > 0)
        fails = []
        for feature, (values, valid) in planes.items():
            want = lin_ok if feature == "aolp" else pos
            if not np.array_equal(valid, want):
                fails.append(f"feature_plane({feature}) validity differs from the mask")
        pairs = int((lin_ok[:, 1:] & lin_ok[:, :-1]).sum() + (lin_ok[1:] & lin_ok[:-1]).sum())
        totals = {"aolp gradient": (stats["aolp_gradient"].total, pairs)}
        for e, hist in zip(("s0", "s1", "s2", "s3"), stats["stokes"]):
            totals[f"{e} histogram"] = (hist.total, int(mask.sum()))
        pol = np.linalg.norm(d[..., 1:], axis=-1)
        unpol = s0 - pol
        hist_p, hist_u = stats["pol_unpol"]
        top = hist_p.edges[-1]
        totals["polarized histogram"] = (hist_p.total, int(pos.sum()))
        totals["unpolarized histogram"] = (
            hist_u.total, int((pos & (unpol >= 0) & (unpol <= top)).sum()))
        safe = np.where(pos, s0, 1.0)
        x = d[..., 1] / safe
        for other, grid in zip((2, 3), stats["poincare"]):
            y = d[..., other] / safe
            inside = pos & (np.abs(x) <= 1.0) & (np.abs(y) <= 1.0)
            totals[f"poincare s1-s{other}"] = (int(grid.counts.sum()), int(inside.sum()))
        for name, (got, want) in totals.items():
            if got != want:
                fails.append(f"{name} total {got} != {want} valid samples")
        if not np.isfinite(report.psnr):
            fails.append("non-finite PSNR")
        return fails, report.psnr, {"saturated_frac": _saturated_frac(raw),
                                    "valid_frac": cube.valid_fraction()}


class Codec:
    """Patch-PCA on a 21-channel cube and a coordinate network on RGB."""

    def __init__(self, seed, tiny, workdir):
        size, small = (40, 16) if tiny else (128, 64)
        self.patch, self.bases = (4, 8) if tiny else (10, 40)
        self.ks = (2, 4, 8) if tiny else (5, 10, 20, 40)
        self.steps, self.batch = (5, 256) if tiny else (40, 4096)
        self.reference = pc.smooth_scene(size, size, 21, _rng(seed, 3))
        self.target = pc.smooth_scene(small, small, 3, _rng(seed, 4))
        self.seed = seed
        self.voxels = size * size * 21 + small * small * 3
        self.codebook_path = os.path.join(workdir, "codebook.spsi")
        self.model_path = os.path.join(workdir, "model.spsi")

    def iterate(self, tracer):
        ref = self.reference
        codebook = pc.pca_fit_image(ref, self.patch, self.bases)
        decoded = pc.pca_decode(pc.pca_encode(ref, codebook))
        curve = pc.pca_rate_curve(ref, codebook, self.ks)
        pc.write_spsi(self.codebook_path, codebook)
        codebook_back = pc.read_spsi(self.codebook_path)

        model = pc.inr_init(4, 64, seed=self.seed, dtype=np.float32)
        model, report = pc.inr_train(model, self.target, self.steps, lr=1e-2,
                                     batch_size=self.batch, seed=self.seed)
        image = pc.inr_decode(model)
        net_quality = pc.quality(self.target, image)
        pc.write_spsi(self.model_path, model)
        model_back = pc.read_spsi(self.model_path)
        return codebook, decoded, curve, codebook_back, model, report, net_quality, model_back

    def check(self, out, tracer):
        codebook, decoded, curve, codebook_back, model, report, net_quality, model_back = out
        ref = self.reference
        if tracer is not None:
            tracer.gauge("pca.psnr_db", pc.quality(ref, decoded).psnr)
        fails = []
        mse = [row[3] for row in curve.rows]
        if any(b > a for a, b in zip(mse, mse[1:])):
            fails.append(f"rate-curve MSE increases with K: {mse}")
        err = decoded.data[decoded.mask] - ref.data[decoded.mask]
        direct = float(np.mean(err * err))
        if curve.rows[-1][0] != self.bases or abs(mse[-1] - direct) > 1e-9 * direct:
            fails.append(f"rate-curve K={self.bases} MSE {mse[-1]} != direct decode {direct}")
        if not all(_bits_equal(getattr(codebook, f), getattr(codebook_back, f))
                   for f in ("mean", "basis", "sigma")):
            fails.append("codebook read-back is not bit-exact")
        if not (len(model.weights) == len(model_back.weights)
                and all(_bits_equal(a, b) for a, b in zip(model.weights + model.biases,
                                                           model_back.weights + model_back.biases))):
            fails.append("network read-back is not bit-exact")
        losses = [loss for _, loss in report.loss_curve] + [report.final_mse]
        if not np.all(np.isfinite(losses)):
            fails.append("network loss is not finite")
        return fails, net_quality.psnr, {"pca_mse": direct, "final_loss": report.final_mse}


CLI_ENTRY = os.path.join(HERE, "cli_entry.py")


class CliChain:
    """Eight CLI subprocesses handing SPSI files to each other."""

    def __init__(self, seed, tiny, workdir):
        size = 16 if tiny else 64
        patch, bases = (4, 8) if tiny else (8, 32)
        self.scene = pc.smooth_scene(size, size, 21, _rng(seed, 5))
        self.voxels = size * size * 21
        self.dir = workdir
        f = {n: os.path.join(workdir, n) for n in (
            "scene.spsi", "raw.spsi", "cube.spsi", "denoised.spsi", "codebook.spsi",
            "decoded.spsi", "config.json")}
        self.files = f
        pc.write_spsi(f["scene.spsi"], self.scene)
        with open(f["config.json"], "w") as fh:
            json.dump({"noise": {"sigma": NOISE_SIGMA, "shot_gain": SHOT_GAIN,
                                 "saturation": SATURATION}}, fh)
        feat = os.path.join(workdir, "feat_")
        grad = os.path.join(workdir, "grad.csv")
        self.commands = [
            ["simulate", "--scene", f["scene.spsi"], "--config", f["config.json"],
             "--seed", str(seed), "--out", f["raw.spsi"]],
            ["reconstruct", f["raw.spsi"], "--out", f["cube.spsi"]],
            ["validate", f["cube.spsi"]],
            ["denoise", f["raw.spsi"], "--median", "3", "--out", f["denoised.spsi"]],
            ["features", f["cube.spsi"], "--out", feat],
            ["pca-fit", f["cube.spsi"], "--patch", str(patch), "--bases", str(bases),
             "--out", f["codebook.spsi"]],
            ["pca-code", f["cube.spsi"], "--codebook", f["codebook.spsi"],
             "--out", f["decoded.spsi"]],
            ["stats", f["decoded.spsi"], "--feature", "aolp-gradient", "--out", grad],
        ]

    def _run(self, argv, tracer):
        env = None
        spans_path = os.path.join(self.dir, "spans.json")
        if tracer is not None:
            env = dict(os.environ, PERFBENCH_SPANS=spans_path)
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CLI_ENTRY, *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True, env=env, cwd=self.dir)
        ready, lines = None, []
        for line in iter(proc.stdout.readline, ""):
            if ready is None and line.startswith('{"config"'):
                ready = time.perf_counter()
            lines.append(line)
        proc.stdout.close()
        code = proc.wait()
        end = time.perf_counter()
        if tracer is not None:
            ready = ready or end
            tracer.record("cli.startup", start, ready)
            command = tracer.record("cli.command", ready, end)
            if os.path.exists(spans_path):
                tracer.merge(*load_dump(spans_path), parent=command)
                os.unlink(spans_path)
        return code, "".join(lines[-3:])

    def iterate(self, tracer):
        return [self._run(argv, tracer) for argv in self.commands]

    def check(self, out, tracer):
        fails = [f"polarcube {argv[0]} exited {code}: {tail.strip()}"
                 for argv, (code, tail) in zip(self.commands, out) if code != 0]
        if fails:
            return fails, float("nan"), {}
        f = self.files
        raw = pc.read_spsi(f["raw.spsi"])
        cli_cube = pc.read_spsi(f["cube.spsi"])
        if not _same_cube(pc.reconstruct_image(raw), cli_cube):
            fails.append("CLI reconstruction differs from in-process reconstruct_image")
        # fidelity where the capture gave valid measurements, as in quality()
        reference = pc.StokesImage(self.scene.data, self.scene.wavelengths, cli_cube.mask)
        report = pc.quality(reference, pc.read_spsi(f["decoded.spsi"]))
        return fails, report.psnr, {"saturated_frac": _saturated_frac(raw),
                                    "valid_frac": cli_cube.valid_fraction()}


WORKLOADS = {
    "hyper-capture": HyperCapture,
    "mosaic-survey": MosaicSurvey,
    "codec": Codec,
    "cli-chain": CliChain,
}


# ---------------------------------------------------------------------------
# checks and facts


def roundtrip_error(seed, tiny):
    """Criterion 1: noiseless 128x128x21 round trip, max relative error."""
    size = 32 if tiny else 128
    scene = pc.smooth_scene(size, size, 21, _rng(seed, 6))
    cube = pc.reconstruct_image(pc.simulate_hyperspectral(scene, pc.default_qwp_angles()))
    return float(np.max(np.abs(cube.data - scene.data)) / scene.data[..., 0].max())


def machine_facts(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement


def run(args):
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(pc.__file__).startswith(src + os.sep):
        raise SystemExit(f"polarcube was imported from {pc.__file__}, not from {src}")
    tracer = Tracer() if args.trace else None
    if tracer is not None:  # set-up is traced for scenes.generate_s
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, args.tiny, args.workdir)
    if tracer is not None:
        tracer.uninstall()
    workload.check(workload.iterate(None), None)  # warm-up, untimed
    print("PERFBENCH_READY", flush=True)
    if args.setup_only:
        return 0
    result = measure(workload, args, tracer)
    result["machine"] = machine_facts(args.seed)
    if tracer is not None:
        path = os.path.join(ROOT, ".perfbench_out", f"spans-{args.workload}-seed{args.seed}.json")
        tracer.dump(path)
        result["spans_file"] = os.path.relpath(path, ROOT)
    print("PERFBENCH_RESULT " + json.dumps(result), flush=True)
    return 0


def measure(workload, args, tracer):
    times = {False: [], True: []}
    psnr, failures, notes = [], [], {}
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        # the traced run alternates untraced and traced iterations
        traced = tracer is not None and attempted % 2 == 1
        done = (time.perf_counter() - start >= args.seconds
                and len(times[False]) >= MIN_ITERATIONS)
        if done and (tracer is None or times[True]):
            break
        attempted += 1
        if traced:
            tracer.iteration = attempted
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = workload.iterate(tracer if traced else None)
        except Exception:
            out = None
            failures.append(traceback.format_exc(limit=3))
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
        times[traced].append(t1 - t0)
        if out is None:
            failed += 1
            continue
        try:
            fails, value, notes = workload.check(out, tracer if traced else None)
        except Exception:
            fails, value = [traceback.format_exc(limit=3)], float("nan")
        del out  # so two iterations' outputs never add up in peak_rss_mb
        psnr.append(value)
        if fails:
            failed += 1
            failures.extend(fails)
    if args.workload == "cli-chain":
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted += 1
    try:
        error = roundtrip_error(args.seed, args.tiny)
    except Exception:
        error = float("nan")
        failures.append(traceback.format_exc(limit=3))
    if not error < ROUNDTRIP_BOUND:
        failed += 1
        failures.append(f"noiseless round trip max relative error {error:.3g}")

    untraced = times[False]
    result = {
        "workload": args.workload,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "iter_times_s": untraced,
        "iter_p50_s": statistics.median(untraced),
        "mvox_per_s": workload.voxels * len(untraced) / sum(untraced) / 1e6,
        "psnr_db": statistics.median(psnr) if psnr else float("nan"),
        "peak_rss_mb": peak,
        "roundtrip_max_rel_error": error,
        "notes": notes,
    }
    if tracer is not None:
        layers = tracer.layer_metrics(len(times[True]))
        p50_traced = statistics.median(times[True])
        layers["trace.overhead_frac"] = p50_traced / result["iter_p50_s"] - 1.0
        result["traced_iter_times_s"] = times[True]
        result["layers"] = layers
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True, help="scratch directory for files")
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up and the warm-up iteration")
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
