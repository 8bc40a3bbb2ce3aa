"""In-memory span recorder for the traced benchmark run.

The traced run replaces the public functions of each polarcube module
with thin wrappers that record one span per call: name, start, end,
parent span and iteration id.  Every binding of a wrapped function in a
loaded ``polarcube`` module is replaced, so a call that crosses layers
(``reconstruct`` calling ``camera.demosaic``, ``inr`` calling
``positional_encode``) becomes a child span of its caller.  Nothing is
patched in the untraced run.

A layer's time is the self time of its spans: each span's duration minus
the part its child spans cover.  A wrapped function that a later change
removes is skipped; a wrapped function that no longer fires simply
reports zero calls.

This module uses the standard library only, so the command-line launcher
can load it without importing numpy first.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# ---------------------------------------------------------------------------
# count hooks: run after a wrapped call returns, in traced iterations only


def _count_simulate(tracer, fn, args, kwargs, result):
    scene = _bound(fn, args, kwargs)["scene"]
    tracer.add("camera.bytes_computed", scene.data.nbytes + result.frames.nbytes)


def _count_reconstruct(tracer, fn, args, kwargs, result):
    tracer.gauge("reconstruct.valid_frac", result.valid_fraction())


def _count_samples(tracer, fn, args, kwargs, result):
    parts = result if isinstance(result, tuple) else (result,)
    for part in parts:
        counts = getattr(part, "counts", None)
        if counts is not None:
            tracer.add("analysis.samples", int(counts.sum()))


def _count_write(tracer, fn, args, kwargs, result):
    tracer.add("io.bytes_written", os.path.getsize(_bound(fn, args, kwargs)["path"]))


def _count_read(tracer, fn, args, kwargs, result):
    tracer.add("io.bytes_read", os.path.getsize(_bound(fn, args, kwargs)["path"]))


def _count_train(tracer, fn, args, kwargs, result):
    bound = _bound(fn, args, kwargs)
    _, report = result
    n_valid = int(bound["img"].mask.sum())
    batch = bound.get("batch_size")
    batch = n_valid if batch is None else min(int(batch), n_valid)
    tracer.add("inr.steps", report.steps)
    tracer.add("inr.samples", report.steps * batch)


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


#: (module, function, span name, count hook).  Several functions may share
#: a span name; the layer metric sums their self time.
WRAPPED = (
    ("scenes", "smooth_scene", "scenes.generate", None),
    ("scenes", "random_scene", "scenes.generate", None),
    ("scenes", "uniform_scene", "scenes.generate", None),
    ("camera", "simulate_hyperspectral", "camera.simulate", _count_simulate),
    ("camera", "simulate_trichromatic", "camera.simulate", _count_simulate),
    ("camera", "demosaic", "camera.demosaic", None),
    ("reconstruct", "reconstruct_image", "reconstruct.solve", _count_reconstruct),
    ("reconstruct", "quality", "reconstruct.quality", None),
    ("stokes", "is_valid", "stokes.kernel", None),
    ("stokes", "features", "stokes.kernel", None),
    ("stokes", "decompose", "stokes.kernel", None),
    ("analysis", "feature_plane", "analysis.stats", None),
    ("analysis", "feature_gradient_histograms", "analysis.stats", _count_samples),
    ("analysis", "stokes_histograms", "analysis.stats", _count_samples),
    ("analysis", "pol_unpol_histograms", "analysis.stats", _count_samples),
    ("analysis", "poincare_density", "analysis.stats", _count_samples),
    ("analysis", "docp_distribution", "analysis.stats", _count_samples),
    ("io", "write_spsi", "io.write", _count_write),
    ("io", "read_spsi", "io.read", _count_read),
    ("pca", "extract_patches", "pca.extract", None),
    ("pca", "pca_fit", "pca.fit", None),
    ("pca", "pca_fit_image", "pca.fit", None),
    ("pca", "pca_encode", "pca.encode", None),
    ("pca", "pca_decode", "pca.decode", None),
    ("pca", "pca_rate_curve", "pca.rate_curve", None),
    ("inr", "positional_encode", "inr.encode", None),
    ("inr", "inr_train", "inr.train", _count_train),
    ("inr", "inr_decode", "inr.decode", None),
)

#: per-layer metric -> span name whose self time it sums, per traced iteration
SELF_TIME = {
    "camera.simulate_s": "camera.simulate",
    "camera.demosaic_s": "camera.demosaic",
    "reconstruct.solve_s": "reconstruct.solve",
    "reconstruct.quality_s": "reconstruct.quality",
    "stokes.kernel_s": "stokes.kernel",
    "analysis.stats_s": "analysis.stats",
    "io.write_s": "io.write",
    "io.read_s": "io.read",
    "pca.fit_s": "pca.fit",
    "pca.extract_s": "pca.extract",
    "pca.encode_s": "pca.encode",
    "pca.decode_s": "pca.decode",
    "pca.rate_curve_s": "pca.rate_curve",
    "inr.encode_s": "inr.encode",
    "inr.decode_s": "inr.decode",
}

#: per-layer metric -> span name whose calls it counts, per traced iteration
CALLS = {
    "camera.demosaic_calls": "camera.demosaic",
    "stokes.kernel_calls": "stokes.kernel",
    "pca.extract_calls": "pca.extract",
    "inr.encode_calls": "inr.encode",
}


class Tracer:
    """Spans and counters of one process, kept in memory until dumped."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, iteration]
        self.counters = defaultdict(float)
        self.iteration = -1  # -1 is set-up
        self._stack = []
        self._patches = None

    # -- recording -------------------------------------------------------

    def add(self, name, value):
        """Add to a counter; counters only accumulate inside iterations."""
        if self.iteration >= 0:
            self.counters[name] += value

    def gauge(self, name, value):
        """Record one reading of a value whose per-layer metric is the mean."""
        self.counters[name + ".sum"] += value
        self.counters[name + ".n"] += 1

    def record(self, name, start, end):
        """Record a root span measured by the caller; returns its index."""
        self.spans.append([name, start, end, -1, self.iteration])
        return len(self.spans) - 1

    def merge(self, spans, counters, parent):
        """Adopt the spans and counters dumped by a traced subprocess.

        Its root spans become children of ``parent``.  Subprocess clocks
        are comparable because ``perf_counter`` is system-wide monotonic.
        """
        offset = len(self.spans)
        for name, start, end, par, _ in spans:
            self.spans.append([name, start, end, parent if par < 0 else par + offset,
                               self.iteration])
        for name, value in counters.items():
            self.add(name, value)

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.iteration]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None and self.iteration >= 0:
                hook(self, fn, args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self):
        """Replace every binding of the wrapped functions with a wrapper."""
        if self._patches is None:
            self._patches = self._plan()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._patches or ():
            setattr(module, attr, original)

    def _plan(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "polarcube" or n.startswith("polarcube."))]
        patches = []
        for mod_name, fn_name, span, hook in WRAPPED:
            home = sys.modules.get(f"polarcube.{mod_name}")
            fn = getattr(home, fn_name, None)
            if not inspect.isfunction(fn):
                continue  # removed or renamed by a later change: reports zero
            wrapper = self._wrap(span, fn, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        patches.append((module, attr, fn, wrapper))
        return patches

    # -- output ----------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [(end - start) - covered[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self, traced_iterations: int) -> dict:
        """Per-layer metrics, normalised per traced iteration.

        ``scenes.generate_s`` is the set-up total instead, because scene
        generation happens in set-up only.
        """
        n = max(traced_iterations, 1)
        self_by_name = defaultdict(float)
        total_by_name = defaultdict(float)
        calls = defaultdict(int)
        setup_generate = 0.0
        for (name, start, end, _, it), own in zip(self.spans, self.self_times()):
            if it < 0:
                if name == "scenes.generate":
                    setup_generate += own
                continue
            self_by_name[name] += own
            total_by_name[name] += end - start
            calls[name] += 1
        c = self.counters
        m = {"scenes.generate_s": setup_generate}
        for metric, span in SELF_TIME.items():
            m[metric] = self_by_name[span] / n
        for metric, span in CALLS.items():
            m[metric] = calls[span] / n
        m["camera.bytes_computed"] = c["camera.bytes_computed"] / n
        m["reconstruct.valid_frac"] = _mean(c, "reconstruct.valid_frac")
        m["analysis.samples"] = c["analysis.samples"] / n
        m["io.bytes_written"] = c["io.bytes_written"] / n
        m["io.bytes_read"] = c["io.bytes_read"] / n
        m["io.write_mb_per_s"] = _rate(c["io.bytes_written"] / 1e6, self_by_name["io.write"])
        m["io.read_mb_per_s"] = _rate(c["io.bytes_read"] / 1e6, self_by_name["io.read"])
        train = total_by_name["inr.train"]
        m["pca.psnr_db"] = _mean(c, "pca.psnr_db")
        m["inr.step_ms"] = 1e3 * train / c["inr.steps"] if c["inr.steps"] else 0.0
        m["inr.samples_per_s"] = _rate(c["inr.samples"], train)
        m["cli.startup_s"] = total_by_name["cli.startup"] / n
        m["cli.command_s"] = total_by_name["cli.command"] / n
        return m


def _mean(counters, name):
    n = counters[name + ".n"]
    return counters[name + ".sum"] / n if n else 0.0


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def load_dump(path):
    with open(path) as fh:
        blob = json.load(fh)
    return blob["spans"], blob["counters"]
