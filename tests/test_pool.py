"""The blocked, multi-threaded per-pixel stages: identical bits for any worker count."""

import contextlib
import os
import subprocess
import sys
import textwrap
import threading
import time
import weakref

import numpy as np
import pytest

from polarcube import (
    NoiseModel,
    StokesImage,
    default_qwp_angles,
    demosaic_footprint,
    feature_plane,
    read_spsi,
    reconstruct_image,
    simulate_hyperspectral,
    simulate_trichromatic,
    smooth_scene,
    write_spsi,
)
import polarcube
from polarcube import _pool
from polarcube.stokes import _KERNEL_NAMES, _kernel

# Small blocks, so the small inputs below span many blocks.
SMALL_BLOCK_VALUES = 1 << 8
TIMEOUT_S = 30.0
NOISE = NoiseModel(gaussian_sigma=0.02, shot_gain=1e-3, saturation_level=0.45, rng_seed=3)


@contextlib.contextmanager
def workers(n, block_values=SMALL_BLOCK_VALUES):
    """Run the pool with ``n`` threads (1: inline) and ``block_values``-sized blocks."""
    saved = _pool.WORKERS, _pool._tasks, _pool.BLOCK_VALUES
    _pool.WORKERS, _pool._tasks, _pool.BLOCK_VALUES = n, None, block_values
    try:
        yield
    finally:
        if _pool._tasks is not None:  # stop this pool's threads
            for _ in range(n):
                _pool._tasks.put(None)
        _pool.WORKERS, _pool._tasks, _pool.BLOCK_VALUES = saved


def on_each(fn, counts=(1, 2, 3)):
    """``fn()`` once per worker count: inline, and on pools of 2 and 3 threads."""
    results = []
    for n in counts:
        with workers(n):
            results.append(fn())
    return results


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_cubes_equal(a, b):
    assert_bits_equal(a.data, b.data)
    assert_bits_equal(a.mask, b.mask)


@pytest.fixture(scope="module")
def hyper_raw():
    scene = smooth_scene(24, 20, 5, np.random.default_rng(11))
    return simulate_hyperspectral(scene, default_qwp_angles(), noise=NOISE)


@pytest.fixture(scope="module")
def mosaic_raw():
    scene = smooth_scene(32, 28, 3, np.random.default_rng(12))
    return simulate_trichromatic(scene, noise=NOISE)


class TestSameBitsForAnyWorkerCount:
    def test_noisy_hyperspectral_frames(self):
        scene = smooth_scene(24, 20, 5, np.random.default_rng(11))
        one, *more = on_each(lambda: simulate_hyperspectral(scene, default_qwp_angles(),
                                                            noise=NOISE).frames)
        for other in more:
            assert_bits_equal(one, other)

    def test_reconstruct_hyperspectral(self, hyper_raw):
        one, *more = on_each(lambda: reconstruct_image(hyper_raw))
        for other in more:
            assert_cubes_equal(one, other)
        assert 0 < one.valid_fraction() < 1  # clipped samples reach the mask

    def test_reconstruct_mosaic(self, mosaic_raw):
        one, *more = on_each(lambda: reconstruct_image(mosaic_raw))
        for other in more:
            assert_cubes_equal(one, other)
        assert 0 < one.valid_fraction() < 1

    def test_demosaic_footprint(self, mosaic_raw):
        flags = mosaic_raw.frames[0] >= 0.45
        one, *more = on_each(lambda: demosaic_footprint(flags))
        for other in more:
            assert_bits_equal(one, other)
        assert one.any()

    @pytest.mark.parametrize("name", _KERNEL_NAMES)
    def test_every_kernel_name(self, hyper_raw, name):
        cube = reconstruct_image(hyper_raw)
        one, *more = on_each(lambda: _kernel(cube.data, name, cube.mask))
        for other in more:
            assert_bits_equal(one[0], other[0])
            assert_bits_equal(one[1], other[1])

    def test_kernel_matches_one_block(self, hyper_raw):
        # The per-vector formulas do not depend on where blocks start.
        cube = reconstruct_image(hyper_raw)
        for name in _KERNEL_NAMES:
            with workers(3):
                blocked = _kernel(cube.data, name, cube.mask)
            with workers(1, block_values=cube.data.size):
                whole = _kernel(cube.data, name, cube.mask)
            assert_bits_equal(blocked[0], whole[0])
            assert_bits_equal(blocked[1], whole[1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_spsi_cube_round_trip(self, hyper_raw, tmp_path, dtype):
        cube = reconstruct_image(hyper_raw)
        cube = StokesImage(cube.data.astype(dtype), cube.wavelengths, cube.mask)

        def round_trip():
            path = tmp_path / "cube.spsi"
            write_spsi(path, cube)
            with open(path, "rb") as fh:
                blob = fh.read()
            return blob, read_spsi(path)

        (blob_one, back_one), *more = on_each(round_trip)
        for blob, back in more:
            assert blob == blob_one
            assert_cubes_equal(back, back_one)
        assert_cubes_equal(back_one, cube)
        assert back_one.data.flags.c_contiguous


class TestDispatch:
    def test_blocks_cover_the_range_once(self):
        hits = np.zeros(1000, dtype=int)

        def mark(lo, hi):
            hits[lo:hi] += 1

        with workers(3, block_values=70):
            _pool.blocks(mark, len(hits), 1)
        assert (hits == 1).all()

    def test_nested_dispatch_finishes_and_start_up_imports_no_pool(self):
        # Every pool thread runs an outer block that starts an inner job; the
        # inner blocks must run inline instead of waiting on the full pool.  A
        # deadlock would outlive the test, so it runs in a child process.
        script = textwrap.dedent("""
            import os, signal, sys
            import numpy as np
            import polarcube.cli
            from polarcube import _pool
            assert "queue" not in sys.modules, "imported at start-up"
            _pool.WORKERS, _pool.BLOCK_VALUES = 2, 4
            out = np.zeros((8, 64))

            def outer(lo, hi):
                for row in range(lo, hi):
                    def inner(a, b, row=row):
                        out[row, a:b] = row
                    _pool.blocks(inner, out.shape[1], 1)

            _pool.blocks(outer, len(out), 4)
            assert "concurrent.futures" not in sys.modules
            assert (out == np.arange(8)[:, None]).all()

            # A forked child has no pool threads; it must start its own.
            if hasattr(os, "fork"):
                pid = os.fork()
                if pid == 0:
                    signal.alarm(10)
                    out[:] = 0
                    _pool.blocks(outer, len(out), 4)
                    os._exit(0 if (out == np.arange(8)[:, None]).all() else 1)
                assert os.waitpid(pid, 0)[1] == 0, "dispatch in a forked child failed"
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(polarcube.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, env=env, timeout=TIMEOUT_S)
        assert result.returncode == 0, result.stderr

    def test_worker_exception_reaches_the_caller(self):
        done = []

        def fail_in_one(lo, hi):
            if lo <= 50 < hi:
                raise ZeroDivisionError("block 50")
            done.append(lo)

        with workers(3, block_values=10):
            with pytest.raises(ZeroDivisionError, match="block 50"):
                _pool.blocks(fail_in_one, 100, 1)
        assert sorted(done) == [lo for lo in range(0, 100, 10) if lo != 50]

    def test_idle_threads_release_the_job(self):
        # A finished job's closure, and the arrays it holds, must not stay
        # alive in the pool threads until their next job.
        data = np.zeros(1000)
        alive = weakref.ref(data)

        def touch(lo, hi, data=data):
            data[lo:hi] += 1

        with workers(3, block_values=10):
            _pool.blocks(touch, len(data), 1)
            assert (data == 1).all()
            del touch, data
            deadline = time.monotonic() + 5.0
            while alive() is not None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert alive() is None

    def test_single_block_runs_inline(self):
        threads = []
        with workers(3):
            _pool.blocks(lambda lo, hi: threads.append(threading.current_thread()), 5, 1)
            assert _pool._tasks is None
        assert threads == [threading.current_thread()]

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
    def test_pool_has_one_thread_per_available_core(self):
        assert _pool.WORKERS == len(os.sched_getaffinity(0))


class TestNoRows:
    def test_blocks_of_nothing(self):
        calls = []
        with workers(3):
            _pool.blocks(lambda lo, hi: calls.append((lo, hi)), 0, 0)
        assert calls == []

    @pytest.mark.parametrize("name", _KERNEL_NAMES)
    def test_kernel(self, name):
        values, defined = _kernel(np.ones((0, 3, 4)), name)
        assert values.shape == defined.shape == (0, 3)

    def test_feature_plane_and_round_trip(self, tmp_path):
        cube = StokesImage(np.ones((0, 5, 2, 4)))
        values, valid = feature_plane(cube, "rho")
        assert values.shape == valid.shape == (0, 5, 2)
        write_spsi(tmp_path / "empty.spsi", cube)
        back = read_spsi(tmp_path / "empty.spsi")
        assert back.data.shape == (0, 5, 2, 4)
