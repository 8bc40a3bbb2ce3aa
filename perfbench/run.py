"""Benchmark of the polarcube pipeline: camera -> reconstruct -> statistics -> codec.

Run from the root of a checkout:

    python3 perfbench/run.py                          # all four workloads
    python3 perfbench/run.py --workload codec --seed 1 --seconds 15
    python3 perfbench/run.py --workload codec --trace 1   # per-layer metrics

Each workload runs in fresh processes of ``perfbench/workloads.py`` with
the BLAS thread count pinned through the environment before numpy loads.
Set-up is measured three times (two set-up-only processes, then the
measuring one) and reported as the median.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json, or with
``--trace 1`` its per-layer metrics.  Exits non-zero without a result when
the checkout holds no ``src/polarcube`` or a workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hyper-capture", "mosaic-survey", "codec", "cli-chain")
DEFAULT_SEED = 1
SETUPS = 3
#: Pin BLAS to at most this many threads, and at most the cores available,
#: so runs on larger machines keep the conditions of the recorded baseline.
MAX_BLAS_THREADS = 2
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def pinned_env(root):
    threads = str(min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    env.pop("POLARCUBE_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def start_workload(args, env, root, workdir, setup_only):
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=root,
                            start_new_session=True)
    return proc, started


def finish(proc, started, deadline):
    """Read the child's protocol lines; returns (set-up seconds, result or None).

    A watchdog kills the child's process group, command-line processes
    included, if it runs past the deadline.
    """
    expired = threading.Event()

    def kill():
        expired.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(deadline - time.perf_counter(), 0.0), kill)
    watchdog.start()
    ready, result = None, None
    try:
        for line in iter(proc.stdout.readline, ""):
            if line.startswith("PERFBENCH_READY"):
                ready = time.perf_counter() - started
            elif line.startswith("PERFBENCH_RESULT "):
                result = json.loads(line.split(" ", 1)[1])
        code = proc.wait()
    except BaseException:
        kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if expired.is_set():
        raise BenchError("workload ran past the deadline")
    if code != 0 or ready is None:
        raise BenchError(f"workload process exited with {code}")
    return ready, result


def run_workload(args, root, deadline):
    """Set up SETUPS times in fresh processes; the last one also measures."""
    env = pinned_env(root)
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    setups = []
    try:
        for i in range(1 if args.trace else SETUPS):
            setup_only = not args.trace and i < SETUPS - 1
            proc, started = start_workload(args, env, root, workdir, setup_only)
            ready, result = finish(proc, started, deadline)
            setups.append(ready)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        raise BenchError("workload printed no result")
    result["setup_runs_s"] = setups
    result["setup_s"] = statistics.median(setups)
    path = os.path.join(out_dir,
                        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(args, result, spec):
    """Human-readable lines, then the machine facts, then the result object."""
    name = result["workload"]
    attempted, failed = result["attempted"], result["failed"]
    values = result["layers"] if args.trace else result
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    if not args.trace:
        n = len(result["iter_times_s"])
        cells = [f"{k}={v['value']:.6g} {v['unit']}" + (f" (n={n})" if k == "iter_p50_s" else "")
                 for k, v in metrics.items()]
        cells.append(f"fail_frac={failed / attempted:.6g} ({failed}/{attempted})")
        print(f"{name:14s} " + "  ".join(cells))
    for failure in result["failures"]:
        print(f"{name}: FAILED {failure.strip()}", file=sys.stderr)
    print(json.dumps({"workload": name, "machine": result["machine"],
                      "notes": result["notes"], "setup_runs_s": result["setup_runs_s"],
                      "roundtrip_max_rel_error": result["roundtrip_max_rel_error"]}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description="polarcube pipeline benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="workload seed (default 1; seed 7919 is held out for checking claims)")
    p.add_argument("--seconds", type=float, help="timed phase per workload "
                   "(default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so children are killed

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "polarcube", "__init__.py")):
        print("perfbench: run from the root of a polarcube checkout (no src/polarcube here)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outputs = []
    for name in names:
        args.workload = name
        try:
            result = run_workload(args, root, time.perf_counter() + DEADLINE_S)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        outputs.append(report(args, result, spec))
    if len(outputs) == 1:
        final = outputs[0]
    else:
        final = {
            "correct": all(o["correct"] for o in outputs),
            "attempted": sum(o["attempted"] for o in outputs),
            "failed": sum(o["failed"] for o in outputs),
            "metrics": {f"{n}/{k}": v for n, o in zip(names, outputs)
                        for k, v in o["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
