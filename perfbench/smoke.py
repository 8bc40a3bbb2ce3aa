"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks that every workload finishes with no failed operation and prints
every metric BENCHMARK.json names, with its unit, in the untraced and the
traced run; and that in a directory holding only BENCHMARK.json and the
benchmark's files the benchmark exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()


def run(cwd, *args):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_workload(name, trace, spec):
    proc = run(ROOT, "--workload", name, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    if proc.returncode != 0:
        return [f"{name} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{name}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{name} trace={trace}: {result['failed']}/{result['attempted']} "
                        f"failed: {proc.stderr[-500:]}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{name} trace={trace}: metrics {got} != {want}")
    return problems


def check_without_program(spec):
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=out)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"without src/ the benchmark exited {proc.returncode}: {proc.stdout[-300:]}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = check_without_program(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_workload(workload["name"], trace, spec)
            print(f"{workload['name']} trace={trace} done", flush=True)
    for p in problems:
        print("FAIL", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
