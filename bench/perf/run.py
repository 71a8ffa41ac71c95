#!/usr/bin/env python3
"""Builds csca_perf from this source tree and runs one workload.

Usage, from the root of the repository:

    python3 bench/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark package (bench/perf/CMakeLists.txt) is configured and
built under .bench_build/ on first use; later runs only rebuild what
changed. --trace 1 asks for the traced run: the result then carries the
per-layer metrics instead of the end-to-end ones, and the spans land in
.bench_build/trace/. Every run also writes its full result document
(all series, quartiles, environment) to .bench_build/results/.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Its metric names and units must match BENCHMARK.json; a mismatch is an
error. Exits 0 when the run's output checks all passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "csca_perf")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configures (once) and builds csca_perf; compiler output to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # Configure until a generator has written its build file (a failed
    # configure leaves a cache behind but no build file).
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "csca_perf",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:3])} exited {done.returncode}")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seed >= 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")

    build()
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}",
           f"--out={os.path.join(BUILD, 'results', tag + '.json')}"]
    if args.trace:
        os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
        cmd.append(f"--trace={os.path.join(BUILD, 'trace', tag + '.json')}")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"csca_perf did not finish: {e}")

    # On any failure below, the report goes to stderr so that no result
    # line reaches standard output.
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stderr.write(done.stdout)
        fail(f"csca_perf exited {done.returncode} without a result")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        fail("csca_perf's last line is not a JSON result")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if want != got:
        sys.stderr.write(done.stdout)
        fail(f"result metrics {sorted(got.items())} do not match "
             f"BENCHMARK.json {sorted(want.items())}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
