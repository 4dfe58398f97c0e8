#!/usr/bin/env python3
"""Builds the TensorSSA benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The library and the benchmark program are
compiled with CMake (Release) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs only rebuild what changed. Temporary
files of the build and of the texpr JIT go to a directory inside the build
tree. The program's output is passed through, except its last line (metric
name -> value), which is checked against BENCHMARK.json and printed as the
result object with units. The exit code is the program's (1 on an output
mismatch), or 1 when the build or the check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("vision", "sequence", "serve_open")
# Per-layer metric name prefixes of layers a workload does not use.
NOT_APPLICABLE = {
    "vision": ("serve.",),
    "sequence": ("serve.",),
    "serve_open": ("runtime.achieved_gbps",),
}
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir, env):
    def step(cmd):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))

    step(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", build_dir, "--target", "perfbench",
          "-j", BUILD_JOBS])
    return os.path.join(build_dir, "perfbench")


def result_line(line, workload, trace):
    """Turns the program's last line (metric name -> value) into the result
    object: checks the names against BENCHMARK.json and adds the units.

    The printed names must be exactly the ones BENCHMARK.json declares for
    this mode. In a traced run, the per-layer metrics of layers the workload
    does not use (NOT_APPLICABLE) are absent and read 0; any other missing
    metric is an error."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result line has unexpected keys")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    measured = result["metrics"]
    unused = set()
    if trace:
        unused = {name for name in units
                  if name.startswith(NOT_APPLICABLE[workload])}
    if set(measured) & unused:
        fail("measured metrics of an unused layer: %s" %
             sorted(set(measured) & unused))
    if set(measured) | unused != set(units):
        fail("measured metrics differ from BENCHMARK.json: %s" %
             sorted((set(measured) | unused) ^ set(units)))
    result["metrics"] = {
        name: {"value": measured.get(name, 0), "unit": unit}
        for name, unit in units.items()}
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    binary = build(build_dir, env)

    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode in (0, 1) and lines and lines[-1].startswith("{"):
        result = result_line(lines[-1], args.workload, args.trace == "1")
        sys.stdout.write("\n".join(lines[:-1] + [result]) + "\n")
        sys.stdout.flush()
    else:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
