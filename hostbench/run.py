#!/usr/bin/env python3
"""Build and run the OMB-X host-time benchmark.

Run from the repository root:

    python3 hostbench/run.py --workload fullsub-coll --seed 1 --seconds 20 --trace 0

Builds hostbench/ (which compiles ../src) into .bench_build/hostbench with
CMake, pins the run settings (fiber backend, pool workers = min(2, cores);
the campaign runs as many workers as the pool) and runs one workload.  The last stdout
line is the JSON result; everything else is informational.  See
hostbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
WORKLOADS = ("fullsub-coll", "p2p-pickle", "campaign-sweep")
# Pool workers: 2, or nproc if smaller.  On the 4-vCPU reference host, 4
# workers left wall time at the mercy of vCPU steal (IQR/median of wall_s
# ~10% over seeds); 2 workers keep it within a few percent.
POOL_WORKERS = 2
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"hostbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(jobs):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("OMB-X sources (src/) not found next to hostbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "hostbench",
                  "-j", str(jobs)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "hostbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    cores = len(os.sched_getaffinity(0))
    workers = min(POOL_WORKERS, cores)
    binary = build(min(4, cores))

    env = dict(os.environ)
    env["OMBX_SCHED"] = "fibers"
    env["OMBX_SCHED_WORKERS"] = str(workers)
    env.pop("OMBX_FIBER_STACK_KB", None)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_build", "hostbench-out")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(f"hostbench exited with {proc.returncode}", proc.returncode or 1)

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"unit mismatches {sorted(k for k in want if k in got and got[k] != want[k])}")
    print(lines[-1])


if __name__ == "__main__":
    main()
