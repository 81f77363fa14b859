#!/usr/bin/env python3
"""fbedge benchmark runner: builds the benchmark harness from the checkout's
sources, runs one workload and relays its result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload monitor_stream --seed 2019 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

Workloads (perfbench/harness/main.cpp has the details): edge_cold,
edge_warm, monitor_stream, whatif_sweep. --seed drives the session stream
(default 2019, whose result digests are pinned; 7411 is the held-out seed
for confirming a later claim on inputs it was not tuned on). End-to-end
times are scaled to a reference host speed (perfbench/layers.md says how
and why). --trace 1 runs the traced twin of each timed operation and
reports per-layer metrics instead of end-to-end ones; the span trace is
written to .bench_build/perfbench/traces/.

The build goes to .bench_build/perfbench (CMake + Ninja when available);
build output goes to stderr so that stdout's last line stays the result
object. --self-test runs every workload once against deliberately wrong
reference digests and fails unless each run reports all of its operations
as failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "fbedge_perfbench")
WORKLOADS = ("edge_cold", "edge_warm", "monitor_stream", "whatif_sweep")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no fbedge sources (src/CMakeLists.txt) in this checkout")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "fbedge_perfbench", "-j", BUILD_JOBS]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the program and benchmark sources, so a result names the
    exact code it measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    tops = ["CMakeLists.txt", "src", os.path.relpath(HERE, ROOT)]
    files = []
    for top in tops:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(top)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            files += [os.path.relpath(os.path.join(dirpath, f), ROOT) for f in filenames]
    for rel in sorted(files):
        h.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def run_harness(workload, seed, seconds, trace, extra=()):
    """Runs the harness, relaying its stdout; returns (exit code, stdout lines)."""
    work = os.path.join(BUILD, "work", f"{workload}-{os.getpid()}")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scenarios", os.path.join(HERE, "scenarios"),
           "--work-dir", work,
           "--trace-out", os.path.join(traces, f"{workload}-seed{seed}.csv"),
           "--git-sha", git_sha(), "--source-digest", source_digest(), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, proc.stdout.splitlines()


def self_test():
    ok = True
    for workload in WORKLOADS:
        code, lines = run_harness(workload, 2019, 1, 0, ["--wrong-reference"])
        result = json.loads(lines[-1]) if code == 0 and lines else None
        caught = (result is not None and result["correct"] is False
                  and result["attempted"] > 0 and result["failed"] == result["attempted"])
        log(f"self-test {workload}: wrong reference "
            f"{'reported as failures' if caught else 'NOT caught'}")
        ok = ok and caught
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not build():
        log("build failed")
        return 1
    if args.self_test:
        return 0 if self_test() else 1
    code, lines = run_harness(args.workload, args.seed, args.seconds, args.trace)
    if code != 0 or not lines:
        log(f"harness exited with {code}")
        return code or 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
