#!/usr/bin/env python3
"""Build and run one workload of the wsva end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds src/ and the benchmark from
source into $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench),
runs the workload in its own process, and passes the benchmark's output
through: a machine stamp, a fingerprint of the seed's deterministic
outputs, and last the result line {"correct", "attempted", "failed",
"metrics"}. Build logs go to stderr. Without src/ next to e2ebench/ it
exits 2 without printing a result. See e2ebench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("upload_ladder", "fleet_global", "cluster_observed")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark binary must finish well inside the 180-s run limit.
RUN_TIMEOUT_S = 175
BUILD_JOBS = "4"


def die(message, code=2):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over src/ and e2ebench/, so a run names the code it
    measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2ebench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        sys.stderr.write(done.stdout[-4000:])
        if done.returncode != 0:
            die("build failed: " + " ".join(cmd), 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no src/ next to {HERE}: run from a full checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "e2ebench")
    build(build_dir)

    cmd = [os.path.join(build_dir, "e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(), "--src-digest", source_digest()]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        die(f"{args.workload} exited with {done.returncode}", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die("the last output line is not JSON", 1)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("the result line has the wrong keys", 1)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
