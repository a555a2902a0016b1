#!/usr/bin/env python3
"""Builds ddbench from source and runs one workload of it.

    python3 ddbench/run.py --workload paper|corpus|serve --seed N \
        --seconds S --trace 0|1
    python3 ddbench/run.py --selftest

Run from the repository root (or any checkout of it). The analyzer's
libraries and the harness are built into .bench_build/ddbench with CMake
(Release); results, detail records and traces go to .bench_build/out. The
last line of standard output is the run's JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A run that cannot build, crashes, or produces a malformed result or trace
exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ddbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; False when impossible."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"analyzer sources not found under {ROOT}/src")
        return False
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "ddbench", "ddbench_selftest"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return False
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def revision():
    """The git revision, or a content hash of the sources outside git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
    digest = hashlib.sha256()
    for top in ("src", "ddbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def valid_trace(path):
    """Whether path holds Chrome trace-event JSON with complete events."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError):
        return False
    complete = [e for e in events if e.get("ph") == "X"]
    return bool(complete) and all(
        isinstance(e.get("name"), str) and e.get("dur", -1) >= 0
        and isinstance(e.get("ts"), (int, float)) for e in complete)


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if (not isinstance(result, dict)
            or set(result) != {"correct", "attempted", "failed", "metrics"}
            or not isinstance(result["attempted"], int)
            or result["attempted"] < 1):
        return None
    record = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{trace}.json")
    if trace:
        try:
            with open(record) as f:
                trace_file = json.load(f)["trace_file"]
        except (OSError, ValueError, KeyError):
            return None
        if not valid_trace(trace_file):
            log(f"malformed trace {trace_file}")
            return None
    return result


def main():
    if args.selftest:
        if not build():
            return 2
        return subprocess.run([os.path.join(BUILD, "ddbench_selftest")],
                              timeout=RUN_TIMEOUT_S).returncode
    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        log("--workload, --seed, --seconds and --trace are required")
        return 2
    if not build():
        return 2
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "ddbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", OUT,
           "--revision", revision()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"ddbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not valid_result(lines[-1], args.trace):
        sys.stderr.write(proc.stdout)
        log(f"ddbench failed (exit code {proc.returncode})")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
parser.add_argument("--workload", choices=["paper", "corpus", "serve"])
parser.add_argument("--seed", type=int)
parser.add_argument("--seconds", type=float)
parser.add_argument("--trace", type=int, choices=[0, 1])
parser.add_argument("--selftest", action="store_true",
                    help="build and run the harness's own tests")
args = parser.parse_args()

if __name__ == "__main__":
    sys.exit(main())
