#!/usr/bin/env python3
"""Gates a change on the ddbench counters that do not depend on the machine.

    python3 tools/ddbench_gate.py

Runs every workload named in tests/data/ddbench_counters.json through
ddbench/run.py (seed 1, traced) and compares each counter the baseline
lists with the run's value, exactly. The gate fails when a run does not
finish, reports correct=false or a failed op, lacks a listed counter, or
gives a listed counter another value; each mismatch is printed with both
values. Every other metric (timings, ratios of timings, RSS) is printed
and never gated.

The counters are work counts of the analysis (AST nodes, interpreter
steps, flushes, facts, points-to propagation, replayed regions, ...), so a
change that alters one alters what the analyzer does. When that is
intended, edit the value in the baseline by hand and say why in the
change's notes.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "tests", "data", "ddbench_counters.json")
RUN = os.path.join(ROOT, "ddbench", "run.py")
SEED = 1
SECONDS = 3


def run_workload(name):
    """The result of one traced ddbench run, or None when it failed."""
    cmd = [sys.executable, RUN, "--workload", name, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print(f"{name}: ddbench/run.py exited {proc.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        print(f"{name}: no result line")
        return None


def check(name, expected, result):
    """Prints the workload's metrics; returns its list of failures."""
    failures = []
    if result["correct"] is not True:
        failures.append(f"{name}: correct is {result['correct']}")
    if result["failed"] != 0:
        failures.append(f"{name}: {result['failed']} of "
                        f"{result['attempted']} ops failed")
    metrics = result["metrics"]
    for counter, want in expected.items():
        if counter not in metrics:
            failures.append(f"{name}: counter {counter} missing "
                            f"(baseline {want})")
            continue
        got = metrics[counter]["value"]
        mark = "ok" if got == want else "DIFFERS"
        print(f"  {counter:40} {got!r:>16}  baseline {want!r:>16}  {mark}")
        if got != want:
            failures.append(f"{name}: {counter} is {got!r}, "
                            f"baseline {want!r}")
    for metric, entry in sorted(metrics.items()):
        if metric not in expected:
            print(f"  {metric:40} {entry['value']!r:>16} {entry['unit']:9}"
                  f"  (not gated)")
    return failures


def main():
    if len(sys.argv) > 1:
        print("usage: python3 tools/ddbench_gate.py (it takes no arguments)")
        return 2
    with open(BASELINE) as f:
        baseline = json.load(f)
    failures = []
    for name, expected in baseline.items():
        print(f"{name}: ddbench --seed {SEED} --seconds {SECONDS} --trace 1",
              flush=True)
        result = run_workload(name)
        if result is None:
            failures.append(f"{name}: run failed")
            continue
        print(f"  attempted {result['attempted']}, failed {result['failed']},"
              f" correct {result['correct']}")
        failures += check(name, expected, result)
    if failures:
        print("\nddbench gate FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nddbench gate passed: every counter equals the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
