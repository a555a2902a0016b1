#!/usr/bin/env python3
"""Compares two sets of ddbench detail records.

    python3 ddbench/compare.py BASE_DIR NEW_DIR

Each directory holds the `result-<workload>-seed<n>-trace<t>.json` records
that run.py leaves in .bench_build/out (copy them aside between the two
checkouts). For every workload and metric it prints both sides' median and
quartiles and the change of the medians.

Two records are comparable only when they were measured the same way: the
same host CPU count, compiler, build type and flags, the same run length,
and, for the same workload and seed, the same input digest. A workload
with any record that differs from the first base record on one of these,
or that was built without optimization, is marked NOT COMPARABLE and its
numbers are printed for information only. The revision is what the
comparison is about, so it may differ.
"""

import glob
import json
import os
import statistics
import sys

ENVIRONMENT = ("nproc", "compiler", "build_type", "flags", "optimized",
               "seconds", "trace")


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "result-*.json"))):
        with open(path) as f:
            records.append(json.load(f))
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def problems(base, new):
    """Why the records of one workload cannot be compared, if they cannot."""
    found = []
    reference = base[0]["metadata"]
    digests = {}
    for record in base + new:
        meta = record["metadata"]
        for key in ENVIRONMENT:
            if meta.get(key) != reference.get(key):
                found.append(f"{key}: {reference.get(key)!r} vs "
                             f"{meta.get(key)!r}")
        if not meta.get("optimized", False):
            found.append("a build without optimization")
        seed = record["seed"]
        digest = digests.setdefault(seed, meta.get("input_digest"))
        if digest != meta.get("input_digest"):
            found.append(f"seed {seed}: inputs differ")
    return sorted(set(found))


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    groups = {}
    for side, records in (("base", base), ("new", new)):
        for record in records:
            key = (record["metadata"]["workload"], record["metadata"]["trace"])
            groups.setdefault(key, {"base": [], "new": []})[side].append(record)
    status = 0
    for (workload, trace), sides in sorted(groups.items()):
        if not sides["base"] or not sides["new"]:
            print(f"{workload} trace={int(trace)}: only one side has records")
            continue
        reasons = problems(sides["base"], sides["new"])
        label = "NOT COMPARABLE" if reasons else "comparable"
        print(f"{workload} trace={int(trace)}: {len(sides['base'])} base, "
              f"{len(sides['new'])} new records, {label}")
        for reason in reasons:
            print(f"  ! {reason}")
        if reasons:
            status = 1
        names = sides["base"][0]["result"]["metrics"].keys()
        for name in names:
            row = []
            for side in ("base", "new"):
                values = [r["result"]["metrics"][name]["value"]
                          for r in sides[side]
                          if name in r["result"]["metrics"]]
                row.append(quartiles(values) if values else (0, 0, 0))
            unit = sides["base"][0]["result"]["metrics"][name]["unit"]
            change = (row[1][1] / row[0][1] - 1) * 100 if row[0][1] else 0
            print(f"  {name:36s} base {row[0][1]:12.4f} [{row[0][0]:.4f}, "
                  f"{row[0][2]:.4f}]  new {row[1][1]:12.4f} [{row[1][0]:.4f}, "
                  f"{row[1][2]:.4f}] {unit:9s} {change:+7.2f}%")
    return status


if __name__ == "__main__":
    sys.exit(main())
