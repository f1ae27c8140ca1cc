#!/usr/bin/env python3
"""Compare sets of benchmark results, metric by metric.

usage: compare.py BASE CHANGE [CHANGE ...]

Each argument is one set of runs: a directory (every untraced results file
in it) or one results file. For every workload and end-to-end metric it
prints each set's run count, median and quartiles, and for each set after
the first a verdict against the first, using the metric's bound from
BENCHMARK.json:

  unresolved    a set's spread (q3 - q1 as a share of its median) is wider
                than the bound, and not every run of the change beats every
                run of the base
  worse         the change's median is worse than the base's by more than
                the bound
  better        every run of the change beats every run of the base, or the
                change wins at least nine tenths of the runs paired by seed
                (ties count for neither) and the medians differ by more than
                the base's quartile spread
  within-bound  otherwise

Warns when the sets' host blocks differ (git_head aside). Exits 1 when any
verdict is worse.
"""
import glob
import os
import sys

import benchlib


def load_set(path):
    """{workload: [results]} of the untraced results in `path`."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(
        path) else [path]
    runs = {}
    for f in files:
        r = benchlib.load_json(f)
        if isinstance(r, dict) and "workload" in r and not r.get("trace"):
            runs.setdefault(r["workload"], []).append(r)
    return runs


def host_key(result):
    return tuple(sorted((k, v) for k, v in result.get("host", {}).items()
                        if k != "git_head"))


def spread(values):
    q1, med, q3 = benchlib.quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(metric, base, change):
    """base, change: {seed: value}."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    b, c = list(base.values()), list(change.values())
    beats_all = all(sign * x < sign * y for x in c for y in b)
    if spread(b) > bound or spread(c) > bound:
        return "better" if beats_all else "unresolved"
    _, base_med, _ = benchlib.quartiles(b)
    _, change_med, _ = benchlib.quartiles(c)
    if sign * (change_med - base_med) > bound * abs(base_med):
        return "worse"
    pairs = [(base[s], change[s]) for s in base if s in change]
    wins = sum(1 for x, y in pairs if sign * y < sign * x)
    q1, _, q3 = benchlib.quartiles(b)
    if beats_all or (pairs and wins >= 0.9 * len(pairs) and
                     abs(change_med - base_med) > q3 - q1):
        return "better"
    return "within-bound"


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load_set(p) for p in argv]
    hosts = {host_key(r) for s in sets for runs in s.values() for r in runs}
    if len(hosts) > 1:
        print("warning: the host blocks differ between runs:", file=sys.stderr)
        for h in sorted(hosts):
            print("  " + ", ".join("%s=%s" % kv for kv in h), file=sys.stderr)

    worse = False
    print("%-16s %-12s %-4s %5s %12s %12s %12s %8s  %s" % (
        "workload", "metric", "set", "runs", "q1", "median", "q3", "spread",
        "verdict"))
    workloads = sorted({w for s in sets for w in s})
    for workload in workloads:
        for metric in benchlib.declared()["end_to_end"]:
            name = metric["name"]
            values = [{r["seed"]: r["metrics"][name]["value"]
                       for r in s.get(workload, [])} for s in sets]
            for i, v in enumerate(values):
                if not v:
                    print("%-16s %-12s %-4d %5d  (no runs)" % (workload, name,
                                                              i, 0))
                    continue
                q1, med, q3 = benchlib.quartiles(list(v.values()))
                result = ""
                if i > 0 and values[0]:
                    result = verdict(metric, values[0], v)
                    worse = worse or result == "worse"
                print("%-16s %-12s %-4d %5d %12.6g %12.6g %12.6g %7.2f%%  %s"
                      % (workload, name, i, len(v), q1, med, q3,
                         100.0 * spread(list(v.values())), result))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
