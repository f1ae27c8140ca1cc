"""Helpers shared by the benchmark's scripts.

Also a small command line used by run.sh:

  benchlib.py check end_to_end|per_layer   read a run's stdout on stdin; exit
                                           1 unless its last line is a result
                                           with every metric of that kind
                                           BENCHMARK.json declares, each with
                                           the declared unit
  benchlib.py combine OUT RESULTS...       merge per-workload results files
                                           into OUT and print one result
                                           line; exit 1 unless all correct
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def declared():
    """BENCHMARK.json of this checkout."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_json(path):
    with open(path) as f:
        return json.load(f)


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def check(kind, text):
    """Problems with the last line of `text` as a result of `kind`."""
    lines = text.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["the last line of output is not a JSON result"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
    metrics = result.get("metrics", {})
    for m in declared()[kind]:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("%s is missing" % m["name"])
        elif got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            problems.append("%s reads %s" % (m["name"], got))
    if result.get("correct") is not True:
        problems.append("the run reports correct = %s" % result.get("correct"))
    return problems


def combine(out, paths):
    """One results file and one result line for a run of several workloads.
    A missing results file (the run broke before reporting) counts as one
    failed op. Returns whether every workload was correct."""
    results = {}
    broken = 0
    for path in paths:
        if not os.path.exists(path):
            print("benchlib: no results in %s" % path, file=sys.stderr)
            broken += 1
            continue
        r = load_json(path)
        results[r["workload"]] = r
    with open(out, "w") as f:
        json.dump(results, f, indent=1)
    metrics = {}
    for workload, r in results.items():
        for name, m in r.get("per_layer", r["metrics"]).items():
            metrics[workload + "/" + name] = m
    correct = not broken and all(r["correct"] for r in results.values())
    print(result_line(correct,
                      broken + sum(r["attempted"] for r in results.values()),
                      broken + sum(r["failed"] for r in results.values()),
                      metrics))
    return correct


def main(argv):
    if len(argv) == 2 and argv[0] == "check" and argv[1] in (
            "end_to_end", "per_layer"):
        problems = check(argv[1], sys.stdin.read())
        for p in problems:
            print("benchlib: " + p, file=sys.stderr)
        return 1 if problems else 0
    if len(argv) >= 3 and argv[0] == "combine":
        return 0 if combine(argv[1], argv[2:]) else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
