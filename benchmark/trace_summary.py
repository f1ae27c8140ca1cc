#!/usr/bin/env python3
"""Per-layer metrics of a traced benchmark run.

usage: trace_summary.py RESULTS_JSON

RESULTS_JSON is the results file `wfens_bench --trace 1` wrote; its spans are
in the .spans.jsonl file beside it. Prints each span name's and each layer's
self time (a span's duration minus the part its child spans cover), then
every per-layer metric BENCHMARK.json declares, and last the run's result
line with those metrics. Also stores them in RESULTS_JSON under "per_layer".

Every metric is the median over the traced ops of that op's value. A metric
of a layer the workload never calls reads 0. The ones marked derived below
combine traced spans with the untraced op time U (the run's op_p50_s, from
the untraced ops that alternate with the traced ones):

  sched.serial_s           U - the fan-out batch (derived)
  sched.serial_fraction    sched.serial_s / U (derived)
  sched.layer_sum_ratio    sum of an op's top-level spans / U: the closure
                           check, near 1 when the parts account for the op
  sched.search_overhead_s  U - enumeration - fresh replays x seeded probe /
                           threads: bai-search's own work (derived)
  obs.trace_overhead_pct   traced op time / U - 1, in percent
"""
import collections
import json
import statistics
import sys

import benchlib

BATCHES = ("sched.score_batch", "sched.warm_score", "sched.plan")


def load_ops(path):
    """Per traced op: span durations and attribute sums by span name, the
    op's wall time, and the sum of its top-level spans."""
    with open(path) as f:
        spans = [json.loads(line) for line in f]
    by_id = {s["id"]: s for s in spans}
    children = collections.defaultdict(float)
    ops = collections.defaultdict(lambda: {
        "dur": collections.Counter(), "attr": collections.defaultdict(
            collections.Counter), "wall": None, "parts": 0.0})
    for s in spans:
        d = s["end"] - s["start"]
        s["dur"] = d
        op = ops[s["op"]]
        op["dur"][s["name"]] += d
        op["attr"][s["name"]].update(s["attrs"])
        parent = by_id.get(s["parent"])
        if parent is not None:
            children[parent["id"]] += d
            if parent["name"] == "op":
                op["parts"] += d
        elif s["name"] == "op":
            op["wall"] = d
    for s in spans:
        s["self"] = s["dur"] - children[s["id"]]
    return spans, [op for op in ops.values() if op["wall"] is not None]


def first(op, names):
    return next((n for n in names if n in op["dur"]), None)


def per_op(fn):
    """Metric from a per-op function returning None where it does not
    apply: the median over the ops it applies to, else 0."""
    def metric(ops, untraced):
        values = [v for v in (fn(op) for op in ops) if v is not None]
        return statistics.median(values) if values else 0.0
    return metric


def span_time(name, per=None, scale=1.0):
    def fn(op):
        if name not in op["dur"]:
            return None
        return scale * op["dur"][name] / (op["attr"][name][per] if per else 1)
    return per_op(fn)


def ratio(numerator, denominator):
    def fn(op):
        n, d = numerator(op), denominator(op)
        return n / d if n is not None and d else None
    return per_op(fn)


def dur(name):
    return lambda op: op["dur"][name] if name in op["dur"] else None


def attr(name, key):
    return lambda op: op["attr"][name][key] if name in op["dur"] else None


def batch(key):
    def fn(op):
        name = first(op, BATCHES)
        return op["attr"][name][key] if name else None
    return fn


def fanout(op):
    one, many = dur("sched.score_batch_1t")(op), dur("sched.score_batch")(op)
    return one / many if one is not None and many else None


def serial_s(ops, untraced):
    batch_s = [op["dur"][n] for op in ops
               for n in ("sched.score_batch", "sched.warm_score") if n in op["dur"]]
    return untraced - statistics.median(batch_s) if batch_s else 0.0


def search_overhead_s(ops, untraced):
    def fn(op):
        if "sched.plan" not in op["dur"] or "runtime.seeded_probe" not in op["dur"]:
            return None
        a = op["attr"]
        probe = op["dur"]["runtime.seeded_probe"] / a["runtime.seeded_probe"]["n"]
        replays = a["sched.plan"]["fresh"] * probe / a["sched.plan"]["threads"]
        return untraced - op["dur"].get("sched.enumerate", 0.0) - replays
    return per_op(fn)(ops, untraced)


METRICS = {
    "runtime.replay_s": span_time("runtime.replay"),
    "runtime.assess_s": span_time("runtime.assess"),
    "metrics.steady_state_s": span_time("metrics.steady_state"),
    "core.model_s": span_time("core.model"),
    "simengine.events": per_op(attr("runtime.replay", "events")),
    "simengine.events_per_s": ratio(attr("runtime.replay", "events"),
                                    dur("runtime.replay")),
    "metrics.records": per_op(attr("runtime.replay", "records")),
    "sched.enumerate_s": span_time("sched.enumerate"),
    "sched.candidates": per_op(attr("sched.enumerate", "candidates")),
    "sched.evaluator_ctor_s": span_time("sched.evaluator_ctor"),
    "sched.score_batch_s": span_time("sched.score_batch"),
    "sched.score_batch_1t_s": span_time("sched.score_batch_1t"),
    "sched.fresh_replays": per_op(batch("fresh")),
    "sched.infeasible": per_op(batch("infeasible")),
    "sched.pick_winner_s": span_time("sched.pick_winner"),
    "sched.teardown_s": span_time("sched.teardown"),
    "exec.fanout_speedup": per_op(fanout),
    "exec.parallel_efficiency": per_op(
        lambda op: fanout(op) / op["attr"]["sched.score_batch"]["threads"]
        if fanout(op) is not None else None),
    "exec.barrier_us": span_time("exec.barrier", per="batches", scale=1e6),
    "sched.serial_s": serial_s,
    "sched.serial_fraction": lambda ops, u: serial_s(ops, u) / u if u else 0.0,
    "sched.layer_sum_ratio": lambda ops, u: statistics.median(
        op["parts"] for op in ops) / u if ops and u else 0.0,
    "sched.probe_score_s": span_time("sched.probe_score", per="n"),
    "runtime.probe_replay_s": span_time("runtime.probe_replay", per="n"),
    "runtime.probe_assess_s": span_time("runtime.probe_assess", per="n"),
    "sched.cache_load_s": span_time("sched.cache_load"),
    "sched.cache_entries": per_op(attr("sched.cache_load", "entries")),
    "sched.warm_score_s": span_time("sched.warm_score"),
    "sched.lookup_ns": ratio(lambda op: 1e9 * op["dur"]["sched.warm_score"]
                             if "sched.warm_score" in op["dur"] else None,
                             attr("sched.warm_score", "candidates")),
    "sched.shared_hits": per_op(attr("sched.warm_score", "shared_hits")),
    "sched.hit_ratio": ratio(attr("sched.warm_score", "shared_hits"),
                             attr("sched.warm_score", "candidates")),
    "sched.samples": per_op(batch("samples")),
    "sched.fresh_ratio": ratio(batch("fresh"), batch("samples")),
    "sched.sample_budget_ratio": ratio(
        batch("samples"),
        lambda op: attr("sched.enumerate", "candidates")(op) * max(
            1.0, op["attr"]["sched.plan"]["probe_samples"])
        if "sched.enumerate" in op["dur"] else None),
    "runtime.seeded_probe_s": span_time("runtime.seeded_probe", per="n"),
    "sched.search_overhead_s": search_overhead_s,
    "obs.trace_overhead_pct": lambda ops, u: 100.0 * (statistics.median(
        op["wall"] for op in ops) / u - 1.0) if ops and u else 0.0,
}


def self_times(spans, n_ops):
    """Mean self time per traced op, by span name and by layer."""
    by_name = collections.Counter()
    for s in spans:
        by_name[s["name"]] += s["self"] / max(1, n_ops)
    by_layer = collections.Counter()
    for name, t in by_name.items():
        by_layer[name.split(".")[0]] += t
    return by_name, by_layer


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    results_path = argv[0]
    results = benchlib.load_json(results_path)
    spans_path = results_path[:-len("-trace.json")] + ".spans.jsonl"
    spans, ops = load_ops(spans_path)
    untraced = results["metrics"]["op_p50_s"]["value"]

    by_name, by_layer = self_times(spans, len(ops))
    print("self time per traced op (%d traced, %d untraced ops; untraced op "
          "p50 %.6g s)" % (len(ops), results["ops"], untraced))
    for name, t in sorted(by_name.items(), key=lambda kv: -kv[1]):
        print("  %-24s %12.6g s" % (name, t))
    print("by layer:")
    for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print("  %-24s %12.6g s" % (layer, t))

    per_layer = {}
    print("per-layer metrics (0 = layer not called by this workload):")
    for m in benchlib.declared()["per_layer"]:
        value = float(METRICS[m["name"]](ops, untraced))
        per_layer[m["name"]] = {"value": value, "unit": m["unit"]}
        print("  %-26s %-14.6g %s" % (m["name"], value, m["unit"]))

    results["per_layer"] = per_layer
    with open(results_path, "w") as f:
        json.dump(results, f)
    print(benchlib.result_line(results["correct"], results["attempted"],
                               results["failed"], per_layer))
    return 0 if results["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
