#!/usr/bin/env python3
"""Validate a BENCH_*.json report against its bench's schema.

Usage: check_bench_json.py BENCH_file.json

The report's "bench" field selects the schema from the registry below.
Checks that every expected field is present with the right JSON type and
that rates/counts satisfy the bench's invariants, so a refactor that drops
a series (or emits NaN) fails the bench-smoke CI job instead of silently
thinning the trajectory. Schema additions are fine; removals are not.

Field markers: a plain type means "finite and strictly positive" for
numbers; ("nonneg", type) allows zero — for counters that legitimately
stay at zero in a healthy run (e.g. chunks lost with replication on).
"""
import json
import math
import sys

# Per-bench schemas, keyed on the report's "bench" field.
SCHEMAS = {
    "engine_throughput": {
        "queue_policy": str,
        "mode": str,
        "chain_events": int,
        "chain_events_per_s": float,
        "churn_cancellations": int,
        "churn_cancels_per_s": float,
        "cancel_heavy_events": int,
        "cancel_heavy_events_per_s": float,
        "mixed_horizon_events": int,
        "mixed_horizon_events_per_s": float,
        "replay_config": str,
        "replay_count": int,
        "replay_events": int,
        "replay_events_per_s": float,
    },
    # Google-benchmark microbenches (bench_micro): per-benchmark wall times
    # captured into one report so CI can schema-gate them alongside the
    # handwritten benches.
    "micro": {
        "mode": str,
        "benchmarks": list,
    },
    # Adaptive best-arm search (bench_search_efficiency): bai-search must
    # match the fixed-budget baseline's winner quality (objective_delta is
    # the deterministic full-depth score difference, >= 0) while saving
    # fresh replays (sims_saved_pct strictly positive; a committed
    # full-mode report must clear the 30% floor, checked below).
    "search_efficiency": {
        "mode": str,
        "threads": int,
        "jitter_cv": float,
        "probe_samples": int,
        "baseline_scheduler": str,
        "bai_fresh_sims": int,
        "baseline_fresh_sims": int,
        "exhaustive_fresh_sims": int,
        "bai_samples": int,
        "baseline_samples": int,
        "sims_saved_pct": float,
        "bai_objective": float,
        "baseline_objective": float,
        "objective_delta": ("nonneg", float),
        "wall_s": float,
    },
    # The node-fault sweep's headline acceptance rides on risk_aware_wins:
    # risk-aware placement must beat fault-oblivious placement on expected
    # makespan at >= 1 MTBF point, so the field is strictly positive.
    "node_faults": {
        "mode": str,
        "mtbf_points": int,
        "cells": int,
        "risk_aware_wins": int,
        "best_expected_gain_pct": float,
        "migrations_total": int,
        "chunks_lost_total": ("nonneg", int),
        "base_makespan_s": float,
        "wall_s": ("nonneg", float),
    },
}


def fail(msg):
    print(f"check_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_field(path, key, value, want):
    nonneg = False
    if isinstance(want, tuple):
        nonneg, want = want[0] == "nonneg", want[1]
    if want is list:
        if not isinstance(value, list) or not value:
            fail(f"{path}: {key!r} must be a non-empty array, got {value!r}")
        for i, entry in enumerate(value):
            if not isinstance(entry, dict):
                fail(f"{path}: {key}[{i}] must be an object, got {entry!r}")
            check_field(path, f"{key}[{i}].name", entry.get("name"), str)
            check_field(path, f"{key}[{i}].real_time_ns",
                        entry.get("real_time_ns"), float)
            check_field(path, f"{key}[{i}].iterations",
                        entry.get("iterations"), int)
    elif want is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            fail(f"{path}: {key!r} must be a number, got {value!r}")
        if not math.isfinite(value) or value < 0 or (value == 0 and not nonneg):
            fail(f"{path}: {key!r} must be finite and "
                 f"{'non-negative' if nonneg else 'positive'}, got {value!r}")
    elif want is int:
        if not isinstance(value, int) or isinstance(value, bool):
            fail(f"{path}: {key!r} must be an integer, got {value!r}")
        if value < 0 or (value == 0 and not nonneg):
            fail(f"{path}: {key!r} must be "
                 f"{'non-negative' if nonneg else 'positive'}, got {value!r}")
    else:
        if not isinstance(value, str) or not value:
            fail(f"{path}: {key!r} must be a non-empty string, got {value!r}")


def main():
    if len(sys.argv) != 2:
        fail("usage: check_bench_json.py BENCH_file.json")
    path = sys.argv[1]
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")

    if not isinstance(data, dict):
        fail(f"{path}: top level must be an object")
    bench = data.get("bench")
    if bench not in SCHEMAS:
        fail(f"{path}: unknown bench {bench!r} "
             f"(registered: {sorted(SCHEMAS)})")
    for key, want in SCHEMAS[bench].items():
        if key not in data:
            fail(f"{path}: missing field {key!r}")
        check_field(path, key, data[key], want)

    if data["mode"] not in ("full", "quick"):
        fail(f"{path}: mode must be 'full' or 'quick', got {data['mode']!r}")

    # Cross-field invariants.
    if bench == "engine_throughput" and data["mode"] == "full":
        # Perf floor for the committed full-mode baseline: the data-oriented
        # replay hot path sustains >= 9.5M events/s on the C1.5 series
        # (2x the pre-SoA baseline); a committed report below the floor
        # means the hot path regressed and must be investigated, not
        # re-baselined.
        floor = 9.5e6
        if data["replay_events_per_s"] < floor:
            fail(f"{path}: replay_events_per_s "
                 f"{data['replay_events_per_s']:.3e} below the committed "
                 f"floor {floor:.1e}")
    if bench == "search_efficiency":
        # Equal-or-better winner quality is already enforced by the
        # ("nonneg", float) marker on objective_delta; re-derive it so a
        # hand-edited report cannot desynchronize the pair.
        delta = data["bai_objective"] - data["baseline_objective"]
        if abs(delta - data["objective_delta"]) > 1e-12:
            fail(f"{path}: objective_delta {data['objective_delta']!r} does "
                 f"not match bai_objective - baseline_objective ({delta!r})")
        if data["bai_fresh_sims"] >= data["baseline_fresh_sims"]:
            fail(f"{path}: bai_fresh_sims {data['bai_fresh_sims']} not below "
                 f"baseline_fresh_sims {data['baseline_fresh_sims']}")
        if data["mode"] == "full" and data["sims_saved_pct"] < 30.0:
            fail(f"{path}: sims_saved_pct {data['sims_saved_pct']:.1f} below "
                 f"the committed full-mode floor of 30")

    print(f"check_bench_json: OK ({path}: bench={bench},"
          f" mode={data['mode']})")


if __name__ == "__main__":
    main()
