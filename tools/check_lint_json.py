#!/usr/bin/env python3
"""Validate a wfens_lint --json report against the findings schema.

Usage: check_lint_json.py lint_findings.json

The report is the machine-readable half of the lint gate: an array of
finding objects, one per diagnostic, empty when the tree is clean. This
gate keeps the emitter honest — a refactor of the findings pipeline that
drops a field, emits a rule name the catalogue does not know, or produces
a non-positive line number fails the analysis CI job instead of silently
degrading the SARIF upload and any downstream tooling that parses the
report. Rule additions must be registered here; that is deliberate, so
every new pass also extends docs/ANALYSIS.md and this catalogue in the
same change.
"""
import json
import sys

# Every rule wfens_lint can emit: the per-file rules, the whole-project
# passes, and the suppression sweep. Mirrors the catalogue in
# docs/ANALYSIS.md.
KNOWN_RULES = {
    # Per-file rules.
    "banned-ident",
    "simengine-std-function",
    "event-queue-outside-simengine",
    "unordered-iter",
    "raw-mutex",
    "pragma-once",
    "include-parent",
    "iostream-in-header",
    "arm-state-outside-sched",
    "stage-record-outside-runtime",
    # Whole-project passes.
    "layer-manifest",
    "layer-unknown-module",
    "layer-undeclared-edge",
    "layer-stale-edge",
    "layer-cycle",
    "lock-rank-static",
    "determinism-taint",
    # Suppression sweep.
    "stale-allow",
}


def fail(msg):
    print(f"check_lint_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_finding(path, i, finding):
    if not isinstance(finding, dict):
        fail(f"{path}: [{i}] must be an object, got {finding!r}")
    for key in ("file", "line", "rule", "message"):
        if key not in finding:
            fail(f"{path}: [{i}] missing field {key!r}")
    for key in ("file", "rule", "message"):
        value = finding[key]
        if not isinstance(value, str) or not value:
            fail(f"{path}: [{i}].{key} must be a non-empty string, "
                 f"got {value!r}")
    line = finding["line"]
    if not isinstance(line, int) or isinstance(line, bool) or line < 1:
        fail(f"{path}: [{i}].line must be a positive integer, got {line!r}")
    if finding["rule"] not in KNOWN_RULES:
        fail(f"{path}: [{i}].rule {finding['rule']!r} is not in the "
             f"catalogue (known: {sorted(KNOWN_RULES)})")
    if finding["file"].startswith("/") or ".." in finding["file"].split("/"):
        fail(f"{path}: [{i}].file must be repo-relative, "
             f"got {finding['file']!r}")


def main():
    if len(sys.argv) != 2:
        fail("usage: check_lint_json.py lint_findings.json")
    path = sys.argv[1]
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")

    if not isinstance(data, list):
        fail(f"{path}: top level must be an array of findings")
    for i, finding in enumerate(data):
        check_finding(path, i, finding)

    print(f"check_lint_json: OK ({path}: {len(data)} finding(s))")


if __name__ == "__main__":
    main()
