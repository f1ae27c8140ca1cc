#!/usr/bin/env bash
# Build the WFEns benchmark and run its workloads.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds 20] [--trace [0|1]]
#   benchmark/run.sh --quick            self-test: a few ops per workload
#
# Builds benchmark/ (Release) into build-benchmark/, then runs each workload
# in its own process, one after the other (all four unless --workload names
# one). Each measures for the fixed run length of 20 s; --seconds is
# accepted only with that value. Every op's outputs are checked. Each run
# prints its end-to-end metrics with units, op count, tail percentile and
# host block, and writes its results JSON under build-benchmark/results/.
# With --trace the runs are traced and trace_summary.py prints the
# per-layer metrics instead. The last line of output is one JSON result:
#   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
# A workload that fails a check still runs to the end and reports; the exit
# status is 0 only when every workload was correct.
#
# Self-test options: --ops N runs exactly N ops in one process instead of
# timing (the result line is still printed); --no-build skips the build.
# WFENS_BENCH_BUILD_DIR overrides the build directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${WFENS_BENCH_BUILD_DIR:-$root/build-benchmark}"
all_workloads=(paper-replay plan-cold plan-warm plan-stochastic)

workloads=()
seed=0
trace=0
quick=0
do_build=1
bench_args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workloads=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) bench_args+=(--seconds "$2"); shift 2 ;;
    --ops) bench_args+=(--ops "$2" --setups 1); shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --quick) quick=1; shift ;;
    --no-build) do_build=0; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
[[ ${#workloads[@]} -gt 0 ]] || workloads=("${all_workloads[@]}")

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no WFEns source tree at $root; run from a checkout" >&2
  exit 2
fi

if [[ $do_build == 1 ]]; then
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
  fi
  cmake --build "$build" --target wfens_bench -j 4 >&2
fi

results="$build/results"
mkdir -p "$results"
git_head=unknown
if [[ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" == "$root" ]]; then
  git_head="$(git -C "$root" rev-parse HEAD)"
fi
if [[ "$(nproc)" -lt 4 ]]; then
  echo "run.sh: warning: planning uses 4 threads; this host has $(nproc)" >&2
fi

# results_file WORKLOAD TRACE: where a run leaves its results.
results_file() {
  local suffix=""
  [[ $2 == 1 ]] && suffix="-trace"
  echo "$results/$1-seed$seed$suffix.json"
}

# run_one WORKLOAD TRACE [wfens_bench options...]: one workload in its own
# process; prints its output, ending in its result line, and leaves its
# results file. Returns nonzero when a check failed or the run broke.
run_one() {
  local workload="$1" mode="$2" status=0
  shift 2
  rm -f "$(results_file "$workload" "$mode")"
  "$build/wfens_bench" --workload "$workload" --seed "$seed" --trace "$mode" \
    --out-dir "$results" --expected "$here/expected.json" \
    --git-head "$git_head" ${bench_args[@]+"${bench_args[@]}"} "$@" ||
    status=$?
  # A traced run's result line comes from its spans, failed checks or not.
  if [[ $mode == 1 && -f "$(results_file "$workload" 1)" ]]; then
    python3 "$here/trace_summary.py" "$(results_file "$workload" 1)" ||
      status=$((status > 0 ? status : $?))
  fi
  return "$status"
}

if [[ $quick == 1 ]]; then
  # Every declared metric must print, untraced and traced, and be correct.
  bench_args=(--setups 1)
  for w in "${workloads[@]}"; do
    run_one "$w" 0 --ops 3 | tee /dev/stderr |
      python3 "$here/benchlib.py" check end_to_end
    run_one "$w" 1 --ops 2 | tee /dev/stderr |
      python3 "$here/benchlib.py" check per_layer
  done
  echo "run.sh: quick self-test passed" >&2
  exit 0
fi

status=0
if [[ ${#workloads[@]} == 1 ]]; then
  run_one "${workloads[0]}" "$trace" || status=$?
  exit "$status"
fi

# Several workloads: each run's own result line is dropped and one result
# over all of them closes the output; a workload with no results file
# counts as failed.
files=()
for w in "${workloads[@]}"; do
  run_one "$w" "$trace" | sed '$d' || status=1
  files+=("$(results_file "$w" "$trace")")
done
python3 "$here/benchlib.py" combine "$(results_file all "$trace")" \
  "${files[@]}" || status=1
exit "$status"
