// SimulatedExecutor: replays a workflow ensemble on the modelled cluster.
//
// Every component runs as an event-driven state machine on the discrete-
// event engine, enforcing the same synchronous coupling protocol the native
// DTL enforces with condition variables:
//   * W_i waits for every reader's R_{i-1} (stage I^S),
//   * R_i waits for W_i (stage I^A),
// while compute stages (S, A) occupy the cluster and are priced against the
// components co-active on their node at the instant they start — so
// co-location interference, data-locality of reads, and the Idle-Analyzer /
// Idle-Simulation regimes all emerge from the replay rather than being
// assumed.
//
// Stage accounting conventions (they only shift labels between adjacent
// steps; steady-state values are unaffected):
//   * I^S_i  = the wait between S_i's end and W_i's start;
//   * I^A_i  = the wait before R_i (including the initial wait while S_0
//     runs), rather than after A_i as drawn in Figure 6.
// Zero-length idle intervals are recorded so every step carries all stages.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "platform/spec.hpp"
#include "resilience/fault_spec.hpp"
#include "runtime/result.hpp"
#include "runtime/spec.hpp"

namespace wfe::rt {

/// One online re-planning request: a node died permanently and `member`'s
/// components on it need a new home among the survivors.
struct MigrationRequest {
  std::uint32_t member = 0;
  int dead_node = -1;
  double now_s = 0.0;             ///< virtual time of the death
  std::vector<int> member_nodes;  ///< the member's union node set (pre-move)
  std::vector<int> up_nodes;      ///< surviving platform nodes, ascending
};

/// Picks the surviving node that adopts the dead node's partitions, or
/// returns a negative value to fall back to the executor's built-in policy
/// (least-loaded survivor, preferring nodes outside the member's own set).
/// Must be a deterministic function of the request — it runs inside the
/// deterministic replay. sched::RePlanner provides the EvalCache-backed
/// implementation.
using MigrationPlanner = std::function<int(const MigrationRequest&)>;

struct SimulatedOptions {
  /// Coefficient of variation of multiplicative, mean-preserving lognormal
  /// noise applied to every stage duration. 0 (default) replays the pure
  /// deterministic model; ~0.03-0.10 imitates run-to-run variability of a
  /// real machine (the paper averages 5 trials for this reason). Noise is
  /// reproducible given `seed`.
  double jitter_cv = 0.0;
  std::uint64_t seed = 0x5eed;

  /// Mirror this run into an active obs::Session (spans, counters). On by
  /// default; the scheduler turns it off for its probe replays so a
  /// planning trace shows scheduler activity, not thousands of overlapping
  /// candidate replays. Never affects results — emission is passive.
  bool trace_obs = true;

  /// Fault model (docs/RESILIENCE.md). The default spec is all-zero rates:
  /// injection fully disabled, and the replay takes the pristine code path
  /// producing bit-identical traces to a fault-unaware build.
  res::FaultSpec faults;
  /// How the replay recovers when `faults` injects one. Ignored while
  /// injection is disabled — except chunk_replication, whose staging cost
  /// is priced whenever it exceeds 1 (scheduler probes must see it too).
  res::RecoveryPolicy recovery;

  /// Online re-planning hook consulted on every permanent node death.
  /// Null (default) = the executor's built-in migration policy.
  MigrationPlanner migrate;
};

class SimulatedExecutor {
 public:
  explicit SimulatedExecutor(plat::PlatformSpec platform,
                             SimulatedOptions options = {});

  /// Validate `spec` against the platform and replay it to completion.
  /// Deterministic: equal inputs (including options) give bit-identical
  /// traces.
  ExecutionResult run(const EnsembleSpec& spec) const;

  /// Replay with the jitter RNG seeded from `seed` instead of
  /// `options().seed`, leaving every other knob untouched. This is how the
  /// adaptive scheduler draws independent samples of a stochastic probe
  /// objective: one executor, many deterministic draws. With jitter
  /// disabled the seed is never consulted, so run_seeded(spec, s) ==
  /// run(spec) bit-for-bit for every s.
  ExecutionResult run_seeded(const EnsembleSpec& spec,
                             std::uint64_t seed) const;

  const plat::PlatformSpec& platform() const { return platform_; }
  const SimulatedOptions& options() const { return options_; }

 private:
  plat::PlatformSpec platform_;
  SimulatedOptions options_;
};

}  // namespace wfe::rt
