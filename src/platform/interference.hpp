// Co-location interference model (DESIGN.md Section 7).
//
// The paper's Section 2.3 observations that this model must reproduce:
//   * co-located components raise each other's LLC miss ratio;
//   * analyses are more memory-intensive than simulations, so analysis/
//     analysis sharing (C1.1, C1.4) misses more than simulation/simulation
//     sharing (C1.2);
//   * heterogeneous sharing (simulation with analysis, C1.3/C1.5) yields the
//     highest miss ratios, because the simulation's large working set evicts
//     the cache-hungry analysis;
//   * contention inflates execution time (lower IPC), which can flip a
//     coupling from the Idle Analyzer to the Idle Simulation regime.
//
// Mechanism: a victim stage's effective miss ratio grows with the cache
// pressure exerted by the working sets of co-active competitors, scaled by
// the victim's cache sensitivity. Extra misses add stall cycles; aggregate
// miss traffic can additionally saturate the node memory bandwidth, which
// stretches the stall term for everyone.
//
// All functions are pure: they take the platform spec and the co-active set
// and return costs, so they are unit-testable without a cluster object.
#pragma once

#include <span>

#include "platform/counters.hpp"
#include "platform/profile.hpp"
#include "platform/spec.hpp"

namespace wfe::plat {

/// A compute stage currently occupying cores of a node.
struct ActiveStage {
  ComputeProfile profile;
  int cores = 1;
};

/// Priced execution of one compute stage.
struct StageCost {
  double seconds = 0.0;
  HwCounters counters;
  double effective_miss_ratio = 0.0;
  /// Time inflation relative to running the same stage contention-free.
  double slowdown = 1.0;
};

/// Cache pressure in [0, 1) that `competitor_ws_bytes` of co-resident
/// working set exerts on a victim, for the given LLC capacity.
double cache_pressure(const PlatformSpec& spec, double competitor_ws_bytes);

/// Effective miss ratio of a victim under the pressure of competitors whose
/// working sets sum to `competitor_ws_bytes`.
double effective_miss_ratio(const PlatformSpec& spec,
                            const ComputeProfile& victim,
                            double competitor_ws_bytes);

/// Price a compute stage of `victim` on `cores` cores, co-active with
/// `competitors` on the same node. The victim must NOT be in `competitors`.
/// This is the one-victim form of compute_stage_costs_batch (the victim
/// first, then the competitors in order) and allocates nothing.
StageCost compute_stage_cost(const PlatformSpec& spec,
                             const ComputeProfile& victim, int cores,
                             std::span<const ActiveStage> competitors);

/// Batched form: price every stage of one node's co-location set against
/// the others. Both entry points run the same pricing body, walking the
/// competitors in set order, so `out[i]` is bitwise equal to
/// `compute_stage_cost(spec, stages[i].profile, stages[i].cores,
/// stages-without-i)`. Victim-independent terms (Amdahl speedups,
/// contention-free CPIs, working sets) are hoisted and computed once per
/// stage instead of once per victim×competitor pair. Requires out.size()
/// == stages.size(). Only runs when a node's occupancy changes (cold path,
/// see Cluster::resident_cost), so it may allocate its per-stage scratch.
void compute_stage_costs_batch(const PlatformSpec& spec,
                               std::span<const ActiveStage> stages,
                               std::span<StageCost> out);

}  // namespace wfe::plat
