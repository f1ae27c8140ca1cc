// Online re-planning: incremental placement repair when a node dies.
//
// A RePlanner holds the currently-running assignment and plugs into the
// simulated executor's migration hook (rt::MigrationPlanner). When a member
// loses a node, the executor calls back with the dead node and the set of
// surviving nodes; the re-planner repairs ONLY the affected member's slots
// — every occurrence of the dead node in that member is rehomed to one
// surviving target. It is one more search policy over a PlanRun: the
// candidates are one repair per surviving node, scored, sampled and
// charged exactly as the offline schedulers score theirs (same probe
// scenario, same memo/EvalCache tiers, so repeated re-plans and campaign
// reruns pay nothing twice). Under PlanOptions::risk_aware the candidates
// are ranked by risk-adjusted objective, so a repair prefers targets that
// keep the expected — not just the fault-free — makespan low, and one
// that lands on a node scheduled to die is charged its recovery.
//
// Determinism: candidates are generated in ascending target-node order and
// reduced with pick_winner's canonical total order, and the BatchEvaluator
// returns thread-count-invariant scores. A re-plan therefore picks the
// same target for any planner thread count and any rerun. The internal
// mutex (support::kRankRePlanner, held across scoring) only serializes
// concurrent executors sharing one re-planner; it never changes outcomes.
#pragma once

#include <cstddef>
#include <vector>

#include "runtime/simulated_executor.hpp"
#include "sched/candidates.hpp"
#include "sched/risk.hpp"
#include "sched/scheduler.hpp"
#include "support/lock_rank.hpp"

namespace wfe::sched {

class RePlanner {
 public:
  /// `options` carries the probe scenario (faults/recovery), risk_aware,
  /// probe_steps, the planner thread count and the shared cache — usually
  /// the same PlanOptions the offline scheduler planned with. Repairs may
  /// land on any node of `platform`, the spare-node headroom included.
  RePlanner(EnsembleShape shape, const plat::PlatformSpec& platform,
            PlanOptions options);

  /// Install the assignment the campaign launched with (slot order of
  /// candidates.hpp). Must be called before the first re-plan.
  void set_assignment(Assignment assignment);
  /// The assignment as repaired so far.
  Assignment assignment() const;

  /// The executor-facing hook. The returned callable shares this
  /// re-planner (which must outlive every executor holding the hook).
  rt::MigrationPlanner hook();

  /// Repair the requesting member's placement: score one candidate per
  /// surviving node and return the winning target. Returns a negative
  /// value — "defer to the executor's built-in policy" — when no candidate
  /// is feasible or the member does not use the dead node.
  int replan(const rt::MigrationRequest& request);

  std::size_t replans() const;
  /// Probe replays spent re-planning (cache misses only).
  std::size_t evaluations() const;
  /// Wall-clock seconds of the most recent replan() (0 before the first).
  /// Reported via counters and bench JSON, never via the virtual-time
  /// trace, so fault-run traces stay rerun-identical.
  double last_latency_s() const;

 private:
  int replan_locked(const rt::MigrationRequest& request);

  mutable support::RankedMutex<support::kRankRePlanner> mutex_;
  EnsembleShape shape_;
  PlanOptions options_;
  PlanRun run_;
  std::vector<std::size_t> slot_offset_;  ///< first slot of each member
  Assignment current_;
  std::size_t replans_ = 0;
  double last_latency_s_ = 0.0;
};

}  // namespace wfe::sched
