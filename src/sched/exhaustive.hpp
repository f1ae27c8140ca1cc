// Exhaustive: the oracle scheduler.
//
// Enumerates every canonically distinct feasible assignment of components
// to the node pool, replays each on the modelled cluster and keeps the
// placement maximizing F(P^{U,A,P}). Exponential in component count (the
// enumeration is capped), but exact — it bounds what any other scheduler
// can achieve, which is what the comparison bench measures the greedy
// heuristic against.
//
// Candidate evaluation fans out to `options.threads` workers through the
// BatchEvaluator; the reduction's canonical tie-break (objective, then
// lexicographic canonical placement) makes the result bit-identical to the
// sequential search for any thread count.
#pragma once

#include <vector>

#include "sched/candidates.hpp"
#include "sched/scheduler.hpp"

namespace wfe::sched {

class PlanRun;

/// The exhaustive reduction: the canonical winner of `candidates` under
/// `run`'s fixed-budget, risk-adjusted scores. Throws wfe::SpecError when
/// none is feasible. bai-search's deterministic case is exactly this.
const Assignment& exhaustive_winner(PlanRun& run,
                                    const std::vector<Assignment>& candidates);

class Exhaustive final : public Scheduler {
 public:
  std::string name() const override { return "exhaustive"; }

  Schedule plan(const EnsembleShape& shape, const plat::PlatformSpec& platform,
                const ResourceBudget& budget,
                const PlanOptions& options = {}) const override;
};

}  // namespace wfe::sched
