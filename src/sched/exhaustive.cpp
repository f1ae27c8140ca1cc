#include "sched/exhaustive.hpp"

#include <vector>

#include "sched/candidates.hpp"
#include "sched/risk.hpp"
#include "support/error.hpp"

namespace wfe::sched {

const Assignment& exhaustive_winner(PlanRun& run,
                                    const std::vector<Assignment>& candidates) {
  const auto winner = pick_winner(run.score(candidates), candidates);
  if (!winner) {
    throw SpecError("exhaustive: no feasible placement within the budget");
  }
  return candidates[*winner];
}

Schedule Exhaustive::plan(const EnsembleShape& shape,
                          const plat::PlatformSpec& platform,
                          const ResourceBudget& budget,
                          const PlanOptions& options) const {
  // Generate: one candidate per orbit of the plan's node classes, in
  // lexicographic order, before any worker starts. Score: fan out to the
  // worker pool, memoized. Reduce: canonical winner — identical to scoring
  // one assignment at a time in this order.
  PlanRun run(shape, platform, budget, options, PlanRun::Space::kExhaustive);
  return run.schedule(name(), exhaustive_winner(run, run.candidates()));
}

}  // namespace wfe::sched
