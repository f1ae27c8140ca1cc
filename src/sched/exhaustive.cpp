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
  const std::size_t slots = slot_count(shape);
  WFE_REQUIRE(slots <= 12, "exhaustive search capped at 12 components");
  PlanRun run(shape, platform, budget, options);
  // Generate: every canonically distinct assignment, in lexicographic
  // order. Score: fan out to the worker pool, memoized. Reduce: canonical
  // winner — identical to scoring one assignment at a time in this order.
  const std::vector<Assignment> candidates =
      enumerate_assignments(slots, run.pool());
  return run.schedule(name(), exhaustive_winner(run, candidates));
}

}  // namespace wfe::sched
