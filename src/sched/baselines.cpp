#include "sched/baselines.hpp"

#include <vector>

#include "sched/candidates.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace wfe::sched {

Schedule RoundRobin::plan(const EnsembleShape& shape,
                          const plat::PlatformSpec& platform,
                          const ResourceBudget& budget,
                          const PlanOptions& /*options*/) const {
  check_budget(shape, platform, budget);
  const std::vector<int> cores = slot_cores(shape);
  std::vector<int> free(static_cast<std::size_t>(budget.node_pool),
                        platform.node.cores);
  std::vector<int> assignment;
  int cursor = 0;
  for (int c : cores) {
    int tried = 0;
    while (tried < budget.node_pool &&
           free[static_cast<std::size_t>(cursor)] < c) {
      cursor = (cursor + 1) % budget.node_pool;
      ++tried;
    }
    if (tried == budget.node_pool) {
      throw SpecError("round-robin: component does not fit the node budget");
    }
    free[static_cast<std::size_t>(cursor)] -= c;
    assignment.push_back(cursor);
    cursor = (cursor + 1) % budget.node_pool;
  }

  Schedule schedule;
  schedule.spec = place(shape, assignment);
  schedule.spec.validate(platform);
  schedule.scheduler = name();
  return schedule;
}

Schedule RandomPlacement::plan(const EnsembleShape& shape,
                               const plat::PlatformSpec& platform,
                               const ResourceBudget& budget,
                               const PlanOptions& /*options*/) const {
  check_budget(shape, platform, budget);
  const CoreDemand demand(shape, platform);
  Xoshiro256 rng(seed_);
  // Candidate generator + first-feasible selection: attempts are drawn in
  // a fixed seed-determined order, so the outcome is reproducible. Only
  // the draw that fits is placed.
  Assignment assignment(slot_count(shape));
  for (int attempt = 0; attempt < max_attempts_; ++attempt) {
    for (auto& node : assignment) {
      node = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(budget.node_pool)));
    }
    if (demand.oversubscribed(assignment)) continue;
    Schedule schedule;
    schedule.spec = place(shape, assignment);
    schedule.spec.validate(platform);
    schedule.scheduler = name();
    return schedule;
  }
  throw SpecError("random: no feasible placement found within attempt cap");
}

}  // namespace wfe::sched
