#include "sched/greedy_refine.hpp"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "sched/candidates.hpp"
#include "sched/greedy.hpp"
#include "sched/risk.hpp"
#include "support/error.hpp"

namespace wfe::sched {

Schedule GreedyRefine::plan(const EnsembleShape& shape,
                            const plat::PlatformSpec& platform,
                            const ResourceBudget& budget,
                            const PlanOptions& options) const {
  PlanRun run(shape, platform, budget, options);
  // Seeds: the constructive passes over the placement pool, laid out on
  // the healthy nodes first and the doomed ones last, then canonicalized. A
  // seed packs onto its lowest positions, and one that started on a doomed
  // node could not climb off it one component at a time. This is the one
  // place the search orders node classes.
  const std::vector<int>& doomed = run.risk().doomed;
  std::vector<int> layout(static_cast<std::size_t>(run.pool()));
  std::iota(layout.begin(), layout.end(), 0);
  std::stable_partition(layout.begin(), layout.end(), [&](int node) {
    return !std::binary_search(doomed.begin(), doomed.end(), node);
  });
  std::vector<Assignment> seeds;
  for (auto* build : {&colocated_assignment, &sims_first_assignment}) {
    if (auto a = (*build)(shape, platform, {run.pool()})) {
      for (int& node : *a) node = layout[static_cast<std::size_t>(node)];
      Assignment canon = canonical(*a, run.classes());
      if (seeds.empty() || seeds.front() != canon) {
        seeds.push_back(std::move(canon));
      }
    }
  }
  if (seeds.empty()) {
    throw SpecError(
        "greedy-refine: the ensemble does not fit the node budget (no "
        "constructive seed placement exists)");
  }

  std::vector<ScoredCandidate> scored = run.score(seeds);
  auto winner = pick_winner(scored, seeds);
  if (!winner) {
    throw SpecError("greedy-refine: no seed placement validates");
  }
  Assignment incumbent = seeds[*winner];
  double incumbent_objective = scored[*winner].objective;

  // Hill-climb: strictly improving, so each incumbent is visited once and
  // the loop terminates (the candidate space is finite). The neighborhood
  // overlap between rounds is served from the memo-cache. Under
  // --risk-aware the climb follows the risk-adjusted objective.
  for (;;) {
    const std::vector<Assignment> neighbors =
        neighbor_assignments(incumbent, run.classes());
    if (neighbors.empty()) break;
    scored = run.score(neighbors);
    winner = pick_winner(scored, neighbors);
    if (!winner || scored[*winner].objective <= incumbent_objective) {
      break;
    }
    incumbent = neighbors[*winner];
    incumbent_objective = scored[*winner].objective;
  }
  return run.schedule(name(), incumbent);
}

}  // namespace wfe::sched
