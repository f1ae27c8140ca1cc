// Placement explorer: rank every placement of an ensemble on a node pool.
//
// The paper closes with "future work will consider leveraging the proposed
// indicators for scheduling". This tool does exactly that, offline, with the
// scheduler's own pieces: enumerate_assignments lists one placement per
// orbit of node relabellings, CoreDemand drops those that oversubscribe a
// node, and the BatchEvaluator replays each on the modelled platform and
// scores it with the objective over P^{U,A,P}.
//
// Usage:  ./placement_explorer [members] [analyses_per_member] [nodes]
// Defaults reproduce the paper's 2 x (1+1) over 3 nodes space (Table 2).
// A malformed or out-of-range number exits 2; a pool nothing fits on, or a
// placement space over the search cap, exits 1.
#include <algorithm>
#include <iostream>
#include <numeric>

#include "sched/batch_evaluator.hpp"
#include "sched/candidates.hpp"
#include "support/error.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "workload/presets.hpp"

namespace {

/// "s0a0|s1a1": each member's sim node, then its analyses' nodes.
std::string placement_name(const wfe::sched::EnsembleShape& shape,
                           const wfe::sched::Assignment& assignment) {
  std::string name;
  std::size_t slot = 0;
  for (const wfe::sched::MemberShape& m : shape.members) {
    if (slot != 0) name += "|";
    name += wfe::strprintf("s%d", assignment[slot++]);
    for (std::size_t j = 0; j < m.analyses.size(); ++j) {
      name += wfe::strprintf("a%d", assignment[slot++]);
    }
  }
  return name;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wfe;

  const auto platform = wl::cori_like_platform();
  int members = 2;
  int analyses = 1;
  int pool = 3;
  if ((argc > 1 &&
       !parse_flag("members", argv[1], members, std::cerr, 1)) ||
      (argc > 2 && !parse_flag("analyses_per_member", argv[2], analyses,
                               std::cerr, 1)) ||
      (argc > 3 && !parse_flag("nodes", argv[3], pool, std::cerr, 1,
                               platform.node_count))) {
    return 2;
  }

  try {
    const auto shape = sched::EnsembleShape::paper_like(members, analyses);
    const sched::CoreDemand demand(shape, platform);
    std::vector<sched::Assignment> candidates;
    for (sched::Assignment& a :
         sched::enumerate_assignments(sched::slot_count(shape), pool)) {
      if (!demand.oversubscribed(a)) candidates.push_back(std::move(a));
    }
    if (candidates.empty()) {
      throw SpecError(strprintf("no placement fits on %d node(s)", pool));
    }
    std::cout << "exploring " << candidates.size()
              << " canonical feasible placements of " << members
              << " members x (1 sim + " << analyses << " analyses) over "
              << pool << " nodes...\n\n";

    sched::BatchEvaluator evaluator(platform);
    const auto scores = evaluator.score_assignments(shape, candidates, 6);

    std::vector<std::size_t> order(candidates.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return scores[x].eval.objective > scores[y].eval.objective;
    });

    Table table({"rank", "placement", "M", "F(P^{U,A,P})", "min E",
                 "ensemble makespan [s]"});
    for (std::size_t i = 0; i < order.size(); ++i) {
      const sched::Evaluation& e = scores[order[i]].eval;
      table.add_row({strprintf("%zu", i + 1),
                     placement_name(shape, candidates[order[i]]),
                     strprintf("%d", e.nodes_used), sci(e.objective, 3),
                     fixed(e.min_member_efficiency, 3),
                     fixed(e.ensemble_makespan, 1)});
    }
    std::cout << table.render();
    std::cout << "\nrecommended placement: "
              << placement_name(shape, candidates[order.front()]) << "\n";
    return 0;
  } catch (const wfe::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
