#include "sched/scheduler.hpp"

#include "sched/bai.hpp"
#include "sched/baselines.hpp"
#include "sched/candidates.hpp"
#include "sched/exhaustive.hpp"
#include "sched/greedy.hpp"
#include "sched/greedy_refine.hpp"
#include "support/error.hpp"
#include "workload/presets.hpp"

namespace wfe::sched {

EnsembleShape EnsembleShape::paper_like(int members, int analyses_per_member,
                                        std::uint64_t n_steps) {
  WFE_REQUIRE(members >= 1, "need at least one member");
  WFE_REQUIRE(analyses_per_member >= 1, "need at least one analysis");
  EnsembleShape shape;
  shape.name = "paper-like";
  shape.n_steps = n_steps;
  for (int i = 0; i < members; ++i) {
    MemberShape m;
    m.sim = wl::gltph_like_simulation({0});  // node replaced at placement
    for (int j = 0; j < analyses_per_member; ++j) {
      m.analyses.push_back(wl::bipartite_like_analysis({0}));
    }
    shape.members.push_back(std::move(m));
  }
  return shape;
}

EnsembleShape EnsembleShape::of(const rt::EnsembleSpec& spec) {
  WFE_REQUIRE(!spec.members.empty(), "spec has no members");
  EnsembleShape shape;
  shape.name = spec.name;
  shape.n_steps = spec.n_steps;
  for (const rt::MemberSpec& m : spec.members) {
    MemberShape ms;
    ms.buffer_capacity = m.buffer_capacity;
    ms.sim = m.sim;
    ms.sim.nodes.clear();
    for (const rt::AnalysisSpec& a : m.analyses) {
      rt::AnalysisSpec as = a;
      as.nodes.clear();
      ms.analyses.push_back(std::move(as));
    }
    shape.members.push_back(std::move(ms));
  }
  return shape;
}

void check_budget(const EnsembleShape& shape,
                  const plat::PlatformSpec& platform,
                  const ResourceBudget& budget) {
  WFE_REQUIRE(!shape.members.empty(), "shape has no members");
  WFE_REQUIRE(budget.node_pool >= 1 &&
                  budget.node_pool <= platform.node_count,
              "node pool must fit the platform");
}

rt::EnsembleSpec place(const EnsembleShape& shape,
                       const std::vector<int>& assignment) {
  WFE_REQUIRE(assignment.size() == slot_count(shape),
              "assignment must hold one node per component");

  rt::EnsembleSpec spec;
  spec.name = shape.name;
  spec.n_steps = shape.n_steps;
  std::size_t idx = 0;
  for (const MemberShape& m : shape.members) {
    rt::MemberSpec placed;
    placed.buffer_capacity = m.buffer_capacity;
    placed.sim = m.sim;
    placed.sim.nodes = {assignment[idx++]};
    for (const rt::AnalysisSpec& a : m.analyses) {
      rt::AnalysisSpec pa = a;
      pa.nodes = {assignment[idx++]};
      placed.analyses.push_back(std::move(pa));
    }
    spec.members.push_back(std::move(placed));
  }
  return spec;
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& name) {
  if (name == "greedy-colocate") return std::make_unique<GreedyColocation>();
  if (name == "greedy-refine") return std::make_unique<GreedyRefine>();
  if (name == "exhaustive") return std::make_unique<Exhaustive>();
  if (name == "bai-search") return std::make_unique<BaiSearch>();
  if (name == "round-robin") return std::make_unique<RoundRobin>();
  if (name == "random") return std::make_unique<RandomPlacement>();
  throw InvalidArgument("unknown scheduler: " + name);
}

}  // namespace wfe::sched
