#include "runtime/bridge.hpp"

#include <algorithm>

#include "core/efficiency.hpp"
#include "metrics/component_walk.hpp"
#include "support/error.hpp"

namespace wfe::rt {

Assessment assess(const EnsembleSpec& spec, const ExecutionResult& result,
                  const met::SteadyStateOptions& options) {
  WFE_REQUIRE(!result.trace.empty(), "cannot assess an empty trace");
  // One walk over the trace, its slots laid out from the spec.
  std::vector<std::size_t> analyses;
  analyses.reserve(spec.members.size());
  for (const MemberSpec& m : spec.members) {
    analyses.push_back(m.analyses.size());
  }
  met::ComponentWalk walk(result.trace, analyses);
  WFE_REQUIRE(walk.members_seen() == spec.members.size(),
              "trace and spec disagree on the number of members");

  std::vector<MemberAssessment> members;
  std::vector<core::EnsembleMemberModel> model_members;
  members.reserve(spec.members.size());
  model_members.reserve(spec.members.size());
  // The trace's members are exactly 0..n-1 once each has assessed, so the
  // ensemble makespan (Table 1) is the largest member makespan.
  double ensemble_makespan = 0.0;
  for (std::size_t i = 0; i < spec.members.size(); ++i) {
    MemberAssessment a;
    a.steady = walk.steady(i, options);
    a.sigma = core::non_overlapped_segment(a.steady);
    a.efficiency = core::computational_efficiency(a.steady);
    a.makespan_measured = walk.makespan(i);
    a.makespan_model = core::member_makespan_model(a.steady, result.n_steps);
    ensemble_makespan = std::max(ensemble_makespan, a.makespan_measured);
    model_members.push_back({a.steady, spec.members[i].placement()});
    members.push_back(std::move(a));
  }

  Assessment out{std::move(members), spec.total_nodes(),
                 ensemble_makespan,
                 core::EnsembleModel(std::move(model_members))};
  return out;
}

}  // namespace wfe::rt
