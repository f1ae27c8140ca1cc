#include "runtime/bridge.hpp"

#include <algorithm>

#include "core/efficiency.hpp"
#include "metrics/traditional.hpp"
#include "support/error.hpp"

namespace wfe::rt {

Assessment assess(const EnsembleSpec& spec, const ExecutionResult& result,
                  const met::SteadyStateOptions& options) {
  WFE_REQUIRE(!result.trace.empty(), "cannot assess an empty trace");
  WFE_REQUIRE(result.trace.members().size() == spec.members.size(),
              "trace and spec disagree on the number of members");

  std::vector<MemberAssessment> members;
  std::vector<core::EnsembleMemberModel> model_members;
  members.reserve(spec.members.size());
  // The trace's members are exactly 0..n-1 once each has assessed, so the
  // ensemble makespan (Table 1) is the largest member makespan.
  double ensemble_makespan = 0.0;
  for (std::size_t i = 0; i < spec.members.size(); ++i) {
    const auto member_id = static_cast<std::uint32_t>(i);
    MemberAssessment a;
    a.steady = met::member_steady_state(result.trace, member_id, options);
    a.sigma = core::non_overlapped_segment(a.steady);
    a.efficiency = core::computational_efficiency(a.steady);
    a.makespan_measured = met::member_makespan(result.trace, member_id);
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
