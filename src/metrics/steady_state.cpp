#include "metrics/steady_state.hpp"

#include <vector>

#include "metrics/component_walk.hpp"

namespace wfe::met {

double steady_stage_duration(const Trace& trace, const ComponentId& id,
                             core::StageKind kind,
                             const SteadyStateOptions& options) {
  std::vector<std::uint64_t> steps;
  std::vector<double> durations;
  for (const StageRecord& r : trace.records()) {
    if (r.component == id && r.kind == kind) {
      steps.push_back(r.step);
      durations.push_back(r.duration());
    }
  }
  sort_by_step(steps, durations);
  std::vector<double> scratch(steps.size());
  return steady_value(steps, durations, scratch, id, options);
}

core::MemberSteady member_steady_state(const Trace& trace,
                                       std::uint32_t member,
                                       const SteadyStateOptions& options) {
  return ComponentWalk::of_member(trace, member).steady(0, options);
}

}  // namespace wfe::met
