#include "metrics/traditional.hpp"

#include <algorithm>

#include "metrics/component_walk.hpp"
#include "support/error.hpp"

namespace wfe::met {

ComponentMetrics component_metrics(const Trace& trace, const ComponentId& id) {
  ComponentMetrics m;
  m.component = id;
  m.execution_time = trace.component_end(id) - trace.component_start(id);
  const plat::HwCounters counters = trace.component_counters(id);
  m.llc_miss_ratio = counters.llc_miss_ratio();
  m.memory_intensity = counters.memory_intensity();
  m.ipc = counters.ipc();
  return m;
}

std::vector<ComponentMetrics> all_component_metrics(const Trace& trace) {
  std::vector<ComponentMetrics> out;
  for (const ComponentId& id : trace.components()) {
    out.push_back(component_metrics(trace, id));
  }
  return out;
}

double member_makespan(const Trace& trace, std::uint32_t member) {
  return ComponentWalk::of_member(trace, member).makespan(0);
}

double ensemble_makespan(const Trace& trace) {
  WFE_REQUIRE(!trace.empty(), "empty trace");
  const ComponentWalk walk = ComponentWalk::of_trace(trace);
  double span = 0.0;
  for (std::size_t m = 0; m < walk.member_count(); ++m) {
    span = std::max(span, walk.makespan(m));
  }
  return span;
}

}  // namespace wfe::met
