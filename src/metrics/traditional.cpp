#include "metrics/traditional.hpp"

#include <algorithm>

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

namespace {

/// A member's earliest simulation start and latest analysis end.
struct MemberSpan {
  std::uint32_t member = 0;
  bool have_sim = false, have_ana = false;
  double sim_start = 0.0, ana_end = 0.0;

  void add(const StageRecord& r) {
    if (r.component.is_simulation()) {
      if (!have_sim || r.start < sim_start) sim_start = r.start;
      have_sim = true;
    } else {
      if (!have_ana || r.end > ana_end) ana_end = r.end;
      have_ana = true;
    }
  }
  double makespan() const {
    WFE_REQUIRE(have_sim, "member has no simulation records");
    WFE_REQUIRE(have_ana, "member has no analysis records");
    return ana_end - sim_start;
  }
};

}  // namespace

double member_makespan(const Trace& trace, std::uint32_t member) {
  MemberSpan span{member};
  for (const StageRecord& r : trace.records()) {
    if (r.component.member == member) span.add(r);
  }
  return span.makespan();
}

double ensemble_makespan(const Trace& trace) {
  WFE_REQUIRE(!trace.empty(), "empty trace");
  std::vector<MemberSpan> spans;  // one walk, sorted by member id
  for (const StageRecord& r : trace.records()) {
    sorted_entry(spans, r.component.member, &MemberSpan::member).add(r);
  }
  double span = 0.0;
  for (const MemberSpan& s : spans) span = std::max(span, s.makespan());
  return span;
}

}  // namespace wfe::met
