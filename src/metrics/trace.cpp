#include "metrics/trace.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/str.hpp"

namespace wfe::met {

std::string ComponentId::str() const {
  if (is_simulation()) return strprintf("sim%u", member);
  return strprintf("ana%u.%d", member, analysis);
}

void TraceRecorder::record(StageRecord record) {
  WFE_REQUIRE(record.end >= record.start,
              "a stage cannot end before it starts");
  const support::RankGuard<Mutex> lock(mutex_);
  records_.push_back(std::move(record));
}

Trace TraceRecorder::take() {
  std::vector<StageRecord> out;
  {
    const support::RankGuard<Mutex> lock(mutex_);
    out.swap(records_);
  }
  return Trace(std::move(out));
}

Trace::Trace(std::vector<StageRecord> records)
    : records_(std::move(records)) {
  std::stable_sort(records_.begin(), records_.end(),
                   [](const StageRecord& a, const StageRecord& b) {
                     if (a.start != b.start) return a.start < b.start;
                     return a.component < b.component;
                   });
}

std::vector<ComponentId> Trace::components() const {
  std::vector<ComponentId> ids;
  for (const StageRecord& r : records_) sorted_entry(ids, r.component);
  return ids;
}

std::vector<std::uint32_t> Trace::members() const {
  std::vector<std::uint32_t> ids;
  for (const StageRecord& r : records_) sorted_entry(ids, r.component.member);
  return ids;
}

std::vector<StageRecord> Trace::for_component(const ComponentId& id) const {
  std::vector<StageRecord> out;
  for (const StageRecord& r : records_) {
    if (r.component == id) out.push_back(r);
  }
  return out;
}

double Trace::component_start(const ComponentId& id) const {
  bool found = false;
  double t = 0.0;
  for (const StageRecord& r : records_) {
    if (r.component != id) continue;
    if (!found || r.start < t) t = r.start;
    found = true;
  }
  WFE_REQUIRE(found, "component " + id.str() + " has no trace records");
  return t;
}

double Trace::component_end(const ComponentId& id) const {
  bool found = false;
  double t = 0.0;
  for (const StageRecord& r : records_) {
    if (r.component != id) continue;
    if (!found || r.end > t) t = r.end;
    found = true;
  }
  WFE_REQUIRE(found, "component " + id.str() + " has no trace records");
  return t;
}

std::uint64_t Trace::step_count(const ComponentId& id) const {
  std::vector<std::uint64_t> steps;
  for (const StageRecord& r : records_) {
    if (r.component == id) sorted_entry(steps, r.step);
  }
  return steps.size();
}

plat::HwCounters Trace::component_counters(const ComponentId& id) const {
  plat::HwCounters total;
  for (const StageRecord& r : records_) {
    if (r.component == id) total += r.counters;
  }
  return total;
}

double Trace::total_in_stage(const ComponentId& id,
                             core::StageKind kind) const {
  double total = 0.0;
  for (const StageRecord& r : records_) {
    if (r.component == id && r.kind == kind) total += r.duration();
  }
  return total;
}

}  // namespace wfe::met
