#include "metrics/steady_state.hpp"

#include <algorithm>
#include <utility>

#include "support/error.hpp"
#include "support/stats.hpp"

namespace wfe::met {

namespace {

/// (step, duration) of a component's records of one stage kind.
using Series = std::vector<std::pair<std::uint64_t, double>>;

/// Sum each step's records in trace order (the stable sort by step keeps
/// it), trim the warm-up steps, then take the median or mean of the rest.
double steady_of(Series& series, const ComponentId& id,
                 const SteadyStateOptions& options) {
  WFE_REQUIRE(options.warmup_fraction >= 0.0 && options.warmup_fraction < 1.0,
              "warm-up fraction must be in [0, 1)");
  WFE_REQUIRE(!series.empty(), "component " + id.str() +
                                   " recorded no stage of this kind");
  const auto by_step = [](auto& x, auto& y) { return x.first < y.first; };
  if (!std::is_sorted(series.begin(), series.end(), by_step)) {
    std::stable_sort(series.begin(), series.end(), by_step);
  }
  std::vector<double> durations;
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i == 0 || series[i].first != series[i - 1].first) {
      durations.push_back(0.0);
    }
    durations.back() += series[i].second;
  }

  // Warm-up trim: never discard everything.
  std::uint64_t warmup = std::max(
      static_cast<std::uint64_t>(options.warmup_fraction *
                                 static_cast<double>(durations.size())),
      options.min_warmup_steps);
  if (warmup >= durations.size()) {
    warmup = durations.size() - 1;
  }
  const std::span<const double> window(durations.data() + warmup,
                                       durations.size() - warmup);
  return options.use_mean ? mean(window) : median(window);
}

/// A component's modelled series: {S, W} or {R, A}.
struct ComponentSeries {
  ComponentId id;
  Series series[2]{};
};

}  // namespace

double steady_stage_duration(const Trace& trace, const ComponentId& id,
                             core::StageKind kind,
                             const SteadyStateOptions& options) {
  Series series;
  for (const StageRecord& r : trace.records()) {
    if (r.component == id && r.kind == kind) {
      series.emplace_back(r.step, r.duration());
    }
  }
  return steady_of(series, id, options);
}

core::MemberSteady member_steady_state(const Trace& trace,
                                       std::uint32_t member,
                                       const SteadyStateOptions& options) {
  // One walk buckets the member's records by component and stage kind.
  using core::StageKind;
  std::vector<ComponentSeries> components;
  for (const StageRecord& r : trace.records()) {
    if (r.component.member != member) continue;
    ComponentSeries& c =
        sorted_entry(components, r.component, &ComponentSeries::id);
    const bool sim = r.component.is_simulation();
    if (r.kind == (sim ? StageKind::kSimulate : StageKind::kRead)) {
      c.series[0].emplace_back(r.step, r.duration());
    } else if (r.kind == (sim ? StageKind::kWrite : StageKind::kAnalyze)) {
      c.series[1].emplace_back(r.step, r.duration());
    }
  }
  WFE_REQUIRE(!components.empty(), "no trace records for this member");

  core::MemberSteady steady;
  bool have_sim = false;
  for (ComponentSeries& c : components) {
    const double first = steady_of(c.series[0], c.id, options);
    const double second = steady_of(c.series[1], c.id, options);
    if (c.id.is_simulation()) {
      steady.sim = {first, second};
      have_sim = true;
    } else {
      steady.analyses.push_back({first, second});
    }
  }
  WFE_REQUIRE(have_sim, "member has no simulation component in the trace");
  WFE_REQUIRE(!steady.analyses.empty(), "member has no analysis components");
  return steady;
}

}  // namespace wfe::met
