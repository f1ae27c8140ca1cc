#include "metrics/component_walk.hpp"

#include <algorithm>
#include <utility>

#include "support/error.hpp"
#include "support/stats.hpp"

namespace wfe::met {

namespace {

/// The modelled series a record belongs to: 0 for S or R, 1 for W or A,
/// -1 for the stages the model derives or ignores.
int series_of(const StageRecord& r) {
  using core::StageKind;
  const bool sim = r.component.is_simulation();
  if (r.kind == (sim ? StageKind::kSimulate : StageKind::kRead)) return 0;
  if (r.kind == (sim ? StageKind::kWrite : StageKind::kAnalyze)) return 1;
  return -1;
}

}  // namespace

double steady_value(std::span<const std::uint64_t> steps,
                    std::span<const double> durations,
                    std::span<double> scratch, const ComponentId& id,
                    const SteadyStateOptions& options) {
  WFE_REQUIRE(options.warmup_fraction >= 0.0 && options.warmup_fraction < 1.0,
              "warm-up fraction must be in [0, 1)");
  WFE_REQUIRE(!steps.empty(), "component " + id.str() +
                                  " recorded no stage of this kind");
  std::size_t n = 0;  // steps summed so far
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (i == 0 || steps[i] != steps[i - 1]) scratch[n++] = 0.0;
    scratch[n - 1] += durations[i];
  }

  // Warm-up trim: never discard everything.
  std::uint64_t warmup = std::max(
      static_cast<std::uint64_t>(options.warmup_fraction *
                                 static_cast<double>(n)),
      options.min_warmup_steps);
  if (warmup >= n) warmup = n - 1;
  const std::span<double> window = scratch.subspan(warmup, n - warmup);
  return options.use_mean ? mean(window) : quantile_in_place(window, 0.5);
}

void sort_by_step(std::span<std::uint64_t> steps,
                  std::span<double> durations) {
  if (std::is_sorted(steps.begin(), steps.end())) return;
  std::vector<std::pair<std::uint64_t, double>> series(steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    series[i] = {steps[i], durations[i]};
  }
  std::stable_sort(series.begin(), series.end(),
                   [](const auto& x, const auto& y) {
                     return x.first < y.first;
                   });
  for (std::size_t i = 0; i < steps.size(); ++i) {
    steps[i] = series[i].first;
    durations[i] = series[i].second;
  }
}

ComponentWalk::ComponentWalk(const Trace& trace,
                             std::span<const std::size_t> analyses) {
  const std::size_t members = analyses.size();
  member_begin_.resize(members + 1);
  std::size_t slots = 0;
  for (std::size_t i = 0; i < members; ++i) {
    member_begin_[i] = slots;
    slots += 1 + analyses[i];
  }
  member_begin_[members] = slots;
  slots_.resize(slots);
  for (std::size_t i = 0; i < members; ++i) {
    for (std::size_t s = member_begin_[i]; s < member_begin_[i + 1]; ++s) {
      slots_[s].id = {static_cast<std::uint32_t>(i),
                      static_cast<std::int32_t>(s - member_begin_[i]) - 1};
    }
  }
  walk(trace, [&](const StageRecord& r) -> std::ptrdiff_t {
    const ComponentId& c = r.component;
    if (c.member >= members) {
      sorted_entry(unlaid_, c.member);
      return -1;
    }
    const std::size_t first = member_begin_[c.member];
    const auto analyses_of_member =
        static_cast<std::int64_t>(member_begin_[c.member + 1] - first) - 1;
    WFE_REQUIRE(c.analysis >= -1 && c.analysis < analyses_of_member,
                "trace component " + c.str() + " is not in the spec");
    return static_cast<std::ptrdiff_t>(first) + c.analysis + 1;
  });
}

ComponentWalk::ComponentWalk(const Trace& trace, std::vector<ComponentId> ids,
                             std::vector<std::size_t> member_begin)
    : member_begin_(std::move(member_begin)) {
  slots_.resize(ids.size());
  for (std::size_t s = 0; s < ids.size(); ++s) slots_[s].id = ids[s];
  walk(trace, [&](const StageRecord& r) -> std::ptrdiff_t {
    const auto it = std::ranges::lower_bound(ids, r.component);
    if (it == ids.end() || *it != r.component) return -1;
    return it - ids.begin();
  });
}

ComponentWalk ComponentWalk::of_member(const Trace& trace,
                                       std::uint32_t member) {
  std::vector<ComponentId> ids;
  for (const StageRecord& r : trace.records()) {
    if (r.component.member == member) sorted_entry(ids, r.component);
  }
  const std::size_t count = ids.size();
  return ComponentWalk(trace, std::move(ids), {0, count});
}

ComponentWalk ComponentWalk::of_trace(const Trace& trace) {
  std::vector<ComponentId> ids = trace.components();
  std::vector<std::size_t> member_begin;
  for (std::size_t s = 0; s < ids.size(); ++s) {
    if (s == 0 || ids[s].member != ids[s - 1].member) {
      member_begin.push_back(s);
    }
  }
  member_begin.push_back(ids.size());
  return ComponentWalk(trace, std::move(ids), std::move(member_begin));
}

template <typename SlotOf>
void ComponentWalk::walk(const Trace& trace, SlotOf slot_of) {
  // One read of the records: spans per slot, and each modelled stage's
  // (series, step, duration) in trace order.
  struct Entry {
    std::size_t series;  ///< 2 * slot + k
    std::uint64_t step;
    double duration;
  };
  std::vector<Entry> entries;
  entries.reserve(trace.size());
  for (const StageRecord& r : trace.records()) {
    const std::ptrdiff_t s = slot_of(r);
    if (s < 0) continue;
    Slot& slot = slots_[static_cast<std::size_t>(s)];
    if (!slot.seen || r.start < slot.start) slot.start = r.start;
    if (!slot.seen || r.end > slot.end) slot.end = r.end;
    slot.seen = true;
    const int k = series_of(r);
    if (k < 0) continue;
    ++slot.size[k];
    entries.push_back({2 * static_cast<std::size_t>(s) +
                           static_cast<std::size_t>(k),
                       r.step, r.duration()});
  }

  // Counting sort: each series' entries side by side, still in trace order.
  std::size_t total = 0;
  std::size_t longest = 0;
  for (Slot& slot : slots_) {
    for (const int k : {0, 1}) {
      slot.begin[k] = total;
      total += slot.size[k];
      longest = std::max(longest, slot.size[k]);
      slot.size[k] = 0;  // refilled below
    }
  }
  steps_.resize(total);
  durations_.resize(total);
  scratch_.resize(longest);
  for (const Entry& e : entries) {
    Slot& slot = slots_[e.series / 2];
    const std::size_t k = e.series % 2;
    const std::size_t at = slot.begin[k] + slot.size[k]++;
    steps_[at] = e.step;
    durations_[at] = e.duration;
  }
  for (const Slot& slot : slots_) {
    for (const int k : {0, 1}) {
      sort_by_step({steps_.data() + slot.begin[k], slot.size[k]},
                   {durations_.data() + slot.begin[k], slot.size[k]});
    }
  }
}

std::size_t ComponentWalk::members_seen() const {
  std::size_t seen = unlaid_.size();
  for (std::size_t m = 0; m < member_count(); ++m) {
    const auto first = slots_.begin() +
                       static_cast<std::ptrdiff_t>(member_begin_[m]);
    const auto last = slots_.begin() +
                      static_cast<std::ptrdiff_t>(member_begin_[m + 1]);
    if (std::any_of(first, last, [](const Slot& s) { return s.seen; })) {
      ++seen;
    }
  }
  return seen;
}

double ComponentWalk::series_value(const Slot& slot, int k,
                                   const SteadyStateOptions& options) {
  return steady_value({steps_.data() + slot.begin[k], slot.size[k]},
                      {durations_.data() + slot.begin[k], slot.size[k]},
                      scratch_, slot.id, options);
}

core::MemberSteady ComponentWalk::steady(std::size_t member,
                                         const SteadyStateOptions& options) {
  WFE_REQUIRE(member < member_count(), "member outside the walk's layout");
  const std::size_t first = member_begin_[member];
  const std::size_t last = member_begin_[member + 1];
  std::size_t recorded = 0;
  for (std::size_t s = first; s < last; ++s) recorded += slots_[s].seen;
  WFE_REQUIRE(recorded > 0, "no trace records for this member");

  core::MemberSteady steady;
  steady.analyses.reserve(recorded);
  bool have_sim = false;
  for (std::size_t s = first; s < last; ++s) {
    const Slot& slot = slots_[s];
    if (!slot.seen) continue;
    const double value0 = series_value(slot, 0, options);
    const double value1 = series_value(slot, 1, options);
    if (slot.id.is_simulation()) {
      steady.sim = {value0, value1};
      have_sim = true;
    } else {
      steady.analyses.push_back({value0, value1});
    }
  }
  WFE_REQUIRE(have_sim, "member has no simulation component in the trace");
  WFE_REQUIRE(!steady.analyses.empty(), "member has no analysis components");
  return steady;
}

double ComponentWalk::makespan(std::size_t member) const {
  WFE_REQUIRE(member < member_count(), "member outside the walk's layout");
  bool have_sim = false;
  bool have_ana = false;
  double sim_start = 0.0;
  double ana_end = 0.0;
  for (std::size_t s = member_begin_[member]; s < member_begin_[member + 1];
       ++s) {
    const Slot& slot = slots_[s];
    if (!slot.seen) continue;
    if (slot.id.is_simulation()) {
      if (!have_sim || slot.start < sim_start) sim_start = slot.start;
      have_sim = true;
    } else {
      if (!have_ana || slot.end > ana_end) ana_end = slot.end;
      have_ana = true;
    }
  }
  WFE_REQUIRE(have_sim, "member has no simulation records");
  WFE_REQUIRE(have_ana, "member has no analysis records");
  return ana_end - sim_start;
}

}  // namespace wfe::met
