// Steady-state extraction tests: warm-up trimming and robust estimation.
#include "metrics/steady_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "metrics/traditional.hpp"
#include "runtime/simulated_executor.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"
#include "workload/paper_configs.hpp"
#include "workload/presets.hpp"

namespace wfe::met {
namespace {

using core::StageKind;

/// A component whose stage of `kind` lasts warmup_value for the first
/// `warmup` steps and steady_value afterwards.
Trace synthetic_trace(ComponentId id, StageKind kind, int steps,
                      int warmup_steps, double warmup_value,
                      double steady_value) {
  std::vector<StageRecord> records;
  double t = 0.0;
  for (int s = 0; s < steps; ++s) {
    const double d = s < warmup_steps ? warmup_value : steady_value;
    records.push_back({id, static_cast<std::uint64_t>(s), kind, t, t + d, {}});
    t += d;
  }
  return Trace(std::move(records));
}

TEST(SteadyState, MedianIgnoresWarmup) {
  const Trace t =
      synthetic_trace({0, -1}, StageKind::kSimulate, 20, 3, 50.0, 10.0);
  SteadyStateOptions opt;
  opt.warmup_fraction = 0.2;
  EXPECT_DOUBLE_EQ(steady_stage_duration(t, {0, -1}, StageKind::kSimulate, opt),
                   10.0);
}

TEST(SteadyState, MeanOptionAverages) {
  // After trimming 1 step of warm-up, values are 2, 4 -> mean 3.
  Trace t = synthetic_trace({0, -1}, StageKind::kWrite, 3, 1, 9.0, 0.0);
  std::vector<StageRecord> records(t.records().begin(), t.records().end());
  records[1].end = records[1].start + 2.0;
  records[2].end = records[2].start + 4.0;
  const Trace t2(std::move(records));
  SteadyStateOptions opt;
  opt.use_mean = true;
  opt.warmup_fraction = 0.0;
  opt.min_warmup_steps = 1;
  EXPECT_DOUBLE_EQ(
      steady_stage_duration(t2, {0, -1}, StageKind::kWrite, opt), 3.0);
}

TEST(SteadyState, SingleStepKeepsItsValue) {
  const Trace t =
      synthetic_trace({0, -1}, StageKind::kSimulate, 1, 0, 0.0, 7.0);
  EXPECT_DOUBLE_EQ(
      steady_stage_duration(t, {0, -1}, StageKind::kSimulate, {}), 7.0);
}

TEST(SteadyState, MissingStageThrows) {
  const Trace t =
      synthetic_trace({0, -1}, StageKind::kSimulate, 5, 0, 1.0, 1.0);
  EXPECT_THROW(
      (void)steady_stage_duration(t, {0, -1}, StageKind::kAnalyze, {}),
      InvalidArgument);
}

TEST(SteadyState, RejectsBadWarmupFraction) {
  const Trace t =
      synthetic_trace({0, -1}, StageKind::kSimulate, 5, 0, 1.0, 1.0);
  SteadyStateOptions opt;
  opt.warmup_fraction = 1.0;
  EXPECT_THROW(
      (void)steady_stage_duration(t, {0, -1}, StageKind::kSimulate, opt),
      InvalidArgument);
}

TEST(SteadyState, SplitStagesWithinAStepAreSummed) {
  // Two W records for the same step count as one step duration.
  std::vector<StageRecord> records{
      {{0, -1}, 0, StageKind::kWrite, 0.0, 1.0, {}},
      {{0, -1}, 0, StageKind::kWrite, 1.0, 1.5, {}},
      {{0, -1}, 1, StageKind::kWrite, 2.0, 3.5, {}},
  };
  const Trace t(std::move(records));
  SteadyStateOptions opt;
  opt.min_warmup_steps = 1;
  // Warm-up drops step 0; steady W = 1.5.
  EXPECT_DOUBLE_EQ(steady_stage_duration(t, {0, -1}, StageKind::kWrite, opt),
                   1.5);
}

Trace member_trace(double s, double w, std::vector<std::pair<double, double>>
                                           analyses /* (r, a) */) {
  std::vector<StageRecord> records;
  for (int step = 0; step < 6; ++step) {
    const double base = step * 100.0;
    records.push_back({{0, -1}, static_cast<std::uint64_t>(step),
                       StageKind::kSimulate, base, base + s, {}});
    records.push_back({{0, -1}, static_cast<std::uint64_t>(step),
                       StageKind::kWrite, base + s, base + s + w, {}});
    for (std::size_t j = 0; j < analyses.size(); ++j) {
      const auto [r, a] = analyses[j];
      records.push_back({{0, static_cast<std::int32_t>(j)},
                         static_cast<std::uint64_t>(step), StageKind::kRead,
                         base + s + w, base + s + w + r, {}});
      records.push_back({{0, static_cast<std::int32_t>(j)},
                         static_cast<std::uint64_t>(step),
                         StageKind::kAnalyze, base + s + w + r,
                         base + s + w + r + a, {}});
    }
  }
  return Trace(std::move(records));
}

TEST(MemberSteadyState, AssemblesAllStages) {
  const Trace t = member_trace(10.0, 0.5, {{1.0, 7.0}, {2.0, 8.0}});
  const core::MemberSteady steady = member_steady_state(t, 0);
  EXPECT_DOUBLE_EQ(steady.sim.s, 10.0);
  EXPECT_DOUBLE_EQ(steady.sim.w, 0.5);
  ASSERT_EQ(steady.analyses.size(), 2u);
  EXPECT_DOUBLE_EQ(steady.analyses[0].r, 1.0);
  EXPECT_DOUBLE_EQ(steady.analyses[0].a, 7.0);
  EXPECT_DOUBLE_EQ(steady.analyses[1].r, 2.0);
  EXPECT_DOUBLE_EQ(steady.analyses[1].a, 8.0);
}

TEST(MemberSteadyState, AnalysesOrderedByIndex) {
  // Build the trace with analysis 1 recorded before analysis 0.
  std::vector<StageRecord> records;
  for (int step = 0; step < 4; ++step) {
    const double base = step * 10.0;
    records.push_back({{0, -1}, static_cast<std::uint64_t>(step),
                       StageKind::kSimulate, base, base + 1, {}});
    records.push_back({{0, -1}, static_cast<std::uint64_t>(step),
                       StageKind::kWrite, base + 1, base + 1.1, {}});
    records.push_back({{0, 1}, static_cast<std::uint64_t>(step),
                       StageKind::kRead, base, base + 0.2, {}});
    records.push_back({{0, 1}, static_cast<std::uint64_t>(step),
                       StageKind::kAnalyze, base, base + 5, {}});
    records.push_back({{0, 0}, static_cast<std::uint64_t>(step),
                       StageKind::kRead, base, base + 0.1, {}});
    records.push_back({{0, 0}, static_cast<std::uint64_t>(step),
                       StageKind::kAnalyze, base, base + 3, {}});
  }
  const core::MemberSteady steady = member_steady_state(Trace(records), 0);
  EXPECT_DOUBLE_EQ(steady.analyses[0].a, 3.0);
  EXPECT_DOUBLE_EQ(steady.analyses[1].a, 5.0);
}

TEST(MemberSteadyState, MissingMemberThrows) {
  const Trace t = member_trace(1.0, 0.1, {{0.1, 0.5}});
  EXPECT_THROW((void)member_steady_state(t, 7), InvalidArgument);
}

TEST(MemberSteadyState, MemberWithoutAnalysesThrows) {
  const Trace t =
      synthetic_trace({0, -1}, StageKind::kSimulate, 5, 0, 1.0, 1.0);
  EXPECT_THROW((void)member_steady_state(t, 0), InvalidArgument);
}

// -- the one-walk extraction against the per-step map it replaced ----------

/// Reference: the per-step map algorithm, one full scan per (component,
/// stage kind), each step's durations summed by `+=` in trace order.
double reference_stage(const Trace& trace, const ComponentId& id,
                       StageKind kind, const SteadyStateOptions& options) {
  WFE_REQUIRE(options.warmup_fraction >= 0.0 && options.warmup_fraction < 1.0,
              "warm-up fraction must be in [0, 1)");
  std::map<std::uint64_t, double> by_step;
  for (const StageRecord& r : trace.records()) {
    if (r.component == id && r.kind == kind) by_step[r.step] += r.duration();
  }
  WFE_REQUIRE(!by_step.empty(), "component " + id.str() +
                                    " recorded no stage of this kind");
  std::vector<double> durations;
  for (const auto& [_, d] : by_step) durations.push_back(d);
  std::uint64_t warmup = std::max(
      static_cast<std::uint64_t>(options.warmup_fraction *
                                 static_cast<double>(durations.size())),
      options.min_warmup_steps);
  if (warmup >= durations.size()) warmup = durations.size() - 1;
  const std::span<const double> window(durations.data() + warmup,
                                       durations.size() - warmup);
  return options.use_mean ? mean(window) : median(window);
}

core::MemberSteady reference_member(const Trace& trace, std::uint32_t member,
                                    const SteadyStateOptions& options) {
  std::set<ComponentId> ids;
  for (const StageRecord& r : trace.records()) {
    if (r.component.member == member) ids.insert(r.component);
  }
  WFE_REQUIRE(!ids.empty(), "no trace records for this member");
  core::MemberSteady steady;
  bool have_sim = false;
  for (const ComponentId& id : ids) {
    if (id.is_simulation()) {
      steady.sim.s = reference_stage(trace, id, StageKind::kSimulate, options);
      steady.sim.w = reference_stage(trace, id, StageKind::kWrite, options);
      have_sim = true;
    } else {
      steady.analyses.push_back(
          {reference_stage(trace, id, StageKind::kRead, options),
           reference_stage(trace, id, StageKind::kAnalyze, options)});
    }
  }
  WFE_REQUIRE(have_sim, "member has no simulation component in the trace");
  WFE_REQUIRE(!steady.analyses.empty(), "member has no analysis components");
  return steady;
}

/// A result as comparable text: the doubles' bits in hex, or the error's
/// message (without the file, line and expression it names).
template <typename F>
std::string outcome(F&& f) {
  try {
    std::string out;
    for (double d : f()) {
      out += strprintf("%016llx ", static_cast<unsigned long long>(
                                       std::bit_cast<std::uint64_t>(d)));
    }
    return out;
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    return "throws: " + what.substr(what.find("failed: ") + 8);
  }
}

std::vector<double> flatten(const core::MemberSteady& m) {
  std::vector<double> out{m.sim.s, m.sim.w};
  for (const core::AnaSteady& a : m.analyses) {
    out.push_back(a.r);
    out.push_back(a.a);
  }
  return out;
}

/// Out-of-order steps, several records in one step whose sum depends on
/// its order (two 2^-53 slivers before a ~1 s record: summed in trace
/// order they survive, summed the other way round they round away), and
/// sparse analysis ids {0, 2}. Member 1 records no analysis at all.
Trace hand_trace() {
  std::vector<StageRecord> records;
  const double sliver = 0x1p-53;
  const std::uint64_t steps[] = {3, 0, 2, 1, 5, 4, 6};
  for (std::size_t i = 0; i < std::size(steps); ++i) {
    const std::uint64_t step = steps[i];
    const double t = 0x1p-20 * static_cast<double>(i + 1);
    const double big = 1.0 + 0x1p-52 * static_cast<double>(step);
    for (const ComponentId id :
         {ComponentId{0, -1}, ComponentId{0, 0}, ComponentId{0, 2}}) {
      const bool sim = id.is_simulation();
      const StageKind first = sim ? StageKind::kSimulate : StageKind::kRead;
      const StageKind second = sim ? StageKind::kWrite : StageKind::kAnalyze;
      records.push_back({id, step, first, t, t + sliver, {}});
      records.push_back({id, step, first, t + 0x1p-30, t + 0x1p-30 + sliver,
                         {}});
      records.push_back({id, step, first, 10.0 + t, 10.0 + t + big, {}});
      records.push_back({id, step, second, 20.0 + t, 20.0 + t + big, {}});
      records.push_back({id, step,
                         sim ? StageKind::kSimIdle : StageKind::kAnaIdle,
                         30.0 + t, 31.0 + t, {}});
    }
    records.push_back({{1, -1}, step, StageKind::kSimulate, t, t + big, {}});
    records.push_back({{1, -1}, step, StageKind::kWrite, t, t + 0.5, {}});
  }
  return Trace(std::move(records));
}

std::vector<Trace> differential_traces() {
  std::vector<Trace> traces{hand_trace()};
  std::vector<wl::NamedConfig> configs = wl::paper_table2();
  for (wl::NamedConfig& c : wl::paper_table4()) {
    const bool seen = std::any_of(configs.begin(), configs.end(),
                                  [&](const auto& x) { return x.name == c.name; });
    if (!seen) configs.push_back(std::move(c));
  }
  EXPECT_EQ(configs.size(), 15u);
  rt::SimulatedOptions faulted;
  faulted.faults.node_mtbf_s = 500.0;
  faulted.faults.node_down.push_back({1, 100.0});
  faulted.recovery.kind = res::RecoveryKind::kCheckpointRestart;
  faulted.recovery.chunk_replication = 2;
  const rt::SimulatedExecutor plain(wl::cori_like_platform());
  const rt::SimulatedExecutor faulty(wl::cori_like_platform(), faulted);
  for (const wl::NamedConfig& c : configs) {
    traces.push_back(plain.run(c.spec).trace);
    traces.push_back(faulty.run(c.spec).trace);
  }
  return traces;
}

TEST(SteadyState, OneWalkEqualsPerStepMapReference) {
  const StageKind kinds[] = {StageKind::kSimulate, StageKind::kSimIdle,
                             StageKind::kWrite,    StageKind::kRead,
                             StageKind::kAnalyze,  StageKind::kAnaIdle,
                             StageKind::kFault,    StageKind::kCheckpoint};
  std::size_t compared = 0, thrown = 0;
  for (const Trace& trace : differential_traces()) {
    std::vector<ComponentId> ids = trace.components();
    ids.push_back({99, 0});  // absent
    std::vector<std::uint32_t> members = trace.members();
    members.push_back(99);  // absent
    for (const bool use_mean : {false, true}) {
      for (const double fraction : {0.0, 0.2, 0.5}) {
        for (const std::uint64_t min_warmup : {0u, 1u, 5u}) {
          const SteadyStateOptions opt{fraction, min_warmup, use_mean};
          for (const std::uint32_t m : members) {
            const std::string want = outcome(
                [&] { return flatten(reference_member(trace, m, opt)); });
            EXPECT_EQ(outcome([&] {
                        return flatten(member_steady_state(trace, m, opt));
                      }),
                      want)
                << "member " << m;
            ++compared;
            if (want.rfind("throws", 0) == 0) ++thrown;
          }
          for (const ComponentId& id : ids) {
            for (const StageKind kind : kinds) {
              EXPECT_EQ(outcome([&] {
                          return std::vector<double>{
                              steady_stage_duration(trace, id, kind, opt)};
                        }),
                        outcome([&] {
                          return std::vector<double>{
                              reference_stage(trace, id, kind, opt)};
                        }))
                  << id.str();
            }
          }
        }
      }
    }

    // Table 1's ensemble makespan is the largest member makespan.
    double largest = 0.0;
    bool all_complete = true;
    for (const std::uint32_t m : trace.members()) {
      try {
        largest = std::max(largest, member_makespan(trace, m));
      } catch (const InvalidArgument&) {
        all_complete = false;
      }
    }
    if (all_complete) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ensemble_makespan(trace)),
                std::bit_cast<std::uint64_t>(largest));
    } else {
      EXPECT_THROW((void)ensemble_makespan(trace), InvalidArgument);
    }
  }
  EXPECT_GT(compared, 0u);
  EXPECT_GT(thrown, 0u);

  // Member 1 of the hand-made trace records no analysis: member_steady_state
  // throws as the reference does (above), and so do both makespans.
  const Trace hand = hand_trace();
  EXPECT_THROW((void)member_makespan(hand, 1), InvalidArgument);
  EXPECT_THROW((void)ensemble_makespan(hand), InvalidArgument);
}

}  // namespace
}  // namespace wfe::met
