// The trace -> model bridge (assess).
#include "runtime/bridge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/efficiency.hpp"
#include "core/insitu.hpp"
#include "core/objective.hpp"
#include "runtime/native_executor.hpp"
#include "runtime/simulated_executor.hpp"
#include "support/error.hpp"
#include "support/str.hpp"
#include "workload/paper_configs.hpp"
#include "workload/presets.hpp"

namespace wfe::rt {
namespace {

TEST(Assess, RejectsEmptyTrace) {
  const auto cfg = wl::paper_config("Cc");
  ExecutionResult empty;
  EXPECT_THROW((void)assess(cfg.spec, empty), InvalidArgument);
}

TEST(Assess, RejectsMemberCountMismatch) {
  const auto one = wl::paper_config("Cc");    // 1 member
  const auto two = wl::paper_config("C1.5");  // 2 members
  SimulatedExecutor exec(wl::cori_like_platform());
  const ExecutionResult result = exec.run(one.spec);
  EXPECT_THROW((void)assess(two.spec, result), InvalidArgument);
}

TEST(Assess, MemberFieldsAreConsistent) {
  const auto cfg = wl::paper_config("C1.5");
  SimulatedExecutor exec(wl::cori_like_platform());
  const ExecutionResult result = exec.run(cfg.spec);
  const Assessment a = assess(cfg.spec, result);

  ASSERT_EQ(a.members.size(), 2u);
  for (const auto& m : a.members) {
    EXPECT_DOUBLE_EQ(m.efficiency, core::computational_efficiency(m.steady));
    EXPECT_DOUBLE_EQ(m.sigma, core::non_overlapped_segment(m.steady));
    EXPECT_DOUBLE_EQ(m.makespan_model,
                     static_cast<double>(result.n_steps) * m.sigma);
  }
  EXPECT_EQ(a.total_nodes, 2);
  EXPECT_GE(a.ensemble_makespan_measured, a.members[0].makespan_measured);
}

TEST(Assess, IndicatorsComeFromTheModel) {
  const auto cfg = wl::paper_config("Cc");
  SimulatedExecutor exec(wl::cori_like_platform());
  const Assessment a = assess(cfg.spec, exec.run(cfg.spec));
  const auto p = a.member_indicators(core::IndicatorKind::kU);
  ASSERT_EQ(p.size(), 1u);
  // c = 24 cores, fully co-located.
  EXPECT_DOUBLE_EQ(p[0], a.members[0].efficiency / 24.0);
  EXPECT_DOUBLE_EQ(a.objective(core::IndicatorKind::kU), p[0]);
}

TEST(Assess, UsesGlobalNodeCountForM) {
  const auto cfg = wl::paper_config("C1.1");  // M = 3
  SimulatedExecutor exec(wl::cori_like_platform());
  const Assessment a = assess(cfg.spec, exec.run(cfg.spec));
  EXPECT_EQ(a.total_nodes, 3);
  const auto up = a.member_indicators(core::IndicatorKind::kUP);
  const auto u = a.member_indicators(core::IndicatorKind::kU);
  EXPECT_DOUBLE_EQ(up[0], u[0] / 3.0);
}


// -- the one-walk assessment against the per-member assessment it replaced --

using core::IndicatorKind;
using core::StageKind;

constexpr IndicatorKind kKinds[] = {IndicatorKind::kU, IndicatorKind::kUA,
                                    IndicatorKind::kUP, IndicatorKind::kUAP,
                                    IndicatorKind::kUPA};

/// Reference steady value: one full scan per (component, stage kind) into
/// a per-step map, each step's durations summed by `+=` in trace order.
double reference_stage(const met::Trace& trace, const met::ComponentId& id,
                       StageKind kind, const met::SteadyStateOptions& options) {
  WFE_REQUIRE(options.warmup_fraction >= 0.0 && options.warmup_fraction < 1.0,
              "warm-up fraction must be in [0, 1)");
  std::map<std::uint64_t, double> by_step;
  for (const met::StageRecord& r : trace.records()) {
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
  std::vector<double> window(durations.begin() +
                                 static_cast<std::ptrdiff_t>(warmup),
                             durations.end());
  if (options.use_mean) {
    double sum = 0.0;
    for (const double d : window) sum += d;
    return sum / static_cast<double>(window.size());
  }
  // The median as a full sort finds it: the middle value, or the two
  // middle values weighted 1/2 each.
  std::sort(window.begin(), window.end());
  const std::size_t mid = (window.size() - 1) / 2;
  if (window.size() % 2 == 1) return window[mid];
  return window[mid] * 0.5 + window[mid + 1] * 0.5;
}

core::MemberSteady reference_steady(const met::Trace& trace,
                                    std::uint32_t member,
                                    const met::SteadyStateOptions& options) {
  std::set<met::ComponentId> ids;
  for (const met::StageRecord& r : trace.records()) {
    if (r.component.member == member) ids.insert(r.component);
  }
  WFE_REQUIRE(!ids.empty(), "no trace records for this member");
  core::MemberSteady steady;
  bool have_sim = false;
  for (const met::ComponentId& id : ids) {
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

double reference_makespan(const met::Trace& trace, std::uint32_t member) {
  bool have_sim = false, have_ana = false;
  double sim_start = 0.0, ana_end = 0.0;
  for (const met::StageRecord& r : trace.records()) {
    if (r.component.member != member) continue;
    if (r.component.is_simulation()) {
      if (!have_sim || r.start < sim_start) sim_start = r.start;
      have_sim = true;
    } else {
      if (!have_ana || r.end > ana_end) ana_end = r.end;
      have_ana = true;
    }
  }
  WFE_REQUIRE(have_sim, "member has no simulation records");
  WFE_REQUIRE(have_ana, "member has no analysis records");
  return ana_end - sim_start;
}

/// Eqs. (5)-(8) written out over the spec's placement: P^U = E / c,
/// CP = |s| / K * sum_j 1 / |s U a_j|, then P^{U,A} = P^U CP and the
/// provisioning chains divide by M.
double reference_indicator(double e, const MemberSpec& m, int ensemble_nodes,
                           IndicatorKind kind) {
  int cores = m.sim.cores;
  double sum = 0.0;
  for (const AnalysisSpec& a : m.analyses) {
    cores += a.cores;
    std::set<int> both = m.sim.nodes;
    both.insert(a.nodes.begin(), a.nodes.end());
    sum += 1.0 / static_cast<double>(both.size());
  }
  const double u = e / static_cast<double>(cores);
  const double cp = static_cast<double>(m.sim.nodes.size()) /
                    static_cast<double>(m.analyses.size()) * sum;
  const auto nodes = static_cast<double>(ensemble_nodes);
  switch (kind) {
    case IndicatorKind::kU:
      return u;
    case IndicatorKind::kUA:
      return u * cp;
    case IndicatorKind::kUP:
      return u / nodes;
    case IndicatorKind::kUAP:
    case IndicatorKind::kUPA:
      return u * cp / nodes;
  }
  return 0.0;
}

/// An assessment as comparable text: every double's bits in hex.
std::string describe(const std::vector<MemberAssessment>& members,
                     double ensemble_makespan, int total_nodes,
                     const std::vector<double>& objectives) {
  const auto hex = [](double d) {
    return strprintf("%016llx ", static_cast<unsigned long long>(
                                     std::bit_cast<std::uint64_t>(d)));
  };
  std::string out = strprintf("M=%d span=", total_nodes) +
                    hex(ensemble_makespan) + "F=";
  for (const double f : objectives) out += hex(f);
  for (const MemberAssessment& m : members) {
    out += "| " + hex(m.steady.sim.s) + hex(m.steady.sim.w);
    for (const core::AnaSteady& a : m.steady.analyses) {
      out += hex(a.r) + hex(a.a);
    }
    out += hex(m.efficiency) + hex(m.sigma) + hex(m.makespan_measured) +
           hex(m.makespan_model);
  }
  return out;
}

/// Today's per-member assess before the one walk: N steady-state scans, N
/// makespan scans, the model built member by member.
std::string reference_assess(const EnsembleSpec& spec,
                             const ExecutionResult& result,
                             const met::SteadyStateOptions& options) {
  const met::Trace& trace = result.trace;
  WFE_REQUIRE(!trace.empty(), "cannot assess an empty trace");
  std::set<std::uint32_t> ids;
  for (const met::StageRecord& r : trace.records()) {
    ids.insert(r.component.member);
  }
  WFE_REQUIRE(ids.size() == spec.members.size(),
              "trace and spec disagree on the number of members");
  std::vector<MemberAssessment> members;
  double span = 0.0;
  for (std::size_t i = 0; i < spec.members.size(); ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    MemberAssessment a;
    a.steady = reference_steady(trace, id, options);
    a.sigma = core::non_overlapped_segment(a.steady);
    a.efficiency = core::computational_efficiency(a.steady);
    a.makespan_measured = reference_makespan(trace, id);
    a.makespan_model = core::member_makespan_model(a.steady, result.n_steps);
    span = std::max(span, a.makespan_measured);
    members.push_back(std::move(a));
  }
  std::set<int> nodes;
  for (std::size_t i = 0; i < spec.members.size(); ++i) {
    const MemberSpec& m = spec.members[i];
    if (members[i].steady.analyses.size() != m.analyses.size()) {
      throw SpecError(
          "steady state and placement disagree on the number of couplings");
    }
    nodes.insert(m.sim.nodes.begin(), m.sim.nodes.end());
    for (const AnalysisSpec& a : m.analyses) {
      nodes.insert(a.nodes.begin(), a.nodes.end());
    }
  }
  const int total = static_cast<int>(nodes.size());
  std::vector<double> objectives;
  for (const IndicatorKind kind : kKinds) {
    std::vector<double> p;
    for (std::size_t i = 0; i < spec.members.size(); ++i) {
      p.push_back(reference_indicator(members[i].efficiency, spec.members[i],
                                      total, kind));
    }
    objectives.push_back(core::objective(p));
  }
  return describe(members, span, total, objectives);
}

std::string assess_text(const EnsembleSpec& spec,
                        const ExecutionResult& result,
                        const met::SteadyStateOptions& options) {
  const Assessment a = assess(spec, result, options);
  std::vector<double> objectives;
  for (const IndicatorKind kind : kKinds) {
    objectives.push_back(a.objective(kind));
  }
  return describe(a.members, a.ensemble_makespan_measured, a.total_nodes,
                  objectives);
}

/// The text of `f()`, or the message of the wfe::Error it throws (without
/// the file, line and expression a failed requirement names).
template <typename F>
std::string outcome(F&& f) {
  try {
    return f();
  } catch (const Error& e) {
    const std::string what = e.what();
    const std::size_t at = what.find("failed: ");
    return "throws: " +
           (at == std::string::npos ? what : what.substr(at + 8));
  }
}

struct AssessedRun {
  std::string name;
  EnsembleSpec spec;
  ExecutionResult result;
};

/// The 15 paper configurations replayed plain and faulted (node MTBF
/// 500 s, checkpoint-restart, node 1 down at 100 s, replication 2), and a
/// native run.
std::vector<AssessedRun> assessed_runs() {
  std::vector<wl::NamedConfig> configs = wl::paper_table2();
  for (wl::NamedConfig& c : wl::paper_table4()) {
    const bool seen = std::any_of(configs.begin(), configs.end(),
                                  [&](const auto& x) { return x.name == c.name; });
    if (!seen) configs.push_back(std::move(c));
  }
  EXPECT_EQ(configs.size(), 15u);
  SimulatedOptions faulted;
  faulted.faults.node_mtbf_s = 500.0;
  faulted.faults.node_down.push_back({1, 100.0});
  faulted.recovery.kind = res::RecoveryKind::kCheckpointRestart;
  faulted.recovery.chunk_replication = 2;
  const SimulatedExecutor plain(wl::cori_like_platform());
  const SimulatedExecutor faulty(wl::cori_like_platform(), faulted);
  std::vector<AssessedRun> runs;
  for (const wl::NamedConfig& c : configs) {
    runs.push_back({c.name, c.spec, plain.run(c.spec)});
    runs.push_back({c.name + " faulted", c.spec, faulty.run(c.spec)});
  }
  const EnsembleSpec native = wl::small_native_ensemble(2, 2, 4);
  runs.push_back({"native", native, NativeExecutor().run(native)});
  return runs;
}

TEST(Assess, OneWalkEqualsPerMemberReference) {
  const met::SteadyStateOptions variants[] = {
      {},               {0.2, 1, true}, {0.0, 0, false}, {0.0, 0, true},
      {0.5, 5, false},  {0.5, 5, true}, {1.0, 1, false},  // rejected
  };
  std::size_t assessed = 0, thrown = 0;
  for (const AssessedRun& run : assessed_runs()) {
    for (const met::SteadyStateOptions& opt : variants) {
      const std::string want =
          outcome([&] { return reference_assess(run.spec, run.result, opt); });
      EXPECT_EQ(outcome([&] { return assess_text(run.spec, run.result, opt); }),
                want)
          << run.name << " warm-up " << opt.warmup_fraction << "/"
          << opt.min_warmup_steps << (opt.use_mean ? " mean" : " median");
      ++(want.rfind("throws", 0) == 0 ? thrown : assessed);
    }
  }
  // Most runs assess; the rejected warm-up fraction throws for every run.
  EXPECT_GT(assessed, 150u);
  EXPECT_GE(thrown, 31u);
}

/// A replay of C1.5 (two members, one analysis each) whose records are
/// rewritten by `edit`.
ExecutionResult edited_c15(void (*edit)(met::StageRecord&)) {
  const auto cfg = wl::paper_config("C1.5");
  ExecutionResult result = SimulatedExecutor(wl::cori_like_platform()).run(cfg.spec);
  std::vector<met::StageRecord> records(result.trace.records().begin(),
                                        result.trace.records().end());
  for (met::StageRecord& r : records) edit(r);
  result.trace = met::Trace(std::move(records));
  return result;
}

TEST(Assess, RejectsMalformedTracesWithTheReferenceMessages) {
  const auto cfg = wl::paper_config("C1.5");
  ASSERT_EQ(cfg.spec.members.size(), 2u);
  const met::SteadyStateOptions opt;
  const auto both = [&](const ExecutionResult& result) {
    const std::string got =
        outcome([&] { return assess_text(cfg.spec, result, opt); });
    EXPECT_EQ(got, outcome([&] {
                return reference_assess(cfg.spec, result, opt);
              }));
    return got;
  };

  EXPECT_EQ(both(ExecutionResult{}), "throws: cannot assess an empty trace");
  // Member 1 renamed 2: the spec's member 1 recorded nothing.
  EXPECT_EQ(both(edited_c15([](met::StageRecord& r) {
              if (r.component.member == 1) r.component.member = 2;
            })),
            "throws: no trace records for this member");
  // A third member the spec lacks.
  ExecutionResult three = edited_c15([](met::StageRecord&) {});
  {
    std::vector<met::StageRecord> records(three.trace.records().begin(),
                                          three.trace.records().end());
    met::StageRecord extra = records.front();
    extra.component.member = 7;
    records.push_back(extra);
    three.trace = met::Trace(std::move(records));
  }
  EXPECT_EQ(both(three),
            "throws: trace and spec disagree on the number of members");
  // Member 0's analysis dropped: it has no analysis component.
  EXPECT_EQ(both(edited_c15([](met::StageRecord& r) {
              if (r.component == met::ComponentId{0, 0}) r.component.member = 1;
            })),
            "throws: member has no analysis components");
}

TEST(Assess, RejectsAnAnalysisTheSpecLacks) {
  // Member 0's analysis recorded as analysis 3. The per-member reference
  // paired it with the spec's analysis 0; the one walk rejects it.
  const auto cfg = wl::paper_config("C1.5");
  const ExecutionResult result = edited_c15([](met::StageRecord& r) {
    if (r.component == met::ComponentId{0, 0}) r.component.analysis = 3;
  });
  const met::SteadyStateOptions opt;
  EXPECT_EQ(outcome([&] { return reference_assess(cfg.spec, result, opt); })
                .rfind("throws", 0),
            std::string::npos);
  EXPECT_EQ(outcome([&] { return assess_text(cfg.spec, result, opt); }),
            "throws: trace component ana0.3 is not in the spec");
  // A negative id other than the simulation's -1 is no component either.
  const ExecutionResult negative = edited_c15([](met::StageRecord& r) {
    if (r.component == met::ComponentId{1, -1}) r.component.analysis = -2;
  });
  EXPECT_EQ(outcome([&] { return assess_text(cfg.spec, negative, opt); }),
            "throws: trace component sim1 is not in the spec");
}

}  // namespace
}  // namespace wfe::rt
