// End-to-end pipeline tests across executors: the same spec flows through
// simulated and native execution into identical downstream machinery, and
// cross-cutting invariants hold for both.
#include <gtest/gtest.h>

#include <set>

#include "core/insitu.hpp"
#include "metrics/traditional.hpp"
#include "runtime/bridge.hpp"
#include "runtime/native_executor.hpp"
#include "runtime/simulated_executor.hpp"
#include "sched/exhaustive.hpp"
#include "workload/paper_configs.hpp"
#include "workload/presets.hpp"

namespace wfe {
namespace {

TEST(Pipeline, SameSpecRunsOnBothExecutors) {
  // Native execution ignores placement but accepts the same spec type.
  rt::EnsembleSpec spec = wl::small_native_ensemble(2, 1, 3);
  const auto native = rt::NativeExecutor().run(spec);

  // For the simulated run, shrink the modelled workload to match scale.
  rt::SimulatedExecutor sim_exec(wl::cori_like_platform());
  const auto simulated = sim_exec.run(spec);

  // Both produce assessable traces with the same component structure.
  EXPECT_EQ(native.trace.components().size(),
            simulated.trace.components().size());
  const auto a_native = rt::assess(spec, native);
  const auto a_sim = rt::assess(spec, simulated);
  EXPECT_EQ(a_native.members.size(), a_sim.members.size());
}

TEST(Pipeline, MeasuredMakespanBoundsModelMakespan) {
  // The measured member makespan includes warm-up transients, so it is at
  // least (1 - tolerance) of the steady-state model value.
  rt::SimulatedExecutor exec(wl::cori_like_platform());
  for (const auto& c : wl::paper_set1()) {
    const auto a = rt::assess(c.spec, exec.run(c.spec));
    for (const auto& m : a.members) {
      EXPECT_GT(m.makespan_measured, 0.9 * m.makespan_model) << c.name;
      EXPECT_LT(m.makespan_measured, 1.1 * m.makespan_model) << c.name;
    }
  }
}

TEST(Pipeline, EfficiencyAlwaysInUnitInterval) {
  rt::SimulatedExecutor exec(wl::cori_like_platform());
  for (const auto& c : wl::paper_table4()) {
    const auto a = rt::assess(c.spec, exec.run(c.spec));
    for (const auto& m : a.members) {
      EXPECT_GT(m.efficiency, 0.0) << c.name;
      EXPECT_LE(m.efficiency, 1.0 + 1e-9) << c.name;
    }
  }
}

TEST(Pipeline, EnsembleMakespanIsMaxMemberEverywhere) {
  rt::SimulatedExecutor exec(wl::cori_like_platform());
  for (const auto& c : wl::paper_set1()) {
    const auto result = exec.run(c.spec);
    double max_member = 0.0;
    for (std::uint32_t m : result.trace.members()) {
      max_member = std::max(max_member, met::member_makespan(result.trace, m));
    }
    EXPECT_DOUBLE_EQ(met::ensemble_makespan(result.trace), max_member)
        << c.name;
  }
}

TEST(Pipeline, PlacementSearchFindsCoLocationOptimal) {
  // The paper's future-work use case: score every placement of the
  // 2-member ensemble on 3 nodes by F(P^{U,A,P}); the winner must be a
  // fully co-located assignment (CP = 1 for every member), which is
  // exactly C1.5's shape.
  const auto platform = wl::cori_like_platform();
  const auto shape = sched::EnsembleShape::paper_like(2, 1);
  const sched::Schedule best = sched::Exhaustive().plan(shape, platform, {3});
  EXPECT_GT(best.evaluations, 5u);
  // C1.5's canonical shape, s0a0|s1a1.
  EXPECT_EQ(best.spec.members[0].sim.nodes, (std::set<int>{0}));
  EXPECT_EQ(best.spec.members[0].analyses[0].nodes, (std::set<int>{0}));
  EXPECT_EQ(best.spec.members[1].sim.nodes, (std::set<int>{1}));
  EXPECT_EQ(best.spec.members[1].analyses[0].nodes, (std::set<int>{1}));
}

TEST(Pipeline, StageAccountingCoversTheWholeTimeline) {
  // For every component, the sum of all stage durations equals the span
  // from its first start to its last end (no unaccounted gaps).
  rt::SimulatedExecutor exec(wl::cori_like_platform());
  const auto c = wl::paper_config("C1.5");
  const auto result = exec.run(c.spec);
  for (const auto& id : result.trace.components()) {
    double total = 0.0;
    for (const auto& r : result.trace.for_component(id)) {
      total += r.duration();
    }
    const double span = result.trace.component_end(id) -
                        result.trace.component_start(id);
    EXPECT_NEAR(total, span, 1e-6 * span) << id.str();
  }
}

TEST(Pipeline, NativeAnalysesAgreeAcrossCoupledKernels) {
  // Two identical kernels coupled to the same simulation must produce
  // identical collective-variable series (they read identical chunks).
  rt::EnsembleSpec spec = wl::small_native_ensemble(1, 1, 3);
  spec.members[0].analyses.push_back(spec.members[0].analyses[0]);
  const auto result = rt::NativeExecutor().run(spec);
  ASSERT_EQ(result.analysis_outputs.size(), 2u);
  const auto& s0 = result.analysis_outputs[0].results;
  const auto& s1 = result.analysis_outputs[1].results;
  ASSERT_EQ(s0.size(), s1.size());
  for (std::size_t i = 0; i < s0.size(); ++i) {
    EXPECT_EQ(s0[i].values, s1[i].values);
  }
}

}  // namespace
}  // namespace wfe
