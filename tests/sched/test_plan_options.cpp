// Cross-scheduler PlanOptions contract: every replay-guided scheduler must
// honor the same knobs the same way — the thread count never changes the
// outcome, stochastic probes draw probe_samples seeded samples,
// the risk-aware path composes with all of it, and a shared EvalCache only
// changes what a plan costs, never what it picks.
#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <string>

#include "runtime/spec_io.hpp"
#include "sched/eval_cache.hpp"
#include "workload/presets.hpp"

namespace wfe::sched {
namespace {

plat::PlatformSpec platform() { return wl::cori_like_platform(); }

class ReplayGuidedSchedulers : public ::testing::TestWithParam<std::string> {
 protected:
  static PlanOptions stochastic(int threads = 1) {
    PlanOptions options;
    options.threads = threads;
    options.jitter_cv = 0.1;
    options.probe_samples = 4;
    return options;
  }

  Schedule plan(const PlanOptions& options) const {
    const auto shape = EnsembleShape::paper_like(2, 1);
    return make_scheduler(GetParam())->plan(shape, platform(), {3}, options);
  }
};

TEST_P(ReplayGuidedSchedulers, ThreadCountNeverChangesTheStochasticPlan) {
  const Schedule reference = plan(stochastic(1));
  for (const int threads : {2, 8}) {
    const Schedule schedule = plan(stochastic(threads));
    EXPECT_EQ(rt::spec_to_text(schedule.spec),
              rt::spec_to_text(reference.spec))
        << GetParam() << " threads=" << threads;
    EXPECT_EQ(schedule.evaluations, reference.evaluations)
        << GetParam() << " threads=" << threads;
    EXPECT_EQ(schedule.samples, reference.samples)
        << GetParam() << " threads=" << threads;
  }
}

TEST_P(ReplayGuidedSchedulers, ProbeSamplesMultiplyTheSamplingEffort) {
  PlanOptions one = stochastic();
  one.probe_samples = 1;
  PlanOptions four = stochastic();
  const Schedule cheap = plan(one);
  const Schedule thorough = plan(four);
  EXPECT_GT(thorough.samples, cheap.samples) << GetParam();
}

TEST_P(ReplayGuidedSchedulers, RiskAwareStochasticPlanIsThreadInvariant) {
  PlanOptions options = stochastic(1);
  options.risk_aware = true;
  options.faults = wl::fatal_node_crashes(400.0);
  const Schedule reference = plan(options);
  EXPECT_NO_THROW(reference.spec.validate(platform()));
  options.threads = 8;
  EXPECT_EQ(rt::spec_to_text(plan(options).spec),
            rt::spec_to_text(reference.spec))
      << GetParam();
}

TEST_P(ReplayGuidedSchedulers, SharedCacheChangesCostNotOutcome) {
  const Schedule cold = plan(stochastic());

  EvalCache cache;
  PlanOptions warm_options = stochastic();
  warm_options.shared_cache = &cache;
  const Schedule fill = plan(warm_options);
  EXPECT_EQ(rt::spec_to_text(fill.spec), rt::spec_to_text(cold.spec))
      << GetParam();
  EXPECT_GT(cache.size(), 0u) << GetParam();

  const Schedule warm = plan(warm_options);
  EXPECT_EQ(rt::spec_to_text(warm.spec), rt::spec_to_text(cold.spec))
      << GetParam();
  EXPECT_EQ(warm.evaluations, 0u) << GetParam();
  EXPECT_GT(warm.shared_hits, 0u) << GetParam();
  // Not EQ: an infeasible candidate's draw costs no replay cold (validation
  // fails before simulating) but is served as a shared hit warm, so the
  // warm run can only account for MORE of its probe samples, never fewer.
  EXPECT_GE(warm.samples, fill.samples) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Everyone, ReplayGuidedSchedulers,
                         ::testing::Values("exhaustive", "greedy-refine",
                                           "bai-search"));

}  // namespace
}  // namespace wfe::sched
