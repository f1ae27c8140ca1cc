// Adaptive best-arm scheduler (bai-search): determinism contracts, budget
// discipline, and the fresh-replay saving that justifies its existence.
#include "sched/bai.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/spec_io.hpp"
#include "sched/eval_cache.hpp"
#include "sched/evaluator.hpp"
#include "sched/exhaustive.hpp"
#include "sched/scheduler.hpp"
#include "support/error.hpp"
#include "workload/presets.hpp"

namespace wfe::sched {
namespace {

plat::PlatformSpec platform() { return wl::cori_like_platform(); }

PlanOptions stochastic_options(int threads = 1) {
  PlanOptions options;
  options.threads = threads;
  options.jitter_cv = 0.1;
  options.probe_samples = 8;
  return options;
}

// The hard gate from the design: on deterministic probe scenarios
// (jitter_cv == 0) bai-search must return a placement BIT-IDENTICAL to
// exhaustive enumeration — the adaptive search degenerates to one probe
// per arm with exhaustive's exact memo keys.
TEST(BaiSearch, DeterministicPathBitIdenticalToExhaustive) {
  struct Case {
    int members, analyses, pool;
  };
  for (const Case& c :
       std::vector<Case>{{2, 1, 3}, {2, 2, 3}, {3, 1, 4}, {2, 2, 4}}) {
    const auto shape = EnsembleShape::paper_like(c.members, c.analyses);
    const Schedule bai =
        BaiSearch().plan(shape, platform(), {c.pool});
    const Schedule exhaustive =
        Exhaustive().plan(shape, platform(), {c.pool});
    EXPECT_EQ(rt::spec_to_text(bai.spec), rt::spec_to_text(exhaustive.spec))
        << c.members << "x" << c.analyses << "/pool" << c.pool;
    EXPECT_EQ(bai.scheduler, "bai-search");
    EXPECT_EQ(bai.samples, bai.evaluations + bai.cache_hits);
  }
}

// probe_samples > 1 with jitter off is still the deterministic path: every
// draw would be identical, so the search must not multiply the cost.
TEST(BaiSearch, DeterministicProbesIgnoreProbeSamples) {
  const auto shape = EnsembleShape::paper_like(2, 1);
  PlanOptions options;
  options.probe_samples = 8;
  const Schedule a = BaiSearch().plan(shape, platform(), {3}, options);
  const Schedule b = BaiSearch().plan(shape, platform(), {3});
  EXPECT_EQ(rt::spec_to_text(a.spec), rt::spec_to_text(b.spec));
  EXPECT_EQ(a.evaluations, b.evaluations);
}

// Deterministic probes share memo keys with exhaustive, so a shared
// EvalCache warmed by one scheduler makes the other plan for free.
TEST(BaiSearch, SharesCacheEntriesWithExhaustive) {
  const auto shape = EnsembleShape::paper_like(2, 1);
  EvalCache cache;
  PlanOptions options;
  options.shared_cache = &cache;
  const Schedule warmup = Exhaustive().plan(shape, platform(), {3}, options);
  EXPECT_GT(warmup.evaluations, 0u);
  const Schedule bai = BaiSearch().plan(shape, platform(), {3}, options);
  EXPECT_EQ(bai.evaluations, 0u);
  EXPECT_GT(bai.shared_hits, 0u);
  EXPECT_EQ(rt::spec_to_text(bai.spec), rt::spec_to_text(warmup.spec));
}

// Stochastic probes: the winning placement (and every cost counter) must
// be byte-identical across reruns and planner thread counts — the LUCB
// trajectory is driven by seeded draws, not scheduling races.
TEST(BaiSearch, StochasticWinnerByteStableAcrossRerunsAndThreads) {
  const auto shape = EnsembleShape::paper_like(2, 1);
  const Schedule reference =
      BaiSearch().plan(shape, platform(), {3}, stochastic_options(1));
  ASSERT_GT(reference.samples, 0u);
  for (const int threads : {1, 2, 8}) {
    for (int rep = 0; rep < 2; ++rep) {
      const Schedule schedule = BaiSearch().plan(
          shape, platform(), {3}, stochastic_options(threads));
      EXPECT_EQ(rt::spec_to_text(schedule.spec),
                rt::spec_to_text(reference.spec))
          << "threads=" << threads << " rep=" << rep;
      EXPECT_EQ(schedule.samples, reference.samples)
          << "threads=" << threads;
      EXPECT_EQ(schedule.evaluations, reference.evaluations)
          << "threads=" << threads;
    }
  }
}

TEST(BaiSearch, RespectsMaxSamplesBudget) {
  const auto shape = EnsembleShape::paper_like(2, 1);
  PlanOptions options = stochastic_options();
  options.max_samples = 20;
  const Schedule schedule = BaiSearch().plan(shape, platform(), {3}, options);
  EXPECT_LE(schedule.samples, 20u);
  EXPECT_NO_THROW(schedule.spec.validate(platform()));

  // A budget below one-sample-per-arm is floored, never starved: the
  // search still probes every arm once and returns a validated placement.
  options.max_samples = 1;
  const Schedule floored =
      BaiSearch().plan(shape, platform(), {3}, options);
  EXPECT_GT(floored.samples, 1u);
  EXPECT_NO_THROW(floored.spec.validate(platform()));
}

// The headline property: on a stochastic scenario the adaptive search
// reaches the fixed-budget winner's quality with FEWER fresh replays than
// a fixed-budget baseline spends — at least 30 % fewer on every shape,
// with a winner at least as good on the deterministic full-depth score.
TEST(BaiSearch, SavesFreshReplaysVsFixedBudgetAtEqualQuality) {
  struct Case {
    int members, analyses, pool;
    const char* baseline;
  };
  for (const Case& c : std::vector<Case>{{2, 1, 3, "greedy-refine"},
                                         {2, 1, 3, "exhaustive"},
                                         {3, 1, 3, "exhaustive"},
                                         {2, 2, 4, "exhaustive"}}) {
    const auto shape = EnsembleShape::paper_like(c.members, c.analyses);
    const Schedule bai =
        BaiSearch().plan(shape, platform(), {c.pool}, stochastic_options());
    const Schedule fixed = make_scheduler(c.baseline)->plan(
        shape, platform(), {c.pool}, stochastic_options());
    const std::string row = std::to_string(c.members) + "x" +
                            std::to_string(c.analyses) + "/pool" +
                            std::to_string(c.pool) + " vs " + c.baseline;
    EXPECT_LE(10 * bai.evaluations, 7 * fixed.evaluations) << row;
    EXPECT_LT(bai.samples, fixed.samples) << row;

    Evaluator evaluator(platform());
    EXPECT_GE(evaluator.score(bai.spec).objective,
              evaluator.score(fixed.spec).objective)
        << row;
  }
}

TEST(BaiSearch, CapsComponentCount) {
  // Over the generator's cap on both probe kinds: 14 components on 8 nodes.
  for (const PlanOptions& options : {PlanOptions{}, stochastic_options()}) {
    EXPECT_THROW((void)BaiSearch().plan(EnsembleShape::paper_like(7, 1),
                                        platform(), {8}, options),
                 SpecError);
  }
}

TEST(BaiSearch, ThrowsWhenNothingFitsStochastic) {
  auto small = platform();
  small.node.cores = 8;  // the 16-core simulation can never fit
  EXPECT_THROW((void)BaiSearch().plan(EnsembleShape::paper_like(1, 1), small,
                                      {2}, stochastic_options()),
               SpecError);
}

TEST(BaiSearch, RejectsZeroProbeSamples) {
  PlanOptions options;
  options.probe_samples = 0;
  EXPECT_THROW((void)BaiSearch().plan(EnsembleShape::paper_like(2, 1),
                                      platform(), {3}, options),
               InvalidArgument);
}

}  // namespace
}  // namespace wfe::sched
