// Scheduler library tests: shapes, placement helper, factory.
#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "workload/presets.hpp"

namespace wfe::sched {
namespace {

TEST(EnsembleShape, PaperLikeShape) {
  const auto shape = EnsembleShape::paper_like(2, 2, 10);
  EXPECT_EQ(shape.members.size(), 2u);
  EXPECT_EQ(shape.members[0].analyses.size(), 2u);
  EXPECT_EQ(shape.n_steps, 10u);
  EXPECT_EQ(shape.members[0].sim.cores, 16);
  EXPECT_EQ(shape.members[0].analyses[0].cores, 8);
}

TEST(EnsembleShape, RejectsDegenerate) {
  EXPECT_THROW((void)EnsembleShape::paper_like(0, 1), InvalidArgument);
  EXPECT_THROW((void)EnsembleShape::paper_like(1, 0), InvalidArgument);
}

TEST(Place, BuildsSpecInSlotOrder) {
  const auto shape = EnsembleShape::paper_like(2, 1);
  const rt::EnsembleSpec spec = place(shape, {0, 0, 1, 2});
  ASSERT_EQ(spec.members.size(), 2u);
  EXPECT_EQ(spec.members[0].sim.nodes, (std::set<int>{0}));
  EXPECT_EQ(spec.members[0].analyses[0].nodes, (std::set<int>{0}));
  EXPECT_EQ(spec.members[1].sim.nodes, (std::set<int>{1}));
  EXPECT_EQ(spec.members[1].analyses[0].nodes, (std::set<int>{2}));
}

TEST(Place, RejectsWrongSlotCount) {
  const auto shape = EnsembleShape::paper_like(1, 1);
  EXPECT_THROW((void)place(shape, {0}), InvalidArgument);
  EXPECT_THROW((void)place(shape, {0, 1, 2}), InvalidArgument);
}

TEST(Factory, KnowsAllSchedulers) {
  for (const char* name : {"greedy-colocate", "greedy-refine", "exhaustive",
                           "bai-search", "round-robin", "random"}) {
    const auto s = make_scheduler(name);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->name(), name);
  }
  EXPECT_THROW((void)make_scheduler("genetic"), InvalidArgument);
}

class AllSchedulers : public ::testing::TestWithParam<std::string> {};

TEST_P(AllSchedulers, ProducesValidatedPaperShapePlacement) {
  const auto platform = wl::cori_like_platform();
  const auto shape = EnsembleShape::paper_like(2, 1);
  const auto scheduler = make_scheduler(GetParam());
  const Schedule schedule = scheduler->plan(shape, platform, {3});
  EXPECT_NO_THROW(schedule.spec.validate(platform));
  EXPECT_EQ(schedule.spec.members.size(), 2u);
  EXPECT_EQ(schedule.scheduler, GetParam());
  EXPECT_EQ(schedule.spec.n_steps, shape.n_steps);
}

TEST_P(AllSchedulers, ThrowsWhenNothingFits) {
  auto platform = wl::cori_like_platform();
  platform.node.cores = 8;  // the 16-core simulation can never fit
  const auto shape = EnsembleShape::paper_like(1, 1);
  const auto scheduler = make_scheduler(GetParam());
  EXPECT_THROW((void)scheduler->plan(shape, platform, {2}), SpecError);
}

TEST_P(AllSchedulers, RespectsNodeBudget) {
  const auto platform = wl::cori_like_platform(8);
  const auto shape = EnsembleShape::paper_like(2, 2);
  const auto scheduler = make_scheduler(GetParam());
  const Schedule schedule = scheduler->plan(shape, platform, {3});
  EXPECT_LE(schedule.spec.total_nodes(), 3);
  for (const auto& m : schedule.spec.members) {
    for (int n : m.sim.nodes) EXPECT_LT(n, 3);
    for (const auto& a : m.analyses) {
      for (int n : a.nodes) EXPECT_LT(n, 3);
    }
  }
}

TEST_P(AllSchedulers, RejectsABudgetOutsideThePlatform) {
  // One budget check for every scheduler: a pool of 1..node_count nodes.
  // A random draw below(0) once returned node 0 for an empty pool.
  const auto platform = wl::cori_like_platform(8);
  const auto shape = EnsembleShape::paper_like(1, 1);
  const auto scheduler = make_scheduler(GetParam());
  for (const int pool : {0, -1, 9}) {
    EXPECT_THROW((void)scheduler->plan(shape, platform, {pool}),
                 InvalidArgument)
        << "pool=" << pool;
  }
  EXPECT_THROW((void)scheduler->plan(EnsembleShape{}, platform, {2}),
               InvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(Everyone, AllSchedulers,
                         ::testing::Values("greedy-colocate", "greedy-refine",
                                           "exhaustive", "bai-search",
                                           "round-robin", "random"));

}  // namespace
}  // namespace wfe::sched
