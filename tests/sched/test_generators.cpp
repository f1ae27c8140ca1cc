// The placement space: the candidates enumerate_assignments lists and
// CoreDemand lets through. The exhaustive searches, the placement explorer
// and the baselines' feasibility test all read this one space.
#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <vector>

#include "sched/candidates.hpp"
#include "sched/scheduler.hpp"
#include "workload/presets.hpp"

namespace wfe::sched {
namespace {

plat::PlatformSpec platform() { return wl::cori_like_platform(); }

/// The candidates of `shape` on nodes 0..pool-1 that fit `on`.
std::vector<Assignment> fitting(const EnsembleShape& shape, int pool,
                                const plat::PlatformSpec& on = platform()) {
  const CoreDemand demand(shape, on);
  std::vector<Assignment> out;
  for (Assignment& a : enumerate_assignments(slot_count(shape), pool)) {
    if (!demand.oversubscribed(a)) out.push_back(std::move(a));
  }
  return out;
}

TEST(Generators, SingleMemberSingleNode) {
  const EnsembleShape shape = EnsembleShape::paper_like(1, 1);
  const auto all = fitting(shape, 1);
  ASSERT_EQ(all, (std::vector<Assignment>{{0, 0}}));
  EXPECT_EQ(place(shape, all[0]).total_nodes(), 1);
}

TEST(Generators, CanonicalizationCollapsesRelabelings) {
  // Raw: 4 assignments of sim + analysis to 2 nodes; canonical: s0a0, s0a1.
  EXPECT_EQ(fitting(EnsembleShape::paper_like(1, 1), 2),
            (std::vector<Assignment>{{0, 0}, {0, 1}}));
}

TEST(Generators, WithoutCanonicalizationAllAssignmentsAppear) {
  // Nodes that are not interchangeable (each its own class, as under
  // straggler probes) keep every labelling.
  EXPECT_EQ(enumerate_assignments(2, NodeClasses({0, 1})).size(), 4u);
}

TEST(Generators, OrbitCountsOfThePaperShapes) {
  struct Case {
    int members, analyses, pool;
    std::size_t candidates, fit;
  };
  const Case cases[] = {{2, 1, 3, 14, 11},
                        {2, 2, 4, 187, 132},
                        {4, 1, 4, 2795, 606},
                        {3, 2, 5, 18002, 7240},
                        {4, 2, 4, 700075, 5145}};
  for (const Case& c : cases) {
    const EnsembleShape shape =
        EnsembleShape::paper_like(c.members, c.analyses);
    EXPECT_EQ(enumerate_assignments(slot_count(shape), c.pool).size(),
              c.candidates)
        << c.members << "x" << c.analyses << "/" << c.pool;
    EXPECT_EQ(fitting(shape, c.pool).size(), c.fit)
        << c.members << "x" << c.analyses << "/" << c.pool;
  }
}

TEST(Generators, PaperScenarioSpaceContainsTable2Shapes) {
  // 2 members x (sim + 1 analysis) over 3 nodes: the space must contain
  // the canonical shapes of C1.1 ... C1.5, in slot order s0 a0 s1 a1.
  const auto all = fitting(EnsembleShape::paper_like(2, 1), 3);
  const std::set<Assignment> space(all.begin(), all.end());
  EXPECT_TRUE(space.contains({0, 1, 2, 1}));  // C1.1: s0a1|s2a1
  EXPECT_TRUE(space.contains({0, 1, 0, 2}));  // C1.2: s0a1|s0a2
  EXPECT_TRUE(space.contains({0, 0, 1, 2}));  // C1.3: s0a0|s1a2
  EXPECT_TRUE(space.contains({0, 1, 0, 1}));  // C1.4: s0a1|s0a1
  EXPECT_TRUE(space.contains({0, 0, 1, 1}));  // C1.5: s0a0|s1a1
}

TEST(Generators, OversubscriptionFilterDropsInfeasiblePlacements) {
  // A 2-core-node platform cannot host 16+8-core components at all.
  plat::PlatformSpec tiny = platform();
  tiny.node.cores = 2;
  const EnsembleShape shape = EnsembleShape::paper_like(1, 1);
  EXPECT_TRUE(fitting(shape, 2, tiny).empty());
  EXPECT_EQ(enumerate_assignments(slot_count(shape), 2).size(), 2u);
}

TEST(Generators, AllGeneratedSpecsValidate) {
  const EnsembleShape shape = EnsembleShape::paper_like(2, 2);
  const auto all = fitting(shape, 3);
  EXPECT_GT(all.size(), 10u);
  for (const Assignment& a : all) {
    const rt::EnsembleSpec spec = place(shape, a);
    EXPECT_NO_THROW(spec.validate(platform()));
    const auto used = static_cast<int>(
        std::set<int>(a.begin(), a.end()).size());
    EXPECT_EQ(spec.total_nodes(), used);
    EXPECT_EQ(spec.members.size(), 2u);
  }
}

}  // namespace
}  // namespace wfe::sched
