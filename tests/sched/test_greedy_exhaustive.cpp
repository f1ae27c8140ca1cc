// Behaviour of the individual scheduling algorithms.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sched/baselines.hpp"
#include "sched/candidates.hpp"
#include "sched/evaluator.hpp"
#include "sched/exhaustive.hpp"
#include "sched/greedy.hpp"
#include "sched/risk.hpp"
#include "support/error.hpp"
#include "support/str.hpp"
#include "workload/presets.hpp"

namespace wfe::sched {
namespace {

plat::PlatformSpec platform() { return wl::cori_like_platform(); }

TEST(GreedyColocation, ReproducesC15ForTheTable2Shape) {
  // 2 x (16+8) over 3 nodes: each member fits a node whole -> CP = 1,
  // M = 2 — exactly C1.5.
  const auto schedule =
      GreedyColocation().plan(EnsembleShape::paper_like(2, 1), platform(), {3});
  EXPECT_EQ(schedule.spec.total_nodes(), 2);
  for (const auto& m : schedule.spec.members) {
    EXPECT_EQ(m.sim.nodes, m.analyses[0].nodes);
  }
  EXPECT_NE(schedule.spec.members[0].sim.nodes,
            schedule.spec.members[1].sim.nodes);
  EXPECT_EQ(schedule.evaluations, 0u);
}

TEST(GreedyColocation, ReproducesC28ForTheTable4Shape) {
  const auto schedule =
      GreedyColocation().plan(EnsembleShape::paper_like(2, 2), platform(), {3});
  EXPECT_EQ(schedule.spec.total_nodes(), 2);
  for (const auto& m : schedule.spec.members) {
    for (const auto& a : m.analyses) {
      EXPECT_EQ(m.sim.nodes, a.nodes);
    }
  }
}

TEST(GreedyColocation, SplitsWhenAMemberExceedsANode) {
  // 16 + 3x8 = 40 cores > 32: the member must split, with the simulation
  // keeping as many analyses as fit beside it.
  auto shape = EnsembleShape::paper_like(1, 3);
  const auto schedule = GreedyColocation().plan(shape, platform(), {2});
  const auto& m = schedule.spec.members[0];
  int colocated = 0;
  for (const auto& a : m.analyses) {
    if (a.nodes == m.sim.nodes) ++colocated;
  }
  EXPECT_EQ(colocated, 2);  // 16 + 8 + 8 = 32 fills the simulation's node
  EXPECT_EQ(schedule.spec.total_nodes(), 2);
}

TEST(GreedyColocation, PacksMembersOntoSharedNodesUnderTightBudget) {
  // 4 members x 24 cores over 3 nodes (96/96 cores): feasible only by
  // pairing members; the greedy packer must find it.
  const auto schedule =
      GreedyColocation().plan(EnsembleShape::paper_like(4, 1), platform(), {3});
  EXPECT_NO_THROW(schedule.spec.validate(platform()));
  EXPECT_EQ(schedule.spec.total_nodes(), 3);
}

TEST(Exhaustive, MatchesGreedyOnPaperShape) {
  // On the Table 2 shape the oracle and the heuristic agree (C1.5).
  Evaluator evaluator(platform());
  const auto exhaustive =
      Exhaustive().plan(EnsembleShape::paper_like(2, 1), platform(), {3});
  const auto greedy =
      GreedyColocation().plan(EnsembleShape::paper_like(2, 1), platform(), {3});
  const double f_ex = evaluator.score(exhaustive.spec).objective;
  const double f_gr = evaluator.score(greedy.spec).objective;
  EXPECT_NEAR(f_ex, f_gr, 1e-12);
  EXPECT_GT(exhaustive.evaluations, 0u);
}

TEST(Exhaustive, NeverWorseThanAnyBaseline) {
  Evaluator evaluator(platform());
  const auto shape = EnsembleShape::paper_like(2, 2);
  const auto oracle = Exhaustive().plan(shape, platform(), {3});
  const double f_oracle = evaluator.score(oracle.spec).objective;
  for (const char* name : {"greedy-colocate", "round-robin", "random"}) {
    const auto other = make_scheduler(name)->plan(shape, platform(), {3});
    EXPECT_GE(f_oracle + 1e-12, evaluator.score(other.spec).objective)
        << name;
  }
}

TEST(Exhaustive, SearchesEveryLabellingUnderStragglerProbes) {
  // Straggler windows open per node, so a placement and its relabelling
  // replay differently. On this cell the best of the 187 relabelling
  // classes (1.089708e-2) is beaten by a labelling outside them: the
  // search must score all 4^6 = 4,096 labellings, 2,400 of them feasible.
  PlanOptions options;
  options.faults.straggler_mtbf_s = 200.0;
  options.faults.straggler_duration_s = 300.0;
  options.faults.straggler_factor = 1.5;
  options.threads = 4;
  const Schedule schedule = Exhaustive().plan(EnsembleShape::paper_like(3, 1),
                                              platform(), {4}, options);
  EXPECT_EQ(schedule.evaluations, 2400u);
  const Evaluator prober(platform(), probe_scenario(options));
  EXPECT_NEAR(prober.score(schedule.spec, options.probe_steps).objective,
              1.099416e-2, 5e-9);
}

TEST(Exhaustive, CapsComponentCount) {
  // 14 components on 8 interchangeable nodes: more orbits than the cap.
  // The plan is refused before any replay, with the count in the message.
  const double count = candidate_count(14, NodeClasses::one(8));
  ASSERT_GT(count, static_cast<double>(kMaxCandidates));
  try {
    (void)Exhaustive().plan(EnsembleShape::paper_like(7, 1), platform(),
                            {8});
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find(strprintf("%.0f", count)),
              std::string::npos)
        << e.what();
  }
}

TEST(RoundRobin, SpreadsComponents) {
  const auto schedule =
      RoundRobin().plan(EnsembleShape::paper_like(2, 1), platform(), {3});
  // Scatter: sim0 -> n0, ana0 -> n1, sim1 -> n2, ana1 -> n0.
  EXPECT_EQ(schedule.spec.members[0].sim.nodes, (std::set<int>{0}));
  EXPECT_EQ(schedule.spec.members[0].analyses[0].nodes, (std::set<int>{1}));
  EXPECT_EQ(schedule.spec.members[1].sim.nodes, (std::set<int>{2}));
  EXPECT_EQ(schedule.spec.members[1].analyses[0].nodes, (std::set<int>{0}));
}

TEST(RoundRobin, SkipsFullNodes) {
  // Pool of 2: components cycle but respect capacity.
  const auto schedule =
      RoundRobin().plan(EnsembleShape::paper_like(2, 1), platform(), {2});
  EXPECT_NO_THROW(schedule.spec.validate(platform()));
}

TEST(RandomPlacement, DeterministicGivenSeed) {
  const auto a =
      RandomPlacement(7).plan(EnsembleShape::paper_like(2, 1), platform(), {3});
  const auto b =
      RandomPlacement(7).plan(EnsembleShape::paper_like(2, 1), platform(), {3});
  EXPECT_EQ(a.spec.members[0].sim.nodes, b.spec.members[0].sim.nodes);
  EXPECT_EQ(a.spec.members[1].analyses[0].nodes,
            b.spec.members[1].analyses[0].nodes);
}

TEST(RandomPlacement, DefaultSeedPicks) {
  // The first draw that fits, in slot order [m0.sim, m0.ana0, ...].
  struct Case {
    int members, analyses, pool;
    std::vector<int> placement;
  };
  const Case cases[] = {{2, 1, 3, {2, 1, 1, 2}},
                        {2, 2, 4, {1, 1, 2, 0, 2, 2}},
                        {4, 1, 3, {2, 2, 1, 0, 1, 0, 0, 2}},
                        {3, 2, 5, {3, 3, 1, 1, 2, 0, 4, 2, 0}}};
  for (const Case& c : cases) {
    const Schedule s = RandomPlacement().plan(
        EnsembleShape::paper_like(c.members, c.analyses), platform(),
        {c.pool});
    std::vector<int> placement;
    for (const auto& m : s.spec.members) {
      placement.push_back(*m.sim.nodes.begin());
      for (const auto& a : m.analyses) placement.push_back(*a.nodes.begin());
    }
    EXPECT_EQ(placement, c.placement)
        << c.members << "x" << c.analyses << "/" << c.pool;
  }
}

TEST(Evaluator, CountsAndScores) {
  Evaluator evaluator(platform());
  const auto schedule =
      GreedyColocation().plan(EnsembleShape::paper_like(2, 1), platform(), {3});
  EXPECT_EQ(evaluator.evaluations(), 0u);
  const Evaluation e = evaluator.score(schedule.spec);
  EXPECT_EQ(evaluator.evaluations(), 1u);
  EXPECT_GT(e.objective, 0.0);
  EXPECT_GT(e.ensemble_makespan, 0.0);
  EXPECT_EQ(e.nodes_used, 2);
  EXPECT_GT(e.min_member_efficiency, 0.0);
}

TEST(Evaluator, RejectsSillyProbe) {
  Evaluator evaluator(platform());
  const auto schedule =
      GreedyColocation().plan(EnsembleShape::paper_like(1, 1), platform(), {2});
  EXPECT_THROW((void)evaluator.score(schedule.spec, 1), InvalidArgument);
}

}  // namespace
}  // namespace wfe::sched
