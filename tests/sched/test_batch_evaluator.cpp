// Parallel placement search: candidate helpers, the memoizing batch
// evaluator, and thread-count invariance of the schedulers built on them.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sched/batch_evaluator.hpp"
#include "sched/candidates.hpp"
#include "sched/exhaustive.hpp"
#include "sched/greedy.hpp"
#include "sched/greedy_refine.hpp"
#include "support/error.hpp"
#include "workload/presets.hpp"

namespace wfe::sched {
namespace {

plat::PlatformSpec platform() { return wl::cori_like_platform(); }

/// Flatten a placed spec's node sets into a comparable signature.
std::string placement_signature(const rt::EnsembleSpec& spec) {
  std::ostringstream out;
  for (const auto& m : spec.members) {
    out << "s:";
    for (int n : m.sim.nodes) out << n << ",";
    for (const auto& a : m.analyses) {
      out << "a:";
      for (int n : a.nodes) out << n << ",";
    }
    out << "|";
  }
  return out.str();
}

// ---------------------------------------------------------------- candidates

TEST(Candidates, CanonicalRelabelsByFirstAppearance) {
  const NodeClasses three = NodeClasses::one(3);
  EXPECT_EQ(canonical({2, 2, 0, 1}, three), (Assignment{0, 0, 1, 2}));
  EXPECT_EQ(canonical({0, 1, 0, 2}, three), (Assignment{0, 1, 0, 2}));
  EXPECT_EQ(canonical({5, 5, 5}, NodeClasses::one(6)), (Assignment{0, 0, 0}));
}

TEST(Candidates, CanonicalIsIdempotent) {
  const Assignment a = canonical({3, 1, 3, 0, 1}, NodeClasses::one(4));
  EXPECT_EQ(canonical(a, NodeClasses::one(4)), a);
}

TEST(Candidates, EnumerationIsCanonicalDedupedAndLexOrdered) {
  // 3 slots over a pool of 3: Bell number B(3) = 5 distinct partitions.
  const auto all = enumerate_assignments(3, 3);
  ASSERT_EQ(all.size(), 5u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(canonical(all[i], NodeClasses::one(3)), all[i]);
    if (i > 0) EXPECT_LT(all[i - 1], all[i]);  // strictly lex-increasing
  }
  EXPECT_EQ(all.front(), (Assignment{0, 0, 0}));
  EXPECT_EQ(all.back(), (Assignment{0, 1, 2}));
}

TEST(Candidates, NeighborsAreSingleSlotMoves) {
  const auto neighbors = neighbor_assignments({0, 1}, NodeClasses::one(3));
  // Each of the 2 slots can move to 2 other pool nodes; canonicalized and
  // with the identity dropped, the distinct outcomes are {0,0} and {0,1}
  // variants. Every neighbor differs from the start in exactly one slot
  // (up to relabeling) and none equals the start.
  ASSERT_FALSE(neighbors.empty());
  for (const auto& n : neighbors) {
    EXPECT_EQ(n, canonical(n, NodeClasses::one(3)));
    EXPECT_NE(n, (Assignment{0, 1}));
  }
}

TEST(Candidates, CoreDemandMatchesThePlacedSpecsCheck) {
  // A shape whose components all differ in core count, besides the paper
  // shapes of the benchmark plans.
  EnsembleShape mixed = EnsembleShape::paper_like(3, 2);
  const int sim_cores[] = {20, 12, 6};
  const int ana_cores[] = {4, 12, 10, 3, 26, 1};
  for (std::size_t m = 0; m < 3; ++m) {
    mixed.members[m].sim.cores = sim_cores[m];
    for (std::size_t j = 0; j < 2; ++j) {
      mixed.members[m].analyses[j].cores = ana_cores[2 * m + j];
    }
  }
  struct Case {
    EnsembleShape shape;
    int pool;
  };
  const Case cases[] = {{EnsembleShape::paper_like(3, 2), 5},
                        {EnsembleShape::paper_like(4, 1), 4},
                        {EnsembleShape::paper_like(2, 2), 4},
                        {mixed, 4}};
  const plat::PlatformSpec small = [] {
    plat::PlatformSpec p = platform();
    p.node_count = 3;  // the pools above reach past it: left to validation
    return p;
  }();
  std::size_t over = 0, fits = 0;
  for (const Case& c : cases) {
    for (const plat::PlatformSpec& p : {platform(), small}) {
      const CoreDemand demand(c.shape, p);
      std::vector<Assignment> all =
          enumerate_assignments(slot_count(c.shape), c.pool);
      Assignment outside(slot_count(c.shape), 0);
      outside.back() = -1;
      all.push_back(outside);
      for (const Assignment& a : all) {
        const bool want = place(c.shape, a).oversubscribed_node(p) >= 0;
        EXPECT_EQ(demand.oversubscribed(a), want);
        ++(want ? over : fits);
      }
    }
  }
  EXPECT_GT(over, 10000u);
  EXPECT_GT(fits, 5000u);
}

TEST(Candidates, PickWinnerPrefersObjectiveThenLexOrder) {
  const std::vector<Assignment> cands = {{0, 1, 1}, {0, 0, 1}, {0, 1, 2}};
  // Tie on objective between index 1 and 2 -> lex-smaller {0,0,1} wins.
  std::vector<ScoredCandidate> scored = {
      {true, 1.0}, {true, 2.0}, {true, 2.0}};
  auto w = pick_winner(scored, cands);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, 1u);
  // Infeasible candidates never win.
  scored[1].feasible = false;
  w = pick_winner(scored, cands);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, 2u);
  // All infeasible -> no winner.
  auto none = pick_winner({{false, 0.0}}, {{0}});
  EXPECT_FALSE(none.has_value());
}

// ----------------------------------------------------------- batch evaluator

TEST(BatchEvaluator, ScoresMatchTheSequentialEvaluator) {
  const auto shape = EnsembleShape::paper_like(2, 1);
  const auto assignments = enumerate_assignments(slot_count(shape), 3);
  BatchEvaluator batch(platform(), /*threads=*/4);
  const auto scores = batch.score_assignments(shape, assignments);
  ASSERT_EQ(scores.size(), assignments.size());

  Evaluator reference(platform());
  for (std::size_t i = 0; i < assignments.size(); ++i) {
    rt::EnsembleSpec spec = place(shape, assignments[i]);
    bool feasible = true;
    try {
      spec.validate(platform());
    } catch (const SpecError&) {
      feasible = false;
    }
    ASSERT_EQ(scores[i].feasible, feasible) << "candidate " << i;
    if (feasible) {
      EXPECT_DOUBLE_EQ(scores[i].eval.objective,
                       reference.score(spec).objective)
          << "candidate " << i;
    }
  }
}

TEST(BatchEvaluator, MemoCacheServesRepeatsWithoutNewSimulations) {
  const auto shape = EnsembleShape::paper_like(2, 1);
  const auto assignments = enumerate_assignments(slot_count(shape), 3);
  BatchEvaluator batch(platform(), /*threads=*/2);

  const auto first = batch.score_assignments(shape, assignments);
  const std::size_t sims = batch.evaluations();
  EXPECT_GT(sims, 0u);
  EXPECT_EQ(batch.cache_hits(), 0u);  // all distinct, all fresh

  const auto second = batch.score_assignments(shape, assignments);
  EXPECT_EQ(batch.evaluations(), sims);  // not one more simulation
  EXPECT_EQ(batch.cache_hits(), assignments.size());
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(second[i].cached);
    EXPECT_EQ(second[i].feasible, first[i].feasible);
    if (first[i].feasible) {
      EXPECT_DOUBLE_EQ(second[i].eval.objective, first[i].eval.objective);
    }
  }
}

TEST(BatchEvaluator, WithinBatchDuplicatesSimulateOnce) {
  const auto shape = EnsembleShape::paper_like(1, 1);
  const Assignment a = {0, 0};
  BatchEvaluator batch(platform(), /*threads=*/2);
  const auto scores = batch.score_assignments(shape, {a, a, a});
  EXPECT_EQ(batch.evaluations(), 1u);
  EXPECT_EQ(batch.cache_hits(), 2u);
  EXPECT_DOUBLE_EQ(scores[1].eval.objective, scores[0].eval.objective);
  EXPECT_DOUBLE_EQ(scores[2].eval.objective, scores[0].eval.objective);
}

TEST(BatchEvaluator, CacheKeyDistinguishesProbeLengths) {
  const auto shape = EnsembleShape::paper_like(1, 1);
  BatchEvaluator batch(platform(), /*threads=*/1);
  (void)batch.score_assignments(shape, {{0, 0}}, /*probe_steps=*/6);
  (void)batch.score_assignments(shape, {{0, 0}}, /*probe_steps=*/8);
  EXPECT_EQ(batch.evaluations(), 2u);  // different probes: both simulated
  EXPECT_EQ(batch.cache_hits(), 0u);
}

TEST(BatchEvaluator, StragglerProbesKeyNodeIdsAsTheyAre) {
  // Straggler windows open per node, so placements that differ only in
  // node naming replay differently: one batch must replay each of them
  // and serve each the score it gets when scored alone.
  const auto shape = EnsembleShape::paper_like(2, 1);
  rt::SimulatedOptions scenario;
  scenario.faults.straggler_mtbf_s = 20.0;
  scenario.faults.straggler_duration_s = 30.0;
  scenario.faults.straggler_factor = 3.0;
  scenario.trace_obs = false;
  const std::vector<Assignment> placements = {
      {2, 2, 1, 1}, {3, 3, 1, 1}, {5, 5, 1, 1}};
  BatchEvaluator together(platform(), scenario, /*threads=*/1);
  const auto scores = together.score_assignments(shape, placements);
  EXPECT_EQ(together.evaluations(), placements.size());
  EXPECT_EQ(together.cache_hits(), 0u);
  std::set<double> distinct;
  for (std::size_t i = 0; i < placements.size(); ++i) {
    BatchEvaluator alone(platform(), scenario, /*threads=*/1);
    const auto own = alone.score_assignments(shape, {placements[i]});
    ASSERT_TRUE(scores[i].feasible);
    EXPECT_EQ(scores[i].eval.objective, own[0].eval.objective) << i;
    distinct.insert(scores[i].eval.objective);
  }
  EXPECT_GT(distinct.size(), 1u);

  // Without stragglers, relabeled twins still share one key and one replay;
  // with them, each twin is replayed.
  BatchEvaluator plain(platform(), /*threads=*/1);
  (void)plain.score_assignments(shape, {{0, 0, 1, 1}, {1, 1, 0, 0}});
  EXPECT_EQ(plain.evaluations(), 1u);
  (void)together.score_assignments(shape, {{0, 0, 1, 1}, {1, 1, 0, 0}});
  EXPECT_EQ(together.evaluations(), placements.size() + 2);
}

TEST(BatchEvaluator, SmallInterconnectGroupsKeyNodeIdsAsTheyAre) {
  // With two nodes per interconnect group, {0,1,2,3} and {0,2,1,3} put the
  // coupled pairs on different hops: one batch must replay both and serve
  // each the score it gets when scored alone.
  auto small_groups = platform();
  small_groups.interconnect.group_size = 2;
  small_groups.interconnect.inter_group_hops = 40;
  const auto shape = EnsembleShape::paper_like(2, 1);
  const std::vector<Assignment> placements = {{0, 1, 2, 3}, {0, 2, 1, 3}};
  BatchEvaluator together(small_groups, /*threads=*/1);
  const auto scores = together.score_assignments(shape, placements);
  EXPECT_EQ(together.evaluations(), 2u);
  EXPECT_EQ(together.cache_hits(), 0u);
  const double solo[] = {0.005005924, 0.005005930};
  for (std::size_t i = 0; i < placements.size(); ++i) {
    BatchEvaluator alone(small_groups, /*threads=*/1);
    const auto own = alone.score_assignments(shape, {placements[i]});
    ASSERT_TRUE(scores[i].feasible);
    EXPECT_EQ(scores[i].eval.objective, own[0].eval.objective) << i;
    EXPECT_NEAR(scores[i].eval.objective, solo[i], 1e-9) << i;
  }
}

TEST(BatchEvaluator, CountsEngineEvents) {
  const auto shape = EnsembleShape::paper_like(2, 1);
  BatchEvaluator batch(platform(), /*threads=*/2);
  (void)batch.score_assignments(shape,
                                enumerate_assignments(slot_count(shape), 3));
  EXPECT_GT(batch.events_processed(), 0u);
}

// ------------------------------------------------- thread-count invariance

TEST(ParallelEquivalence, ExhaustiveIsThreadCountInvariant) {
  for (const auto& shape :
       {EnsembleShape::paper_like(2, 1), EnsembleShape::paper_like(2, 2)}) {
    const auto reference = Exhaustive().plan(shape, platform(), {3},
                                             PlanOptions{.threads = 1});
    for (int threads : {2, 8}) {
      const auto parallel = Exhaustive().plan(shape, platform(), {3},
                                              PlanOptions{.threads = threads});
      EXPECT_EQ(placement_signature(parallel.spec),
                placement_signature(reference.spec))
          << "threads=" << threads;
      EXPECT_EQ(parallel.evaluations, reference.evaluations)
          << "threads=" << threads;
      EXPECT_EQ(parallel.cache_hits, reference.cache_hits)
          << "threads=" << threads;
    }
  }
}

TEST(ParallelEquivalence, GreedyRefineIsThreadCountInvariant) {
  const auto shape = EnsembleShape::paper_like(2, 2);
  const auto reference =
      GreedyRefine().plan(shape, platform(), {3}, PlanOptions{.threads = 1});
  for (int threads : {2, 8}) {
    const auto parallel = GreedyRefine().plan(shape, platform(), {3},
                                              PlanOptions{.threads = threads});
    EXPECT_EQ(placement_signature(parallel.spec),
              placement_signature(reference.spec))
        << "threads=" << threads;
    EXPECT_EQ(parallel.evaluations, reference.evaluations)
        << "threads=" << threads;
    EXPECT_EQ(parallel.cache_hits, reference.cache_hits)
        << "threads=" << threads;
  }
}

TEST(GreedyRefine, NeverWorseThanItsConstructiveSeed) {
  Evaluator evaluator(platform());
  for (const auto& shape :
       {EnsembleShape::paper_like(2, 1), EnsembleShape::paper_like(4, 1)}) {
    const auto refined = GreedyRefine().plan(shape, platform(), {3});
    const auto seed = GreedyColocation().plan(shape, platform(), {3});
    EXPECT_GE(evaluator.score(refined.spec).objective + 1e-12,
              evaluator.score(seed.spec).objective);
    EXPECT_GT(refined.evaluations, 0u);
  }
}

TEST(GreedyRefine, RefinementRoundsHitTheMemoCache) {
  // On the Table 2 shape the hill-climb takes at least one improving step,
  // and consecutive rounds' neighborhoods overlap (moving the slot back
  // reproduces the previous incumbent) — those re-visits must be served
  // from the memo-cache, not re-simulated.
  const auto schedule =
      GreedyRefine().plan(EnsembleShape::paper_like(2, 1), platform(), {3});
  EXPECT_GT(schedule.cache_hits, 0u);
}

TEST(GreedyRefine, MatchesExhaustiveOnThePaperShape) {
  // On the small Table 2 shape the hill-climb lands on the global optimum.
  Evaluator evaluator(platform());
  const auto shape = EnsembleShape::paper_like(2, 1);
  const auto refined = GreedyRefine().plan(shape, platform(), {3});
  const auto oracle = Exhaustive().plan(shape, platform(), {3});
  EXPECT_NEAR(evaluator.score(refined.spec).objective,
              evaluator.score(oracle.spec).objective, 1e-12);
}

TEST(Factory, BuildsGreedyRefine) {
  const auto schedule = make_scheduler("greedy-refine")
                            ->plan(EnsembleShape::paper_like(2, 1), platform(),
                                   {3});
  EXPECT_EQ(schedule.scheduler, "greedy-refine");
  EXPECT_GT(schedule.evaluations, 0u);
}

}  // namespace
}  // namespace wfe::sched
