// Online re-planning and the risk-aware objective: incremental repair after
// a node death, scripted-downtime avoidance, thread-count invariance, and
// the scenario isolation of the shared evaluation cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "sched/batch_evaluator.hpp"
#include "sched/eval_cache.hpp"
#include "sched/replanner.hpp"
#include "sched/risk.hpp"
#include "sched/scheduler.hpp"
#include "support/error.hpp"
#include "workload/presets.hpp"

namespace wfe::sched {
namespace {

EnsembleShape two_member_shape(std::uint64_t steps = 5) {
  return EnsembleShape::paper_like(2, 1, steps);
}

rt::MigrationRequest loss(std::uint32_t member, int dead_node,
                          std::vector<int> member_nodes,
                          std::vector<int> up_nodes, double now = 60.0) {
  rt::MigrationRequest request;
  request.member = member;
  request.dead_node = dead_node;
  request.now_s = now;
  request.member_nodes = std::move(member_nodes);
  request.up_nodes = std::move(up_nodes);
  return request;
}

// -- RePlanner ---------------------------------------------------------------

TEST(RePlanner, RepairsOnlyTheAffectedMember) {
  const EnsembleShape shape = two_member_shape();
  PlanOptions options;
  RePlanner planner(shape, wl::cori_like_platform(), options);
  planner.set_assignment({0, 0, 1, 1});

  const int target = planner.replan(loss(0, 0, {0}, {1, 2, 3}));
  ASSERT_GE(target, 0);
  EXPECT_NE(target, 0);
  const Assignment repaired = planner.assignment();
  // Member 0's two slots moved to the target; member 1 untouched.
  EXPECT_EQ(repaired[0], target);
  EXPECT_EQ(repaired[1], target);
  EXPECT_EQ(repaired[2], 1);
  EXPECT_EQ(repaired[3], 1);
  EXPECT_EQ(planner.replans(), 1u);
  EXPECT_GT(planner.evaluations(), 0u);
}

TEST(RePlanner, DefersWhenTheMemberDoesNotUseTheDeadNode) {
  const EnsembleShape shape = two_member_shape();
  RePlanner planner(shape, wl::cori_like_platform(), {});
  planner.set_assignment({0, 0, 1, 1});
  EXPECT_EQ(planner.replan(loss(1, 0, {1}, {1, 2, 3})), -1);
  EXPECT_EQ(planner.replans(), 0u);
  EXPECT_EQ(planner.assignment(), (Assignment{0, 0, 1, 1}));
}

TEST(RePlanner, DefersWhenNoSurvivorRemains) {
  const EnsembleShape shape = two_member_shape();
  RePlanner planner(shape, wl::cori_like_platform(), {});
  planner.set_assignment({0, 0, 1, 1});
  EXPECT_EQ(planner.replan(loss(0, 0, {0}, {0})), -1);
}

TEST(RePlanner, TargetIsInvariantAcrossRerunsAndThreadCounts) {
  const EnsembleShape shape = two_member_shape();
  int first_target = -2;
  for (const int threads : {1, 2, 8}) {
    for (int rerun = 0; rerun < 2; ++rerun) {
      PlanOptions options;
      options.threads = threads;
      RePlanner planner(shape, wl::cori_like_platform(), options);
      planner.set_assignment({0, 0, 1, 1});
      const int target = planner.replan(loss(0, 0, {0}, {1, 2, 3, 4}));
      if (first_target == -2) first_target = target;
      EXPECT_EQ(target, first_target)
          << "threads=" << threads << " rerun=" << rerun;
      EXPECT_EQ(planner.assignment()[0], first_target);
    }
  }
  ASSERT_GE(first_target, 0);
}

TEST(RePlanner, RiskAwareRepairAvoidsScheduledDowntimeTargets) {
  // Two symmetric repair targets (2 and 3) — in the probe world their
  // scores tie and the canonical tie-break would pick 2. Scheduling node
  // 2's downtime and planning risk-aware must steer the repair to 3.
  const EnsembleShape shape = two_member_shape();
  PlanOptions oblivious;
  RePlanner baseline(shape, wl::cori_like_platform(), oblivious);
  baseline.set_assignment({0, 0, 1, 1});
  EXPECT_EQ(baseline.replan(loss(0, 0, {0}, {2, 3})), 2);

  PlanOptions risk_aware;
  risk_aware.risk_aware = true;
  risk_aware.faults = wl::node_down_at(2, 500.0);
  RePlanner planner(shape, wl::cori_like_platform(), risk_aware);
  planner.set_assignment({0, 0, 1, 1});
  EXPECT_EQ(planner.replan(loss(0, 0, {0}, {2, 3})), 3);
}

TEST(RePlanner, RejectsMismatchedAssignmentAndBadMember) {
  const EnsembleShape shape = two_member_shape();
  RePlanner planner(shape, wl::cori_like_platform(), {});
  EXPECT_THROW(planner.set_assignment({0, 0, 1}), InvalidArgument);
  planner.set_assignment({0, 0, 1, 1});
  EXPECT_THROW(planner.replan(loss(7, 0, {0}, {1})), InvalidArgument);
}

// -- RiskModel ---------------------------------------------------------------

TEST(RiskModel, InactiveWithoutRiskAwareFlag) {
  PlanOptions options;
  options.faults = wl::fatal_node_crashes(100.0);
  options.faults.node_down.push_back({0, 10.0});
  const RiskModel risk = RiskModel::of(options, 20);
  EXPECT_FALSE(risk.active());
  EXPECT_TRUE(risk.doomed.empty());
  EXPECT_DOUBLE_EQ(risk.adjust_objective(0.5, 60.0, 6, 3), 0.5);
}

TEST(RiskModel, ExpectedMakespanGrowsWithExposure) {
  PlanOptions options;
  options.risk_aware = true;
  options.faults = wl::fatal_node_crashes(400.0);
  options.faults.node_down.push_back({1, 30.0});
  const RiskModel risk = RiskModel::of(options, 20);
  ASSERT_TRUE(risk.active());
  EXPECT_EQ(risk.doomed, (std::vector<int>{1}));

  const double nominal = 60.0 / 6.0 * 20.0;  // per-step x campaign
  const double one_node = risk.expected_makespan(60.0, 6, 1);
  const double two_nodes = risk.expected_makespan(60.0, 6, 2);
  const double with_doomed = risk.expected_makespan(60.0, 6, 1, 1);
  EXPECT_GT(one_node, nominal);
  EXPECT_GT(two_nodes, one_node);    // more fault domains, more failures
  EXPECT_GT(with_doomed, one_node);  // a scripted death is a sure failure
  // The guaranteed failure costs exactly one recovery.
  EXPECT_DOUBLE_EQ(with_doomed - one_node,
                   risk.recovery_cost_s(60.0 / 6.0));
  // The adjusted objective shrinks accordingly.
  EXPECT_LT(risk.adjust_objective(0.5, 60.0, 6, 2),
            risk.adjust_objective(0.5, 60.0, 6, 1));
  EXPECT_LT(risk.adjust_objective(0.5, 60.0, 6, 1, 1),
            risk.adjust_objective(0.5, 60.0, 6, 1, 0));
}

TEST(RiskModel, DoomedUsedCountsDistinctScheduledNodes) {
  PlanOptions options;
  options.risk_aware = true;
  options.faults = wl::node_down_at(0, 100.0);
  const RiskModel risk = RiskModel::of(options, 20);

  // The planners' charge: the doomed nodes a candidate occupies where it
  // stands, each counted once.
  EXPECT_EQ(doomed_used_of(risk, {1, 1, 2}), 0);
  EXPECT_EQ(doomed_used_of(risk, {1, 2, 0}), 1);
  EXPECT_EQ(doomed_used_of(risk, {0, 0, 1}), 1);
  EXPECT_EQ(doomed_used_of(risk, {1, 2, 1}), 0);

  // Inactive model: nothing is doomed.
  EXPECT_EQ(doomed_used_of(RiskModel::of({}, 20), {0, 0, 1}), 0);
}

bool uses_node(const Schedule& schedule, int node) {
  for (const auto& m : schedule.spec.members) {
    if (m.sim.nodes.count(node) > 0) return true;
    for (const auto& a : m.analyses) {
      if (a.nodes.count(node) > 0) return true;
    }
  }
  return false;
}

TEST(RiskModel, PlannersPlaceOffScheduledDowntimeNodes) {
  // The same demand planned twice: fault-oblivious lands on node 0 (the
  // canonical choice), risk-aware keeps off the node scheduled to die.
  struct Row {
    EnsembleShape shape;
    int pool;
    std::uint64_t checkpoint_period;
  };
  // Three members with 4-core analyses: the fault-free winner spreads them
  // over all three nodes of the pool, but only two are healthy, so every
  // three-node candidate must occupy node 0 once placed. Only the charge
  // (one recovery, costly with a long checkpoint period) can make a
  // two-node candidate on the healthy nodes win.
  EnsembleShape spread = EnsembleShape::paper_like(3, 1, 5);
  for (MemberShape& m : spread.members) {
    for (rt::AnalysisSpec& a : m.analyses) a.cores = 4;
  }
  const std::vector<Row> rows = {
      {two_member_shape(), 4, res::RecoveryPolicy{}.checkpoint_period},
      {spread, 3, 20}};
  for (const Row& row : rows) {
    // bai-search samples jittered probes, so its rewards carry the charge
    // sample by sample.
    for (const char* scheduler :
         {"exhaustive", "greedy-refine", "bai-search"}) {
      PlanOptions options;
      options.faults = wl::node_down_at(0, 500.0);
      options.recovery.checkpoint_period = row.checkpoint_period;
      if (std::string(scheduler) == "bai-search") options.jitter_cv = 0.1;
      const Schedule oblivious = make_scheduler(scheduler)->plan(
          row.shape, wl::cori_like_platform(), {row.pool}, options);
      EXPECT_TRUE(uses_node(oblivious, 0)) << scheduler << row.pool;

      options.risk_aware = true;
      const Schedule aware = make_scheduler(scheduler)->plan(
          row.shape, wl::cori_like_platform(), {row.pool}, options);
      EXPECT_FALSE(uses_node(aware, 0)) << scheduler << row.pool;
    }
  }
}

TEST(RiskModel, PlanRunPricesTheNodesItPlacesOn) {
  // Straggler windows open per node, so no two nodes are interchangeable:
  // with nodes 0-3 scheduled to die, the labelling {4,4,5,5} on the two
  // healthy nodes is a candidate of its own, enumerated next to {0,0,1,1},
  // and node 5 is slow during the probe. A planning run prices each
  // candidate on the nodes it names, the nodes schedule() lands on.
  const EnsembleShape shape = EnsembleShape::paper_like(2, 1);
  PlanOptions options;
  for (int node = 0; node < 4; ++node) {
    options.faults.node_down.push_back({node, 500.0});
  }
  options.faults.straggler_mtbf_s = 20.0;
  options.faults.straggler_duration_s = 30.0;
  options.faults.straggler_factor = 3.0;
  options.risk_aware = true;
  const int pool = 6;
  const Assignment doomed = {0, 0, 1, 1};
  const Assignment healthy = {4, 4, 5, 5};
  const RiskModel risk = RiskModel::of(options, shape.n_steps);

  PlanRun run(shape, wl::cori_like_platform(), {pool}, options,
              PlanRun::Space::kExhaustive);
  EXPECT_EQ(run.classes(), NodeClasses({0, 1, 2, 3, 4, 5}));  // singletons
  const std::vector<Assignment>& all = run.candidates();
  EXPECT_EQ(all.size(), 1296u);  // 6^4: every labelling is its own orbit
  EXPECT_NE(std::find(all.begin(), all.end(), healthy), all.end());

  const auto direct = [&](const Assignment& a) {
    BatchEvaluator evaluator(wl::cori_like_platform(),
                             probe_scenario(options), /*threads=*/1);
    return risk_scored(
        evaluator.score_assignments(shape, {a}, options.probe_steps,
                                    options.probe_samples),
        risk, options.probe_steps, {doomed_used_of(risk, a)})[0];
  };
  const ScoredCandidate on_healthy = direct(healthy);
  const ScoredCandidate on_doomed = direct(doomed);
  ASSERT_TRUE(on_healthy.feasible);
  ASSERT_TRUE(on_doomed.feasible);
  // The labellings really differ, or this test could not tell them apart.
  ASSERT_LT(on_healthy.objective, 0.9 * on_doomed.objective);

  const std::vector<ScoredCandidate> scored = run.score({healthy, doomed});
  ASSERT_EQ(scored.size(), 2u);
  EXPECT_EQ(scored[0].objective, on_healthy.objective);
  EXPECT_EQ(scored[1].objective, on_doomed.objective);
  EXPECT_EQ(run.schedule("s", healthy).spec.members[1].sim.nodes,
            (std::set<int>{5}));
}

TEST(RiskModel, SpareNodesShrinkThePlacementPool) {
  PlanOptions options;
  options.spare_nodes = 2;
  EXPECT_EQ(effective_pool({5}, options), 3);
  EXPECT_THROW(effective_pool({2}, options), SpecError);
  options.spare_nodes = -1;
  EXPECT_THROW(effective_pool({5}, options), InvalidArgument);
}

// -- shared-cache scenario isolation (regression) ----------------------------

TEST(EvalCacheScenarios, DifferentFaultConfigsNeverShareScores) {
  // Two evaluators sharing one EvalCache but probing different resilience
  // configurations must miss each other's entries: the scenario
  // fingerprint is part of every key.
  const EnsembleShape shape = two_member_shape();
  const std::vector<Assignment> candidates = {{0, 0, 1, 1}};
  EvalCache shared;

  rt::SimulatedOptions scenario_a;
  scenario_a.faults = wl::degraded_nodes(200.0).probe_view();
  rt::SimulatedOptions scenario_b = scenario_a;
  scenario_b.recovery.chunk_replication = 2;

  BatchEvaluator a(wl::cori_like_platform(), scenario_a, 1);
  a.attach_shared_cache(&shared);
  a.score_assignments(shape, candidates);
  EXPECT_EQ(a.evaluations(), 1u);

  BatchEvaluator b(wl::cori_like_platform(), scenario_b, 1);
  b.attach_shared_cache(&shared);
  b.score_assignments(shape, candidates);
  EXPECT_EQ(b.evaluations(), 1u) << "replication config must not hit the "
                                    "other scenario's cached score";

  // Same config, fresh evaluator: served from the shared tier.
  BatchEvaluator c(wl::cori_like_platform(), scenario_a, 1);
  c.attach_shared_cache(&shared);
  c.score_assignments(shape, candidates);
  EXPECT_EQ(c.evaluations(), 0u);
  EXPECT_EQ(c.cache_hits(), 1u);

  // And the fingerprints themselves differ.
  EXPECT_NE(scenario_fingerprint(scenario_a),
            scenario_fingerprint(scenario_b));
}

}  // namespace
}  // namespace wfe::sched
