// Risk-aware scoring: expected makespan under a node failure distribution.
//
// Probe replays deliberately strip stochastic crash injection (sampling a
// handful of fault timelines per candidate would make planning both
// expensive and noisy). Instead the risk model folds failures in
// analytically: each node a candidate occupies is an independent
// exponential failure domain with the FaultSpec's MTBF, and every failure
// costs one migration plus the re-execution back to the last checkpoint.
// The risk-aware objective discounts the fault-free score by the expected
// inflation, so placements on fewer fault domains — and budgets that hold
// spare nodes back as migration headroom — win exactly when failures are
// frequent enough to pay for them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sched/batch_evaluator.hpp"
#include "sched/candidates.hpp"
#include "sched/scheduler.hpp"

namespace wfe::sched {

struct RiskModel {
  double node_mtbf_s = 0.0;  ///< 0 = no stochastic crash term
  double migration_cost_s = 3.0;
  double restart_cost_s = 2.0;
  std::uint64_t checkpoint_period = 5;
  std::uint64_t campaign_steps = 37;  ///< the length the plan will run for
  /// Nodes with scripted permanent downtime (FaultSpec::node_down), sorted:
  /// occupying one guarantees a migration, so the model charges every
  /// placement one recovery per doomed node it occupies.
  std::vector<int> doomed;

  /// The model PlanOptions describes: active only under --risk-aware with
  /// a crash-bearing or scripted-downtime FaultSpec.
  static RiskModel of(const PlanOptions& options, std::uint64_t campaign_steps);

  bool active() const { return node_mtbf_s > 0.0 || !doomed.empty(); }

  /// Expected stochastic node failures striking `nodes_used` independent
  /// fault domains over `t_campaign` seconds (linearized Poisson rate).
  /// Scripted deaths are charged separately via `doomed_used`.
  double expected_failures(double t_campaign, int nodes_used) const;

  /// Cost of recovering from one node loss: migration + restart + half a
  /// checkpoint period of re-execution at `per_step` seconds per step.
  double recovery_cost_s(double per_step) const;

  /// Expected campaign makespan for a candidate whose probe measured
  /// `probe_makespan` over `probe_steps` steps on `nodes_used` nodes, of
  /// which `doomed_used` have scripted downtime: nominal time scaled to
  /// campaign_steps, plus per-failure recovery for the expected stochastic
  /// crashes and one guaranteed recovery per doomed node occupied.
  double expected_makespan(double probe_makespan, std::uint64_t probe_steps,
                           int nodes_used, int doomed_used = 0) const;

  /// Discount a fault-oblivious objective by the expected inflation:
  /// objective * nominal / expected. Identity while inactive.
  double adjust_objective(double objective, double probe_makespan,
                          std::uint64_t probe_steps, int nodes_used,
                          int doomed_used = 0) const;
};

/// The probe scenario PlanOptions describes: deterministic capacity effects
/// only (FaultSpec::probe_view strips crashes and transients).
rt::SimulatedOptions probe_scenario(const PlanOptions& options);

/// BatchScores -> ScoredCandidates, risk-adjusted when `risk.active()`.
/// `doomed_used` gives the scripted-downtime node count charged to each
/// candidate (empty = zero for all).
std::vector<ScoredCandidate> risk_scored(const std::vector<BatchScore>& batch,
                                         const RiskModel& risk,
                                         std::uint64_t probe_steps,
                                         const std::vector<int>& doomed_used =
                                             {});

/// Scripted-downtime nodes `assignment` occupies (distinct count).
int doomed_used_of(const RiskModel& risk, const Assignment& assignment);

/// The node pool left after holding back the spare-node headroom.
/// Throws wfe::SpecError when no node remains.
int effective_pool(const ResourceBudget& budget, const PlanOptions& options);

/// One planning run of a replay-guided scheduler: the plan policy every
/// such scheduler shares, so each keeps only its candidates and its
/// stopping rule. It checks the shape, the budget and probe_samples, and
/// derives the plan's node classes (node_classes() over the spare-node
/// pool, split by the RiskModel's doomed nodes) before any worker thread
/// starts. It holds the RiskModel and a BatchEvaluator on probe_scenario()
/// with the shared cache attached.
///
/// Candidates are scored, sampled and charged where they stand: the nodes
/// a candidate names are the nodes schedule() places it on.
class PlanRun {
 public:
  /// What the run generates before its workers start: nothing (a local
  /// search brings its own candidates), or one candidate per orbit.
  enum class Space { kLocal, kExhaustive };

  PlanRun(const EnsembleShape& shape, const plat::PlatformSpec& platform,
          const ResourceBudget& budget, const PlanOptions& options,
          Space space = Space::kLocal);

  /// The placement pool: the budget less the spare-node headroom.
  int pool() const { return classes_.size(); }
  /// Which pool nodes are interchangeable for this plan.
  const NodeClasses& classes() const { return classes_; }
  const RiskModel& risk() const { return risk_; }
  /// Under Space::kExhaustive, enumerate_assignments() over classes(): one
  /// candidate per orbit, in lexicographic order. Empty otherwise.
  const std::vector<Assignment>& candidates() const { return candidates_; }

  /// Fixed-budget, risk-adjusted scores, in candidate order
  /// (probe_samples seeded draws averaged on a stochastic scenario).
  std::vector<ScoredCandidate> score(const std::vector<Assignment>& candidates);

  /// One risk-adjusted reward per seeded sample, in request order; nullopt
  /// when the placement is infeasible (no draw can differ).
  std::vector<std::optional<double>> sample(
      const std::vector<Assignment>& arms,
      const std::vector<BatchEvaluator::ArmSample>& requests);

  /// Probe replays run so far (cache misses only).
  std::size_t evaluations() const { return evaluator_.evaluations(); }

  /// The placed Schedule for `winner`, with this run's cost counters.
  /// `samples` defaults to the fixed-budget count: every score served,
  /// fresh or cached.
  Schedule schedule(std::string name, const Assignment& winner,
                    std::optional<std::size_t> samples = {}) const;

 private:
  const EnsembleShape& shape_;
  const PlanOptions& options_;
  RiskModel risk_;
  NodeClasses classes_;
  std::vector<Assignment> candidates_;
  BatchEvaluator evaluator_;
};

}  // namespace wfe::sched
