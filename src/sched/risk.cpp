#include "sched/risk.hpp"

#include <algorithm>
#include <utility>

#include "support/error.hpp"

namespace wfe::sched {

RiskModel RiskModel::of(const PlanOptions& options,
                        std::uint64_t campaign_steps) {
  RiskModel risk;
  if (options.risk_aware) {
    risk.node_mtbf_s = options.faults.node_mtbf_s;
    risk.migration_cost_s = options.recovery.migration_cost_s;
    risk.restart_cost_s = options.recovery.restart_cost_s;
    risk.checkpoint_period = options.recovery.checkpoint_period;
    for (const res::NodeDown& down : options.faults.node_down) {
      risk.doomed.push_back(down.node);
    }
    std::sort(risk.doomed.begin(), risk.doomed.end());
    risk.doomed.erase(std::unique(risk.doomed.begin(), risk.doomed.end()),
                      risk.doomed.end());
  }
  risk.campaign_steps = campaign_steps;
  return risk;
}

double RiskModel::expected_failures(double t_campaign, int nodes_used) const {
  if (node_mtbf_s <= 0.0) return 0.0;
  return static_cast<double>(nodes_used) * t_campaign / node_mtbf_s;
}

double RiskModel::recovery_cost_s(double per_step) const {
  return migration_cost_s + restart_cost_s +
         per_step * 0.5 * static_cast<double>(checkpoint_period);
}

double RiskModel::expected_makespan(double probe_makespan,
                                    std::uint64_t probe_steps, int nodes_used,
                                    int doomed_used) const {
  const double per_step =
      probe_makespan / static_cast<double>(probe_steps);
  const double nominal = per_step * static_cast<double>(campaign_steps);
  if (!active()) return nominal;
  const double recovery = recovery_cost_s(per_step);
  const double failures = expected_failures(nominal, nodes_used) +
                          static_cast<double>(doomed_used);
  return nominal + failures * recovery;
}

double RiskModel::adjust_objective(double objective, double probe_makespan,
                                   std::uint64_t probe_steps, int nodes_used,
                                   int doomed_used) const {
  if (!active() || probe_makespan <= 0.0) return objective;
  const double per_step =
      probe_makespan / static_cast<double>(probe_steps);
  const double nominal = per_step * static_cast<double>(campaign_steps);
  const double expected = expected_makespan(probe_makespan, probe_steps,
                                            nodes_used, doomed_used);
  return objective * nominal / expected;
}

rt::SimulatedOptions probe_scenario(const PlanOptions& options) {
  rt::SimulatedOptions scenario;
  // Jitter is the only per-sample randomness a probe carries: probe_view()
  // strips stochastic crash/transient injection, and the deterministic
  // capacity effects it keeps (stragglers, degradation windows,
  // replication cost) are seeded by the fault spec, not the replay seed.
  scenario.jitter_cv = options.jitter_cv;
  scenario.faults = options.faults.probe_view();
  scenario.recovery = options.recovery;
  scenario.trace_obs = false;
  return scenario;
}

std::vector<ScoredCandidate> risk_scored(const std::vector<BatchScore>& batch,
                                         const RiskModel& risk,
                                         std::uint64_t probe_steps,
                                         const std::vector<int>& doomed_used) {
  std::vector<ScoredCandidate> out;
  out.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const BatchScore& s = batch[i];
    ScoredCandidate c = s.scored();
    if (c.feasible && risk.active()) {
      const int doomed = i < doomed_used.size() ? doomed_used[i] : 0;
      c.objective =
          risk.adjust_objective(c.objective, s.eval.ensemble_makespan,
                                probe_steps, s.eval.nodes_used, doomed);
    }
    out.push_back(c);
  }
  return out;
}

int doomed_used_of(const RiskModel& risk, const Assignment& assignment) {
  if (risk.doomed.empty()) return 0;
  std::vector<int> used(assignment);
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  int count = 0;
  for (const int node : used) {
    if (std::binary_search(risk.doomed.begin(), risk.doomed.end(), node)) {
      ++count;
    }
  }
  return count;
}

int effective_pool(const ResourceBudget& budget, const PlanOptions& options) {
  WFE_REQUIRE(options.spare_nodes >= 0,
              "spare-node count must be non-negative");
  const int pool = budget.node_pool - options.spare_nodes;
  if (pool < 1) {
    throw SpecError(
        "spare-node headroom leaves no node to place the ensemble on");
  }
  return pool;
}

namespace {

/// The run's pool, after the checks every planning run makes; runs before
/// the evaluator (and its worker threads) exists.
int checked_pool(const EnsembleShape& shape,
                 const plat::PlatformSpec& platform,
                 const ResourceBudget& budget, const PlanOptions& options) {
  check_budget(shape, platform, budget);
  WFE_REQUIRE(options.probe_samples >= 1, "probe-samples must be at least 1");
  return effective_pool(budget, options);
}

}  // namespace

PlanRun::PlanRun(const EnsembleShape& shape,
                 const plat::PlatformSpec& platform,
                 const ResourceBudget& budget, const PlanOptions& options,
                 Space space)
    : shape_(shape),
      options_(options),
      risk_(RiskModel::of(options, shape.n_steps)),
      classes_(node_classes(platform, options.faults,
                            checked_pool(shape, platform, budget, options),
                            risk_.doomed)),
      candidates_(space == Space::kExhaustive
                      ? enumerate_assignments(slot_count(shape), classes_)
                      : std::vector<Assignment>{}),
      evaluator_(platform, probe_scenario(options), options.threads) {
  evaluator_.attach_shared_cache(options.shared_cache);
}

std::vector<ScoredCandidate> PlanRun::score(
    const std::vector<Assignment>& candidates) {
  std::vector<int> charges;
  if (!risk_.doomed.empty()) {
    charges.reserve(candidates.size());
    for (const Assignment& c : candidates) {
      charges.push_back(doomed_used_of(risk_, c));
    }
  }
  return risk_scored(
      evaluator_.score_assignments(shape_, candidates, options_.probe_steps,
                                   options_.probe_samples),
      risk_, options_.probe_steps, charges);
}

std::vector<std::optional<double>> PlanRun::sample(
    const std::vector<Assignment>& arms,
    const std::vector<BatchEvaluator::ArmSample>& requests) {
  const std::vector<BatchScore> draws = evaluator_.score_arm_samples(
      shape_, arms, requests, options_.probe_steps);
  std::vector<std::optional<double>> rewards(draws.size());
  for (std::size_t i = 0; i < draws.size(); ++i) {
    const BatchScore& d = draws[i];
    if (!d.feasible) continue;
    rewards[i] = risk_.adjust_objective(
        d.eval.objective, d.eval.ensemble_makespan, options_.probe_steps,
        d.eval.nodes_used, doomed_used_of(risk_, arms[requests[i].arm]));
  }
  return rewards;
}

Schedule PlanRun::schedule(std::string name, const Assignment& winner,
                           std::optional<std::size_t> samples) const {
  Schedule schedule;
  schedule.spec = place(shape_, winner);
  schedule.spec.n_steps = shape_.n_steps;  // probes used fewer steps
  schedule.scheduler = std::move(name);
  schedule.evaluations = evaluator_.evaluations();
  schedule.cache_hits = evaluator_.cache_hits();
  schedule.shared_hits = evaluator_.shared_hits();
  schedule.samples =
      samples.value_or(schedule.evaluations + schedule.cache_hits);
  return schedule;
}

}  // namespace wfe::sched
