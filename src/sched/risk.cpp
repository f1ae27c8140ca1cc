#include "sched/risk.hpp"

#include <algorithm>

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

int doomed_used_after_avoidance(const RiskModel& risk, int nodes_used,
                                int pool) {
  int doomed_in_pool = 0;
  for (const int node : risk.doomed) {
    if (node >= 0 && node < pool) ++doomed_in_pool;
  }
  const int healthy = pool - doomed_in_pool;
  return std::max(0, nodes_used - healthy);
}

int doomed_used_of(const RiskModel& risk, const Assignment& assignment) {
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

Assignment avoid_doomed(const Assignment& assignment, int pool,
                        const RiskModel& risk) {
  if (risk.doomed.empty()) return assignment;
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(pool));
  for (int node = 0; node < pool; ++node) {
    if (!std::binary_search(risk.doomed.begin(), risk.doomed.end(), node)) {
      order.push_back(node);
    }
  }
  for (const int node : risk.doomed) {
    if (node >= 0 && node < pool) order.push_back(node);
  }
  Assignment mapped;
  mapped.reserve(assignment.size());
  for (const int node : assignment) {
    WFE_REQUIRE(node >= 0 && node < static_cast<int>(order.size()),
                "canonical node id outside the pool");
    mapped.push_back(order[static_cast<std::size_t>(node)]);
  }
  return mapped;
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

}  // namespace wfe::sched
