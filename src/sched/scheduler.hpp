// Scheduling ensembles of in situ workflows with the performance indicators.
//
// The paper's conclusion: "Future work will consider leveraging the
// proposed indicators for scheduling in situ components of a workflow
// ensemble under resource constraints." This module implements that step.
//
// A Scheduler receives an EnsembleShape — WHAT must run (members, component
// core counts, workload scale) without node assignments — plus the platform
// and a node budget, and returns a fully placed EnsembleSpec. Quality is
// judged by the Evaluator (replay on the modelled cluster, score with
// F(P^{U,A,P})), which is also what indicator-guided schedulers use
// internally.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "platform/spec.hpp"
#include "resilience/fault_spec.hpp"
#include "runtime/spec.hpp"

namespace wfe::sched {

class EvalCache;

/// One member's resource demand, before placement.
struct MemberShape {
  rt::SimulationSpec sim;               ///< nodes field ignored
  std::vector<rt::AnalysisSpec> analyses;  ///< nodes fields ignored
  int buffer_capacity = 1;              ///< carried through to the placement
};

/// A whole ensemble's demand.
struct EnsembleShape {
  std::string name = "ensemble";
  std::vector<MemberShape> members;
  std::uint64_t n_steps = 37;

  /// Convenience: the paper-shaped demand (16-core GltPh-like sims,
  /// 8-core bipartite analyses).
  static EnsembleShape paper_like(int members, int analyses_per_member,
                                  std::uint64_t n_steps = 37);

  /// Strip the placement off an already-placed ensemble: the demand that
  /// spec answers, ready to be re-planned (e.g. wfens_run --schedule).
  static EnsembleShape of(const rt::EnsembleSpec& spec);
};

/// The resources a schedule may use.
struct ResourceBudget {
  int node_pool = 3;  ///< nodes 0 .. node_pool-1 are available
};

/// Knobs of the planning run itself (not of the schedule it produces).
/// Thread count never changes the outcome: search evaluations fan out to a
/// worker pool but are reduced with a canonical tie-break (objective, then
/// lexicographic canonical placement), so any `threads` yields the same
/// winning schedule, objective, and evaluation count as `threads == 1`.
struct PlanOptions {
  int threads = 1;                ///< evaluation workers (>= 1)
  std::uint64_t probe_steps = 6;  ///< in situ steps per probe replay

  /// Run-to-run variability priced into probe replays (lognormal stage
  /// noise, see rt::SimulatedOptions::jitter_cv). 0 (default) keeps probes
  /// deterministic; > 0 makes every candidate's objective a random
  /// variable that the replay-guided schedulers sample with seeds derived
  /// from the candidate's FNV-1a digest — deterministic for any thread
  /// count, but a genuine per-sample draw.
  double jitter_cv = 0.0;

  /// Seeded draws averaged per candidate when the probe scenario is
  /// stochastic (jitter_cv > 0): the fixed-budget rule of
  /// BatchEvaluator::score_assignments, which exhaustive, greedy-refine and
  /// the re-planner's repair targets all score through. 1 keeps the
  /// historical one-replay-per-candidate behavior; larger values buy noise
  /// reduction at probe_samples× the replay cost. Ignored on deterministic
  /// probes, but must be at least 1 (every planning run checks it first).
  std::uint64_t probe_samples = 1;

  /// Total sample budget for the adaptive best-arm scheduler
  /// ("bai-search") on stochastic probes. 0 (default) = what exhaustive
  /// would spend on the same candidate set: probe_samples × arm count.
  /// Never binds below one sample per arm. Unused on deterministic probes,
  /// where bai-search is the exhaustive reduction.
  std::uint64_t max_samples = 0;

  /// Optional shared evaluation store consulted before any fresh probe
  /// replay and fed every fresh score (see EvalCache). Callers that plan
  /// many times pass one store, so placements scored by any scheduler — or
  /// any previous process via EvalCache::load — are never re-simulated.
  /// Never changes a planned placement, only what it costs.
  EvalCache* shared_cache = nullptr;

  /// Scenario the probe replays price (replay-guided schedulers only):
  /// stragglers, network-degradation windows, and the replication write
  /// cost. Stochastic crash/transient injection is stripped via
  /// FaultSpec::probe_view() — the risk model accounts for it analytically.
  /// Straggler windows open per node, so under straggler probes no two
  /// nodes are interchangeable (node_classes(), candidates.hpp) and the
  /// exhaustive searches score every labelling: pool^slots candidates.
  res::FaultSpec faults;
  res::RecoveryPolicy recovery;

  /// Risk-aware objective variant (--risk-aware): discount each candidate
  /// by its expected makespan under the node failure distribution (MTBF
  /// from `faults`, recovery costs from `recovery`) instead of ranking by
  /// the fault-free objective alone.
  bool risk_aware = false;

  /// Spare-node provisioning knob: hold this many nodes of the budget back
  /// from placement as migration headroom for node deaths.
  int spare_nodes = 0;
};

/// A placement decision with provenance.
struct Schedule {
  rt::EnsembleSpec spec;    ///< fully placed, validated ensemble
  std::string scheduler;    ///< which algorithm produced it
  std::size_t evaluations = 0;  ///< simulated replays spent planning
  /// Probe scores served from the evaluation memo-cache instead of being
  /// re-simulated (0 for schedulers that never replay).
  std::size_t cache_hits = 0;
  /// Of cache_hits, scores served by the attached shared EvalCache tier
  /// (PlanOptions::shared_cache) — replays another scheduler or process
  /// already paid for.
  std::size_t shared_hits = 0;
  /// Probe samples the search allocated (fresh or cached). Equals
  /// evaluations + cache_hits for the fixed-budget schedulers; for
  /// bai-search the gap to the fixed budget is the adaptive saving.
  std::size_t samples = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  /// Place `shape` on at most `budget.node_pool` nodes of `platform`.
  /// Throws wfe::SpecError if the demand cannot fit the budget at all.
  virtual Schedule plan(const EnsembleShape& shape,
                        const plat::PlatformSpec& platform,
                        const ResourceBudget& budget,
                        const PlanOptions& options = {}) const = 0;
};

/// The checks every scheduler makes before planning: a demand with at
/// least one member and a pool of 1..platform.node_count nodes. Throws
/// wfe::InvalidArgument.
void check_budget(const EnsembleShape& shape,
                  const plat::PlatformSpec& platform,
                  const ResourceBudget& budget);

/// Build the placed spec from per-component node choices, in the fixed
/// order [m0.sim, m0.ana0, m0.ana1, ..., m1.sim, ...]. Shared by every
/// scheduler implementation.
rt::EnsembleSpec place(const EnsembleShape& shape,
                       const std::vector<int>& assignment);

/// Factory: "greedy-colocate", "greedy-refine", "exhaustive", "bai-search",
/// "round-robin", "random".
std::unique_ptr<Scheduler> make_scheduler(const std::string& name);

}  // namespace wfe::sched
