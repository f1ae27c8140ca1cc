// BatchEvaluator: parallel, memoized candidate scoring.
//
// Fans a batch of candidate placements out to per-worker SimulatedExecutors
// (via wfe::exec::ThreadPool) and returns the scores in candidate order, so
// callers can reduce deterministically (see candidates.hpp::pick_winner).
//
// An evaluation memo-cache ensures a placement is never re-simulated once
// scored: exhaustive enumeration, greedy refinement rounds, and repeated
// bench sweeps all hit the cache instead. Each call computes one key prefix
// (platform, scenario, probe depth, demand and model digests) and keys each
// candidate by its canonical node list under it (eval_key.hpp); a spec is
// built only for a miss that actually replays, inside the worker that
// replays it. Cache lookups and inserts happen only on the calling thread,
// before and after the parallel section — the shared tier is locked once
// for a batch's lookups and once for its publishes — and workers touch
// nothing but their own evaluator and their own result slots, which keeps
// the whole layer race-free and the results bit-identical for any thread
// count.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "exec/thread_pool.hpp"
#include "platform/spec.hpp"
#include "sched/candidates.hpp"
#include "sched/eval_cache.hpp"
#include "sched/eval_key.hpp"
#include "sched/evaluator.hpp"
#include "sched/key_table.hpp"

namespace wfe::sched {

/// Score of one candidate. `feasible == false` means the placement failed
/// spec validation (oversubscribed node, out-of-range index) and was not
/// replayed. `cached` marks scores served without a fresh simulation.
struct BatchScore {
  bool feasible = false;
  bool cached = false;
  Evaluation eval;

  ScoredCandidate scored() const { return {feasible, eval.objective}; }
};

class BatchEvaluator {
 public:
  explicit BatchEvaluator(plat::PlatformSpec platform, int threads = 1);

  /// Score under a probe scenario (see Evaluator's scenario constructor).
  /// The scenario's fingerprint is folded into every memo key — local and
  /// shared tier alike — so scores memoized under one fault/recovery
  /// configuration are never reused for another.
  BatchEvaluator(plat::PlatformSpec platform, rt::SimulatedOptions scenario,
                 int threads);

  /// Score place(shape, assignment) for every assignment, in order.
  /// Assignments should be canonical (see candidates.hpp); equal canonical
  /// forms in one batch are simulated once.
  ///
  /// Fixed-budget sampling: with `samples > 1` on a stochastic scenario
  /// (jitter_cv > 0), each assignment's score is the mean of `samples`
  /// seeded draws (indices 0..samples-1, the score_arm_samples() keys):
  /// mean objective / makespan / efficiency, with nodes_used and
  /// feasibility — placement properties — taken from the first draw.
  /// Otherwise every assignment gets one plain replay, under the keys every
  /// other fixed-budget caller shares.
  std::vector<BatchScore> score_assignments(
      const EnsembleShape& shape, const std::vector<Assignment>& assignments,
      std::uint64_t probe_steps = 6, std::uint64_t samples = 1);

  /// Score pre-built specs (the enumeration benches). Memoization keys on
  /// the spec's canonicalized placement and demand, not its name — the
  /// same key score_assignments() gives the assignment placing it.
  std::vector<BatchScore> score_specs(
      const std::vector<rt::EnsembleSpec>& specs,
      std::uint64_t probe_steps = 6);

  /// One seeded sample of one arm: sample `index` of candidate
  /// `arms[arm]`. The replay seed is sample_seed(), so a sample is
  /// identified by value — bit-stable across runs, thread counts, and
  /// processes (the shared cache tier serves it on a warm rerun).
  struct ArmSample {
    std::size_t arm = 0;
    std::uint64_t index = 0;
  };

  /// Score stochastic probe samples, one BatchScore per request in
  /// request order. Each sample replays under its derived seed; the memo
  /// key folds that seed in, so distinct samples never alias and repeated
  /// samples (across rounds or processes) are never re-simulated. On a
  /// deterministic scenario every sample of an arm scores identically to
  /// score_assignments() on that arm — only the cache keys differ. Only
  /// the referenced arms are keyed, and only the misses are placed.
  std::vector<BatchScore> score_arm_samples(
      const EnsembleShape& shape, const std::vector<Assignment>& arms,
      const std::vector<ArmSample>& samples, std::uint64_t probe_steps = 6);

  /// The replay seed of sample `index` of `assignment`:
  /// Fnv1a::mix(PlacementKeys::sample_identity(...), index). Derived from
  /// the placement, the demand, the platform, the scenario and the probe
  /// depth — never from the model digest or the cache format.
  std::uint64_t sample_seed(const EnsembleShape& shape,
                            const Assignment& assignment, std::uint64_t index,
                            std::uint64_t probe_steps = 6);

  /// Simulated replays actually run (cache misses). Deterministic for a
  /// given call sequence, independent of the thread count.
  std::size_t evaluations() const;
  /// Scores served from the memo-cache (including within-batch duplicates).
  std::size_t cache_hits() const { return cache_hits_; }
  /// Of cache_hits(), scores served by the attached shared EvalCache tier
  /// (replays some other evaluator — possibly another process — paid for).
  std::size_t shared_hits() const { return shared_hits_; }
  /// Engine events dispatched across all replays (throughput metric).
  std::uint64_t events_processed() const;

  /// Attach a shared evaluation store (campaign runs pass the one they
  /// load and save). Misses of the local memo consult it before
  /// simulating and fresh scores are published back, so placements scored
  /// by any evaluator — including one in a previous process, via
  /// EvalCache::load — are never re-simulated. Pass nullptr to detach.
  /// Keys are identical in both tiers, so attachment cannot change any
  /// score, only where it is found.
  void attach_shared_cache(EvalCache* shared) { shared_ = shared; }

 private:
  /// Replays batch index i with a worker's evaluator into its score slot.
  using Replay =
      std::function<void(std::size_t i, const Evaluator& ev, BatchScore&)>;

  /// Serve what the memo tiers hold, replay the rest (within-batch
  /// duplicates once) through `replay`, publish the fresh scores.
  std::vector<BatchScore> score_keyed(const std::vector<std::uint64_t>& keys,
                                      const Replay& replay);

  /// The key prefix of one call: everything its candidates share.
  std::uint64_t prefix(std::uint64_t demand, std::uint64_t probe_steps) const {
    return key_prefix(platform_fp_, scenario_fp_, probe_steps, demand,
                      model_fp_);
  }

  exec::ThreadPool pool_;
  std::vector<Evaluator> evaluators_;  // one per worker, index = worker id
  std::uint64_t platform_fp_ = 0;
  std::uint64_t scenario_fp_ = 0;
  std::uint64_t model_fp_ = 0;
  bool stochastic_ = false;  // the scenario jitters: samples can differ
  PlacementKeys keys_;
  KeyTable<CachedEval> cache_;  // local memo tier
  std::size_t cache_hits_ = 0;
  std::size_t shared_hits_ = 0;
  EvalCache* shared_ = nullptr;  // optional second tier; not owned
};

}  // namespace wfe::sched
