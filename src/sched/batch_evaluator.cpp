#include "sched/batch_evaluator.hpp"

#include <optional>
#include <utility>

#include "obs/recorder.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/str.hpp"

namespace wfe::sched {

namespace {

/// Replay under `seed` (the scenario's own seed when null). The replay
/// validates the spec, once; a spec that fails is marked infeasible and not
/// run. A spec already at `probe_steps` is replayed without a copy.
void replay_spec(const rt::EnsembleSpec& spec, const Evaluator& ev,
                 std::uint64_t probe_steps, const std::uint64_t* seed,
                 BatchScore& score) {
  try {
    score.eval = seed == nullptr ? ev.score(spec, probe_steps)
                                 : ev.score_seeded(spec, probe_steps, *seed);
    score.feasible = true;
  } catch (const SpecError&) {
    score.feasible = false;
  }
}

/// place(shape, assignment) at the probe depth.
rt::EnsembleSpec probe_spec(const EnsembleShape& shape,
                            const Assignment& assignment,
                            std::uint64_t probe_steps) {
  rt::EnsembleSpec spec = place(shape, assignment);
  spec.n_steps = probe_steps;
  return spec;
}

BatchScore served(const CachedEval& entry) {
  return {entry.feasible, true, entry.eval};
}

}  // namespace

BatchEvaluator::BatchEvaluator(plat::PlatformSpec platform, int threads)
    : BatchEvaluator(std::move(platform), rt::SimulatedOptions{}, threads) {}

BatchEvaluator::BatchEvaluator(plat::PlatformSpec platform,
                               rt::SimulatedOptions scenario, int threads)
    : pool_(threads),
      keys_(node_classes(platform, scenario.faults)) {
  platform.validate();
  platform_fp_ = platform.fingerprint();
  scenario_fp_ = scenario_fingerprint(scenario);
  model_fp_ = model_digest();
  stochastic_ = scenario.jitter_cv > 0.0;
  evaluators_.reserve(static_cast<std::size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    evaluators_.emplace_back(platform, scenario);
  }
}

std::vector<BatchScore> BatchEvaluator::score_keyed(
    const std::vector<std::uint64_t>& keys, const Replay& replay) {
  const std::size_t n = keys.size();
  std::vector<BatchScore> out(n);
  const bool traced = obs::enabled();
  const double b0 = traced ? obs::now_s() : 0.0;
  const std::size_t hits_before = cache_hits_;
  const std::size_t shared_before = shared_hits_;
  const std::size_t replays_before = traced ? evaluations() : 0;

  // Sequential phase 1: serve local memo hits and fold within-batch
  // duplicates onto their first occurrence; collect the unique rest.
  std::vector<std::size_t> unique;     // batch indices the memo lacks
  std::vector<std::size_t> dup_of(n);  // same-batch duplicate -> first index
  KeyTable<std::size_t> inflight;
  for (std::size_t i = 0; i < n; ++i) {
    dup_of[i] = i;
    if (const CachedEval* hit = cache_.find(keys[i])) {
      out[i] = served(*hit);
      ++cache_hits_;
    } else if (const std::size_t* first = inflight.find(keys[i])) {
      dup_of[i] = *first;
      ++cache_hits_;
    } else {
      inflight.try_insert(keys[i], i);
      unique.push_back(i);
    }
  }

  // Phase 2: the shared tier (scored by another evaluator, possibly another
  // process via EvalCache::load), one lock for the whole lookup pass. Hits
  // are promoted into the local memo so later batches skip the lock.
  std::vector<std::optional<CachedEval>> shared_found;
  if (shared_ != nullptr && !unique.empty()) {
    std::vector<std::uint64_t> unique_keys;
    unique_keys.reserve(unique.size());
    for (const std::size_t i : unique) unique_keys.push_back(keys[i]);
    shared_found = shared_->lookup(unique_keys);
  }
  std::vector<std::size_t> miss;  // batch indices to simulate
  for (std::size_t j = 0; j < unique.size(); ++j) {
    const std::size_t i = unique[j];
    if (!shared_found.empty() && shared_found[j]) {
      out[i] = served(*shared_found[j]);
      cache_.try_insert(keys[i], *shared_found[j]);
      ++cache_hits_;
      ++shared_hits_;
    } else {
      miss.push_back(i);
    }
  }

  // Parallel phase: each worker replays with its own evaluator and writes
  // only its claimed indices' slots. A lone miss (most of bai-search's
  // rounds) replays on the calling thread as worker 0: waking the pool for
  // it would add a barrier crossing and no parallelism.
  const auto run = [&](std::size_t j, int worker) {
    const std::size_t i = miss[j];
    const double w0 = traced ? obs::now_s() : 0.0;
    replay(i, evaluators_[static_cast<std::size_t>(worker)], out[i]);
    if (traced) {
      const double w1 = obs::now_s();
      obs::span(strprintf("sched/w%d", worker), "evaluate", w0, w1);
      obs::add_counter(strprintf("sched.w%d.busy_s", worker), w1, w1 - w0);
    }
  };
  if (miss.size() == 1) {
    run(0, 0);
  } else {
    pool_.for_each_index(miss.size(), run);
  }

  // Sequential phase 3: memoize fresh scores, publish them to the shared
  // tier in one pass, then resolve duplicates.
  std::vector<std::uint64_t> fresh_keys;
  std::vector<CachedEval> fresh;
  fresh_keys.reserve(miss.size());
  fresh.reserve(miss.size());
  for (const std::size_t i : miss) {
    fresh_keys.push_back(keys[i]);
    fresh.push_back({out[i].feasible, out[i].eval});
    cache_.try_insert(keys[i], fresh.back());
  }
  if (shared_ != nullptr && !miss.empty()) shared_->insert(fresh_keys, fresh);
  for (std::size_t i = 0; i < n; ++i) {
    if (dup_of[i] != i) {
      out[i] = out[dup_of[i]];
      out[i].cached = true;
    }
  }
  if (traced) {
    const double b1 = obs::now_s();
    obs::span("scheduler", "batch", b0, b1);
    obs::add_counter("sched.candidates", b1, static_cast<double>(n));
    const std::size_t replays = evaluations() - replays_before;
    obs::add_counter("sched.evaluations", b1, static_cast<double>(replays));
    obs::add_counter("sched.infeasible", b1,
                     static_cast<double>(miss.size() - replays));
    obs::add_counter("sched.memo_hits", b1,
                     static_cast<double>(cache_hits_ - hits_before));
    obs::add_counter("sched.shared_hits", b1,
                     static_cast<double>(shared_hits_ - shared_before));
  }
  return out;
}

std::vector<BatchScore> BatchEvaluator::score_assignments(
    const EnsembleShape& shape, const std::vector<Assignment>& assignments,
    std::uint64_t probe_steps, std::uint64_t samples) {
  WFE_REQUIRE(samples >= 1, "need at least one sample per assignment");
  if (stochastic_ && samples > 1) {
    std::vector<ArmSample> requests;
    requests.reserve(assignments.size() * samples);
    for (std::size_t a = 0; a < assignments.size(); ++a) {
      for (std::uint64_t k = 0; k < samples; ++k) requests.push_back({a, k});
    }
    const std::vector<BatchScore> draws =
        score_arm_samples(shape, assignments, requests, probe_steps);
    // Average each assignment's draws in index order (a fixed fp summation
    // order keeps the means bit-stable).
    std::vector<BatchScore> out(assignments.size());
    const double inv = 1.0 / static_cast<double>(samples);
    for (std::size_t a = 0; a < assignments.size(); ++a) {
      const std::size_t base = a * samples;
      BatchScore mean = draws[base];
      for (std::uint64_t k = 1; k < samples; ++k) {
        const BatchScore& d = draws[base + k];
        mean.eval.objective += d.eval.objective;
        mean.eval.ensemble_makespan += d.eval.ensemble_makespan;
        mean.eval.min_member_efficiency += d.eval.min_member_efficiency;
        mean.cached = mean.cached && d.cached;
      }
      if (mean.feasible) {
        mean.eval.objective *= inv;
        mean.eval.ensemble_makespan *= inv;
        mean.eval.min_member_efficiency *= inv;
      }
      out[a] = mean;
    }
    return out;
  }
  const std::size_t slots = slot_count(shape);
  const std::uint64_t plan = prefix(demand_digest(shape), probe_steps);
  std::vector<std::uint64_t> keys;
  keys.reserve(assignments.size());
  for (const Assignment& a : assignments) {
    WFE_REQUIRE(a.size() == slots,
                "assignment must hold one node per component");
    keys.push_back(keys_.of(plan, a));
  }
  const CoreDemand demand(shape, evaluators_.front().platform());
  return score_keyed(keys, [&](std::size_t i, const Evaluator& ev,
                               BatchScore& score) {
    if (demand.oversubscribed(assignments[i])) return;  // infeasible
    replay_spec(probe_spec(shape, assignments[i], probe_steps), ev,
                probe_steps, nullptr, score);
  });
}

std::vector<BatchScore> BatchEvaluator::score_specs(
    const std::vector<rt::EnsembleSpec>& specs, std::uint64_t probe_steps) {
  std::vector<std::uint64_t> keys;
  keys.reserve(specs.size());
  for (const rt::EnsembleSpec& s : specs) {
    keys.push_back(keys_.of(prefix(demand_digest(s), probe_steps), s));
  }
  return score_keyed(keys, [&](std::size_t i, const Evaluator& ev,
                               BatchScore& score) {
    replay_spec(specs[i], ev, probe_steps, nullptr, score);
  });
}

std::uint64_t BatchEvaluator::sample_seed(const EnsembleShape& shape,
                                          const Assignment& assignment,
                                          std::uint64_t index,
                                          std::uint64_t probe_steps) {
  return Fnv1a::mix(keys_.sample_identity(shape, assignment, probe_steps,
                                          platform_fp_, scenario_fp_),
                    index);
}

std::vector<BatchScore> BatchEvaluator::score_arm_samples(
    const EnsembleShape& shape, const std::vector<Assignment>& arms,
    const std::vector<ArmSample>& samples, std::uint64_t probe_steps) {
  // A sample is a value: its seed derives from the arm's identity and the
  // sample index, and its key folds that seed into the arm's evaluation
  // key — so the same (candidate, index) names the same replay everywhere.
  const std::uint64_t plan = prefix(demand_digest(shape), probe_steps);
  std::vector<std::uint64_t> keys;
  keys.reserve(samples.size());
  std::vector<std::uint64_t> seeds;
  seeds.reserve(samples.size());
  for (const ArmSample& s : samples) {
    WFE_REQUIRE(s.arm < arms.size(), "sample references an unknown arm");
    const Assignment& arm = arms[s.arm];
    const std::uint64_t seed = sample_seed(shape, arm, s.index, probe_steps);
    seeds.push_back(seed);
    keys.push_back(Fnv1a::mix(keys_.of(plan, arm), seed));
  }
  const CoreDemand demand(shape, evaluators_.front().platform());
  return score_keyed(keys, [&](std::size_t i, const Evaluator& ev,
                               BatchScore& score) {
    const Assignment& arm = arms[samples[i].arm];
    if (demand.oversubscribed(arm)) return;  // infeasible
    replay_spec(probe_spec(shape, arm, probe_steps), ev, probe_steps,
                &seeds[i], score);
  });
}

std::size_t BatchEvaluator::evaluations() const {
  std::size_t total = 0;
  for (const Evaluator& e : evaluators_) total += e.evaluations();
  return total;
}

std::uint64_t BatchEvaluator::events_processed() const {
  std::uint64_t total = 0;
  for (const Evaluator& e : evaluators_) total += e.events_processed();
  return total;
}

}  // namespace wfe::sched
