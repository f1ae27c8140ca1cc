#include "sched/evaluator.hpp"

#include <algorithm>
#include <utility>

#include "support/error.hpp"
#include "support/hash.hpp"

namespace wfe::sched {

namespace {

rt::SimulatedOptions probe_options(rt::SimulatedOptions options = {}) {
  // Probe replays are an implementation detail of scoring: a planning
  // trace wants scheduler-level activity, not thousands of overlapping
  // candidate replays on the component tracks.
  options.trace_obs = false;
  return options;
}

}  // namespace

Evaluator::Evaluator(plat::PlatformSpec platform)
    : exec_(std::move(platform),
            probe_options()) {}  // the executor validates the platform

Evaluator::Evaluator(plat::PlatformSpec platform, rt::SimulatedOptions scenario)
    : exec_(std::move(platform), probe_options(std::move(scenario))) {}

std::uint64_t scenario_fingerprint(const rt::SimulatedOptions& options) {
  Fnv1a h;
  h.add(options.jitter_cv);
  h.add(options.seed);
  h.add(options.faults.digest());
  h.add(options.recovery.digest());
  return h.digest();
}

Evaluation Evaluator::score(const rt::EnsembleSpec& spec,
                            std::uint64_t probe_steps) const {
  return score_seeded(spec, probe_steps, exec_.options().seed);
}

Evaluation Evaluator::score_seeded(const rt::EnsembleSpec& spec,
                                   std::uint64_t probe_steps,
                                   std::uint64_t seed) const {
  WFE_REQUIRE(probe_steps >= 2, "probes need at least two steps");

  if (spec.n_steps != probe_steps) {
    rt::EnsembleSpec probe = spec;  // copy only for the n_steps override
    probe.n_steps = probe_steps;
    return score_seeded(probe, probe_steps, seed);
  }
  const rt::ExecutionResult result = exec_.run_seeded(spec, seed);
  events_ += result.events_processed;
  const rt::Assessment a = rt::assess(spec, result);
  ++evaluations_;

  Evaluation out;
  out.objective = a.objective(core::IndicatorKind::kUAP);
  out.ensemble_makespan = a.ensemble_makespan_measured;
  out.nodes_used = a.total_nodes;
  out.min_member_efficiency = 1.0;
  for (const auto& m : a.members) {
    out.min_member_efficiency =
        std::min(out.min_member_efficiency, m.efficiency);
  }
  return out;
}

}  // namespace wfe::sched
