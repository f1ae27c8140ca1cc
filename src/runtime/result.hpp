// Execution results shared by both executors.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/kernel.hpp"
#include "metrics/trace.hpp"
#include "obs/counters.hpp"
#include "platform/health.hpp"
#include "resilience/fault_spec.hpp"

namespace wfe::rt {

/// Output of one executor run: the stage trace (the universal observable)
/// plus, in native mode, the real collective-variable series every analysis
/// produced.
struct ExecutionResult {
  met::Trace trace;
  std::uint64_t n_steps = 0;

  /// Discrete events the simulation engine dispatched to produce this run
  /// (0 in native mode). Deterministic for equal inputs; the perf benches
  /// report it as events/sec.
  std::uint64_t events_processed = 0;

  struct AnalysisSeries {
    met::ComponentId component;
    std::vector<ana::AnalysisResult> results;
  };
  /// Empty in simulated mode (no real kernels run there).
  std::vector<AnalysisSeries> analysis_outputs;

  /// What fault injection did to this run (all zeros when injection was
  /// disabled or in native mode). `failure_summary.complete()` is false
  /// when at least one member was abandoned — its trace and indicators
  /// then describe a partial execution.
  res::FailureSummary failure_summary;

  /// Node health transitions observed during the replay, in discovery
  /// order (empty when injection was disabled or no node ever left
  /// kHealthy). Degradations are recorded when a stage first prices them;
  /// deaths when a component first trips over them.
  std::vector<plat::HealthEvent> health_events;

  /// Snapshot of the observability counter registry at the end of the run.
  /// Empty unless an obs::Session was active while the executor ran.
  obs::CounterSnapshot counters;
};

}  // namespace wfe::rt
