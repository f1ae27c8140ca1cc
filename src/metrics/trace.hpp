// Stage-interval tracing: the TAU substitute.
//
// Both executors emit one StageRecord per fine-grained stage per in situ
// step — the same observables the paper collects with TAU (runtimes,
// performance counters) — and every downstream consumer (traditional
// metrics of Table 1, steady-state extraction, the efficiency model) reads
// from this one representation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/stages.hpp"
#include "platform/counters.hpp"
#include "support/lock_rank.hpp"

namespace wfe::met {

/// Identifies one ensemble component: the simulation of a member
/// (analysis == -1) or its analysis #j (analysis == j >= 0).
struct ComponentId {
  std::uint32_t member = 0;
  std::int32_t analysis = -1;

  bool is_simulation() const { return analysis < 0; }
  std::string str() const;

  friend bool operator==(const ComponentId&, const ComponentId&) = default;
  friend auto operator<=>(const ComponentId&, const ComponentId&) = default;
};

/// One executed stage interval.
struct StageRecord {
  ComponentId component;
  std::uint64_t step = 0;
  core::StageKind kind = core::StageKind::kSimulate;
  double start = 0.0;  ///< seconds (virtual time in simulated mode)
  double end = 0.0;
  /// Synthesized (simulated mode) or modelled (native mode) counters;
  /// zero for idle and I/O stages.
  plat::HwCounters counters;

  double duration() const { return end - start; }
};

class Trace;

/// The entry of `entries`, kept sorted by the projection `key_of`, whose
/// key is `key`; `T{key}` is inserted in its place when there is none. A
/// trace repeats a handful of ids over thousands of records, so its walks
/// collect them in a flat sorted vector, not a node-based set or map.
template <typename T, typename K, typename KeyOf = std::identity>
T& sorted_entry(std::vector<T>& entries, const K& key, KeyOf key_of = {}) {
  auto it = std::ranges::lower_bound(entries, key, {}, key_of);
  if (it == entries.end() || std::invoke(key_of, *it) != key) {
    it = entries.insert(it, T{key});
  }
  return *it;
}

/// Thread-safe appender used while an execution is in flight.
class TraceRecorder {
 public:
  void record(StageRecord record);

  /// Move the accumulated records out into an immutable Trace (sorted by
  /// start time, then component). The recorder is left empty.
  Trace take();

 private:
  using Mutex = support::RankedMutex<support::kRankMetricsTrace>;

  Mutex mutex_;
  std::vector<StageRecord> records_;
};

/// An immutable, queryable execution trace.
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<StageRecord> records);

  std::span<const StageRecord> records() const { return records_; }
  bool empty() const { return records_.empty(); }
  std::size_t size() const { return records_.size(); }

  /// Sorted unique component ids appearing in the trace.
  std::vector<ComponentId> components() const;

  /// Sorted unique member ids appearing in the trace.
  std::vector<std::uint32_t> members() const;

  /// All records of one component, in start order.
  std::vector<StageRecord> for_component(const ComponentId& id) const;

  /// Earliest stage start / latest stage end of a component.
  /// Throw InvalidArgument if the component has no records.
  double component_start(const ComponentId& id) const;
  double component_end(const ComponentId& id) const;

  /// Number of distinct steps recorded for a component.
  std::uint64_t step_count(const ComponentId& id) const;

  /// Aggregated hardware counters of a component over the whole run.
  plat::HwCounters component_counters(const ComponentId& id) const;

  /// Total time a component spent in one stage kind.
  double total_in_stage(const ComponentId& id, core::StageKind kind) const;

 private:
  std::vector<StageRecord> records_;
};

}  // namespace wfe::met
