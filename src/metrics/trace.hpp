// Stage-interval tracing: the TAU substitute.
//
// Both executors emit one StageRecord per fine-grained stage per in situ
// step — the same observables the paper collects with TAU (runtimes,
// performance counters) — and every downstream consumer (traditional
// metrics of Table 1, steady-state extraction, the efficiency model) reads
// from this one representation.
#pragma once

#include <array>
#include <cstdint>
#include <map>
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

/// Columnar (SoA) stage buffer for the replay hot path.
///
/// A push appends to parallel arrays (component / step / kind / start / end)
/// instead of constructing a StageRecord per event; HwCounters — which only
/// compute stages (S/A) carry — live in a dense side array referenced by a
/// sparse slot column, and a per-buffer running total plus per-kind counts
/// are maintained incrementally so end-of-run accounting flushes one
/// accumulator instead of re-walking every stage. `take_trace()` materializes
/// the rows in insertion order and applies the exact `(start, component)`
/// stable sort of `Trace(std::vector<StageRecord>)`, so the merged trace is
/// byte-identical to recording AoS records directly (proven by
/// tests/metrics/test_stage_columns.cpp). Single-threaded by design: replays
/// are independent deterministic simulations, so unlike TraceRecorder there
/// is no lock on the push path.
class StageColumns {
 public:
  /// Pre-size every column for `n` stages (the replay pre-sizes from
  /// n_steps × components so steady-state pushes never reallocate).
  void reserve(std::size_t n) {
    if (n > capacity_) grow(n);
  }

  /// Append a counter-less stage (idle, I/O, fault bookkeeping): one
  /// capacity check, then plain column stores — the columns share the size
  /// counter, so there is no per-vector bounds bookkeeping.
  void push(const ComponentId& component, std::uint64_t step,
            core::StageKind kind, double start, double end) {
    if (size_ == capacity_) grow(capacity_ == 0 ? 64 : capacity_ * 2);
    component_[size_] = component;
    step_[size_] = step;
    kind_[size_] = kind;
    start_[size_] = start;
    end_[size_] = end;
    counter_slot_[size_] = 0;
    ++kind_counts_[static_cast<std::size_t>(kind)];
    ++size_;
  }

  /// Append a compute stage carrying synthesized counters.
  void push(const ComponentId& component, std::uint64_t step,
            core::StageKind kind, double start, double end,
            const plat::HwCounters& counters) {
    if (size_ == capacity_) grow(capacity_ == 0 ? 64 : capacity_ * 2);
    counters_.push_back(counters);
    total_ += counters;
    component_[size_] = component;
    step_[size_] = step;
    kind_[size_] = kind;
    start_[size_] = start;
    end_[size_] = end;
    counter_slot_[size_] = static_cast<std::uint32_t>(counters_.size());
    ++kind_counts_[static_cast<std::size_t>(kind)];
    ++size_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Running sum of every pushed HwCounters — the per-replay accumulator
  /// flushed once into ExecutionResult instead of per stage.
  const plat::HwCounters& counter_total() const { return total_; }

  /// Stages pushed so far of one kind.
  std::uint64_t kind_count(core::StageKind kind) const {
    return kind_counts_[static_cast<std::size_t>(kind)];
  }

  /// Capacity-retaining reset (reuse across replays).
  void clear();

  /// Materialize the columns into an immutable Trace (same `(start,
  /// component)` stable sort as the AoS constructor) and reset the buffer,
  /// retaining capacity. The sort runs over a 4-byte index permutation of
  /// the columns rather than the 72-byte materialized records; a stable
  /// sort's output is uniquely determined by the comparator, so the result
  /// is byte-identical to sorting the records themselves.
  Trace take_trace();

 private:
  /// Grow every column to at least `n` slots (size_ stays put; the columns
  /// are plain slot arrays indexed by the shared size counter).
  void grow(std::size_t n);

  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::vector<ComponentId> component_;
  std::vector<std::uint64_t> step_;
  std::vector<core::StageKind> kind_;
  std::vector<double> start_;
  std::vector<double> end_;
  /// 1-based index into counters_; 0 = the stage carries no counters.
  std::vector<std::uint32_t> counter_slot_;
  std::vector<plat::HwCounters> counters_;
  /// Scratch permutation reused across take_trace() calls.
  std::vector<std::uint32_t> order_;
  plat::HwCounters total_;
  std::array<std::uint64_t, core::kStageKindCount> kind_counts_{};
};

/// An immutable, queryable execution trace.
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<StageRecord> records);

  /// Adopt records that are ALREADY in the `(start, component)` stable
  /// order the sorting constructor produces — no re-sort. Used by
  /// StageColumns::take_trace(), which sorts a column-index permutation
  /// and materializes records directly in final order.
  static Trace from_sorted(std::vector<StageRecord> records);

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
