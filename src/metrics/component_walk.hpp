// One walk over a trace for the per-member measures: the §3.1 steady state
// (S*, W*, R*^j, A*^j) and the Table 1 member makespan.
//
// Every component of the walked members takes a slot, member by member: the
// member's simulation first, then its analyses in id order. The walk reads
// each record once. It puts the modelled stages into their component's two
// series (S and W, or R and A) and keeps each component's first start and
// last end. All series share two flat buffers, grouped by a counting sort,
// so no series allocates on its own. rt::assess lays the slots out from the
// spec; member_steady_state, member_makespan and ensemble_makespan lay them
// out from the component ids the trace holds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/stages.hpp"
#include "metrics/steady_state.hpp"
#include "metrics/trace.hpp"

namespace wfe::met {

class ComponentWalk {
 public:
  /// The spec's layout: member i couples analyses 0..analyses[i]-1, and
  /// component (i, j) sits in slot offset_i + j + 1. A record of a laid-out
  /// member whose analysis id the layout lacks is rejected
  /// (InvalidArgument); records of members past the layout are only
  /// counted, by members_seen().
  ComponentWalk(const Trace& trace, std::span<const std::size_t> analyses);

  /// Member `member`'s components as the trace holds them (ids may be
  /// sparse), as member 0 of the walk.
  static ComponentWalk of_member(const Trace& trace, std::uint32_t member);

  /// Every member of the trace, in member id order.
  static ComponentWalk of_trace(const Trace& trace);

  /// Members of the layout.
  std::size_t member_count() const { return member_begin_.size() - 1; }

  /// Distinct member ids among the trace's records, laid out or not.
  std::size_t members_seen() const;

  /// Member `member`'s steady state from the components it recorded.
  /// Throws InvalidArgument when it recorded nothing, when a recorded
  /// component lacks one of its two modelled stages, or when it has no
  /// simulation or no analysis component. Not const: the reduction works
  /// in a scratch buffer the walk owns.
  core::MemberSteady steady(std::size_t member,
                            const SteadyStateOptions& options);

  /// Table 1: the member's first simulation start to its last analysis
  /// end. Throws InvalidArgument when it has no simulation or no analysis
  /// records.
  double makespan(std::size_t member) const;

 private:
  struct Slot {
    ComponentId id;
    bool seen = false;      ///< the component recorded something
    double start = 0.0;     ///< earliest start of its records
    double end = 0.0;       ///< latest end of its records
    std::size_t begin[2]{};  ///< offset of each series in the buffers
    std::size_t size[2]{};   ///< length of each series
  };

  /// Lays member i's slots out at ids[member_begin[i]..member_begin[i+1])
  /// from sorted, unique component ids, and walks `trace` into them.
  ComponentWalk(const Trace& trace, std::vector<ComponentId> ids,
                std::vector<std::size_t> member_begin);

  /// The walk itself: `slot_of(record)` names the record's slot, or is
  /// negative for a record outside the layout.
  template <typename SlotOf>
  void walk(const Trace& trace, SlotOf slot_of);

  /// The steady value of series `k` of `slot`.
  double series_value(const Slot& slot, int k,
                      const SteadyStateOptions& options);

  std::vector<Slot> slots_;
  /// Member i's slots are [member_begin_[i], member_begin_[i + 1]).
  std::vector<std::size_t> member_begin_;
  std::vector<std::uint64_t> steps_;  ///< every series' steps, by series
  std::vector<double> durations_;     ///< every series' durations, by series
  std::vector<double> scratch_;       ///< one series' per-step sums
  std::vector<std::uint32_t> unlaid_;  ///< member ids past the layout
};

/// The steady value of one series sorted by step (a step's records in
/// trace order): each step's durations summed from 0.0 in that order into
/// `scratch` (at least as long as the series), the warm-up steps trimmed,
/// then the median or mean of the rest. `id` names the component in the
/// error thrown for an empty series.
double steady_value(std::span<const std::uint64_t> steps,
                    std::span<const double> durations,
                    std::span<double> scratch, const ComponentId& id,
                    const SteadyStateOptions& options);

/// Stable-sort a series by step, durations alongside, when it is out of
/// order (restarted steps of faulted runs are).
void sort_by_step(std::span<std::uint64_t> steps,
                  std::span<double> durations);

}  // namespace wfe::met
