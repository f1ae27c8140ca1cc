// Stateful cluster: tracks which compute stages are active on every node and
// prices each of them against the others on its node.
//
// The SimulatedExecutor registers every component partition as a node
// resident for the whole run and prices its stages through the resident
// handle:
//   auto h = cluster.begin_compute(node, profile, cores);  // occupy
//   const StageCost& c = cluster.resident_cost(h);         // price, per stage
//   ... virtual time advances by the priced seconds ...
//   cluster.end_compute(h);                                // leave (migration)
//
// A resident's working set keeps occupying the shared LLC even while it
// briefly idles, so residency, not instantaneous activity, drives
// steady-state contention (a standard discrete-event approximation; the
// steady-state phases the paper's model relies on make it accurate because
// co-location sets are stable across in situ steps).
//
// Because co-location sets only change at begin/end_compute (residents are
// registered once per run and move only on migration), each node carries an
// occupancy epoch and a cached batch pricing of all its residents:
// `resident_cost(handle)` is a lookup unless the node's occupancy changed
// since the last pricing — see PERF.md §6.
#pragma once

#include <cstdint>
#include <vector>

#include "platform/interference.hpp"
#include "platform/spec.hpp"

namespace wfe::plat {

class Cluster {
 public:
  /// Validates and stores the spec.
  explicit Cluster(PlatformSpec spec);

  const PlatformSpec& spec() const { return spec_; }
  int node_count() const { return spec_.node_count; }

  /// Cached price of the active stage `handle` against the other active
  /// stages of its node: bitwise `compute_stage_cost` of the handle's
  /// registered profile and cores against the node's other stages in
  /// registration order. The node's whole co-location set is priced in one
  /// `compute_stage_costs_batch` pass the first time any of its residents
  /// asks after an occupancy change, then served from cache.
  const StageCost& resident_cost(std::uint64_t handle) const;

  /// Mark a compute stage active; returns a handle for end_compute.
  std::uint64_t begin_compute(int node, const ComputeProfile& profile,
                              int cores);

  /// Mark a stage inactive. Throws InvalidArgument on an unknown handle.
  void end_compute(std::uint64_t handle);

  /// Monotonic counter bumped every time `node`'s co-location set changes
  /// (begin/end_compute). Cached pricings are valid exactly as long as this
  /// does not move.
  std::uint64_t occupancy_epoch(int node) const;

  /// Time to move `bytes` between two placements: same node -> memory copy;
  /// different nodes -> network transfer (topology model).
  double transfer_time(int src_node, int dst_node, double bytes) const;

  /// Number of active compute stages on a node.
  std::size_t active_count(int node) const;

  /// Sum of cores of active compute stages on a node.
  int active_cores(int node) const;

  /// True if starting `cores` more on `node` would exceed its core count.
  bool would_oversubscribe(int node, int cores) const;

 private:
  void check_node(int node) const;
  const ActiveStage& stage_of(std::uint64_t handle) const {
    return slots_[static_cast<std::size_t>(handle - 1)].stage;
  }

  PlatformSpec spec_;
  struct Record {
    int node = 0;
    bool live = false;
    ActiveStage stage;
  };
  /// Slot storage indexed by handle-1; handles are never reused, so a slot
  /// with live == false stays a tombstone. Replays create a fresh Cluster
  /// each, and residents register once per run, so growth is bounded by the
  /// partition count plus migrations — no free-list needed.
  std::vector<Record> slots_;
  std::vector<std::vector<std::uint64_t>> by_node_;
  /// Per-node occupancy epochs, starting at 1 so the never-priced cache
  /// sentinel (epoch 0) is always stale.
  std::vector<std::uint64_t> node_epoch_;
  struct NodeCache {
    std::uint64_t epoch = 0;
    std::vector<ActiveStage> stages;
    std::vector<StageCost> costs;
  };
  mutable std::vector<NodeCache> cache_;
};

}  // namespace wfe::plat
