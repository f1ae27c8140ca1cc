// Configuration-space generators: enumerate candidate placements.
//
// The paper's conclusion points at scheduling: "Future work will consider
// leveraging the proposed indicators for scheduling in situ components of
// a workflow ensemble under resource constraints." These generators feed
// that use case (examples/placement_explorer): they produce every distinct
// assignment of an ensemble's components to a node pool, so the indicator
// can rank them.
#pragma once

#include <vector>

#include "platform/spec.hpp"
#include "workload/paper_configs.hpp"

namespace wfe::wl {

struct EnumerationOptions {
  int members = 2;
  int analyses_per_member = 1;
  /// Nodes available to place onto (node indexes 0 .. node_pool-1).
  int node_pool = 3;
  /// Drop placements whose per-node core demand exceeds the platform node.
  bool skip_oversubscribed = true;
  /// Collapse placements equivalent under node relabeling (e.g. sim on n0
  /// vs sim on n1 with everything else mirrored).
  bool canonicalize = true;
};

/// All (canonically distinct, feasible) placements of the paper-shaped
/// ensemble (16-core GltPh-like sims, 8-core bipartite analyses). Names
/// encode the assignment, e.g. "s0a0|s1a1" for C1.5.
std::vector<NamedConfig> enumerate_placements(
    const plat::PlatformSpec& platform, const EnumerationOptions& options);

}  // namespace wfe::wl
