// Component placement descriptors and the placement indicator — Eq. (6).
//
// Mirrors the paper's notation (Table 3): the simulation Sim_i of member
// EM_i runs with cs_i cores on the node set s_i; analysis Ana_i^j runs with
// ca_i^j cores on the node set a_i^j.
#pragma once

#include <set>
#include <vector>

namespace wfe::core {

/// Where one ensemble component runs: which nodes, and how many cores.
struct ComponentPlacement {
  std::set<int> nodes;  ///< node indexes (s_i for a simulation, a_i^j for an analysis)
  int cores = 1;        ///< cs_i / ca_i^j
};

/// Placement of a whole ensemble member: one simulation, K analyses.
struct MemberPlacement {
  ComponentPlacement sim;
  std::vector<ComponentPlacement> analyses;

  /// c_i = cs_i + sum_j ca_i^j.
  int total_cores() const;

  /// d_i = | s_i  U  union_j a_i^j |.
  int node_count() const;

  /// Throws wfe::SpecError if any component has no nodes or no cores.
  void validate() const;
};

/// Eq. (6): CP_i = (|s_i| / K_i) * sum_j 1 / |s_i U a_i^j|.
///
/// CP_i is in (0, 1]; CP_i = 1 iff every analysis is fully co-located with
/// the simulation (a_i^j a subset of s_i); it shrinks as components spread
/// over more dedicated nodes.
double placement_indicator(const MemberPlacement& placement);

/// True iff coupling j of the member is co-located with its simulation,
/// i.e. |s_i| == |s_i U a_i^j| (the paper's co-location criterion, §4.3).
bool is_colocated(const MemberPlacement& placement, std::size_t coupling);

}  // namespace wfe::core
