// Workflow-ensemble specification: what to run, and where.
//
// Encodes the paper's experimental vocabulary (Tables 2 and 4): a workflow
// ensemble is N members; each member is one simulation coupled with K
// analyses; every component is pinned to a set of node indexes with a core
// count. The same spec drives both executors — the simulated executor uses
// the cost-model fields, the native executor the real-engine fields.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "analysis/cost_model.hpp"
#include "core/placement.hpp"
#include "mdsim/cost_model.hpp"
#include "mdsim/engine.hpp"
#include "platform/spec.hpp"

namespace wfe::rt {

/// One analysis component (Ana_i^j).
struct AnalysisSpec {
  std::set<int> nodes;  ///< a_i^j
  int cores = 8;        ///< ca_i^j
  /// Kernel name for native execution ("bipartite-eigen", "rmsd", "rgyr",
  /// "contacts").
  std::string kernel = "bipartite-eigen";
  /// Cost model for simulated execution.
  ana::AnalysisCostParams cost;
};

/// The simulation component (Sim_i).
struct SimulationSpec {
  std::set<int> nodes;  ///< s_i
  int cores = 16;       ///< cs_i
  /// Modelled workload scale (simulated mode): atoms in the system.
  std::size_t natoms = 250'000;
  /// MD steps per in situ step (the paper's stride).
  int stride = 800;
  /// Cost model for simulated execution.
  md::MdCostParams cost;
  /// Real-engine configuration for native execution.
  md::MdConfig native;
};

/// One ensemble member EM_i.
struct MemberSpec {
  SimulationSpec sim;
  std::vector<AnalysisSpec> analyses;
  /// Staging-buffer depth of the member's coupling: how many published-
  /// but-undrained chunks may be in flight. 1 reproduces the paper's
  /// no-buffering protocol (W_{i+1} waits for every R_i); larger values
  /// are the buffering extension studied by bench_ext_buffering.
  int buffer_capacity = 1;

  /// Convert to the core model's placement descriptor.
  core::MemberPlacement placement() const;
};

/// The workflow ensemble.
struct EnsembleSpec {
  std::string name = "ensemble";
  std::vector<MemberSpec> members;
  /// Number of in situ steps every member executes (the paper runs 30 000
  /// MD steps at stride 800 -> 37 in situ steps).
  std::uint64_t n_steps = 37;

  /// M: distinct nodes referenced by any component.
  int total_nodes() const;

  /// All validation: at least one member, one coupling per member, node
  /// indexes within the platform, positive core counts, and no node
  /// oversubscribed (the steady state keeps all components concurrently
  /// active, so per-node core demand is the sum over resident components).
  /// Throws wfe::SpecError.
  void validate(const plat::PlatformSpec& platform) const;

  /// The lowest node whose summed core demand exceeds its cores, or -1 when
  /// every node fits; the demand check of `validate`, without throwing.
  /// Nodes outside the platform are skipped: `validate` rejects them.
  int oversubscribed_node(const plat::PlatformSpec& platform) const;
};

}  // namespace wfe::rt
