#include "runtime/spec.hpp"

#include <algorithm>
#include <vector>

#include "support/error.hpp"
#include "support/str.hpp"

namespace wfe::rt {

core::MemberPlacement MemberSpec::placement() const {
  core::MemberPlacement p;
  p.sim.nodes = sim.nodes;
  p.sim.cores = sim.cores;
  for (const AnalysisSpec& a : analyses) {
    p.analyses.push_back(core::ComponentPlacement{a.nodes, a.cores});
  }
  return p;
}

int EnsembleSpec::total_nodes() const {
  std::vector<int> nodes;
  for (const MemberSpec& m : members) {
    nodes.insert(nodes.end(), m.sim.nodes.begin(), m.sim.nodes.end());
    for (const AnalysisSpec& a : m.analyses) {
      nodes.insert(nodes.end(), a.nodes.begin(), a.nodes.end());
    }
  }
  std::sort(nodes.begin(), nodes.end());
  return static_cast<int>(std::unique(nodes.begin(), nodes.end()) -
                          nodes.begin());
}

namespace {

/// Per-node concurrent core demand: components are all active in steady
/// state, so a node must fit the sum of its residents' core counts.
/// Components spanning several nodes contribute cores / |nodes| per node
/// (even spread), matching how MPI ranks would be distributed. Nodes
/// outside the platform are left to `validate` to report. Flat per-node
/// array, not a map: planners check thousands of candidates back to back.
std::vector<double> node_demand(const EnsembleSpec& spec,
                                const plat::PlatformSpec& platform) {
  std::vector<double> demand(
      static_cast<std::size_t>(std::max(platform.node_count, 0)), 0.0);
  const auto place = [&](const std::set<int>& nodes, int cores) {
    for (int n : nodes) {
      if (n < 0 || n >= platform.node_count) continue;
      demand[static_cast<std::size_t>(n)] +=
          static_cast<double>(cores) / static_cast<double>(nodes.size());
    }
  };
  for (const MemberSpec& m : spec.members) {
    place(m.sim.nodes, m.sim.cores);
    for (const AnalysisSpec& a : m.analyses) place(a.nodes, a.cores);
  }
  return demand;
}

}  // namespace

int EnsembleSpec::oversubscribed_node(
    const plat::PlatformSpec& platform) const {
  const std::vector<double> demand = node_demand(*this, platform);
  for (std::size_t node = 0; node < demand.size(); ++node) {
    if (demand[node] > static_cast<double>(platform.node.cores) + 1e-9) {
      return static_cast<int>(node);
    }
  }
  return -1;
}

void EnsembleSpec::validate(const plat::PlatformSpec& platform) const {
  platform.validate();
  if (members.empty()) {
    throw SpecError("a workflow ensemble needs at least one member");
  }
  if (n_steps == 0) {
    throw SpecError("a workflow ensemble executes at least one in situ step");
  }

  const auto check = [&](const std::set<int>& nodes, int cores,
                         const char* what) {
    if (nodes.empty()) {
      throw SpecError(std::string(what) + " must run on at least one node");
    }
    if (cores <= 0) {
      throw SpecError(std::string(what) + " must use at least one core");
    }
    for (int n : nodes) {
      if (n < 0 || n >= platform.node_count) {
        throw SpecError(strprintf("%s placed on node %d outside platform (%d nodes)",
                                  what, n, platform.node_count));
      }
    }
  };

  for (std::size_t i = 0; i < members.size(); ++i) {
    const MemberSpec& m = members[i];
    if (m.analyses.empty()) {
      throw SpecError(strprintf(
          "member %zu couples no analysis (the model needs K >= 1)", i));
    }
    if (m.sim.stride <= 0) {
      throw SpecError("the simulation stride must be positive");
    }
    if (m.buffer_capacity < 1) {
      throw SpecError("the staging buffer holds at least one chunk");
    }
    if (m.sim.natoms == 0) {
      throw SpecError("the modelled system needs at least one atom");
    }
    check(m.sim.nodes, m.sim.cores, "simulation");
    for (const AnalysisSpec& a : m.analyses) {
      check(a.nodes, a.cores, "analysis");
    }
  }

  if (const int node = oversubscribed_node(platform); node >= 0) {
    throw SpecError(strprintf(
        "node %d oversubscribed: %.1f cores demanded, %d available", node,
        node_demand(*this, platform)[static_cast<std::size_t>(node)],
        platform.node.cores));
  }
}

}  // namespace wfe::rt
