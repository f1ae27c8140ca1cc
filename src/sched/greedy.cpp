#include "sched/greedy.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "support/error.hpp"
#include "support/str.hpp"

namespace wfe::sched {

namespace {

struct NodeState {
  int index = 0;
  int free_cores = 0;
  bool used = false;
};

/// Best-fit among nodes with enough room: prefer used nodes with the least
/// leftover space (packs tightly, keeps M small); open a fresh node only
/// when no used node fits.
int best_fit(std::vector<NodeState>& nodes, int cores,
             int preferred_node = -1) {
  if (preferred_node >= 0 &&
      nodes[static_cast<std::size_t>(preferred_node)].free_cores >= cores) {
    return preferred_node;
  }
  int best = -1;
  for (const NodeState& n : nodes) {
    if (n.free_cores < cores) continue;
    if (!n.used) continue;
    if (best < 0 ||
        n.free_cores < nodes[static_cast<std::size_t>(best)].free_cores) {
      best = n.index;
    }
  }
  if (best >= 0) return best;
  for (const NodeState& n : nodes) {
    if (!n.used && n.free_cores >= cores) return n.index;
  }
  return -1;
}

void commit(std::vector<NodeState>& nodes, int node, int cores) {
  auto& n = nodes[static_cast<std::size_t>(node)];
  n.free_cores -= cores;
  n.used = true;
}

struct Layout {
  std::vector<std::size_t> order;      ///< members, most demanding first
  std::vector<std::size_t> slot_base;  ///< first slot of each member
  std::size_t slots = 0;
};

Layout layout_of(const EnsembleShape& shape) {
  Layout l;
  l.order.resize(shape.members.size());
  std::iota(l.order.begin(), l.order.end(), 0u);
  auto member_cores = [&](std::size_t i) {
    int total = shape.members[i].sim.cores;
    for (const auto& a : shape.members[i].analyses) total += a.cores;
    return total;
  };
  std::stable_sort(l.order.begin(), l.order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return member_cores(a) > member_cores(b);
                   });
  l.slot_base.resize(shape.members.size());
  for (std::size_t i = 0; i < shape.members.size(); ++i) {
    l.slot_base[i] = l.slots;
    l.slots += 1 + shape.members[i].analyses.size();
  }
  return l;
}

std::vector<NodeState> fresh_pool(const plat::PlatformSpec& platform,
                                  int node_pool) {
  std::vector<NodeState> nodes;
  for (int i = 0; i < node_pool; ++i) {
    nodes.push_back({i, platform.node.cores, false});
  }
  return nodes;
}

}  // namespace

std::optional<std::vector<int>> colocated_assignment(
    const EnsembleShape& shape, const plat::PlatformSpec& platform,
    const ResourceBudget& budget) {
  const Layout l = layout_of(shape);
  std::vector<NodeState> nodes = fresh_pool(platform, budget.node_pool);
  std::vector<int> assignment(l.slots, -1);

  for (std::size_t i : l.order) {
    const MemberShape& m = shape.members[i];
    int whole = m.sim.cores;
    for (const auto& a : m.analyses) whole += a.cores;

    // Rule 1: the whole member on one node if possible (CP = 1). Prefer a
    // FRESH node: co-locating the member with pieces of other members
    // would trade its neighbours' contention for no CP gain.
    int node = -1;
    for (const NodeState& n : nodes) {
      if (n.used || n.free_cores < whole) continue;
      node = n.index;
      break;
    }
    if (node < 0) node = best_fit(nodes, whole);
    if (node >= 0) {
      commit(nodes, node, whole);
      assignment[l.slot_base[i]] = node;
      for (std::size_t j = 0; j < m.analyses.size(); ++j) {
        assignment[l.slot_base[i] + 1 + j] = node;
      }
      continue;
    }

    // Rule 2: split — simulation first, analyses hugging it.
    const int sim_node = best_fit(nodes, m.sim.cores);
    if (sim_node < 0) return std::nullopt;
    commit(nodes, sim_node, m.sim.cores);
    assignment[l.slot_base[i]] = sim_node;
    for (std::size_t j = 0; j < m.analyses.size(); ++j) {
      const int ana_node = best_fit(nodes, m.analyses[j].cores, sim_node);
      if (ana_node < 0) return std::nullopt;
      commit(nodes, ana_node, m.analyses[j].cores);
      assignment[l.slot_base[i] + 1 + j] = ana_node;
    }
  }
  return assignment;
}

/// Feasibility fallback for tight bin-packing cases the co-location-first
/// pass cannot solve. Sacrifices CP where it must, in exchange for fitting
/// the budget.
std::optional<std::vector<int>> sims_first_assignment(
    const EnsembleShape& shape, const plat::PlatformSpec& platform,
    const ResourceBudget& budget) {
  const Layout l = layout_of(shape);
  std::vector<NodeState> nodes = fresh_pool(platform, budget.node_pool);
  std::vector<int> assignment(l.slots, -1);

  for (std::size_t i : l.order) {
    const int sim_node = best_fit(nodes, shape.members[i].sim.cores);
    if (sim_node < 0) return std::nullopt;
    commit(nodes, sim_node, shape.members[i].sim.cores);
    assignment[l.slot_base[i]] = sim_node;
  }
  for (std::size_t i : l.order) {
    const MemberShape& m = shape.members[i];
    const int sim_node = assignment[l.slot_base[i]];
    for (std::size_t j = 0; j < m.analyses.size(); ++j) {
      const int ana_node = best_fit(nodes, m.analyses[j].cores, sim_node);
      if (ana_node < 0) return std::nullopt;
      commit(nodes, ana_node, m.analyses[j].cores);
      assignment[l.slot_base[i] + 1 + j] = ana_node;
    }
  }
  return assignment;
}

Schedule GreedyColocation::plan(const EnsembleShape& shape,
                                const plat::PlatformSpec& platform,
                                const ResourceBudget& budget,
                                const PlanOptions& /*options*/) const {
  check_budget(shape, platform, budget);

  std::optional<std::vector<int>> assignment =
      colocated_assignment(shape, platform, budget);
  if (!assignment) assignment = sims_first_assignment(shape, platform, budget);
  if (!assignment) {
    throw SpecError(strprintf(
        "greedy-colocate: the ensemble does not fit the %d-node budget "
        "(neither co-location-first nor sims-first packing succeeded)",
        budget.node_pool));
  }

  Schedule schedule;
  schedule.spec = place(shape, *assignment);
  schedule.spec.validate(platform);
  schedule.scheduler = name();
  schedule.evaluations = 0;
  return schedule;
}

}  // namespace wfe::sched
