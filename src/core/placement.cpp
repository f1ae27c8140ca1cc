#include "core/placement.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace wfe::core {

int MemberPlacement::total_cores() const {
  int total = sim.cores;
  for (const ComponentPlacement& a : analyses) total += a.cores;
  return total;
}

int MemberPlacement::node_count() const {
  // The size of the union, counted without building it: a node counts at
  // the first component that holds it.
  std::size_t count = sim.nodes.size();
  for (std::size_t j = 0; j < analyses.size(); ++j) {
    for (int n : analyses[j].nodes) {
      const bool earlier =
          sim.nodes.contains(n) ||
          std::any_of(analyses.begin(),
                      analyses.begin() + static_cast<std::ptrdiff_t>(j),
                      [n](const ComponentPlacement& a) {
                        return a.nodes.contains(n);
                      });
      if (!earlier) ++count;
    }
  }
  return static_cast<int>(count);
}

void MemberPlacement::validate() const {
  if (analyses.empty()) {
    throw SpecError("a member placement needs at least one analysis");
  }
  auto check = [](const ComponentPlacement& c, const char* what) {
    if (c.nodes.empty()) {
      throw SpecError(std::string(what) + " must run on at least one node");
    }
    if (c.cores <= 0) {
      throw SpecError(std::string(what) + " must use at least one core");
    }
    for (int n : c.nodes) {
      if (n < 0) throw SpecError("node indexes must be non-negative");
    }
  };
  check(sim, "simulation");
  for (const ComponentPlacement& a : analyses) check(a, "analysis");
}

namespace {
std::size_t union_size(const std::set<int>& a, const std::set<int>& b) {
  std::size_t extra = 0;
  for (int n : b) {
    if (!a.contains(n)) ++extra;
  }
  return a.size() + extra;
}
}  // namespace

double placement_indicator(const MemberPlacement& placement) {
  placement.validate();
  const auto s_size = static_cast<double>(placement.sim.nodes.size());
  double sum = 0.0;
  for (const ComponentPlacement& a : placement.analyses) {
    sum += 1.0 / static_cast<double>(union_size(placement.sim.nodes, a.nodes));
  }
  const auto k = static_cast<double>(placement.analyses.size());
  return s_size / k * sum;
}

bool is_colocated(const MemberPlacement& placement, std::size_t coupling) {
  placement.validate();
  WFE_REQUIRE(coupling < placement.analyses.size(),
              "coupling index out of range");
  return union_size(placement.sim.nodes,
                    placement.analyses[coupling].nodes) ==
         placement.sim.nodes.size();
}

}  // namespace wfe::core
