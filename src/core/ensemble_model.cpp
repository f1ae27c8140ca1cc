#include "core/ensemble_model.hpp"

#include <algorithm>
#include <vector>

#include "core/efficiency.hpp"
#include "core/insitu.hpp"
#include "core/objective.hpp"
#include "support/error.hpp"

namespace wfe::core {

EnsembleModel::EnsembleModel(std::vector<EnsembleMemberModel> members)
    : members_(std::move(members)) {
  if (members_.empty()) {
    throw SpecError("a workflow ensemble needs at least one member");
  }
  for (const EnsembleMemberModel& m : members_) {
    m.placement.validate();
    if (m.steady.analyses.size() != m.placement.analyses.size()) {
      throw SpecError(
          "steady state and placement disagree on the number of couplings");
    }
  }
}

const EnsembleMemberModel& EnsembleModel::member(std::size_t i) const {
  WFE_REQUIRE(i < members_.size(), "member index out of range");
  return members_[i];
}

int EnsembleModel::total_nodes() const {
  std::vector<int> nodes;
  for (const EnsembleMemberModel& m : members_) {
    const MemberPlacement& p = m.placement;
    nodes.insert(nodes.end(), p.sim.nodes.begin(), p.sim.nodes.end());
    for (const ComponentPlacement& a : p.analyses) {
      nodes.insert(nodes.end(), a.nodes.begin(), a.nodes.end());
    }
  }
  std::sort(nodes.begin(), nodes.end());
  return static_cast<int>(std::unique(nodes.begin(), nodes.end()) -
                          nodes.begin());
}

double EnsembleModel::member_efficiency(std::size_t i) const {
  return computational_efficiency(member(i).steady);
}

std::vector<double> EnsembleModel::member_indicators(
    IndicatorKind kind) const {
  const int m_nodes = total_nodes();  // M, once for every member
  std::vector<double> out;
  out.reserve(members_.size());
  for (const EnsembleMemberModel& m : members_) {
    out.push_back(member_indicator(computational_efficiency(m.steady),
                                   m.placement, m_nodes, kind));
  }
  return out;
}

double EnsembleModel::objective(IndicatorKind kind) const {
  const std::vector<double> p = member_indicators(kind);
  return core::objective(p);
}

double EnsembleModel::ensemble_makespan_model(std::uint64_t n_steps) const {
  double span = 0.0;
  for (const EnsembleMemberModel& m : members_) {
    span = std::max(span, member_makespan_model(m.steady, n_steps));
  }
  return span;
}

}  // namespace wfe::core
