#include "core/indicators.hpp"

#include "support/error.hpp"

namespace wfe::core {

const char* to_string(IndicatorKind kind) {
  switch (kind) {
    case IndicatorKind::kU:
      return "P^U";
    case IndicatorKind::kUA:
      return "P^{U,A}";
    case IndicatorKind::kUP:
      return "P^{U,P}";
    case IndicatorKind::kUAP:
      return "P^{U,A,P}";
    case IndicatorKind::kUPA:
      return "P^{U,P,A}";
  }
  return "?";
}

namespace {

/// E_i / c_i of Eq. (5), after checking the member's inputs.
double usage(double efficiency, const MemberPlacement& placement,
             int ensemble_nodes) {
  placement.validate();
  WFE_REQUIRE(ensemble_nodes >= 1,
              "the ensemble uses at least one node (M >= 1)");
  WFE_REQUIRE(ensemble_nodes >= placement.node_count(),
              "M cannot be smaller than the member's own node count");
  return efficiency / static_cast<double>(placement.total_cores());
}

/// Eq. (7): P^U * CP_i.
double usage_allocation(double efficiency, const MemberPlacement& placement,
                        int ensemble_nodes) {
  return usage(efficiency, placement, ensemble_nodes) *
         placement_indicator(placement);
}

}  // namespace

double indicator_u(const MemberIndicatorInputs& in) {
  return member_indicator(in, IndicatorKind::kU);
}

double indicator_ua(const MemberIndicatorInputs& in) {
  return member_indicator(in, IndicatorKind::kUA);
}

double indicator_up(const MemberIndicatorInputs& in) {
  return member_indicator(in, IndicatorKind::kUP);
}

double indicator_uap(const MemberIndicatorInputs& in) {
  return member_indicator(in, IndicatorKind::kUAP);
}

double member_indicator(const MemberIndicatorInputs& in, IndicatorKind kind) {
  return member_indicator(in.efficiency, in.placement, in.ensemble_nodes,
                          kind);
}

double member_indicator(double efficiency, const MemberPlacement& placement,
                        int ensemble_nodes, IndicatorKind kind) {
  const auto m = static_cast<double>(ensemble_nodes);
  switch (kind) {
    case IndicatorKind::kU:
      return usage(efficiency, placement, ensemble_nodes);
    case IndicatorKind::kUA:
      return usage_allocation(efficiency, placement, ensemble_nodes);
    case IndicatorKind::kUP:
      return usage(efficiency, placement, ensemble_nodes) / m;
    case IndicatorKind::kUAP:
    case IndicatorKind::kUPA:
      return usage_allocation(efficiency, placement, ensemble_nodes) / m;
  }
  throw InvalidArgument("unknown indicator kind");
}

}  // namespace wfe::core
