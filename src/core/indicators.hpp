// Multi-stage performance indicators — Eqs. (5), (7), (8) and the
// alternative stage order of §5.2.
//
// The paper refines a member's indicator in stages, each adding a layer of
// information:
//   U  (resource usage,        Eq. 5):  P^U       = E_i / c_i
//   A  (resource allocation,   Eq. 7):  P^{U,A}   = P^U * CP_i
//   P  (resource provisioning, Eq. 8):  P^{U,A,P} = P^{U,A} / M
// and, following the alternative path evaluated in §5.2:
//              P^{U,P} = P^U / M,   P^{U,P,A} = P^{U,P} * CP_i
// with P^{U,P,A} == P^{U,A,P} (the layers commute).
#pragma once

#include <string>

#include "core/placement.hpp"
#include "core/stages.hpp"

namespace wfe::core {

/// Which layers are stacked on top of the usage stage.
enum class IndicatorKind {
  kU,    ///< P^U
  kUA,   ///< P^{U,A}
  kUP,   ///< P^{U,P}
  kUAP,  ///< P^{U,A,P}  (== P^{U,P,A})
  kUPA,  ///< P^{U,P,A}  (== P^{U,A,P}; kept distinct for reporting §5.2)
};

const char* to_string(IndicatorKind kind);

/// Everything needed to compute any indicator stage for one member.
struct MemberIndicatorInputs {
  double efficiency = 0.0;      ///< E_i, from Eq. (3)
  MemberPlacement placement;    ///< c_i, s_i, a_i^j
  int ensemble_nodes = 1;       ///< M: nodes used by the entire ensemble
};

/// Eq. (5): P^U = E_i / c_i.
double indicator_u(const MemberIndicatorInputs& in);

/// Eq. (7): P^{U,A} = (E_i / c_i) * CP_i.
double indicator_ua(const MemberIndicatorInputs& in);

/// §5.2 path (1): P^{U,P} = P^U / M.
double indicator_up(const MemberIndicatorInputs& in);

/// Eq. (8): P^{U,A,P} = (E_i / (c_i M)) * CP_i.
double indicator_uap(const MemberIndicatorInputs& in);

/// Dispatch on the stage chain.
double member_indicator(const MemberIndicatorInputs& in, IndicatorKind kind);

/// The same from the inputs' parts, so a caller holding a placement need
/// not copy it into a MemberIndicatorInputs.
double member_indicator(double efficiency, const MemberPlacement& placement,
                        int ensemble_nodes, IndicatorKind kind);

}  // namespace wfe::core
