#include "platform/interference.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/error.hpp"

namespace wfe::plat {

namespace {

/// Victim-independent terms of one stage: the exact values the pricing
/// expressions need per stage, so a batch hoists them once per stage
/// instead of once per victim×competitor pair without changing a bit.
struct StageTerms {
  const ComputeProfile* profile;
  double amdahl;   // Amdahl effective speedup on the stage's cores
  double inv_ipc;  // contention-free pipeline CPI (1 / base IPC)
  double ws;       // working set competing for the LLC
};

StageTerms terms_of(const ActiveStage& s) {
  WFE_REQUIRE(s.cores > 0, "a compute stage needs at least one core");
  WFE_REQUIRE(s.profile.instructions >= 0.0,
              "instruction count must be >= 0");
  return StageTerms{&s.profile,
                    amdahl_speedup(s.cores, s.profile.parallel_fraction),
                    1.0 / s.profile.base_ipc, s.profile.working_set_bytes};
}

/// Price stage `v` of an `n`-stage co-location set against the other
/// stages; `at(i)` yields stage i's terms. Competitors are walked in set
/// order, so the rounding depends only on that order.
template <typename TermsAt>
StageCost price_victim(const PlatformSpec& spec, std::size_t n,
                       std::size_t v, const TermsAt& at) {
  const NodeSpec& node = spec.node;
  // Memory-bandwidth demand (bytes/s) of a stage missing at ratio m:
  // instruction rate × LLC references × misses × cacheline.
  const auto demand = [&node](const StageTerms& t, double cpi, double m) {
    return node.core_freq_hz * t.amdahl / cpi * t.profile->llc_refs_per_instr *
           m * node.cacheline_bytes;
  };
  // CPI with cache effects only: pipeline + miss stalls at ratio m.
  const auto cache_cpi = [&node](const StageTerms& t, double m) {
    return t.inv_ipc +
           t.profile->llc_refs_per_instr * m * node.llc_miss_penalty_cycles;
  };

  const StageTerms vt = at(v);
  const ComputeProfile& victim = *vt.profile;
  // Cache pressure on the victim from everyone else on the node.
  double other_ws = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (j != v) other_ws += at(j).ws;
  }
  const double m_eff = effective_miss_ratio(spec, victim, other_ws);

  // Provisional CPIs with cache effects only estimate the aggregate
  // memory-bandwidth demand (avoids a fixed-point iteration; the
  // approximation is exact when bandwidth is unsaturated). Each
  // competitor's own pressure includes the victim and the other
  // competitors.
  double total_demand = demand(vt, cache_cpi(vt, m_eff), m_eff);
  if (spec.interference.enabled) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j == v) continue;
      const StageTerms ct = at(j);
      const double m_c =
          effective_miss_ratio(spec, *ct.profile, other_ws - ct.ws + vt.ws);
      total_demand += demand(ct, cache_cpi(ct, m_c), m_c);
    }
  }
  const double bw_factor =
      spec.interference.enabled
          ? std::max(1.0, total_demand / node.mem_bw_bytes_per_s)
          : 1.0;

  // Final CPI: pipeline + (possibly bandwidth-stretched) miss stalls.
  const double cpi_eff = vt.inv_ipc + victim.llc_refs_per_instr * m_eff *
                                          node.llc_miss_penalty_cycles *
                                          bw_factor;
  const double cpi_free = cache_cpi(vt, victim.base_miss_ratio);

  StageCost cost;
  cost.effective_miss_ratio = m_eff;
  cost.slowdown = cpi_eff / cpi_free;
  cost.seconds =
      victim.instructions * cpi_eff / (node.core_freq_hz * vt.amdahl);
  cost.counters.instructions = victim.instructions;
  cost.counters.cycles = victim.instructions * cpi_eff;
  cost.counters.llc_references =
      victim.instructions * victim.llc_refs_per_instr;
  cost.counters.llc_misses = cost.counters.llc_references * m_eff;
  return cost;
}

}  // namespace

double cache_pressure(const PlatformSpec& spec, double competitor_ws_bytes) {
  WFE_REQUIRE(competitor_ws_bytes >= 0.0, "working set must be non-negative");
  if (!spec.interference.enabled) return 0.0;
  const double scaled =
      spec.interference.capacity_sharing_strength * competitor_ws_bytes;
  return scaled / (scaled + spec.node.llc_bytes);
}

double effective_miss_ratio(const PlatformSpec& spec,
                            const ComputeProfile& victim,
                            double competitor_ws_bytes) {
  const double pressure = cache_pressure(spec, competitor_ws_bytes);
  const double headroom =
      std::max(0.0, spec.interference.max_miss_ratio - victim.base_miss_ratio);
  return std::min(spec.interference.max_miss_ratio,
                  victim.base_miss_ratio +
                      headroom * victim.cache_sensitivity * pressure);
}

void compute_stage_costs_batch(const PlatformSpec& spec,
                               std::span<const ActiveStage> stages,
                               std::span<StageCost> out) {
  WFE_REQUIRE(stages.size() == out.size(),
              "batch pricing needs one output slot per stage");
  std::vector<StageTerms> terms;
  terms.reserve(stages.size());
  for (const ActiveStage& s : stages) terms.push_back(terms_of(s));
  const auto at = [&terms](std::size_t i) -> const StageTerms& {
    return terms[i];
  };
  for (std::size_t v = 0; v < stages.size(); ++v) {
    out[v] = price_victim(spec, stages.size(), v, at);
  }
}

StageCost compute_stage_cost(const PlatformSpec& spec,
                             const ComputeProfile& victim, int cores,
                             std::span<const ActiveStage> competitors) {
  // The one-victim batch: the victim first, then the competitors in
  // order. Terms are derived on the fly instead of hoisted into scratch —
  // the same pure values, so the result is bitwise the batch's.
  const ActiveStage self{victim, cores};
  const auto at = [&](std::size_t i) {
    return terms_of(i == 0 ? self : competitors[i - 1]);
  };
  return price_victim(spec, competitors.size() + 1, 0, at);
}

}  // namespace wfe::plat
