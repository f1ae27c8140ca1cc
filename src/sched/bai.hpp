// BaiSearch: adaptive best-arm placement search.
//
// Exhaustive and greedy-refine spend the same replay budget on every
// candidate, even ones a handful of samples already rule out. On stochastic
// probe scenarios (PlanOptions::jitter_cv > 0) this scheduler treats each
// canonically distinct placement as a bandit arm and runs a LUCB-style
// best-arm identification: sample the empirical leader and its strongest
// challenger, maintain empirical-Bernstein confidence bounds per arm
// (arm_stats.hpp), eliminate arms whose upper bound falls below the
// leader's lower bound, and stop as soon as one arm dominates every
// survivor — or the sample budget (PlanOptions::max_samples, default: what
// the fixed-budget schedulers would spend) runs out. The saving is fewer
// fresh probe replays for an equal-or-better expected objective
// (BaiSearch.SavesFreshReplaysVsFixedBudgetAtEqualQuality gates both).
//
// Determinism contract:
//  * On a deterministic scenario (jitter_cv == 0) a candidate's objective
//    is a constant, so sampling degenerates to one probe per arm and the
//    search is the exhaustive reduction itself (exhaustive_winner) — same
//    memo keys, same canonical tie-break, bit-identical Schedule::spec
//    (golden-gated by tests/sched/test_bai.cpp).
//  * On stochastic scenarios each sample's replay seed derives from the
//    arm's FNV-1a candidate digest and the sample index (see
//    BatchEvaluator::score_arm_samples), and all sampling decisions happen
//    on the calling thread over batch results reduced in arm order — so
//    the winner is byte-identical across runs, processes, and planner
//    thread counts.
#pragma once

#include "sched/scheduler.hpp"

namespace wfe::sched {

class BaiSearch final : public Scheduler {
 public:
  std::string name() const override { return "bai-search"; }

  Schedule plan(const EnsembleShape& shape, const plat::PlatformSpec& platform,
                const ResourceBudget& budget,
                const PlanOptions& options = {}) const override;
};

}  // namespace wfe::sched
