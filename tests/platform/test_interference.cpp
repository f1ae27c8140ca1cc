// Tests for the co-location interference model: the mechanisms behind the
// paper's Figure 3 (miss ratios / IPC under co-location).
#include "platform/interference.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace wfe::plat {
namespace {

PlatformSpec spec() {
  PlatformSpec s;
  s.node.llc_bytes = 64.0 * 1024 * 1024;
  return s;
}

ComputeProfile sim_like() {
  ComputeProfile p;
  p.instructions = 1e10;
  p.base_ipc = 1.8;
  p.llc_refs_per_instr = 0.004;
  p.base_miss_ratio = 0.04;
  p.working_set_bytes = 128e6;
  p.cache_sensitivity = 0.08;
  p.parallel_fraction = 0.97;
  return p;
}

ComputeProfile ana_like() {
  ComputeProfile p;
  p.instructions = 1e9;
  p.base_ipc = 1.4;
  p.llc_refs_per_instr = 0.10;
  p.base_miss_ratio = 0.10;
  p.working_set_bytes = 64e6;
  p.cache_sensitivity = 0.12;
  p.parallel_fraction = 0.92;
  return p;
}

TEST(Amdahl, OneCoreIsUnity) { EXPECT_EQ(amdahl_speedup(1, 0.9), 1.0); }

TEST(Amdahl, PerfectlyParallelScalesLinearly) {
  EXPECT_DOUBLE_EQ(amdahl_speedup(8, 1.0), 8.0);
}

TEST(Amdahl, FullySerialNeverScales) {
  EXPECT_DOUBLE_EQ(amdahl_speedup(16, 0.0), 1.0);
}

TEST(Amdahl, MonotoneInCores) {
  double prev = 0.0;
  for (int c : {1, 2, 4, 8, 16, 32}) {
    const double s = amdahl_speedup(c, 0.92);
    EXPECT_GT(s, prev);
    prev = s;
  }
}

TEST(Amdahl, BoundedBySerialFraction) {
  EXPECT_LT(amdahl_speedup(1'000'000, 0.9), 10.0 + 1e-6);
}

TEST(CachePressure, ZeroCompetitorsZeroPressure) {
  EXPECT_EQ(cache_pressure(spec(), 0.0), 0.0);
}

TEST(CachePressure, MonotoneInCompetitorWorkingSet) {
  double prev = -1.0;
  for (double ws : {0.0, 1e6, 1e7, 1e8, 1e9}) {
    const double p = cache_pressure(spec(), ws);
    EXPECT_GT(p, prev);
    EXPECT_LT(p, 1.0);
    prev = p;
  }
}

TEST(CachePressure, DisabledInterferenceGivesZero) {
  PlatformSpec s = spec();
  s.interference.enabled = false;
  EXPECT_EQ(cache_pressure(s, 1e9), 0.0);
}

TEST(CachePressure, HalfAtWorkingSetEqualLlc) {
  PlatformSpec s = spec();
  s.interference.capacity_sharing_strength = 1.0;
  EXPECT_DOUBLE_EQ(cache_pressure(s, s.node.llc_bytes), 0.5);
}

TEST(EffectiveMissRatio, BaseWithoutCompetitors) {
  EXPECT_DOUBLE_EQ(effective_miss_ratio(spec(), ana_like(), 0.0),
                   ana_like().base_miss_ratio);
}

TEST(EffectiveMissRatio, NeverExceedsMax) {
  PlatformSpec s = spec();
  s.interference.max_miss_ratio = 0.5;
  ComputeProfile victim = ana_like();
  victim.cache_sensitivity = 1.0;
  EXPECT_LE(effective_miss_ratio(s, victim, 1e12), 0.5);
}

TEST(EffectiveMissRatio, SensitiveVictimSuffersMore) {
  ComputeProfile sensitive = ana_like();
  sensitive.cache_sensitivity = 0.5;
  ComputeProfile tough = ana_like();
  tough.cache_sensitivity = 0.05;
  EXPECT_GT(effective_miss_ratio(spec(), sensitive, 1e8),
            effective_miss_ratio(spec(), tough, 1e8));
}

TEST(StageCost, RejectsZeroCores) {
  EXPECT_THROW(
      (void)compute_stage_cost(spec(), sim_like(), 0, {}),
      InvalidArgument);
}

TEST(StageCost, AloneMeansNoSlowdown) {
  const StageCost c = compute_stage_cost(spec(), sim_like(), 16, {});
  EXPECT_DOUBLE_EQ(c.slowdown, 1.0);
  EXPECT_DOUBLE_EQ(c.effective_miss_ratio, sim_like().base_miss_ratio);
}

TEST(StageCost, CompetitorsSlowTheVictim) {
  const std::vector<ActiveStage> comp{{sim_like(), 16}};
  const StageCost alone = compute_stage_cost(spec(), ana_like(), 8, {});
  const StageCost shared = compute_stage_cost(spec(), ana_like(), 8, comp);
  EXPECT_GT(shared.seconds, alone.seconds);
  EXPECT_GT(shared.slowdown, 1.0);
  EXPECT_GT(shared.effective_miss_ratio, alone.effective_miss_ratio);
}

TEST(StageCost, DisabledInterferenceIgnoresCompetitors) {
  PlatformSpec s = spec();
  s.interference.enabled = false;
  const std::vector<ActiveStage> comp{{sim_like(), 16}, {ana_like(), 8}};
  const StageCost alone = compute_stage_cost(s, ana_like(), 8, {});
  const StageCost shared = compute_stage_cost(s, ana_like(), 8, comp);
  EXPECT_DOUBLE_EQ(alone.seconds, shared.seconds);
}

TEST(StageCost, MoreCoresRunFaster) {
  const StageCost c8 = compute_stage_cost(spec(), ana_like(), 8, {});
  const StageCost c16 = compute_stage_cost(spec(), ana_like(), 16, {});
  EXPECT_LT(c16.seconds, c8.seconds);
}

TEST(StageCost, CountersAreConsistent) {
  const StageCost c = compute_stage_cost(spec(), ana_like(), 8, {});
  EXPECT_DOUBLE_EQ(c.counters.instructions, ana_like().instructions);
  EXPECT_DOUBLE_EQ(c.counters.llc_references,
                   ana_like().instructions * ana_like().llc_refs_per_instr);
  EXPECT_NEAR(c.counters.llc_miss_ratio(), c.effective_miss_ratio, 1e-12);
  EXPECT_GT(c.counters.ipc(), 0.0);
  EXPECT_LT(c.counters.ipc(), ana_like().base_ipc);
}

TEST(StageCost, IpcDropsUnderContention) {
  const std::vector<ActiveStage> comp{{sim_like(), 16}};
  const StageCost alone = compute_stage_cost(spec(), ana_like(), 8, {});
  const StageCost shared = compute_stage_cost(spec(), ana_like(), 8, comp);
  EXPECT_LT(shared.counters.ipc(), alone.counters.ipc());
}

TEST(StageCost, SimulationTimeIsContentionTolerant) {
  // The calibrated premise behind Figures 3 vs 4: co-location visibly
  // raises the simulation's miss ratio but barely stretches its time.
  const std::vector<ActiveStage> comp{{ana_like(), 8}};
  const StageCost alone = compute_stage_cost(spec(), sim_like(), 16, {});
  const StageCost shared = compute_stage_cost(spec(), sim_like(), 16, comp);
  EXPECT_GT(shared.effective_miss_ratio, 1.2 * alone.effective_miss_ratio);
  EXPECT_LT(shared.slowdown, 1.10);
}

TEST(StageCost, HwCountersAddUp) {
  HwCounters a{100.0, 200.0, 10.0, 2.0};
  HwCounters b{50.0, 100.0, 5.0, 1.0};
  const HwCounters c = a + b;
  EXPECT_DOUBLE_EQ(c.instructions, 150.0);
  EXPECT_DOUBLE_EQ(c.cycles, 300.0);
  EXPECT_DOUBLE_EQ(c.ipc(), 0.5);
  EXPECT_DOUBLE_EQ(c.llc_miss_ratio(), 0.2);
  EXPECT_DOUBLE_EQ(c.memory_intensity(), 3.0 / 150.0);
}

TEST(StageCost, EmptyCountersGiveZeroRatios) {
  HwCounters z;
  EXPECT_EQ(z.ipc(), 0.0);
  EXPECT_EQ(z.llc_miss_ratio(), 0.0);
  EXPECT_EQ(z.memory_intensity(), 0.0);
}

// -- batched kernel ----------------------------------------------------------

std::vector<ActiveStage> fuzzed_set(std::uint64_t seed, std::size_t n) {
  Xoshiro256 rng(seed);
  std::vector<ActiveStage> set;
  set.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ComputeProfile p = (rng.below(2) == 0) ? sim_like() : ana_like();
    // Perturb so no two stages are identical: exercises the per-victim
    // exclusion, not just symmetric sets.
    p.working_set_bytes *= 0.5 + rng.uniform01();
    p.llc_refs_per_instr *= 0.5 + rng.uniform01();
    p.cache_sensitivity *= rng.uniform01();
    set.push_back({p, static_cast<int>(1 + rng.below(16))});
  }
  return set;
}

TEST(StageCostBatch, BitIdenticalToScalarOnFuzzedSets) {
  // The contract Cluster::resident_cost relies on: batch pricing of a
  // node's whole co-location set must be BITWISE equal to pricing each
  // victim with the one-victim entry point against the others. memcmp on
  // the full StageCost (all doubles, incl. synthesized counters) — a
  // victim's position in the set, or hoisted versus on-the-fly terms,
  // must not move a bit.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::size_t n = 1 + seed % 7;
    const std::vector<ActiveStage> set = fuzzed_set(seed, n);
    std::vector<StageCost> batch(n);
    compute_stage_costs_batch(spec(), set, batch);
    for (std::size_t v = 0; v < n; ++v) {
      std::vector<ActiveStage> others;
      for (std::size_t i = 0; i < n; ++i) {
        if (i != v) others.push_back(set[i]);
      }
      const StageCost scalar =
          compute_stage_cost(spec(), set[v].profile, set[v].cores, others);
      EXPECT_EQ(std::memcmp(&batch[v], &scalar, sizeof(StageCost)), 0)
          << "seed " << seed << " victim " << v;
    }
  }
}

TEST(StageCostBatch, EmptyAndSingletonSets) {
  std::vector<StageCost> none;
  compute_stage_costs_batch(spec(), {}, none);  // no-op, must not crash
  const std::vector<ActiveStage> one{{ana_like(), 8}};
  std::vector<StageCost> out(1);
  compute_stage_costs_batch(spec(), one, out);
  const StageCost scalar = compute_stage_cost(spec(), ana_like(), 8, {});
  EXPECT_EQ(std::memcmp(&out[0], &scalar, sizeof(StageCost)), 0);
}

// Property sweep: slowdown grows monotonically with the number of
// co-located competitors.
class CompetitorSweep : public ::testing::TestWithParam<int> {};

TEST_P(CompetitorSweep, SlowdownMonotoneInCompetitorCount) {
  std::vector<ActiveStage> comp;
  double prev = 0.0;
  for (int i = 0; i <= GetParam(); ++i) {
    const StageCost c = compute_stage_cost(spec(), ana_like(), 8, comp);
    if (i > 0) EXPECT_GE(c.slowdown, prev - 1e-12);
    prev = c.slowdown;
    comp.push_back({ana_like(), 8});
  }
}

INSTANTIATE_TEST_SUITE_P(UpTo, CompetitorSweep, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace wfe::plat
