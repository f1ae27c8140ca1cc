// Tests for the stateful cluster registry.
#include "platform/cluster.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "support/error.hpp"

namespace wfe::plat {
namespace {

PlatformSpec spec(int nodes = 4) {
  PlatformSpec s;
  s.node_count = nodes;
  return s;
}

ComputeProfile profile(double ws = 50e6) {
  ComputeProfile p;
  p.instructions = 1e9;
  p.working_set_bytes = ws;
  return p;
}

TEST(Cluster, ValidatesSpecOnConstruction) {
  PlatformSpec bad = spec();
  bad.node_count = 0;
  EXPECT_THROW(Cluster{bad}, SpecError);
}

TEST(Cluster, NodeCountExposed) {
  Cluster c(spec(6));
  EXPECT_EQ(c.node_count(), 6);
}

TEST(Cluster, RejectsOutOfRangeNode) {
  Cluster c(spec(2));
  EXPECT_THROW((void)c.occupancy_epoch(2), InvalidArgument);
  EXPECT_THROW((void)c.begin_compute(-1, profile(), 1), InvalidArgument);
  EXPECT_THROW((void)c.active_count(5), InvalidArgument);
}

TEST(Cluster, BeginEndTracksActiveCount) {
  Cluster c(spec());
  EXPECT_EQ(c.active_count(0), 0u);
  const auto h1 = c.begin_compute(0, profile(), 8);
  const auto h2 = c.begin_compute(0, profile(), 4);
  EXPECT_EQ(c.active_count(0), 2u);
  EXPECT_EQ(c.active_cores(0), 12);
  c.end_compute(h1);
  EXPECT_EQ(c.active_count(0), 1u);
  EXPECT_EQ(c.active_cores(0), 4);
  c.end_compute(h2);
  EXPECT_EQ(c.active_count(0), 0u);
}

TEST(Cluster, EndUnknownHandleThrows) {
  Cluster c(spec());
  EXPECT_THROW(c.end_compute(999), InvalidArgument);
}

TEST(Cluster, EndTwiceThrows) {
  Cluster c(spec());
  const auto h = c.begin_compute(0, profile(), 1);
  c.end_compute(h);
  EXPECT_THROW(c.end_compute(h), InvalidArgument);
}

TEST(Cluster, StageCostSeesCoLocatedCompetitors) {
  Cluster c(spec());
  const auto h = c.begin_compute(0, profile(), 8);
  const StageCost alone = c.resident_cost(h);
  c.begin_compute(0, profile(100e6), 8);
  const StageCost shared = c.resident_cost(h);
  EXPECT_GT(shared.seconds, alone.seconds);
}

TEST(Cluster, StageCostIgnoresOtherNodes) {
  Cluster c(spec());
  const auto h = c.begin_compute(0, profile(), 8);
  const StageCost alone = c.resident_cost(h);
  c.begin_compute(1, profile(100e6), 8);
  const StageCost still_alone = c.resident_cost(h);
  EXPECT_DOUBLE_EQ(alone.seconds, still_alone.seconds);
}

TEST(Cluster, StageCostExcludingSelfResidency) {
  Cluster c(spec());
  const auto self = c.begin_compute(0, profile(200e6), 8);
  // A resident never competes with itself: alone on its node it prices as
  // if the node were empty.
  const StageCost& excl = c.resident_cost(self);
  EXPECT_DOUBLE_EQ(excl.slowdown, 1.0);
  // Counting the own registered working set as a competitor would slow it.
  const std::vector<ActiveStage> own{{profile(200e6), 8}};
  const StageCost incl =
      compute_stage_cost(c.spec(), profile(200e6), 8, own);
  EXPECT_GT(incl.seconds, excl.seconds);
}

TEST(Cluster, TransferLocalUsesCopyBandwidth) {
  Cluster c(spec());
  const double bytes = 1e9;
  EXPECT_DOUBLE_EQ(c.transfer_time(2, 2, bytes),
                   bytes / c.spec().node.copy_bw_bytes_per_s);
}

TEST(Cluster, TransferRemoteCostsMoreThanLocal) {
  Cluster c(spec());
  const double bytes = 10e6;
  EXPECT_GT(c.transfer_time(0, 1, bytes), c.transfer_time(0, 0, bytes));
}

TEST(Cluster, OccupancyEpochMovesOnlyWhenTheNodeChanges) {
  Cluster c(spec());
  const auto e0 = c.occupancy_epoch(0);
  const auto e1 = c.occupancy_epoch(1);
  const auto h = c.begin_compute(0, profile(), 4);
  EXPECT_GT(c.occupancy_epoch(0), e0);
  EXPECT_EQ(c.occupancy_epoch(1), e1) << "other nodes stay untouched";
  const auto after_begin = c.occupancy_epoch(0);
  // Pricing reads never move the epoch.
  (void)c.resident_cost(h);
  (void)c.resident_cost(h);
  EXPECT_EQ(c.occupancy_epoch(0), after_begin);
  c.end_compute(h);
  EXPECT_GT(c.occupancy_epoch(0), after_begin);
}

TEST(Cluster, ResidentCostMatchesScalarExcludingBitwise) {
  // The cached batch pricing must be bitwise equal to compute_stage_cost
  // of the resident against the other residents, listed by hand in
  // registration order — across occupancy changes, which invalidate the
  // cache and force a re-price.
  Cluster c(spec());
  const ActiveStage s1{profile(40e6), 8};
  const ActiveStage s2{profile(90e6), 4};
  const ActiveStage s3{profile(120e6), 2};
  const auto h1 = c.begin_compute(0, s1.profile, s1.cores);
  const auto h2 = c.begin_compute(0, s2.profile, s2.cores);
  const auto check = [&](std::uint64_t h, const ActiveStage& self,
                         const std::vector<ActiveStage>& others) {
    const StageCost& cached = c.resident_cost(h);
    const StageCost scalar =
        compute_stage_cost(c.spec(), self.profile, self.cores, others);
    EXPECT_EQ(std::memcmp(&cached, &scalar, sizeof(StageCost)), 0);
  };
  check(h1, s1, {s2});
  check(h2, s2, {s1});
  // Occupancy change: a third resident arrives, both cached prices must
  // re-price (and still match the hand-built competitor lists).
  const auto h3 = c.begin_compute(0, s3.profile, s3.cores);
  check(h1, s1, {s2, s3});
  check(h2, s2, {s1, s3});
  check(h3, s3, {s1, s2});
  // And after a departure.
  c.end_compute(h2);
  check(h1, s1, {s3});
  check(h3, s3, {s1});
}

TEST(Cluster, ResidentCostIsServedFromCacheUntilTheEpochMoves) {
  Cluster c(spec());
  const auto h = c.begin_compute(0, profile(), 8);
  const StageCost* first = &c.resident_cost(h);
  const double alone_seconds = first->seconds;
  // Same storage on a cache hit: repeated lookups between occupancy
  // changes return the identical cached object, not a re-price.
  EXPECT_EQ(first, &c.resident_cost(h));
  c.begin_compute(0, profile(), 2);
  // After the epoch moved the entry is re-priced (value equality is
  // covered above; here we only require the lookup to stay valid —
  // `first` may dangle once the cache repopulates, so compare by value).
  const StageCost& repriced = c.resident_cost(h);
  EXPECT_GE(repriced.seconds, alone_seconds);
}

TEST(Cluster, OversubscriptionDetection) {
  PlatformSpec s = spec();
  s.node.cores = 16;
  Cluster c(s);
  c.begin_compute(0, profile(), 12);
  EXPECT_FALSE(c.would_oversubscribe(0, 4));
  EXPECT_TRUE(c.would_oversubscribe(0, 5));
  EXPECT_FALSE(c.would_oversubscribe(1, 16));
}

}  // namespace
}  // namespace wfe::plat
