// Node-level fault domains end-to-end: a permanent node death kills the
// resident member's work, loses un-replicated staged chunks, and migrates
// the member to a survivor — deterministically, with the health transitions
// on the record.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "metrics/traditional.hpp"
#include "platform/health.hpp"
#include "runtime/simulated_executor.hpp"
#include "workload/presets.hpp"

namespace wfe::rt {
namespace {

using core::StageKind;

/// Two members, member i pinned to node i.
EnsembleSpec spread_spec(std::uint64_t steps = 6) {
  EnsembleSpec spec;
  spec.n_steps = steps;
  for (int i = 0; i < 2; ++i) {
    MemberSpec m;
    m.sim = wl::gltph_like_simulation({i});
    m.sim.nodes = {i};
    auto analysis = wl::bipartite_like_analysis({i});
    analysis.nodes = {i};
    m.analyses.push_back(std::move(analysis));
    spec.members.push_back(std::move(m));
  }
  return spec;
}

SimulatedOptions death_of_node0(double at_s = 60.0, int replication = 1) {
  SimulatedOptions options;
  options.faults = wl::node_down_at(0, at_s);
  options.recovery.kind = res::RecoveryKind::kCheckpointRestart;
  options.recovery.checkpoint_period = 2;
  options.recovery.chunk_replication = replication;
  return options;
}

TEST(NodeLoss, DeathMigratesTheMemberAndCompletes) {
  const EnsembleSpec spec = spread_spec();
  const ExecutionResult r =
      SimulatedExecutor(wl::cori_like_platform(), death_of_node0()).run(spec);
  const res::FailureSummary& fs = r.failure_summary;

  EXPECT_EQ(fs.node_downs, 1u);
  EXPECT_EQ(fs.migrations, 1u);
  EXPECT_TRUE(fs.complete());
  for (const auto& id : r.trace.components()) {
    EXPECT_EQ(r.trace.step_count(id), spec.n_steps) << id.str();
  }

  // The migration is a first-class trace stage, and the member's post-
  // migration work runs off the dead node.
  int migrate_records = 0;
  for (const auto& rec : r.trace.records()) {
    if (rec.kind == StageKind::kMigrate) ++migrate_records;
  }
  EXPECT_EQ(migrate_records, 1);

  // The health log shows exactly one down transition, for node 0.
  ASSERT_FALSE(r.health_events.empty());
  int downs = 0;
  for (const plat::HealthEvent& e : r.health_events) {
    if (e.to == plat::NodeHealth::kDown) {
      ++downs;
      EXPECT_EQ(e.node, 0);
      EXPECT_DOUBLE_EQ(e.t_s, 60.0);
    }
  }
  EXPECT_EQ(downs, 1);
}

TEST(NodeLoss, MigrationIsDeterministicAcrossReruns) {
  const EnsembleSpec spec = spread_spec();
  const ExecutionResult first =
      SimulatedExecutor(wl::cori_like_platform(), death_of_node0()).run(spec);
  for (int rerun = 0; rerun < 2; ++rerun) {
    const ExecutionResult again =
        SimulatedExecutor(wl::cori_like_platform(), death_of_node0())
            .run(spec);
    ASSERT_EQ(again.trace.size(), first.trace.size());
    for (std::size_t i = 0; i < first.trace.size(); ++i) {
      EXPECT_EQ(again.trace.records()[i].start,
                first.trace.records()[i].start);
      EXPECT_EQ(again.trace.records()[i].end, first.trace.records()[i].end);
      EXPECT_EQ(again.trace.records()[i].kind, first.trace.records()[i].kind);
    }
    EXPECT_EQ(again.failure_summary.migrations,
              first.failure_summary.migrations);
    EXPECT_EQ(again.failure_summary.chunks_lost,
              first.failure_summary.chunks_lost);
    EXPECT_EQ(again.failure_summary.wasted_core_seconds,
              first.failure_summary.wasted_core_seconds);
  }
}

TEST(NodeLoss, ReplicationSavesStagedChunks) {
  // With a surviving ring replica nothing is lost; without replication the
  // loss accounting can only be worse, and any lost chunk forces a rollback.
  const EnsembleSpec spec = spread_spec(8);
  const ExecutionResult solo =
      SimulatedExecutor(wl::cori_like_platform(), death_of_node0(60.0, 1))
          .run(spec);
  const ExecutionResult mirrored =
      SimulatedExecutor(wl::cori_like_platform(), death_of_node0(60.0, 2))
          .run(spec);

  EXPECT_EQ(mirrored.failure_summary.chunks_lost, 0u);
  EXPECT_GE(solo.failure_summary.chunks_lost,
            mirrored.failure_summary.chunks_lost);
  EXPECT_TRUE(solo.failure_summary.complete());
  EXPECT_TRUE(mirrored.failure_summary.complete());
  // Replicated writes are priced: the fault-free prefix (before the death)
  // can only get slower, never faster.
  EXPECT_GE(met::ensemble_makespan(mirrored.trace), 0.0);
}

TEST(NodeLoss, MigrationHookPicksTheTarget) {
  const EnsembleSpec spec = spread_spec();
  SimulatedOptions options = death_of_node0();
  std::vector<rt::MigrationRequest> seen;
  options.migrate = [&seen](const rt::MigrationRequest& request) {
    seen.push_back(request);
    return 3;  // an otherwise-idle survivor
  };
  const ExecutionResult r =
      SimulatedExecutor(wl::cori_like_platform(), options).run(spec);

  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].member, 0u);
  EXPECT_EQ(seen[0].dead_node, 0);
  EXPECT_DOUBLE_EQ(seen[0].now_s, 60.0);
  EXPECT_TRUE(std::find(seen[0].up_nodes.begin(), seen[0].up_nodes.end(),
                        0) == seen[0].up_nodes.end());
  EXPECT_EQ(r.failure_summary.migrations, 1u);
  EXPECT_EQ(r.failure_summary.replans, 1u);
  EXPECT_TRUE(r.failure_summary.complete());
}

/// One member: the simulation on `sim_node`, its analysis on `ana_node`.
EnsembleSpec split_member(int sim_node, int ana_node) {
  EnsembleSpec spec;
  spec.n_steps = 8;
  MemberSpec m;
  m.sim = wl::gltph_like_simulation({sim_node});
  m.analyses.push_back(wl::bipartite_like_analysis({ana_node}));
  spec.members.push_back(std::move(m));
  return spec;
}

/// Durations of the analysis' completed reads, keyed by start time.
std::map<double, double> read_durations(const ExecutionResult& r) {
  std::map<double, double> reads;
  for (const auto& rec : r.trace.records()) {
    if (rec.kind == StageKind::kRead) reads[rec.start] = rec.duration();
  }
  return reads;
}

TEST(NodeLoss, MigrationRepricesReadsAgainstTheNewLayout) {
  // The producer starts on node 0 and its reader on node 1, so every read
  // is a network transfer. Node 0 dies and the hook moves the producer onto
  // the reader's node: from then on every read is a local copy. Each read
  // must be priced on the layout it runs on, not the one the replay began
  // with (to within the rounding of end - start at large start times).
  SimulatedOptions options = death_of_node0();
  options.migrate = [](const rt::MigrationRequest&) { return 1; };
  const ExecutionResult r =
      SimulatedExecutor(wl::cori_like_platform(), options)
          .run(split_member(0, 1));
  ASSERT_EQ(r.failure_summary.migrations, 1u);
  ASSERT_TRUE(r.failure_summary.complete());

  const auto one_read = [](const EnsembleSpec& spec) {
    return read_durations(
               SimulatedExecutor(wl::cori_like_platform()).run(spec))
        .begin()
        ->second;
  };
  const double remote = one_read(split_member(0, 1));
  const double local = one_read(split_member(1, 1));
  ASSERT_LT(local + 1e-6, remote);

  int before = 0;
  int after = 0;
  for (const auto& [start, duration] : read_durations(r)) {
    if (start < 60.0) {
      EXPECT_NEAR(duration, remote, 1e-9) << "read at " << start;
      ++before;
    } else {
      EXPECT_NEAR(duration, local, 1e-9) << "read at " << start;
      ++after;
    }
  }
  EXPECT_GT(before, 0);
  EXPECT_GT(after, 0);
}

TEST(NodeLoss, FatalCrashSweepStaysComplete) {
  // Fatal stochastic crashes at a survivable rate: every death migrates,
  // the ensemble still finishes, and the summary stays self-consistent.
  const EnsembleSpec spec = spread_spec();
  SimulatedOptions options;
  options.faults = wl::fatal_node_crashes(700.0);
  options.recovery.kind = res::RecoveryKind::kCheckpointRestart;
  options.recovery.checkpoint_period = 2;
  const ExecutionResult r =
      SimulatedExecutor(wl::cori_like_platform(), options).run(spec);
  const res::FailureSummary& fs = r.failure_summary;
  EXPECT_EQ(fs.node_downs, static_cast<std::uint64_t>([&] {
              int downs = 0;
              for (const auto& e : r.health_events) {
                downs += e.to == plat::NodeHealth::kDown ? 1 : 0;
              }
              return downs;
            }()));
  EXPECT_GE(fs.migrations, fs.node_downs > 0 ? 1u : 0u);
}

}  // namespace
}  // namespace wfe::rt
