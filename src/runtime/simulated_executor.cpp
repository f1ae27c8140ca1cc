#include "runtime/simulated_executor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/cost_model.hpp"
#include "dtl/replication.hpp"
#include "dtl/serde.hpp"
#include "mdsim/cost_model.hpp"
#include "metrics/trace_io.hpp"
#include "obs/recorder.hpp"
#include "platform/cluster.hpp"
#include "platform/health.hpp"
#include "resilience/fault_injector.hpp"
#include "simengine/engine.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

namespace wfe::rt {

namespace {

using core::StageKind;
using sim::Engine;

struct MemberRun;

/// Whole-replay context shared by all component state machines.
struct Replay {
  const EnsembleSpec& spec;
  plat::Cluster cluster;
  Engine engine;
  /// Replay is single-threaded by construction (one engine, one clock), so
  /// stages append to a plain vector with no TraceRecorder mutex; the
  /// returned Trace applies the (start, component) stable sort.
  std::vector<met::StageRecord> records;
  Xoshiro256 rng;
  double jitter_sigma = 0.0;  ///< lognormal sigma; 0 = deterministic

  /// Observability, decided once per run: emission is passive (no events,
  /// no RNG draws), so traced and untraced replays are bit-identical.
  const bool traced;

  /// Fault layer; null while injection is disabled, in which case every
  /// stage takes the pristine code path (bit-identical to the fault-free
  /// replay: no extra RNG draws, no extra events, no extra records).
  std::unique_ptr<res::FaultInjector> injector;
  res::RecoveryPolicy policy;
  res::FailureSummary summary;
  /// Non-null exactly when `injector` is: node health as the replay
  /// discovers it from the injector's deterministic timeline.
  std::unique_ptr<plat::HealthTracker> health;
  /// Staged-chunk replication; priced whenever factor > 1 even without an
  /// injector so scheduler probes see the same write cost as fault runs.
  dtl::ReplicationSpec replication;
  /// Online re-planning hook (null = built-in migration policy).
  MigrationPlanner migrate;

  Replay(const EnsembleSpec& s, const plat::PlatformSpec& platform,
         const SimulatedOptions& options, std::uint64_t seed)
      : spec(s),
        cluster(platform),
        rng(seed),
        traced(options.trace_obs && obs::enabled()) {
    engine.set_obs(traced);
    // A fault-free replay records exactly three stages per component per
    // step (S, I^S, W or I^A, R, A); fault stages grow the vector past it.
    std::size_t components = 0;
    for (const MemberSpec& m : s.members) components += 1 + m.analyses.size();
    records.reserve(components * (s.n_steps + 1) * 3);
    if (options.jitter_cv > 0.0) {
      // For lognormal noise, CV^2 = exp(sigma^2) - 1.
      jitter_sigma =
          std::sqrt(std::log1p(options.jitter_cv * options.jitter_cv));
    }
    replication.factor = options.recovery.chunk_replication;
    if (options.faults.enabled()) {
      injector = std::make_unique<res::FaultInjector>(options.faults,
                                                      platform.node_count);
      policy = options.recovery;
      health = std::make_unique<plat::HealthTracker>(platform.node_count);
      migrate = options.migrate;
    }
  }

  bool faulty() const { return injector != nullptr; }

  int node_count() const { return cluster.node_count(); }

  /// Mean-preserving multiplicative noise factor for one stage duration.
  double jitter() {
    if (jitter_sigma == 0.0) return 1.0;
    return std::exp(jitter_sigma * rng.normal() -
                    0.5 * jitter_sigma * jitter_sigma);
  }

  /// Straggler stretch for a compute stage starting now on `nodes`, with
  /// the health bookkeeping that makes degradation observable. Exactly 1.0
  /// (bit-safe to multiply by) while injection is off.
  double compute_stretch(const std::vector<int>& nodes) {
    if (!injector) return 1.0;
    const double now = engine.now();
    double f = 1.0;
    for (int n : nodes) {
      const bool slow = injector->straggling(n, now);
      if (slow) f = injector->spec().straggler_factor;
      if (health->state(n) != plat::NodeHealth::kDown) {
        health->transition(now, n,
                           slow ? plat::NodeHealth::kDegraded
                                : plat::NodeHealth::kHealthy);
      }
    }
    return f;
  }

  /// Network-degradation stretch for a transfer starting now.
  double transfer_stretch() {
    return injector ? injector->transfer_slowdown(engine.now()) : 1.0;
  }
};

/// A component's presence on the cluster, supporting multi-node node sets
/// (the paper's s_i / a_i^j may span several nodes).
///
/// Cores and the working set are spread evenly over the node set; every
/// partition is registered as a resident of its node. A compute stage is
/// priced as: contention-free whole-allocation duration (Amdahl over the
/// total cores), stretched by the WORST partition's contention slowdown
/// and by the cross-node scaling penalty (1 + p (n - 1)). With one node
/// this reduces exactly to the single-node model. Counters are summed over
/// partitions (each missing at its own node's effective ratio).
struct ComponentFootprint {
  struct Partition {
    int node = 0;
    int cores = 1;
    plat::ComputeProfile profile;      ///< scaled to the partition share
    std::uint64_t residency = 0;
  };
  std::vector<Partition> partitions;
  plat::ComputeProfile whole;  ///< unscaled profile (total instructions)
  int total_cores = 1;

  /// Contention-free duration of the whole allocation — a pure function of
  /// (spec, whole, total_cores), so priced once at init.
  double free_seconds = 0.0;
  /// Cross-node scaling penalty 1 + γ(distinct_nodes - 1), refreshed on
  /// layout changes (a migration may fold two partitions onto one node).
  double cross_penalty = 1.0;

  void init(Replay& rp, const std::set<int>& nodes, int cores,
            const plat::ComputeProfile& profile) {
    WFE_REQUIRE(!nodes.empty(), "a component needs at least one node");
    whole = profile;
    total_cores = cores;
    const auto n = static_cast<int>(nodes.size());
    const int base = cores / n;
    const int remainder = cores % n;
    int index = 0;
    partitions.clear();
    partitions.reserve(nodes.size());
    for (int node : nodes) {
      Partition p;
      p.node = node;
      p.cores = base + (index < remainder ? 1 : 0);
      if (p.cores == 0) p.cores = 1;  // degenerate: more nodes than cores
      p.profile = profile;
      p.profile.instructions /= n;
      p.profile.working_set_bytes /= n;
      p.residency = rp.cluster.begin_compute(p.node, p.profile, p.cores);
      partitions.push_back(p);
      ++index;
    }
    free_seconds =
        plat::compute_stage_cost(rp.cluster.spec(), whole, total_cores, {})
            .seconds;
    refresh_layout(rp);
  }

  /// Re-derive the layout-dependent terms.
  void refresh_layout(Replay& rp) {
    // Count distinct nodes, not partitions: a migration may fold two
    // partitions onto one survivor, and co-located partitions pay no
    // cross-node penalty against each other. Equal to partitions.size() for
    // any un-migrated footprint (node sets are distinct by construction).
    std::size_t distinct_nodes = 0;
    for (std::size_t i = 0; i < partitions.size(); ++i) {
      bool seen = false;
      for (std::size_t j = 0; j < i; ++j) {
        if (partitions[j].node == partitions[i].node) {
          seen = true;
          break;
        }
      }
      if (!seen) ++distinct_nodes;
    }
    cross_penalty =
        1.0 + rp.cluster.spec().interconnect.cross_node_compute_penalty *
                  static_cast<double>(distinct_nodes - 1);
  }

  /// Move every partition resident on `from` to `to` (after a permanent
  /// node death): release the dead residency, re-register on the survivor.
  /// Partitions already elsewhere are untouched.
  void rehome(Replay& rp, int from, int to) {
    for (Partition& p : partitions) {
      if (p.node != from) continue;
      rp.cluster.end_compute(p.residency);
      p.node = to;
      p.residency = rp.cluster.begin_compute(to, p.profile, p.cores);
    }
    refresh_layout(rp);
  }

  int primary_node() const { return partitions.front().node; }
  std::size_t node_count() const { return partitions.size(); }
  bool resides_on(int node) const {
    return std::any_of(partitions.begin(), partitions.end(),
                       [&](const Partition& p) { return p.node == node; });
  }
  std::vector<int> node_list() const {
    std::vector<int> nodes;
    nodes.reserve(partitions.size());
    for (const Partition& p : partitions) nodes.push_back(p.node);
    return nodes;
  }

  /// Price one compute stage at the current cluster state.
  plat::StageCost priced(Replay& rp) const;
};

plat::StageCost ComponentFootprint::priced(Replay& rp) const {
  plat::StageCost total;
  double worst_slowdown = 1.0;
  for (const Partition& p : partitions) {
    // Cached co-location pricing: the cluster reprices a node's whole
    // resident set in one batch pass only when its occupancy epoch moved
    // (residencies change at init and migration, not per stage), so the
    // steady-state cost here is a lookup.
    const plat::StageCost& c = rp.cluster.resident_cost(p.residency);
    worst_slowdown = std::max(worst_slowdown, c.slowdown);
    total.counters += c.counters;
    total.effective_miss_ratio =
        std::max(total.effective_miss_ratio, c.effective_miss_ratio);
  }
  // Contention-free duration of the WHOLE allocation (Amdahl over the
  // total core count — splitting across nodes must never speed a fixed
  // allocation up, priced once at init), stretched by contention and the
  // cross-node penalty (refreshed on layout changes).
  total.slowdown = worst_slowdown * cross_penalty;
  total.seconds = free_seconds * total.slowdown;
  return total;
}

/// Mirror one stage into the observability layer: always onto the
/// component's own track, staging stages additionally onto the member's
/// DTL-view track, and failure-semantics stages onto the shared resilience
/// track. All timestamps are virtual seconds, so traced runs replay
/// bit-identically. Called only when tracing is on.
void trace_obs_stage(const met::ComponentId& component, StageKind kind,
                     double start, double end) {
  obs::span(component.str(), met::stage_mnemonic(kind), start, end);
  switch (kind) {
    case StageKind::kWrite:
      obs::span(strprintf("dtl/m%u", component.member), "put", start, end);
      obs::add_counter("dtl.puts", end, 1.0);
      break;
    case StageKind::kRead:
      obs::span(strprintf("dtl/m%u", component.member), "get", start, end);
      obs::add_counter("dtl.gets", end, 1.0);
      break;
    case StageKind::kFault:
      obs::span("resilience", "fault", start, end);
      break;
    case StageKind::kBackoff:
      obs::span("resilience", "backoff", start, end);
      break;
    case StageKind::kCheckpoint:
      obs::span("resilience", "checkpoint", start, end);
      break;
    case StageKind::kRestart:
      obs::span("resilience", "restart", start, end);
      break;
    case StageKind::kMigrate:
      obs::span("resilience", "migrate", start, end);
      break;
    default:
      break;
  }
}

/// Append one stage to the replay's trace; idle, I/O and fault bookkeeping
/// stages carry no counters.
void record_stage(Replay& rp, const met::ComponentId& component,
                  std::uint64_t step, StageKind kind, double start, double end,
                  const plat::HwCounters& counters = {}) {
  WFE_REQUIRE(end >= start, "a stage cannot end before it starts");
  rp.records.push_back(
      met::StageRecord{component, step, kind, start, end, counters});
  if (rp.traced) trace_obs_stage(component, kind, start, end);
}

/// One fault-killable execution slot: the component's pending engine event
/// (stage completion, scheduled fault, or retry re-attempt) plus everything
/// a recovery needs to account for it or re-run it.
struct InFlight {
  bool active = false;
  sim::EventId event{};
  StageKind kind = StageKind::kSimulate;
  std::uint64_t step = 0;
  double start = 0.0;
  double duration = 0.0;
  plat::HwCounters counters;
  int attempt = 1;
  std::function<void()> done;
};

/// The fault-visible identity of one component's execution: who it is,
/// where it computes, which member recovery escalates to, and its in-flight
/// slot. Embedded in MemberRun (simulation side) and AnalysisRun.
struct StageExec {
  met::ComponentId id;
  MemberRun* member = nullptr;
  const ComponentFootprint* footprint = nullptr;
  std::vector<int> nodes;  ///< cached node list for crash queries
  InFlight fl;
};

void attempt_stage(Replay& rp, StageExec& se, std::uint64_t step,
                   StageKind kind, double seconds,
                   const plat::HwCounters& counters,
                   std::function<void()> done, int attempt);

/// Run one stage to completion, recording it in the trace. Fault-free mode
/// is byte-for-byte the original replay (record at start, one completion
/// event) and hands the continuation lambda straight to the engine's
/// SmallFn — no std::function materializes on the hot path. Fault mode
/// wraps it for the retry machinery (InFlight re-runs need type erasure).
template <typename F>
void exec_stage(Replay& rp, StageExec& se, std::uint64_t step, StageKind kind,
                double seconds, const plat::HwCounters& counters, F&& done) {
  if (!rp.faulty()) {
    const double now = rp.engine.now();
    record_stage(rp, se.id, step, kind, now, now + seconds, counters);
    rp.engine.schedule_in(seconds, std::forward<F>(done));
    return;
  }
  attempt_stage(rp, se, step, kind, seconds, counters,
                std::function<void()>(std::forward<F>(done)), 1);
}

/// One analysis component's state machine.
struct AnalysisRun {
  MemberRun* member = nullptr;
  met::ComponentId id;
  ComponentFootprint footprint;
  StageExec sx;
  std::uint64_t next_step = 0;
  double idle_since = 0.0;  ///< when the current I^A wait began
  bool waiting = false;     ///< parked until the chunk is committed

  void try_read(Replay& rp);
  void start_read(Replay& rp);
};

/// One member: simulation state machine + K analyses + the chunk handshake.
struct MemberRun {
  met::ComponentId sim_id;
  ComponentFootprint sim;
  StageExec sim_sx;
  double chunk_bytes = 0.0;

  std::uint64_t sim_step = 0;
  double s_end = 0.0;           ///< when the current S stage finished
  bool sim_blocked = false;     ///< parked in I^S until readers drain
  std::int64_t committed = -1;  ///< last committed (written) step
  int buffer_capacity = 1;      ///< staging-buffer depth (1 = paper)
  std::vector<std::int64_t> consumed;  ///< per-reader last finished R

  std::vector<AnalysisRun> analyses;

  // -- resilience state (untouched while injection is disabled) -----------
  bool faulted = false;   ///< saw at least one injected fault
  bool failed = false;    ///< abandoned by policy; schedules nothing more
  int restarts = 0;       ///< checkpoint rollbacks performed so far
  std::uint64_t checkpoint_step = 0;  ///< sim re-enters here on restart
  std::vector<int> union_nodes;       ///< all nodes any component touches

  /// Bounded-buffer rule: W of `step` may start once every reader drained
  /// step - capacity (capacity 1 = the paper's no-buffering protocol).
  bool can_write(std::uint64_t step) const {
    const auto horizon = static_cast<std::int64_t>(step) - buffer_capacity;
    for (std::int64_t c : consumed) {
      if (c < horizon) return false;
    }
    return true;
  }

  /// DIMES-style distributed write: each simulation partition publishes
  /// its shard into node-local memory, in parallel. With replication the
  /// shard is additionally pushed to its ring neighbours — the transfer
  /// cost of surviving a producer-node death. Priced per stage against
  /// the current layout, so a migration is seen by the next write.
  double write_time(Replay& rp) const {
    const double shard = chunk_bytes / static_cast<double>(sim.node_count());
    double w = 0.0;
    for (const auto& p : sim.partitions) {
      w = std::max(w, rp.cluster.spec().staging.write_overhead_s +
                          rp.cluster.transfer_time(p.node, p.node, shard));
      if (rp.replication.factor > 1) {
        for (int dst : rp.replication.replica_nodes(p.node, rp.node_count())) {
          w = std::max(w, rp.cluster.spec().staging.write_overhead_s +
                              rp.cluster.transfer_time(p.node, dst, shard));
        }
      }
    }
    return w;
  }

  /// Gather time of the staged chunk to a reader spanning `reader`'s node
  /// set: every reader partition pulls its slice from every producer
  /// shard in parallel; the slowest pair dominates. Slices landing on
  /// their own shard's node are local copies.
  double read_time(Replay& rp, const ComponentFootprint& reader) const {
    const double piece =
        chunk_bytes / static_cast<double>(sim.node_count() *
                                          reader.node_count());
    double r = 0.0;
    for (const auto& dst : reader.partitions) {
      for (const auto& src : sim.partitions) {
        r = std::max(r, rp.cluster.spec().staging.read_overhead_s +
                            rp.cluster.transfer_time(src.node, dst.node,
                                                     piece));
      }
    }
    return r;
  }

  void start_sim_step(Replay& rp);
  void after_sim_compute(Replay& rp);
  void start_write(Replay& rp);
  void commit(Replay& rp);
  void on_read_done(Replay& rp, int reader, std::uint64_t step);

  // -- recovery entry points (fault mode only) ----------------------------
  void kill_all_in_flight(Replay& rp);
  void restart_from_checkpoint(Replay& rp);
  void handle_node_loss(Replay& rp);
  void fail(Replay& rp);
};

/// Cancel one component's pending event. Killed work (anything but a
/// pending retry backoff) is recorded as a kFault stage and priced into the
/// wasted-work account; the cancelled event never fires.
void kill_in_flight(Replay& rp, StageExec& se) {
  if (!se.fl.active) return;
  rp.engine.cancel(se.fl.event);
  se.fl.active = false;
  if (se.fl.kind == StageKind::kBackoff) return;  // no work was in flight
  const double now = rp.engine.now();
  record_stage(rp, se.id, se.fl.step, StageKind::kFault, se.fl.start, now);
  rp.summary.wasted_core_seconds +=
      (now - se.fl.start) * static_cast<double>(se.footprint->total_cores);
}

void on_stage_fault(Replay& rp, StageExec& se, bool is_crash);

/// One attempt of one fault-killable stage. Consults the injector for the
/// first crash or transient error landing inside the attempt and schedules
/// either the completion or the kill, whichever comes first.
void attempt_stage(Replay& rp, StageExec& se, std::uint64_t step,
                   StageKind kind, double seconds,
                   const plat::HwCounters& counters,
                   std::function<void()> done, int attempt) {
  if (se.member->failed) return;
  const double t0 = rp.engine.now();

  // A node mid-repair defers the attempt until the whole node set is up; a
  // permanently dead node makes waiting futile — migrate instead.
  const double up = rp.injector->all_up_at(se.nodes, t0);
  if (up == res::FaultInjector::kNever) {
    se.member->handle_node_loss(rp);
    return;
  }
  if (up > t0) {
    se.fl = InFlight{true, {}, StageKind::kBackoff, step, t0,
                     up - t0,  counters, attempt, done};
    se.fl.event = rp.engine.schedule_at(
        up, [&rp, &se, step, kind, seconds, counters, done, attempt, t0,
             up] {
          se.fl.active = false;
          record_stage(rp, se.id, step, StageKind::kBackoff, t0, up);
          attempt_stage(rp, se, step, kind, seconds, counters, done,
                        attempt);
        });
    return;
  }

  // When does this attempt die, if at all?
  double fail_t = rp.injector->first_crash_in(se.nodes, t0, t0 + seconds);
  bool is_crash = true;
  if (const auto frac = rp.injector->transient_point(
          se.id.member, se.id.analysis, step, kind, attempt)) {
    const double tt = t0 + *frac * seconds;
    if (tt < fail_t) {
      fail_t = tt;
      is_crash = false;
    }
  }

  if (fail_t == res::FaultInjector::kNever) {
    se.fl = InFlight{true, {}, kind, step, t0, seconds, counters, attempt,
                     done};
    se.fl.event = rp.engine.schedule_in(
        seconds, [&rp, &se, step, kind, seconds, counters, done, t0] {
          se.fl.active = false;
          record_stage(rp, se.id, step, kind, t0, t0 + seconds, counters);
          done();
        });
    return;
  }

  se.fl = InFlight{true, {}, kind, step, t0, seconds, counters, attempt,
                   done};
  se.fl.event = rp.engine.schedule_at(fail_t, [&rp, &se, is_crash] {
    se.fl.active = false;
    on_stage_fault(rp, se, is_crash);
  });
}

/// An injected fault killed `se`'s in-flight stage: account for the lost
/// work and dispatch the member's recovery policy.
void on_stage_fault(Replay& rp, StageExec& se, bool is_crash) {
  const InFlight fl = se.fl;  // copy: recovery below overwrites the slot
  const double now = rp.engine.now();
  record_stage(rp, se.id, fl.step, StageKind::kFault, fl.start, now);
  rp.summary.wasted_core_seconds +=
      (now - fl.start) * static_cast<double>(se.footprint->total_cores);
  if (is_crash) {
    ++rp.summary.crash_stage_kills;
  } else {
    ++rp.summary.transient_stage_faults;
  }
  if (rp.traced) {
    obs::instant("resilience", is_crash ? "crash" : "transient", now);
    obs::add_counter(is_crash ? "res.crash_kills" : "res.transient_faults",
                     now, 1.0);
  }
  se.member->faulted = true;

  // A crash kill at a node's death instant is a whole-node fault-domain
  // loss, not a transient availability gap: route to migration instead of
  // the per-stage policy.
  if (is_crash && rp.injector->first_down_node(se.nodes, now).has_value()) {
    se.member->handle_node_loss(rp);
    return;
  }

  switch (rp.policy.kind) {
    case res::RecoveryKind::kRetry: {
      if (fl.attempt > rp.policy.max_retries) {
        se.member->fail(rp);
        return;
      }
      ++rp.summary.stage_retries;
      if (rp.traced) obs::add_counter("res.retries", now, 1.0);
      const int next_attempt = fl.attempt + 1;
      // Wait out any repair window, then the exponential backoff.
      const double resume =
          rp.injector->all_up_at(se.nodes, now) + rp.policy.backoff(fl.attempt);
      se.fl = InFlight{true, {}, StageKind::kBackoff, fl.step, now,
                       resume - now, fl.counters, next_attempt, fl.done};
      se.fl.event = rp.engine.schedule_at(
          resume, [&rp, &se, fl, now, resume, next_attempt] {
            se.fl.active = false;
            record_stage(rp, se.id, fl.step, StageKind::kBackoff, now,
                         resume);
            attempt_stage(rp, se, fl.step, fl.kind, fl.duration, fl.counters,
                          fl.done, next_attempt);
          });
      return;
    }
    case res::RecoveryKind::kCheckpointRestart:
      se.member->restart_from_checkpoint(rp);
      return;
    case res::RecoveryKind::kFailMember:
      se.member->fail(rp);
      return;
  }
}

void MemberRun::kill_all_in_flight(Replay& rp) {
  kill_in_flight(rp, sim_sx);
  for (AnalysisRun& a : analyses) kill_in_flight(rp, a.sx);
}

void MemberRun::restart_from_checkpoint(Replay& rp) {
  faulted = true;
  if (restarts >= rp.policy.max_restarts) {
    fail(rp);
    return;
  }
  const double now = rp.engine.now();
  const double up = rp.injector->all_up_at(union_nodes, now);
  if (up == res::FaultInjector::kNever) {
    handle_node_loss(rp);
    return;
  }
  ++restarts;
  ++rp.summary.member_restarts;
  kill_all_in_flight(rp);

  const double resume = up + rp.policy.restart_cost_s;
  record_stage(rp, sim_id, checkpoint_step, StageKind::kRestart, now,
               resume);
  if (rp.traced) obs::add_counter("res.restarts", now, 1.0);

  // Roll the member back: the simulation re-enters at the checkpointed
  // step and re-commits from there. Analyses keep their own progress —
  // one that already consumed step k simply waits until the simulation
  // catches back up to k (re-reads after a rollback are idempotent in
  // on_read_done).
  sim_step = checkpoint_step;
  committed = static_cast<std::int64_t>(checkpoint_step) - 1;
  sim_blocked = false;
  for (AnalysisRun& a : analyses) a.waiting = false;

  rp.engine.schedule_at(resume, [this, &rp] {
    if (failed) return;
    if (sim_step < rp.spec.n_steps) start_sim_step(rp);
    for (AnalysisRun& a : analyses) {
      if (a.next_step < rp.spec.n_steps) a.try_read(rp);
    }
  });
}

void MemberRun::fail(Replay& rp) {
  if (failed) return;
  failed = true;
  kill_all_in_flight(rp);
  ++rp.summary.members_failed;
  rp.summary.failed_members.push_back(sim_id.member);
  if (rp.traced) {
    const double now = rp.engine.now();
    obs::instant("resilience", "member_failed", now);
    obs::add_counter("res.members_failed", now, 1.0);
  }
}

/// A node in this member's set died permanently: record the fault-domain
/// loss, ask the re-planner (or the built-in policy) for a new home among
/// the survivors, account staged chunks lost with the dead node, and resume
/// through the checkpoint-restart tail behind a kMigrate stage. Migrations
/// draw from the same budget as restarts.
void MemberRun::handle_node_loss(Replay& rp) {
  if (failed) return;
  const double now = rp.engine.now();
  std::vector<int> dead;
  for (int n : union_nodes) {
    if (rp.injector->down_at(n) <= now) dead.push_back(n);
  }
  // Another component of this member already migrated us this instant.
  if (dead.empty()) return;
  faulted = true;

  for (int n : dead) {
    if (rp.health->state(n) == plat::NodeHealth::kDown) continue;
    rp.health->transition(now, n, plat::NodeHealth::kDown);
    ++rp.summary.node_downs;
    if (rp.traced) {
      obs::instant("resilience", "node_down", now);
      obs::add_counter("res.node_downs", now, 1.0);
    }
  }

  if (restarts >= rp.policy.max_restarts) {
    fail(rp);
    return;
  }
  // Survivors across the whole platform. Mid-repair nodes count: the next
  // attempt on one simply waits the repair window out.
  std::vector<int> up;
  for (int n = 0; n < rp.node_count(); ++n) {
    if (rp.injector->down_at(n) > now) up.push_back(n);
  }
  if (up.empty()) {
    fail(rp);
    return;
  }

  // Staged-chunk survival, judged against the pre-migration layout: the
  // shard on a dead partition is gone unless some ring replica is alive.
  const bool sim_hit = std::any_of(dead.begin(), dead.end(),
                                   [&](int d) { return sim.resides_on(d); });
  bool chunks_survive = true;
  if (sim_hit) {
    for (const auto& p : sim.partitions) {
      bool shard_ok = false;
      for (int r : rp.replication.replica_nodes(p.node, rp.node_count())) {
        if (rp.injector->down_at(r) > now) {
          shard_ok = true;
          break;
        }
      }
      if (!shard_ok) {
        chunks_survive = false;
        break;
      }
    }
  }

  ++restarts;
  ++rp.summary.migrations;

  for (int d : dead) {
    int target = -1;
    if (rp.migrate) {
      ++rp.summary.replans;
      if (rp.traced) {
        obs::instant("sched", "replan", now);
        obs::add_counter("sched.replans", now, 1.0);
      }
      target =
          rp.migrate(MigrationRequest{sim_id.member, d, now, union_nodes, up});
    }
    if (target < 0) {
      // Built-in policy: least-loaded survivor (by active cores),
      // preferring nodes outside the member's own set; ties to lower ids.
      int best = -1;
      int best_load = 0;
      bool best_outside = false;
      for (int n : up) {
        const bool outside = std::find(union_nodes.begin(), union_nodes.end(),
                                       n) == union_nodes.end();
        const int load = rp.cluster.active_cores(n);
        if (best < 0 || (outside && !best_outside) ||
            (outside == best_outside && load < best_load)) {
          best = n;
          best_load = load;
          best_outside = outside;
        }
      }
      target = best;
    }
    WFE_REQUIRE(std::find(up.begin(), up.end(), target) != up.end(),
                "migration target must be a surviving node");
    sim.rehome(rp, d, target);
    for (AnalysisRun& a : analyses) a.footprint.rehome(rp, d, target);
    std::replace(union_nodes.begin(), union_nodes.end(), d, target);
  }
  std::sort(union_nodes.begin(), union_nodes.end());
  union_nodes.erase(std::unique(union_nodes.begin(), union_nodes.end()),
                    union_nodes.end());
  sim_sx.nodes = sim.node_list();
  for (AnalysisRun& a : analyses) a.sx.nodes = a.footprint.node_list();

  std::int64_t drained = committed;
  for (std::int64_t c : consumed) drained = std::min(drained, c);
  if (sim_hit && !chunks_survive && committed > drained) {
    const auto lost = static_cast<std::uint64_t>(committed - drained);
    rp.summary.chunks_lost += lost;
    if (rp.traced) {
      obs::add_counter("res.chunks_lost", now, static_cast<double>(lost));
    }
  }

  kill_all_in_flight(rp);

  // Losing a sim partition loses the simulation state: roll back to the
  // checkpoint. Lost staged chunks additionally pull the target back to
  // the newest checkpoint no later than the earliest lost chunk, so
  // stranded readers get their steps re-produced (the retained-checkpoint
  // window is bounded by the staging-buffer capacity). With replication
  // the staged data survives and the rollback re-commits idempotently.
  if (sim_hit) {
    std::uint64_t target = checkpoint_step;
    if (!chunks_survive) {
      target = std::min(target, static_cast<std::uint64_t>(drained + 1));
    }
    if (sim_step < rp.spec.n_steps || !chunks_survive) {
      sim_step = target;
      committed = static_cast<std::int64_t>(target) - 1;
      checkpoint_step = std::min(checkpoint_step, target);
    }
  }
  sim_blocked = false;
  for (AnalysisRun& a : analyses) a.waiting = false;

  const double resume =
      now + rp.policy.migration_cost_s + rp.policy.restart_cost_s;
  record_stage(rp, sim_id, sim_step, StageKind::kMigrate, now, resume);
  if (rp.traced) obs::add_counter("res.migrations", now, 1.0);
  rp.engine.schedule_at(resume, [this, &rp] {
    if (failed) return;
    if (sim_step < rp.spec.n_steps) start_sim_step(rp);
    for (AnalysisRun& a : analyses) {
      if (a.next_step < rp.spec.n_steps) a.try_read(rp);
    }
  });
}

void MemberRun::start_sim_step(Replay& rp) {
  // Residency-based contention: price against the other components that
  // live on these nodes for the whole run.
  plat::StageCost cost = sim.priced(rp);
  double factor = rp.jitter();
  factor *= rp.compute_stretch(sim_sx.nodes);  // straggling nodes run slower
  cost.seconds *= factor;
  cost.counters.cycles *= factor;  // time noise shows up as cycle noise
  exec_stage(rp, sim_sx, sim_step, StageKind::kSimulate, cost.seconds,
             cost.counters, [this, &rp] { after_sim_compute(rp); });
}

void MemberRun::after_sim_compute(Replay& rp) {
  s_end = rp.engine.now();
  if (can_write(sim_step)) {
    start_write(rp);
  } else {
    sim_blocked = true;  // resumed by on_read_done
  }
}

void MemberRun::start_write(Replay& rp) {
  const double now = rp.engine.now();
  record_stage(rp, sim_id, sim_step, StageKind::kSimIdle, s_end, now);
  double w = write_time(rp) * rp.jitter();
  w *= rp.transfer_stretch();  // network-degradation windows stretch staging
  exec_stage(rp, sim_sx, sim_step, StageKind::kWrite, w, {},
             [this, &rp] { commit(rp); });
}

void MemberRun::commit(Replay& rp) {
  committed = static_cast<std::int64_t>(sim_step);
  ++sim_step;
  if (rp.traced) {
    // Staging-buffer occupancy: chunks committed but not yet drained by
    // every reader of this member.
    std::int64_t drained = committed;
    for (std::int64_t c : consumed) drained = std::min(drained, c);
    const double occupancy = static_cast<double>(committed - drained);
    obs::set_counter(strprintf("dtl.m%u.occupancy", sim_id.member),
                     rp.engine.now(), occupancy);
  }
  // Wake readers parked on this chunk.
  for (AnalysisRun& a : analyses) {
    if (a.waiting && static_cast<std::int64_t>(a.next_step) <= committed) {
      a.waiting = false;
      a.start_read(rp);
    }
  }
  // Under checkpoint-restart, persist a restart point every
  // checkpoint_period committed steps before computing on (the checkpoint
  // itself is a killable stage; only its completion moves the rollback
  // target forward).
  if (rp.faulty() &&
      rp.policy.kind == res::RecoveryKind::kCheckpointRestart &&
      sim_step < rp.spec.n_steps &&
      sim_step % rp.policy.checkpoint_period == 0) {
    const std::uint64_t target = sim_step;
    exec_stage(rp, sim_sx, sim_step - 1, StageKind::kCheckpoint,
               rp.policy.checkpoint_cost_s, {}, [this, &rp, target] {
                 checkpoint_step = target;
                 ++rp.summary.checkpoints_written;
                 if (rp.traced) {
                   obs::add_counter("res.checkpoints", rp.engine.now(), 1.0);
                 }
                 start_sim_step(rp);
               });
    return;
  }
  if (sim_step < rp.spec.n_steps) {
    start_sim_step(rp);
  }
}

void MemberRun::on_read_done(Replay& rp, int reader, std::uint64_t step) {
  auto& last = consumed[static_cast<std::size_t>(reader)];
  if (last == static_cast<std::int64_t>(step)) {
    // A checkpoint rollback re-committed a step this reader had already
    // consumed before the fault; the repeated read is idempotent.
    return;
  }
  WFE_REQUIRE(last + 1 == static_cast<std::int64_t>(step),
              "reader finished a step out of order");
  last = static_cast<std::int64_t>(step);
  if (sim_blocked && can_write(sim_step)) {
    sim_blocked = false;
    start_write(rp);
  }
}

void AnalysisRun::try_read(Replay& rp) {
  idle_since = rp.engine.now();
  if (static_cast<std::int64_t>(next_step) <= member->committed) {
    start_read(rp);
  } else {
    waiting = true;  // resumed by MemberRun::commit
  }
}

void AnalysisRun::start_read(Replay& rp) {
  const double now = rp.engine.now();
  record_stage(rp, id, next_step, StageKind::kAnaIdle, idle_since, now);
  // Fetch the chunk from the producer's node(s) (data locality:
  // co-located partitions pay memory copies, remote ones network
  // transfers), priced against the current layouts of both sides.
  double r = member->read_time(rp, footprint) * rp.jitter();
  r *= rp.transfer_stretch();
  exec_stage(rp, sx, next_step, StageKind::kRead, r, {}, [this, &rp] {
    member->on_read_done(rp, id.analysis, next_step);
    // Analyze.
    plat::StageCost cost = footprint.priced(rp);
    double factor = rp.jitter();
    factor *= rp.compute_stretch(sx.nodes);
    cost.seconds *= factor;
    cost.counters.cycles *= factor;
    exec_stage(rp, sx, next_step, StageKind::kAnalyze, cost.seconds,
               cost.counters, [this, &rp] {
                 ++next_step;
                 if (next_step < rp.spec.n_steps) try_read(rp);
               });
  });
}

/// Construct every member's state machines and register every component's
/// residency on the replay's cluster.
std::vector<std::unique_ptr<MemberRun>> build_members(Replay& rp) {
  const EnsembleSpec& spec = rp.spec;
  std::vector<std::unique_ptr<MemberRun>> members;
  members.reserve(spec.members.size());

  for (std::size_t i = 0; i < spec.members.size(); ++i) {
    const MemberSpec& ms = spec.members[i];
    auto run = std::make_unique<MemberRun>();
    run->sim_id = met::ComponentId{static_cast<std::uint32_t>(i), -1};
    // Register every component as a node resident for the whole run: its
    // working set competes for the shared LLC whether or not it is mid-
    // stage, which is what drives steady-state co-location interference.
    run->sim.init(rp, ms.sim.nodes, ms.sim.cores,
                  md::md_stage_profile(ms.sim.cost, ms.sim.natoms,
                                       ms.sim.stride));
    run->chunk_bytes =
        md::frame_payload_bytes(ms.sim.natoms) +
        static_cast<double>(dtl::kChunkHeaderBytes);
    run->buffer_capacity = ms.buffer_capacity;
    run->consumed.assign(ms.analyses.size(), -1);
    run->sim_sx =
        StageExec{run->sim_id, run.get(), &run->sim, run->sim.node_list(), {}};
    run->union_nodes = run->sim.node_list();

    for (std::size_t j = 0; j < ms.analyses.size(); ++j) {
      const AnalysisSpec& as = ms.analyses[j];
      AnalysisRun a;
      a.member = run.get();
      a.id = met::ComponentId{static_cast<std::uint32_t>(i),
                              static_cast<std::int32_t>(j)};
      a.footprint.init(rp, as.nodes, as.cores,
                       ana::analysis_stage_profile(as.cost, ms.sim.natoms));
      run->analyses.push_back(std::move(a));
    }
    // AnalysisRun addresses are stable from here on; wire the back-pointers
    // used by the fault layer.
    for (AnalysisRun& a : run->analyses) {
      a.sx = StageExec{a.id, run.get(), &a.footprint, a.footprint.node_list(),
                       {}};
      for (int n : a.sx.nodes) {
        if (std::find(run->union_nodes.begin(), run->union_nodes.end(), n) ==
            run->union_nodes.end()) {
          run->union_nodes.push_back(n);
        }
      }
    }
    members.push_back(std::move(run));
  }
  return members;
}

}  // namespace

SimulatedExecutor::SimulatedExecutor(plat::PlatformSpec platform,
                                     SimulatedOptions options)
    : platform_(std::move(platform)), options_(options) {
  platform_.validate();
  WFE_REQUIRE(std::isfinite(options_.jitter_cv),
              "jitter coefficient of variation must be finite");
  WFE_REQUIRE(options_.jitter_cv >= 0.0,
              "jitter coefficient of variation must be non-negative");
  options_.faults.validate();
  options_.recovery.validate();
}

ExecutionResult SimulatedExecutor::run(const EnsembleSpec& spec) const {
  return run_seeded(spec, options_.seed);
}

ExecutionResult SimulatedExecutor::run_seeded(const EnsembleSpec& spec,
                                              std::uint64_t seed) const {
  spec.validate(platform_);
  Replay rp(spec, platform_, options_, seed);
  std::vector<std::unique_ptr<MemberRun>> members = build_members(rp);

  // All simulations start simultaneously (paper §2.1); analyses begin
  // waiting for their first chunk at t = 0.
  for (auto& m : members) {
    MemberRun* raw = m.get();
    rp.engine.schedule_at(0.0, [raw, &rp] { raw->start_sim_step(rp); });
    for (AnalysisRun& a : raw->analyses) {
      AnalysisRun* ap = &a;
      rp.engine.schedule_at(0.0, [ap, &rp] { ap->try_read(rp); });
    }
  }

  rp.engine.run();

  if (rp.faulty()) {
    for (const auto& m : members) {
      if (m->faulted && !m->failed) ++rp.summary.members_recovered;
    }
  }

  ExecutionResult result;
  result.trace = met::Trace(std::move(rp.records));
  result.n_steps = spec.n_steps;
  result.events_processed = rp.engine.events_processed();
  result.failure_summary = std::move(rp.summary);
  if (rp.health) result.health_events = rp.health->events();
  if (rp.traced) {
    if (obs::Recorder* rec = obs::current()) {
      const double t_end = rp.engine.now();
      obs::set_counter("run.makespan_s", t_end, t_end);
      obs::add_counter("run.stage_records", t_end,
                       static_cast<double>(result.trace.size()));
      result.counters = rec->counters().snapshot();
    }
  }
  return result;
}

}  // namespace wfe::rt
