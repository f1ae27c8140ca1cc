// Event-core throughput — measures the engine hot path the placement
// search leans on: dispatch rate of the calendar/ladder queue with SmallFn
// callbacks, cancellation churn (lazy deletion + slot recycling),
// cancel-heavy and bimodal-horizon stress patterns, and end-to-end replay
// rate of a full paper configuration. Writes BENCH_engine.json (with a
// `queue_policy` field naming the pending-set implementation) for
// regression diffs across queue designs.
//
// `--quick` shrinks every workload for CI smoke runs: the JSON keeps the
// full schema (plus "mode": "quick") but the numbers are not comparable to
// full-mode baselines.
#include "bench_common.hpp"

#include <cstring>

#include "simengine/engine.hpp"

namespace {

/// Self-scheduling chains: the dominant engine pattern (every component
/// stage re-arms itself). `chains` concurrent chains, `hops` events each.
double chain_dispatch_rate(std::uint64_t chains, std::uint64_t hops,
                           std::uint64_t* events_out) {
  wfe::sim::Engine engine;
  const wfe::bench::Stopwatch timer;
  struct Chain {
    wfe::sim::Engine* engine;
    std::uint64_t hops_left;
    double period;
    void operator()() const {
      if (hops_left == 0) return;
      engine->schedule_in(period, Chain{engine, hops_left - 1, period});
    }
  };
  for (std::uint64_t c = 0; c < chains; ++c) {
    engine.schedule_at(static_cast<double>(c) * 1e-3,
                       Chain{&engine, hops - 1, 1.0 + 1e-4 * c});
  }
  engine.run();
  const double wall = timer.seconds();
  *events_out = engine.events_processed();
  return static_cast<double>(engine.events_processed()) / wall;
}

/// Schedule/cancel churn: timeout-style events that almost never fire —
/// the pattern that makes lazy deletion and slot recycling earn their keep.
double cancel_churn_rate(std::uint64_t rounds, std::uint64_t* cancels_out) {
  wfe::sim::Engine engine;
  const wfe::bench::Stopwatch timer;
  std::uint64_t cancelled = 0;
  std::vector<wfe::sim::EventId> batch;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    batch.clear();
    for (int i = 0; i < 64; ++i) {
      batch.push_back(engine.schedule_at(1e12, [] {}));
    }
    for (const wfe::sim::EventId id : batch) {
      if (engine.cancel(id)) ++cancelled;
    }
  }
  const double wall = timer.seconds();
  *cancels_out = cancelled;
  return static_cast<double>(cancelled) / wall;
}

/// Cancel-heavy dispatch: every fired event arms a guard far in the future
/// and cancels the previous one — the fault-injection/timeout pattern where
/// most scheduled events die and corpses ride along inside the queue tiers
/// until a split or sweep collects them.
double cancel_heavy_rate(std::uint64_t chains, std::uint64_t hops,
                         std::uint64_t* events_out) {
  wfe::sim::Engine engine;
  const wfe::bench::Stopwatch timer;
  struct Guarded {
    wfe::sim::Engine* engine;
    std::uint64_t hops_left;
    wfe::sim::EventId guard;  // armed by the previous hop; dead by now
    void operator()() const {
      engine->cancel(guard);
      if (hops_left == 0) return;
      const wfe::sim::EventId next_guard =
          engine->schedule_in(1e9, [] {});  // timeout that never fires
      engine->schedule_in(1.0,
                          Guarded{engine, hops_left - 1, next_guard});
    }
  };
  for (std::uint64_t c = 0; c < chains; ++c) {
    engine.schedule_at(static_cast<double>(c) * 1e-3,
                       Guarded{&engine, hops - 1, {}});
  }
  engine.run();
  const double wall = timer.seconds();
  *events_out = engine.events_processed();
  return static_cast<double>(engine.events_processed()) / wall;
}

/// Mixed-horizon dispatch: each fired event re-arms either just ahead of
/// the clock or deep into the future (bimodal near/far split). The far
/// mode lands beyond the near batch, so this exercises rung spawning,
/// recursive splits and far-tier routing instead of the sorted fast path.
double mixed_horizon_rate(std::uint64_t chains, std::uint64_t hops,
                          std::uint64_t* events_out) {
  wfe::sim::Engine engine;
  const wfe::bench::Stopwatch timer;
  struct Bimodal {
    wfe::sim::Engine* engine;
    std::uint64_t hops_left;
    std::uint64_t state;  // per-chain xorshift: cheap deterministic bimode
    void operator()() const {
      if (hops_left == 0) return;
      std::uint64_t x = state;
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      // 1-in-4 far (1000x the near period), else near.
      const double delay = (x % 4 == 0) ? 1e3 : 1.0;
      engine->schedule_in(delay, Bimodal{engine, hops_left - 1, x});
    }
  };
  for (std::uint64_t c = 0; c < chains; ++c) {
    engine.schedule_at(static_cast<double>(c) * 1e-3,
                       Bimodal{&engine, hops - 1, c * 2654435761u + 1});
  }
  engine.run();
  const double wall = timer.seconds();
  *events_out = engine.events_processed();
  return static_cast<double>(engine.events_processed()) / wall;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wfe;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  bench::print_banner(
      "Event-core throughput",
      "Dispatch and cancellation rates of the discrete-event engine, plus\n"
      "the end-to-end replay rate of paper configuration C1.5. These are\n"
      "the per-candidate costs the parallel placement search multiplies.");

  const std::uint64_t hops = quick ? 1000 : 20000;
  const std::uint64_t churn_rounds = quick ? 1000 : 20000;
  // 500 replays ≈ 15–20 ms of measured work: long enough that scheduler
  // noise and the cold first replay stop dominating the rate (50 replays
  // was ~2 ms and scattered over ±25% run to run).
  const int replays = quick ? 3 : 500;

  std::uint64_t chain_events = 0;
  const double dispatch_rate = chain_dispatch_rate(64, hops, &chain_events);
  std::cout << "self-scheduling chains: " << chain_events << " events, "
            << sci(dispatch_rate, 3) << " events/s\n";

  std::uint64_t cancels = 0;
  const double churn_rate = cancel_churn_rate(churn_rounds, &cancels);
  std::cout << "schedule+cancel churn:  " << cancels << " cancellations, "
            << sci(churn_rate, 3) << " cancels/s\n";

  std::uint64_t heavy_events = 0;
  const double heavy_rate = cancel_heavy_rate(64, hops, &heavy_events);
  std::cout << "cancel-heavy chains:    " << heavy_events << " events, "
            << sci(heavy_rate, 3) << " events/s\n";

  std::uint64_t mixed_events = 0;
  const double mixed_rate = mixed_horizon_rate(64, hops, &mixed_events);
  std::cout << "mixed-horizon chains:   " << mixed_events << " events, "
            << sci(mixed_rate, 3) << " events/s\n";

  // Full replay: C1.5 (the paper's best 2-member placement), per-replay
  // event count and sustained event rate through the whole runtime stack.
  // One unmeasured warm-up replay pays the allocator's cold path so the
  // series measures the steady state the campaign driver actually runs in.
  const auto c15 = wl::paper_config("C1.5");
  rt::SimulatedExecutor exec(wl::cori_like_platform());
  (void)exec.run(c15.spec);
  const bench::Stopwatch timer;
  std::uint64_t replay_events = 0;
  for (int i = 0; i < replays; ++i) {
    replay_events += exec.run(c15.spec).events_processed;
  }
  const double replay_wall = timer.seconds();
  const double replay_rate = static_cast<double>(replay_events) / replay_wall;
  std::cout << "full replay (" << c15.name << " x" << replays
            << "): " << replay_events << " events, " << sci(replay_rate, 3)
            << " events/s\n";

  bench::JsonReport report;
  report.add("bench", "engine_throughput");
  report.add("queue_policy", sim::Engine::kQueuePolicy);
  report.add("mode", quick ? "quick" : "full");
  report.add("chain_events", chain_events);
  report.add("chain_events_per_s", dispatch_rate);
  report.add("churn_cancellations", cancels);
  report.add("churn_cancels_per_s", churn_rate);
  report.add("cancel_heavy_events", heavy_events);
  report.add("cancel_heavy_events_per_s", heavy_rate);
  report.add("mixed_horizon_events", mixed_events);
  report.add("mixed_horizon_events_per_s", mixed_rate);
  report.add("replay_config", c15.name);
  report.add("replay_count", replays);
  report.add("replay_events", replay_events);
  report.add("replay_events_per_s", replay_rate);
  report.write("BENCH_engine.json");
  return 0;
}
