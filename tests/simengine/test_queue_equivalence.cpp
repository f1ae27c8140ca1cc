// Differential fuzz of the engine's ref heap over its slot arena against a
// reference heap of its own, plus arena-reuse and steady-state-allocation
// checks.
//
// The reference model is the semantics contract: a stable min-heap over
// (time, seq) with lazy deletion and no slot arena. The fuzz
// drives both with the same randomized op stream (schedule / cancel /
// reschedule / run_until / drain) and asserts the dispatch orders are
// identical, including the FIFO seq tie-break at equal timestamps. Any
// divergence in the engine's slot recycling, generation stamps, corpse
// skipping or sweeping shows up as a mismatched pop sequence.
//
// This TU also overrides global operator new/delete with counting hooks to
// prove the zero-allocation steady-state claim in engine.hpp. The override
// is process-wide, so these hooks are deliberately trivial (relaxed atomic
// bumps around malloc/free) and the TU gets its own test binary.
#include "simengine/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <queue>
#include <vector>

#include "support/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace wfe::sim {
namespace {

/// The plainest pending-event set: a lazy-deletion binary heap of entry
/// tokens keyed (time, seq), payloads stored inline. Kept minimal — this is the oracle, not a competitor.
class ReferenceHeap {
 public:
  // Returns a token for cancel(); tokens are never reused.
  std::size_t schedule(SimTime t, int payload) {
    entries_.push_back(Entry{t, next_seq_++, payload, true});
    const std::size_t token = entries_.size() - 1;
    heap_.push_back(token);
    std::push_heap(heap_.begin(), heap_.end(), Later{entries_});
    return token;
  }

  bool cancel(std::size_t token) {
    if (token >= entries_.size() || !entries_[token].live) return false;
    entries_[token].live = false;
    return true;
  }

  /// Pop live entries with time <= t, appending payloads to `out`.
  /// `t < 0` means drain everything.
  void run_until(SimTime t, std::vector<int>& out) {
    while (!heap_.empty()) {
      const Entry& top = entries_[heap_.front()];
      if (top.live && t >= 0.0 && top.time > t) break;
      std::pop_heap(heap_.begin(), heap_.end(), Later{entries_});
      const std::size_t token = heap_.back();
      heap_.pop_back();
      Entry& e = entries_[token];
      if (!e.live) continue;
      e.live = false;
      now_ = e.time;
      out.push_back(e.payload);
    }
    if (t >= 0.0) now_ = std::max(now_, t);
  }

  SimTime now() const { return now_; }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    int payload;
    bool live;
  };
  struct Later {
    const std::vector<Entry>& entries;
    bool operator()(std::size_t a, std::size_t b) const {
      const Entry& x = entries[a];
      const Entry& y = entries[b];
      if (x.time != y.time) return x.time > y.time;
      return x.seq > y.seq;
    }
  };
  std::vector<Entry> entries_;
  std::vector<std::size_t> heap_;
  std::uint64_t next_seq_ = 0;
  SimTime now_ = 0.0;
};

/// One fuzz round: a fresh engine + reference driven by `rounds` random
/// ops, with every dispatch recorded through a shared payload counter.
void fuzz_round(std::uint64_t seed, int ops) {
  Xoshiro256 rng(seed);
  Engine engine;
  engine.set_obs(false);
  ReferenceHeap reference;

  std::vector<int> engine_order;
  std::vector<int> reference_order;
  // Parallel arrays of live handles (kept loosely in sync; stale entries
  // are fine — cancel must agree on them too).
  std::vector<EventId> engine_ids;
  std::vector<std::size_t> reference_tokens;
  std::vector<int> payloads;
  int next_payload = 0;

  const auto schedule_one = [&](SimTime horizon) {
    const SimTime t = engine.now() + rng.uniform01() * horizon;
    const int payload = next_payload++;
    engine_ids.push_back(engine.schedule_at(
        t, [&engine_order, payload] { engine_order.push_back(payload); }));
    reference_tokens.push_back(reference.schedule(t, payload));
    payloads.push_back(payload);
  };

  for (int op = 0; op < ops; ++op) {
    switch (rng.below(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // schedule: mixed horizons, heavy on the near future
        const SimTime horizon = (rng.below(4) == 0) ? 1e6 : 10.0;
        schedule_one(horizon);
        break;
      }
      case 4: {  // duplicate-timestamp burst: exercises the seq tie-break
        const SimTime t = engine.now() + rng.uniform01() * 5.0;
        for (int k = 0; k < 3; ++k) {
          const int payload = next_payload++;
          engine_ids.push_back(engine.schedule_at(
              t, [&engine_order, payload] {
                engine_order.push_back(payload);
              }));
          reference_tokens.push_back(reference.schedule(t, payload));
          payloads.push_back(payload);
        }
        break;
      }
      case 5:
      case 6: {  // cancel a (possibly stale) handle — results must agree
        if (engine_ids.empty()) break;
        const std::size_t i = rng.below(engine_ids.size());
        const bool a = engine.cancel(engine_ids[i]);
        const bool b = reference.cancel(reference_tokens[i]);
        ASSERT_EQ(a, b) << "cancel divergence at op " << op;
        break;
      }
      case 7: {  // reschedule: cancel + schedule at a new time
        if (engine_ids.empty()) break;
        const std::size_t i = rng.below(engine_ids.size());
        const bool a = engine.cancel(engine_ids[i]);
        const bool b = reference.cancel(reference_tokens[i]);
        ASSERT_EQ(a, b) << "reschedule-cancel divergence at op " << op;
        if (a) schedule_one(100.0);
        break;
      }
      case 8: {  // run_until: dispatch a prefix, clocks must track
        const SimTime t = engine.now() + rng.uniform01() * 20.0;
        engine.run_until(t);
        reference.run_until(t, reference_order);
        ASSERT_EQ(engine.now(), reference.now())
            << "clock divergence at op " << op;
        break;
      }
      case 9: {  // occasional full drain
        if (rng.below(8) != 0) {
          schedule_one(50.0);
          break;
        }
        engine.run();
        reference.run_until(-1.0, reference_order);
        break;
      }
    }
    ASSERT_EQ(engine_order, reference_order)
        << "dispatch-order divergence at op " << op << " (seed " << seed
        << ")";
  }

  engine.run();
  reference.run_until(-1.0, reference_order);
  ASSERT_EQ(engine_order, reference_order) << "final drain (seed " << seed
                                           << ")";
  EXPECT_TRUE(engine.empty());
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(QueueEquivalence, MatchesReferenceHeapAcross10kRounds) {
  // 10k randomized rounds — short streams in bulk plus a long-stream tail.
  // Spot checks: ~1.9M dispatched events total across the sweep.
  SplitMix64 seeds(0x5eedc0de5eedc0deULL);
  for (int round = 0; round < 10000; ++round) {
    const int ops = (round % 100 == 0) ? 600 : 40;
    fuzz_round(seeds.next(), ops);
    if (HasFatalFailure()) {
      ADD_FAILURE() << "diverged in round " << round;
      return;
    }
  }
}

TEST(QueueEquivalence, SeqTieBreakSurvivesRungSplits) {
  // A large same-timestamp cohort must come back out in scheduling order:
  // the heap is not stable, so only the seq tie-break keeps it FIFO.
  Engine e;
  e.set_obs(false);
  std::vector<int> order;
  // Spread enough events to make the heap deep, with a same-time cohort
  // scheduled after them and far from the top.
  for (int i = 0; i < 2000; ++i) {
    e.schedule_at(1.0 + i, [] {});
  }
  for (int i = 0; i < 500; ++i) {
    e.schedule_at(777.5, [&order, i] { order.push_back(i); });
  }
  e.run();
  ASSERT_EQ(order.size(), 500u);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(QueueEquivalence, ArenaRecyclesSlotsInSteadyState) {
  // A bounded-pending workload must plateau at a bounded arena: slots are
  // recycled through the free-list, not appended per event.
  Engine e;
  e.set_obs(false);
  for (int i = 0; i < 64; ++i) {
    e.schedule_at(1.0 + i, [] {});
  }
  for (int i = 0; i < 100000; ++i) {
    e.step();
    e.schedule_at(e.now() + 64.0, [] {});
  }
  EXPECT_LE(e.arena_slots(), 256u);
  EXPECT_LE(e.refs_held(), 512u);
  e.clear();
}

TEST(QueueEquivalence, CancelledHeapCallbacksAreDestroyed) {
  // A callback too large for SmallFn's inline buffer heap-allocates; a
  // cancel must destroy it immediately (checked by ASan leak detection and
  // by the capture's destructor side effect).
  struct Big {
    // > 48 bytes: forces the heap path of SmallFn.
    double payload[16] = {};
    int* counter;
    explicit Big(int* c) : counter(c) {}
    Big(Big&& o) noexcept : counter(o.counter) { o.counter = nullptr; }
    ~Big() {
      if (counter) ++*counter;
    }
    void operator()() const {}
  };
  int destroyed = 0;
  {
    Engine e;
    e.set_obs(false);
    const EventId id = e.schedule_at(1.0, Big(&destroyed));
    ASSERT_TRUE(e.cancel(id));
    EXPECT_EQ(destroyed, 1) << "cancel must release the payload eagerly";
    e.schedule_at(2.0, Big(&destroyed));
    // Engine destruction releases the arena without running anything.
  }
  EXPECT_EQ(destroyed, 2);
}

TEST(QueueEquivalence, SteadyStateReplayMakesZeroAllocations) {
  // The zero-allocation acceptance hook. Warm-up drives every vector in
  // the engine to its high-water capacity (ref heap, free-list, arena);
  // the measured window then schedules/cancels/runs a comparable workload
  // and must not touch the global allocator at all.
  //
  // Callbacks capture a single pointer (inline in SmallFn) so the payload
  // itself cannot allocate.
  Engine e;
  e.set_obs(false);
  std::uint64_t fired = 0;

  std::vector<EventId> cancellable;
  cancellable.reserve(1024);  // harness storage: not the engine's to avoid
  const auto churn = [&](int rounds) {
    Xoshiro256 rng(42);  // same stream both passes
    cancellable.clear();
    for (int i = 0; i < rounds; ++i) {
      const SimTime horizon = (rng.below(4) == 0) ? 1e5 : 10.0;
      const EventId id = e.schedule_at(
          e.now() + rng.uniform01() * horizon, [&fired] { ++fired; });
      if (rng.below(3) == 0) {
        cancellable.push_back(id);
      }
      if (cancellable.size() > 512) {
        e.cancel(cancellable[rng.below(cancellable.size())]);
        cancellable.pop_back();
      }
      if (rng.below(2) == 0) e.step();
    }
    while (e.step()) {
    }
  };

  churn(20000);  // warm-up: reach high-water capacity everywhere

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  churn(20000);  // measured: identical op stream, zero allocations
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "steady-state schedule/cancel/run must not allocate";
  EXPECT_GT(fired, 20000u);
}

}  // namespace
}  // namespace wfe::sim
