// Discrete-event simulation engine.
//
// The SimulatedExecutor (src/runtime) replays workflow-ensemble executions on
// the modelled cluster by scheduling the fine-grained stages of every
// component (S, I^S, W, R, A, I^A — Section 3.1 of the paper) as events on
// this engine. The engine itself is domain-agnostic: a virtual clock, a
// stable priority queue of callbacks, and cancellation.
//
// Determinism: events at equal timestamps fire in scheduling order (a
// monotonically increasing sequence number breaks ties), so simulations are
// reproducible bit-for-bit regardless of container or load.
//
// Hot-path layout: the pending set is a two-tier calendar/ladder queue over
// an entry arena, not a binary heap.
//
//  * Callbacks live in a slot arena (`fns_`): one SmallFn per slot, slots
//    recycled through a free-list, liveness tracked by a per-slot
//    generation (an EventId is a (slot, generation) pair; cancellation or
//    dispatch bumps the generation, so stale handles are inert).
//  * The queue tiers hold 24-byte trivially-copyable refs (time, seq,
//    slot, gen) — scheduling, splitting and sorting never move a callback;
//    a SmallFn is moved exactly twice: into its slot and out at dispatch.
//  * `near_` is a batch of the soonest refs, sorted descending so dispatch
//    is pop_back. `rungs_` are lazily-split bucket arrays covering the
//    middle distance. `far_` is an unsorted overflow for the far future.
//    New events append to `far_` in O(1); when `near_` drains, the next
//    bucket (or `far_` itself) is split or sorted into the next batch, so
//    ordering work is O(log batch) amortized per event and touches only
//    refs near their dispatch time. Cancelled refs are dropped when the
//    tier holding them is split/sorted, or by a global sweep once corpses
//    outnumber live events.
//
// Steady state (every vector at its high-water capacity) performs zero heap
// allocations across schedule/cancel/step — see
// tests/simengine/test_queue_equivalence.cpp for the counting harness.
#pragma once

#include <cstdint>
#include <vector>

#include "simengine/small_fn.hpp"

namespace wfe::sim {

/// Virtual time in seconds.
using SimTime = double;

/// Handle to a scheduled event; valid until the event fires or is cancelled.
/// Encodes a slot index (low 32 bits) and that slot's generation at
/// scheduling time (high 32 bits): stale handles — fired, cancelled, or
/// wiped by clear() — simply fail the generation check.
struct EventId {
  std::uint64_t value = 0;
  friend bool operator==(EventId a, EventId b) { return a.value == b.value; }
};

/// Event-driven virtual-time engine.
class Engine {
 public:
  using Callback = SmallFn;

  /// Current virtual time. Starts at 0.
  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute virtual time `t` (must be >= now()).
  EventId schedule_at(SimTime t, Callback fn);

  /// Schedule `fn` after a non-negative delay relative to now().
  EventId schedule_in(SimTime delay, Callback fn);

  /// Cancel a pending event. Returns true if the event was still pending;
  /// cancelling an already-fired or already-cancelled event is a no-op.
  bool cancel(EventId id);

  /// Run one event. Returns false if the queue is empty.
  bool step();

  /// Run until the queue drains. Returns the final virtual time.
  SimTime run();

  /// Run events with time <= t, then advance the clock to exactly t.
  void run_until(SimTime t);

  bool empty() const { return pending_ == 0; }
  std::size_t pending() const { return pending_; }
  std::uint64_t events_processed() const { return processed_; }

  /// Live pending events — cancellation takes effect here immediately.
  /// (Historically this reported internal queue entries including
  /// lazily-deleted corpses; diagnostics that want that number use
  /// refs_held().)
  std::size_t queue_depth() const { return pending_; }

  /// Queue refs currently held across all tiers, including cancelled ones
  /// not yet collected. Diagnostics only: dead refs are dropped when their
  /// tier is split or sorted, and a global sweep bounds this at a constant
  /// factor of pending(), so cancel-heavy runs (fault injection kills
  /// in-flight events en masse) cannot grow the queue without bound.
  std::size_t refs_held() const { return refs_held_; }

  /// Arena slots ever created (high-water mark of concurrently pending
  /// events). Diagnostics for the reuse tests: steady-state workloads must
  /// recycle slots instead of growing this.
  std::size_t arena_slots() const { return generations_.size(); }

  /// Abort: drop all pending events without running them.
  void clear();

  /// Opt this engine out of (or back into) observability emission. Run
  /// traces only want the foreground replay; background engines (the
  /// scheduler's probe replays) stay quiet. No effect on results either
  /// way — emission is passive.
  void set_obs(bool on) { obs_ = on; }
  bool obs() const { return obs_; }

 private:
  /// Counter-sample cadence of a traced run(): one `engine.events` /
  /// `engine.queue_depth` emission per this many dispatched events.
  static constexpr std::uint64_t kObsEventStride = 64;

  /// Queue entry: everything ordering needs, nothing dispatch owns. The
  /// callback stays in the arena; refs are trivially copyable so tier
  /// moves, sorts and splits are flat memory operations.
  struct Ref {
    SimTime time;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// Descending (time, seq): sorted ranges dispatch from the back.
  struct RefLater {
    bool operator()(const Ref& a, const Ref& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// One ladder rung: `nbuckets` equal-width buckets over [start, limit).
  /// `cursor` is the next unconsumed bucket; buckets below it are spent.
  /// Rung objects (and their bucket vectors) are pooled in `rungs_` and
  /// reused across spawns so steady-state splitting never allocates.
  struct Rung {
    SimTime start = 0.0;
    SimTime width = 0.0;
    SimTime limit = 0.0;
    std::size_t cursor = 0;
    std::size_t nbuckets = 0;
    std::vector<std::vector<Ref>> buckets;
  };

  /// A ref is pending iff its stamped generation is the slot's current one.
  bool live(const Ref& r) const { return generations_[r.slot] == r.gen; }

  /// Invalidate a slot's outstanding id and recycle it.
  void retire(std::uint32_t slot);

  /// File a ref into the tier covering its timestamp.
  void route(const Ref& r);

  /// Bucket index for `t` in `g`, clamped to [cursor, nbuckets).
  std::size_t bucket_index(const Rung& g, SimTime t) const;

  /// Refill `near_` from the rungs / far tier until it holds a live ref.
  /// Returns false when no live events remain anywhere.
  bool ensure_near();

  /// Distribute `refs` over a fresh (pooled) finest rung spanning
  /// [lo, hi). Caller guarantees a usable positive bucket width.
  void spawn_rung(const std::vector<Ref>& refs, SimTime lo, SimTime hi);

  /// Sort `bucket`'s survivors into `near_` as the next dispatch batch.
  void fill_near(std::vector<Ref>& bucket);

  /// Drop dead refs from every tier when corpses dominate the queue.
  void sweep_if_mostly_dead();

  /// Pop the back of `near_` (must be live) and run its callback.
  void dispatch_back();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t pending_ = 0;
  std::size_t refs_held_ = 0;
  bool obs_ = true;

  // Entry arena: per-slot callback storage + generation stamps.
  std::vector<Callback> fns_;
  std::vector<std::uint32_t> generations_;
  std::vector<std::uint32_t> free_slots_;

  // Queue tiers.
  std::vector<Ref> near_;    // sorted descending; back = next to fire
  std::vector<Rung> rungs_;  // rung pool; [0, active_rungs_) are live,
  std::size_t active_rungs_ = 0;  // coarsest first, finest last
  std::vector<Ref> far_;     // unsorted overflow beyond every rung
};

}  // namespace wfe::sim
