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
// Layout: the pending set is a binary min-heap of refs over an entry arena.
//
//  * Callbacks live in a slot arena (`fns_`): one SmallFn per slot, slots
//    recycled through a free-list, liveness tracked by a per-slot
//    generation (an EventId is a (slot, generation) pair; cancellation or
//    dispatch bumps the generation, so stale handles are inert).
//  * The heap holds 24-byte trivially-copyable refs (time, seq, slot, gen)
//    ordered by (time, seq) — a strict total order, so dispatch order is
//    fully determined. Sifting never moves a callback; a SmallFn is moved
//    exactly twice: into its slot and out at dispatch.
//  * Cancellation is lazy: a cancelled ref stays in the heap until it
//    surfaces at the top, or until a sweep drops every corpse once they
//    outnumber live events.
//
// One engine lives per replay and holds a handful of pending events (one
// per component), so a plain heap is all the ordering work needs — see
// docs/PERF.md §4.
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
  /// Live pending events — cancellation takes effect here immediately.
  std::size_t pending() const { return pending_; }
  std::uint64_t events_processed() const { return processed_; }

  /// Heap refs currently held, including cancelled ones not yet collected.
  /// Diagnostics only: dead refs are dropped when they reach the top, and
  /// a sweep bounds this at max(64, 2 * pending()), so cancel-heavy runs
  /// (fault injection kills in-flight events en masse) cannot grow the
  /// queue without bound.
  std::size_t refs_held() const { return heap_.size(); }

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

  /// Heap entry: everything ordering needs, nothing dispatch owns. The
  /// callback stays in the arena; refs are trivially copyable so sifts are
  /// flat memory operations.
  struct Ref {
    SimTime time;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// Heap order: "a fires after b". std::push_heap/pop_heap build a
  /// max-heap under this, so the soonest (time, seq) sits at front().
  struct RefLater {
    bool operator()(const Ref& a, const Ref& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// A ref is pending iff its stamped generation is the slot's current one.
  bool live(const Ref& r) const { return generations_[r.slot] == r.gen; }

  /// Invalidate a slot's outstanding id and recycle it.
  void retire(std::uint32_t slot);

  /// Pop dead refs off the top. Returns false when no live event remains.
  bool settle();

  /// Drop dead refs from the heap when corpses dominate it.
  void sweep_if_mostly_dead();

  /// Pop the top of the heap (must be live) and run its callback.
  void dispatch_top();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t pending_ = 0;
  bool obs_ = true;

  // Entry arena: per-slot callback storage + generation stamps.
  std::vector<Callback> fns_;
  std::vector<std::uint32_t> generations_;
  std::vector<std::uint32_t> free_slots_;

  // Min-heap on (time, seq); front() fires next.
  std::vector<Ref> heap_;
};

}  // namespace wfe::sim
