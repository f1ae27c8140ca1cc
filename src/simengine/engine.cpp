#include "simengine/engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/recorder.hpp"
#include "support/error.hpp"

namespace wfe::sim {

namespace {

constexpr std::uint64_t pack(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen) << 32) | slot;
}

/// Sweep threshold: dead refs are collected once the heap holds more than
/// twice the live count (and more than this floor), bounding memory at a
/// constant factor of pending() at amortized O(1) per cancel.
constexpr std::size_t kSweepFloor = 64;

}  // namespace

EventId Engine::schedule_at(SimTime t, Callback fn) {
  WFE_REQUIRE(std::isfinite(t), "event time must be finite");
  WFE_REQUIRE(t >= now_, "cannot schedule an event in the virtual past");
  WFE_REQUIRE(static_cast<bool>(fn), "event callback must be callable");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(generations_.size());
    generations_.push_back(1);  // start at 1 so EventId{0} never matches
    fns_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  fns_[slot] = std::move(fn);
  const std::uint32_t gen = generations_[slot];
  heap_.push_back(Ref{t, next_seq_++, slot, gen});
  std::push_heap(heap_.begin(), heap_.end(), RefLater{});
  ++pending_;
  return EventId{pack(slot, gen)};
}

EventId Engine::schedule_in(SimTime delay, Callback fn) {
  WFE_REQUIRE(delay >= 0.0, "event delay must be non-negative");
  return schedule_at(now_ + delay, std::move(fn));
}

void Engine::retire(std::uint32_t slot) {
  ++generations_[slot];
  free_slots_.push_back(slot);
  --pending_;
}

bool Engine::cancel(EventId id) {
  // Lazy deletion: bump the slot's generation so the heap ref is seen as
  // dead when it surfaces or is swept. Stale ids — already fired, already
  // cancelled, or wiped by clear() — fail the generation check and are a
  // no-op returning false.
  const auto slot = static_cast<std::uint32_t>(id.value & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id.value >> 32);
  if (gen == 0 || slot >= generations_.size() || generations_[slot] != gen) {
    return false;
  }
  fns_[slot] = Callback{};  // release the payload immediately
  retire(slot);
  sweep_if_mostly_dead();
  return true;
}

void Engine::sweep_if_mostly_dead() {
  if (heap_.size() <= kSweepFloor || heap_.size() <= 2 * pending_) return;
  std::erase_if(heap_, [&](const Ref& r) { return !live(r); });
  std::make_heap(heap_.begin(), heap_.end(), RefLater{});
}

bool Engine::settle() {
  while (!heap_.empty() && !live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), RefLater{});
    heap_.pop_back();
  }
  return !heap_.empty();
}

void Engine::dispatch_top() {
  std::pop_heap(heap_.begin(), heap_.end(), RefLater{});
  const Ref r = heap_.back();
  heap_.pop_back();
  now_ = r.time;
  ++processed_;
  Callback fn = std::move(fns_[r.slot]);
  retire(r.slot);
  fn();
}

bool Engine::step() {
  if (!settle()) return false;
  dispatch_top();
  return true;
}

SimTime Engine::run() {
  // The untraced path is byte-for-byte the historical loop: tracing is
  // decided once per run() (one atomic load), never per event.
  if (!obs_ || !obs::enabled()) {
    while (step()) {
    }
    return now_;
  }
  const SimTime t0 = now_;
  std::uint64_t last = processed_;
  while (step()) {
    if (processed_ - last >= kObsEventStride) {
      obs::add_counter("engine.events", now_,
                       static_cast<double>(processed_ - last));
      obs::set_counter("engine.queue_depth", now_,
                       static_cast<double>(pending()));
      last = processed_;
    }
  }
  if (processed_ != last) {
    obs::add_counter("engine.events", now_,
                     static_cast<double>(processed_ - last));
    obs::set_counter("engine.queue_depth", now_, 0.0);
  }
  obs::span("engine", "run", t0, now_);
  return now_;
}

void Engine::run_until(SimTime t) {
  WFE_REQUIRE(t >= now_, "run_until target must not be in the past");
  while (settle() && heap_.front().time <= t) {
    dispatch_top();
  }
  now_ = t;
}

void Engine::clear() {
  for (const Ref& r : heap_) {
    if (live(r)) {
      fns_[r.slot] = Callback{};
      retire(r.slot);
    }
  }
  heap_.clear();
}

}  // namespace wfe::sim
