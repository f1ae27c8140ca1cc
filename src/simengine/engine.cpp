#include "simengine/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/recorder.hpp"
#include "support/error.hpp"

namespace wfe::sim {

namespace {

constexpr std::uint64_t pack(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen) << 32) | slot;
}

/// Batch size the near tier aims for: a bucket (or the whole far tier) at
/// or below this size is sorted straight into `near_` instead of being
/// split further. Amortized ordering cost per event is one insertion into
/// a sort of this many 24-byte refs.
constexpr std::size_t kNearBatch = 64;

/// Rung shape: aim for this many refs per bucket when splitting, within
/// [kMinBuckets, kMaxBuckets]. A split of m refs therefore lands whole
/// buckets near kNearBatch-sized, so most buckets sort directly into the
/// near tier without a second split.
constexpr std::size_t kRefsPerBucket = 8;
constexpr std::size_t kMinBuckets = 8;
constexpr std::size_t kMaxBuckets = 4096;

/// Recursion bound: beyond this many stacked rungs the current bucket is
/// sorted into `near_` whole, whatever its size. Sorting is always
/// correct; the cap only bounds pathological time distributions.
constexpr std::size_t kMaxRungs = 32;

/// Sweep threshold: dead refs are collected once the tiers hold more than
/// twice the live count (and more than one batch), bounding memory at a
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
  route(Ref{t, next_seq_++, slot, gen});
  ++pending_;
  return EventId{pack(slot, gen)};
}

EventId Engine::schedule_in(SimTime delay, Callback fn) {
  WFE_REQUIRE(delay >= 0.0, "event delay must be non-negative");
  return schedule_at(now_ + delay, std::move(fn));
}

void Engine::route(const Ref& r) {
  ++refs_held_;
  // Tier invariant: every ref outside `near_` is (time, seq)-after every
  // ref inside it. A new ref carries the globally largest seq, so it may
  // go outside whenever its time is at or beyond the latest near time.
  if (!near_.empty()) {
    // Fires before everything pending (back is the soonest): descending
    // order means it appends in O(1) — the common case when a component
    // schedules its next stage a short delay ahead.
    if (RefLater{}(near_.back(), r)) {
      near_.push_back(r);
      return;
    }
    if (r.time < near_.front().time) {
      near_.insert(
          std::lower_bound(near_.begin(), near_.end(), r, RefLater{}), r);
      return;
    }
  }
  // Finest rung first: the first rung whose range still covers r.time owns
  // it. Times below the rung's unconsumed region clamp into the cursor
  // bucket — that bucket is sorted wholesale when it becomes the near
  // batch, so early refs inside it still dispatch in order.
  for (std::size_t i = active_rungs_; i-- > 0;) {
    Rung& g = rungs_[i];
    if (g.cursor < g.nbuckets && r.time < g.limit) {
      g.buckets[bucket_index(g, r.time)].push_back(r);
      return;
    }
  }
  far_.push_back(r);
}

std::size_t Engine::bucket_index(const Rung& g, SimTime t) const {
  const double d = (t - g.start) / g.width;
  std::size_t idx = 0;
  if (d > 0.0) {
    idx = std::min(static_cast<std::size_t>(d), g.nbuckets - 1);
  }
  return std::max(idx, g.cursor);
}

void Engine::spawn_rung(const std::vector<Ref>& refs, SimTime lo,
                        SimTime hi) {
  if (rungs_.size() == active_rungs_) rungs_.emplace_back();
  Rung& g = rungs_[active_rungs_++];
  g.start = lo;
  g.limit = hi;
  g.cursor = 0;
  g.nbuckets = std::clamp(refs.size() / kRefsPerBucket, kMinBuckets,
                          kMaxBuckets);
  if (g.buckets.size() < g.nbuckets) g.buckets.resize(g.nbuckets);
  g.width = (hi - lo) / static_cast<double>(g.nbuckets);
  for (const Ref& r : refs) {
    const double d = (r.time - g.start) / g.width;
    std::size_t idx = 0;
    if (d > 0.0) idx = std::min(static_cast<std::size_t>(d), g.nbuckets - 1);
    g.buckets[idx].push_back(r);
  }
}

void Engine::fill_near(std::vector<Ref>& bucket) {
  near_.insert(near_.end(), bucket.begin(), bucket.end());
  bucket.clear();
  std::sort(near_.begin(), near_.end(), RefLater{});
}

bool Engine::ensure_near() {
  for (;;) {
    while (!near_.empty() && !live(near_.back())) {
      near_.pop_back();
      --refs_held_;
    }
    if (!near_.empty()) return true;

    if (active_rungs_ > 0) {
      Rung& g = rungs_[active_rungs_ - 1];
      while (g.cursor < g.nbuckets && g.buckets[g.cursor].empty()) {
        ++g.cursor;
      }
      if (g.cursor == g.nbuckets) {
        --active_rungs_;  // rung spent; its storage stays pooled
        continue;
      }
      std::vector<Ref>& bucket = g.buckets[g.cursor];
      const std::size_t before = bucket.size();
      std::erase_if(bucket, [&](const Ref& r) { return !live(r); });
      refs_held_ -= before - bucket.size();
      const SimTime lo = g.start + g.width * static_cast<double>(g.cursor);
      const SimTime hi = (g.cursor + 1 == g.nbuckets)
                             ? g.limit
                             : g.start + g.width *
                                             static_cast<double>(g.cursor + 1);
      ++g.cursor;  // consume now: spawning below may stack a finer rung
      if (bucket.empty()) continue;
      if (bucket.size() <= kNearBatch || active_rungs_ >= kMaxRungs) {
        fill_near(bucket);
        return true;
      }
      // Splittable only if the bucket actually spans distinct times and
      // the sub-bucket width stays representable; otherwise sort it whole.
      const auto [mn, mx] = std::minmax_element(
          bucket.begin(), bucket.end(),
          [](const Ref& a, const Ref& b) { return a.time < b.time; });
      const double width =
          (hi - lo) / static_cast<double>(kMinBuckets);
      if (mn->time == mx->time || !(lo + width > lo)) {
        fill_near(bucket);
        return true;
      }
      spawn_rung(bucket, lo, hi);
      bucket.clear();
      continue;
    }

    if (!far_.empty()) {
      const std::size_t before = far_.size();
      std::erase_if(far_, [&](const Ref& r) { return !live(r); });
      refs_held_ -= before - far_.size();
      if (far_.empty()) return false;
      SimTime mn = far_.front().time;
      SimTime mx = mn;
      for (const Ref& r : far_) {
        mn = std::min(mn, r.time);
        mx = std::max(mx, r.time);
      }
      const double width = (mx - mn) / static_cast<double>(kMinBuckets);
      if (far_.size() <= kNearBatch || mn == mx || !(mn + width > mn)) {
        fill_near(far_);
        return true;
      }
      // The rung must cover its own maximum: nudge the limit past mx so
      // `time < limit` holds for every ref routed while this rung lives.
      const SimTime hi = std::nextafter(
          mx, std::numeric_limits<SimTime>::infinity());
      spawn_rung(far_, mn, hi);
      far_.clear();
      continue;
    }

    return false;
  }
}

void Engine::retire(std::uint32_t slot) {
  ++generations_[slot];
  free_slots_.push_back(slot);
  --pending_;
}

bool Engine::cancel(EventId id) {
  // Lazy deletion: bump the slot's generation so the queued ref is seen as
  // dead when its tier is consumed, split, or swept. Stale ids — already
  // fired, already cancelled, or wiped by clear() — fail the generation
  // check and are a no-op returning false.
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
  if (refs_held_ <= kSweepFloor || refs_held_ <= 2 * pending_) return;
  const auto dead = [&](const Ref& r) { return !live(r); };
  std::erase_if(near_, dead);  // erase_if preserves the sorted order
  for (std::size_t i = 0; i < active_rungs_; ++i) {
    Rung& g = rungs_[i];
    for (std::size_t b = g.cursor; b < g.nbuckets; ++b) {
      std::erase_if(g.buckets[b], dead);
    }
  }
  std::erase_if(far_, dead);
  std::size_t held = near_.size() + far_.size();
  for (std::size_t i = 0; i < active_rungs_; ++i) {
    const Rung& g = rungs_[i];
    for (std::size_t b = g.cursor; b < g.nbuckets; ++b) {
      held += g.buckets[b].size();
    }
  }
  refs_held_ = held;
}

void Engine::dispatch_back() {
  const Ref r = near_.back();
  near_.pop_back();
  --refs_held_;
  now_ = r.time;
  ++processed_;
  Callback fn = std::move(fns_[r.slot]);
  retire(r.slot);
  fn();
}

bool Engine::step() {
  if (!ensure_near()) return false;
  dispatch_back();
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
                       static_cast<double>(queue_depth()));
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
  while (ensure_near() && near_.back().time <= t) {
    dispatch_back();
  }
  now_ = t;
}

void Engine::clear() {
  const auto drop = [&](std::vector<Ref>& refs) {
    for (const Ref& r : refs) {
      if (live(r)) {
        fns_[r.slot] = Callback{};
        retire(r.slot);
      }
    }
    refs.clear();
  };
  drop(near_);
  for (std::size_t i = 0; i < active_rungs_; ++i) {
    Rung& g = rungs_[i];
    for (std::size_t b = g.cursor; b < g.nbuckets; ++b) {
      drop(g.buckets[b]);
    }
  }
  active_rungs_ = 0;
  drop(far_);
  refs_held_ = 0;
}

}  // namespace wfe::sim
