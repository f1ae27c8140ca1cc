// Run-wide structured tracing: the observability substrate of WFEns.
//
// met::Trace captures *what the workload did* (stage intervals, the TAU
// substitute); this layer captures *what the runtime did to make that
// happen* — engine dispatch, scheduler decisions, DTL handshakes,
// fault/recovery actions — as a flat, ordered log of spans, instants and
// counter samples over named tracks, exportable to Chrome trace_event JSON
// (chrome://tracing, Perfetto) and a compact JSONL span log.
//
// Design constraints, in order:
//  * Zero observer effect on results. Emission is passive: it never
//    schedules events, draws random numbers, or otherwise perturbs either
//    executor, so a simulated run traced with the recorder enabled is
//    bit-identical to the same run untraced (the golden-trace harness
//    enforces this).
//  * Near-zero cost when off. Every emission site goes through the free
//    functions below, which reduce to one relaxed atomic load + branch when
//    no recorder is installed, and to nothing at all when the library is
//    built with WFENS_OBS_DISABLED (cmake -DWFENS_OBS=OFF).
//  * Thread-safe when on. Both executors and the scheduler's worker crew
//    emit concurrently; the recorder serializes appends behind one mutex
//    and hands out monotonic sequence ids.
//
// Time base: emissions pass timestamps explicitly. The simulated executor
// and the engine pass *virtual* seconds (deterministic, golden-traceable);
// wall-clock subsystems (native executor, DTL channel waits, scheduler
// batches) pass seconds of the recorder's own monotonic clock via now_s().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/counters.hpp"
#include "support/lock_rank.hpp"

namespace wfe::obs {

enum class EventKind : std::uint8_t {
  kSpan,     ///< an interval [start, end] on a track
  kInstant,  ///< a point event on a track (start == end)
  kCounter,  ///< a sampled counter value at `start` (track unused)
};

/// One recorded event. Strings are interned: `track` and `name` index the
/// RunLog string table.
struct Event {
  std::uint64_t seq = 0;  ///< monotonic id in emission order
  EventKind kind = EventKind::kSpan;
  std::uint32_t track = 0;
  std::uint32_t name = 0;
  double start = 0.0;
  double end = 0.0;    ///< == start for instants and counter samples
  double value = 0.0;  ///< counter samples only

  double duration() const { return end - start; }
};

/// The immutable product of one recording session: the interned string
/// table, the events in emission order, and the final counter totals.
struct RunLog {
  std::vector<std::string> strings;
  std::vector<Event> events;
  CounterSnapshot counters;

  bool empty() const { return events.empty(); }
  std::size_t size() const { return events.size(); }
  std::string_view str(std::uint32_t id) const;

  /// Sorted unique track names over span and instant events.
  std::vector<std::string> tracks() const;
  /// All span events of one track, in emission order.
  std::vector<Event> spans_on(std::string_view track) const;
  /// All counter samples of one counter name, in emission order.
  std::vector<Event> samples_of(std::string_view name) const;
};

/// Thread-safe event sink. One Recorder == one run log; install it as the
/// process-wide session (Session below) to make the library's emission
/// sites feed it.
class Recorder {
 public:
  Recorder();

  // -- emission (thread-safe) ----------------------------------------------
  void span(std::string_view track, std::string_view name, double start,
            double end);
  void instant(std::string_view track, std::string_view name, double at);
  /// Accumulate `delta` into the monotonic counter `name` and record the
  /// post-add total as a sample at `at`.
  void add_counter(std::string_view name, double at, double delta);
  /// Set the gauge `name` to `value` and record a sample at `at`.
  void set_counter(std::string_view name, double at, double value);

  // -- introspection -------------------------------------------------------
  CounterRegistry& counters() { return registry_; }
  const CounterRegistry& counters() const { return registry_; }
  std::uint64_t events_recorded() const;
  /// Seconds since this recorder was constructed (monotonic wall clock);
  /// the time base for non-virtual-time emissions.
  double now_s() const;

  /// Move the accumulated log out (events in emission order, counter
  /// snapshot attached). The recorder is left empty and reusable, but its
  /// counter registry is cleared too.
  RunLog take();

 private:
  using Mutex = support::RankedMutex<support::kRankObsRecorder>;

  std::uint32_t intern_locked(std::string_view s);

  mutable Mutex mutex_;
  std::vector<std::string> strings_;
  // Lookup-only intern index; emission order lives in strings_/events_.
  // wfens-lint: allow(unordered-iter)
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<Event> events_;
  std::uint64_t next_seq_ = 0;
  CounterRegistry registry_;
  std::chrono::steady_clock::time_point epoch_;
};

// -- session management ------------------------------------------------------

/// The recorder currently installed, or nullptr. Emission helpers below go
/// through this; callers that need richer access (counter snapshots, the
/// clock) may use it directly while a session is active.
Recorder* current();

/// Installs `recorder` as the process-wide session for its lifetime.
/// Sessions do not nest: installing a second one throws
/// wfe::InvalidArgument. Destruction uninstalls.
class Session {
 public:
  explicit Session(Recorder& recorder);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
};

// -- emission helpers (the only API instrumented code calls) -----------------

#if defined(WFENS_OBS_DISABLED)

inline constexpr bool kCompiledIn = false;
inline bool enabled() { return false; }
inline void span(std::string_view, std::string_view, double, double) {}
inline void instant(std::string_view, std::string_view, double) {}
inline void add_counter(std::string_view, double, double) {}
inline void set_counter(std::string_view, double, double) {}
inline double now_s() { return 0.0; }

#else

inline constexpr bool kCompiledIn = true;

namespace detail {
extern std::atomic<Recorder*> g_current;
}  // namespace detail

/// True when a session is installed: one load on the hot path
/// (instrumented code caches this per run).
inline bool enabled() {
  return detail::g_current.load(std::memory_order_acquire) != nullptr;
}

inline void span(std::string_view track, std::string_view name, double start,
                 double end) {
  if (Recorder* r = detail::g_current.load(std::memory_order_acquire)) {
    r->span(track, name, start, end);
  }
}

inline void instant(std::string_view track, std::string_view name, double at) {
  if (Recorder* r = detail::g_current.load(std::memory_order_acquire)) {
    r->instant(track, name, at);
  }
}

inline void add_counter(std::string_view name, double at, double delta) {
  if (Recorder* r = detail::g_current.load(std::memory_order_acquire)) {
    r->add_counter(name, at, delta);
  }
}

inline void set_counter(std::string_view name, double at, double value) {
  if (Recorder* r = detail::g_current.load(std::memory_order_acquire)) {
    r->set_counter(name, at, value);
  }
}

/// Seconds on the current session's clock (0.0 with no session): the time
/// base for wall-clock emissions, so all tracks of one session align.
inline double now_s() {
  const Recorder* r = detail::g_current.load(std::memory_order_acquire);
  return r != nullptr ? r->now_s() : 0.0;
}

#endif  // WFENS_OBS_DISABLED

}  // namespace wfe::obs
