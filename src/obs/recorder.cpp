#include "obs/recorder.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "support/error.hpp"

namespace wfe::obs {

#if !defined(WFENS_OBS_DISABLED)
namespace detail {
std::atomic<Recorder*> g_current{nullptr};
}  // namespace detail
#else
namespace detail {
// Compiled-out builds still support sessions (tools construct them
// unconditionally); only the emission sites vanish.
static std::atomic<Recorder*> g_current{nullptr};
}  // namespace detail
#endif

std::string_view RunLog::str(std::uint32_t id) const {
  WFE_REQUIRE(id < strings.size(), "string id out of range");
  return strings[id];
}

std::vector<std::string> RunLog::tracks() const {
  std::set<std::string_view> seen;
  for (const Event& e : events) {
    if (e.kind != EventKind::kCounter) seen.insert(str(e.track));
  }
  return {seen.begin(), seen.end()};
}

std::vector<Event> RunLog::spans_on(std::string_view track) const {
  std::vector<Event> out;
  for (const Event& e : events) {
    if (e.kind == EventKind::kSpan && str(e.track) == track) out.push_back(e);
  }
  return out;
}

std::vector<Event> RunLog::samples_of(std::string_view name) const {
  std::vector<Event> out;
  for (const Event& e : events) {
    if (e.kind == EventKind::kCounter && str(e.name) == name) {
      out.push_back(e);
    }
  }
  return out;
}

Recorder::Recorder() : epoch_(std::chrono::steady_clock::now()) {}

std::uint32_t Recorder::intern_locked(std::string_view s) {
  const auto it = ids_.find(std::string(s));
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(strings_.size());
  strings_.emplace_back(s);
  ids_.emplace(strings_.back(), id);
  return id;
}

void Recorder::span(std::string_view track, std::string_view name,
                    double start, double end) {
  WFE_REQUIRE(std::isfinite(start) && std::isfinite(end) && end >= start,
              "span bounds must be finite with end >= start");
  const support::RankGuard<Mutex> lock(mutex_);
  events_.push_back(Event{next_seq_++, EventKind::kSpan,
                          intern_locked(track), intern_locked(name), start,
                          end, 0.0});
}

void Recorder::instant(std::string_view track, std::string_view name,
                       double at) {
  WFE_REQUIRE(std::isfinite(at), "instant timestamp must be finite");
  const support::RankGuard<Mutex> lock(mutex_);
  events_.push_back(Event{next_seq_++, EventKind::kInstant,
                          intern_locked(track), intern_locked(name), at, at,
                          0.0});
}

void Recorder::add_counter(std::string_view name, double at, double delta) {
  WFE_REQUIRE(std::isfinite(at), "counter timestamp must be finite");
  const double total = registry_.add(name, delta);
  const support::RankGuard<Mutex> lock(mutex_);
  events_.push_back(Event{next_seq_++, EventKind::kCounter, 0,
                          intern_locked(name), at, at, total});
}

void Recorder::set_counter(std::string_view name, double at, double value) {
  WFE_REQUIRE(std::isfinite(at), "counter timestamp must be finite");
  const double level = registry_.set(name, value);
  const support::RankGuard<Mutex> lock(mutex_);
  events_.push_back(Event{next_seq_++, EventKind::kCounter, 0,
                          intern_locked(name), at, at, level});
}

std::uint64_t Recorder::events_recorded() const {
  const support::RankGuard<Mutex> lock(mutex_);
  return static_cast<std::uint64_t>(events_.size());
}

double Recorder::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

RunLog Recorder::take() {
  RunLog log;
  {
    const support::RankGuard<Mutex> lock(mutex_);
    log.strings = std::move(strings_);
    log.events = std::move(events_);
    strings_.clear();
    events_.clear();
    ids_.clear();
    next_seq_ = 0;
  }
  log.counters = registry_.snapshot();
  registry_.clear();
  return log;
}

Recorder* current() {
  return detail::g_current.load(std::memory_order_acquire);
}

Session::Session(Recorder& recorder) {
  Recorder* expected = nullptr;
  WFE_REQUIRE(detail::g_current.compare_exchange_strong(
                  expected, &recorder, std::memory_order_acq_rel),
              "an observability session is already installed");
}

Session::~Session() {
  detail::g_current.store(nullptr, std::memory_order_release);
}

}  // namespace wfe::obs
