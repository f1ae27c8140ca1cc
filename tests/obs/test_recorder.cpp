// Recorder + Session semantics: sequence ids, string interning, session
// exclusivity, runtime toggle, RunLog accessors.
#include "obs/recorder.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "support/error.hpp"

namespace wfe::obs {
namespace {

TEST(Recorder, SequenceIdsAreMonotonicInEmissionOrder) {
  Recorder rec;
  rec.span("t", "a", 0.0, 1.0);
  rec.instant("t", "b", 1.0);
  rec.add_counter("n", 1.5, 2.0);
  rec.set_counter("g", 2.0, 7.0);
  const RunLog log = rec.take();
  ASSERT_EQ(log.size(), 4u);
  for (std::size_t i = 0; i < log.events.size(); ++i) {
    EXPECT_EQ(log.events[i].seq, i);
  }
  EXPECT_EQ(log.events[0].kind, EventKind::kSpan);
  EXPECT_EQ(log.events[1].kind, EventKind::kInstant);
  EXPECT_EQ(log.events[2].kind, EventKind::kCounter);
  EXPECT_EQ(log.events[3].kind, EventKind::kCounter);
}

TEST(Recorder, InstantHasEqualStartAndEnd) {
  Recorder rec;
  rec.instant("t", "tick", 3.25);
  const RunLog log = rec.take();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.events[0].start, 3.25);
  EXPECT_EQ(log.events[0].end, 3.25);
  EXPECT_EQ(log.events[0].duration(), 0.0);
}

TEST(Recorder, StringsAreInternedOnce) {
  Recorder rec;
  rec.span("sim0", "S", 0.0, 1.0);
  rec.span("sim0", "S", 1.0, 2.0);
  rec.span("sim0", "W", 2.0, 3.0);
  const RunLog log = rec.take();
  // "sim0", "S", "W" — three distinct strings however many events.
  EXPECT_EQ(log.strings.size(), 3u);
  EXPECT_EQ(log.events[0].track, log.events[1].track);
  EXPECT_EQ(log.events[0].name, log.events[1].name);
  EXPECT_NE(log.events[1].name, log.events[2].name);
  EXPECT_EQ(log.str(log.events[2].name), "W");
}

TEST(Recorder, CounterEventsCarryPostUpdateTotals) {
  Recorder rec;
  rec.add_counter("n", 0.0, 3.0);
  rec.add_counter("n", 1.0, 2.0);
  rec.set_counter("g", 2.0, 9.0);
  const RunLog samples_log = rec.take();
  const std::vector<Event> n = samples_log.samples_of("n");
  ASSERT_EQ(n.size(), 2u);
  EXPECT_EQ(n[0].value, 3.0);
  EXPECT_EQ(n[1].value, 5.0);  // cumulative, not the delta
  const std::vector<Event> g = samples_log.samples_of("g");
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g[0].value, 9.0);
}

TEST(Recorder, TakeDrainsAndLeavesRecorderReusable) {
  Recorder rec;
  rec.span("t", "a", 0.0, 1.0);
  rec.add_counter("n", 0.5, 1.0);
  const RunLog first = rec.take();
  EXPECT_EQ(first.size(), 2u);
  ASSERT_EQ(first.counters.size(), 1u);
  EXPECT_EQ(first.counters[0].value, 1.0);

  EXPECT_EQ(rec.events_recorded(), 0u);
  EXPECT_EQ(rec.counters().size(), 0u);  // registry cleared with the log
  rec.span("t", "b", 2.0, 3.0);
  const RunLog second = rec.take();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second.events[0].seq, 0u);  // sequence restarts per log
  EXPECT_EQ(second.str(second.events[0].name), "b");
}

TEST(Recorder, TakeAttachesCounterSnapshot) {
  Recorder rec;
  rec.add_counter("b.mono", 0.0, 4.0);
  rec.set_counter("a.gauge", 0.0, 2.5);
  const RunLog log = rec.take();
  ASSERT_EQ(log.counters.size(), 2u);
  EXPECT_EQ(log.counters[0].name, "a.gauge");
  EXPECT_EQ(log.counters[0].kind, CounterKind::kGauge);
  EXPECT_EQ(log.counters[1].name, "b.mono");
  EXPECT_EQ(log.counters[1].value, 4.0);
}

TEST(Recorder, NowIsMonotonicNonNegative) {
  Recorder rec;
  const double a = rec.now_s();
  const double b = rec.now_s();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(Recorder, ConcurrentEmissionKeepsSequenceDense) {
  Recorder rec;
  constexpr int kThreads = 4;
  constexpr int kEach = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kEach; ++i) {
        rec.span("track" + std::to_string(t), "s", i, i + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const RunLog log = rec.take();
  ASSERT_EQ(log.size(), std::size_t{kThreads * kEach});
  for (std::size_t i = 0; i < log.events.size(); ++i) {
    EXPECT_EQ(log.events[i].seq, i);  // dense: no gaps, no duplicates
  }
}

TEST(RunLog, TracksAreSortedUniqueAndSkipCounters) {
  Recorder rec;
  rec.span("zeta", "s", 0.0, 1.0);
  rec.instant("alpha", "i", 0.5);
  rec.span("zeta", "s", 1.0, 2.0);
  rec.add_counter("not.a.track", 0.0, 1.0);
  const RunLog log = rec.take();
  const std::vector<std::string> tracks = log.tracks();
  ASSERT_EQ(tracks.size(), 2u);
  EXPECT_EQ(tracks[0], "alpha");
  EXPECT_EQ(tracks[1], "zeta");
}

TEST(RunLog, SpansOnFiltersByTrackAndKind) {
  Recorder rec;
  rec.span("a", "x", 0.0, 1.0);
  rec.instant("a", "y", 0.5);  // instants are not spans
  rec.span("b", "x", 0.0, 1.0);
  rec.span("a", "z", 1.0, 2.0);
  const RunLog log = rec.take();
  const std::vector<Event> spans = log.spans_on("a");
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(log.str(spans[0].name), "x");
  EXPECT_EQ(log.str(spans[1].name), "z");
  EXPECT_TRUE(log.spans_on("missing").empty());
}

TEST(Session, InstallsAndUninstallsCurrentRecorder) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  EXPECT_EQ(current(), nullptr);
  {
    Recorder rec;
    Session session(rec);
    EXPECT_EQ(current(), &rec);
    EXPECT_TRUE(enabled());
  }
  EXPECT_EQ(current(), nullptr);
  EXPECT_FALSE(enabled());
}

TEST(Session, NestingThrows) {
  Recorder a, b;
  Session outer(a);
  EXPECT_THROW(Session inner(b), InvalidArgument);
  EXPECT_EQ(current(), &a);  // failed install leaves the outer session alone
}

TEST(Session, FreeFunctionsFeedTheInstalledRecorder) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  Recorder rec;
  {
    Session session(rec);
    span("t", "s", 0.0, 1.0);
    instant("t", "i", 0.5);
    add_counter("n", 1.0, 2.0);
    set_counter("g", 1.0, 3.0);
  }
  // After the session ends, emission is inert again.
  span("t", "late", 2.0, 3.0);
  const RunLog log = rec.take();
  EXPECT_EQ(log.size(), 4u);
  EXPECT_TRUE(log.spans_on("t").size() == 1u);
}

TEST(Session, NowWithoutSessionIsZero) {
  EXPECT_EQ(now_s(), 0.0);
  Recorder rec;
  Session session(rec);
  EXPECT_GE(now_s(), 0.0);
}

TEST(Obs, CompiledInMatchesBuildConfiguration) {
#if defined(WFENS_OBS_DISABLED)
  EXPECT_FALSE(kCompiledIn);
#else
  EXPECT_TRUE(kCompiledIn);
#endif
}

}  // namespace
}  // namespace wfe::obs
