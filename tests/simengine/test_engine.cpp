// Tests for the discrete-event engine: ordering, determinism, cancellation.
#include "simengine/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace wfe::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0.0);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 3.0);
}

TEST(Engine, EqualTimesFireInSchedulingOrder) {
  Engine e;
  std::string log;
  e.schedule_at(1.0, [&] { log += 'a'; });
  e.schedule_at(1.0, [&] { log += 'b'; });
  e.schedule_at(1.0, [&] { log += 'c'; });
  e.run();
  EXPECT_EQ(log, "abc");
}

TEST(Engine, ScheduleInIsRelative) {
  Engine e;
  double fired_at = -1.0;
  e.schedule_at(5.0, [&] {
    e.schedule_in(2.5, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Engine, RejectsPastEvents) {
  Engine e;
  e.schedule_at(1.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(0.5, [] {}), InvalidArgument);
}

TEST(Engine, RejectsNegativeDelay) {
  Engine e;
  EXPECT_THROW(e.schedule_in(-1.0, [] {}), InvalidArgument);
}

TEST(Engine, RejectsNonFiniteTime) {
  Engine e;
  EXPECT_THROW(e.schedule_at(std::numeric_limits<double>::infinity(), [] {}),
               InvalidArgument);
  EXPECT_THROW(e.schedule_at(std::nan(""), [] {}), InvalidArgument);
}

TEST(Engine, RejectsEmptyCallback) {
  Engine e;
  EXPECT_THROW(e.schedule_at(1.0, Engine::Callback{}), InvalidArgument);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, CancelTwiceReturnsFalse) {
  Engine e;
  const EventId id = e.schedule_at(1.0, [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, CancelFiredEventIsNoop) {
  Engine e;
  const EventId id = e.schedule_at(1.0, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, CancelledEventDoesNotAdvanceClock) {
  Engine e;
  const EventId id = e.schedule_at(10.0, [] {});
  e.schedule_at(1.0, [] {});
  e.cancel(id);
  e.run();
  EXPECT_EQ(e.now(), 1.0);
}

TEST(Engine, StepRunsExactlyOneEvent) {
  Engine e;
  int count = 0;
  e.schedule_at(1.0, [&] { ++count; });
  e.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(e.step());
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine e;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    e.schedule_at(t, [&fired, &e] { fired.push_back(e.now()); });
  }
  e.run_until(2.5);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(e.now(), 2.5);
  EXPECT_EQ(e.pending(), 2u);
}

TEST(Engine, RunUntilIncludesBoundaryEvents) {
  Engine e;
  bool fired = false;
  e.schedule_at(2.0, [&] { fired = true; });
  e.run_until(2.0);
  EXPECT_TRUE(fired);
}

TEST(Engine, RunUntilRejectsPast) {
  Engine e;
  e.schedule_at(5.0, [] {});
  e.run();
  EXPECT_THROW(e.run_until(1.0), InvalidArgument);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) e.schedule_in(1.0, chain);
  };
  e.schedule_at(0.0, chain);
  e.run();
  EXPECT_EQ(depth, 10);
  EXPECT_DOUBLE_EQ(e.now(), 9.0);
}

TEST(Engine, ClearDropsPendingEvents) {
  Engine e;
  bool fired = false;
  e.schedule_at(1.0, [&] { fired = true; });
  e.clear();
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, CountsProcessedEvents) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.schedule_at(i, [] {});
  e.run();
  EXPECT_EQ(e.events_processed(), 5u);
}

TEST(Engine, PendingCountTracksScheduleAndCancel) {
  Engine e;
  const EventId a = e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, CancelAfterClearReturnsFalse) {
  // Regression: a stale id from before clear() must report "not pending",
  // not resurrect or double-count anything.
  Engine e;
  const EventId id = e.schedule_at(1.0, [] {});
  e.clear();
  EXPECT_FALSE(e.cancel(id));
  EXPECT_TRUE(e.empty());
  e.run();
  EXPECT_EQ(e.now(), 0.0);
}

TEST(Engine, ClearThenRescheduleIsClean) {
  Engine e;
  const EventId stale = e.schedule_at(50.0, [] {});
  e.clear();
  bool fired = false;
  e.schedule_at(1.0, [&] { fired = true; });
  EXPECT_FALSE(e.cancel(stale));  // stale id must not hit the new event
  e.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(e.now(), 1.0);
}

TEST(Engine, MassCancellationCompactsTheHeap) {
  // Regression for the lazy-deletion leak: cancelled far-future entries
  // used to sit in the queue until the clock reached them. Fault-injection
  // kills events en masse, so the queue's internal refs must stay
  // proportional to pending().
  Engine e;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(e.schedule_at(1e6 + i, [] {}));
  }
  for (const EventId id : ids) EXPECT_TRUE(e.cancel(id));
  EXPECT_EQ(e.pending(), 0u);
  // The sweep collected the corpses down to the small-queue threshold — a
  // constant, not the 1000 entries the leak would have kept resident.
  EXPECT_LT(e.refs_held(), 64u);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, QueueDepthStaysBoundedUnderChurn) {
  // Steady schedule/cancel churn with a small live set: internal refs may
  // lag pending() (lazy deletion) but must stay under the sweep bound.
  Engine e;
  std::vector<EventId> live;
  for (int round = 0; round < 200; ++round) {
    live.push_back(e.schedule_at(1e9 + round, [] {}));
    if (live.size() > 8) {
      EXPECT_TRUE(e.cancel(live.front()));
      live.erase(live.begin());
    }
    ASSERT_LE(e.refs_held(), std::max<std::size_t>(64, 2 * e.pending()));
  }
  EXPECT_EQ(e.pending(), live.size());
}

TEST(Engine, QueueDepthDropsImmediatelyOnCancel) {
  // Regression: the reported depth once counted internal queue entries, so
  // a lazily-deleted event still counted until the clock reached it.
  // pending() is the *live* count (and what the `engine.queue_depth`
  // counter samples): it must drop the moment cancel() returns.
  Engine e;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(e.schedule_at(1e3 + i, [] {}));
  }
  EXPECT_EQ(e.pending(), 100u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(e.cancel(ids[i]));
    ASSERT_EQ(e.pending(), 100u - i - 1);  // immediate, not lazy
  }
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_TRUE(e.empty());

  // refs_held() is the other view: a cancelled ref lingers in the heap as
  // a corpse until it reaches the top or is swept.
  Engine one;
  const EventId a = one.schedule_at(1.0, [] {});
  one.schedule_at(2.0, [] {});
  ASSERT_TRUE(one.cancel(a));
  EXPECT_EQ(one.pending(), 1u);
  EXPECT_EQ(one.refs_held(), 2u);
}

TEST(Engine, CancelDuringMassChurnKeepsOrdering) {
  // Cancelling interleaved with firing must not disturb (time, seq) order.
  Engine e;
  std::vector<int> order;
  std::vector<EventId> cancel_me;
  for (int i = 0; i < 50; ++i) {
    e.schedule_at(i + 1.0, [&order, i] { order.push_back(i); });
    cancel_me.push_back(
        e.schedule_at(i + 1.5, [&order] { order.push_back(-1); }));
  }
  for (const EventId id : cancel_me) e.cancel(id);
  e.run();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, StaleHandleCannotCancelRecycledSlot) {
  // After an event fires or is cancelled its slot is recycled for new
  // events; the generation stamp must make the old handle inert instead of
  // cancelling the slot's new occupant.
  Engine e;
  int fired = 0;
  const EventId first = e.schedule_at(1.0, [&] { ++fired; });
  ASSERT_TRUE(e.cancel(first));
  // The freed slot is reused immediately.
  const EventId second = e.schedule_at(2.0, [&] { fired += 10; });
  EXPECT_FALSE(e.cancel(first));  // stale generation: no-op
  e.run();
  EXPECT_EQ(fired, 10);
  EXPECT_FALSE(e.cancel(second));  // already fired
}

TEST(Engine, DefaultEventIdNeverCancels) {
  // EventId{} (value 0) must never alias a live event, even the very first
  // one scheduled on a fresh engine.
  Engine e;
  bool fired = false;
  e.schedule_at(1.0, [&] { fired = true; });
  EXPECT_FALSE(e.cancel(EventId{}));
  e.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, HandlesStayDistinctAcrossHeavySlotReuse) {
  // Thousands of schedule/cancel cycles funnel through a handful of slots;
  // every handle must stay bound to exactly its own event.
  Engine e;
  for (int round = 0; round < 5000; ++round) {
    const EventId id = e.schedule_at(1e6, [] {});
    EXPECT_TRUE(e.cancel(id));
    EXPECT_FALSE(e.cancel(id));
  }
  EXPECT_TRUE(e.empty());
}

TEST(Engine, ZeroDelaySelfSchedulingTerminates) {
  // Events at the same timestamp run FIFO, so a zero-delay chain still
  // drains in bounded steps.
  Engine e;
  int n = 0;
  std::function<void()> f = [&] {
    if (++n < 100) e.schedule_in(0.0, f);
  };
  e.schedule_at(0.0, f);
  e.run();
  EXPECT_EQ(n, 100);
  EXPECT_EQ(e.now(), 0.0);
}

}  // namespace
}  // namespace wfe::sim
