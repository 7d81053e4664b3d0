// Unit tests for the discrete-event engine: ordering, cancellation, daemon
// semantics, run_until behaviour, and in-place re-timing (rearm).
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

namespace {

using aio::sim::Engine;
using aio::sim::EventHandle;
using aio::sim::Time;

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  EXPECT_EQ(e.steps(), 0u);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, ExecutesEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, SameTimeEventsFireInSchedulingOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) e.schedule_at(1.0, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  Engine e;
  Time fired_at = -1.0;
  e.schedule_at(5.0, [&] { e.schedule_after(2.5, [&] { fired_at = e.now(); }); });
  e.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine e;
  e.schedule_at(10.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(5.0, [] {}), std::invalid_argument);
}

TEST(Engine, SchedulingAtNowIsAllowed) {
  Engine e;
  int count = 0;
  e.schedule_at(1.0, [&] { e.schedule_after(0.0, [&] { ++count; }); });
  e.run();
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  EventHandle h = e.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(h));
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.steps(), 0u);
}

TEST(Engine, CancelTwiceReturnsFalse) {
  Engine e;
  EventHandle h = e.schedule_at(1.0, [] {});
  EXPECT_TRUE(e.cancel(h));
  EXPECT_FALSE(e.cancel(h));
}

TEST(Engine, CancelInvalidHandleIsNoop) {
  Engine e;
  EXPECT_FALSE(e.cancel(EventHandle{}));
}

TEST(Engine, CancelAfterFireReturnsFalse) {
  Engine e;
  EventHandle h = e.schedule_at(1.0, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(h));
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) e.schedule_after(1.0, chain);
  };
  e.schedule_at(0.0, chain);
  e.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(e.now(), 99.0);
}

TEST(Engine, RunReturnsEventCount) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.schedule_at(static_cast<double>(i), [] {});
  EXPECT_EQ(e.run(), 7u);
}

TEST(Engine, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Engine e;
  std::vector<Time> fired;
  for (int i = 1; i <= 5; ++i)
    e.schedule_at(static_cast<double>(i), [&fired, &e] { fired.push_back(e.now()); });
  e.run_until(3.0);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  e.run_until(10.0);
  EXPECT_EQ(fired.size(), 5u);
  EXPECT_DOUBLE_EQ(e.now(), 10.0);
}

TEST(Engine, RunUntilIncludesEventsExactlyAtBoundary) {
  Engine e;
  bool fired = false;
  e.schedule_at(2.0, [&] { fired = true; });
  e.run_until(2.0);
  EXPECT_TRUE(fired);
}

TEST(Engine, RunBeforeExcludesBoundaryAndKeepsClock) {
  Engine e;
  std::vector<Time> fired;
  for (int i = 1; i <= 5; ++i)
    e.schedule_at(static_cast<double>(i), [&fired, &e] { fired.push_back(e.now()); });
  // Strictly-before semantics: the event at t=3 must NOT fire...
  EXPECT_EQ(e.run_before(3.0), 2u);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(fired.back(), 2.0);
  // ...and the clock stays at the last fired event, not the window edge,
  // so a follow-up schedule_at(3.0) from the caller is still legal.
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  e.schedule_at(3.0, [&fired, &e] { fired.push_back(e.now()); });
  EXPECT_EQ(e.run_before(100.0), 4u);
  EXPECT_EQ(fired.size(), 6u);
}

TEST(Engine, NextEventTimeTracksHeapAndCancellation) {
  Engine e;
  constexpr Time inf = std::numeric_limits<Time>::infinity();
  EXPECT_EQ(e.next_event_time(), inf);
  auto h = e.schedule_at(5.0, [] {});
  e.schedule_at(9.0, [] {});
  EXPECT_DOUBLE_EQ(e.next_event_time(), 5.0);
  // Cancelling the head must be seen through (dead heads are skipped).
  EXPECT_TRUE(e.cancel(h));
  EXPECT_DOUBLE_EQ(e.next_event_time(), 9.0);
  e.run();
  EXPECT_EQ(e.next_event_time(), inf);
}

TEST(Engine, RunStopsWhenOnlyDaemonsRemain) {
  Engine e;
  int daemon_fires = 0;
  // A self-perpetuating daemon: would run forever if run() waited on it.
  std::function<void()> tick = [&] {
    ++daemon_fires;
    e.schedule_daemon_after(1.0, tick);
  };
  e.schedule_daemon_at(0.5, tick);
  bool normal_fired = false;
  e.schedule_at(2.0, [&] { normal_fired = true; });
  e.run();
  EXPECT_TRUE(normal_fired);
  // Daemons at 0.5 and 1.5 precede the normal event; none after it.
  EXPECT_EQ(daemon_fires, 2);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(Engine, RunUntilDrivesDaemons) {
  Engine e;
  int fires = 0;
  std::function<void()> tick = [&] {
    ++fires;
    e.schedule_daemon_after(1.0, tick);
  };
  e.schedule_daemon_at(1.0, tick);
  e.run_until(5.5);
  EXPECT_EQ(fires, 5);
}

TEST(Engine, CancelledDaemonDoesNotFire) {
  Engine e;
  bool fired = false;
  EventHandle h = e.schedule_daemon_at(1.0, [&] { fired = true; });
  e.cancel(h);
  e.run_until(2.0);
  EXPECT_FALSE(fired);
}

TEST(Engine, PendingNormalCountTracksScheduleFireCancel) {
  Engine e;
  EXPECT_EQ(e.pending_normal(), 0u);
  EventHandle a = e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [] {});
  e.schedule_daemon_at(3.0, [] {});
  EXPECT_EQ(e.pending_normal(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pending_normal(), 1u);
  e.run();
  EXPECT_EQ(e.pending_normal(), 0u);
}

TEST(Engine, ManyEventsStressOrdering) {
  Engine e;
  Time last = -1.0;
  bool monotone = true;
  for (int i = 0; i < 20000; ++i) {
    e.schedule_at(static_cast<double>((i * 7919) % 1000), [&, i] {
      (void)i;
      if (e.now() < last) monotone = false;
      last = e.now();
    });
  }
  e.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(e.steps(), 20000u);
}

TEST(Engine, NanTimesThrowAndLeaveQueueUntouched) {
  Engine e;
  constexpr Time nan = std::numeric_limits<Time>::quiet_NaN();
  int fired = 0;
  EventHandle h = e.schedule_at(1.0, [&] { ++fired; });
  EXPECT_THROW(e.schedule_at(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(e.schedule_after(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(e.rearm(h, nan, false), std::invalid_argument);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.pending_normal(), 1u);
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
}

TEST(EngineRearm, MovesEventAndKeepsHandle) {
  Engine e;
  std::vector<int> order;
  EventHandle a = e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_TRUE(e.rearm(a, 3.0, false));
  EXPECT_EQ(e.pending(), 2u);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  EXPECT_EQ(e.steps(), 2u);
  EXPECT_FALSE(e.rearm(a, 4.0, false));  // already fired
  EXPECT_FALSE(e.rearm(EventHandle{}, 4.0, false));
}

TEST(EngineRearm, EqualTimeQueuesBehindLaterSchedules) {
  // Same key a cancel + schedule would draw: behind everything already
  // queued for that instant, including events scheduled after the original.
  Engine e;
  std::vector<int> order;
  EventHandle a = e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(1.0, [&] { order.push_back(2); });
  EXPECT_TRUE(e.rearm(a, 1.0, false));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EngineRearm, PastTimeThrows) {
  Engine e;
  EventHandle h = e.schedule_at(5.0, [] {});
  e.run_until(2.0);
  EXPECT_THROW(e.rearm(h, 1.0, false), std::invalid_argument);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(EngineRearm, HeadStandingInForLaterEventIsNotAStep) {
  Engine e;
  std::vector<int> order;
  EventHandle a = e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  // The heap head (t=1) now stands in for an event at t=3.
  EXPECT_TRUE(e.rearm(a, 3.0, false));
  EXPECT_EQ(e.run_before(1.5), 0u);
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  EXPECT_EQ(e.steps(), 0u);
  EXPECT_DOUBLE_EQ(e.next_event_time(), 2.0);
  EXPECT_EQ(e.run_before(3.0), 1u);
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  // Moving later again while the stand-in is re-keyed in the heap.
  EXPECT_TRUE(e.rearm(a, 4.0, false));
  EXPECT_EQ(e.run_until(3.5), 0u);
  EXPECT_DOUBLE_EQ(e.now(), 3.5);
  EXPECT_DOUBLE_EQ(e.next_event_time(), 4.0);
  EXPECT_EQ(e.run_until(4.0), 1u);
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(e.steps(), 2u);
  EXPECT_EQ(e.next_event_time(), std::numeric_limits<Time>::infinity());
}

TEST(EngineRearm, ReusedSlotIgnoresOlderNodes) {
  Engine e;
  std::vector<std::pair<int, Time>> fired;
  // Cancelling frees the slot at once; its node stays in the heap.
  EventHandle a = e.schedule_at(5.0, [&] { fired.emplace_back(1, e.now()); });
  EXPECT_TRUE(e.cancel(a));
  EventHandle b = e.schedule_at(7.0, [&] { fired.emplace_back(2, e.now()); });
  EXPECT_FALSE(e.cancel(a));  // stale handle, even though the slot is reused
  EXPECT_FALSE(e.rearm(a, 6.0, false));
  EXPECT_DOUBLE_EQ(e.next_event_time(), 7.0);
  // Moving earlier leaves a node at 7 behind; the event fires at 6, and the
  // next occupant of the slot must not fire at 7 through that node.
  EXPECT_TRUE(e.rearm(b, 6.0, false));
  e.run();
  e.schedule_at(9.0, [&] { fired.emplace_back(3, e.now()); });
  e.run();
  EXPECT_EQ(fired, (std::vector<std::pair<int, Time>>{{2, 6.0}, {3, 9.0}}));
  EXPECT_EQ(e.steps(), 2u);
}

TEST(EngineRearm, DaemonFlipDecidesWhetherRunReturns) {
  Engine e;
  bool fired = false;
  EventHandle h = e.schedule_at(5.0, [&] { fired = true; });
  EXPECT_TRUE(e.rearm(h, 6.0, /*daemon=*/true));
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.pending_normal(), 0u);
  EXPECT_EQ(e.run(), 0u);  // only a daemon is left
  EXPECT_FALSE(fired);
  EXPECT_TRUE(e.rearm(h, 6.0, /*daemon=*/false));
  EXPECT_EQ(e.pending_normal(), 1u);
  EXPECT_EQ(e.run(), 1u);
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(e.now(), 6.0);
}

TEST(EngineRearm, CancelAfterMovingLater) {
  Engine e;
  bool fired = false;
  EventHandle h = e.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.rearm(h, 4.0, false));
  EXPECT_TRUE(e.cancel(h));
  EXPECT_FALSE(e.cancel(h));
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.pending_normal(), 0u);
  EXPECT_EQ(e.next_event_time(), std::numeric_limits<Time>::infinity());
  EXPECT_EQ(e.run_until(10.0), 0u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.steps(), 0u);
}

// One engine under differential test: logical event `id` fires by logging
// (id, now).  With `use_rearm` a move re-times the event in place; without
// it the move is the reference cancel + fresh schedule.
struct Side {
  explicit Side(bool rearm) : use_rearm(rearm) {}
  Engine e;
  bool use_rearm;
  std::vector<EventHandle> handle;  // by logical id
  std::vector<std::pair<int, Time>> log;

  void schedule(int id, Time t, bool daemon) {
    if (handle.size() <= static_cast<std::size_t>(id)) handle.resize(id + 1);
    auto cb = [this, id] { log.emplace_back(id, e.now()); };
    handle[id] = daemon ? e.schedule_daemon_at(t, cb) : e.schedule_at(t, cb);
  }
  bool move(int id, Time t, bool daemon) {
    if (use_rearm) return e.rearm(handle[id], t, daemon);
    if (!e.cancel(handle[id])) return false;
    schedule(id, t, daemon);
    return true;
  }
  void step() {
    if (e.pending_normal() > 0)
      e.run(1);
    else
      e.run_until(e.next_event_time());
  }
};

::testing::AssertionResult Agree(Side& a, Side& b) {
  if (a.log != b.log) return ::testing::AssertionFailure() << "fired sequences differ";
  if (a.e.steps() != b.e.steps()) return ::testing::AssertionFailure() << "steps differ";
  if (a.e.pending() != b.e.pending()) return ::testing::AssertionFailure() << "pending differs";
  if (a.e.pending_normal() != b.e.pending_normal())
    return ::testing::AssertionFailure() << "pending_normal differs";
  if (a.e.now() != b.e.now()) return ::testing::AssertionFailure() << "clocks differ";
  return ::testing::AssertionSuccess();
}

TEST(EngineRearm, MatchesCancelPlusScheduleOnRandomMix) {
  // Times live on a 0.5 s grid so equal-time ties (and FIFO) are common.
  constexpr Time kTick = 0.5;
  for (const std::uint32_t seed : {11u, 12u, 13u, 14u}) {
    std::mt19937 rng(seed);
    const auto draw = [&](int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); };
    Side a(/*rearm=*/true), b(/*rearm=*/false);
    std::vector<long> when;   // by logical id, in ticks
    std::vector<bool> daemon;  // by logical id
    std::vector<int> live;     // pending logical ids
    std::size_t logged = 0;
    for (int op = 0; op < 20000; ++op) {
      const long now = static_cast<long>(a.e.now() / kTick);
      const int kind = draw(20);
      if (op % 2500 == 2499) {
        // Mass cancel: enough debris to force compactions.
        for (std::size_t i = 0; i < live.size();) {
          if (draw(5) == 0) {
            ++i;
            continue;
          }
          ASSERT_TRUE(a.e.cancel(a.handle[live[i]]));
          ASSERT_TRUE(b.e.cancel(b.handle[live[i]]));
          live[i] = live.back();
          live.pop_back();
        }
      } else if (kind < 6 && live.size() < 400) {
        const int id = static_cast<int>(when.size());
        when.push_back(now + draw(9));
        daemon.push_back(draw(4) == 0);
        a.schedule(id, kTick * when[id], daemon[id]);
        b.schedule(id, kTick * when[id], daemon[id]);
        live.push_back(id);
      } else if (kind < 8 && !live.empty()) {
        const std::size_t i = static_cast<std::size_t>(draw(static_cast<int>(live.size())));
        ASSERT_TRUE(a.e.cancel(a.handle[live[i]]));
        ASSERT_TRUE(b.e.cancel(b.handle[live[i]]));
        live[i] = live.back();
        live.pop_back();
      } else if (kind < 16 && !live.empty()) {
        const int id = live[static_cast<std::size_t>(draw(static_cast<int>(live.size())))];
        switch (draw(4)) {
          case 0: when[id] = now + draw(static_cast<int>(when[id] - now) + 1); break;  // earlier
          case 1: when[id] += 1 + draw(4); break;                                       // later
          case 2: break;                                                                // equal
          default: when[id] = now; break;                                               // now
        }
        if (draw(4) == 0) daemon[id] = !daemon[id];
        ASSERT_TRUE(a.move(id, kTick * when[id], daemon[id]));
        ASSERT_TRUE(b.move(id, kTick * when[id], daemon[id]));
      } else if (a.e.pending() > 0) {
        a.step();
        b.step();
        if (draw(3) == 0) {
          ASSERT_EQ(a.e.next_event_time(), b.e.next_event_time());
        }
      }
      ASSERT_TRUE(Agree(a, b)) << "seed " << seed << ", op " << op;
      for (; logged < a.log.size(); ++logged)
        live.erase(std::find(live.begin(), live.end(), a.log[logged].first));
    }
    while (a.e.pending() > 0) {
      a.step();
      b.step();
      ASSERT_TRUE(Agree(a, b)) << "seed " << seed << ", drain";
    }
    EXPECT_GT(a.log.size(), 1000u);
  }
}

}  // namespace
