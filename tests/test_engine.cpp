// Unit tests for the discrete-event engine: ordering, cancellation, daemon
// semantics, run_until behaviour, in-place re-timing (rearm), the
// fixed-delay lanes (schedule_fixed), and the radix queue against a
// brute-force model.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
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
  // The queue head (t=1) now stands in for an event at t=3.
  EXPECT_TRUE(e.rearm(a, 3.0, false));
  EXPECT_EQ(e.run_before(1.5), 0u);
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  EXPECT_EQ(e.steps(), 0u);
  EXPECT_DOUBLE_EQ(e.next_event_time(), 2.0);
  EXPECT_EQ(e.run_before(3.0), 1u);
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  // Moving later again while the stand-in is re-keyed in the queue.
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
  // Cancelling frees the slot at once; its node stays in the queue.
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

// Both sides of a differential (Side or LaneSide below) fired alike.
template <class S>
::testing::AssertionResult Agree(S& a, S& b) {
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

// --- fixed-delay lanes --------------------------------------------------------

TEST(EngineLane, SameInstantFiresInSchedulingOrderBothWaysRound) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_fixed(1.0, [&] { order.push_back(2); });
  e.schedule_at(1.0, [&] { order.push_back(3); });
  e.schedule_fixed(1.0, [&] {
    order.push_back(4);
    // At the instant itself: a zero-delay lane event and a queue event at
    // now queue behind each other in the order they were scheduled.
    e.schedule_fixed(0.0, [&] { order.push_back(6); });
    e.schedule_at(e.now(), [&] { order.push_back(7); });
    e.schedule_fixed(0.0, [&] { order.push_back(8); });
  });
  e.schedule_after(1.0, [&] { order.push_back(5); });
  EXPECT_EQ(e.run(), 8u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
}

TEST(EngineLane, RunLoopsAndCountsSeeLaneHeads) {
  Engine e;
  std::vector<int> order;
  e.schedule_fixed(2.0, [&] { order.push_back(1); });
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.pending_normal(), 1u);
  EXPECT_DOUBLE_EQ(e.next_event_time(), 2.0);
  EXPECT_EQ(e.run_before(2.0), 0u);
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  e.schedule_at(3.0, [&] { order.push_back(2); });
  e.schedule_daemon_at(2.5, [&] { order.push_back(3); });
  EXPECT_EQ(e.pending(), 3u);
  EXPECT_EQ(e.pending_normal(), 2u);
  EXPECT_EQ(e.run_until(2.0), 1u);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  EXPECT_DOUBLE_EQ(e.next_event_time(), 2.5);
  e.schedule_fixed(0.25, [&] { order.push_back(4); });  // 2.25: a second lane
  EXPECT_DOUBLE_EQ(e.next_event_time(), 2.25);
  EXPECT_EQ(e.run_before(2.5), 1u);
  EXPECT_DOUBLE_EQ(e.now(), 2.25);
  e.schedule_fixed(2.0, [&] { order.push_back(5); });  // 4.25, behind the queue
  EXPECT_EQ(e.pending_normal(), 2u);
  EXPECT_EQ(e.run(), 3u);  // the daemon fires on the way to the last lane event
  EXPECT_EQ(order, (std::vector<int>{1, 4, 3, 2, 5}));
  EXPECT_DOUBLE_EQ(e.now(), 4.25);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.next_event_time(), std::numeric_limits<Time>::infinity());
  EXPECT_EQ(e.steps(), 5u);
}

TEST(EngineLane, NanOrNegativeDelayThrowsAndLeavesQueueUntouched) {
  Engine e;
  int fired = 0;
  e.schedule_fixed(1.0, [&] { ++fired; });
  EXPECT_THROW(e.schedule_fixed(std::numeric_limits<Time>::quiet_NaN(), [&] { ++fired; }),
               std::invalid_argument);
  EXPECT_THROW(e.schedule_fixed(-1e-9, [&] { ++fired; }), std::invalid_argument);
  EXPECT_THROW(e.schedule_fixed(-std::numeric_limits<Time>::infinity(), [&] { ++fired; }),
               std::invalid_argument);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.pending_normal(), 1u);
  EXPECT_DOUBLE_EQ(e.next_event_time(), 1.0);
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
}

TEST(EngineLane, DelaysBeyondTheLaneCountKeepExactOrder) {
  // Twice as many distinct delays as lanes: the overflow rides the queue, and
  // the firing order is still (time, scheduling order) throughout.
  constexpr std::size_t kDelays = 2 * Engine::kMaxLanes;
  Engine e;
  std::vector<std::pair<Time, int>> expected;
  std::vector<std::pair<Time, int>> fired;
  int id = 0;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t d = 0; d < kDelays; ++d) {
      const Time delay = 0.125 * static_cast<double>(d % 5);
      const Time extra = 1e-3 * static_cast<double>(d);  // distinct delays
      const int mine = id++;
      expected.emplace_back(delay + extra, mine);
      e.schedule_fixed(delay + extra, [&fired, &e, mine] { fired.emplace_back(e.now(), mine); });
      const int heap = id++;
      expected.emplace_back(delay + extra, heap);
      e.schedule_at(delay + extra, [&fired, &e, heap] { fired.emplace_back(e.now(), heap); });
    }
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  e.run();
  EXPECT_EQ(fired, expected);
}

// One side of the lane differential.  Callbacks schedule, cancel and re-time
// further events from a per-side random stream; with `lanes` off every
// schedule_fixed(d) is the reference schedule_after(d), whose handle is
// dropped so that both sides can touch exactly the same events.  Both sides
// draw identically for as long as they fire identically.
struct LaneSide {
  static constexpr Time kDelays[3] = {0.0, 0.5, 0.1};  // 0.1: inexact sums

  LaneSide(bool lanes, std::uint32_t seed) : use_lanes(lanes), rng(seed) {}
  Engine e;
  bool use_lanes;
  std::mt19937 rng;
  std::vector<EventHandle> handle;  // by logical id; invalid for lane events
  std::vector<int> held;            // pending events that hold a handle
  std::vector<std::pair<int, Time>> log;
  int budget = 300;  // events this side may still create

  int draw(int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); }
  void drop(int id) {
    const auto it = std::find(held.begin(), held.end(), id);
    if (it == held.end()) return;
    *it = held.back();
    held.pop_back();
  }
  Engine::Callback event(int id) {
    return [this, id] {
      log.emplace_back(id, e.now());
      drop(id);
      for (int n = 1 + draw(3); n > 0; --n) act();
    };
  }
  void act() {
    const int kind = draw(10);
    if (kind < 7 && budget > 0) {
      --budget;
      const int id = static_cast<int>(handle.size());
      handle.emplace_back();
      if (kind < 3) {
        const Time d = kDelays[draw(3)];
        if (use_lanes) {
          e.schedule_fixed(d, event(id));
        } else {
          e.schedule_after(d, event(id));
        }
        return;
      }
      handle[id] = kind == 3 ? e.schedule_at(e.now() + 0.5 * draw(4), event(id))
                             : e.schedule_after(0.25 * draw(4), event(id));
      held.push_back(id);
    } else if (kind < 8 && !held.empty()) {
      const int id = held[static_cast<std::size_t>(draw(static_cast<int>(held.size())))];
      ASSERT_TRUE(e.cancel(handle[id]));
      drop(id);
    } else if (!held.empty()) {
      const int id = held[static_cast<std::size_t>(draw(static_cast<int>(held.size())))];
      ASSERT_TRUE(e.rearm(handle[id], e.now() + 0.1 * draw(6), false));
    }
  }
};

TEST(EngineLane, MatchesScheduleAfterOnRandomNestedMix) {
  std::size_t fired = 0;
  for (std::uint32_t seed = 1; seed <= 2000; ++seed) {
    LaneSide a(/*lanes=*/true, seed), b(/*lanes=*/false, seed);
    std::mt19937 drive(seed ^ 0x9e3779b9u);
    for (int i = 0; i < 4; ++i) {
      a.act();
      b.act();
    }
    while (a.e.pending() > 0) {
      // Every driver the sharded window loop and the benches use.
      const Time edge = a.e.now() + 0.25 * static_cast<double>(drive() % 4);
      switch (drive() % 5) {
        case 0: ASSERT_EQ(a.e.run_before(edge), b.e.run_before(edge)); break;
        case 1: ASSERT_EQ(a.e.run_until(edge), b.e.run_until(edge)); break;
        case 2: ASSERT_EQ(a.e.next_event_time(), b.e.next_event_time()); break;
        case 3:
          a.act();
          b.act();
          break;
        default: ASSERT_EQ(a.e.run(1), b.e.run(1)); break;
      }
      ASSERT_TRUE(Agree(a, b)) << "seed " << seed;
    }
    fired += a.log.size();
  }
  EXPECT_GT(fired, 100000u);
}

// --- the radix queue against a brute-force model ------------------------------

// One side of the oracle: the engine under test, or a brute-force model of
// it.  The model keeps every pending event as (time, seq, id, daemon),
// sorted latest first so the next event is at the back, and draws a seq
// wherever the engine draws one: at each schedule and each rearm, never at
// a cancel.  Both sides run the same script from their own copy of one
// random stream, so they draw alike for as long as they fire alike.
struct OracleSide {
  struct Pending {
    Time t;
    std::uint64_t seq;
    int id;
    bool daemon;
  };
  static bool later(const Pending& a, const Pending& b) {
    return a.t != b.t ? a.t > b.t : a.seq > b.seq;
  }
  static constexpr Time kFixed[2] = {8e-6, 12e-3};  // two lanes

  OracleSide(bool is_model, std::uint32_t seed) : model(is_model), rng(seed) {}
  OracleSide(const OracleSide&) = delete;  // callbacks hold `this`
  OracleSide& operator=(const OracleSide&) = delete;

  bool model;
  std::mt19937 rng;
  Engine e;
  // The model.
  std::vector<Pending> queue;
  Time clock = 0.0;
  std::uint64_t next_seq = 0;
  std::size_t fired_count = 0;
  std::size_t normal = 0;
  // The script, by logical event id.
  std::vector<EventHandle> handle;
  std::vector<Time> when;
  std::vector<bool> daemon;
  std::vector<bool> lane;
  std::vector<int> held;  // pending events with a handle
  std::vector<std::pair<int, Time>> log;
  std::vector<double> results;  // every value an API call returned
  int budget = 40000;  // events this side may still create

  [[nodiscard]] Time now() const { return model ? clock : e.now(); }
  [[nodiscard]] std::size_t steps() const { return model ? fired_count : e.steps(); }
  [[nodiscard]] std::size_t pending() const { return model ? queue.size() : e.pending(); }
  [[nodiscard]] std::size_t pending_normal() const { return model ? normal : e.pending_normal(); }

  int draw(int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); }
  double unit() { return static_cast<double>(rng()) / 4294967296.0; }
  static Time ulps_after(Time t, int k) {
    const auto bits = std::bit_cast<std::uint64_t>(t + 0.0) + static_cast<std::uint64_t>(k);
    return std::bit_cast<Time>(bits);
  }
  int pick_held() { return held[static_cast<std::size_t>(draw(static_cast<int>(held.size())))]; }

  // --- the model's run loop
  void model_add(int id, Time t, bool d) {
    const Pending p{t, next_seq++, id, d};
    queue.insert(std::upper_bound(queue.begin(), queue.end(), p, later), p);
    if (!d) ++normal;
  }
  bool model_remove(int id) {
    const auto it =
        std::find_if(queue.begin(), queue.end(), [id](const Pending& p) { return p.id == id; });
    if (it == queue.end()) return false;
    if (!it->daemon) --normal;
    queue.erase(it);
    return true;
  }
  void model_fire() {
    const Pending p = queue.back();
    queue.pop_back();
    clock = p.t;
    ++fired_count;
    if (!p.daemon) --normal;
    fired(p.id);
  }

  // --- the API, on either side
  std::size_t run(std::size_t max) {
    if (!model) return e.run(max);
    std::size_t n = 0;
    for (; n < max && normal > 0 && !queue.empty(); ++n) model_fire();
    return n;
  }
  std::size_t run_until(Time t) {
    if (!model) return e.run_until(t);
    std::size_t n = 0;
    for (; !queue.empty() && queue.back().t <= t; ++n) model_fire();
    if (t > clock) clock = t;
    return n;
  }
  std::size_t run_before(Time t) {
    if (!model) return e.run_before(t);
    std::size_t n = 0;
    for (; !queue.empty() && queue.back().t < t; ++n) model_fire();
    return n;
  }
  Time next_event_time() {
    if (!model) return e.next_event_time();
    return queue.empty() ? std::numeric_limits<Time>::infinity() : queue.back().t;
  }
  int claim_id(Time t, bool d, bool on_lane) {
    --budget;
    const int id = static_cast<int>(when.size());
    handle.emplace_back();
    when.push_back(t);
    daemon.push_back(d);
    lane.push_back(on_lane);
    if (!on_lane) held.push_back(id);
    return id;
  }
  Engine::Callback callback(int id) {
    return [this, id] { fired(id); };
  }
  void at(Time t, bool d) {
    if (budget <= 0) return;
    const int id = claim_id(t, d, false);
    if (model) {
      model_add(id, t, d);
    } else {
      handle[id] = d ? e.schedule_daemon_at(t, callback(id)) : e.schedule_at(t, callback(id));
    }
  }
  void after(Time delay, bool d) {
    if (budget <= 0) return;
    const int id = claim_id(now() + delay, d, false);
    if (model) {
      model_add(id, clock + delay, d);
    } else {
      handle[id] =
          d ? e.schedule_daemon_after(delay, callback(id)) : e.schedule_after(delay, callback(id));
    }
  }
  void fixed(Time delay) {
    if (budget <= 0) return;
    const int id = claim_id(now() + delay, false, true);
    if (model) {
      model_add(id, clock + delay, false);
    } else {
      e.schedule_fixed(delay, callback(id));
    }
  }
  void drop(int id) {
    const auto it = std::find(held.begin(), held.end(), id);
    if (it == held.end()) return;
    *it = held.back();
    held.pop_back();
  }
  bool cancel(int id) {
    const bool ok = model ? model_remove(id) : e.cancel(handle[id]);
    drop(id);
    return ok;
  }
  bool rearm(int id, Time t, bool d) {
    bool ok;
    if (model) {
      ok = model_remove(id);
      if (ok) model_add(id, t, d);
    } else {
      ok = e.rearm(handle[id], t, d);
    }
    if (ok) {
      when[id] = t;
      daemon[id] = d;
    }
    return ok;
  }

  // --- the script
  Time delay() {
    switch (draw(6)) {
      case 0: return draw(2) != 0 ? 0.0 : -0.0;
      case 1: return 0.25 * draw(4);      // a coarse grid: ties at later instants
      case 2: return kFixed[draw(2)];     // a lane's delay, on the queue
      default: return std::pow(10.0, -9.0 + 13.0 * unit());  // 1e-9 s to 1e4 s
    }
  }
  Time pick_time() {
    const Time t = now();
    switch (draw(10)) {
      case 0: return t;
      case 1: return ulps_after(t, draw(8));  // a long bit prefix shared with now
      case 2: return held.empty() ? t : ulps_after(when[pick_held()], draw(8));  // ... with a key
      case 3: return t == 0.0 ? -0.0 : t + delay();
      case 4: return draw(40) == 0 ? 1e300 * (1.0 + unit()) : t + delay();
      default: return t + delay();
    }
  }
  void rearm_one() {
    const int id = pick_held();
    Time t = when[id];
    switch (draw(4)) {
      case 0: t = now() + (when[id] - now()) * unit(); break;  // earlier
      case 1: t = when[id] + delay(); break;                   // later
      case 2: break;                                           // equal
      default: t = now(); break;
    }
    results.push_back(rearm(id, t, draw(4) == 0 ? !daemon[id] : daemon[id]));
  }
  // One schedule, cancel or re-time; callbacks run zero to two.
  void act() {
    const int kind = draw(20);
    if (kind < 5) {
      at(pick_time(), draw(5) == 0);
    } else if (kind < 8) {
      after(delay(), draw(5) == 0);
    } else if (kind < 11) {
      fixed(kFixed[draw(2)]);
    } else if (kind < 12) {
      fixed(delay());  // past kMaxLanes distinct delays these ride the queue
    } else if (kind < 14 && !held.empty()) {
      results.push_back(cancel(pick_held()));
    } else if (kind < 15 && !when.empty()) {
      // Any event with a handle: pending, fired or cancelled.
      const int id = draw(static_cast<int>(when.size()));
      if (!lane[id]) {
        results.push_back(draw(2) != 0 ? cancel(id)
                                       : rearm(id, now() + delay(), daemon[id]));
      }
    } else if (!held.empty()) {
      rearm_one();
    }
  }
  void fired(int id) {
    log.emplace_back(id, now());
    drop(id);
    for (int n = draw(3); n > 0; --n) act();
  }
  // 100 to 1,000 events at one instant, on the queue and on a lane.
  void burst() {
    const Time d = draw(2) != 0 ? delay() : kFixed[draw(2)];
    const Time t = now() + d;
    for (int n = 100 + draw(901); n > 0; --n) {
      switch (draw(3)) {
        case 0: at(t, draw(5) == 0); break;
        case 1: after(d, false); break;
        default: fixed(d); break;
      }
    }
  }
  // Schedules between now and a head that a look ahead found but did not fire.
  void below_head() {
    const Time h = next_event_time();
    if (h == std::numeric_limits<Time>::infinity()) return;
    for (int n = 1 + draw(4); n > 0; --n)
      at(draw(4) == 0 ? h : now() + (h - now()) * unit(), false);
    after(0.0, draw(2) == 0);
  }
  // One top-level call; returns what it returned.
  double drive() {
    switch (draw(24)) {
      case 0:
      case 1:
      case 2:
      case 3: return static_cast<double>(run(1 + static_cast<std::size_t>(draw(16))));
      case 4: burst(); return 0.0;
      case 5:
      case 6: {
        const std::size_t n = run_until(now() + delay());
        below_head();
        return static_cast<double>(n);
      }
      case 7:
      case 8: {
        const std::size_t n = run_before(now() + delay());
        below_head();
        return static_cast<double>(n);
      }
      case 9:
      case 10: {
        const Time h = next_event_time();
        below_head();
        return h;
      }
      case 11:
        if (draw(8) == 0) {  // enough debris to compact
          for (std::size_t i = held.size(); i-- > 0;)
            if (draw(5) != 0) results.push_back(cancel(held[i]));
        }
        return 0.0;
      default: act(); return 0.0;
    }
  }
  void drain_step() {
    if (pending_normal() > 0) {
      run(1);
    } else {
      run_until(next_event_time());
    }
  }
};

// Both sides fired and returned alike since the last call; their logs are
// then cleared, so each check looks at one call's worth.
::testing::AssertionResult Same(OracleSide& a, OracleSide& b) {
  if (a.log != b.log) return ::testing::AssertionFailure() << "fired sequences differ";
  if (a.results != b.results) return ::testing::AssertionFailure() << "return values differ";
  a.log.clear();
  b.log.clear();
  a.results.clear();
  b.results.clear();
  if (a.steps() != b.steps()) return ::testing::AssertionFailure() << "steps differ";
  if (a.pending() != b.pending()) return ::testing::AssertionFailure() << "pending differs";
  if (a.pending_normal() != b.pending_normal())
    return ::testing::AssertionFailure() << "pending_normal differs";
  if (a.now() != b.now()) return ::testing::AssertionFailure() << "clocks differ";
  return ::testing::AssertionSuccess();
}

class EngineOracle : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(EngineOracle, FiresAsABruteForceModelDoes) {
  const std::uint32_t seed = GetParam();
  OracleSide engine(/*is_model=*/false, seed), model(/*is_model=*/true, seed);
  for (int op = 0; op < 3000; ++op) {
    ASSERT_EQ(engine.drive(), model.drive()) << "seed " << seed << ", op " << op;
    ASSERT_TRUE(Same(engine, model)) << "seed " << seed << ", op " << op;
  }
  while (engine.pending() > 0) {
    engine.drain_step();
    model.drain_step();
    ASSERT_TRUE(Same(engine, model)) << "seed " << seed << ", drain";
  }
  EXPECT_EQ(model.pending(), 0u);
  EXPECT_GT(engine.steps(), 5000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOracle, ::testing::Range(1u, 17u));

}  // namespace
