// Tests for the OST write-back-cache fluid model.  Scenarios are sized so
// the expected completion times can be derived by hand.
#include "fs/ost.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace {

using aio::fs::Ost;
using aio::sim::Engine;
using aio::sim::Time;

// A small, hand-checkable OST: ingest 100 B/s, disk 10 B/s, cache 100 B.
Ost::Config tiny(double cache = 100.0, double alpha = 0.0) {
  Ost::Config c;
  c.ingest_bw = 100.0;
  c.disk_bw = 10.0;
  c.cache_bytes = cache;
  c.per_stream_cap = 0.0;
  c.alpha = alpha;
  c.eff_floor = 0.0;
  return c;
}

TEST(Ost, CachedWriteAbsorbedAtIngestRate) {
  Engine e;
  Ost ost(e, tiny(/*cache=*/1000.0));
  Time done = -1;
  ost.write(100.0, Ost::Mode::Cached, [&](Time t) { done = t; });
  e.run();
  EXPECT_NEAR(done, 1.0, 1e-6);  // 100 B at 100 B/s, cache never fills
}

TEST(Ost, CachedWriteThrottledWhenCacheFills) {
  Engine e;
  Ost ost(e, tiny(/*cache=*/100.0));
  Time done = -1;
  ost.write(200.0, Ost::Mode::Cached, [&](Time t) { done = t; });
  e.run();
  // Net inflow 100-10=90 B/s fills the 100 B cache at t=10/9 (111.1 B in);
  // the remaining 88.9 B enter at the drain rate 10 B/s -> done at t=10.
  EXPECT_NEAR(done, 10.0, 1e-6);
}

TEST(Ost, DurableWriteCompletesAtDrainRate) {
  Engine e;
  Ost ost(e, tiny(/*cache=*/1000.0));
  Time done = -1;
  ost.write(100.0, Ost::Mode::Durable, [&](Time t) { done = t; });
  e.run();
  EXPECT_NEAR(done, 10.0, 1e-6);  // drain 10 B/s from t=0
}

TEST(Ost, DurableWriteWithCachePressure) {
  Engine e;
  Ost ost(e, tiny(/*cache=*/100.0));
  Time done = -1;
  ost.write(200.0, Ost::Mode::Durable, [&](Time t) { done = t; });
  e.run();
  EXPECT_NEAR(done, 20.0, 1e-6);  // 200 B drained at 10 B/s regardless
}

TEST(Ost, BackToBackDurableWritesRunAtFullDiskRate) {
  Engine e;
  Ost ost(e, tiny(/*cache=*/1000.0));
  Time done = -1;
  ost.write(100.0, Ost::Mode::Durable, [&](Time) {
    ost.write(100.0, Ost::Mode::Durable, [&](Time t) { done = t; });
  });
  e.run();
  // The pipeline never starves: 200 B total drain at 10 B/s.
  EXPECT_NEAR(done, 20.0, 1e-5);
}

TEST(Ost, TwoCachedStreamsShareIngest) {
  Engine e;
  Ost ost(e, tiny(/*cache=*/1000.0));
  Time d1 = -1, d2 = -1;
  ost.write(100.0, Ost::Mode::Cached, [&](Time t) { d1 = t; });
  ost.write(100.0, Ost::Mode::Cached, [&](Time t) { d2 = t; });
  e.run();
  EXPECT_NEAR(d1, 2.0, 1e-6);  // 50 B/s each
  EXPECT_NEAR(d2, 2.0, 1e-6);
}

TEST(Ost, PerStreamCapLimitsLoneWriter) {
  Engine e;
  Ost::Config c = tiny(1000.0);
  c.per_stream_cap = 20.0;
  Ost ost(e, c);
  Time done = -1;
  ost.write(100.0, Ost::Mode::Cached, [&](Time t) { done = t; });
  e.run();
  EXPECT_NEAR(done, 5.0, 1e-6);
}

TEST(Ost, EfficiencyPenaltySlowsConcurrentDurableStreams) {
  Engine e;
  // alpha=1: eff(2)=0.5 -> drain 5 B/s for two interleaved streams.
  Ost ost(e, tiny(1000.0, /*alpha=*/1.0));
  Time d = -1;
  ost.write(50.0, Ost::Mode::Durable, [&](Time t) { d = t; });
  ost.write(50.0, Ost::Mode::Durable, [&](Time t) { d = t; });
  e.run();
  EXPECT_NEAR(d, 20.0, 1e-5);  // 100 B at 5 B/s
}

TEST(Ost, EfficiencyFloorBoundsPenalty) {
  Engine e;
  Ost::Config c = tiny(1000.0, /*alpha=*/1.0);
  c.eff_floor = 0.5;
  Ost ost(e, c);
  std::vector<Time> done;
  for (int i = 0; i < 10; ++i)
    ost.write(10.0, Ost::Mode::Durable, [&](Time t) { done.push_back(t); });
  e.run();
  // eff(10) would be 1/10 but floors at 0.5 -> drain 5 B/s, 100 B -> 20 s.
  EXPECT_NEAR(done.back(), 20.0, 1e-5);
}

TEST(Ost, FlushWaitsForPriorBytesOnly) {
  Engine e;
  Ost ost(e, tiny(1000.0));
  Time write_done = -1, flush_done = -1;
  ost.write(100.0, Ost::Mode::Cached, [&](Time t) { write_done = t; });
  e.schedule_at(2.0, [&] { ost.flush([&](Time t) { flush_done = t; }); });
  e.run();
  EXPECT_NEAR(write_done, 1.0, 1e-6);
  // 100 B ingested by t=1; drained (10 B/s) at t=10.
  EXPECT_NEAR(flush_done, 10.0, 1e-5);
}

TEST(Ost, FlushOnIdleOstCompletesImmediately) {
  Engine e;
  Ost ost(e, tiny());
  Time flush_done = -1;
  ost.flush([&](Time t) { flush_done = t; });
  e.run();
  EXPECT_NEAR(flush_done, 0.0, 1e-9);
}

TEST(Ost, DiskLoadSlowsDrain) {
  Engine e;
  Ost ost(e, tiny(1000.0));
  ost.set_load(/*net=*/0.0, /*disk=*/0.5);
  Time done = -1;
  ost.write(100.0, Ost::Mode::Durable, [&](Time t) { done = t; });
  e.run();
  EXPECT_NEAR(done, 20.0, 1e-5);  // drain halved
}

TEST(Ost, NetLoadSlowsIngest) {
  Engine e;
  Ost ost(e, tiny(1000.0));
  ost.set_load(/*net=*/0.5, /*disk=*/0.0);
  Time done = -1;
  ost.write(100.0, Ost::Mode::Cached, [&](Time t) { done = t; });
  e.run();
  EXPECT_NEAR(done, 2.0, 1e-6);
}

TEST(Ost, LoadChangeMidFlightAdjustsRate) {
  Engine e;
  Ost ost(e, tiny(1000.0));
  Time done = -1;
  ost.write(100.0, Ost::Mode::Cached, [&](Time t) { done = t; });
  e.schedule_at(0.5, [&] { ost.set_load(0.5, 0.0); });
  e.run();
  // 50 B in 0.5 s, then 50 B at 50 B/s -> 1.5 s total.
  EXPECT_NEAR(done, 1.5, 1e-6);
}

TEST(Ost, FabricFactorScalesIngest) {
  Engine e;
  Ost ost(e, tiny(1000.0));
  ost.set_fabric_factor(0.25);
  Time done = -1;
  ost.write(100.0, Ost::Mode::Cached, [&](Time t) { done = t; });
  e.run();
  EXPECT_NEAR(done, 4.0, 1e-6);
}

TEST(Ost, AbortedWriteNeverCompletes) {
  Engine e;
  Ost ost(e, tiny(1000.0));
  bool fired = false;
  auto id = ost.write(100.0, Ost::Mode::Cached, [&](Time) { fired = true; });
  e.schedule_at(0.1, [&] { EXPECT_TRUE(ost.abort(id)); });
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Ost, InvalidArgumentsThrow) {
  Engine e;
  Ost ost(e, tiny());
  EXPECT_THROW(ost.write(0.0, Ost::Mode::Cached, nullptr), std::invalid_argument);
  EXPECT_THROW(ost.write(-5.0, Ost::Mode::Cached, nullptr), std::invalid_argument);
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(ost.write(bad, Ost::Mode::Cached, nullptr), std::invalid_argument);
    EXPECT_THROW(ost.read(bad, nullptr), std::invalid_argument);
  }
  EXPECT_THROW(ost.set_load(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(ost.set_load(0.0, -0.1), std::invalid_argument);
  EXPECT_THROW(ost.set_fabric_factor(-1.0), std::invalid_argument);
}

TEST(Ost, ActivityHookFiresOnBusyAndIdle) {
  Engine e;
  Ost ost(e, tiny(1000.0));
  std::vector<bool> transitions;
  ost.set_activity_hook([&](bool active) { transitions.push_back(active); });
  ost.write(100.0, Ost::Mode::Cached, [](Time) {});
  EXPECT_EQ(transitions.size(), 1u);  // synchronous: inside the write's recompute
  e.run();
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_TRUE(transitions[0]);
  EXPECT_FALSE(transitions[1]);
}

TEST(Ost, ConservationCumulativeDrainEqualsIngest) {
  Engine e;
  Ost ost(e, tiny(100.0));
  double total = 0.0;
  for (int i = 1; i <= 5; ++i) {
    ost.write(40.0 * i, Ost::Mode::Durable, [](Time) {});
    total += 40.0 * i;
  }
  e.run();
  EXPECT_NEAR(ost.cum_ingested(), total, 1e-4);
  EXPECT_NEAR(ost.cum_drained(), total, 1e-4);
  EXPECT_NEAR(ost.cache_occupancy(), 0.0, 1e-4);
  EXPECT_DOUBLE_EQ(ost.bytes_submitted(), total);
}

TEST(Ost, ConcurrentMixedWritesCompleteInIdOrderAroundAnAbort) {
  Engine e;
  Ost ost(e, tiny(/*cache=*/1000.0));
  std::vector<std::pair<int, Time>> done;
  const Ost::Mode modes[] = {Ost::Mode::Cached, Ost::Mode::Durable, Ost::Mode::Cached,
                             Ost::Mode::Durable, Ost::Mode::Cached};
  std::vector<Ost::OpId> ids;
  for (int i = 0; i < 5; ++i)
    ids.push_back(ost.write(40.0, modes[i], [&done, i](Time t) { done.emplace_back(i, t); }));
  // t=0: five ingesters at 20 B/s, each draining 2 B/s.  At t=0.5 each has
  // 10 B in and 9 B dirty; the middle write's 9 B join the orphan pool.
  e.schedule_at(0.5, [&] { EXPECT_TRUE(ost.abort(ids[2])); });
  e.run();
  // Four ingesters at 25 B/s finish ingest at t=1.7 with 36.6 B dirty each;
  // the cached ones complete there (their residue orphaned: 79.8 B pool).
  // The durable two then drain at 10/3 B/s each: 36.6 B more by t=12.68.
  ASSERT_EQ(done.size(), 4u);
  const int order[] = {0, 4, 1, 3};
  const Time at[] = {1.7, 1.7, 12.68, 12.68};
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(done[k].first, order[k]) << "completion " << k;
    EXPECT_NEAR(done[k].second, at[k], 1e-6) << "completion " << k;
  }
  EXPECT_DOUBLE_EQ(ost.bytes_submitted(), 200.0);  // the aborted write counts
  EXPECT_NEAR(ost.cum_ingested(), 170.0, 1e-6);    // 4 x 40 B + 10 B before the abort
  // Drained: 5 B by t=0.5, 12 B by t=1.7, then 10 B/s for 10.98 s.
  EXPECT_NEAR(ost.cum_drained(), 126.8, 1e-6);
  // The 43.2 B orphan residue drains in the background until t=17.
  e.run_until(20.0);
  EXPECT_NEAR(ost.cum_drained(), 170.0, 1e-6);
  EXPECT_EQ(ost.active_ops(), 0u);
}

// ---------------------------------------------------------------------------
// Property sweep: n identical durable writers on one OST must finish in
// (n * bytes) / disk_bw with alpha = 0, and per-writer completion times must
// all be equal (fair sharing).
// ---------------------------------------------------------------------------

class OstFairness : public ::testing::TestWithParam<int> {};

TEST_P(OstFairness, EqualWritersFinishTogetherAndConserveWork) {
  const int n = GetParam();
  Engine e;
  Ost ost(e, tiny(/*cache=*/50.0));
  std::vector<Time> done(n, -1.0);
  for (int i = 0; i < n; ++i)
    ost.write(30.0, Ost::Mode::Durable, [&done, i](Time t) { done[i] = t; });
  e.run();
  const double expected = 30.0 * n / 10.0;  // drain-bound
  for (int i = 0; i < n; ++i) EXPECT_NEAR(done[i], expected, expected * 0.02) << "writer " << i;
}

INSTANTIATE_TEST_SUITE_P(Counts, OstFairness, ::testing::Values(1, 2, 4, 8, 16, 32));

}  // namespace
