// Unit and property tests for the processor-sharing fluid resource.
#include "sim/fluid.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fluid_reference.hpp"
#include "sim/engine.hpp"

namespace {

using aio::sim::Engine;
using aio::sim::FluidResource;
using aio::sim::Time;

FluidResource::Config cfg(double capacity, double cap = 0.0, double alpha = 0.0) {
  return FluidResource::Config{capacity, cap, alpha};
}

TEST(Fluid, SingleStreamTakesBytesOverCapacity) {
  Engine e;
  FluidResource r(e, cfg(100.0), 1);
  Time done = -1.0;
  r.start(0, 250.0, [&](Time t) { done = t; });
  e.run();
  EXPECT_NEAR(done, 2.5, 1e-9);
}

TEST(Fluid, TwoEqualStreamsShareCapacity) {
  Engine e;
  FluidResource r(e, cfg(100.0), 1);
  Time d1 = -1, d2 = -1;
  r.start(0, 100.0, [&](Time t) { d1 = t; });
  r.start(0, 100.0, [&](Time t) { d2 = t; });
  e.run();
  // Each gets 50 B/s -> both finish at t = 2.
  EXPECT_NEAR(d1, 2.0, 1e-9);
  EXPECT_NEAR(d2, 2.0, 1e-9);
}

TEST(Fluid, ShorterStreamFinishesFirstThenSurvivorSpeedsUp) {
  Engine e;
  FluidResource r(e, cfg(100.0), 1);
  Time d_short = -1, d_long = -1;
  r.start(0, 50.0, [&](Time t) { d_short = t; });
  r.start(0, 150.0, [&](Time t) { d_long = t; });
  e.run();
  // Shared 50/50 until t=1 (short done, long has 100 left), then full rate.
  EXPECT_NEAR(d_short, 1.0, 1e-9);
  EXPECT_NEAR(d_long, 2.0, 1e-9);
}

TEST(Fluid, LateArrivalSlowsExistingStream) {
  Engine e;
  FluidResource r(e, cfg(100.0), 1);
  Time d1 = -1, d2 = -1;
  r.start(0, 100.0, [&](Time t) { d1 = t; });
  e.schedule_at(0.5, [&] { r.start(0, 100.0, [&](Time t) { d2 = t; }); });
  e.run();
  // First: 50 B alone, then 50 B at half rate -> 0.5 + 1.0 = 1.5.
  EXPECT_NEAR(d1, 1.5, 1e-9);
  // Second: 50 B at half rate, then 50 B alone -> 0.5+1.0 .. finishes at 2.0.
  EXPECT_NEAR(d2, 2.0, 1e-9);
}

TEST(Fluid, PerStreamCapLimitsLoneStream) {
  Engine e;
  FluidResource r(e, cfg(100.0, /*cap=*/10.0), 1);
  Time done = -1;
  r.start(0, 100.0, [&](Time t) { done = t; });
  e.run();
  EXPECT_NEAR(done, 10.0, 1e-9);
}

TEST(Fluid, CapDoesNotBindWhenShareIsSmaller) {
  Engine e;
  FluidResource r(e, cfg(100.0, /*cap=*/60.0), 1);
  Time d1 = -1;
  r.start(0, 100.0, [&](Time t) { d1 = t; });
  r.start(0, 100.0, [&](Time) {});
  e.run();
  // Share is 50 < cap 60.
  EXPECT_NEAR(d1, 2.0, 1e-9);
}

TEST(Fluid, EfficiencyPenaltyReducesAggregateRate) {
  Engine e;
  const double alpha = 0.5;
  FluidResource r(e, cfg(100.0, 0.0, alpha), 1);
  Time d = -1;
  r.start(0, 100.0, [&](Time t) { d = t; });
  r.start(0, 100.0, [&](Time t) { d = t; });
  e.run();
  // eff(2) = 1/(1+0.5) = 2/3; total rate 66.67, 33.33 each -> 3 s.
  EXPECT_NEAR(d, 3.0, 1e-6);
}

TEST(Fluid, EfficiencyHelper) {
  EXPECT_DOUBLE_EQ(FluidResource::efficiency(0.5, 1), 1.0);
  EXPECT_DOUBLE_EQ(FluidResource::efficiency(0.5, 2), 1.0 / 1.5);
  EXPECT_DOUBLE_EQ(FluidResource::efficiency(0.0, 64), 1.0);
}

TEST(Fluid, AbortRemovesStreamAndNeverFiresCallback) {
  Engine e;
  FluidResource r(e, cfg(100.0), 1);
  bool aborted_fired = false;
  Time d_other = -1;
  auto id = r.start(0, 100.0, [&](Time) { aborted_fired = true; });
  r.start(0, 100.0, [&](Time t) { d_other = t; });
  e.schedule_at(0.5, [&] { EXPECT_TRUE(r.abort(id)); });
  e.run();
  EXPECT_FALSE(aborted_fired);
  // Other stream: 25 B at half rate, then 75 B at full rate -> 0.5 + 0.75.
  EXPECT_NEAR(d_other, 1.25, 1e-9);
}

TEST(Fluid, AbortUnknownStreamReturnsFalse) {
  Engine e;
  FluidResource r(e, cfg(100.0), 1);
  EXPECT_FALSE(r.abort(12345));
}

TEST(Fluid, CapacityFactorZeroFreezesAndResumes) {
  Engine e;
  FluidResource r(e, cfg(100.0), 1);
  Time done = -1;
  r.start(0, 100.0, [&](Time t) { done = t; });
  e.schedule_at(0.5, [&] { r.set_capacity_factor(0, 0.0); });
  e.schedule_at(2.5, [&] { r.set_capacity_factor(0, 1.0); });
  e.run();
  // 50 B by t=0.5, frozen 2 s, remaining 50 B -> done at 3.0.
  EXPECT_NEAR(done, 3.0, 1e-9);
}

TEST(Fluid, CapacityFactorScalesRate) {
  Engine e;
  FluidResource r(e, cfg(100.0), 1);
  r.set_capacity_factor(0, 0.25);
  Time done = -1;
  r.start(0, 100.0, [&](Time t) { done = t; });
  e.run();
  EXPECT_NEAR(done, 4.0, 1e-9);
}

TEST(Fluid, ZeroByteStreamCompletesImmediatelyButAsynchronously) {
  Engine e;
  FluidResource r(e, cfg(100.0), 1);
  bool fired = false;
  r.start(0, 0.0, [&](Time t) {
    fired = true;
    EXPECT_DOUBLE_EQ(t, 0.0);
  });
  EXPECT_FALSE(fired);  // not synchronous
  e.run();
  EXPECT_TRUE(fired);
}

TEST(Fluid, CallbackCanStartNewStream) {
  Engine e;
  FluidResource r(e, cfg(100.0), 1);
  Time second_done = -1;
  r.start(0, 100.0, [&](Time) { r.start(0, 100.0, [&](Time t) { second_done = t; }); });
  e.run();
  EXPECT_NEAR(second_done, 2.0, 1e-9);
}

TEST(Fluid, RemainingReportsLiveProgress) {
  Engine e;
  FluidResource r(e, cfg(100.0), 1);
  auto id = r.start(0, 100.0, [](Time) {});
  double at_half = -1;
  e.schedule_at(0.5, [&] { at_half = r.remaining(id); });
  e.run();
  EXPECT_NEAR(at_half, 50.0, 1e-6);
  EXPECT_DOUBLE_EQ(r.remaining(id), 0.0);  // completed stream reports 0
}

TEST(Fluid, NegativeBytesThrows) {
  Engine e;
  FluidResource r(e, cfg(100.0), 1);
  EXPECT_THROW(r.start(0, -1.0, [](Time) {}), std::invalid_argument);
}

// A NaN stream must be refused before it is inserted: a resource holding
// one would never drain it, and every later start on it would throw.
TEST(FluidResource, NanBytesThrowAndLeaveResourceUsable) {
  Engine e;
  FluidResource r(e, cfg(100.0), 1);
  EXPECT_THROW(r.start(0, std::nan(""), [](Time) {}), std::invalid_argument);
  EXPECT_EQ(r.active_streams(0), 0u);
  EXPECT_EQ(e.pending(), 0u);
  Time done = -1.0;
  r.start(0, 100.0, [&](Time t) { done = t; });
  e.run();
  EXPECT_DOUBLE_EQ(done, 1.0);
  EXPECT_EQ(r.active_streams(0), 0u);
}

TEST(Fluid, InvalidConfigThrows) {
  Engine e;
  EXPECT_THROW(FluidResource(e, cfg(0.0), 1), std::invalid_argument);
  EXPECT_THROW(FluidResource(e, cfg(-5.0), 1), std::invalid_argument);
  EXPECT_THROW(FluidResource(e, cfg(1.0, -1.0), 1), std::invalid_argument);
}

// Links share the resource's config and nothing else: each keeps its own
// clock, capacity factor and streams.
TEST(Fluid, LinksShareNoCapacity) {
  Engine e;
  FluidResource r(e, cfg(100.0), 3);
  Time d0 = -1, d1 = -1, d2 = -1;
  r.start(0, 100.0, [&](Time t) { d0 = t; });
  r.start(0, 100.0, [](Time) {});
  const auto id = r.start(1, 100.0, [&](Time t) { d1 = t; });
  r.set_capacity_factor(2, 0.5);
  r.start(2, 100.0, [&](Time t) { d2 = t; });
  EXPECT_EQ(r.active_streams(0), 2u);
  EXPECT_EQ(r.active_streams(1), 1u);
  double at_half = -1;
  e.schedule_at(0.5, [&] { at_half = r.remaining(id); });
  e.run();
  EXPECT_NEAR(d0, 2.0, 1e-9);  // two streams share link 0
  EXPECT_NEAR(d1, 1.0, 1e-9);  // alone on link 1
  EXPECT_NEAR(d2, 2.0, 1e-9);  // link 2 at half capacity
  EXPECT_NEAR(at_half, 50.0, 1e-9);
}

TEST(Fluid, UnknownLinkThrowsAndChangesNothing) {
  Engine e;
  FluidResource r(e, cfg(100.0), 2);
  EXPECT_THROW(r.start(2, 1.0, [](Time) {}), std::out_of_range);
  EXPECT_THROW(r.set_capacity_factor(2, 1.0), std::out_of_range);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(r.active_streams(0) + r.active_streams(1), 0u);
  FluidResource none(e, cfg(100.0), 0);  // an engine that homes no node
  EXPECT_THROW(none.start(0, 1.0, [](Time) {}), std::out_of_range);
}

// A finished or aborted stream's slot goes to the next start, and its id
// goes stale: abort and remaining must not reach the slot's new stream.
TEST(Fluid, StaleIdsDoNotReachAReusedSlot) {
  Engine e;
  FluidResource r(e, cfg(100.0), 2);
  const auto first = r.start(0, 100.0, [](Time) {});
  EXPECT_TRUE(r.abort(first));
  Time done = -1;
  const auto second = r.start(1, 100.0, [&](Time t) { done = t; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(r.abort(first));
  EXPECT_DOUBLE_EQ(r.remaining(first), 0.0);
  EXPECT_NEAR(r.remaining(second), 100.0, 1e-9);
  e.run();
  EXPECT_NEAR(done, 1.0, 1e-9);
  EXPECT_FALSE(r.abort(second));
}

// Tied completions fire as one batch in start order, and the batch survives
// its first callback growing the slab.
TEST(Fluid, CompletionBatchSurvivesSlabGrowth) {
  Engine e;
  FluidResource r(e, cfg(100.0), 1);
  std::vector<int> order;
  Time second = -1;
  r.start(0, 100.0, [&](Time) {
    order.push_back(0);
    for (int i = 0; i < 64; ++i) r.start(0, 1.0, [](Time) {});
  });
  r.start(0, 100.0, [&](Time t) {
    order.push_back(1);
    second = t;
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_NEAR(second, 2.0, 1e-9);
  EXPECT_EQ(r.active_streams(0), 0u);
}

// ---------------------------------------------------------------------------
// Property sweep: for any stream count and work distribution, total service
// time must equal total work / capacity (work conservation, alpha = 0, no
// caps), and completions must be ordered by work.
// ---------------------------------------------------------------------------

class FluidConservation : public ::testing::TestWithParam<int> {};

TEST_P(FluidConservation, WorkConservingUnderAnyMix) {
  const int n = GetParam();
  Engine e;
  FluidResource r(e, cfg(1000.0), 1);
  double total_work = 0.0;
  std::vector<Time> done(n, -1.0);
  std::vector<double> work(n);
  for (int i = 0; i < n; ++i) {
    work[i] = 100.0 * (i + 1);
    total_work += work[i];
    r.start(0, work[i], [&done, i](Time t) { done[i] = t; });
  }
  e.run();
  // Last completion = total work / capacity (processor sharing is
  // work-conserving when nothing else binds).
  EXPECT_NEAR(done.back(), total_work / 1000.0, 1e-6);
  // Less work never finishes later.
  for (int i = 1; i < n; ++i) EXPECT_LE(done[i - 1], done[i] + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Counts, FluidConservation, ::testing::Values(1, 2, 3, 5, 8, 16, 64));

// ---------------------------------------------------------------------------
// Differential sweep: the virtual-time production model must agree with the
// retired linear-drain implementation (tests/fluid_reference.{hpp,cpp}) on
// randomized schedules of start / abort / set_capacity_factor.  The oracle
// is O(n) per state change but obviously correct; any divergence in *which*
// streams complete, *when*, or what remaining() reports is a bug in the
// O(1)-advance rewrite.
// ---------------------------------------------------------------------------

struct ScheduleOp {
  enum class Kind { Start, Abort, SetFactor } kind;
  double at;          // engine time the op is applied
  double bytes;       // Start
  std::size_t target; // Abort: index into the starts issued so far
  double factor;      // SetFactor
};

struct Schedule {
  aio::sim::FluidResource::Config config;
  std::vector<ScheduleOp> ops;
  std::size_t n_starts = 0;
};

Schedule make_schedule(unsigned seed) {
  std::mt19937 rng(seed);
  Schedule s;
  s.config.capacity = 1000.0;
  s.config.per_stream_cap = (seed % 3 == 0) ? 90.0 : 0.0;
  s.config.alpha = (seed % 2 == 0) ? 0.0 : 0.05;

  std::uniform_real_distribution<double> gap(0.0, 0.7);
  std::uniform_real_distribution<double> bytes(0.5, 400.0);
  std::uniform_real_distribution<double> factor(0.0, 2.0);
  std::uniform_int_distribution<int> kind(0, 9);

  double t = 0.0;
  for (int i = 0; i < 120; ++i) {
    t += gap(rng);
    const int k = kind(rng);
    if (k < 6 || s.n_starts == 0) {
      s.ops.push_back({ScheduleOp::Kind::Start, t, bytes(rng), 0, 0.0});
      ++s.n_starts;
    } else if (k < 8) {
      std::uniform_int_distribution<std::size_t> pick(0, s.n_starts - 1);
      s.ops.push_back({ScheduleOp::Kind::Abort, t, 0.0, pick(rng), 0.0});
    } else {
      // Freeze occasionally (factor 0), otherwise scale; always restore a
      // positive factor at the end so every surviving stream completes.
      const double f = (kind(rng) == 0) ? 0.0 : factor(rng);
      s.ops.push_back({ScheduleOp::Kind::SetFactor, t, 0.0, 0, f});
    }
  }
  s.ops.push_back({ScheduleOp::Kind::SetFactor, t + 1.0, 0.0, 0, 1.0});
  return s;
}

// The outcome of a schedule: the completion time per start index (-1 =
// never completed, i.e. aborted), plus remaining() probes taken mid-run.
struct RunOutcome {
  std::vector<Time> done;
  std::vector<double> probes;
  std::vector<std::uint64_t> ids;  // per start index; 0 until started
};

// Schedules `s`'s ops against either fluid implementation on `e`; `out`
// fills in as `e` runs.
template <class Model>
void schedule_ops(Engine& e, Model& m, const Schedule& s, RunOutcome& out) {
  out.done.assign(s.n_starts, -1.0);
  out.ids.assign(s.n_starts, 0);
  std::vector<std::uint64_t>& ids = out.ids;

  std::size_t start_idx = 0;
  for (const ScheduleOp& op : s.ops) {
    switch (op.kind) {
      case ScheduleOp::Kind::Start: {
        const std::size_t idx = start_idx++;
        e.schedule_at(op.at, [&m, &out, &ids, idx, b = op.bytes] {
          ids[idx] = m.start(b, [&out, idx](Time t) { out.done[idx] = t; });
        });
        break;
      }
      case ScheduleOp::Kind::Abort:
        e.schedule_at(op.at, [&m, &ids, tgt = op.target] {
          if (ids[tgt] != 0) m.abort(ids[tgt]);
        });
        break;
      case ScheduleOp::Kind::SetFactor:
        e.schedule_at(op.at, [&m, f = op.factor] { m.set_capacity_factor(f); });
        break;
    }
    // Probe remaining() for every stream started so far, between ops.
    e.schedule_at(op.at + 1e-3, [&m, &out, &ids, n = start_idx] {
      for (std::size_t i = 0; i < n; ++i)
        if (ids[i] != 0) out.probes.push_back(m.remaining(ids[i]));
    });
  }
}

// One link of a production resource, seen through the reference's interface.
struct LinkOf {
  FluidResource& r;
  std::size_t link;
  FluidResource::StreamId start(double bytes, FluidResource::OnComplete cb) {
    return r.start(link, bytes, std::move(cb));
  }
  bool abort(FluidResource::StreamId id) { return r.abort(id); }
  void set_capacity_factor(double f) { r.set_capacity_factor(link, f); }
  double remaining(FluidResource::StreamId id) const { return r.remaining(id); }
};

// Runs schedule i on link i of one resource (the schedules share a config).
std::vector<RunOutcome> run_links(const std::vector<Schedule>& schedules) {
  Engine e;
  FluidResource r(e, schedules.front().config, schedules.size());
  std::vector<LinkOf> links;
  links.reserve(schedules.size());
  std::vector<RunOutcome> out(schedules.size());
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    links.push_back(LinkOf{r, i});
    schedule_ops(e, links[i], schedules[i], out[i]);
  }
  e.run();
  return out;
}

RunOutcome run_reference(const Schedule& s) {
  Engine e;
  aio::sim::testing::FluidReference m(
      e, {s.config.capacity, s.config.per_stream_cap, s.config.alpha});
  RunOutcome out;
  schedule_ops(e, m, s, out);
  e.run();
  return out;
}

class FluidDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(FluidDifferential, MatchesLinearDrainReference) {
  const Schedule s = make_schedule(GetParam());
  const RunOutcome got = run_links({s}).front();
  const RunOutcome want = run_reference(s);

  ASSERT_EQ(got.done.size(), want.done.size());
  for (std::size_t i = 0; i < got.done.size(); ++i) {
    // Same fate: completed in both or aborted in both.
    ASSERT_EQ(got.done[i] < 0, want.done[i] < 0) << "stream " << i;
    if (got.done[i] >= 0) {
      EXPECT_NEAR(got.done[i], want.done[i], 1e-6 * (1.0 + want.done[i]))
          << "stream " << i;
    }
  }
  ASSERT_EQ(got.probes.size(), want.probes.size());
  for (std::size_t i = 0; i < got.probes.size(); ++i)
    EXPECT_NEAR(got.probes[i], want.probes[i], 1e-6 * (1.0 + want.probes[i]))
        << "probe " << i;
}

// Links of one resource share its slab and its engine and nothing else:
// three schedules with one config (seeds six apart) run side by side give
// every link bit for bit the outcome it has alone.
TEST_P(FluidDifferential, LinksOfOneResourceRunApart) {
  const unsigned seed = GetParam();
  const std::vector<Schedule> schedules = {make_schedule(seed), make_schedule(seed + 6),
                                           make_schedule(seed + 12)};
  const std::vector<RunOutcome> together = run_links(schedules);
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    const RunOutcome alone = run_links({schedules[i]}).front();
    EXPECT_EQ(together[i].done, alone.done) << "link " << i;
    EXPECT_EQ(together[i].probes, alone.probes) << "link " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidDifferential,
                         ::testing::Range(1u, 25u));

}  // namespace
