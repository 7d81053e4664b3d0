// Tests for the fabric governor and the metadata server.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fs/fabric.hpp"
#include "fs/mds.hpp"
#include "fs/ost.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace {

using aio::fs::FabricGovernor;
using aio::fs::MetadataServer;
using aio::fs::Ost;
using aio::sim::Engine;
using aio::sim::Time;

Ost::Config fast_ost() {
  Ost::Config c;
  c.ingest_bw = 100.0;
  c.disk_bw = 100.0;
  c.cache_bytes = 1e9;
  c.alpha = 0.0;
  c.eff_floor = 0.0;
  return c;
}

TEST(Fabric, SingleActiveOstKeepsFullFactor) {
  Engine e;
  // Fabric admits 4 OSTs' worth of ingest; one active OST is unconstrained.
  FabricGovernor gov(e, 400.0);
  std::vector<std::unique_ptr<Ost>> osts;
  for (int i = 0; i < 8; ++i) {
    osts.push_back(std::make_unique<Ost>(e, fast_ost(), i));
    gov.attach(*osts.back());
  }
  Time done = -1;
  osts[0]->write(100.0, Ost::Mode::Cached, [&](Time t) { done = t; });
  e.run();
  EXPECT_NEAR(done, 1.0, 1e-6);
  EXPECT_EQ(gov.active_count(), 0u);  // idle again after completion
}

TEST(Fabric, ManyActiveOstsShareTheFabric) {
  Engine e;
  // Fabric 400 B/s, 8 OSTs of 100 B/s ingest -> factor 0.5 when all active.
  FabricGovernor gov(e, 400.0);
  std::vector<std::unique_ptr<Ost>> osts;
  for (int i = 0; i < 8; ++i) {
    osts.push_back(std::make_unique<Ost>(e, fast_ost(), i));
    gov.attach(*osts.back());
  }
  std::vector<Time> done(8, -1.0);
  for (int i = 0; i < 8; ++i)
    osts[i]->write(100.0, Ost::Mode::Cached, [&done, i](Time t) { done[i] = t; });
  e.run();
  for (int i = 0; i < 8; ++i) EXPECT_NEAR(done[i], 2.0, 0.1) << "ost " << i;
}

TEST(Fabric, ZeroBandwidthDisablesGovernor) {
  Engine e;
  FabricGovernor gov(e, 0.0);
  std::vector<std::unique_ptr<Ost>> osts;
  for (int i = 0; i < 4; ++i) {
    osts.push_back(std::make_unique<Ost>(e, fast_ost(), i));
    gov.attach(*osts.back());
  }
  std::vector<Time> done(4, -1.0);
  for (int i = 0; i < 4; ++i)
    osts[i]->write(100.0, Ost::Mode::Cached, [&done, i](Time t) { done[i] = t; });
  e.run();
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(done[i], 1.0, 1e-6);
}

TEST(Fabric, FactorRecoversWhenOstsGoIdle) {
  Engine e;
  FabricGovernor gov(e, 100.0);  // only one OST's worth
  std::vector<std::unique_ptr<Ost>> osts;
  for (int i = 0; i < 2; ++i) {
    osts.push_back(std::make_unique<Ost>(e, fast_ost(), i));
    gov.attach(*osts.back());
  }
  Time d0 = -1, d1 = -1;
  osts[0]->write(50.0, Ost::Mode::Cached, [&](Time t) { d0 = t; });
  osts[1]->write(100.0, Ost::Mode::Cached, [&](Time t) { d1 = t; });
  e.run();
  // Both at 50 B/s until t=1 (ost0 done, 50 B left on ost1), then ost1 back
  // to 100 B/s: d1 = 1 + 0.5 (within hysteresis slack).
  EXPECT_NEAR(d0, 1.0, 0.1);
  EXPECT_NEAR(d1, 1.5, 0.1);
}

TEST(Fabric, HookDecidesAtOnceAndOneFlushRetimesTheOsts) {
  Engine e;
  FabricGovernor gov(e, 400.0);
  std::vector<std::unique_ptr<Ost>> osts;
  for (int i = 0; i < 8; ++i) {
    osts.push_back(std::make_unique<Ost>(e, fast_ost(), i));
    gov.attach(*osts.back());
  }
  for (auto& o : osts) o->write(100.0, Ost::Mode::Cached, nullptr);
  // The hook ran inside each write's recompute: counted and decided...
  EXPECT_EQ(gov.active_count(), 8u);
  EXPECT_DOUBLE_EQ(gov.current_factor(), 0.5);
  // ...but no OST has been re-timed yet: that is the flush's job.
  for (auto& o : osts) EXPECT_EQ(o->fabric_factor(), 1.0);
  // Four of the eight transitions moved the factor; they armed one flush.
  EXPECT_EQ(e.pending(), 9u);
  EXPECT_EQ(e.run(1), 1u);  // the flush, the only event at t = 0
  for (auto& o : osts) EXPECT_DOUBLE_EQ(o->fabric_factor(), 0.5);
  e.run();
  EXPECT_EQ(gov.active_count(), 0u);
  for (auto& o : osts) EXPECT_DOUBLE_EQ(o->fabric_factor(), 1.0);
}

TEST(Fabric, DestroyedGovernorLeavesNoFlushBehind) {
  Engine e;
  {
    FabricGovernor gov(e, 100.0);
    Ost a(e, fast_ost(), 0);
    Ost b(e, fast_ost(), 1);
    gov.attach(a);
    gov.attach(b);
    a.write(100.0, Ost::Mode::Cached, nullptr);
    b.write(100.0, Ost::Mode::Cached, nullptr);  // moves the factor: flush armed
    EXPECT_DOUBLE_EQ(gov.current_factor(), 0.5);
  }
  // Both OSTs and the governor cancelled their events; nothing dangles.
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.run(), 0u);
}

// ---------------------------------------------------------------------------
// Differential check of the once-per-instant flush.  The governor decides on
// every activity transition, synchronously and in transition order, and
// re-times the OSTs from one flush event per instant.  ReferenceGovernor
// re-times eagerly: each hook call hops through a zero-delay event that
// counts, decides and re-times every OST at once, so a burst of transitions
// at one instant re-times each busy OST once per moved decision.  At
// dt == 0 an OST's fluid state does not move, so only the last re-time of an
// instant is observable, and both must give the same completions bit for
// bit.  Random scenarios on a coarse time grid make instants coincide.
//
// The equality is measured, not proven.  The flush runs where the first
// moved decision of an instant armed it; the eager broadcast re-times busy
// OSTs again at each later moved decision.  If an idle OST's own event runs
// between two such decisions and its next event ties exactly with a busy
// OST's, the two fire in the other order.  Over seeds 1–12,000 of this
// generator that happened once (seed 10453).
//
// Mutation check: feeding each transition to the governor as a ±1 net delta
// through notify_activity_batched (the sharded replicas' feed, which decides
// once from the final count) instead of deciding per transition made 110 of
// these 300 scenarios differ.
// ---------------------------------------------------------------------------

class ReferenceGovernor {
 public:
  ReferenceGovernor(Engine& engine, double fabric_bw) : engine_(engine), fabric_bw_(fabric_bw) {}

  void attach(Ost& ost) {
    osts_.push_back(&ost);
    ost.set_activity_hook([this](bool active) {
      engine_.schedule_after(0.0, [this, active] { on_activity(active); });
    });
  }

  std::size_t broadcasts = 0;
  std::size_t same_instant_broadcasts = 0;  // a repeat at an instant already broadcast

 private:
  void on_activity(bool active) {
    active_ = active ? active_ + 1 : active_ - 1;
    double factor = 1.0;
    if (active_ > 0) {
      const double per_ost = osts_.front()->config().ingest_bw;
      factor = std::min(1.0, fabric_bw_ / (static_cast<double>(active_) * per_ost));
    }
    if (std::abs(factor - applied_) <= 0.02 * applied_) return;
    applied_ = factor;
    ++broadcasts;
    if (engine_.now() == last_broadcast_) ++same_instant_broadcasts;
    last_broadcast_ = engine_.now();
    for (Ost* ost : osts_) ost->set_fabric_factor(factor);
  }

  Engine& engine_;
  double fabric_bw_;
  std::vector<Ost*> osts_;
  std::size_t active_ = 0;
  double applied_ = 1.0;
  Time last_broadcast_ = -1.0;
};

struct Outcome {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> completions;  // (op label, time bits)
  std::uint64_t final_now = 0;
};

/// One seeded scenario under governor `Gov`: OSTs with small or large
/// caches, optional per-stream caps and per-op latency, a fabric at 10–60%
/// of aggregate ingest, writes, reads and flushes issued on a grid, loads
/// moved on the grid, and follow-up writes issued from completions (at once
/// or at the next grid point).
template <class Gov>
class Scenario {
 public:
  explicit Scenario(std::uint64_t seed) : rng_(seed) {
    const auto n = static_cast<std::size_t>(rng_.uniform_int(2, 96));
    Ost::Config c;
    c.ingest_bw = 100e6;
    c.disk_bw = rng_.uniform(20e6, 120e6);
    c.cache_bytes = rng_.bernoulli(0.5) ? rng_.uniform(2e6, 3e7) : 2e9;
    c.per_stream_cap = rng_.bernoulli(0.3) ? rng_.uniform(0.1, 0.8) * c.ingest_bw : 0.0;
    if (rng_.bernoulli(0.5)) c.op_latency_s = rng_.bernoulli(0.5) ? kGrid : 1e-3;  // on or off grid
    gov_ = std::make_unique<Gov>(engine_, rng_.uniform(0.1, 0.6) * static_cast<double>(n) *
                                              c.ingest_bw);
    for (std::size_t i = 0; i < n; ++i) {
      osts_.push_back(std::make_unique<Ost>(engine_, c, static_cast<int>(i)));
      gov_->attach(*osts_.back());
    }
    const auto ops = rng_.uniform_int(static_cast<std::int64_t>(n), static_cast<std::int64_t>(4 * n));
    for (std::int64_t k = 0; k < ops; ++k) {
      const Time t = kGrid * static_cast<double>(rng_.uniform_int(0, 12));
      const std::size_t ost = pick();
      const double roll = rng_.uniform(0.0, 1.0);
      engine_.schedule_at(t, [this, ost, roll] {
        if (roll < 0.85) {
          write(ost, 2);
        } else if (roll < 0.95) {
          osts_[ost]->read(size(), done(label_++, 0));
        } else {
          osts_[ost]->flush(done(label_++, 0));
        }
      });
    }
    for (std::size_t k = 0; k < n / 3 + 1; ++k) {
      const Time t = kGrid * static_cast<double>(rng_.uniform_int(0, 16));
      const std::size_t ost = pick();
      const double net = rng_.uniform(0.0, 0.6);
      const double disk = rng_.uniform(0.0, 0.6);
      engine_.schedule_at(t, [this, ost, net, disk] { osts_[ost]->set_load(net, disk); });
    }
  }

  Outcome run() {
    engine_.run();
    out_.final_now = std::bit_cast<std::uint64_t>(engine_.now());
    return std::move(out_);
  }

  Gov& governor() { return *gov_; }

 private:
  static constexpr double kGrid = 0.05;

  std::size_t pick() {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(osts_.size()) - 1));
  }
  // Few distinct sizes, so equal writes on equal OSTs finish together.
  double size() { return 1e6 * static_cast<double>(1 << rng_.uniform_int(0, 3)); }

  void write(std::size_t ost, int follow_ups) {
    const auto mode = rng_.bernoulli(0.5) ? Ost::Mode::Cached : Ost::Mode::Durable;
    osts_[ost]->write(size(), mode, done(label_++, follow_ups));
  }

  Ost::OnComplete done(std::uint64_t label, int follow_ups) {
    return [this, label, follow_ups](Time t) {
      out_.completions.emplace_back(label, std::bit_cast<std::uint64_t>(t));
      if (follow_ups == 0 || !rng_.bernoulli(0.6)) return;
      const std::size_t ost = pick();
      if (rng_.bernoulli(0.5)) {
        write(ost, follow_ups - 1);  // same instant, inside the completion
      } else {
        const Time next = kGrid * std::floor(t / kGrid + 1.0);
        engine_.schedule_at(next, [this, ost, follow_ups] { write(ost, follow_ups - 1); });
      }
    };
  }

  aio::sim::Rng rng_;
  Engine engine_;
  std::unique_ptr<Gov> gov_;
  std::vector<std::unique_ptr<Ost>> osts_;
  std::uint64_t label_ = 0;
  Outcome out_;
};

TEST(Fabric, OncePerInstantFlushMatchesPerDecisionBroadcast) {
  std::size_t completions = 0;
  std::size_t broadcasts = 0;
  std::size_t same_instant = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Scenario<ReferenceGovernor> reference(seed);
    Scenario<FabricGovernor> flushed(seed);
    const Outcome want = reference.run();
    const Outcome got = flushed.run();
    ASSERT_EQ(got.completions, want.completions) << "seed " << seed;
    ASSERT_EQ(got.final_now, want.final_now) << "seed " << seed;
    completions += want.completions.size();
    broadcasts += reference.governor().broadcasts;
    same_instant += reference.governor().same_instant_broadcasts;
  }
  // The scenarios must exercise what the flush coalesces.
  EXPECT_GT(completions, 50000u);
  EXPECT_GT(broadcasts, 20000u);
  EXPECT_GT(same_instant, 8000u);
}

TEST(Mds, SingleOpTakesBaseTime) {
  Engine e;
  MetadataServer::Config c;
  c.open_base_s = 0.001;
  c.queue_penalty = 0.01;
  MetadataServer mds(e, c);
  Time done = -1;
  mds.submit(MetadataServer::OpKind::Open, [&](Time t) { done = t; });
  e.run();
  EXPECT_NEAR(done, 0.001, 1e-9);
  EXPECT_EQ(mds.completed_ops(), 1u);
}

TEST(Mds, OpsAreServedFifo) {
  Engine e;
  MetadataServer::Config c;
  c.open_base_s = 0.001;
  c.queue_penalty = 0.0;
  MetadataServer mds(e, c);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    mds.submit(MetadataServer::OpKind::Open, [&order, i](Time) { order.push_back(i); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Mds, OpenStormDegradesServiceTime) {
  // The same 256 opens take longer when they arrive as a storm than when
  // they arrive after the previous one completes (queue penalty).
  MetadataServer::Config c;
  c.open_base_s = 0.001;
  c.queue_penalty = 0.01;

  Engine storm_engine;
  MetadataServer storm_mds(storm_engine, c);
  Time storm_done = -1;
  for (int i = 0; i < 256; ++i)
    storm_mds.submit(MetadataServer::OpKind::Open, [&](Time t) { storm_done = t; });
  storm_engine.run();

  Engine serial_engine;
  MetadataServer serial_mds(serial_engine, c);
  Time serial_done = -1;
  std::function<void(int)> next = [&](int remaining) {
    if (remaining == 0) return;
    serial_mds.submit(MetadataServer::OpKind::Open, [&, remaining](Time t) {
      serial_done = t;
      next(remaining - 1);
    });
  };
  next(256);
  serial_engine.run();

  EXPECT_GT(storm_done, serial_done * 1.5);
  EXPECT_EQ(storm_mds.peak_backlog(), 256u);
  EXPECT_EQ(serial_mds.peak_backlog(), 1u);
}

TEST(Mds, DifferentOpKindsUseDifferentBaseTimes) {
  Engine e;
  MetadataServer::Config c;
  c.open_base_s = 0.004;
  c.close_base_s = 0.002;
  c.stat_base_s = 0.001;
  c.queue_penalty = 0.0;
  MetadataServer mds(e, c);
  Time open_done = -1, close_done = -1, stat_done = -1;
  mds.submit(MetadataServer::OpKind::Open, [&](Time t) { open_done = t; });
  e.run();
  mds.submit(MetadataServer::OpKind::Close, [&](Time t) { close_done = t; });
  e.run();
  mds.submit(MetadataServer::OpKind::Stat, [&](Time t) { stat_done = t; });
  e.run();
  EXPECT_NEAR(open_done, 0.004, 1e-9);
  EXPECT_NEAR(close_done - open_done, 0.002, 1e-9);
  EXPECT_NEAR(stat_done - close_done, 0.001, 1e-9);
}

TEST(Mds, CreateDefaultsToOpenPrice) {
  // Create is priced exactly like Open, so a tier that issues Create ops is
  // byte-identical to one issuing Opens.
  Engine e;
  MetadataServer::Config c;
  c.open_base_s = 0.004;
  c.queue_penalty = 0.0;
  MetadataServer mds(e, c);
  Time create_done = -1;
  mds.submit(MetadataServer::OpKind::Create, [&](Time t) { create_done = t; });
  e.run();
  EXPECT_NEAR(create_done, 0.004, 1e-9);
}

TEST(Mds, CreateUnderLoadMatchesOpen) {
  // A queued Create grows with the backlog exactly as an Open does: a storm
  // of mixed Creates and Opens completes at the instants of an all-Open one.
  MetadataServer::Config c;
  c.open_base_s = 0.004;
  c.queue_penalty = 0.02;
  const auto storm = [&c](bool mixed) {
    Engine e;
    MetadataServer mds(e, c);
    std::vector<Time> done;
    for (int i = 0; i < 16; ++i) {
      const auto kind = mixed && i % 2 == 0 ? MetadataServer::OpKind::Create
                                            : MetadataServer::OpKind::Open;
      mds.submit(kind, [&done](Time t) { done.push_back(t); });
    }
    e.run();
    return done;
  };
  const std::vector<Time> mixed = storm(true);
  ASSERT_EQ(mixed.size(), 16u);
  EXPECT_EQ(mixed, storm(false));
  EXPECT_GT(mixed.back() - mixed[mixed.size() - 2], 0.004);  // the backlog priced in
}

TEST(Mds, BatchedRequestAmortizesBaseTime) {
  // service(k items) = base * (1 + penalty * backlog) + (k - 1) * batch_item_s:
  // one base charge for the request, a marginal per-item cost after that.
  Engine e;
  MetadataServer::Config c;
  c.open_base_s = 0.004;
  c.queue_penalty = 0.0;
  c.batch_item_s = 0.0005;
  MetadataServer mds(e, c);
  Time done = -1;
  mds.submit_batch(MetadataServer::OpKind::Open, 8, [&](Time t) { done = t; });
  e.run();
  EXPECT_NEAR(done, 0.004 + 7 * 0.0005, 1e-9);
  EXPECT_EQ(mds.completed_ops(), 1u);
  EXPECT_EQ(mds.completed_items(), 8u);
}

TEST(Mds, BatchOfOneEqualsSubmit) {
  MetadataServer::Config c;
  c.open_base_s = 0.003;
  c.queue_penalty = 0.02;
  c.batch_item_s = 0.001;  // must not leak into a k=1 request

  Engine ea;
  MetadataServer a(ea, c);
  std::vector<Time> ta;
  for (int i = 0; i < 16; ++i) a.submit(MetadataServer::OpKind::Open, [&](Time t) { ta.push_back(t); });
  ea.run();

  Engine eb;
  MetadataServer b(eb, c);
  std::vector<Time> tb;
  for (int i = 0; i < 16; ++i)
    b.submit_batch(MetadataServer::OpKind::Open, 1, [&](Time t) { tb.push_back(t); });
  eb.run();

  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) EXPECT_EQ(ta[i], tb[i]) << "op " << i;
  EXPECT_EQ(b.completed_items(), b.completed_ops());
}

TEST(Mds, EmptyBatchIsRejected) {
  Engine e;
  MetadataServer mds(e, MetadataServer::Config{});
  EXPECT_THROW(mds.submit_batch(MetadataServer::OpKind::Open, 0, [](Time) {}),
               std::invalid_argument);
}

TEST(Mds, CallbackCanSubmitMoreWork) {
  Engine e;
  MetadataServer::Config c;
  MetadataServer mds(e, c);
  int completed = 0;
  mds.submit(MetadataServer::OpKind::Open, [&](Time) {
    ++completed;
    mds.submit(MetadataServer::OpKind::Close, [&](Time) { ++completed; });
  });
  e.run();
  EXPECT_EQ(completed, 2);
}

}  // namespace
