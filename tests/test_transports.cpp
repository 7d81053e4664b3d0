// Behavioural tests for the three transports on a small simulated machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>

#include "core/transports/adaptive_transport.hpp"
#include "core/transports/layout.hpp"
#include "core/transports/mpiio_transport.hpp"
#include "core/transports/posix_transport.hpp"
#include "fs/filesystem.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"

namespace {

using namespace aio;
using core::AdaptiveTransport;
using core::IoJob;
using core::IoResult;
using core::MpiioTransport;
using core::PosixTransport;

fs::FsConfig test_fs(std::size_t n_osts = 8) {
  fs::FsConfig c;
  c.n_osts = n_osts;
  c.fabric_bw = 0.0;
  c.stripe_limit = 4;
  c.default_stripe_size = 1e6;
  c.ost.ingest_bw = 100e6;
  c.ost.disk_bw = 10e6;
  c.ost.cache_bytes = 50e6;
  c.ost.per_stream_cap = 0.0;
  c.ost.alpha = 0.0;
  c.ost.eff_floor = 0.0;
  c.mds.open_base_s = 1e-4;
  c.mds.close_base_s = 1e-4;
  return c;
}

struct Rig {
  sim::Engine engine;
  fs::FileSystem filesystem;
  net::Network network;

  explicit Rig(std::size_t n_osts = 8, std::size_t ranks = 64)
      : filesystem(engine, test_fs(n_osts)),
        network(engine, net::NetConfig{1e-6, 10e9, 8}, ranks) {}

  /// Custom file-system config (metadata-tier tests).
  explicit Rig(const fs::FsConfig& fc, std::size_t ranks = 64)
      : filesystem(engine, fc), network(engine, net::NetConfig{1e-6, 10e9, 8}, ranks) {}

  IoResult run(core::Transport& t, const IoJob& job) {
    std::optional<IoResult> result;
    t.run(job, [&](IoResult r) { result = std::move(r); });
    engine.run();
    if (!result) throw std::runtime_error("transport did not complete");
    return *result;
  }
};

// --- POSIX -------------------------------------------------------------------

TEST(PosixTransport, SpreadsWritersRoundRobinAcrossOsts) {
  Rig rig(4);
  PosixTransport t(rig.filesystem, {});
  const IoResult r = rig.run(t, IoJob::uniform(8, 1e6));
  EXPECT_DOUBLE_EQ(r.total_bytes, 8e6);
  for (std::size_t o = 0; o < 4; ++o)
    EXPECT_DOUBLE_EQ(rig.filesystem.ost(o).bytes_submitted(), 2e6);
  EXPECT_EQ(r.writer_times.size(), 8u);
  for (const auto& w : r.writer_times) EXPECT_GT(w.duration(), 0.0);
}

TEST(PosixTransport, HonoursOstSubset) {
  Rig rig(8);
  PosixTransport::Config c;
  c.osts_to_use = 2;
  PosixTransport t(rig.filesystem, c);
  rig.run(t, IoJob::uniform(4, 1e6));
  EXPECT_DOUBLE_EQ(rig.filesystem.ost(0).bytes_submitted(), 2e6);
  EXPECT_DOUBLE_EQ(rig.filesystem.ost(1).bytes_submitted(), 2e6);
  EXPECT_DOUBLE_EQ(rig.filesystem.ost(2).bytes_submitted(), 0.0);
}

TEST(PosixTransport, CachedWritesFasterThanDurable) {
  const IoJob job = IoJob::uniform(4, 10e6);
  Rig cached_rig(4);
  PosixTransport cached(cached_rig.filesystem, {});
  const double t_cached = cached_rig.run(cached, job).io_seconds();

  Rig durable_rig(4);
  PosixTransport::Config dc;
  dc.mode = fs::Ost::Mode::Durable;
  PosixTransport durable(durable_rig.filesystem, dc);
  const double t_durable = durable_rig.run(durable, job).io_seconds();
  EXPECT_LT(t_cached, t_durable);
  EXPECT_NEAR(t_durable, 1.0, 0.05);  // 10 MB at 10 MB/s drain
}

TEST(PosixTransport, CompletesAtLastWriteNotAtDrain) {
  Rig rig(4);
  PosixTransport t(rig.filesystem, {});
  const IoResult r = rig.run(t, IoJob::uniform(4, 10e6));
  double last_write = 0.0;
  for (const auto& w : r.writer_times) last_write = std::max(last_write, w.end);
  EXPECT_EQ(r.t_data_done, last_write);
  EXPECT_EQ(r.t_complete, r.t_data_done);
  // 10 MB cached at 100 MB/s ~ 0.1 s.  The run reports then, with ~9 MB per
  // target still in cache for the 10 MB/s disks to drain.
  EXPECT_NEAR(r.io_seconds(), 0.1, 0.01);
  for (std::size_t o = 0; o < 4; ++o)
    EXPECT_NEAR(rig.filesystem.ost(o).cache_occupancy(), 9e6, 0.1e6) << "ost " << o;
}

TEST(PosixTransport, ImbalanceReflectsSlowOst) {
  Rig rig(4);
  rig.filesystem.ost(2).set_load(0.0, 0.75);  // one slow target
  PosixTransport::Config c;
  c.mode = fs::Ost::Mode::Durable;
  PosixTransport t(rig.filesystem, c);
  const IoResult r = rig.run(t, IoJob::uniform(4, 10e6));
  EXPECT_NEAR(r.imbalance_factor(), 4.0, 0.2);  // 4x slower disk
  EXPECT_NEAR(r.slowest_writer(), 4.0, 0.2);
}

// --- MPI-IO ------------------------------------------------------------------

TEST(MpiioTransport, SharedFileUsesAtMostStripeLimit) {
  Rig rig(8);  // stripe_limit = 4
  MpiioTransport t(rig.filesystem, {});
  const IoResult r = rig.run(t, IoJob::uniform(8, 4e6));
  EXPECT_DOUBLE_EQ(r.total_bytes, 32e6);
  double used = 0.0;
  for (std::size_t o = 0; o < 4; ++o) used += rig.filesystem.ost(o).bytes_submitted();
  EXPECT_DOUBLE_EQ(used, 32e6);
  for (std::size_t o = 4; o < 8; ++o)
    EXPECT_DOUBLE_EQ(rig.filesystem.ost(o).bytes_submitted(), 0.0);
}

TEST(MpiioTransport, FlushGatesCompletion) {
  Rig rig(8);
  MpiioTransport t(rig.filesystem, {});
  const IoResult r = rig.run(t, IoJob::uniform(4, 10e6));
  // 40 MB over 4 OSTs at 10 MB/s drain each -> ~1 s after ingest.
  EXPECT_GT(r.io_seconds(), 0.9);
  EXPECT_GT(r.t_complete, r.t_data_done);
  EXPECT_EQ(rig.filesystem.mds().completed_ops(), 1u);  // the close
}

TEST(MpiioTransport, ConservesBytesAcrossUnevenJob) {
  Rig rig(8);
  MpiioTransport t(rig.filesystem, {});
  IoJob job;
  job.bytes_per_writer = {1e6, 5e6, 3e6, 7e6, 2e6};
  const IoResult r = rig.run(t, job);
  EXPECT_DOUBLE_EQ(r.total_bytes, 18e6);
  EXPECT_NEAR(rig.filesystem.total_bytes_submitted(), 18e6, 1.0);
}

// --- Adaptive ------------------------------------------------------------------

AdaptiveTransport::Config adaptive_cfg(std::size_t n_files = 0) {
  AdaptiveTransport::Config c;
  c.n_files = n_files;
  return c;
}

TEST(AdaptiveTransport, CompletesAndConservesBytes) {
  Rig rig(8);
  AdaptiveTransport t(rig.filesystem, rig.network, adaptive_cfg());
  const IoResult r = rig.run(t, IoJob::uniform(16, 2e6));
  EXPECT_DOUBLE_EQ(r.total_bytes, 32e6);
  // Data + per-file indices + global index all land on the OSTs.
  EXPECT_GE(rig.filesystem.total_bytes_submitted(), 32e6);
  EXPECT_EQ(r.total_blocks_indexed, 16u);
  EXPECT_EQ(r.writer_times.size(), 16u);
  for (const auto& w : r.writer_times) EXPECT_GT(w.end, 0.0);
  // 8 data files + master index closed through the MDS.
  EXPECT_EQ(rig.filesystem.mds().completed_ops(), 9u);
}

TEST(AdaptiveTransport, SerializesWritersPerTarget) {
  Rig rig(2);
  AdaptiveTransport t(rig.filesystem, rig.network, adaptive_cfg(2));
  const IoResult r = rig.run(t, IoJob::uniform(8, 5e6));
  // 4 writers per file, one at a time, durable at 10 MB/s:
  // each write 0.5 s, total ~2 s (plus protocol overhead).
  EXPECT_GT(r.io_seconds(), 1.9);
  EXPECT_LT(r.io_seconds(), 2.6);
  // Writer windows on the same file must not overlap (serialization).
  EXPECT_DOUBLE_EQ(r.total_bytes, 40e6);
}

TEST(AdaptiveTransport, StealsFromSlowTarget) {
  Rig rig(4);
  rig.filesystem.ost(1).set_load(0.0, 0.9);  // file 1's target is 10x slower
  AdaptiveTransport t(rig.filesystem, rig.network, adaptive_cfg(4));
  const IoResult r = rig.run(t, IoJob::uniform(16, 5e6));
  EXPECT_GT(r.steals, 0u);
  EXPECT_EQ(r.total_blocks_indexed, 16u);
}

TEST(AdaptiveTransport, StealingImprovesSlowTargetTime) {
  const IoJob job = IoJob::uniform(16, 5e6);
  auto run_with = [&](bool stealing) {
    Rig rig(4);
    rig.filesystem.ost(1).set_load(0.0, 0.9);
    AdaptiveTransport::Config c = adaptive_cfg(4);
    c.stealing = stealing;
    AdaptiveTransport t(rig.filesystem, rig.network, c);
    return rig.run(t, job).io_seconds();
  };
  const double with = run_with(true);
  const double without = run_with(false);
  EXPECT_LT(with, 0.7 * without);
}

// --- client-side open batching and the metadata tier -------------------------

// A batch of one is not "approximately" the per-file path — it reproduces the
// legacy submission sequence request for request, so every simulated
// timestamp (open phase, writer windows, completion) matches exactly.
TEST(AdaptiveTransport, TierWithBatchingShortensTheOpenPhase) {
  const IoJob job = IoJob::uniform(32, 1e6);
  auto open_phase = [&](std::size_t n_mds, std::size_t open_batch) {
    fs::FsConfig fc = test_fs(16);
    fc.n_mds = n_mds;
    fc.mds.queue_penalty = 0.05;  // make the open storm hurt
    Rig rig(fc);
    AdaptiveTransport::Config c = adaptive_cfg(16);
    c.open_mode = AdaptiveTransport::Config::OpenMode::Storm;
    c.open_batch = open_batch;
    AdaptiveTransport t(rig.filesystem, rig.network, c);
    const IoResult r = rig.run(t, job);
    EXPECT_DOUBLE_EQ(r.total_bytes, 32e6);
    // The tier splits the namespace: with several servers, more than one
    // must have seen requests (17 files hash across the servers).
    if (n_mds > 1) {
      std::size_t used = 0;
      for (std::size_t m = 0; m < rig.filesystem.mds_group().count(); ++m)
        used += rig.filesystem.mds_group().server(m).completed_ops() > 0 ? 1 : 0;
      EXPECT_GT(used, 1u);
    }
    return r.t_open_done - r.t_begin;
  };
  const double seed_path = open_phase(1, 0);
  const double tiered = open_phase(4, 8);
  EXPECT_LT(tiered, seed_path);
}

TEST(AdaptiveTransport, ConcurrencyTwoKeepsTwoInFlight) {
  Rig rig(2);
  AdaptiveTransport::Config c = adaptive_cfg(2);
  c.max_concurrent = 2;
  AdaptiveTransport t(rig.filesystem, rig.network, c);
  const IoResult r = rig.run(t, IoJob::uniform(8, 5e6));
  EXPECT_DOUBLE_EQ(r.total_bytes, 40e6);
  EXPECT_EQ(r.total_blocks_indexed, 8u);
}

TEST(AdaptiveTransport, OpenStormAndStaggerGoThroughMds) {
  const IoJob job = IoJob::uniform(8, 1e6);
  auto open_count = [&](AdaptiveTransport::Config::OpenMode mode) {
    Rig rig(8);
    AdaptiveTransport::Config c = adaptive_cfg(8);
    c.open_mode = mode;
    AdaptiveTransport t(rig.filesystem, rig.network, c);
    const IoResult r = rig.run(t, job);
    EXPECT_GT(r.t_open_done, r.t_begin);
    return rig.filesystem.mds().completed_ops();
  };
  // 9 opens + 9 closes in both modes.
  EXPECT_EQ(open_count(AdaptiveTransport::Config::OpenMode::Storm), 18u);
  EXPECT_EQ(open_count(AdaptiveTransport::Config::OpenMode::Staggered), 18u);
}

TEST(AdaptiveTransport, MoreRanksThanNetworkThrows) {
  Rig rig(4, /*ranks=*/8);
  AdaptiveTransport t(rig.filesystem, rig.network, adaptive_cfg());
  EXPECT_THROW(rig.run(t, IoJob::uniform(9, 1e6)), std::invalid_argument);
}

TEST(AdaptiveTransport, UnevenPayloadsIndexEveryBlock) {
  Rig rig(4);
  AdaptiveTransport t(rig.filesystem, rig.network, adaptive_cfg(4));
  IoJob job;
  for (int i = 0; i < 13; ++i) job.bytes_per_writer.push_back(1e6 * (1 + i % 4));
  const IoResult r = rig.run(t, job);
  EXPECT_EQ(r.total_blocks_indexed, 13u);
  EXPECT_DOUBLE_EQ(r.total_bytes, job.total_bytes());
}

// The run times its index transfers and writes from the job's declared
// sizes, and a kept index is built from the blueprints and checked against
// what the writers streamed: a declaration that understates its blueprint
// runs to completion, but its kept index cannot be built.
TEST(AdaptiveTransport, DeclaredSizeThatDisagreesWithTheBlueprintFailsTheBuild) {
  Rig rig(4);
  AdaptiveTransport t(rig.filesystem, rig.network, adaptive_cfg(4));
  IoJob job = IoJob::uniform(13, 1e6);
  const core::IndexSize truth = job.index_size_for(0);  // the default one-block index
  job.index_size = [truth](core::Rank) {
    return core::IndexSize{truth.bytes - 8, truth.blocks};
  };
  const IoResult r = rig.run(t, job);
  EXPECT_EQ(r.total_blocks_indexed, 13u);
  ASSERT_NE(r.kept_index, nullptr);
  EXPECT_THROW((void)r.kept_index->build(), std::logic_error);
}

// Property sweep: adaptive transport terminates and indexes every block for
// assorted writer/file combinations.
struct TransportSweep {
  std::size_t writers;
  std::size_t files;
};

class AdaptiveSweep : public ::testing::TestWithParam<TransportSweep> {};

TEST_P(AdaptiveSweep, TerminatesAndIndexesAllBlocks) {
  const auto p = GetParam();
  Rig rig(8, /*ranks=*/256);
  AdaptiveTransport t(rig.filesystem, rig.network, adaptive_cfg(p.files));
  const IoResult r = rig.run(t, IoJob::uniform(p.writers, 1e6));
  EXPECT_EQ(r.total_blocks_indexed, p.writers);
  EXPECT_DOUBLE_EQ(r.total_bytes, 1e6 * static_cast<double>(p.writers));
}

INSTANTIATE_TEST_SUITE_P(Shapes, AdaptiveSweep,
                         ::testing::Values(TransportSweep{1, 1}, TransportSweep{2, 1},
                                           TransportSweep{2, 2}, TransportSweep{5, 3},
                                           TransportSweep{8, 8}, TransportSweep{16, 4},
                                           TransportSweep{64, 8}, TransportSweep{128, 8},
                                           TransportSweep{37, 5}));

// --- all three ---------------------------------------------------------------

// A NaN or infinite payload passes a `bytes <= 0` guard; left unchecked it
// drained the run without calling on_done and without an error.
TEST(Transports, NonFinitePayloadThrows) {
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(IoJob::uniform(4, bad), std::invalid_argument) << bad;
    for (int kind = 0; kind < 3; ++kind) {
      Rig rig(4);
      std::unique_ptr<core::Transport> t;
      if (kind == 0)
        t = std::make_unique<AdaptiveTransport>(rig.filesystem, rig.network, adaptive_cfg(2));
      else if (kind == 1)
        t = std::make_unique<MpiioTransport>(rig.filesystem, MpiioTransport::Config{});
      else
        t = std::make_unique<PosixTransport>(rig.filesystem, PosixTransport::Config{});
      IoJob job = IoJob::uniform(4, 1e6);
      job.bytes_per_writer[1] = bad;
      bool done = false;
      EXPECT_THROW(
          {
            t->run(job, [&done](IoResult) { done = true; });
            rig.engine.run();
          },
          std::invalid_argument)
          << t->name() << " with " << bad;
      EXPECT_FALSE(done) << t->name() << " with " << bad;
    }
  }
}

}  // namespace
