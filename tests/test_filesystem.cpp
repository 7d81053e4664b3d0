// Tests for the FileSystem facade and striped files.
#include "fs/filesystem.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "fs/machine.hpp"
#include "sim/engine.hpp"

namespace {

using aio::fs::FileSystem;
using aio::fs::FsConfig;
using aio::fs::Ost;
using aio::fs::StripedFile;
using aio::sim::Engine;
using aio::sim::Time;

FsConfig small_fs(std::size_t n_osts = 8) {
  FsConfig c;
  c.n_osts = n_osts;
  c.fabric_bw = 0.0;  // uncapped; fabric is tested separately
  c.stripe_limit = 4;
  c.default_stripe_size = 100.0;
  c.ost.ingest_bw = 100.0;
  c.ost.disk_bw = 10.0;
  c.ost.cache_bytes = 1e9;
  c.ost.alpha = 0.0;
  c.ost.eff_floor = 0.0;
  return c;
}

TEST(FileSystem, ConstructsConfiguredOstCount) {
  Engine e;
  FileSystem fs(e, small_fs(12));
  EXPECT_EQ(fs.n_osts(), 12u);
  EXPECT_EQ(fs.ost_pointers().size(), 12u);
  FsConfig zero = small_fs();
  zero.n_osts = 0;
  EXPECT_THROW(FileSystem(e, zero), std::invalid_argument);
}

TEST(FileSystem, SingleTargetFileWritesToItsOst) {
  Engine e;
  FileSystem fs(e, small_fs());
  StripedFile& f = fs.open_immediate("a", /*stripe_count=*/1, /*first_ost=*/3);
  Time done = -1;
  f.write(0.0, 100.0, Ost::Mode::Cached, [&](Time t) { done = t; });
  e.run();
  EXPECT_NEAR(done, 1.0, 1e-6);
  EXPECT_DOUBLE_EQ(fs.ost(3).bytes_submitted(), 100.0);
  for (std::size_t i = 0; i < fs.n_osts(); ++i) {
    if (i != 3) {
      EXPECT_DOUBLE_EQ(fs.ost(i).bytes_submitted(), 0.0);
    }
  }
}

TEST(FileSystem, StripeCountClampedToLimit) {
  Engine e;
  FileSystem fs(e, small_fs());  // stripe_limit = 4
  StripedFile& f = fs.open_immediate("a", /*stripe_count=*/100, 0);
  EXPECT_EQ(f.stripe_count(), 4u);
}

TEST(FileSystem, TargetOfFollowsRoundRobinStripes) {
  Engine e;
  FileSystem fs(e, small_fs());
  StripedFile& f = fs.open_immediate("a", 4, /*first_ost=*/2, /*stripe_size=*/100.0);
  EXPECT_EQ(f.target_of(0.0), 2u);
  EXPECT_EQ(f.target_of(99.0), 2u);
  EXPECT_EQ(f.target_of(100.0), 3u);
  EXPECT_EQ(f.target_of(350.0), 5u);
  EXPECT_EQ(f.target_of(400.0), 2u);  // wraps around the stripe set
}

TEST(FileSystem, FirstOstWrapsModuloOstCount) {
  Engine e;
  FileSystem fs(e, small_fs(8));
  StripedFile& f = fs.open_immediate("a", 3, /*first_ost=*/7);
  EXPECT_EQ(f.targets(), (std::vector<std::size_t>{7, 0, 1}));
}

TEST(FileSystem, MultiStripeWriteSpreadsBytesAcrossTargets) {
  Engine e;
  FileSystem fs(e, small_fs());
  StripedFile& f = fs.open_immediate("a", 4, 0, /*stripe_size=*/100.0);
  Time done = -1;
  f.write(0.0, 400.0, Ost::Mode::Cached, [&](Time t) { done = t; });
  e.run();
  EXPECT_GT(done, 0.0);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_DOUBLE_EQ(fs.ost(i).bytes_submitted(), 100.0) << "ost " << i;
  EXPECT_NEAR(fs.total_bytes_submitted(), 400.0, 1e-9);
}

TEST(FileSystem, ChainedSegmentsAreSequential) {
  // A 2-stripe write on a 2-target file: segment 2 starts only after
  // segment 1 completes, so the total is the sum of both (no overlap).
  Engine e;
  FileSystem fs(e, small_fs());
  StripedFile& f = fs.open_immediate("a", 2, 0, /*stripe_size=*/100.0);
  Time done = -1;
  f.write(0.0, 200.0, Ost::Mode::Cached, [&](Time t) { done = t; });
  e.run();
  EXPECT_NEAR(done, 2.0, 1e-6);  // 1 s per 100 B segment, sequential
}

TEST(FileSystem, MaxSegmentsBoundsChainLength) {
  Engine e;
  FsConfig cfg = small_fs();
  cfg.stripe_limit = 8;
  FileSystem fs(e, cfg);
  StripedFile& f = fs.open_immediate("a", 8, 0, /*stripe_size=*/10.0);
  Time done = -1;
  // 800 B over 80 stripes with max_segments=4 -> 4 chained segments of 200 B.
  f.write(0.0, 800.0, Ost::Mode::Cached, [&](Time t) { done = t; }, /*max_segments=*/4);
  e.run();
  EXPECT_NEAR(done, 8.0, 1e-6);
  EXPECT_NEAR(fs.total_bytes_submitted(), 800.0, 1e-6);
}

TEST(FileSystem, WriteAtOffsetLandsOnCorrectTarget) {
  Engine e;
  FileSystem fs(e, small_fs());
  StripedFile& f = fs.open_immediate("a", 4, 0, /*stripe_size=*/100.0);
  Time done = -1;
  f.write(250.0, 50.0, Ost::Mode::Cached, [&](Time t) { done = t; });
  e.run();
  EXPECT_GT(done, 0.0);
  EXPECT_DOUBLE_EQ(fs.ost(2).bytes_submitted(), 50.0);
}

TEST(FileSystem, FlushCoversAllStripeTargets) {
  Engine e;
  FileSystem fs(e, small_fs());
  StripedFile& f = fs.open_immediate("a", 2, 0, /*stripe_size=*/100.0);
  Time write_done = -1, flush_done = -1;
  f.write(0.0, 200.0, Ost::Mode::Cached, [&](Time t) {
    write_done = t;
    f.flush([&](Time t2) { flush_done = t2; });
  });
  e.run();
  EXPECT_NEAR(write_done, 2.0, 1e-6);
  // OST 1's segment arrives during t in [1,2] while draining at 10 B/s from
  // arrival: 90 B left at t=2, drained by t=11.  OST 0 finishes at t=10.
  EXPECT_NEAR(flush_done, 11.0, 0.2);
}

TEST(FileSystem, CloseGoesThroughMetadataServer) {
  Engine e;
  FileSystem fs(e, small_fs());
  StripedFile& f = fs.open_immediate("x", 1, 0);
  Time closed_at = -1;
  fs.close(f, [&](Time t) { closed_at = t; });
  e.run();
  EXPECT_GT(closed_at, 0.0);
  EXPECT_EQ(fs.mds().completed_ops(), 1u);
}

TEST(FileSystem, InvalidWritesThrow) {
  Engine e;
  FileSystem fs(e, small_fs());
  StripedFile& f = fs.open_immediate("a", 1, 0);
  EXPECT_THROW(f.write(0.0, 0.0, Ost::Mode::Cached, nullptr), std::invalid_argument);
  EXPECT_THROW(f.write(-1.0, 10.0, Ost::Mode::Cached, nullptr), std::invalid_argument);
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(f.write(0.0, bad, Ost::Mode::Cached, nullptr), std::invalid_argument);
    EXPECT_THROW(f.read(0.0, bad, nullptr), std::invalid_argument);
  }
}

TEST(FileSystem, MachinePresetsConstruct) {
  for (const auto& spec : {aio::fs::jaguar(), aio::fs::franklin(), aio::fs::xtp()}) {
    Engine e;
    FileSystem fs(e, spec.fs);
    EXPECT_EQ(fs.n_osts(), spec.fs.n_osts);
    EXPECT_GT(spec.total_cores(), 0u);
  }
  EXPECT_EQ(aio::fs::jaguar().fs.n_osts, 672u);
  EXPECT_EQ(aio::fs::jaguar().fs.stripe_limit, 160u);
  EXPECT_EQ(aio::fs::franklin().fs.n_osts, 96u);
  EXPECT_EQ(aio::fs::xtp().fs.n_osts, 40u);
}

}  // namespace
