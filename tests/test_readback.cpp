// Tests for the read path: OST reads, striped-file reads, and restart-style
// read-back through the global index.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/transports/adaptive_transport.hpp"
#include "core/transports/readback.hpp"
#include "fs/filesystem.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"

namespace {

using namespace aio;
using core::ReadbackConfig;
using core::ReadbackEngine;
using core::ReadbackResult;

fs::FsConfig test_fs(std::size_t n_osts = 8) {
  fs::FsConfig c;
  c.n_osts = n_osts;
  c.fabric_bw = 0.0;
  c.stripe_limit = 4;
  c.default_stripe_size = 1e6;
  c.ost.ingest_bw = 100e6;
  c.ost.disk_bw = 10e6;
  c.ost.cache_bytes = 1e9;
  c.ost.alpha = 0.0;
  c.ost.eff_floor = 0.0;
  return c;
}

TEST(OstRead, SingleReadRunsAtDiskRate) {
  sim::Engine e;
  fs::Ost ost(e, test_fs().ost);
  sim::Time done = -1;
  ost.read(10e6, [&](sim::Time t) { done = t; });
  e.run();
  EXPECT_NEAR(done, 1.0, 1e-3);
  EXPECT_DOUBLE_EQ(ost.bytes_read_requested(), 10e6);
  EXPECT_DOUBLE_EQ(ost.bytes_submitted(), 0.0);  // reads are not writes
}

TEST(OstRead, ReadSharesDiskWithDurableWrite) {
  sim::Engine e;
  fs::Ost ost(e, test_fs().ost);
  sim::Time read_done = -1, write_done = -1;
  ost.read(5e6, [&](sim::Time t) { read_done = t; });
  ost.write(5e6, fs::Ost::Mode::Durable, [&](sim::Time t) { write_done = t; });
  e.run();
  // Two streams on a 10 MB/s disk, 5 MB each -> both near t = 1.
  EXPECT_NEAR(read_done, 1.0, 0.1);
  EXPECT_NEAR(write_done, 1.0, 0.1);
}

TEST(OstRead, ReadsDoNotOccupyWriteCache) {
  sim::Engine e;
  fs::Ost::Config c = test_fs().ost;
  c.cache_bytes = 1e6;  // tiny cache
  fs::Ost ost(e, c);
  ost.read(50e6, [](sim::Time) {});
  e.run_until(0.5);
  EXPECT_NEAR(ost.cache_occupancy(), 0.0, 1.0);
  // A cached write is still absorbed at ingest speed despite the huge read.
  sim::Time w_done = -1;
  ost.write(0.5e6, fs::Ost::Mode::Cached, [&](sim::Time t) { w_done = t; });
  e.run();
  EXPECT_LT(w_done, 0.6);
}

TEST(OstRead, InvalidReadThrows) {
  sim::Engine e;
  fs::Ost ost(e, test_fs().ost);
  EXPECT_THROW(ost.read(0.0, nullptr), std::invalid_argument);
  EXPECT_THROW(ost.read(-1.0, nullptr), std::invalid_argument);
}

TEST(StripedFileRead, WalksStripesSequentially) {
  sim::Engine e;
  fs::FileSystem filesystem(e, test_fs());
  fs::StripedFile& f = filesystem.open_immediate("a", 2, 0, /*stripe_size=*/1e6);
  sim::Time done = -1;
  f.read(0.0, 2e6, [&](sim::Time t) { done = t; });
  e.run();
  // Two sequential 1 MB segments at 10 MB/s each.
  EXPECT_NEAR(done, 0.2, 1e-3);
  EXPECT_DOUBLE_EQ(filesystem.ost(0).bytes_read_requested(), 1e6);
  EXPECT_DOUBLE_EQ(filesystem.ost(1).bytes_read_requested(), 1e6);
}

TEST(StripedFileRead, InvalidArgumentsThrow) {
  sim::Engine e;
  fs::FileSystem filesystem(e, test_fs());
  fs::StripedFile& f = filesystem.open_immediate("a", 1, 0);
  EXPECT_THROW(f.read(0.0, 0.0, nullptr), std::invalid_argument);
  EXPECT_THROW(f.read(-1.0, 10.0, nullptr), std::invalid_argument);
}

struct WriteThenRead {
  sim::Engine engine;
  fs::FileSystem filesystem;
  net::Network network;
  core::IoResult write_result;
  std::shared_ptr<const core::GlobalIndex> index;  ///< write_result's, built

  WriteThenRead() : filesystem(engine, test_fs()), network(engine, {1e-6, 10e9, 8}, 64) {
    core::AdaptiveTransport::Config cfg;
    cfg.n_files = 4;
    core::AdaptiveTransport t(filesystem, network, cfg);
    std::optional<core::IoResult> result;
    t.run(core::IoJob::uniform(16, 2e6), [&](core::IoResult r) { result = std::move(r); });
    engine.run();
    write_result = std::move(*result);
    index = std::make_shared<const core::GlobalIndex>(write_result.kept_index->build());
  }

  ReadbackResult read(ReadbackConfig::Lookup lookup) {
    ReadbackConfig cfg;
    cfg.lookup = lookup;
    ReadbackEngine reader(filesystem, cfg);
    std::optional<ReadbackResult> result;
    reader.run(index, write_result.output_files,
               write_result.master_file, [&](ReadbackResult r) { result = r; });
    engine.run();
    return *result;
  }
};

TEST(Readback, GlobalIndexReadsEveryBlockBack) {
  WriteThenRead rig;
  ASSERT_TRUE(rig.write_result.kept_index);
  const ReadbackResult r = rig.read(ReadbackConfig::Lookup::GlobalIndex);
  EXPECT_EQ(r.blocks_read, 16u);
  EXPECT_DOUBLE_EQ(r.total_bytes, 32e6);
  EXPECT_EQ(r.mds_ops, 1u);  // single lookup
  EXPECT_GT(r.read_seconds(), 0.0);
  EXPECT_GT(r.bandwidth(), 0.0);
}

TEST(Readback, PerFileSearchCostsOneProbePerFile) {
  WriteThenRead rig;
  const ReadbackResult global = rig.read(ReadbackConfig::Lookup::GlobalIndex);
  const ReadbackResult search = rig.read(ReadbackConfig::Lookup::PerFileSearch);
  EXPECT_EQ(search.mds_ops, 4u);  // one per output file
  EXPECT_EQ(search.blocks_read, global.blocks_read);
  EXPECT_DOUBLE_EQ(search.total_bytes, global.total_bytes);
  EXPECT_GT(search.lookup_seconds(), global.lookup_seconds());
}

TEST(Readback, RejectsNullInputs) {
  WriteThenRead rig;
  ReadbackEngine reader(rig.filesystem, {});
  EXPECT_THROW(reader.run(nullptr, {}, rig.write_result.master_file, nullptr),
               std::invalid_argument);
  EXPECT_THROW(reader.run(rig.index, {}, nullptr, nullptr),
               std::invalid_argument);
}

TEST(Readback, RestartReadDoesNotSufferFromWriteOptimizedLayout) {
  // The PLFS claim the paper cites: restart-style read-back of the
  // many-files layout achieves comparable bandwidth to the write.
  WriteThenRead rig;
  const ReadbackResult r = rig.read(ReadbackConfig::Lookup::GlobalIndex);
  const double write_bw = rig.write_result.bandwidth();
  EXPECT_GT(r.bandwidth(), 0.5 * write_bw);
}

}  // namespace
