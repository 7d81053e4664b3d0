// Tests for the IOR, Pixie3D and XGC1 workload kernels.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "fs/filesystem.hpp"
#include "sim/engine.hpp"
#include "workload/ior.hpp"
#include "workload/pixie3d.hpp"
#include "workload/s3d.hpp"
#include "workload/xgc1.hpp"

namespace {

using namespace aio;
using workload::IorConfig;
using workload::Pixie3dConfig;
using workload::Xgc1Config;

fs::FsConfig small_fs() {
  fs::FsConfig c;
  c.n_osts = 8;
  c.fabric_bw = 0.0;
  c.ost.ingest_bw = 100e6;
  c.ost.disk_bw = 50e6;
  c.ost.cache_bytes = 100e6;
  c.ost.alpha = 0.0;
  c.ost.eff_floor = 0.0;
  return c;
}

TEST(Ior, SingleSampleReportsBandwidthAndImbalance) {
  sim::Engine engine;
  fs::FileSystem filesystem(engine, small_fs());
  IorConfig cfg;
  cfg.writers = 8;
  cfg.bytes_per_writer = 1e6;
  cfg.osts_to_use = 8;
  const auto sample = workload::run_ior_once(filesystem, cfg);
  EXPECT_GT(sample.aggregate_bw, 0.0);
  EXPECT_GT(sample.per_writer_bw, 0.0);
  EXPECT_GE(sample.imbalance, 1.0);
  EXPECT_EQ(sample.writer_seconds.size(), 8u);
}

TEST(Ior, SeriesCollectsConfiguredSamples) {
  sim::Engine engine;
  fs::FileSystem filesystem(engine, small_fs());
  IorConfig cfg;
  cfg.writers = 8;
  cfg.bytes_per_writer = 1e6;
  cfg.osts_to_use = 8;
  cfg.samples = 5;
  cfg.gap_seconds = 1.0;
  const auto series = workload::run_ior(filesystem, cfg);
  EXPECT_EQ(series.samples.size(), 5u);
  EXPECT_EQ(series.aggregate_summary().count(), 5u);
  EXPECT_GT(series.aggregate_summary().mean(), 0.0);
  EXPECT_GE(series.mean_imbalance(), 1.0);
  // Samples are spaced: engine time advanced by at least the gaps.
  EXPECT_GE(engine.now(), 5.0);
}

TEST(Ior, BackToBackSamplesSlowerThanColdCache) {
  // With write volume above the cache, steady-state samples are drain-bound
  // while the first sample is absorbed at network speed.
  sim::Engine engine;
  fs::FsConfig cfg_fs = small_fs();
  cfg_fs.ost.cache_bytes = 30e6;
  fs::FileSystem filesystem(engine, cfg_fs);
  IorConfig cfg;
  cfg.writers = 8;
  cfg.bytes_per_writer = 25e6;  // 25 MB per OST per sample vs 30 MB cache
  cfg.osts_to_use = 8;
  cfg.samples = 4;
  cfg.gap_seconds = 0.05;
  const auto series = workload::run_ior(filesystem, cfg);
  EXPECT_GT(series.samples.front().aggregate_bw, 1.2 * series.samples.back().aggregate_bw);
}

TEST(Pixie3d, ModelSizesMatchPaper) {
  EXPECT_DOUBLE_EQ(Pixie3dConfig::small_model().bytes_per_process(), 2.0 * (1 << 20));
  EXPECT_DOUBLE_EQ(Pixie3dConfig::large_model().bytes_per_process(), 128.0 * (1 << 20));
  EXPECT_DOUBLE_EQ(Pixie3dConfig::xl_model().bytes_per_process(), 1024.0 * (1 << 20));
}

TEST(Pixie3d, ProcessGridFactorsExactly) {
  for (const std::size_t n : {1u, 2u, 8u, 12u, 64u, 512u, 1000u, 16384u}) {
    const auto g = workload::process_grid(n);
    EXPECT_EQ(g[0] * g[1] * g[2], n) << n;
    EXPECT_GE(g[0], g[1]);
    EXPECT_GE(g[1], g[2]);
  }
  EXPECT_EQ(workload::process_grid(64), (std::array<std::size_t, 3>{4, 4, 4}));
}

TEST(Pixie3d, JobCarriesEightVariables) {
  const auto job = workload::pixie3d_job(Pixie3dConfig::small_model(), 8);
  EXPECT_EQ(job.n_writers(), 8u);
  EXPECT_DOUBLE_EQ(job.bytes_per_writer[0], 2.0 * (1 << 20));
  const auto bp = job.blueprint(3);
  ASSERT_EQ(bp.blocks.size(), 8u);
  double sum = 0.0;
  for (const auto& b : bp.blocks) {
    sum += static_cast<double>(b.length);
    ASSERT_EQ(b.counts.size(), 3u);
    EXPECT_EQ(b.counts[0], 32u);
  }
  EXPECT_DOUBLE_EQ(sum, job.bytes_per_writer[3]);
}

TEST(Pixie3d, BlocksTileTheGlobalDomain) {
  const std::size_t n = 8;
  const auto job = workload::pixie3d_job(Pixie3dConfig::small_model(), n);
  const auto grid = workload::process_grid(n);
  std::set<std::array<std::uint64_t, 3>> corners;
  for (core::Rank r = 0; r < static_cast<core::Rank>(n); ++r) {
    const auto bp = job.blueprint(r);
    const auto& b = bp.blocks[0];
    EXPECT_EQ(b.global_dims[0], grid[0] * 32);
    corners.insert({b.offsets[0], b.offsets[1], b.offsets[2]});
  }
  EXPECT_EQ(corners.size(), n);  // each rank owns a distinct corner
}

TEST(Pixie3d, VarNames) {
  EXPECT_STREQ(workload::pixie3d_var_name(0), "rho");
  EXPECT_STREQ(workload::pixie3d_var_name(7), "temp");
  EXPECT_STREQ(workload::pixie3d_var_name(99), "?");
}

TEST(Pixie3d, JobCarriesInternedVarTable) {
  const auto job = workload::pixie3d_job(Pixie3dConfig::small_model(), 8);
  ASSERT_NE(job.var_names, nullptr);
  ASSERT_EQ(job.var_names->size(), 8u);
  for (std::uint32_t v = 0; v < 8; ++v)
    EXPECT_EQ(job.var_names->name(v), workload::pixie3d_var_name(v));
}

TEST(Xgc1, JobMatchesConfiguredSize) {
  const Xgc1Config cfg;
  const auto job = workload::xgc1_job(cfg, 16);
  EXPECT_EQ(job.n_writers(), 16u);
  EXPECT_NEAR(job.bytes_per_writer[0], 38.0 * (1 << 20), 64.0);
  const auto bp = job.blueprint(5);
  ASSERT_EQ(bp.blocks.size(), 2u);
  EXPECT_NEAR(static_cast<double>(bp.blocks[0].length + bp.blocks[1].length),
              job.bytes_per_writer[5], 1e-6);
  // Particle blocks partition the global particle space.
  const auto bp6 = job.blueprint(6);
  EXPECT_EQ(bp6.blocks[0].offsets[0], bp.blocks[0].offsets[0] + bp.blocks[0].counts[0]);
}

TEST(S3d, ConfiguredSizesMatchPaperComparisons) {
  // "38 MB per process ... about the size of smaller S3D runs."
  EXPECT_NEAR(workload::S3dConfig::small_run().bytes_per_process(), 38.0 * (1 << 20),
              3.0 * (1 << 20));
  EXPECT_GT(workload::S3dConfig::production_run().bytes_per_process(), 150.0 * (1 << 20));
  EXPECT_EQ(workload::S3dConfig{}.n_fields(), 28u);  // 6 primitives + 22 species
}

TEST(S3d, JobCarriesOneBlockPerField) {
  const auto cfg = workload::S3dConfig::small_run();
  const auto job = workload::s3d_job(cfg, 8);
  EXPECT_EQ(job.n_writers(), 8u);
  const auto bp = job.blueprint(5);
  ASSERT_EQ(bp.blocks.size(), cfg.n_fields());
  double total = 0.0;
  for (const auto& b : bp.blocks) {
    total += static_cast<double>(b.length);
    ASSERT_EQ(b.counts.size(), 3u);
    EXPECT_EQ(b.counts[0], cfg.cube);
  }
  EXPECT_DOUBLE_EQ(total, job.bytes_per_writer[5]);
  // Species fractions carry [0,1] characteristics; primitives wider ranges.
  EXPECT_DOUBLE_EQ(bp.blocks[10].ch.min, 0.0);
  EXPECT_DOUBLE_EQ(bp.blocks[10].ch.max, 1.0);
  EXPECT_LT(bp.blocks[0].ch.min, -1.0);
}

TEST(S3d, InvalidConfigThrows) {
  EXPECT_THROW(workload::s3d_job(workload::S3dConfig{}, 0), std::invalid_argument);
  workload::S3dConfig bad;
  bad.cube = 0;
  EXPECT_THROW(workload::s3d_job(bad, 4), std::invalid_argument);
}

TEST(Xgc1, InvalidConfigThrows) {
  EXPECT_THROW(workload::xgc1_job(Xgc1Config{}, 0), std::invalid_argument);
  Xgc1Config bad;
  bad.bytes_per_process = -1.0;
  EXPECT_THROW(workload::xgc1_job(bad, 4), std::invalid_argument);
}

/// Expects `job` to declare, at `rank`, the size its blueprint measures.
void expect_declared_size_is_measured(const core::IoJob& job, core::Rank rank,
                                      const std::string& where) {
  const core::IndexSize declared = job.index_size_for(rank);
  const core::IndexSize measured = core::IndexSize::of(job.blueprint_for(rank));
  EXPECT_EQ(declared.bytes, measured.bytes) << where;
  EXPECT_EQ(declared.blocks, measured.blocks) << where;
}

// Every workload states each rank's index size without building its index;
// the statement must be what its blueprint measures, at every scale up to
// the full machine and at the first, second, middle and last ranks.
TEST(Workloads, DeclaredIndexSizesMatchBlueprints) {
  using Make = std::function<core::IoJob(std::size_t)>;
  const std::vector<std::pair<std::string, Make>> jobs = {
      {"Pixie3D small",
       [](std::size_t n) { return workload::pixie3d_job(Pixie3dConfig::small_model(), n); }},
      {"Pixie3D large",
       [](std::size_t n) { return workload::pixie3d_job(Pixie3dConfig::large_model(), n); }},
      {"Pixie3D xl",
       [](std::size_t n) { return workload::pixie3d_job(Pixie3dConfig::xl_model(), n); }},
      {"S3D", [](std::size_t n) { return workload::s3d_job(workload::S3dConfig{}, n); }},
      {"XGC1", [](std::size_t n) { return workload::xgc1_job(Xgc1Config{}, n); }},
  };
  for (const auto& [name, make] : jobs) {
    for (const std::size_t n : {1u, 7u, 1000u, 16384u, 224160u}) {
      const core::IoJob job = make(n);
      ASSERT_TRUE(job.index_size) << name << " declares no index size";
      for (const std::size_t r : {std::size_t{0}, std::size_t{1}, n / 2, n - 1}) {
        if (r >= n) continue;
        expect_declared_size_is_measured(
            job, static_cast<core::Rank>(r),
            name + " at " + std::to_string(n) + " processes, rank " + std::to_string(r));
      }
    }
  }
}

}  // namespace
