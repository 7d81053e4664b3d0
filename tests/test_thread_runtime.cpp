// End-to-end tests of the protocol on real threads and real files.
#include "runtime/thread_runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace aio;
using core::IoJob;
using runtime::run_threaded;
using runtime::ThreadRunConfig;
using runtime::ThreadRunResult;

class ThreadRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("aio-test-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

void verify_round_trip(const ThreadRunResult& result, std::size_t expected_blocks) {
  // Every data file's embedded index parses and its blocks hold the writer's
  // pattern bytes at the recorded offsets.
  std::size_t blocks = 0;
  for (const auto& file : result.data_files) {
    const core::FileIndex idx = runtime::read_file_index(file);
    blocks += runtime::verify_blocks(file, idx);
  }
  EXPECT_EQ(blocks, expected_blocks);

  // The master file's global index matches the in-memory one.
  const core::GlobalIndex master = runtime::read_global_index(result.master_file);
  EXPECT_EQ(master.n_files(), result.global_index.n_files());
  EXPECT_EQ(master.total_blocks(), result.global_index.total_blocks());
  EXPECT_EQ(master.total_blocks(), expected_blocks);
}

TEST_F(ThreadRuntimeTest, SingleWriterSingleFile) {
  ThreadRunConfig cfg;
  cfg.directory = dir_;
  cfg.n_files = 1;
  const ThreadRunResult r = run_threaded(IoJob::uniform(1, 4096.0), cfg);
  EXPECT_DOUBLE_EQ(r.total_bytes, 4096.0);
  EXPECT_EQ(r.data_files.size(), 1u);
  verify_round_trip(r, 1);
}

TEST_F(ThreadRuntimeTest, ManyWritersAcrossFiles) {
  ThreadRunConfig cfg;
  cfg.directory = dir_;
  cfg.n_files = 4;
  const ThreadRunResult r = run_threaded(IoJob::uniform(16, 2048.0), cfg);
  EXPECT_DOUBLE_EQ(r.total_bytes, 16 * 2048.0);
  EXPECT_EQ(r.data_files.size(), 4u);
  verify_round_trip(r, 16);
}

TEST_F(ThreadRuntimeTest, UnevenPayloads) {
  ThreadRunConfig cfg;
  cfg.directory = dir_;
  cfg.n_files = 3;
  IoJob job;
  for (int i = 0; i < 10; ++i) job.bytes_per_writer.push_back(512.0 * (1 + i % 4));
  const ThreadRunResult r = run_threaded(job, cfg);
  EXPECT_DOUBLE_EQ(r.total_bytes, job.total_bytes());
  verify_round_trip(r, 10);
}

TEST_F(ThreadRuntimeTest, ForcedSlownessCausesStealsAndStaysCorrect) {
  ThreadRunConfig cfg;
  cfg.directory = dir_;
  cfg.n_files = 4;
  // Group 0 (ranks 0-3) writes are 100x slower.
  cfg.write_delay = [](core::Rank r) { return r < 4 ? 0.10 : 0.001; };
  const ThreadRunResult r = run_threaded(IoJob::uniform(16, 1024.0), cfg);
  EXPECT_GT(r.steals, 0u);
  verify_round_trip(r, 16);
  // Stolen writers' blocks live in foreign files, and the global index
  // still finds each writer exactly once.
  for (core::Rank w = 0; w < 16; ++w)
    EXPECT_EQ(r.global_index.scan_for_writer(w).size(), 1u) << "writer " << w;
}

TEST_F(ThreadRuntimeTest, MultiBlockBlueprintRoundTrips) {
  // Three 2-d blocks per writer; each SC thread builds its file's records
  // from this blueprint while the other SC threads do the same.
  IoJob job = IoJob::uniform(24, 3 * 512.0);
  job.blueprint = [](core::Rank r) {
    core::LocalIndex local;
    local.writer = r;
    for (std::uint32_t v = 0; v < 3; ++v) {
      core::BlockRecord b;
      b.writer = r;
      b.var_id = v;
      b.length = 512;
      b.global_dims = {24, 3};
      b.offsets = {static_cast<std::uint64_t>(r), v};
      b.counts = {1, 1};
      local.blocks.push_back(b);
    }
    return local;
  };
  ThreadRunConfig cfg;
  cfg.directory = dir_;
  cfg.n_files = 3;
  cfg.write_delay = [](core::Rank r) { return r < 8 ? 0.05 : 0.001; };
  const ThreadRunResult r = run_threaded(job, cfg);
  EXPECT_GT(r.steals, 0u);
  verify_round_trip(r, 24 * 3);
  EXPECT_EQ(runtime::read_global_index(r.master_file).serialize(), r.global_index.serialize());
  for (core::Rank w = 0; w < 24; ++w)
    EXPECT_EQ(r.global_index.scan_for_writer(w).size(), 3u) << "writer " << w;
}

TEST_F(ThreadRuntimeTest, StealingDisabledKeepsBlocksHome) {
  ThreadRunConfig cfg;
  cfg.directory = dir_;
  cfg.n_files = 4;
  cfg.stealing = false;
  cfg.write_delay = [](core::Rank r) { return r < 4 ? 0.05 : 0.001; };
  const ThreadRunResult r = run_threaded(IoJob::uniform(16, 1024.0), cfg);
  EXPECT_EQ(r.steals, 0u);
  verify_round_trip(r, 16);
  for (const auto& file : r.data_files) {
    const core::FileIndex idx = runtime::read_file_index(file);
    EXPECT_EQ(idx.blocks().size(), 4u);
  }
}

TEST_F(ThreadRuntimeTest, ConcurrencyTwoStillRoundTrips) {
  ThreadRunConfig cfg;
  cfg.directory = dir_;
  cfg.n_files = 2;
  cfg.max_concurrent = 2;
  const ThreadRunResult r = run_threaded(IoJob::uniform(12, 1536.0), cfg);
  verify_round_trip(r, 12);
}

TEST_F(ThreadRuntimeTest, RepeatedRunsAreIndependent) {
  for (int round = 0; round < 3; ++round) {
    ThreadRunConfig cfg;
    cfg.directory = dir_ / ("round" + std::to_string(round));
    cfg.n_files = 2;
    const ThreadRunResult r = run_threaded(IoJob::uniform(8, 1024.0), cfg);
    verify_round_trip(r, 8);
  }
}

TEST_F(ThreadRuntimeTest, InvalidConfigThrows) {
  EXPECT_THROW(run_threaded(IoJob::uniform(1, 1.0), ThreadRunConfig{}), std::invalid_argument);
  IoJob empty;
  ThreadRunConfig cfg;
  cfg.directory = dir_;
  EXPECT_THROW(run_threaded(empty, cfg), std::invalid_argument);
}

TEST_F(ThreadRuntimeTest, RankErrorIsRethrown) {
  ThreadRunConfig cfg;
  cfg.directory = dir_;
  cfg.n_files = 2;
  // Rank 5's data write fails; the other ranks must stop and the failure
  // must surface from run_threaded instead of terminating the process.
  cfg.write_delay = [](core::Rank r) -> double {
    if (r == 5) throw std::runtime_error("rank 5 write failed");
    return 0.0;
  };
  try {
    (void)run_threaded(IoJob::uniform(8, 1024.0), cfg);
    FAIL() << "run_threaded returned despite a failing rank";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 5 write failed");
  }
}

// The pool sizes each writer's index from the blueprint, and each SC thread
// builds its file's records from it again when it writes its index.  A
// blueprint that answers differently the second time fails the run there,
// before the master file is written.
TEST_F(ThreadRuntimeTest, ImpureBlueprintFailsAtTheIndexWrite) {
  IoJob job = IoJob::uniform(8, 1024.0);
  auto calls = std::make_shared<std::atomic<int>>(0);
  job.blueprint = [calls](core::Rank r) {
    // One block for each of the pool's 8 sizing calls, two afterwards.
    const int n_blocks = calls->fetch_add(1) < 8 ? 1 : 2;
    core::LocalIndex local;
    local.writer = r;
    for (int b = 0; b < n_blocks; ++b) {
      core::BlockRecord block;
      block.length = static_cast<std::uint64_t>(1024 / n_blocks);
      local.blocks.push_back(block);
    }
    return local;
  };
  ThreadRunConfig cfg;
  cfg.directory = dir_;
  cfg.n_files = 2;
  try {
    (void)run_threaded(job, cfg);
    FAIL() << "run_threaded returned despite an impure blueprint";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("not a pure function of the rank"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(std::filesystem::exists(dir_ / "master.aidx"));
}

TEST_F(ThreadRuntimeTest, FooterRejectsTruncatedFile) {
  ThreadRunConfig cfg;
  cfg.directory = dir_;
  cfg.n_files = 1;
  const ThreadRunResult r = run_threaded(IoJob::uniform(2, 1024.0), cfg);
  // Truncate the file: the footer check must fail loudly.
  std::filesystem::resize_file(r.data_files[0], 100);
  EXPECT_THROW(runtime::read_file_index(r.data_files[0]), std::runtime_error);
}

// A footer whose offset and size add up to the file size only by wrapping
// around 2^64 must be rejected before the index is sliced out of the file.
TEST_F(ThreadRuntimeTest, FooterRejectsWrappingOffsets) {
  std::filesystem::create_directories(dir_);
  std::vector<std::uint8_t> bytes(100, 0);
  const runtime::FileFooter footer{~std::uint64_t{0} - 49, 126, runtime::FileFooter::kMagic};
  std::memcpy(bytes.data() + 76, &footer.index_offset, 8);
  std::memcpy(bytes.data() + 84, &footer.index_size, 8);
  std::memcpy(bytes.data() + 92, &footer.magic, 8);
  const std::filesystem::path file = dir_ / "hostile.aio";
  std::ofstream(file, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  EXPECT_THROW(runtime::read_file_index(file), std::runtime_error);
}

}  // namespace
