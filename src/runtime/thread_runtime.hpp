// Thread runtime: the adaptive IO protocol on real threads and real files.
//
// The same WriterFsm / SubCoordinatorFsm / CoordinatorFsm state machines
// that drive the simulator run here on one std::thread per rank with
// blocking mailboxes, writing actual bytes through POSIX files in a target
// directory.  This validates two things the simulator cannot: that the
// protocol logic is sound under true asynchrony, and that the produced
// file set round-trips — data blocks land where the indices say they do.
//
// File layout (BP-flavoured): each group's file holds its data region,
// followed by the serialized FileIndex, followed by a fixed footer
// (index offset, index size, magic).  The coordinator additionally writes
// a master file containing the serialized GlobalIndex.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/index/index.hpp"
#include "core/transports/layout.hpp"

namespace aio::runtime {

struct ThreadRunConfig {
  std::filesystem::path directory;   ///< where output files are created
  std::size_t n_files = 2;           ///< SC groups
  std::size_t max_concurrent = 1;
  bool stealing = true;
  /// Optional artificial per-rank write delay (tests use it to force
  /// stealing): seconds slept inside the data write.
  std::function<double(core::Rank)> write_delay;
};

struct ThreadRunResult {
  std::vector<std::filesystem::path> data_files;  ///< one per group
  std::filesystem::path master_file;
  core::GlobalIndex global_index;
  std::uint64_t steals = 0;
  double wall_seconds = 0.0;
  double total_bytes = 0.0;
};

/// Footer terminating every data file.
struct FileFooter {
  static constexpr std::uint64_t kMagic = 0x41494F2D46545231ull;  // "AIO-FTR1"
  std::uint64_t index_offset = 0;
  std::uint64_t index_size = 0;
  std::uint64_t magic = kMagic;
};

/// Runs one collective output operation and blocks until it completes.
/// Writer `r`'s payload is `job.bytes_per_writer[r]` bytes of the repeating
/// pattern byte `r & 0xFF`.
ThreadRunResult run_threaded(const core::IoJob& job, const ThreadRunConfig& config);

/// Reads a data file's footer + file index back (validation helper).
core::FileIndex read_file_index(const std::filesystem::path& file);

/// Reads the master file's global index back.
core::GlobalIndex read_global_index(const std::filesystem::path& file);

/// Verifies that every block recorded in `index` contains the writer's
/// pattern byte in the file.  Returns the number of blocks checked.
std::size_t verify_blocks(const std::filesystem::path& file, const core::FileIndex& index);

}  // namespace aio::runtime
