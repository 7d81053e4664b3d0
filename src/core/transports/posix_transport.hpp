// POSIX one-file-per-process transport.
//
// The configuration of the paper's Section II measurements: each writer
// writes to its own file pinned to a fixed OST, writers split evenly across
// the OSTs in use.  File opens/closes are skipped entirely ("all reported
// measurements specifically omit file open and close times"), so the result
// isolates the data path — which is where internal and external
// interference live.
#pragma once

#include <functional>

#include "core/transports/layout.hpp"
#include "fs/filesystem.hpp"

namespace aio::core {

class PosixTransport final : public Transport {
 public:
  struct Config {
    std::size_t osts_to_use = 0;  ///< 0 = all OSTs
    fs::Ost::Mode mode = fs::Ost::Mode::Cached;  ///< plain POSIX writes
  };

  PosixTransport(fs::FileSystem& fs, Config config) : fs_(fs), config_(config) {}

  [[nodiscard]] std::string name() const override { return "POSIX"; }
  void run(const IoJob& job, std::function<void(IoResult)> on_done) override;

 private:
  fs::FileSystem& fs_;
  Config config_;
};

}  // namespace aio::core
