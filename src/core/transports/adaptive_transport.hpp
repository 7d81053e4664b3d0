// Adaptive IO transport (the paper's contribution, Section III).
//
// One output file per sub-coordinator, each pinned to its own storage
// target.  Writers, sub-coordinators and the coordinator run as message-
// driven actors over the simulated interconnect; the protocol logic lives in
// the pure FSMs under core/protocol.  The transport measures exactly what
// the paper reports: write + flush + close, excluding (configurable) opens.
//
// One code path drives one engine or a shard group (`sim::Homes`): a write
// is a hand-off from the writer's rank to its OST and back, a finished role
// hands off to the coordinator, and the coordinator closes the files.
#pragma once

#include <functional>
#include <vector>

#include "core/transports/layout.hpp"
#include "fs/filesystem.hpp"
#include "net/network.hpp"

namespace aio::core {

class AdaptiveTransport final : public Transport {
 public:
  struct Config {
    std::size_t n_files = 0;       ///< output files == SC groups; 0 = one per OST
    std::size_t first_ost = 0;     ///< file g lands on OST (first_ost + g) % n
    /// Explicit target list (history-aware placement, see target_probe.hpp):
    /// when non-empty, file g lands on OST targets[g] and n_files is
    /// overridden by its length.
    std::vector<std::size_t> targets;
    std::size_t max_concurrent = 1;  ///< writers in flight per file (paper: 1)
    bool stealing = true;            ///< coordinator work redistribution
    /// Steal-source selection (see CoordinatorFsm::StealSource).
    bool steal_most_remaining = false;
    /// How the per-SC file creates hit the metadata server before the timed
    /// write phase: skipped (paper's measurement protocol), all at once, or
    /// staggered (the paper's open-storm mitigation).
    enum class OpenMode { Skip, Storm, Staggered };
    OpenMode open_mode = OpenMode::Skip;
    double stagger_gap_s = 0.002;
    /// Client-side metadata batching: B >= 2 groups the per-SC creates into
    /// batched requests of up to B files per metadata server, amortizing the
    /// per-request fixed cost (`open_base_s`) across the span; 0 and 1 both
    /// submit one request per file.  Closes batch the same way on either
    /// engine (sharded runs skip opens).
    std::size_t open_batch = 0;
    /// When true, the run keeps the global index as the placement of every
    /// write, 16 bytes per writer, in IoResult::kept_index, which builds the
    /// block records when read.  When false, writers, SCs and the
    /// coordinator pass index sizes and block counts only, and kept_index
    /// stays null.  No block record is built during the run either way, and
    /// every simulated timestamp and byte count is the same.  Keep true when
    /// read-back is needed.
    bool retain_global_index = true;
  };

  AdaptiveTransport(fs::FileSystem& fs, net::Network& net, Config config)
      : fs_(fs), net_(net), config_(config) {}

  [[nodiscard]] std::string name() const override { return "Adaptive"; }
  void run(const IoJob& job, std::function<void(IoResult)> on_done) override;

 private:
  fs::FileSystem& fs_;
  net::Network& net_;
  Config config_;
};

}  // namespace aio::core
