// Coordinator role (paper Algorithm 3).
//
// The coordinator is idle through the bulk of the output.  As SCs report
// completion it builds a view of relative storage-target speed — a finished
// SC means a *fast* target whose file can absorb more work — and shifts
// pending writers from still-writing (slow) groups onto finished (fast)
// files, one in-flight adaptive write per file.  Grants rotate round-robin
// over the still-writing SCs ("adaptive writing requests are spread evenly
// among the sub coordinators").  Once every SC is complete and no grant is
// outstanding, it broadcasts OVERALL_WRITE_COMPLETE, gathers the per-file
// indices, merges the global index and writes it.
//
// Scale notes (full Jaguar = 672 SCs, 224k writers):
//  - Group sizes are resolved through a shared callable instead of a copied
//    vector — topology is arithmetic, not state.
//  - Grant-source selection runs over a path-compressed skip list of the
//    still-Writing groups (SC states only move forward), so a grant costs
//    amortized O(1) instead of O(n_groups).
//  - The global index size (`8 + sum(8 + file)`) and block count are
//    running sums over the SUB_INDEX messages in both modes, so the global
//    index write is byte-exact without walking any records.  With
//    `retain_global_index = false` the SUB_INDEX messages carry no records
//    at all (see WriterPool::Layout::carry_records), so no block record is
//    built or moved anywhere in the run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/protocol/actions.hpp"

namespace aio::core {

class CoordinatorFsm {
 public:
  /// How the coordinator picks the SC to steal a waiting writer from.
  enum class StealSource : std::uint8_t {
    RoundRobin,     ///< the paper's "spread evenly among the sub coordinators"
    MostRemaining,  ///< prefer the group with the most unredirected writers
  };

  struct Config {
    std::size_t n_groups = 0;
    /// Resolves a group's writer count; shared topology arithmetic, not a
    /// per-coordinator copy.  Must be valid for 0 <= g < n_groups.
    std::function<std::size_t(GroupId)> group_size_of;
    std::function<Rank(GroupId)> sc_of;
    Rank rank = 0;
    bool stealing_enabled = true;  ///< ablation: disable work redistribution
    StealSource steal_source = StealSource::RoundRobin;
    /// When true, every SUB_INDEX must carry its records, which are merged
    /// into a retained GlobalIndex.  When false, only the sizes and counts
    /// are used.  The index write (and its byte count) is identical either
    /// way.  Paper-scale benches run with false.
    bool retain_global_index = true;
  };

  /// SC states tracked by the coordinator (paper Section III-3): `Writing`
  /// (initial), `Busy` (all writers scheduled, no adaptive candidates), and
  /// `Complete` (file available for adaptive use).
  enum class ScState : std::uint8_t { Writing, Busy, Complete };

  enum class State { Collecting, IndexGathering, IndexWriting, Done };

  explicit CoordinatorFsm(Config config);

  Actions on_write_complete(const WriteComplete& msg);
  Actions on_writers_busy(const WritersBusy& msg);
  Actions on_sub_index(const SubIndex& msg);
  /// Runtime notification: the global index write finished.
  Actions on_global_index_write_done();

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] ScState sc_state(GroupId g) const { return sc_states_.at(g); }
  [[nodiscard]] std::size_t outstanding_grants() const { return outstanding_; }
  [[nodiscard]] std::uint64_t total_steals() const { return total_steals_; }
  [[nodiscard]] std::uint64_t grants_issued() const { return grants_issued_; }
  /// Writers redirected away from group `g` so far.
  [[nodiscard]] std::uint64_t stolen_from(GroupId g) const {
    return stolen_from_.at(static_cast<std::size_t>(g));
  }
  /// Coordinator's view of group `g`'s queue depth: writers not yet
  /// redirected away (the steal-source ranking key).
  [[nodiscard]] std::size_t remaining_writers(GroupId g) const {
    const auto idx = static_cast<std::size_t>(g);
    const std::uint64_t stolen = stolen_from_.at(idx);
    const std::size_t size = config_.group_size_of(g);
    return size > stolen ? size - static_cast<std::size_t>(stolen) : 0;
  }
  /// Blocks indexed across all files — counted in both retain modes.
  [[nodiscard]] std::uint64_t total_blocks() const { return total_blocks_; }
  /// Empty when retain_global_index is false.
  [[nodiscard]] const GlobalIndex& global_index() const { return global_index_; }
  /// Relinquishes the merged global index (for a run handing its result to
  /// the caller).  global_index() is empty afterwards; read any statistics
  /// (total_blocks, ...) before taking.
  [[nodiscard]] GlobalIndex take_global_index() { return std::move(global_index_); }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  /// Tries to schedule one adaptive write into free, complete file `target`.
  void request_adaptive(GroupId target, Actions& out);
  /// Broadcasts OVERALL_WRITE_COMPLETE once everything has finished.
  void check_all_done(Actions& out);
  [[nodiscard]] bool all_complete() const { return n_complete_ == config_.n_groups; }
  /// First still-Writing group with index >= i (n_groups if none), with path
  /// compression over groups that left the Writing state.
  std::size_t next_writing(std::size_t i);

  Config config_;
  State state_ = State::Collecting;
  std::vector<ScState> sc_states_;
  std::vector<std::size_t> skip_;         // skip pointers for next_writing()
  std::vector<double> next_offset_;       // per file; valid once Complete
  std::vector<bool> file_busy_;           // adaptive write in flight for file
  std::vector<std::uint64_t> writes_into_;   // adaptive writes landed per file
  std::vector<std::uint64_t> stolen_from_;   // writers redirected away per group
  std::size_t outstanding_ = 0;
  std::size_t rr_cursor_ = 0;
  std::size_t n_complete_ = 0;
  std::uint64_t total_steals_ = 0;
  std::uint64_t grants_issued_ = 0;

  GlobalIndex global_index_;
  std::uint64_t global_index_bytes_ = GlobalIndex::kHeaderBytes;  ///< streamed size
  std::uint64_t total_blocks_ = 0;
  std::size_t sub_indices_received_ = 0;
};

}  // namespace aio::core
