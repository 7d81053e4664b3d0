// Sub-coordinator role (paper Algorithm 2).
//
// An SC owns one output file (pinned to one storage target), serializes its
// writers onto that file ("Signal next waiting writer to write" — at most
// `max_concurrent` writes in flight, 1 in the paper), redirects waiting
// writers elsewhere when the coordinator sends ADAPTIVE_WRITE_START,
// collects the INDEX_BODY of every write landing in its file, and finally
// writes the file index and ships it to the coordinator.
//
// The file index's size and block count are running sums over the INDEX_BODY
// messages (each carries both), so the index write is exact without any
// block record.  When the run keeps the index (`Config::keep_placements`),
// the SC also notes each INDEX_BODY's (writer, offset) in arrival order and
// ships that list in SUB_INDEX.  The records are built from it only where
// they are read (core::build_file_index: each writer's blueprint stamped
// with its writer and consecutive offsets, then one sort), which gives the
// block sequence an arrival-order merge of the writers' stamped local
// indices gives, ties between equal keys included.
//
// The `max_concurrent > 1` generalization is the paper's untried "2 or 3
// simultaneous writers per storage location" — exercised by the concurrency
// ablation bench.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/protocol/actions.hpp"

namespace aio::core {

class SubCoordinatorFsm {
 public:
  /// Configuration references the run's shared topology/payload arrays
  /// instead of copying them: groups are contiguous rank ranges, so the
  /// member list is (first_member .. first_member + n_members), and
  /// member_bytes is a subspan of the run-owned per-writer payload array.
  /// The span's backing storage must outlive the FSM.
  struct Config {
    GroupId group = -1;
    Rank rank = -1;
    Rank coordinator = 0;
    Rank first_member = -1;            ///< == rank; members are contiguous
    std::size_t n_members = 0;         ///< this group's writers, SC first
    std::span<const double> member_bytes;  ///< per-member payload (registration)
    std::size_t max_concurrent = 1;    ///< local writes in flight (paper: 1)
    /// Note each INDEX_BODY's placement and ship them in SUB_INDEX: set when
    /// the run keeps the global index; false keeps sizes only.
    bool keep_placements = false;
  };

  enum class State {
    Writing,        ///< members still being scheduled / completing
    Draining,       ///< all members done; awaiting OVERALL + indices
    IndexWriting,   ///< file index write issued
    Done,
  };

  explicit SubCoordinatorFsm(Config config);

  /// Kicks off the first `max_concurrent` local writers.
  Actions start();

  Actions on_write_complete(const WriteComplete& msg);
  Actions on_index_body(const IndexBody& msg);
  Actions on_adaptive_write_start(const AdaptiveWriteStart& msg);
  Actions on_overall_write_complete(const OverallWriteComplete& msg);
  /// Runtime notification: the WriteIndexAction finished.
  Actions on_index_write_done();

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] std::size_t writers_remaining() const { return writers_remaining_; }
  [[nodiscard]] std::size_t waiting() const { return config_.n_members - next_waiting_; }
  [[nodiscard]] double local_offset() const { return local_offset_; }
  [[nodiscard]] std::uint64_t indices_received() const { return indices_received_; }
  [[nodiscard]] std::uint64_t completions_into_file() const { return completions_into_file_; }
  [[nodiscard]] std::size_t redirected_members() const { return redirected_; }
  /// The INDEX_BODYs' placements in arrival order (empty unless kept).  They
  /// move into the SUB_INDEX message when on_index_write_done() fires, so a
  /// runtime that builds the file index to write it reads them while
  /// executing WriteIndexAction, which precedes that notification.
  [[nodiscard]] std::span<const Placement> placements() const {
    return placements_ ? std::span<const Placement>(*placements_) : std::span<const Placement>();
  }
  /// Block records the INDEX_BODYs so far describe.
  [[nodiscard]] std::uint64_t file_index_blocks() const { return file_index_blocks_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  Actions signal_next_writers();  ///< fill the local in-flight window
  void check_ready_to_index(Actions& out);
  [[nodiscard]] Rank member(std::size_t i) const {
    return config_.first_member + static_cast<Rank>(i);
  }

  Config config_;
  State state_ = State::Writing;
  // Writers are signalled in member order, so the waiting "queue" is just a
  // cursor into the contiguous member range — no per-member container.
  std::size_t next_waiting_ = 0;
  std::size_t active_local_ = 0;
  double local_offset_ = 0.0;
  std::size_t writers_remaining_;
  bool group_done_sent_ = false;

  /// Arrival order; null unless kept, and after on_index_write_done().
  std::shared_ptr<std::vector<Placement>> placements_;
  std::uint64_t file_index_bytes_ = FileIndex::kHeaderBytes;  ///< streamed size
  std::uint64_t file_index_blocks_ = 0;
  std::uint64_t indices_received_ = 0;
  std::uint64_t completions_into_file_ = 0;
  std::size_t redirected_ = 0;

  bool overall_received_ = false;
  std::uint64_t expected_indices_ = 0;
  double final_data_offset_ = 0.0;
};

}  // namespace aio::core
