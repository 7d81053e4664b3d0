// Pooled storage for the writer role (paper Algorithm 1) at machine scale.
//
// A full-Jaguar run hosts 224,160 writers next to a few hundred SCs and one
// coordinator.  Storing each writer as its own FSM object — private config
// copy, private sc_of resolver, heap-allocated local index — costs kilobytes
// per rank before the first message moves, which is what kept the benches
// two orders of magnitude below the paper's machine.  WriterPool keeps the
// ~5 scalar fields of per-writer state in dense struct-of-arrays columns and
// resolves everything static (group, SC rank, payload bytes) through one
// shared Layout.
//
// A writer never holds its index records.  The pool asks once per writer,
// at construction, for its index size (serialized bytes and block count:
// IoJob::index_size_for, which builds no index when the job declares its
// sizes); INDEX_BODY carries those two numbers with the writer, its file
// and, when the run keeps the index, its stamped offset.  A reader of the
// kept index builds the records from the job's blueprint
// (core::build_file_index), and checks them against the streamed sizes.  So
// a writer costs ~25 bytes of pool state, plus an 8-byte offset column when
// the index is kept, and every simulated byte count is the same either way.
//
// core::Roles (roles.hpp) builds the pool for every runtime; unit tests
// drive a pool directly.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/protocol/actions.hpp"

namespace aio::core {

class WriterPool {
 public:
  /// Static per-writer attributes, resolved through shared providers
  /// instead of being copied into every writer.  The spans/callables must
  /// outlive the pool (the runtimes own the backing storage per run).
  struct Layout {
    Rank first_rank = 0;  ///< pool slot i hosts rank first_rank + i
    std::function<GroupId(Rank)> group_of;  ///< rank -> home group
    std::function<Rank(GroupId)> sc_of;     ///< group -> SC rank
    std::span<const double> bytes;          ///< payload of slot i's writer
    /// False when the run keeps no global index: nothing builds the
    /// records, so INDEX_BODY need not carry the writer's offset.
    bool carry_records = true;
  };

  enum class State : std::uint8_t { Idle, Writing, Done };

  /// Builds `layout.bytes.size()` writers; `index_size_of` is invoked once
  /// per rank, during construction only.
  WriterPool(Layout layout, const std::function<IndexSize(Rank)>& index_size_of);

  /// Algorithm 1, lines 1-3, for the writer on `rank`.
  Actions on_do_write(Rank rank, const DoWrite& msg);
  /// Algorithm 1, lines 4-8 (runtime reports the data write finished).
  Actions on_write_done(Rank rank);

  [[nodiscard]] std::size_t size() const { return states_.size(); }
  [[nodiscard]] State state(Rank rank) const { return states_[slot(rank)]; }
  [[nodiscard]] bool wrote_adaptively(Rank rank) const {
    return targets_[slot(rank)] != layout_.group_of(rank);
  }
  [[nodiscard]] const Layout& layout() const { return layout_; }

 private:
  [[nodiscard]] std::size_t slot(Rank rank) const {
    return static_cast<std::size_t>(rank - layout_.first_rank);
  }

  Layout layout_;
  std::vector<State> states_;
  std::vector<GroupId> targets_;           ///< file each writer was sent to
  std::vector<std::uint64_t> index_bytes_; ///< serialized local index sizes
  std::vector<std::uint32_t> index_blocks_; ///< block records per local index
  std::vector<std::uint64_t> grant_seqs_;  ///< provenance of the current write
  std::vector<std::uint64_t> offsets_;     ///< stamped starts; empty unless carrying records
};

}  // namespace aio::core
