// Message set of the adaptive IO protocol (paper Section III, Algorithms 1-3).
//
// The three roles — writer, sub-coordinator (SC), coordinator (C) — exchange
// exactly the messages named in the paper: the (target, offset) write signal,
// WRITE_COMPLETE, INDEX_BODY, ADAPTIVE_WRITE_START, WRITERS_BUSY and
// OVERALL_WRITE_COMPLETE, plus the SC's final index hand-off to C.
//
// One deliberate strengthening over the paper's pseudocode: the coordinator
// embeds the expected block count and final data offset of each file in
// OVERALL_WRITE_COMPLETE.  The paper's `missing indices != 0` loop condition
// is only safe on FIFO channels; the explicit expectation makes termination
// correct under arbitrary message reordering.
#pragma once

#include <cstdint>
#include <memory>
#include <variant>

#include "core/index/index.hpp"

namespace aio::core {

/// Wire size of a small control message, used for network accounting.
inline constexpr double kControlMsgBytes = 128.0;

/// SC -> writer: "Wait for message (target, offset)" (Algorithm 1, line 1).
/// Also used by an SC executing ADAPTIVE_WRITE_START: it signals one of its
/// waiting writers with a *remote* target (Algorithm 2, line 24).
struct DoWrite {
  GroupId target_file = -1;
  double offset = 0.0;
  /// Provenance: the coordinator grant this signal executes (0 = local
  /// write, not a steal).  Diagnostic only — wire size is fixed at
  /// kControlMsgBytes, so carrying it does not perturb the simulation.
  std::uint64_t grant_seq = 0;
};

/// WRITE_COMPLETE in its three uses.
struct WriteComplete {
  enum class Kind : std::uint8_t {
    WriterDone,    ///< writer -> triggering SC, and -> target SC if adaptive
    AdaptiveDone,  ///< SC -> C: "adaptive WRITE COMPLETE" (Alg. 2, line 6)
    GroupDone,     ///< SC -> C: all of this SC's writers completed (line 13)
  };
  Kind kind = Kind::WriterDone;
  Rank writer = -1;            ///< finishing writer (WriterDone/AdaptiveDone)
  GroupId origin_group = -1;   ///< the writer's home group
  GroupId file = -1;           ///< file written; for GroupDone, the group itself
  double bytes = 0.0;          ///< payload size of the finished write
  double index_bytes = 0.0;    ///< "Save index size for index message" (line 9)
  double final_offset = 0.0;   ///< GroupDone: end of the locally written region
  /// Provenance: grant that redirected this write (0 = local write).
  std::uint64_t grant_seq = 0;
};

/// INDEX_BODY: writer -> SC owning the file the data landed in.
///
/// The size and block count always travel; they are all the simulation needs
/// to time the transfer and the index writes downstream.  The block records
/// travel only when the run keeps the global index: otherwise `index` is
/// null.  The index is shared non-const for the same reason as SubIndex: the
/// receiving SC is provably the only consumer after delivery, so it may move
/// the block list into its file index, releasing the writer's index memory
/// as soon as it is merged instead of at run end.
struct IndexBody {
  std::shared_ptr<LocalIndex> index;  ///< the records; null when not carried
  std::uint64_t serialized_bytes = 0;  ///< LocalIndex::serialized_size()
  std::uint64_t blocks = 0;            ///< block records it describes
};

/// ADAPTIVE_WRITE_START: C -> a still-writing SC, carrying the free target
/// file and the offset at which the redirected writer must write.
struct AdaptiveWriteStart {
  GroupId target_file = -1;
  double offset = 0.0;
  /// Provenance: unique id (1-based) of this grant, stamped by the
  /// coordinator and echoed through DoWrite and WriteComplete so a steal's
  /// grant -> migration -> completion chain can be reassembled post-run.
  std::uint64_t grant_seq = 0;
};

/// WRITERS_BUSY: SC -> C, declining a grant because no writer is waiting.
struct WritersBusy {
  GroupId group = -1;        ///< the declining SC
  GroupId target_file = -1;  ///< which grant is being declined
};

/// OVERALL_WRITE_COMPLETE: C -> every SC.
struct OverallWriteComplete {
  std::uint64_t expected_indices = 0;  ///< writers that wrote into your file
  double final_data_offset = 0.0;      ///< end of the file's data region
};

/// SC -> C: the merged per-file index ("Send the index to C", Alg. 2).
/// Like IndexBody it always carries the size and block count, and carries
/// records only if the SC received any.  The index is shared non-const so
/// the coordinator — provably the only remaining consumer once the message
/// is delivered — can move the block list into the global index instead of
/// copying it.
struct SubIndex {
  GroupId group = -1;
  std::shared_ptr<FileIndex> index;  ///< the records; null when not carried
  std::uint64_t serialized_bytes = 0;  ///< FileIndex::serialized_size()
  std::uint64_t blocks = 0;            ///< block records it describes
};

using MessageBody = std::variant<DoWrite, WriteComplete, IndexBody, AdaptiveWriteStart,
                                 WritersBusy, OverallWriteComplete, SubIndex>;

struct Message {
  Rank from = -1;
  MessageBody body;

  /// Bytes this message occupies on the wire (index payloads dominate).
  [[nodiscard]] double wire_bytes() const;
};

/// Rank layout: writers are partitioned into contiguous groups (process IDs
/// are assigned sequentially to cores, so contiguous grouping keeps an SC
/// with its writers and minimizes cross-node chatter — the paper's choice).
/// The SC of a group is its first rank; the coordinator is global rank 0.
class Topology {
 public:
  Topology(std::size_t n_writers, std::size_t n_groups);

  [[nodiscard]] std::size_t n_writers() const { return n_writers_; }
  [[nodiscard]] std::size_t n_groups() const { return n_groups_; }
  [[nodiscard]] GroupId group_of(Rank r) const;
  [[nodiscard]] Rank sc_rank(GroupId g) const;
  [[nodiscard]] static Rank coordinator_rank() { return 0; }
  [[nodiscard]] std::size_t group_size(GroupId g) const;
  [[nodiscard]] Rank group_begin(GroupId g) const;  ///< first rank of group

 private:
  std::size_t n_writers_;
  std::size_t n_groups_;
  std::size_t base_;  // group sizes are base_ or base_+1 (first rem_ groups)
  std::size_t rem_;
};

}  // namespace aio::core
