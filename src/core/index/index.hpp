// BP-style indexing for the adaptive IO middleware.
//
// Every writer produces a *local index*: one record per variable block it
// wrote, carrying the block's location in the output file, its logical
// position in the global array, and *data characteristics* (min/max/sum) —
// the paper's mechanism for locating data without a global index ("the
// inclusion of the data characteristics aid this search by enabling quickly
// searching for both the content as well as the logical location").
//
// Each sub-coordinator merges the local indices of everything written to its
// file into a *file index* (sorted by file offset) and appends it to the
// file.  The coordinator merges all file indices into a *global index* —
// implemented here even though the paper left the global-index phase as
// future work — enabling single-lookup access to any block.
//
// A run does not build those records as it goes.  Each writer's blocks are a
// pure function of its rank (the job's blueprint) plus where its data
// landed, so a run keeps only the landings (`Placement`s, 16 bytes a writer)
// in a `KeptIndex`, and `build_file_index` turns them into records when
// something reads them.
//
// File and global indices serialize to a flat byte layout so the thread
// runtime can write them into real files and read them back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/small_vector.hpp"

namespace aio::core {

using Rank = std::int32_t;
using GroupId = std::int32_t;  ///< sub-coordinator / output-file index

/// Array-shape vector with four inline slots.  Every workload the repo
/// models decomposes a 1-3 dimensional array, so block records carry their
/// shapes without per-record heap traffic; rank > 4 arrays overflow to the
/// heap transparently (same wire format either way).
using Dims = SmallVector<std::uint64_t, 4>;

/// Interned variable names for one run.  Block records carry only a numeric
/// `var_id`; the table stores each distinct name exactly once and is shared
/// by pointer (IoJob/IoResult), so a 224k-writer run holds one copy of
/// "rho"/"px"/... instead of any per-writer or per-block string state.  Not
/// part of the wire format — indices serialize ids only.
class VarTable {
 public:
  /// Returns the id of `name`, interning it on first sight.
  std::uint32_t intern(const std::string& name);
  [[nodiscard]] std::size_t size() const { return names_.size(); }
  /// Name for `id`; "?" for ids the run never defined (matching the
  /// workloads' unknown-variable convention).
  [[nodiscard]] const std::string& name(std::uint32_t id) const;
  [[nodiscard]] std::optional<std::uint32_t> find(const std::string& name) const;

 private:
  std::vector<std::string> names_;        // id -> name
  std::vector<std::uint32_t> by_name_;    // indices into names_, sorted by name
};

/// Statistical fingerprint of one written block.
struct Characteristics {
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::uint64_t count = 0;

  /// Accumulates over a buffer of doubles.
  static Characteristics of(std::span<const double> data);
  void merge(const Characteristics& other);
  bool operator==(const Characteristics&) const = default;
};

/// One variable block written by one process.
struct BlockRecord {
  Rank writer = -1;
  std::uint32_t var_id = 0;
  std::uint64_t file_offset = 0;           ///< bytes, within the owning file
  std::uint64_t length = 0;                ///< bytes
  Dims global_dims;  ///< global array shape (may be empty)
  Dims offsets;      ///< this block's corner in the array
  Dims counts;       ///< this block's extent
  Characteristics ch;

  bool operator==(const BlockRecord&) const = default;
  /// Bytes this record occupies in a serialized index.
  [[nodiscard]] std::size_t serialized_size() const;
  /// True when the block intersects the box [sel_offsets, sel_offsets+sel_counts).
  [[nodiscard]] bool intersects(std::span<const std::uint64_t> sel_offsets,
                                std::span<const std::uint64_t> sel_counts) const;
};

/// Everything one writer wrote in one output step.  It travels only as a
/// size: `serialized_size()` prices the INDEX_BODY message, so it sets
/// simulated traffic.
struct LocalIndex {
  /// Header bytes counted by serialized_size(): magic, writer, file, block
  /// count.
  static constexpr std::size_t kHeaderBytes = 16;

  Rank writer = -1;
  GroupId file = -1;  ///< the file the data landed in (may differ from the
                      ///< writer's own group under adaptive redirection)
  std::vector<BlockRecord> blocks;

  [[nodiscard]] std::size_t serialized_size() const;
  bool operator==(const LocalIndex&) const = default;
};

/// An index's serialized size and the block records it holds: everything a
/// run times the index transfers and writes by.  The sizes of a writer's
/// local index and of a file index (the header plus its writers' block
/// bytes) are both carried this way.
struct IndexSize {
  std::uint64_t bytes = 0;
  std::uint64_t blocks = 0;

  static IndexSize of(const LocalIndex& index) {
    return {index.serialized_size(), index.blocks.size()};
  }
};

/// Merged index of one output file, sorted by file offset.
class FileIndex {
 public:
  /// Serialized header: magic, file, block count.  A file index's size is
  /// this header plus the block bytes of every local index merged into it.
  static constexpr std::size_t kHeaderBytes = 12;

  FileIndex() = default;
  explicit FileIndex(GroupId file) : file_(file) {}

  void merge(const LocalIndex& local);
  /// Capacity hint for a merge loop whose total is known (build_file_index
  /// knows the writers' streamed block count); never shrinks.
  void reserve_blocks(std::size_t n) {
    if (n > blocks_.capacity()) blocks_.reserve(n);
  }
  /// Sorts blocks by file offset; call once after all merges.
  void finalize();

  [[nodiscard]] GroupId file() const { return file_; }
  [[nodiscard]] const std::vector<BlockRecord>& blocks() const { return blocks_; }
  [[nodiscard]] std::size_t serialized_size() const;
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  /// Appends the serialized form to `out` (reserving via serialized_size()),
  /// producing exactly the bytes of serialize() without a temporary vector.
  void serialize_into(std::vector<std::uint8_t>& out) const;
  static std::optional<FileIndex> deserialize(std::span<const std::uint8_t> bytes);

  /// Verifies blocks tile [0, data_bytes) without gaps or overlaps.
  [[nodiscard]] bool covers_contiguously(std::uint64_t data_bytes) const;

 private:
  GroupId file_ = -1;
  std::vector<BlockRecord> blocks_;
};

/// A block's home: which file, where.
struct BlockLocation {
  GroupId file;
  const BlockRecord* block;
};

/// Master index across all output files of one write operation.
class GlobalIndex {
 public:
  /// Serialized header (magic, file count) and the length prefix in front of
  /// each file index: the size is kHeaderBytes + sum(kLengthBytes + file).
  static constexpr std::size_t kHeaderBytes = 8;
  static constexpr std::size_t kLengthBytes = 8;

  void add(FileIndex index);
  /// Pre-sizes the file list.
  void reserve(std::size_t n_files) { files_.reserve(n_files); }

  [[nodiscard]] std::size_t n_files() const { return files_.size(); }
  [[nodiscard]] const std::vector<FileIndex>& files() const { return files_; }
  [[nodiscard]] std::size_t total_blocks() const;

  /// All blocks of `var_id` intersecting the selection box.
  [[nodiscard]] std::vector<BlockLocation> query(
      std::uint32_t var_id, std::span<const std::uint64_t> sel_offsets,
      std::span<const std::uint64_t> sel_counts) const;

  /// Blocks of `var_id` whose value range intersects [lo, hi] — the
  /// characteristics-based content search the paper uses in lieu of the
  /// (then-unimplemented) global index.
  [[nodiscard]] std::vector<BlockLocation> query_by_value(std::uint32_t var_id, double lo,
                                                          double hi) const;

  /// Exhaustive per-file scan for one writer's blocks — models the paper's
  /// "automatic, systematic search of the index in each file".
  [[nodiscard]] std::vector<BlockLocation> scan_for_writer(Rank writer) const;

  [[nodiscard]] std::size_t serialized_size() const;
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static std::optional<GlobalIndex> deserialize(std::span<const std::uint8_t> bytes);

 private:
  std::vector<FileIndex> files_;
};

/// A writer's blocks as its job describes them, file offsets unset
/// (IoJob::blueprint_for).  Must be a pure, thread-safe function of the rank.
using Blueprint = std::function<LocalIndex(Rank)>;

/// Where one writer's data landed in a file: the file offset of its first
/// block (its stamped DoWrite offset).
struct Placement {
  Rank writer = -1;
  std::uint64_t offset = 0;
};

/// Builds the index of `file` from the placements of the writes that landed
/// in it, in arrival order: each writer's blueprint stamped with the writer
/// and consecutive offsets from its start, appended into one buffer reserved
/// to `blocks`, then sorted once.  That is what merging the writer-stamped
/// local indices in arrival order and sorting gives, ties between equal keys
/// included.  `streamed` is the file index's size as the writers streamed
/// it to the SC: a blueprint that yields another block count is not a pure
/// function of the rank, and one that yields other bytes disagrees with the
/// job's declared index sizes (IoJob::index_size); either way the build
/// throws std::logic_error, the block count checked first.
[[nodiscard]] FileIndex build_file_index(GroupId file, std::span<const Placement> placements,
                                         IndexSize streamed, const Blueprint& blueprint);

/// A run's global index before anything reads it: per file, in the order
/// the coordinator gathered them, the placements its SC shipped, and a copy
/// of the job's blueprint.  No block record exists until build().
class KeptIndex {
 public:
  explicit KeptIndex(Blueprint blueprint) : blueprint_(std::move(blueprint)) {}

  /// Appends `file`'s placements and the size its SC streamed
  /// (SubIndex::serialized_bytes and blocks).
  void add(GroupId file, std::shared_ptr<const std::vector<Placement>> placements,
           IndexSize streamed);
  /// Pre-sizes the file list (the coordinator knows n_groups up front).
  void reserve(std::size_t n_files) { files_.reserve(n_files); }
  /// Every file's index, built in gathering order: the global index a merge
  /// of the SCs' sorted file indices gives, byte for byte.
  [[nodiscard]] GlobalIndex build() const;

 private:
  struct File {
    GroupId file = -1;
    IndexSize streamed;
    std::shared_ptr<const std::vector<Placement>> placements;
  };
  Blueprint blueprint_;
  std::vector<File> files_;
};

}  // namespace aio::core
