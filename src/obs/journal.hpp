// Compact binary run journal.
//
// The trace sink (obs/trace.hpp) answers "what happened, for a human in a
// viewer"; the journal answers "what happened, for a program".  Instrumented
// layers append fixed-size POD records — writer lifecycle, per-OST state
// transitions, MDS service, steal grant→migration→completion chains — behind
// the same null-by-default pointer discipline as `TraceSink`: an engine
// without a journal costs one pointer test per site and records nothing.
//
// Appends are allocation-free in steady state (a POD push into reserved
// vector capacity; growth is amortized doubling from an up-front reserve),
// so journaling stays inside the hot-path budgets test_alloc_guard enforces.
// The buffer is bounded like the trace sink: past `max_records` new records
// are counted as dropped, never recorded.
//
// The on-disk format is a small header plus the raw record array (see
// `write`); `load` reads it back for offline analysis (tools/aio_report).
// Records use host endianness — the journal is a same-machine artifact, the
// portable derived artifact is the aio-report-v1 JSON.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace aio::obs {

/// Record kinds.  Field use per kind is documented on `Record`.
enum class Rec : std::uint8_t {
  kRunBegin = 1,    ///< adaptive run started
  kRunMark = 2,     ///< run phase boundary (see Mark)
  kFileMap = 3,     ///< output file -> OST placement
  kWriterSignal = 4,///< (target, offset) write signal left an SC
  kWriterStart = 5, ///< writer's data write hit the storage layer
  kWriterEnd = 6,   ///< writer's data write completed
  kOstState = 7,    ///< OST dirty-stream / cache / load state changed
  kMdsOp = 8,       ///< metadata server dispatched a request
  kStealGrant = 9,  ///< coordinator issued ADAPTIVE_WRITE_START
  kStealComplete = 10,  ///< adaptive WRITE_COMPLETE reached the coordinator
  /// Per-shard host-runtime profile of a sharded run (obs/prof.hpp), one
  /// record per shard at the run's final simulated time.  A *host* artifact:
  /// its payload depends on the shard count and wall-clock, so it is only
  /// emitted when a profiler is armed and is excluded from the cross-shard
  /// digest-invariance claims (DESIGN.md §10).
  kProfShard = 11,
};

/// kRunMark phases.
enum class Mark : std::uint8_t {
  kOpenDone = 0,  ///< files open, protocol starting (t_open_done)
  kDataDone = 1,  ///< all roles done writing data (t_data_done)
  kComplete = 2,  ///< run complete, files closed (t_complete)
};

/// One journal record: 56 POD bytes.  `t` is simulated seconds; the other
/// fields are kind-specific:
///
///   kRunBegin      id=run  u0=n_writers u1=n_files u2=n_osts
///   kRunMark       id=run  a=Mark; kComplete: v0=steals v1=grants
///   kFileMap       id=run  u0=file u1=ost
///   kWriterSignal  id=writer u0=target_file u1=origin_group u2=grant_seq
///                  a=1 when the signal is an adaptive redirect
///   kWriterStart   id=writer u0=file v0=bytes
///   kWriterEnd     id=writer u0=file
///   kOstState      id=ost  u0=m_dirty a=cache_full
///                  v0=efficiency v1=net_load v2=disk_load
///   kMdsOp         id=mds a=op kind u0=backlog_behind u1=batched_behind
///                  v0=service_s
///   kStealGrant    id=grant_seq u0=source_group u1=target_file
///                  v0=offset v1=source_queue_depth
///   kStealComplete id=grant_seq u0=source_group u1=target_file u2=writer
///                  v0=bytes
///   kProfShard     id=shard v0=execute_s v1=barrier_s v2=merge_s
///                  u0=events u1=msgs_posted u2=msgs_drained a=n_shards
struct Record {
  double t = 0.0;
  double v0 = 0.0;
  double v1 = 0.0;
  double v2 = 0.0;
  std::uint32_t id = 0;
  std::uint32_t u0 = 0;
  std::uint32_t u1 = 0;
  std::uint32_t u2 = 0;
  Rec kind{};
  std::uint8_t a = 0;
  std::uint16_t pad = 0;
};
static_assert(sizeof(Record) == 56, "journal record layout drifted");

class Journal {
 public:
  struct Config {
    std::string path;  ///< write() destination; empty = in-memory only
    std::size_t max_records = 32'000'000;  ///< drop (and count) beyond this
  };

  explicit Journal(Config config);

  /// Builds a journal when `AIO_JOURNAL` (file destination) or `AIO_REPORT`
  /// (in-process analysis) is set; nullptr when both are unset.  Numbered
  /// paths for multi-machine processes follow TraceSink::from_env: slot k
  /// writes `<path>.k+1`, the -1 default numbers journals in creation order.
  [[nodiscard]] static std::unique_ptr<Journal> from_env(int slot = -1);

  /// Appends one record; bounded by `max_records`, excess is counted.
  void append(const Record& r) {
    if (records_.size() >= config_.max_records) {
      ++dropped_;
      return;
    }
    records_.push_back(r);
  }

  /// Pre-sizes the buffer so steady-state appends never touch the allocator.
  void reserve(std::size_t n) { records_.reserve(std::min(n, config_.max_records)); }

  /// Starts a new run, returning its 1-based ordinal for run-scoped records.
  std::uint32_t begin_run() { return ++runs_; }

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint32_t runs() const { return runs_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Writes the binary journal to `config().path`; no-op (returning true)
  /// when the path is empty, false when the file could not be written.
  [[nodiscard]] bool write() const;
  [[nodiscard]] bool write(const std::string& path) const;

  /// Reads a journal written by write(); nullopt on open/format errors.  A
  /// truncated file loads its whole-record prefix, with a stderr warning.
  [[nodiscard]] static std::optional<Journal> load(const std::string& path);

 private:
  Config config_;
  std::vector<Record> records_;
  std::size_t dropped_ = 0;
  std::uint32_t runs_ = 0;
};

/// Canonical merge of per-shard journals (sharded runs keep one journal per
/// shard engine): every part's records, ordered by timestamp, then record
/// kind (so a run's kRunBegin precedes same-time prologue marks), then
/// bytewise content.  The result depends only on the multiset
/// of records, never on how they were distributed over shards — which is
/// what makes merged digests comparable across shard counts.
[[nodiscard]] std::vector<Record> merge_records(const std::vector<const Journal*>& parts);

}  // namespace aio::obs
