// Parallel file system: OSTs + metadata tier + fabric + striped files.
//
// Mirrors the structure of the Lustre scratch systems in the paper: a file
// is striped round-robin over a subset of the storage targets, a metadata
// tier (one server by default, `n_mds` for DNE-style scale-out — see
// fs/mds_group.hpp) brokers opens/closes, and the storage fabric caps the
// aggregate bandwidth.  The Lustre 1.6 limit the paper works around — at
// most 160 storage targets for a single file — is enforced here and is what
// handicaps the shared-file MPI-IO baseline.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fs/fabric.hpp"
#include "fs/mds.hpp"
#include "fs/mds_group.hpp"
#include "fs/ost.hpp"
#include "sim/engine.hpp"
#include "sim/shard.hpp"

namespace aio::obs {
class Sampler;
}  // namespace aio::obs

namespace aio::fs {

struct FsConfig {
  std::size_t n_osts = 672;
  Ost::Config ost;
  double fabric_bw = 75e9;        ///< aggregate storage-network cap; 0 = none
  MetadataServer::Config mds;
  std::size_t n_mds = 1;          ///< metadata servers (DNE-style tier)
  std::size_t stripe_limit = 160; ///< max OSTs for a single file (Lustre 1.6)
  double default_stripe_size = 4.0 * (1 << 20);
};

class FileSystem;

/// A file striped over a fixed list of storage targets.  A contiguous write
/// walks its byte range through the stripes in file order (the access
/// pattern of a POSIX/MPI-IO writer), issuing one OST write per contiguous
/// per-target segment, chained sequentially as a real client would.
class StripedFile {
 public:
  /// Completion callback: the OST's move-only 64-byte-SBO type, shared so a
  /// single-segment write/read passes the caller's callback straight to the
  /// target OST with no extra wrapper layer (the common case — transports
  /// write rank-contiguous regions that live on one target).
  using OnComplete = Ost::OnComplete;

  /// Writes `bytes` at `offset`.  `max_segments` bounds the chain length for
  /// ranges spanning many stripes (coalescing adjacent stripes).
  void write(double offset, double bytes, Ost::Mode mode, OnComplete on_complete,
             std::size_t max_segments = 16);

  /// Durable barrier over every stripe target of this file.
  void flush(OnComplete on_complete);

  /// Reads `bytes` at `offset`, walking the stripes like write() does.
  void read(double offset, double bytes, OnComplete on_complete,
            std::size_t max_segments = 16);

  [[nodiscard]] std::size_t stripe_count() const { return targets_.size(); }
  [[nodiscard]] double stripe_size() const { return stripe_size_; }
  [[nodiscard]] const std::vector<std::size_t>& targets() const { return targets_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  /// Index of the OST holding byte `offset`.
  [[nodiscard]] std::size_t target_of(double offset) const;

 private:
  friend class FileSystem;
  StripedFile(FileSystem& fs, std::string path, std::vector<std::size_t> targets,
              double stripe_size);

  using Segments = std::vector<std::pair<std::size_t, double>>;  // (ost, bytes)
  struct ReadState;

  /// Splits [offset, offset+bytes) into at most `max_segments` per-target
  /// pieces.  Only called on the multi-stripe slow path.
  [[nodiscard]] Segments split_segments(double offset, double bytes,
                                        std::size_t max_segments) const;

  void write_chain(Segments segments, std::size_t next, Ost::Mode mode, OnComplete on_complete);
  void read_chain(std::shared_ptr<ReadState> state, std::size_t next);

  FileSystem& fs_;
  std::string path_;
  std::vector<std::size_t> targets_;  // OST indices, stripe order
  double stripe_size_;
};

class FileSystem {
 public:
  /// Open callback (move-only, 64-byte SBO).  Its 80-byte object plus the
  /// file reference must fit the metadata server's 96-byte callback SBO —
  /// that pairing is what keeps an open storm allocation-free.
  using OpenCallback = sim::InplaceFunction<void(StripedFile&, sim::Time), 64>;
  using OnComplete = Ost::OnComplete;

  FileSystem(sim::Engine& engine, FsConfig config);

  /// Sharded construction: OST `i` is homed on the engine of the shard that
  /// owns its domain, metadata server `i` is homed by the shard group's MDS
  /// span rule (callers on other shards reach it through the channel plane
  /// via close_from / MdsGroup::submit_from), and the fabric governor is
  /// replicated per shard — every replica consumes the same globally merged
  /// activity stream at window boundaries, so all replicas agree bit-exactly
  /// and each touches only shard-local OSTs.  The shard group must have been
  /// built with a matching `n_mds`.
  FileSystem(sim::ShardGroup& shards, FsConfig config);

  /// Shard group this file system is homed on; null for classic runs.
  [[nodiscard]] sim::ShardGroup* shards() { return shards_; }

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] const FsConfig& config() const { return config_; }
  [[nodiscard]] std::size_t n_osts() const { return osts_.size(); }
  [[nodiscard]] Ost& ost(std::size_t i) { return *osts_.at(i); }
  /// First metadata server — the whole tier when `n_mds == 1` (the classic
  /// single-MDS model and every pre-tier caller's expectation).
  [[nodiscard]] MetadataServer& mds() { return mds_.server(0); }
  [[nodiscard]] MdsGroup& mds_group() { return mds_; }
  [[nodiscard]] FabricGovernor& fabric() { return fabric_; }
  [[nodiscard]] std::vector<Ost*> ost_pointers();

  /// Opens (creates) a file through the metadata server.  `stripe_count` is
  /// clamped to the per-file stripe limit; `first_ost` mimics Lustre's
  /// stripe-offset control used to pin files to specific targets.
  /// The file reference stays valid for the life of the FileSystem.
  void open(std::string path, std::size_t stripe_count, std::size_t first_ost,
            OpenCallback on_open, double stripe_size = 0.0);

  /// Synchronous variant for callers that handle metadata timing themselves
  /// (the paper's Section II measurements exclude open/close entirely).
  StripedFile& open_immediate(std::string path, std::size_t stripe_count, std::size_t first_ost,
                              double stripe_size = 0.0);

  /// Closes a file through the metadata tier (the server owning its path).
  void close(StripedFile& file, OnComplete on_complete);

  /// Sharded close from the entity with merge key `src_key`: the request and
  /// its completion ride the channel plane (MdsGroup::submit_from), so any
  /// shard may close any file.  Classic runs degenerate to close().
  void close_from(std::uint32_t src_key, StripedFile& file, OnComplete on_complete);

  /// Total bytes accepted by all OSTs (conservation checks in tests).
  [[nodiscard]] double total_bytes_submitted() const;

  /// Registers the standard file-system probe set on `sampler`: per-OST
  /// cache occupancy, in-flight streams, effective (drain) bandwidth and
  /// background-load level for the first `per_ost_limit` OSTs, plus
  /// fleet-wide aggregates and the MDS backlog.  The per-OST limit bounds
  /// series count on 672-target machines; aggregates always cover all OSTs.
  void register_probes(obs::Sampler& sampler, std::size_t per_ost_limit = 32);

 private:
  StripedFile& make_file(std::string path, std::size_t stripe_count, std::size_t first_ost,
                         double stripe_size);

  sim::Engine& engine_;
  FsConfig config_;
  sim::ShardGroup* shards_ = nullptr;
  std::vector<std::unique_ptr<Ost>> osts_;
  MdsGroup mds_;
  FabricGovernor fabric_;
  std::deque<FabricGovernor> fabric_replicas_;  // one per shard (sharded runs)
  std::vector<std::unique_ptr<StripedFile>> files_;
};

}  // namespace aio::fs
