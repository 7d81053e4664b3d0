// Parallel file system: OSTs + metadata tier + fabric + striped files.
//
// Mirrors the structure of the Lustre scratch systems in the paper: a file
// is striped round-robin over a subset of the storage targets, a metadata
// tier (one server by default, `n_mds` for DNE-style scale-out — see
// fs/mds_group.hpp) brokers opens/closes, and the storage fabric caps the
// aggregate bandwidth.  The Lustre 1.6 limit the paper works around — at
// most 160 storage targets for a single file — is enforced here and is what
// handicaps the shared-file MPI-IO baseline.
//
// OSTs and metadata servers are placed by `sim::Homes`.  The fabric governor
// is the one model difference between engines: one engine's governor decides
// on every OST transition, a shard group's per-shard replicas once per
// window boundary, from the boundary tally (`sim::ShardGroup::tally`) of the
// window's net activity change.
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
  using OnComplete = Ost::OnComplete;

  /// OST `i` runs on `homes.home(sim::Entity::ost(i))`; metadata servers are
  /// placed likewise (see MdsGroup).  A shard group must have been built for
  /// the same OST and MDS counts.
  FileSystem(sim::Homes homes, FsConfig config);

  [[nodiscard]] sim::Homes homes() const { return homes_; }
  /// Engine 0: the only engine over one engine, the seeding engine of a
  /// shard group.
  [[nodiscard]] sim::Engine& engine() { return homes_.engine(0); }
  [[nodiscard]] const FsConfig& config() const { return config_; }
  [[nodiscard]] std::size_t n_osts() const { return osts_.size(); }
  [[nodiscard]] Ost& ost(std::size_t i) { return *osts_.at(i); }
  /// First metadata server — the whole tier when `n_mds == 1` (the classic
  /// single-MDS model and every pre-tier caller's expectation).
  [[nodiscard]] MetadataServer& mds() { return mds_.server(0); }
  [[nodiscard]] MdsGroup& mds_group() { return mds_; }
  [[nodiscard]] std::vector<Ost*> ost_pointers();

  /// Creates a file without metadata traffic (callers that time opens
  /// submit them to the metadata tier themselves; the paper's Section II
  /// measurements exclude open/close entirely).  `stripe_count` is clamped
  /// to the per-file stripe limit; `first_ost` mimics Lustre's stripe-offset
  /// control used to pin files to specific targets.  The file reference
  /// stays valid for the life of the FileSystem.
  StripedFile& open_immediate(std::string path, std::size_t stripe_count, std::size_t first_ost,
                              double stripe_size = 0.0);

  /// Closes a file through the metadata tier (the server owning its path).
  void close(StripedFile& file, OnComplete on_complete);

  /// Total bytes accepted by all OSTs (conservation checks in tests).
  [[nodiscard]] double total_bytes_submitted() const;

  /// Registers the standard file-system probe set on `sampler`: per-OST
  /// cache occupancy, in-flight streams, effective (drain) bandwidth and
  /// background-load level for the first `per_ost_limit` OSTs, plus
  /// fleet-wide aggregates and the MDS backlog.  The per-OST limit bounds
  /// series count on 672-target machines; aggregates always cover all OSTs.
  void register_probes(obs::Sampler& sampler, std::size_t per_ost_limit);

 private:
  sim::Homes homes_;
  FsConfig config_;
  std::vector<std::unique_ptr<Ost>> osts_;
  MdsGroup mds_;
  std::deque<FabricGovernor> fabrics_;  // one per engine
  std::vector<std::unique_ptr<StripedFile>> files_;
};

}  // namespace aio::fs
