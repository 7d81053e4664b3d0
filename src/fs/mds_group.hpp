// Multi-MDS metadata tier (DNE-style namespace scale-out).
//
// Lustre's Distributed NamespacE work split the single metadata server into
// several independent servers, each owning a slice of the namespace.  The
// model here is the same shape: `count` independent load-dependent
// `MetadataServer`s, with files placed onto servers by a deterministic FNV-1a
// hash of the path — a stand-in for DNE's directory-shard placement that
// needs no directory table and distributes a file-per-process storm evenly.
//
// Two execution modes mirror `FileSystem`:
//   * classic — every server lives on one engine; submits are direct calls.
//   * sharded — server `i` is homed on the shard that owns its domain
//     (`ShardGroup::domain_of_mds`, the same span rule that places OSTs).
//     Requests from ranks reach the server through the channel plane
//     (`submit_from`), and completions hop back the same way using the
//     server's own entity key — so every rank→MDS coupling quantizes at a
//     window boundary regardless of which shard either side lives on, and
//     simulated timestamps stay bit-identical at every shard count.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "fs/mds.hpp"
#include "sim/engine.hpp"
#include "sim/shard.hpp"

namespace aio::fs {

class MdsGroup {
 public:
  struct Config {
    std::size_t count = 1;          ///< metadata servers (clamped to >= 1)
    MetadataServer::Config server;  ///< shared per-server service model
  };
  using OpKind = MetadataServer::OpKind;
  using OnComplete = MetadataServer::OnComplete;

  /// Classic construction: all servers share `engine`.
  MdsGroup(sim::Engine& engine, Config config);
  /// Sharded construction: server `i` lives on the engine of the shard that
  /// owns domain `shards.domain_of_mds(i)`.
  MdsGroup(sim::ShardGroup& shards, Config config);
  MdsGroup(const MdsGroup&) = delete;
  MdsGroup& operator=(const MdsGroup&) = delete;

  [[nodiscard]] std::size_t count() const { return servers_.size(); }
  [[nodiscard]] MetadataServer& server(std::size_t i) { return *servers_.at(i); }

  /// Deterministic placement: FNV-1a(path) % count.  Independent of shard
  /// and domain counts, so the same path always lands on the same server.
  [[nodiscard]] std::uint32_t index_of(std::string_view path) const;

  /// Direct submission to server `mds` (classic mode, or callers already on
  /// the server's home shard during seeding).
  void submit(std::size_t mds, OpKind kind, OnComplete on_complete) {
    server(mds).submit(kind, std::move(on_complete));
  }
  void submit_batch(std::size_t mds, OpKind kind, std::size_t items, OnComplete on_complete) {
    server(mds).submit_batch(kind, items, std::move(on_complete));
  }

  /// Submission from the entity with merge key `src_key` (a rank's node
  /// key).  Classic mode degenerates to a direct call.  Sharded mode posts
  /// the request to the server's home shard through the channel plane and
  /// posts the completion back to the calling shard under the server's own
  /// entity key — both hops quantize at window boundaries, keeping the
  /// metadata path bit-identical at every shard count.
  void submit_from(std::uint32_t src_key, std::size_t mds, OpKind kind, OnComplete on_complete) {
    submit_batch_from(src_key, mds, kind, 1, std::move(on_complete));
  }
  void submit_batch_from(std::uint32_t src_key, std::size_t mds, OpKind kind, std::size_t items,
                         OnComplete on_complete);

  /// Aggregate telemetry over all servers.
  [[nodiscard]] std::size_t backlog() const;          // sum of server backlogs
  [[nodiscard]] std::uint64_t completed_ops() const;  // sum of requests
  [[nodiscard]] std::uint64_t completed_items() const;
  [[nodiscard]] std::size_t peak_backlog() const;     // max over servers

 private:
  sim::ShardGroup* shards_ = nullptr;
  std::vector<std::unique_ptr<MetadataServer>> servers_;
};

}  // namespace aio::fs
