// Multi-MDS metadata tier (DNE-style namespace scale-out).
//
// Lustre's Distributed NamespacE work split the single metadata server into
// several independent servers, each owning a slice of the namespace.  The
// model here is the same shape: `count` independent load-dependent
// `MetadataServer`s, with files placed onto servers by a deterministic FNV-1a
// hash of the path — a stand-in for DNE's directory-shard placement that
// needs no directory table and distributes a file-per-process storm evenly.
//
// Server `i` is the entity `sim::Entity::mds(i)`, homed by `sim::Homes`
// (on a shard group of S shards, on shard ((i+1)·S−1)/count, the span rule
// that places OSTs).  A request from a rank is two `Homes` hand-offs: the
// request to the server, and the completion back to the requester under the
// server's own entity key.  Over one engine both are direct calls; over a
// shard group both cross the compute/metadata boundary and land on window
// boundaries, so placement never moves a timestamp at any shard count.
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

  /// Server `i` runs on `homes.home(sim::Entity::mds(i))`.
  MdsGroup(sim::Homes homes, Config config);
  MdsGroup(const MdsGroup&) = delete;
  MdsGroup& operator=(const MdsGroup&) = delete;

  [[nodiscard]] std::size_t count() const { return servers_.size(); }
  [[nodiscard]] MetadataServer& server(std::size_t i) { return *servers_.at(i); }

  /// Deterministic placement: FNV-1a(path) % count.  Independent of the
  /// shard count, so the same path always lands on the same server.
  [[nodiscard]] std::uint32_t index_of(std::string_view path) const;

  /// Direct submission to server `mds`, from its own engine.
  void submit(std::size_t mds, OpKind kind, OnComplete on_complete) {
    server(mds).submit(kind, std::move(on_complete));
  }
  void submit_batch(std::size_t mds, OpKind kind, std::size_t items, OnComplete on_complete) {
    server(mds).submit_batch(kind, items, std::move(on_complete));
  }

  /// Submission from entity `from`, which the caller is executing as: the
  /// request is handed off to server `mds` and the completion handed back
  /// to `from` (see the file comment).  `on_complete` runs on `from`'s
  /// engine.
  void submit_batch_from(sim::Entity from, std::size_t mds, OpKind kind, std::size_t items,
                         OnComplete on_complete);

  /// Aggregate telemetry over all servers.
  [[nodiscard]] std::size_t backlog() const;          // sum of server backlogs
  [[nodiscard]] std::uint64_t completed_ops() const;  // sum of requests
  [[nodiscard]] std::uint64_t completed_items() const;
  [[nodiscard]] std::size_t peak_backlog() const;     // max over servers

 private:
  sim::Homes homes_;
  std::vector<std::unique_ptr<MetadataServer>> servers_;
};

}  // namespace aio::fs
