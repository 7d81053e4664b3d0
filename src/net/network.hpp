// Simulated interconnect for coordination traffic.
//
// Ranks are placed on nodes (`cores_per_node` consecutive ranks per node,
// matching the sequential rank-to-core assignment the paper exploits when it
// groups a sub-coordinator with its writers).  A message pays a fixed
// point-to-point latency plus transmission through the sending node's NIC,
// which is a processor-sharing resource — simultaneous senders on one node
// contend, which is exactly the intra-node contention the paper's grouping
// choice reduces.
//
// Bulk *data* traffic to storage is modeled inside the OSTs (per-stream caps
// approximate the client link); the network here carries protocol messages
// and index payloads.
//
// Each node's NIC runs on its ranks' home engine, and every delivery is a
// `sim::Homes::couple_after` coupling from sender to receiver, `latency_s`
// after the send (after the NIC drains, for a cross-node payload): exact
// over one engine and between ranks of one node, where it rides the
// engine's fixed-delay lane, and quantized to a window boundary otherwise.
// The NICs are links of one `sim::FluidResource` per engine: rank cuts are
// node-aligned and contiguous, so each engine homes a run of nodes, and a
// node's link is its offset from the run's first node.  NIC state costs 40
// bytes a node, and the allocation count does not grow with the nodes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fluid.hpp"
#include "sim/shard.hpp"

namespace aio::net {

using Rank = std::int32_t;

struct NetConfig {
  double latency_s = 8e-6;          ///< point-to-point latency
  double nic_bw = 2.0e9;            ///< per-node injection bandwidth, bytes/s
  std::size_t cores_per_node = 12;  ///< ranks per node
};

class Network {
 public:
  /// Delivery callback.  Aliases the engine's callback type (96-byte SBO,
  /// move-only) so a send's closure — typically a shared_ptr to the run plus
  /// a full 56-byte protocol `Message` — moves from the caller through the
  /// NIC into the event queue without ever touching the heap or being
  /// re-wrapped in a second callable layer.
  using Deliver = sim::Engine::Callback;

  /// `homes` is one engine or a shard group (rank cuts are node-aligned, so
  /// a node's NIC never straddles shards).
  Network(sim::Homes homes, NetConfig config, std::size_t n_ranks);

  /// Sends `bytes` from `from` to `to`; `deliver` runs at arrival time.
  /// Self-sends skip the NIC but still pay one latency (they cross the
  /// memory hierarchy, and keeping them asynchronous avoids reentrancy).
  /// An out-of-range rank or a negative or NaN `bytes` throws
  /// std::invalid_argument before anything is counted or sent.
  void send(Rank from, Rank to, double bytes, Deliver deliver);

  [[nodiscard]] std::size_t n_ranks() const { return n_ranks_; }
  [[nodiscard]] std::size_t n_nodes() const {
    return (n_ranks_ + config_.cores_per_node - 1) / config_.cores_per_node;
  }
  [[nodiscard]] std::size_t node_of(Rank r) const {
    return static_cast<std::size_t>(r) / config_.cores_per_node;
  }
  [[nodiscard]] std::uint64_t messages_sent() const;
  [[nodiscard]] double bytes_sent() const;
  [[nodiscard]] const NetConfig& config() const { return config_; }

 private:
  // Send accounting and NICs are kept per engine (padded to a cache line)
  // so parallel window execution never contends.
  struct alignas(64) PerEngine {
    std::uint64_t messages = 0;
    double bytes = 0.0;
    std::size_t first_node = 0;                 ///< the run of nodes homed here
    std::unique_ptr<sim::FluidResource> nics;  ///< one link per node of the run
  };

  /// Index of the engine that homes `node`'s NIC.
  [[nodiscard]] std::size_t nic_home(std::size_t node) const {
    return homes_.home_index(sim::Entity::rank(node * config_.cores_per_node));
  }

  sim::Homes homes_;
  NetConfig config_;
  std::size_t n_ranks_;
  std::vector<PerEngine> engines_;
};

}  // namespace aio::net
