#include "net/network.hpp"

#include <stdexcept>
#include <utility>

namespace aio::net {

Network::Network(sim::Homes homes, NetConfig config, std::size_t n_ranks)
    : homes_(homes), config_(config), n_ranks_(n_ranks), counters_(homes.n_engines()) {
  if (n_ranks == 0) throw std::invalid_argument("Network: need at least one rank");
  if (config_.cores_per_node == 0) throw std::invalid_argument("Network: cores_per_node == 0");
  homes_.require(sim::Entity::Kind::Rank, n_ranks, "Network");
  const std::size_t nodes = (n_ranks + config_.cores_per_node - 1) / config_.cores_per_node;
  nics_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    nics_.push_back(std::make_unique<sim::FluidResource>(
        homes_.home(sim::Entity::rank(i * config_.cores_per_node)),
        sim::FluidResource::Config{config_.nic_bw, 0.0, 0.0}));
  }
}

std::uint64_t Network::messages_sent() const {
  std::uint64_t n = 0;
  for (const Counters& c : counters_) n += c.messages;
  return n;
}

double Network::bytes_sent() const {
  double n = 0.0;
  for (const Counters& c : counters_) n += c.bytes;
  return n;
}

void Network::send(Rank from, Rank to, double bytes, Deliver deliver) {
  if (from < 0 || static_cast<std::size_t>(from) >= n_ranks_ || to < 0 ||
      static_cast<std::size_t>(to) >= n_ranks_) {
    throw std::invalid_argument("Network::send: rank out of range");
  }
  // Negated so NaN is rejected too, before any counter moves.
  if (!(bytes >= 0.0)) throw std::invalid_argument("Network::send: negative or NaN bytes");
  Counters& ctr = counters_[homes_.here_index()];
  ++ctr.messages;
  ctr.bytes += bytes;
  if (from == to || bytes == 0.0) {
    homes_.couple_after(sim::Entity::rank(from), sim::Entity::rank(to), config_.latency_s,
                        std::move(deliver));
    return;
  }
  // The NIC belongs to the sender's node, so the relay fires on the
  // sender's engine and couples from there.
  auto relay = [this, from, to, deliver = std::move(deliver)](sim::Time) mutable {
    homes_.couple_after(sim::Entity::rank(from), sim::Entity::rank(to), config_.latency_s,
                        std::move(deliver));
  };
  // The relay (this + two ranks + a 96-byte-SBO Deliver) must fit the fluid
  // callback's SBO, or every cross-node message would heap-allocate.
  static_assert(sizeof(relay) <= 128, "NIC relay closure outgrew FluidResource::OnComplete SBO");
  nics_[node_of(from)]->start(bytes, std::move(relay));
}

}  // namespace aio::net
