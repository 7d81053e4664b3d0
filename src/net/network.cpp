#include "net/network.hpp"

#include <algorithm>
#include <ranges>
#include <stdexcept>
#include <utility>

namespace aio::net {

Network::Network(sim::Homes homes, NetConfig config, std::size_t n_ranks)
    : homes_(homes), config_(config), n_ranks_(n_ranks), engines_(homes.n_engines()) {
  if (n_ranks == 0) throw std::invalid_argument("Network: need at least one rank");
  if (config_.cores_per_node == 0) throw std::invalid_argument("Network: cores_per_node == 0");
  homes_.require(sim::Entity::Kind::Rank, n_ranks, "Network");
  // Homes never decrease along the nodes, so each engine's run ends at the
  // first node homed past it.
  const auto nodes = std::views::iota(std::size_t{0}, n_nodes());
  std::size_t first = 0;
  for (std::size_t e = 0; e < engines_.size(); ++e) {
    const auto end = static_cast<std::size_t>(
        std::ranges::partition_point(nodes, [&](std::size_t n) { return nic_home(n) <= e; }) -
        nodes.begin());
    engines_[e].first_node = first;
    engines_[e].nics = std::make_unique<sim::FluidResource>(
        homes_.engine(e), sim::FluidResource::Config{config_.nic_bw, 0.0, 0.0}, end - first);
    first = end;
  }
}

std::uint64_t Network::messages_sent() const {
  std::uint64_t n = 0;
  for (const PerEngine& c : engines_) n += c.messages;
  return n;
}

double Network::bytes_sent() const {
  double n = 0.0;
  for (const PerEngine& c : engines_) n += c.bytes;
  return n;
}

void Network::send(Rank from, Rank to, double bytes, Deliver deliver) {
  if (from < 0 || static_cast<std::size_t>(from) >= n_ranks_ || to < 0 ||
      static_cast<std::size_t>(to) >= n_ranks_) {
    throw std::invalid_argument("Network::send: rank out of range");
  }
  // Negated so NaN is rejected too, before any counter moves.
  if (!(bytes >= 0.0)) throw std::invalid_argument("Network::send: negative or NaN bytes");
  PerEngine& ctr = engines_[homes_.here_index()];
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
  const std::size_t node = node_of(from);
  PerEngine& home = engines_[nic_home(node)];
  home.nics->start(node - home.first_node, bytes, std::move(relay));
}

}  // namespace aio::net
