#include "fs/mds_group.hpp"

#include <stdexcept>
#include <utility>

namespace aio::fs {

MdsGroup::MdsGroup(sim::Homes homes, Config config) : homes_(homes) {
  const std::size_t n = config.count != 0 ? config.count : 1;
  homes_.require(sim::Entity::Kind::Mds, n, "MdsGroup");
  servers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    servers_.push_back(std::make_unique<MetadataServer>(homes_.home(sim::Entity::mds(i)),
                                                        config.server,
                                                        static_cast<std::uint32_t>(i)));
}

std::uint32_t MdsGroup::index_of(std::string_view path) const {
  // FNV-1a, the journal digest's hash: cheap, stable, and spreads a
  // file-per-process naming scheme (common prefix + rank suffix) evenly.
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : path) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return static_cast<std::uint32_t>(h % servers_.size());
}

void MdsGroup::submit_batch_from(sim::Entity from, std::size_t mds, OpKind kind,
                                 std::size_t items, OnComplete on_complete) {
  homes_.hand_off(from, sim::Entity::mds(mds),
                  [this, from, mds, kind, items, on_complete = std::move(on_complete)]() mutable {
                    server(mds).submit_batch(
                        kind, items,
                        [this, from, mds, on_complete = std::move(on_complete)](sim::Time) mutable {
                          homes_.hand_off(sim::Entity::mds(mds), from,
                                          [this, on_complete = std::move(on_complete)]() mutable {
                                            if (on_complete) on_complete(homes_.here().now());
                                          });
                        });
                  });
}

std::size_t MdsGroup::backlog() const {
  std::size_t total = 0;
  for (const auto& s : servers_) total += s->backlog();
  return total;
}

std::uint64_t MdsGroup::completed_ops() const {
  std::uint64_t total = 0;
  for (const auto& s : servers_) total += s->completed_ops();
  return total;
}

std::uint64_t MdsGroup::completed_items() const {
  std::uint64_t total = 0;
  for (const auto& s : servers_) total += s->completed_items();
  return total;
}

std::size_t MdsGroup::peak_backlog() const {
  std::size_t peak = 0;
  for (const auto& s : servers_)
    if (s->peak_backlog() > peak) peak = s->peak_backlog();
  return peak;
}

}  // namespace aio::fs
