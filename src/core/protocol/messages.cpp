#include "core/protocol/messages.hpp"

#include <stdexcept>

namespace aio::core {

double Message::wire_bytes() const {
  // Index payload sizes are stamped by the sender, so the per-delivery cost
  // is a field read whether or not the records travel.
  if (const auto* ib = std::get_if<IndexBody>(&body))
    return kControlMsgBytes + static_cast<double>(ib->serialized_bytes);
  if (const auto* si = std::get_if<SubIndex>(&body))
    return kControlMsgBytes + static_cast<double>(si->serialized_bytes);
  return kControlMsgBytes;
}

Topology::Topology(std::size_t n_writers, std::size_t n_groups)
    : n_writers_(n_writers), n_groups_(n_groups) {
  if (n_writers == 0) throw std::invalid_argument("Topology: no writers");
  if (n_groups == 0 || n_groups > n_writers)
    throw std::invalid_argument("Topology: group count must be in [1, n_writers]");
  base_ = n_writers_ / n_groups_;
  rem_ = n_writers_ % n_groups_;
}

GroupId Topology::group_of(Rank r) const {
  const auto rank = static_cast<std::size_t>(r);
  if (r < 0 || rank >= n_writers_) throw std::out_of_range("Topology::group_of");
  // The first rem_ groups have base_+1 ranks.
  const std::size_t big_span = rem_ * (base_ + 1);
  if (rank < big_span) return static_cast<GroupId>(rank / (base_ + 1));
  return static_cast<GroupId>(rem_ + (rank - big_span) / base_);
}

Rank Topology::group_begin(GroupId g) const {
  const auto group = static_cast<std::size_t>(g);
  if (g < 0 || group >= n_groups_) throw std::out_of_range("Topology::group_begin");
  if (group < rem_) return static_cast<Rank>(group * (base_ + 1));
  return static_cast<Rank>(rem_ * (base_ + 1) + (group - rem_) * base_);
}

Rank Topology::sc_rank(GroupId g) const { return group_begin(g); }

std::size_t Topology::group_size(GroupId g) const {
  const auto group = static_cast<std::size_t>(g);
  if (g < 0 || group >= n_groups_) throw std::out_of_range("Topology::group_size");
  return group < rem_ ? base_ + 1 : base_;
}

}  // namespace aio::core
