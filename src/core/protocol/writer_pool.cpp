#include "core/protocol/writer_pool.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace aio::core {

WriterPool::WriterPool(Layout layout, const std::function<IndexSize(Rank)>& index_size_of)
    : layout_(std::move(layout)) {
  if (!layout_.group_of) throw std::invalid_argument("WriterPool: group_of resolver required");
  if (!layout_.sc_of) throw std::invalid_argument("WriterPool: sc_of resolver required");
  if (layout_.bytes.empty()) throw std::invalid_argument("WriterPool: no writers");
  if (!index_size_of) throw std::invalid_argument("WriterPool: index size function required");
  const std::size_t n = layout_.bytes.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!(layout_.bytes[i] > 0.0 && std::isfinite(layout_.bytes[i])))
      throw std::invalid_argument("WriterPool: writer bytes must be > 0");
  }
  states_.assign(n, State::Idle);
  targets_.assign(n, GroupId{-1});
  index_bytes_.resize(n);
  index_blocks_.resize(n);
  grant_seqs_.assign(n, 0);
  if (layout_.carry_records) offsets_.resize(n);
  // Sizes are offset-independent, so they are read up front, outside the
  // measured write path; a reader of the kept index builds the records.
  for (std::size_t i = 0; i < n; ++i) {
    const IndexSize size = index_size_of(layout_.first_rank + static_cast<Rank>(i));
    index_bytes_[i] = size.bytes;
    index_blocks_[i] = static_cast<std::uint32_t>(size.blocks);
  }
}

Actions WriterPool::on_do_write(Rank rank, const DoWrite& msg) {
  const std::size_t s = slot(rank);
  if (states_[s] != State::Idle)
    throw std::logic_error("WriterPool: DO_WRITE received while not idle");
  states_[s] = State::Writing;
  targets_[s] = msg.target_file;
  grant_seqs_[s] = msg.grant_seq;

  // "Build local index based on offset": the offset is all a build needs to
  // stamp the blueprint's blocks.
  if (!offsets_.empty()) offsets_[s] = static_cast<std::uint64_t>(msg.offset);

  return {StartWriteAction{msg.target_file, msg.offset, layout_.bytes[s]}};
}

Actions WriterPool::on_write_done(Rank rank) {
  const std::size_t s = slot(rank);
  if (states_[s] != State::Writing)
    throw std::logic_error("WriterPool: write completion while not writing");
  states_[s] = State::Done;

  const GroupId group = layout_.group_of(rank);
  const Rank my_sc = layout_.sc_of(group);
  const Rank target_sc = layout_.sc_of(targets_[s]);
  const double index_bytes = static_cast<double>(index_bytes_[s]);

  WriteComplete done;
  done.kind = WriteComplete::Kind::WriterDone;
  done.writer = rank;
  done.origin_group = group;
  done.file = targets_[s];
  done.bytes = layout_.bytes[s];
  done.index_bytes = index_bytes;
  done.grant_seq = grant_seqs_[s];

  Actions actions;
  actions.push_back(SendAction{my_sc, Message{rank, done}});
  if (target_sc != my_sc) {
    actions.push_back(SendAction{target_sc, Message{rank, done}});
  }
  const std::uint64_t offset = offsets_.empty() ? 0 : offsets_[s];
  actions.push_back(SendAction{
      target_sc,
      Message{rank, IndexBody{rank, targets_[s], offset, index_bytes_[s], index_blocks_[s]}}});
  actions.push_back(RoleDoneAction{});
  return actions;
}

}  // namespace aio::core
