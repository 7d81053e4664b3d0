#include "core/protocol/writer_pool.hpp"

#include <stdexcept>
#include <utility>

namespace aio::core {

WriterPool::WriterPool(Layout layout, const std::function<LocalIndex(Rank)>& blueprint_for)
    : layout_(std::move(layout)) {
  if (!layout_.group_of) throw std::invalid_argument("WriterPool: group_of resolver required");
  if (!layout_.sc_of) throw std::invalid_argument("WriterPool: sc_of resolver required");
  if (layout_.bytes.empty()) throw std::invalid_argument("WriterPool: no writers");
  if (!blueprint_for) throw std::invalid_argument("WriterPool: blueprint factory required");
  const std::size_t n = layout_.bytes.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (layout_.bytes[i] <= 0.0)
      throw std::invalid_argument("WriterPool: writer bytes must be > 0");
  }
  states_.assign(n, State::Idle);
  targets_.assign(n, GroupId{-1});
  index_bytes_.resize(n);
  index_blocks_.resize(n);
  grant_seqs_.assign(n, 0);
  if (layout_.carry_records) {
    store_ = std::make_shared<Store>();
    store_->indices.resize(n);
  }
  // Indices are built (and their offset-independent serialized sizes
  // recorded) up front, outside the measured write path.
  for (std::size_t i = 0; i < n; ++i) {
    LocalIndex blueprint = blueprint_for(layout_.first_rank + static_cast<Rank>(i));
    index_bytes_[i] = blueprint.serialized_size();
    index_blocks_[i] = static_cast<std::uint32_t>(blueprint.blocks.size());
    if (store_) store_->indices[i] = std::move(blueprint);
  }
}

Actions WriterPool::on_do_write(Rank rank, const DoWrite& msg) {
  const std::size_t s = slot(rank);
  if (states_[s] != State::Idle)
    throw std::logic_error("WriterPool: DO_WRITE received while not idle");
  states_[s] = State::Writing;
  targets_[s] = msg.target_file;
  grant_seqs_[s] = msg.grant_seq;

  // "Build local index based on offset": stamp the pre-allocated blueprint
  // with its final file locations — no allocation on this path.  Without
  // records there is nothing to stamp: locations change no size.
  if (store_) {
    LocalIndex& index = store_->indices[s];
    index.writer = rank;
    index.file = msg.target_file;
    std::uint64_t cursor = static_cast<std::uint64_t>(msg.offset);
    for (auto& block : index.blocks) {
      block.writer = rank;
      block.file_offset = cursor;
      cursor += block.length;
    }
  }

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
  actions.push_back(SendAction{
      target_sc, Message{rank, IndexBody{local_index(rank), index_bytes_[s], index_blocks_[s]}}});
  actions.push_back(RoleDoneAction{});
  return actions;
}

}  // namespace aio::core
