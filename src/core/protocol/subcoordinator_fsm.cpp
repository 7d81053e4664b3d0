#include "core/protocol/subcoordinator_fsm.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

namespace aio::core {

SubCoordinatorFsm::SubCoordinatorFsm(Config config)
    : config_(std::move(config)), writers_remaining_(config_.n_members) {
  if (config_.group < 0 || config_.rank < 0)
    throw std::invalid_argument("SubCoordinatorFsm: incomplete config");
  if (config_.n_members == 0)
    throw std::invalid_argument("SubCoordinatorFsm: a group needs at least one member");
  if (config_.n_members != config_.member_bytes.size())
    throw std::invalid_argument("SubCoordinatorFsm: member/bytes size mismatch");
  if (config_.first_member != config_.rank)
    throw std::invalid_argument("SubCoordinatorFsm: SC must be its group's first member");
  if (config_.max_concurrent == 0)
    throw std::invalid_argument("SubCoordinatorFsm: max_concurrent must be >= 1");
  // The list is shared up front, so shipping it allocates nothing.  Members
  // are the usual writers into this file, so one reservation covers every
  // arrival unless steals land here.
  if (config_.keep_placements) {
    placements_ = std::make_shared<std::vector<Placement>>();
    placements_->reserve(config_.n_members);
  }
}

Actions SubCoordinatorFsm::start() { return signal_next_writers(); }

Actions SubCoordinatorFsm::signal_next_writers() {
  // "Signal next waiting writer to write" (Algorithm 2, line 2): keep up to
  // max_concurrent local writes in flight; offsets are assigned lazily so a
  // stolen writer never leaves a hole in this file.
  Actions out;
  while (active_local_ < config_.max_concurrent && next_waiting_ < config_.n_members) {
    const std::size_t m = next_waiting_++;
    ++active_local_;
    DoWrite msg{config_.group, local_offset_};
    local_offset_ += config_.member_bytes[m];
    out.push_back(SendAction{member(m), Message{config_.rank, msg}});
  }
  return out;
}

Actions SubCoordinatorFsm::on_write_complete(const WriteComplete& msg) {
  if (msg.kind != WriteComplete::Kind::WriterDone)
    throw std::logic_error("SubCoordinatorFsm: unexpected WRITE_COMPLETE kind");
  Actions out;

  const bool mine = msg.origin_group == config_.group;
  const bool into_my_file = msg.file == config_.group;

  if (mine) {
    if (writers_remaining_ == 0)
      throw std::logic_error("SubCoordinatorFsm: completion after all writers done");
    --writers_remaining_;
    if (!into_my_file) {
      // "if source is one of mine, but target is not me: send adaptive
      // WRITE_COMPLETE to C" (Algorithm 2, lines 5-6).
      WriteComplete fwd = msg;
      fwd.kind = WriteComplete::Kind::AdaptiveDone;
      out.push_back(SendAction{config_.coordinator, Message{config_.rank, fwd}});
    } else {
      --active_local_;
      out.append(signal_next_writers());
    }
    if (writers_remaining_ == 0 && !group_done_sent_) {
      // "if all writers completed: send WRITE_COMPLETE to C" (lines 12-13).
      group_done_sent_ = true;
      WriteComplete done;
      done.kind = WriteComplete::Kind::GroupDone;
      done.origin_group = config_.group;
      done.file = config_.group;
      done.final_offset = local_offset_;
      out.push_back(SendAction{config_.coordinator, Message{config_.rank, done}});
    }
  }
  if (into_my_file) {
    // Count every write landing in my file, local or adaptive ("Save index
    // size for index message; missing indices++", lines 8-10).
    ++completions_into_file_;
  }
  if (mine && !into_my_file) ++redirected_;
  check_ready_to_index(out);
  return out;
}

Actions SubCoordinatorFsm::on_index_body(const IndexBody& msg) {
  if (msg.serialized_bytes < LocalIndex::kHeaderBytes)
    throw std::invalid_argument("SubCoordinatorFsm: INDEX_BODY without its size");
  if (msg.file != config_.group)
    throw std::logic_error("SubCoordinatorFsm: INDEX_BODY for another file");
  // "Save for index for local file; missing indices--" (lines 16-18).  A
  // file index is its header plus every local index's block bytes.
  file_index_bytes_ += msg.serialized_bytes - LocalIndex::kHeaderBytes;
  file_index_blocks_ += msg.blocks;
  if (placements_) placements_->push_back({msg.writer, msg.offset});
  ++indices_received_;
  Actions out;
  check_ready_to_index(out);
  return out;
}

Actions SubCoordinatorFsm::on_adaptive_write_start(const AdaptiveWriteStart& msg) {
  Actions out;
  if (next_waiting_ >= config_.n_members) {
    // "if no waiting writers: send WRITERS_BUSY to C" (lines 21-22).
    out.push_back(SendAction{config_.coordinator,
                             Message{config_.rank, WritersBusy{config_.group, msg.target_file}}});
    return out;
  }
  // "Signal writer with new target and offset" (line 24).  The redirected
  // write does not occupy this SC's local in-flight window.
  const std::size_t m = next_waiting_++;
  out.push_back(SendAction{
      member(m),
      Message{config_.rank, DoWrite{msg.target_file, msg.offset, msg.grant_seq}}});
  return out;
}

Actions SubCoordinatorFsm::on_overall_write_complete(const OverallWriteComplete& msg) {
  overall_received_ = true;
  expected_indices_ = msg.expected_indices;
  final_data_offset_ = msg.final_data_offset;
  Actions out;
  check_ready_to_index(out);
  return out;
}

void SubCoordinatorFsm::check_ready_to_index(Actions& out) {
  // "while not done and missing indices != 0" (line 1) — made reordering-
  // safe by comparing against the coordinator's expectation.
  if (state_ != State::Writing && state_ != State::Draining) return;
  if (writers_remaining_ == 0 && state_ == State::Writing) state_ = State::Draining;
  if (!overall_received_ || indices_received_ < expected_indices_) return;
  if (indices_received_ > expected_indices_)
    throw std::logic_error("SubCoordinatorFsm: more indices than expected");

  // "Sort and merge the index pieces for file index; Write the index"
  // (lines 31-32).  The write is timed from the streamed size; whoever reads
  // the index sorts and merges it (core::build_file_index).
  state_ = State::IndexWriting;
  out.push_back(WriteIndexAction{config_.group, final_data_offset_,
                                 static_cast<double>(file_index_bytes_)});
}

Actions SubCoordinatorFsm::on_index_write_done() {
  if (state_ != State::IndexWriting)
    throw std::logic_error("SubCoordinatorFsm: index write completion out of order");
  state_ = State::Done;
  // "Send the index to C" (line 33).  The runtime has already written the
  // index to the file (that is what this completion notifies), so the
  // placements move into the message.
  Actions out;
  out.push_back(SendAction{config_.coordinator,
                           Message{config_.rank, SubIndex{config_.group, std::move(placements_),
                                                          file_index_bytes_, file_index_blocks_}}});
  out.push_back(RoleDoneAction{});
  return out;
}

}  // namespace aio::core
