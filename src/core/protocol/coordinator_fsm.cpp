#include "core/protocol/coordinator_fsm.hpp"

#include <stdexcept>
#include <utility>

namespace aio::core {

CoordinatorFsm::CoordinatorFsm(Config config)
    : config_(std::move(config)), kept_(config_.blueprint) {
  if (config_.n_groups == 0) throw std::invalid_argument("CoordinatorFsm: no groups");
  if (!config_.group_size_of)
    throw std::invalid_argument("CoordinatorFsm: group_size_of resolver required");
  if (!config_.sc_of) throw std::invalid_argument("CoordinatorFsm: sc_of resolver required");
  sc_states_.assign(config_.n_groups, ScState::Writing);
  skip_.resize(config_.n_groups);
  for (std::size_t g = 0; g < config_.n_groups; ++g) skip_[g] = g;
  next_offset_.assign(config_.n_groups, 0.0);
  file_busy_.assign(config_.n_groups, false);
  writes_into_.assign(config_.n_groups, 0);
  stolen_from_.assign(config_.n_groups, 0);
  if (config_.blueprint) kept_.reserve(config_.n_groups);  // one sub-index per group
}

std::size_t CoordinatorFsm::next_writing(std::size_t i) {
  // SC states only move forward (Writing -> Busy/Complete, never back), so a
  // group observed non-Writing can be skipped forever: follow/extend skip
  // pointers to the first Writing group >= i, then point the walked chain at
  // the answer.  Amortized ~O(1) per grant vs. the old O(n_groups) probe.
  std::size_t j = i;
  while (j < config_.n_groups) {
    if (skip_[j] != j) {
      j = skip_[j];
      continue;
    }
    if (sc_states_[j] == ScState::Writing) break;
    skip_[j] = j + 1;
    ++j;
  }
  std::size_t k = i;
  while (k < j && k < config_.n_groups) {
    const std::size_t next = skip_[k] == k ? k + 1 : skip_[k];
    skip_[k] = j;
    k = next;
  }
  return j;
}

Actions CoordinatorFsm::on_write_complete(const WriteComplete& msg) {
  Actions out;
  switch (msg.kind) {
    case WriteComplete::Kind::AdaptiveDone: {
      // "if this was an adaptive write: request adaptive write by next
      // writing SC" (Algorithm 3, lines 4-5).  The target file is free
      // again; account for the stolen writer and try to refill the file.
      const auto file = static_cast<std::size_t>(msg.file);
      if (file >= config_.n_groups || !file_busy_[file])
        throw std::logic_error("CoordinatorFsm: unexpected ADAPTIVE_WRITE_COMPLETE");
      file_busy_[file] = false;
      --outstanding_;
      ++writes_into_[file];
      ++stolen_from_[static_cast<std::size_t>(msg.origin_group)];
      ++total_steals_;
      next_offset_[file] += msg.bytes;
      request_adaptive(msg.file, out);
      break;
    }
    case WriteComplete::Kind::GroupDone: {
      // "if this is an SC completing: set state complete; note final offset;
      // request adaptive write by next writing SC" (lines 6-11).
      const auto group = static_cast<std::size_t>(msg.origin_group);
      if (group >= config_.n_groups || sc_states_[group] == ScState::Complete)
        throw std::logic_error("CoordinatorFsm: duplicate GROUP_WRITE_COMPLETE");
      sc_states_[group] = ScState::Complete;
      ++n_complete_;
      next_offset_[group] = msg.final_offset;
      request_adaptive(msg.origin_group, out);
      break;
    }
    case WriteComplete::Kind::WriterDone:
      throw std::logic_error("CoordinatorFsm: raw WRITE_COMPLETE reached the coordinator");
  }
  check_all_done(out);
  return out;
}

Actions CoordinatorFsm::on_writers_busy(const WritersBusy& msg) {
  // "Set SC state to busy; request adaptive write by next writing SC"
  // (lines 12-15) — the declined grant is retried with a different SC.
  Actions out;
  const auto group = static_cast<std::size_t>(msg.group);
  const auto file = static_cast<std::size_t>(msg.target_file);
  if (group >= config_.n_groups || file >= config_.n_groups || !file_busy_[file])
    throw std::logic_error("CoordinatorFsm: unexpected WRITERS_BUSY");
  if (sc_states_[group] == ScState::Writing) sc_states_[group] = ScState::Busy;
  file_busy_[file] = false;
  --outstanding_;
  request_adaptive(msg.target_file, out);
  check_all_done(out);
  return out;
}

void CoordinatorFsm::request_adaptive(GroupId target, Actions& out) {
  if (!config_.stealing_enabled) return;
  const auto file = static_cast<std::size_t>(target);
  if (sc_states_[file] != ScState::Complete || file_busy_[file]) return;

  std::size_t chosen = config_.n_groups;  // sentinel: none
  if (config_.steal_source == StealSource::MostRemaining) {
    // Prefer the source whose queue is (by the coordinator's accounting)
    // longest: group size minus writers already redirected away.  Iterating
    // only the still-Writing groups (ascending, first-maximal wins) matches
    // the full scan's choice exactly.
    std::size_t best_remaining = 0;
    for (std::size_t g = next_writing(0); g < config_.n_groups; g = next_writing(g + 1)) {
      const std::size_t size = config_.group_size_of(static_cast<GroupId>(g));
      const std::size_t remaining =
          size > stolen_from_[g] ? size - static_cast<std::size_t>(stolen_from_[g]) : 0;
      if (chosen == config_.n_groups || remaining > best_remaining) {
        chosen = g;
        best_remaining = remaining;
      }
    }
  } else {
    // Round-robin over still-writing SCs spreads the accelerated completion
    // rather than draining one SC at a time (the paper's choice).  First
    // Writing group at or after the cursor, wrapping once — the same pick as
    // probing every slot in cursor order.
    std::size_t candidate = next_writing(rr_cursor_);
    if (candidate == config_.n_groups) candidate = next_writing(0);
    if (candidate < config_.n_groups) {
      rr_cursor_ = (candidate + 1) % config_.n_groups;
      chosen = candidate;
    }
  }
  if (chosen == config_.n_groups) return;  // no writing SC left; file stays idle

  file_busy_[file] = true;
  ++outstanding_;
  ++grants_issued_;
  // grants_issued_ doubles as the 1-based provenance id echoed back through
  // DoWrite and WriteComplete (grant_seq); declined grants burn an id, which
  // keeps every issued id unique.
  const AdaptiveWriteStart grant{target, next_offset_[file], grants_issued_};
  out.push_back(
      SendAction{config_.sc_of(static_cast<GroupId>(chosen)), Message{config_.rank, grant}});
}

void CoordinatorFsm::check_all_done(Actions& out) {
  if (state_ != State::Collecting) return;
  if (outstanding_ != 0 || !all_complete()) return;
  state_ = State::IndexGathering;
  // "Send OVERALL_WRITE_COMPLETE to all SC" (line 18), carrying each file's
  // expected block count = local (non-stolen) writers + adaptive arrivals.
  for (std::size_t g = 0; g < config_.n_groups; ++g) {
    OverallWriteComplete msg;
    msg.expected_indices =
        config_.group_size_of(static_cast<GroupId>(g)) - stolen_from_[g] + writes_into_[g];
    msg.final_data_offset = next_offset_[g];
    out.push_back(
        SendAction{config_.sc_of(static_cast<GroupId>(g)), Message{config_.rank, msg}});
  }
}

Actions CoordinatorFsm::on_sub_index(const SubIndex& msg) {
  if (state_ != State::IndexGathering)
    throw std::logic_error("CoordinatorFsm: SUB_INDEX before OVERALL_WRITE_COMPLETE");
  if (msg.serialized_bytes < FileIndex::kHeaderBytes)
    throw std::invalid_argument("CoordinatorFsm: SUB_INDEX without its size");
  if (config_.blueprint && !msg.placements)
    throw std::logic_error("CoordinatorFsm: SUB_INDEX without placements for a kept index");
  // "Gather index pieces; merge into global index" (lines 19-20).  The size
  // follows the wire layout `8 + sum(8 + file_bytes)`, so the final write is
  // byte-exact whether or not the index is kept; a kept one merges when read.
  total_blocks_ += msg.blocks;
  global_index_bytes_ += GlobalIndex::kLengthBytes + msg.serialized_bytes;
  if (config_.blueprint)
    kept_.add(msg.group, msg.placements, IndexSize{msg.serialized_bytes, msg.blocks});
  ++sub_indices_received_;
  Actions out;
  if (sub_indices_received_ == config_.n_groups) {
    state_ = State::IndexWriting;
    out.push_back(WriteGlobalIndexAction{static_cast<double>(global_index_bytes_)});
  }
  return out;
}

Actions CoordinatorFsm::on_global_index_write_done() {
  if (state_ != State::IndexWriting)
    throw std::logic_error("CoordinatorFsm: global index completion out of order");
  state_ = State::Done;
  return {RoleDoneAction{}};
}

}  // namespace aio::core
